import hashlib

import numpy as np
import pytest

from hcl.errors import ConfigError, DomainError, ResolutionError
from hcl.grid import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    NODE_CAP,
    GridDomain,
    HermitianField,
    ScalarField,
    _coords,
    _padded,
    boundary_normal_derivatives,
    box_hessian,
    chern_laplacian,
    complex_hessian,
    constant_chi,
    gradient_sup,
    identity_chi,
)
from hcl.io import (
    CsvWriter,
    export_csv,
    read_array,
    read_hermitian_values,
    read_scalar_field,
    write_hermitian_field,
    write_scalar_field,
)


class TestDomains:
    def test_torus_has_no_boundary(self):
        dom = GridDomain.torus(2, (8, 8, 8, 8))
        assert not dom.boundary.any()
        assert dom.interior.all()
        assert dom.spacings == (2 * np.pi / 8,) * 4

    def test_product_boundary_faces(self):
        dom = GridDomain.product(2, x_shape=(6, 6), s_shape=(9, 9))
        assert dom.periodic == (True, True, False, False)
        roles = dom.roles
        assert (roles[:, :, 0, :] == BOUNDARY).all()
        assert (roles[:, :, -1, :] == BOUNDARY).all()
        assert (roles[:, :, :, 0] == BOUNDARY).all()
        assert (roles[:, :, 1:-1, 1:-1] == INTERIOR).all()

    def test_annulus_single_periodic_axis(self):
        dom = GridDomain.product(
            1, s_shape=(9, 12), s_periodic=(False, True), s_lengths=(1.0, 2 * np.pi)
        )
        assert dom.periodic == (False, True)
        assert (dom.roles[0, :] == BOUNDARY).all()
        assert (dom.roles[1:-1, :] == INTERIOR).all()

    def test_rejects_fully_periodic_s(self):
        with pytest.raises(DomainError):
            GridDomain.product(1, s_shape=(8, 8), s_periodic=(True, True))

    @pytest.mark.parametrize("make", [
        lambda: GridDomain.torus(2, (8, 0, 8, 8)),
        lambda: GridDomain.torus(2, (8, 8, 8, -1)),
        lambda: GridDomain.torus(2, (8, 8, 8, 8), (1.0, 0.0, 1.0, 1.0)),
        lambda: GridDomain.torus(2, (8, 8, 8, 8), (1.0, 1.0, 1.0)),
        lambda: GridDomain.torus(1, (8, 8), (1.0, float("nan"))),
        lambda: GridDomain.torus(0, ()),
        lambda: GridDomain.product(0),
        lambda: GridDomain.product(1, s_shape=(9, 0)),
        lambda: GridDomain.product(1, s_lengths=(1.0, -1.0)),
        lambda: GridDomain.product(2, x_shape=(4, 4), x_lengths=(0.0, 1.0)),
        lambda: GridDomain.torus(1, (8, 8), (1e300, 1.0)),
        lambda: GridDomain.product(1, s_lengths=(1e-300, 1.0)),
        lambda: GridDomain.product(1, s_shape=(2, 9)),
        lambda: GridDomain.torus(2, (32, 32, 32, 33)),
        lambda: GridDomain.torus(40, [1] * 80),
        lambda: GridDomain.product(40, x_shape=[1] * 78),
    ], ids=["zero-nodes", "negative-nodes", "zero-length", "short-lengths",
            "nan-length", "torus-n0", "product-n0", "zero-s-nodes",
            "negative-s-length", "zero-x-length", "square-overflows",
            "inverse-square-overflows", "two-node-s-axis", "node-cap",
            "torus-above-dimension-cap", "product-above-dimension-cap"])
    def test_rejects_degenerate_axes(self, make):
        with pytest.raises(DomainError):
            make()

    # a hand-built grid with no interior node was accepted, and its Dirichlet
    # solve died on numpy's zero-size reduction
    @pytest.mark.parametrize("mask, error, message", [
        (np.ones((3, 3), dtype=bool), DomainError,
         r"a mask of bool \(3, 3\) on a grid of shape \(4, 4, 9, 9\)"),
        (np.ones((4, 4, 9, 9), dtype=np.uint8), DomainError, "it needs bool"),
        (np.indices((4, 4, 9, 9))[3] < 2, ResolutionError, "sub-domain has no interior nodes"),
    ], ids=["mask-shape", "mask-dtype", "no-interior"])
    def test_rejects_bad_masks(self, mask, error, message):
        with pytest.raises(error, match=message):
            GridDomain(2, (4, 4, 9, 9), (2 * np.pi, 2 * np.pi, 1.0, 1.0),
                       (True, True, False, False), mask)

    @pytest.mark.parametrize("dom", [
        GridDomain.product(2, x_shape=(4, 2), s_shape=(7, 5)),
        GridDomain.product(1, s_shape=(9, 12), s_periodic=(False, True)),
        GridDomain.torus(2, (4, 1, 2, 3)),
    ], ids=["product", "annulus", "torus"])
    def test_whole_mask_gives_the_box_roles(self, dom):
        # each bounded axis's end layers are BOUNDARY, all else INTERIOR
        want = np.full(dom.shape, INTERIOR, dtype=np.uint8)
        for ax in [a for a, p in enumerate(dom.periodic) if not p]:
            np.moveaxis(want, ax, 0)[[0, -1]] = BOUNDARY
        whole = GridDomain(dom.n, dom.shape, dom.lengths, dom.periodic,
                           np.ones(dom.shape, dtype=bool))
        assert dom.roles.tobytes() == whole.roles.tobytes() == want.tobytes()

    def test_node_cap_admits_its_own_size(self):
        assert GridDomain.torus(2, (32, 32, 32, 32)).roles.size == NODE_CAP

    def test_restrict_roles_and_errors(self):
        dom = GridDomain.product(1, s_shape=(17, 17))
        xs, ys = dom.meshgrid()
        keep = (xs - 0.5) ** 2 + (ys - 0.5) ** 2 < 0.16
        sub = dom.restrict(keep)
        assert (sub.roles[~keep] == EXTERIOR).all()
        assert (sub.roles == INTERIOR).any()
        # every interior stencil neighbor is kept
        ii = np.argwhere(sub.roles == INTERIOR)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                nb = sub.roles[ii[:, 0] + di, ii[:, 1] + dj]
                assert not (nb == EXTERIOR).any()
        with pytest.raises(ResolutionError):
            dom.restrict(np.zeros(dom.shape, dtype=bool))
        thin = np.zeros(dom.shape, dtype=bool)
        thin[8, :] = True
        with pytest.raises(ResolutionError):
            dom.restrict(thin)

    def test_restrict_twice_stays_inside_the_parent(self):
        # a second restrict once revived the first one's exterior nodes
        dom = GridDomain.product(1, s_shape=(17, 17))
        s, t = dom.meshgrid()
        first = dom.restrict((s - 0.5) ** 2 + (t - 0.5) ** 2 < 0.16)
        second = first.restrict(s < 0.6)
        assert second.exterior[first.exterior].all()
        np.testing.assert_array_equal(second.mask, first.mask & (s < 0.6))

    def test_restrict_rejects_torus(self):
        # the solvers read an all-periodic grid as the closed problem, so a
        # torus with boundary nodes would pose neither problem
        dom = GridDomain.torus(2, (4, 4, 4, 4))
        with pytest.raises(DomainError, match="restrict needs a product domain"):
            dom.restrict(np.indices(dom.shape)[3] > 0)

    def test_restrict_roles_pinned(self):
        # sha256 of the roles of each sub-domain.  along_x varies along X: it
        # was re-pinned when the roles came to follow the 3 x ... x 3 block on
        # every axis, which made 24 of its 72 INTERIOR nodes BOUNDARY; its
        # old roles raised "bad mask" at the first Hessian
        ann = GridDomain.product(1, s_shape=(9, 12), s_periodic=(False, True))
        r, t = np.indices(ann.shape)
        seam = (r >= 1) & (r <= 7) & ((t <= 3) | (t >= 9))  # across angle 0
        box = GridDomain.product(2, x_shape=(3, 2), s_shape=(8, 9))
        idx = np.indices(box.shape)
        edge = (idx[2] <= 5) & (idx[3] >= 1) & (idx[3] <= 6)  # on the face s = 0
        disc = GridDomain.product(2, x_shape=(4, 2), s_shape=(11, 11))
        x, _, s, t = disc.meshgrid()
        along_x = (s - 0.5) ** 2 + (t - 0.5) ** 2 < 0.09 + 0.03 * np.cos(x)
        assert not (along_x == along_x[:1]).all()
        for dom, keep, digest in (
                (ann, seam, "cb508cd79a0d87be93eea8ab9636df6b533ef8eaadcb530ebf08ab3d79beeda6"),
                (box, edge, "e055ce77a6315308de2ab4da7145937728b711feafa7020ddc39332b99293dc8"),
                (disc, along_x, "6dd27ece6c25d632c95bf5126db1a333d331da37daab51913587dad836fc3f01")):
            assert hashlib.sha256(dom.restrict(keep).roles.tobytes()).hexdigest() == digest

    def test_restrict_two_node_periodic_axis(self):
        # a whole mask keeps the domain's own roles; a thinness check on the
        # kept S cross-section once rejected it
        dom = GridDomain.product(1, s_shape=(9, 2), s_periodic=(False, True))
        sub = dom.restrict(np.ones(dom.shape, dtype=bool))
        np.testing.assert_array_equal(sub.roles, dom.roles)


class TestGhostRing:
    @pytest.mark.parametrize("dom", [
        GridDomain.product(2, x_shape=(2, 2), s_shape=(7, 5)),
        GridDomain.product(1, s_shape=(6, 7), s_periodic=(True, False)),
    ], ids=["product", "annulus"])
    def test_padded_sums(self, dom):
        # the order of each ghost's sum is pinned here: no artifact digest
        # changes when it does
        u = np.random.default_rng(11).normal(0, 1, dom.shape)
        p = _padded(u, dom)
        core = tuple(slice(1, -1) for _ in dom.shape)
        np.testing.assert_array_equal(p[core], u)
        for ax, per in enumerate(dom.periodic):
            q = np.moveaxis(p[core[:ax] + (slice(None),) + core[ax + 1:]], ax, 0)
            w = np.moveaxis(u, ax, 0)
            lo, hi = (w[-1], w[0]) if per else (3.0 * w[0] + -3.0 * w[1] + w[2],
                                               w[-3] + -3.0 * w[-2] + 3.0 * w[-1])
            assert (q[0] == lo).all() and (q[-1] == hi).all()


class TestComplexHessian:
    def test_constant_field(self):
        dom = GridDomain.torus(2, (8, 4, 8, 4))
        h = complex_hessian(ScalarField.full(dom, 3.7))
        assert np.max(np.abs(h)) == 0.0

    def test_quadratic_exact(self):
        dom = GridDomain.product(
            2, x_shape=(8, 4), s_shape=(9, 9), s_lengths=(1.0, 1.0)
        )
        u = ScalarField.from_function(
            dom, lambda x1, y1, x2, y2: x2**2 + y2**2
        )
        h = complex_hessian(u)[dom.interior]
        np.testing.assert_allclose(h[:, 1, 1], 1.0, atol=1e-13)
        np.testing.assert_allclose(h[:, 0, 0], 0.0, atol=1e-13)
        np.testing.assert_allclose(h[:, 0, 1], 0.0, atol=1e-13)

    def test_sin_product_against_analytic(self):
        a = 0.7
        errors = []
        for n_nodes in (16, 32, 64):
            dom = GridDomain.torus(2, (n_nodes, 4, n_nodes, 4))
            x1, _, x2, _ = dom.meshgrid()
            u = ScalarField(dom, a * np.sin(x1) * np.sin(x2))
            h = complex_hessian(u)
            e11 = np.max(np.abs(h[..., 0, 0] - (-(a / 4) * np.sin(x1) * np.sin(x2))))
            e12 = np.max(np.abs(h[..., 0, 1] - ((a / 4) * np.cos(x1) * np.cos(x2))))
            errors.append(max(e11, e12))
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8

    def test_hermitian_bit_for_bit(self):
        dom = GridDomain.torus(2, (6, 6, 6, 6))
        rng = np.random.default_rng(0)
        u = ScalarField(dom, rng.normal(0, 1, dom.shape))
        h = complex_hessian(u)
        assert np.array_equal(h, np.conj(np.swapaxes(h, -1, -2)))

    def test_mixed_axes_convergence(self):
        # exercises the x-y cross stencils
        errors = []
        for n_nodes in (16, 32, 64):
            dom = GridDomain.torus(2, (n_nodes, 4, 4, n_nodes))
            x1, _, _, y2 = dom.meshgrid()
            u = ScalarField(dom, np.sin(x1) * np.sin(y2))
            h = complex_hessian(u)
            # u_{1 2bar} = 1/4 (u_{x1 x2} + u_{y1 y2}) + i/4 (u_{x1 y2} - u_{y1 x2})
            exact = 0.25j * np.cos(x1) * np.cos(y2)
            errors.append(np.max(np.abs(h[..., 0, 1] - exact)))
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8


def masked_product(n):
    """A product domain restricted to a disc in S: masked, so its interior
    box also holds boundary and exterior nodes."""
    dom = GridDomain.product(n, x_shape=(4, 3) * (n - 1), s_shape=(13, 11))
    s, t = dom.meshgrid()[-2:]
    return dom.restrict((s - 0.5) ** 2 + (t - 0.5) ** 2 < 0.2)


BOX_DOMAINS = [
    GridDomain.torus(2, (8, 6, 7, 4)),
    GridDomain.torus(3, (4, 3, 5, 3, 4, 3)),
    GridDomain.product(2, x_shape=(6, 4), s_shape=(9, 7)),
    GridDomain.product(3, x_shape=(4, 3, 5, 3), s_shape=(7, 8)),
    GridDomain.product(2, x_shape=(6, 4), s_shape=(9, 7), s_periodic=(False, True)),
    masked_product(2),
]
BOX_IDS = ["torus-n2", "torus-n3", "product-n2", "product-n3", "annulus-n2",
           "masked-n2"]


class TestBoxHessian:
    def test_interior_box(self):
        dom = GridDomain.product(2, x_shape=(6, 4), s_shape=(9, 7),
                                 s_periodic=(False, True))
        assert dom.interior_box == (slice(None),) * 2 + (slice(1, -1), slice(None))
        assert dom.roles[dom.interior_box].shape == (6, 4, 7, 7)
        assert GridDomain.torus(2, (8, 6, 7, 4)).interior_box == (slice(None),) * 4

    @pytest.mark.parametrize("dom", BOX_DOMAINS, ids=BOX_IDS)
    def test_matches_full_grid_bit_for_bit(self, dom):
        u = ScalarField(dom, np.random.default_rng(3).normal(0, 1, dom.shape))
        # box_hessian's Hermitian coordinates are complex_hessian's at the
        # interior nodes, in grid order, bit for bit
        g = box_hessian(u)
        assert g.shape == (dom.n ** 2, int(dom.interior.sum()))
        assert g.tobytes() == _coords(complex_hessian(u))[:, dom.interior].tobytes()
        if dom.interior[dom.interior_box].all():  # the box itself, not a copy
            assert not g.flags.owndata


class TestChernLaplacian:
    def test_modulus_squared(self):
        dom = GridDomain.product(1, s_shape=(17, 17), s_lengths=(1.0, 1.0))
        u = ScalarField.from_function(dom, lambda x, y: x**2 + y**2)
        lap = chern_laplacian(u)
        np.testing.assert_allclose(lap.values[dom.interior], 1.0, atol=1e-13)

    def test_constant(self):
        dom = GridDomain.product(1, s_shape=(9, 9))
        assert np.max(np.abs(chern_laplacian(ScalarField.full(dom, 2.0)).values)) == 0

    def test_harmonic(self):
        dom = GridDomain.product(1, s_shape=(17, 17), s_lengths=(1.0, 1.0))
        u = ScalarField.from_function(dom, lambda x, y: x**2 - y**2)
        assert np.max(np.abs(chern_laplacian(u).values[dom.interior])) < 1e-12

    def test_trace_compatibility(self):
        dom = GridDomain.torus(2, (10, 6, 8, 4))
        rng = np.random.default_rng(1)
        u = ScalarField(dom, rng.normal(0, 1, dom.shape))
        tr = np.trace(complex_hessian(u), axis1=-2, axis2=-1).real
        lap = chern_laplacian(u).values
        assert np.max(np.abs(tr - lap)) <= 1e-13

    def test_consistency_order(self):
        errors = []
        for n_nodes in (16, 32, 64):
            dom = GridDomain.torus(1, (n_nodes, n_nodes))
            x, y = dom.meshgrid()
            u = ScalarField(dom, np.sin(x) * np.cos(y))
            exact = -0.5 * np.sin(x) * np.cos(y)
            errors.append(np.max(np.abs(chern_laplacian(u).values - exact)))
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8


class TestGradientSup:
    def test_zero_field(self):
        dom = GridDomain.product(1, s_shape=(9, 9))
        assert gradient_sup(ScalarField.zeros(dom)) == 0.0

    def test_unit_slope(self):
        dom = GridDomain.product(1, s_shape=(9, 9), s_lengths=(1.0, 1.0))
        u = ScalarField.from_function(dom, lambda x, y: x)
        assert gradient_sup(u) == pytest.approx(1.0, abs=1e-12)

    def test_sine_amplitude(self):
        a = 1.7
        dom = GridDomain.torus(1, (128, 4))
        x, _ = dom.meshgrid()
        u = ScalarField(dom, a * np.sin(x))
        assert gradient_sup(u) == pytest.approx(a**2, rel=1e-3)


class TestNormalDerivatives:
    def test_linear_profile(self):
        dom = GridDomain.product(1, s_shape=(9, 9), s_lengths=(1.0, 1.0))
        u = ScalarField.from_function(dom, lambda x, y: 2.0 * x)
        faces = dict(
            ((ax, side), dv) for ax, side, dv in boundary_normal_derivatives(u)
        )
        np.testing.assert_allclose(faces[(0, 0)], 2.0, atol=1e-12)
        np.testing.assert_allclose(faces[(0, -1)], -2.0, atol=1e-12)

    def test_requires_three_nodes(self):
        # a two-node bounded axis carries no one-sided stencil: the grid itself
        # is rejected, so no ghost ring is asked of it
        dom = GridDomain.product(1, s_shape=(9, 9))
        with pytest.raises(DomainError, match="needs >= 3 nodes on the non-periodic axis 0"):
            GridDomain(dom.n, (2, 9), dom.lengths, dom.periodic,
                       np.zeros((2, 9), dtype=np.uint8))


class TestSerialization:
    def test_scalar_roundtrip(self, tmp_path):
        dom = GridDomain.product(2, x_shape=(4, 4), s_shape=(5, 7))
        rng = np.random.default_rng(2)
        f = ScalarField(dom, rng.normal(0, 1, dom.shape))
        path = tmp_path / "f.hcl"
        write_scalar_field(path, f)
        g = read_scalar_field(path, dom)
        np.testing.assert_array_equal(f.values, g.values)
        raw = path.read_bytes()
        assert raw[:4] == b"HCL1"

    def test_hermitian_roundtrip(self, tmp_path):
        dom = GridDomain.torus(2, (4, 4, 4, 4))
        chi = constant_chi(dom, np.array([[2.0, 1j], [-1j, 3.0]]))
        path = tmp_path / "chi.hcl"
        write_hermitian_field(path, chi)
        back = read_hermitian_values(path, dom)
        np.testing.assert_array_equal(chi.values, back.values)

    def test_header_metadata(self, tmp_path):
        dom = GridDomain.product(1, s_shape=(5, 6))
        f = ScalarField.zeros(dom)
        path = tmp_path / "z.hcl"
        write_scalar_field(path, f)
        values, n, flags = read_array(path)
        assert n == 1 and values.shape == (5, 6) and flags == (False, False)

    def test_trailing_bytes_are_ignored(self, tmp_path):
        dom = GridDomain.product(1, s_shape=(5, 6))
        path = tmp_path / "f.hcl"
        write_scalar_field(path, ScalarField.full(dom, 2.5))
        path.write_bytes(path.read_bytes() + b"tail")
        np.testing.assert_array_equal(read_array(path)[0], np.full(dom.shape, 2.5))

    def test_csv_export(self, tmp_path):
        dom = GridDomain.product(1, s_shape=(3, 3))
        f = ScalarField.from_function(dom, lambda x, y: x + 10 * y)
        path = tmp_path / "f.csv"
        export_csv(path, f)
        lines = path.read_text().splitlines()
        assert lines[0] == "# hcl-schema v1"
        assert lines[1] == "i0,i1,value"
        assert len(lines) == 2 + 9

    def test_csv_export_bytes(self, tmp_path):
        dom = GridDomain.product(1, s_shape=(3, 3))
        values = np.arange(9.0).reshape(3, 3) / 4 - 1
        values[2, 1] = 0.1
        path = tmp_path / "f.csv"
        export_csv(path, ScalarField(dom, values))
        assert path.read_bytes() == (
            b"# hcl-schema v1\ni0,i1,value\n0,0,-1\n0,1,-0.75\n0,2,-0.5\n"
            b"1,0,-0.25\n1,1,0\n1,2,0.25\n2,0,0.5\n2,1,0.10000000000000001\n2,2,1\n")

    @pytest.mark.parametrize("columns", [
        ([1, 2], [True, False]), ([1, 2], [True, False], [0.5, 1.5], [3, 4]),
        ([1, 2], np.array([True]), [0.5, 1.5]), ([], [True], []),
    ], ids=["too-few-columns", "too-many-columns", "short-array", "ragged"])
    def test_csv_width_mismatch_writes_nothing(self, tmp_path, columns):
        path = tmp_path / "t.csv"
        with pytest.raises(ConfigError, match="row width"):
            CsvWriter(path, ["a", "b", "c"], 7).flush(*columns)
        assert not path.exists()


class TestFieldValidation:
    def test_shape_mismatch(self):
        dom = GridDomain.torus(1, (4, 4))
        with pytest.raises(DomainError):
            ScalarField(dom, np.zeros((4, 5)))
        with pytest.raises(DomainError):
            HermitianField(dom, np.zeros((4, 4, 2, 2), dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_hermitian_non_finite(self, bad):
        dom = GridDomain.torus(1, (4, 4))
        values = np.ones((4, 4, 1, 1), dtype=complex)
        values[2, 1] = bad
        with pytest.raises(DomainError, match="finite"):
            HermitianField(dom, values)

    def test_identity_chi(self):
        dom = GridDomain.torus(2, (4, 4, 4, 4))
        chi = identity_chi(dom)
        assert chi.values.shape == dom.shape + (2, 2)
        np.testing.assert_array_equal(chi.values[0, 0, 0, 0], np.eye(2))
