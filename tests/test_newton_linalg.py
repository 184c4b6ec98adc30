"""The Newton-step linear algebra against the code it replaced.

`newton_reference` keeps the roll-loop assembly, the stencil `box_hessian`
and the LAPACK coefficient.  The cached Hessian matrix H must give the
stencils' i ddbar u to 1e-14, the Newton action through it the reference
A's products to 1e-14 of |A|_inf |v|_inf, and the explicit sigma(g), f and
Newton coefficient for n <= 3 must match `np.linalg.eigvalsh` and the
`eigh`/`einsum` coefficient, or, near the cone boundary, a 40-digit
eigendecomposition.  It also keeps the closed-mode solve that pinned node 0
and made two solves per Newton step, and a sparse LU factorization of the
bordered system; the single bordered Krylov solve, on the bordered operator,
must give the same (v, dc) as both.  Last, it keeps the constant-coefficient inverse
that applied `dstn` and `rfftn` along every axis; the dense-eigenbasis map
must apply the same preconditioner, exact or not.  It keeps, too, the CG with
which `poisson_dirichlet` refined before BiCGStab did; `test_solve.py` checks
the Poisson solves against it.
"""

import newton_reference as ref
import numpy as np
import pytest
import scipy.sparse as sp

import hcl.grid as grid_mod
import hcl.solve as solve_mod
import hcl.symfunc as symfunc_mod
from hcl.grid import (GridDomain, HermitianField, ScalarField, _coords, _hessian_csr,
                      _layout, _matrix, _stencil_offsets, box_hessian, complex_hessian,
                      identity_chi)
from hcl.solve import (
    ProblemSpec,
    SolverOptions,
    _along,
    _axis_basis,
    _bordered_operator,
    _f_of_g,
    _newton_coefficient,
    _newton_operator,
    _sigmas,
    _solve_bordered,
    _spectral_inverse,
    build_subsolution,
    residual_field,
)
from hcl.symfunc import (FuncFamily, df_dsigma, elementary_all, eval_f, f_of_sigma, grad_f,
                         in_cone)

from conftest import (
    assemble,
    exhaustion_domain,
    hermitian_stack,
    manufactured_closed_spec,
    manufactured_dirichlet_spec,
    smooth_coefficient,
)


def random_unitaries(rng, count):
    q, _ = np.linalg.qr(rng.standard_normal((count, 2, 2))
                        + 1j * rng.standard_normal((count, 2, 2)))
    return q


def newton_like_coefficient(dom, seed):
    rng = np.random.default_rng(seed)
    return hermitian_stack(rng, int(dom.interior.sum()), dom.n, shift=0.5)


ASSEMBLY_DOMAINS = {
    "dirichlet-newton": GridDomain.product(2, x_shape=(16, 4), s_shape=(33, 33),
                                           x_lengths=(6.2832, 6.2832)),
    "closed-torus": GridDomain.torus(2, (16, 8, 16, 8)),
    "annulus": GridDomain.product(2, x_shape=(8, 4), s_shape=(13, 17),
                                  s_periodic=(False, True)),
    "exhaustion": exhaustion_domain(0.02),
    "s-factor": GridDomain.product(1, s_shape=(17, 13)),
    "n3-product": GridDomain.product(3, x_shape=(4, 3, 3, 4), s_shape=(7, 6)),
}
# on axes of 1 or 2 nodes several stencil offsets reach one neighbour
HESSIAN_DOMAINS = dict(ASSEMBLY_DOMAINS, **{
    f"torus-{''.join(map(str, shape))}": GridDomain.torus(2, shape)
    for shape in [(2, 2, 2, 2), (1, 4, 4, 4)]})


def hessian_matrix(dom):
    """(H, cols) of the grid and node roles of dom (`grid._hessian_csr`)."""
    return _hessian_csr(dom.shape, dom.roles.tobytes(), dom.spacings)


def assert_action_matches_roll_loop(dom, seed):
    # to 1e-14 of |A|_inf |v|_inf: the action sums in another order than A's rows
    coeff = newton_like_coefficient(dom, seed)
    v = np.random.default_rng(seed).standard_normal(coeff.shape[0])
    a_ref = ref.assemble_linearized(dom, coeff)[0]
    scale = np.max(abs(a_ref).sum(axis=1)) * np.max(np.abs(v))
    assert np.max(np.abs(assemble(dom, coeff) @ v - a_ref @ v)) <= 1e-14 * scale


class TestHessianOperator:
    """The cached Hessian matrix H, and the Newton action through it, against
    the stencil `box_hessian` and the roll-loop assembly that they replaced."""

    @pytest.mark.parametrize("dom", HESSIAN_DOMAINS.values(), ids=HESSIAN_DOMAINS)
    def test_box_hessian_matches_stencils(self, dom):
        u = ScalarField(dom, np.random.default_rng(4).normal(0, 1, dom.shape))
        got, want = box_hessian(u), ref.box_hessian(u)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("dom", HESSIAN_DOMAINS.values(), ids=HESSIAN_DOMAINS)
    def test_action_matches_roll_loop(self, dom):
        for seed in (0, 1):
            assert_action_matches_roll_loop(dom, seed)

    @pytest.mark.parametrize("dom", HESSIAN_DOMAINS.values(), ids=HESSIAN_DOMAINS)
    def test_rows_hold_their_coordinates_taps(self, dom):
        # coordinate-major rows over the interior nodes, interior columns first;
        # 5 taps for u_{j jbar}, 8 for each of Re and Im u_{j kbar}, kept apart
        # where they reach one neighbour
        h, _ = hessian_matrix(dom)
        n_int = int(dom.interior.sum())
        assert h.shape == (dom.n ** 2 * n_int, n_int + int(dom.boundary.sum()))
        widths = [5 if j == k else 8 for j, k, _ in _layout(dom.n)]
        np.testing.assert_array_equal(np.diff(h.indptr), np.repeat(widths, n_int))

    def test_restrictions_of_one_grid_keep_their_own_operators(self):
        small, large = exhaustion_domain(0.04), exhaustion_domain(0.01)
        assert small == large  # GridDomain equality ignores the roles
        assert small.interior.sum() < large.interior.sum()
        for dom in (small, large, small):
            assert hessian_matrix(dom)[0].shape[0] == 4 * int(dom.interior.sum())
            assert_action_matches_roll_loop(dom, 3)

    def test_arrays_are_read_only_and_cached(self):
        dom = GridDomain.torus(2, (6, 4, 6, 4))
        h, _ = hessian_matrix(dom)
        assert hessian_matrix(GridDomain.torus(2, (6, 4, 6, 4)))[0] is h
        for arr in (h.data, h.indices, h.indptr):
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            h.data[0] = 1.0

    def test_dirichlet_newton_grid_takes_at_most_20_mib(self):
        h, _ = hessian_matrix(ASSEMBLY_DOMAINS["dirichlet-newton"])
        assert h.data.nbytes + h.indices.nbytes + h.indptr.nbytes <= 20 * 2**20

    def test_every_interior_stencil_reads_kept_nodes(self):
        # a mask that varied along X once left interior nodes next to a
        # dropped node, whose first Hessian raised "bad mask"
        dom = exhaustion_domain(0.02)
        keep = np.ones((4, 4, 9, 9), dtype=bool)
        keep[1, :, 5, 5] = False
        cut = GridDomain.product(2, x_shape=(4, 4), s_shape=(9, 9)).restrict(keep)
        for sub in (dom, dom.restrict(dom.interior), cut):
            at = np.argwhere(sub.interior)
            for off in _stencil_offsets(sub.n):
                assert not sub.exterior[tuple(((at + off) % sub.shape).T)].any()
            box_hessian(ScalarField.zeros(sub))
            assert_action_matches_roll_loop(sub, 0)

    def test_solves_build_no_matrix_after_their_first_iterate(self, monkeypatch):
        events, csr, residual = [], sp.csr_matrix, solve_mod.residual_field

        def counting_csr(*args, **kwargs):
            events.append("build")
            return csr(*args, **kwargs)

        def counting_residual(*args):
            events.append("residual")
            return residual(*args)

        monkeypatch.setattr(sp, "csr_matrix", counting_csr)
        monkeypatch.setattr(solve_mod, "residual_field", counting_residual)
        for make, solve in ((manufactured_dirichlet_spec, solve_mod.solve_dirichlet),
                            (manufactured_closed_spec, solve_mod.solve_closed)):
            grid_mod._hessian_csr.cache_clear()
            events.clear()
            res = solve(make(8)[0])
            assert res.iterations >= 2 and "build" in events
            second = [i for i, e in enumerate(events) if e == "residual"][1]
            assert "build" not in events[second:]


def assert_sigmas_close(g, tol=1e-12):
    # sigma_m to tol |lambda|_max^m of the sigma_m of LAPACK's eigenvalues
    lam = np.linalg.eigvalsh(g)
    s, want = _sigmas(_coords(g)), elementary_all(lam)
    size = np.max(np.abs(lam), axis=-1)
    for m in range(1, g.shape[-1] + 1):
        assert np.all(np.abs(s[m] - want[:, m]) <= tol * size**m)


class TestClosedFormEigenvalues:
    """The explicit sigma(g) of `_sigmas`, which replaced the closed-form n = 2
    eigenvalues, against the sigma of LAPACK's eigenvalues."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_random_stacks(self, scale):
        for n in (2, 3):
            g = hermitian_stack(np.random.default_rng(11), 4000, n=n, scale=scale)
            assert_sigmas_close(g)

    def test_near_singular_psd(self):
        rng = np.random.default_rng(12)
        v = rng.standard_normal((4000, 2)) + 1j * rng.standard_normal((4000, 2))
        tiny = 10.0 ** rng.uniform(-16, -6, 4000)
        g = v[:, :, None] * v[:, None, :].conj() + tiny[:, None, None] * np.eye(2)
        assert_sigmas_close(g)

    def test_touching_instance(self):
        # the touching instance psi = log(1e-4 + r^2) depends on S only, so
        # its g carries the eigenvalues (1e-4 + r^2, 1); rotations make the
        # determinant cancel
        dom = GridDomain.product(2, x_shape=(8, 4), s_shape=(17, 17))
        _, _, x2, y2 = dom.meshgrid()
        r2 = (((x2 - 0.5) ** 2 + (y2 - 0.5) ** 2) / 0.5)[dom.interior]
        q = random_unitaries(np.random.default_rng(13), r2.size)
        lam = np.stack((1e-4 + r2, np.ones_like(r2)), axis=-1)
        g = np.einsum("nik,nk,njk->nij", q, lam, q.conj())
        assert_sigmas_close(g)
        s = _sigmas(_coords(g))
        assert np.allclose(s[1], lam.sum(axis=-1), rtol=0.0, atol=1e-12)
        assert np.allclose(s[2], lam.prod(axis=-1), rtol=0.0, atol=1e-12)

    def test_larger_n_keeps_lapack(self):
        g = hermitian_stack(np.random.default_rng(14), 50, n=4)
        want = elementary_all(np.linalg.eigvalsh(g))
        np.testing.assert_array_equal(np.stack(_sigmas(_coords(g)), axis=-1), want)


FAMILIES_N2 = [
    FuncFamily.log_det(2),
    FuncFamily.sigma_root(1, 2),
    FuncFamily.log_sigma(2, 2),
    FuncFamily.sigma_quotient(2, 1, 2),
    FuncFamily.quotient_log(1, (0.5,), 2),
]


FAMILIES_N3 = [
    FuncFamily.log_det(3),
    FuncFamily.sigma_root(2, 3),
    FuncFamily.log_sigma(3, 3),
    FuncFamily.sigma_quotient(3, 1, 3),
    FuncFamily.quotient_log(2, (0.5, 1.0), 3),
]


def coefficient(family, g):
    """`_newton_coefficient` of the complex stack g, as a complex stack."""
    c = _coords(g)
    return _matrix(_newton_coefficient(family, c, _sigmas(c)))


def assert_matches(got, want, tol=1e-12):
    # each matrix to tol of its largest entry
    size = np.max(np.abs(want), axis=(1, 2))
    assert np.all(np.abs(got - want) <= tol * size[:, None, None])


def admissible_stack(family, rng, count, scale=1.0):
    """Random Hermitian (count, n, n) matrices with lambda in Gamma_k: positive
    definite ones, and for k < n shifted indefinite ones inside Gamma_k."""
    g = hermitian_stack(rng, count, family.n, scale=scale, shift=0.2)
    if family.k < family.n:
        h = hermitian_stack(rng, 4 * count, family.n, scale=scale)
        h = h + 2.0 * scale * np.eye(family.n)
        g = np.concatenate([g, h[in_cone(np.linalg.eigvalsh(h), family.k)][:count]])
    return _matrix(_coords(g))  # exactly Hermitian: both routes see one matrix


def conditioned_stack(rng, count, n, lam):
    """Hermitian (count, n, n) matrices with the eigenvalues lam times a random
    scale in [1e-3, 1e3], rotated by random unitaries."""
    q, _ = np.linalg.qr(rng.standard_normal((count, n, n))
                        + 1j * rng.standard_normal((count, n, n)))
    lam = np.asarray(lam) * 10.0 ** rng.uniform(-3.0, 3.0, (count, 1))
    return _matrix(_coords(np.einsum("nik,nk,njk->nij", q, lam, q.conj())))


def structure_pairs(family, count=200):
    """count pairs (g, gbar) of random rotated stacks with ascending spectra
    from `sample_cone`, each matrix at its own scale in [1e-3, 1e3]."""
    rng = np.random.default_rng(27)
    pts = np.sort(symfunc_mod.sample_cone(family, 2 * count, 2), axis=-1)
    g, gbar = (conditioned_stack(rng, count, family.n, pts[i::2]) for i in (0, 1))
    return g, gbar


class TestNewtonCoefficient:
    @pytest.mark.parametrize("family", FAMILIES_N2, ids=lambda f: f.kind)
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_matches_eigh_coefficient(self, family, scale):
        g = hermitian_stack(np.random.default_rng(21), 3000, shift=0.2, scale=scale)
        assert_matches(coefficient(family, g), ref.newton_coefficient(family, g))

    @pytest.mark.parametrize("family", FAMILIES_N2 + FAMILIES_N3,
                             ids=lambda f: f"{f.kind}-n{f.n}")
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_f_and_coefficient_match_lapack(self, family, scale):
        # f and F from sigma(g) against eval_f of LAPACK's eigenvalues and the
        # eigh/einsum coefficient, on random admissible stacks
        g = admissible_stack(family, np.random.default_rng(24), 2000, scale)
        f, f_ref = _f_of_g(family, _coords(g))[0], eval_f(family, np.linalg.eigvalsh(g))
        assert np.all(np.abs(f - f_ref) <= 1e-12 * (1.0 + np.abs(f_ref)))
        assert_matches(coefficient(family, g), ref.newton_coefficient(family, g))

    @pytest.mark.parametrize("family", FAMILIES_N2 + FAMILIES_N3,
                             ids=lambda f: f"{f.kind}-n{f.n}")
    def test_near_the_cone_boundary(self, family):
        # lambda_min / lambda_max = 1e-4: there LAPACK's f and F are off by up
        # to 5e-12 (its eigenvalues carry an error of eps |g|), so the
        # reference is a 40-digit eigendecomposition; sigma(g) meets 1e-12
        pytest.importorskip("mpmath")
        n, rng = family.n, np.random.default_rng(25)
        mid = 10.0 ** rng.uniform(-2.0, 0.0, (100, n - 2))
        lam = np.concatenate([np.full((100, 1), 1e-4), mid, np.ones((100, 1))], axis=1)
        g = conditioned_stack(rng, 100, n, lam)
        f_ref, coeff_ref = ref.f_and_coefficient_mp(family, g)
        f = _f_of_g(family, _coords(g))[0]
        assert np.all(np.abs(f - f_ref) <= 1e-12 * (1.0 + np.abs(f_ref)))
        assert_matches(coefficient(family, g), coeff_ref)

    @pytest.mark.parametrize("family", FAMILIES_N3, ids=lambda f: f.kind)
    def test_two_small_eigenvalues(self, family):
        # with two eigenvalues at 1e-4 |g| the inverse-like F is conditioned
        # by 1e4 along a plane: 2 eps 1e4 = 4.4e-12 is the floor that both
        # routes reach (LAPACK 3.7e-12 for log-det); the determinant takes
        # the LDL^* pivots, whose cofactor sum would be off by 2e-9
        pytest.importorskip("mpmath")
        g = conditioned_stack(np.random.default_rng(26), 100, 3, [1e-4, 1e-4, 1.0])
        f_ref, coeff_ref = ref.f_and_coefficient_mp(family, g)
        f = _f_of_g(family, _coords(g))[0]
        assert np.all(np.abs(f - f_ref) <= 1e-12 * (1.0 + np.abs(f_ref)))
        assert_matches(coefficient(family, g), coeff_ref, tol=2 * np.finfo(float).eps * 1e4)

    @pytest.mark.parametrize("family", FAMILIES_N2, ids=lambda f: f.kind)
    def test_double_eigenvalue_gives_alpha_identity(self, family):
        # F = f_1 I + f_2 (sigma_1 I - g) = alpha I exactly at g = c I, with
        # alpha = f_1 + f_2 sigma_1 - f_2 c bit for bit, and grad_f's f_1 of
        # LAPACK's eigenvalues to the oracle's 1e-12
        c = np.array([1e-3, 0.3, 1.0, 7.0, 1e3])
        g = c[:, None, None] * np.eye(2).astype(complex)
        d = df_dsigma(family, [1.0, c + c, c * c])
        f1, f2 = d.get(1, 0.0), d.get(2, 0.0)
        alpha = f1 + f2 * (c + c) - f2 * c
        np.testing.assert_array_equal(coefficient(family, g), alpha[:, None, None] * np.eye(2))
        expect = grad_f(family, np.linalg.eigvalsh(g))[:, 0]
        assert np.all(np.abs(alpha - expect) <= 1e-12 * np.abs(expect))

    @pytest.mark.parametrize("family", FAMILIES_N3 + FAMILIES_N2[4:],
                             ids=lambda f: f"{f.kind}-n{f.n}")
    def test_positive_definite(self, family):
        # the paper's ellipticity of the F that Newton uses: F > 0 at 200
        # random rotated cone points
        g, _ = structure_pairs(family)
        assert np.min(np.linalg.eigvalsh(coefficient(family, g))) > 0

    @pytest.mark.parametrize("family", FAMILIES_N3 + FAMILIES_N2[4:],
                             ids=lambda f: f"{f.kind}-n{f.n}")
    def test_pairing_inequality(self, family):
        # by concavity and symmetry of f, at 200 random rotated pairs:
        # tr(F(g) (gbar - g)) >= sum_i f_i(lambda) (lambda-bar_i - lambda_i),
        # both spectra ascending
        g, gbar = structure_pairs(family)
        lhs = np.einsum("nij,nji->n", coefficient(family, g), gbar - g).real
        lam, lam_bar = np.linalg.eigvalsh(g), np.linalg.eigvalsh(gbar)
        rhs = np.sum(grad_f(family, lam) * (lam_bar - lam), axis=-1)
        assert np.all(lhs >= rhs - 1e-8 * (1.0 + np.abs(lhs) + np.abs(rhs)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_log_det_identity(self, n):
        # F = g^-1 for log det, so I at the identity
        g = np.eye(n).astype(complex)[None]
        np.testing.assert_allclose(coefficient(FuncFamily.log_det(n), g)[0], np.eye(n),
                                   rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 3])
    def test_log_det_diagonal(self, n):
        d = np.arange(1.0, n + 1.0)
        g = np.diag(d).astype(complex)[None]
        np.testing.assert_allclose(coefficient(FuncFamily.log_det(n), g)[0], np.diag(1.0 / d),
                                   rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("family", FAMILIES_N2 + FAMILIES_N3,
                             ids=lambda f: f"{f.kind}-n{f.n}")
    def test_directional_derivative_oracle(self, family):
        # tr(F(g) h) is the derivative of f(lambda(g + t h)) at t = 0, against
        # a central difference of eval_f on LAPACK's eigenvalues
        rng = np.random.default_rng(28)
        g, _ = structure_pairs(family, 50)
        h = hermitian_stack(rng, 50, family.n)
        t = 1e-6 * np.max(np.abs(g), axis=(1, 2))[:, None, None]
        fd = (eval_f(family, np.linalg.eigvalsh(g + t * h))
              - eval_f(family, np.linalg.eigvalsh(g - t * h))) / (2 * t[:, 0, 0])
        got = np.einsum("nij,nji->n", coefficient(family, g), h).real
        assert np.all(np.abs(got - fd) <= 1e-5 * np.abs(fd) + 1e-8)

    def test_larger_n_keeps_lapack(self):
        family = FuncFamily.log_det(4)
        c = _coords(hermitian_stack(np.random.default_rng(22), 50, n=4, shift=0.5))
        np.testing.assert_array_equal(
            _newton_coefficient(family, c, _sigmas(c)),
            _coords(ref.newton_coefficient(family, _matrix(c))))

    def test_jacobian_matches_directional_derivative(self):
        # the closed-form coefficient of each nonlinear n = 2 family, assembled,
        # is the derivative of the residual at a generic iterate: chi random
        # Hermitian per node and u off the trace, so F has complex off-diagonal
        # entries
        spec, _ = manufactured_dirichlet_spec(8)
        dom = spec.domain
        rng = np.random.default_rng(23)
        chi = HermitianField(dom, hermitian_stack(rng, dom.roles.size, shift=2.0)
                             .reshape(dom.shape + (2, 2)))
        x1, y1, x2, y2 = dom.meshgrid()
        u = 0.9 * spec.phi.values + 0.05 * np.cos(x1 - y2) * np.sin(x2 + y1)
        v = np.zeros(dom.shape)
        v[dom.interior] = rng.standard_normal(int(dom.interior.sum()))
        t = 1e-5
        # sigma_1 is linear: its F is a multiple of the identity
        for family in [f for f in FAMILIES_N2 if f.kind != "sigma-root"]:
            fspec = ProblemSpec(dom, family, chi, ScalarField.full(dom, 1.0),
                                spec.phi)
            r, s, g = residual_field(fspec, u)
            assert r is not None
            coeff = _newton_coefficient(family, g, s)
            assert np.min(np.abs(coeff[2])) > 0  # Im F_01
            a = _newton_operator(dom, coeff)
            fd = (residual_field(fspec, u + t * v)[0]
                  - residual_field(fspec, u - t * v)[0]) / (2 * t)
            jv = a @ v[dom.interior]
            assert np.max(np.abs(fd - jv)) <= 1e-5 * np.max(np.abs(jv)), family.kind


class TestResidualField:
    @pytest.mark.parametrize("dom", [
        GridDomain.torus(2, (8, 6, 7, 4)),
        GridDomain.torus(3, (4, 3, 5, 3, 4, 3)),
        GridDomain.product(2, x_shape=(6, 4), s_shape=(9, 7)),
        GridDomain.product(3, x_shape=(4, 3, 5, 3), s_shape=(7, 8)),
        exhaustion_domain(0.02, (13, 11)),
    ], ids=["torus-n2", "torus-n3", "product-n2", "product-n3", "masked-n2"])
    def test_g_on_the_box_matches_full_grid(self, dom):
        # residual_field's g = chi + i ddbar u in Hermitian coordinates, formed
        # on the interior box, is the full-grid one at the interior nodes,
        # bit for bit: on a grid with a boundary u = phi, at the correction w = 0
        rng = np.random.default_rng(17)
        n = dom.n
        chi = HermitianField(dom, hermitian_stack(rng, dom.roles.size, n, shift=2.0)
                             .reshape(dom.shape + (n, n)))
        u = 1e-4 * rng.normal(0, 1, dom.shape)
        bounded = dom.boundary.any()
        spec = ProblemSpec(dom, FuncFamily.log_det(n), chi,
                           ScalarField(dom, rng.normal(0, 1, dom.shape)),
                           ScalarField(dom, u) if bounded else None)
        w = np.zeros(dom.shape) if bounded else u
        r, s, g = residual_field(spec, w, 0.25)
        want = _coords(chi.values + complex_hessian(ScalarField(dom, u)))[:, dom.interior]
        assert g.tobytes() == want.tobytes()
        assert r is not None
        psi = spec.psi.values[dom.interior]
        assert np.array_equal(r, f_of_sigma(spec.family, _sigmas(want)) - psi - 0.25)


def n3_closed_spec():
    dom = GridDomain.torus(3, (6, 3, 6, 3, 4, 3))
    x0, _, x1, _, x2, _ = dom.meshgrid()
    psi = 0.3 * np.sin(x0) * np.cos(x1) + 0.2 * np.sin(x2)
    spec = ProblemSpec(dom, FuncFamily.log_det(3), identity_chi(dom),
                       ScalarField(dom, psi))
    return spec, None


def n3_dirichlet_spec():
    dom = GridDomain.product(3, x_shape=(4, 3, 4, 3), s_shape=(7, 7))
    x0, _, x1, _, s0, s1 = dom.meshgrid()
    psi = 0.5 + 0.2 * np.sin(x0) * np.cos(x1) + 0.2 * s0 * s1
    spec = ProblemSpec(dom, FuncFamily.sigma_root(2, 3), identity_chi(dom),
                       ScalarField(dom, psi), ScalarField.zeros(dom))
    return spec, None


class TestNewtonLoop:
    @pytest.mark.parametrize("make_spec", [
        lambda: manufactured_closed_spec(8), lambda: manufactured_dirichlet_spec(8),
        n3_closed_spec, n3_dirichlet_spec,
    ], ids=["closed", "dirichlet", "closed-n3", "dirichlet-n3"])
    def test_one_hessian_per_iterate_and_no_lapack(self, make_spec, monkeypatch):
        spec, _ = make_spec()
        if spec.phi is None:
            u0 = np.zeros(spec.domain.shape)
        else:
            u0 = build_subsolution(spec, 0.1)[0].values
        hessians, evals, sigmas = [], [], []
        hessian, residual = solve_mod.box_hessian, solve_mod.residual_field
        sigma_of = solve_mod._sigmas

        def counting_hessian(u):
            hessians.append(1)
            return hessian(u)

        def counting_residual(*args):
            evals.append(1)
            return residual(*args)

        def counting_sigmas(g):
            sigmas.append(1)
            return sigma_of(g)

        def no_eigenvalues(*args, **kwargs):
            raise AssertionError("eigenvalues in the Newton loop for n <= 3")

        def no_full_grid_hessian(*args):
            raise AssertionError("full-grid Hessian in the Newton loop")

        def no_grad_f(*args):
            raise AssertionError("grad_f in the Newton loop")

        monkeypatch.setattr(solve_mod, "box_hessian", counting_hessian)
        # solve's own `_hessian_core` call is `verify_estimates`'s ghost-ring
        # Hessian; `box_hessian` reaches the grid module's
        monkeypatch.setattr(solve_mod, "_hessian_core", no_full_grid_hessian)
        monkeypatch.setattr(solve_mod, "residual_field", counting_residual)
        monkeypatch.setattr(solve_mod, "_sigmas", counting_sigmas)
        monkeypatch.setattr(solve_mod, "grad_f", no_grad_f)
        monkeypatch.setattr(symfunc_mod, "elementary_all", no_eigenvalues)
        monkeypatch.setattr(np.linalg, "eigh", no_eigenvalues)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigenvalues)
        _, _, history, _ = solve_mod._damped_newton(spec, u0, SolverOptions())
        assert len(history) >= 3 and history[-1] <= 1e-8
        # every Hessian is one residual evaluation's; steps reuse the accepted g
        assert len(hessians) == len(evals) >= len(history)
        # one sigma evaluation per residual; each step's F reuses it
        assert len(sigmas) == len(evals)


class TestBorderedSolve:
    @pytest.mark.parametrize("shape", [(8, 4, 6, 4), (16, 8, 16, 8)])
    def test_matrix_matches_bmat(self, shape):
        dom = GridDomain.torus(2, shape)
        coeff = smooth_coefficient(dom, 0.3)
        a = ref.assemble_linearized(dom, coeff)[0]
        ones = np.ones((a.shape[0], 1))
        old = sp.bmat([[a, -ones], [ones.T, None]], format="csr")
        new = _bordered_operator(assemble(dom, coeff))
        assert new.shape == old.shape
        for x in np.random.default_rng(5).standard_normal((4, old.shape[0])):
            # each product to 1e-15 of the sum of its terms' sizes
            scale = abs(old) @ np.abs(x)
            assert np.all(np.abs(new @ x - old @ x) <= 1e-15 * scale)

    def test_pinned_matrix_matches_lil_build(self):
        dom = GridDomain.torus(2, (8, 4, 6, 4))
        a = ref.assemble_linearized(dom, smooth_coefficient(dom, 0.3))[0]
        old = a.tolil()
        old.rows[0] = [0]
        old.data[0] = [1.0]
        old = old.tocsr()
        new = ref._pin_row0(a)
        assert (new - old).nnz == 0
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(new, attr), getattr(old, attr))

    @pytest.mark.parametrize("shape", [(8, 4, 6, 4), (8, 8, 8, 8)])
    def test_matches_pinned_reference(self, shape):
        dom = GridDomain.torus(2, shape)
        coeff = smooth_coefficient(dom, 0.3)
        a = assemble(dom, coeff)
        r = np.random.default_rng(7).standard_normal(a.shape[0])
        # a tolerance below the default keeps both Krylov errors well under 1e-10
        v, dc, iters = _solve_bordered(a, r, _spectral_inverse(dom, _coords(coeff)), 1e-12)
        v_ref, dc_ref, ref_iters = ref._solve_bordered(
            ref.assemble_linearized(dom, coeff)[0], r, r.size,
            ref.spectral_inverse(dom, coeff.mean(axis=0)))
        assert iters > 0 and min(ref_iters) > 0
        assert np.max(np.abs(v - v_ref)) <= 1e-10
        assert abs(dc - dc_ref) <= 1e-10

    def test_matches_factorization(self):
        dom = GridDomain.torus(2, (8, 4, 6, 4))
        coeff = smooth_coefficient(dom, 0.3)
        a = assemble(dom, coeff)
        r = np.random.default_rng(7).standard_normal(a.shape[0])
        v, dc, _ = _solve_bordered(a, r, _spectral_inverse(dom, _coords(coeff)), 1e-12)
        v_ref, dc_ref = ref.solve_bordered_direct(ref.assemble_linearized(dom, coeff)[0], r)
        assert np.max(np.abs(v - v_ref)) <= 1e-10
        assert abs(dc - dc_ref) <= 1e-10


HERMITIAN2 = np.array([[1.2, 0.3 + 0.4j], [0.3 - 0.4j, 0.9]])
HERMITIAN3 = np.array([[1.1, 0.2 - 0.1j, 0.3 + 0.2j],
                       [0.2 + 0.1j, 0.8, -0.1 + 0.25j],
                       [0.3 - 0.2j, -0.1 - 0.25j, 1.4]])


class TestSpectralInverseReference:
    @pytest.mark.parametrize("m, periodic", [
        (1, True), (2, True), (7, True), (8, True), (1, False), (9, False),
        (31, False)])
    def test_axis_basis_diagonalizes_second_difference(self, m, periodic):
        q, theta = _axis_basis(m, periodic)
        d2 = -2.0 * np.eye(m) + np.eye(m, k=1) + np.eye(m, k=-1)
        if periodic:
            d2[0, -1] += 1.0
            d2[-1, 0] += 1.0
        np.testing.assert_allclose(q.T @ q, np.eye(m), atol=1e-14)
        np.testing.assert_allclose(d2 @ q, q * (-4.0 * np.sin(0.5 * theta) ** 2),
                                   atol=1e-13)
        assert not q.flags.writeable and not theta.flags.writeable

    @pytest.mark.parametrize("dom, fbar", [
        (GridDomain.product(1, s_shape=(17, 13)), np.array([[1.3]])),
        (GridDomain.product(2, x_shape=(8, 6), s_shape=(11, 9)),
         np.diag([1.3, 0.7])),
        (GridDomain.product(3, x_shape=(6, 4, 5, 4), s_shape=(7, 9),
                            x_lengths=(1.0, 2.0, 1.5, 1.0)), HERMITIAN3),
        (GridDomain.torus(2, (8, 6, 10, 4), (1.0, 2.0, 3.0, 1.5)), HERMITIAN2),
        (GridDomain.product(1, s_shape=(9, 12), s_periodic=(False, True)),
         np.array([[0.8]])),
        # not an inverse: the X-S mixed terms of this fbar are dropped
        (GridDomain.product(2, x_shape=(7, 4), s_shape=(11, 9)), HERMITIAN2),
    ], ids=["product-n1", "product-n2-diagonal", "product-n3-hermitian",
            "torus-n2-hermitian", "annulus-n1", "product-n2-hermitian"])
    def test_matches_dst_reference(self, dom, fbar):
        rng = np.random.default_rng(11)
        new, old = _spectral_inverse(dom, _coords(fbar)[:, None]), ref.spectral_inverse(dom, fbar)
        for _ in range(3):
            r = rng.standard_normal(int(dom.interior.sum()))
            if all(dom.periodic):  # the bordered map at (r, 0) for a zero-mean r
                r -= r.mean()
                got = new(np.append(r, 0.0))[:-1]
            else:
                got = new(r)
            want = old(r)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("dom, fbar", [
        (GridDomain.product(2, x_shape=(8, 6), s_shape=(11, 9)), HERMITIAN2),
        (GridDomain.product(3, x_shape=(6, 4, 5, 4), s_shape=(7, 9)), HERMITIAN3),
        (GridDomain.torus(2, (8, 6, 10, 4)), HERMITIAN2),
    ], ids=["product-n2", "product-n3", "torus-n2"])
    def test_results_outlive_the_next_application(self, dom, fbar):
        # BiCGStab holds one application's result across the next, so no
        # application may write into an earlier result; each result is the
        # one a first application on a fresh map gives, bit for bit
        rng = np.random.default_rng(12)
        apply = _spectral_inverse(dom, _coords(fbar)[:, None])
        size = int(dom.interior.sum()) + all(dom.periodic)  # bordered on the torus
        rs = [rng.standard_normal(size) for _ in range(3)]
        outs = [apply(r) for r in rs]
        kept = [x.copy() for x in outs]
        apply(rs[0])
        for r, x, k in zip(rs, outs, kept):
            assert x.tobytes() == k.tobytes()
            assert x.tobytes() == _spectral_inverse(dom, _coords(fbar)[:, None])(r).tobytes()

    @pytest.mark.parametrize("axis", range(4))
    def test_along_is_one_matmul_bit_for_bit(self, axis):
        rng = np.random.default_rng(axis)
        x = rng.standard_normal((6, 5, 7, 4))
        q = rng.standard_normal((x.shape[axis],) * 2)
        got = _along(x, axis, q)
        m = x.shape[axis]  # the matmul that allocates its result
        plain = (x.reshape(-1, m) @ q.T if axis == x.ndim - 1
                 else q @ x.reshape(-1, m, int(np.prod(x.shape[axis + 1:]))))
        assert got.tobytes() == plain.tobytes()
        want = np.moveaxis(np.tensordot(q, x, axes=(1, axis)), 0, axis)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("dom, ffts", [
        (GridDomain.product(2, x_shape=(8, 4), s_shape=(9, 9)), 0),
        (GridDomain.product(3, x_shape=(4, 4, 4, 4), s_shape=(5, 5)), 1),
    ], ids=["product-n2-dense", "product-n3-fft"])
    def test_fft_only_on_periodic_mixed_pairs(self, dom, ffts, monkeypatch):
        import scipy.fft as sfft
        calls, rfftn = [], sfft.rfftn

        def counting_rfftn(*args, **kwargs):
            calls.append(kwargs.get("axes"))
            return rfftn(*args, **kwargs)

        monkeypatch.setattr(sfft, "rfftn", counting_rfftn)
        # a diagonal fbar: the split follows the axes, not the coefficients
        _spectral_inverse(dom, _coords(np.eye(dom.n))[:, None])(
            np.ones(int(dom.interior.sum())))
        assert calls == [[0, 1, 2, 3]] * ffts
