import re
from dataclasses import replace

import newton_reference as ref
import numpy as np
import pytest

from conftest import (
    assemble,
    exhaustion_domain,
    hermitian_stack,
    manufactured_closed_spec,
    manufactured_dirichlet_spec,
    poisson_square_series,
    smooth_coefficient,
)
from hcl.errors import (
    ConeExitError,
    ConstructionError,
    DomainError,
    GaugeError,
    NumericError,
    ResolutionError,
    StallError,
)
from hcl.grid import (
    GridDomain,
    HermitianField,
    ScalarField,
    _coords,
    _matrix,
    boundary_normal_derivatives,
    chern_laplacian,
    complex_hessian,
    constant_chi,
    identity_chi,
)
import hcl.solve as solve_mod
from hcl.solve import (
    ProblemSpec,
    SolveResult,
    SolverOptions,
    _bordered_operator,
    _direct_axis,
    _line_inverse,
    _newton_coefficient,
    _newton_operator,
    _solve_bordered,
    _solve_general,
    _spectral_inverse,
    build_subsolution,
    build_supersolution,
    degenerate_sweep,
    domain_exhaustion,
    poisson_dirichlet,
    residual_field,
    s_factor_potential,
    solve_closed,
    solve_dirichlet,
    verify_estimates,
)
from hcl.symfunc import FuncFamily, f_of_sigma

LOGDET2 = FuncFamily.log_det(2)


def small_dirichlet_spec(psi_value=0.5, phi_value=0.0, s_nodes=(13, 13)):
    dom = GridDomain.product(
        2, x_shape=(8, 4), s_shape=s_nodes,
        x_lengths=(2 * np.pi, 2 * np.pi), s_lengths=(1.0, 1.0),
    )
    return ProblemSpec(
        dom, LOGDET2, identity_chi(dom), ScalarField.full(dom, psi_value),
        ScalarField.full(dom, phi_value),
    )


class TestPoisson:
    def test_zero_data(self):
        dom = GridDomain.product(1, s_shape=(17, 17))
        h = poisson_dirichlet(dom, 0.0)
        assert np.max(np.abs(h.values)) == 0.0

    def test_unit_square_center_vs_series(self):
        # Chern convention: lap h = 1 corresponds to lap_euc h = 4, so
        # h = -4 w with -lap_euc w = 1.
        dom = GridDomain.product(1, s_shape=(129, 129), s_lengths=(1.0, 1.0))
        h = poisson_dirichlet(dom, 1.0)
        center = h.values[64, 64]
        expected = -4.0 * poisson_square_series(0.5, 0.5)
        assert center == pytest.approx(expected, rel=2e-4)

    def test_interior_negative(self):
        dom = GridDomain.product(1, s_shape=(33, 33), s_lengths=(1.0, 1.0))
        h = poisson_dirichlet(dom, 1.0)
        assert np.max(h.values[dom.interior]) < 0.0

    def test_normal_derivative_negative(self):
        dom = GridDomain.product(1, s_shape=(33, 33), s_lengths=(1.0, 1.0))
        h = poisson_dirichlet(dom, 1.0)
        for ax, side, dv in boundary_normal_derivatives(h):
            assert np.max(dv[1:-1]) < 0.0  # corners excluded

    def test_residual_certified(self):
        dom = GridDomain.product(1, s_shape=(33, 33), s_lengths=(1.0, 1.0))
        rng = np.random.default_rng(0)
        rhs = ScalarField(dom, rng.normal(0, 1, dom.shape))
        h = poisson_dirichlet(dom, rhs)
        from hcl.grid import chern_laplacian

        resid = chern_laplacian(h).values[dom.interior] - rhs.values[dom.interior]
        assert np.max(np.abs(resid)) <= 1e-10 * (1 + np.max(np.abs(rhs.values)))

    # boundary data enter through the supersolution: v = phi + h, with h the
    # Poisson solution for -tr(chi + i ddbar phi) and 0 on the boundary
    @staticmethod
    def with_data(dom, rhs, phi):
        """`build_supersolution`'s v: chern_laplacian(v) = rhs, v = phi on the
        boundary, for chi = diag(-rhs, 0, ...)."""
        chi = np.zeros(dom.shape + (dom.n, dom.n))
        chi[..., 0, 0] = -rhs.values
        spec = ProblemSpec(dom, FuncFamily.log_det(dom.n), HermitianField(dom, chi),
                           ScalarField.zeros(dom), phi)
        return build_supersolution(spec)

    # a family needs n >= 2: the box and the annulus take a one-node X factor
    @pytest.mark.parametrize("dom", [
        GridDomain.product(2, x_shape=(1, 1), s_shape=(33, 33)),
        GridDomain.product(2, x_shape=(4, 4), s_shape=(17, 17)),
        GridDomain.product(2, x_shape=(1, 1), s_shape=(33, 24), s_lengths=(1.0, 2 * np.pi),
                           s_periodic=(False, True)),
    ], ids=["box", "product-n2", "annulus"])
    def test_boundary_data(self, dom):
        # q is quadratic along the bounded axes only, so it stays periodic
        s = [x for x, per in zip(dom.meshgrid(), dom.periodic) if not per]
        q = 0.5 + s[0] - 2.0 * s[0] ** 2
        if len(s) > 1:
            q = q + 3.0 * s[0] * s[1] - s[1] ** 2
        q = ScalarField(dom, q)
        rhs = chern_laplacian(q)
        assert np.max(np.abs(self.with_data(dom, rhs, q).values - q.values)) <= 1e-12
        h0 = self.with_data(dom, rhs, ScalarField.zeros(dom)).values
        h = self.with_data(dom, rhs, ScalarField.full(dom, 0.75)).values
        assert np.max(np.abs(h - 0.75 - h0)) <= 1e-12

    def test_masked_boundary_data_meets_certificate(self):
        # the Poisson system's right side, -tr(chi + i ddbar q), is about 0
        # here; with q's share taken from the boundary instead, the masked
        # solve missed its certificate (1.39e-09 > 2.50e-10)
        dom = GridDomain.product(2, x_shape=(4, 4), s_shape=(21, 21))
        sub = dom.restrict(s_factor_potential(dom).values < -0.02)
        _, _, s0, s1 = sub.meshgrid()
        q = ScalarField(sub, 0.5 + s0 - 2.0 * s0 ** 2 + 3.0 * s0 * s1 - s1 ** 2)
        rhs = chern_laplacian(q)
        u = self.with_data(sub, rhs, q)
        resid = chern_laplacian(u).values[sub.interior] - rhs.values[sub.interior]
        assert np.max(np.abs(resid)) <= 1e-10 * (1 + np.max(np.abs(rhs.values)))
        assert np.max(np.abs(u.values - q.values)[~sub.exterior]) <= 1e-11

    def test_needs_boundary(self):
        dom = GridDomain.torus(1, (8, 8))
        with pytest.raises(DomainError):
            poisson_dirichlet(dom, 1.0)


def constant_operator(dom, fbar):
    """Interior operator of sum fbar^{j kbar} (Hess v)_{j kbar}, fbar constant."""
    fbar = np.asarray(fbar, dtype=complex)
    nint = int(dom.interior.sum())
    a = assemble(dom, np.broadcast_to(fbar, (nint,) + fbar.shape))
    return a


class TestSpectralInverse:
    @pytest.mark.parametrize("dom, fbar", [
        (GridDomain.product(1, s_shape=(17, 13)), np.eye(1)),
        (GridDomain.product(2, x_shape=(8, 6), s_shape=(11, 9)),
         np.diag([1.3, 0.7])),
        # a full Hermitian fbar: the mixed symbols and their signs enter
        (GridDomain.torus(2, (8, 6, 10, 4), (1.0, 2.0, 3.0, 1.5)),
         np.array([[1.2, 0.3 + 0.4j], [0.3 - 0.4j, 0.9]])),
        # odd periodic lengths: no alternating column in the Fourier basis
        (GridDomain.product(2, x_shape=(7, 5), s_shape=(11, 9)),
         np.diag([0.8, 1.1])),
        # one periodic S axis: a dense Fourier basis next to a DST-I
        (GridDomain.product(1, s_shape=(9, 12), s_periodic=(False, True)),
         np.eye(1)),
        # X axes on the FFT (a Hermitian X block), S axes on dense bases
        (GridDomain.product(3, x_shape=(6, 4, 5, 4), s_shape=(7, 9),
                            x_lengths=(1.0, 2.0, 1.5, 1.0)),
         np.array([[1.2, 0.3 + 0.4j, 0.0], [0.3 - 0.4j, 0.9, 0.0],
                   [0.0, 0.0, 1.4]])),
    ], ids=["product-n1", "product-n2-diagonal", "torus-n2-hermitian",
            "product-n2-odd-x", "annulus-n1", "product-n3-block"])
    def test_inverts_constant_operator(self, dom, fbar):
        a = constant_operator(dom, fbar)
        if all(dom.periodic):  # constants span the kernel: the map is bordered
            a = _bordered_operator(a)
        solve = _spectral_inverse(dom, _coords(fbar)[:, None])
        v = np.random.default_rng(3).standard_normal(a.shape[0])
        assert np.max(np.abs(solve(a @ v) - v)) <= 1e-12

    @pytest.mark.parametrize("nodes", [33, 65])
    def test_poisson_matches_cg(self, nodes):
        dom = GridDomain.product(1, s_shape=(nodes, nodes))
        rhs = np.random.default_rng(nodes).normal(0, 1, dom.shape)
        h = poisson_dirichlet(dom, ScalarField(dom, rhs))
        a = ref.assemble_linearized(dom, np.ones((int(dom.interior.sum()), 1, 1)))[0]
        target = 1e-10 * (1.0 + np.max(np.abs(rhs[dom.interior])))
        x = ref._solve_spd(-a, -rhs[dom.interior], target)
        assert np.max(np.abs(h.values[dom.interior] - x)) <= 1e-12

    def test_masked_domain_goes_through_bicgstab(self, monkeypatch):
        dom = GridDomain.product(1, s_shape=(33, 33))
        calls = []
        bicgstab = solve_mod.spla.bicgstab

        def counting_bicgstab(*args, **kwargs):
            calls.append(1)
            return bicgstab(*args, **kwargs)

        monkeypatch.setattr(solve_mod.spla, "bicgstab", counting_bicgstab)
        h = poisson_dirichlet(dom, 1.0)
        assert calls == []  # the box is solved directly
        sub = dom.restrict(h.values < -0.02)
        # the sub-domain takes the box's inverse, scattered and gathered
        eye = _coords(np.eye(1))[:, None]
        r = np.random.default_rng(8).standard_normal(int(sub.interior.sum()))
        box = np.zeros(dom.shape)
        box[sub.interior] = r
        want = _spectral_inverse(dom, eye)(box[dom.interior])
        got = _spectral_inverse(sub, eye)(r)
        assert got.tobytes() == want[sub.interior[dom.interior_box].reshape(-1)].tobytes()
        h_sub = poisson_dirichlet(sub, 1.0)
        assert calls
        resid = chern_laplacian(h_sub).values[sub.interior] - 1.0
        assert np.max(np.abs(resid)) <= 2e-10

    def test_non_finite_coefficient_raises(self):
        # a NaN symbol made the map None, and BiCGStab silently took the diagonal
        dom = GridDomain.product(2, x_shape=(4, 4), s_shape=(9, 9))
        coeff = _coords(smooth_coefficient(dom, 0.3))
        coeff[0, 5] = np.nan
        with pytest.raises(NumericError, match="non-finite symbol"):
            _spectral_inverse(dom, coeff)

    def test_uncertified_direct_solve_is_refined_or_raises(self, monkeypatch):
        dom = GridDomain.product(1, s_shape=(33, 33))
        rhs = ScalarField(dom, np.random.default_rng(4).normal(0, 1, dom.shape))
        exact = poisson_dirichlet(dom, rhs)
        inverse = solve_mod._spectral_inverse

        def inverse_off(*args):  # a direct solve 0.1% off misses the certificate
            apply = inverse(*args)
            return lambda r: 1.001 * apply(r)

        # the off inverse then preconditions the one BiCGStab pass
        monkeypatch.setattr(solve_mod, "_spectral_inverse", inverse_off)
        calls = []
        general = solve_mod._solve_general

        def counting_general(*args, **kwargs):
            calls.append(1)
            return general(*args, **kwargs)

        monkeypatch.setattr(solve_mod, "_solve_general", counting_general)
        h = poisson_dirichlet(dom, rhs)
        assert calls == [1]
        resid = chern_laplacian(h).values[dom.interior] - rhs.values[dom.interior]
        assert np.max(np.abs(resid)) <= 1e-10 * (1 + np.max(np.abs(rhs.values)))
        assert np.max(np.abs(h.values - exact.values)) <= 1e-12
        # a pass that corrects nothing misses the certificate again
        monkeypatch.setattr(solve_mod, "_solve_general",
                            lambda a, b, *args: (np.zeros_like(b), 0))
        with pytest.raises(NumericError, match="after one BiCGStab pass"):
            poisson_dirichlet(dom, rhs)
        # and a BiCGStab breakdown is a numeric error as well
        monkeypatch.setattr(solve_mod, "_solve_general", general)
        monkeypatch.setattr(solve_mod.spla, "bicgstab",
                            lambda a, b, x0=None, **kwargs: (x0, -10))
        with pytest.raises(NumericError, match="info=-10"):
            poisson_dirichlet(dom, rhs)

    def test_krylov_iterations_flat_under_refinement(self):
        peak = []
        for nodes in (17, 65):
            dom = GridDomain.product(2, x_shape=(4, 4), s_shape=(nodes, nodes))
            x0, _, s0, s1 = dom.meshgrid()
            psi = (0.4 + 0.1 * np.sin(x0) * np.cos(np.pi * s0)
                   + 0.1 * np.sin(np.pi * s1))
            spec = ProblemSpec(dom, LOGDET2, identity_chi(dom),
                               ScalarField(dom, psi), ScalarField.zeros(dom))
            res = solve_dirichlet(spec)
            assert len(res.linear_solves) == res.iterations
            peak.append(max(res.linear_solves))
        # diagonal preconditioning needs about 4x the iterations at 65^2
        assert peak[1] <= peak[0] + 5

    def test_bordered_solve_meets_every_row(self):
        dom = GridDomain.torus(2, (8, 4, 6, 4))
        coeff = smooth_coefficient(dom, 0.3)
        a = assemble(dom, coeff)
        r = np.random.default_rng(7).standard_normal(a.shape[0])
        v, dc, iters = _solve_bordered(a, r, _spectral_inverse(dom, _coords(coeff)))
        assert iters > 0
        assert np.max(np.abs(a @ v - dc + r)) <= 1e-9
        assert abs(v.sum()) <= 1e-9

    def test_bordered_preconditioner_inverts_constant_operator(self):
        # a full Hermitian fbar on unequal lengths: every symbol enters, and a
        # wrong sign of dc or a missing mean removal breaks one of the rows
        dom = GridDomain.torus(2, (8, 6, 10, 4), (1.0, 2.0, 3.0, 1.5))
        fbar = np.array([[1.2, 0.3 + 0.4j], [0.3 - 0.4j, 0.9]])
        m = _bordered_operator(constant_operator(dom, fbar))
        inverse = _spectral_inverse(dom, _coords(fbar)[:, None])
        y = np.random.default_rng(3).standard_normal(m.shape[0])
        assert np.max(np.abs(inverse(m @ y) - y)) <= 1e-12
        assert np.max(np.abs(m @ inverse(y) - y)) <= 1e-12

    def test_preconditioner_built_only_for_krylov_steps(self, monkeypatch):
        spec, _ = manufactured_closed_spec(8)
        builds, inverse = [], solve_mod._spectral_inverse

        def counting_inverse(*args):
            builds.append(1)
            return inverse(*args)

        monkeypatch.setattr(solve_mod, "_spectral_inverse", counting_inverse)
        res = solve_closed(spec)
        # every Newton step is a Krylov step and builds one preconditioner
        assert len(builds) == res.iterations == len(res.linear_solves)

    @pytest.mark.parametrize("scale", [1e-6, 1e-8])
    def test_tiny_rhs_needs_no_factorization(self, scale):
        # scipy's absolute breakdown test |rho| < eps^2 used to end BiCGStab
        # on right-hand sides this small, and a breakdown now raises
        dom = GridDomain.product(2, x_shape=(8, 4), s_shape=(17, 17))
        coeff = smooth_coefficient(dom, 0.3)
        a = assemble(dom, coeff)
        x0, _, s0, s1 = dom.meshgrid()
        b = scale * (np.sin(x0) * np.sin(np.pi * s0) * np.sin(np.pi * s1))[
            dom.interior]
        x, iters = _solve_general(a, b, _spectral_inverse(dom, _coords(coeff)))
        assert iters > 0
        assert np.linalg.norm(a @ x - b) <= 10 * solve_mod.LIN_TOL * np.linalg.norm(b)

    def test_zero_start_draws_no_random_numbers(self, monkeypatch):
        # every BiCGStab run started from a seed-0 draw
        def no_draws(*args, **kwargs):
            raise AssertionError("random numbers drawn by a solve")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        res = solve_dirichlet(small_dirichlet_spec(psi_value=0.4))
        assert res.residual_history[-1] <= 1e-9 * 1.4
        spec, _ = manufactured_closed_spec(8)
        assert solve_closed(spec).residual_history[-1] <= 1e-9 * (
            1.0 + np.max(np.abs(spec.psi.values)))

    def test_zero_start_needs_no_initial_product(self):
        # the spectral inverse at F = I is exact on an unmasked box, so BiCGStab
        # ends in its first half step: A once there and once for the
        # certificate, the preconditioner once; a nonzero start took A three times
        dom = GridDomain.product(2, x_shape=(4, 4), s_shape=(9, 9))
        eye = _coords(np.eye(2))[:, None]
        a = constant_operator(dom, np.eye(2))
        counts = {"A": 0, "M": 0}
        inverse = _spectral_inverse(dom, eye)

        def matvec(x):
            counts["A"] += 1
            return a @ x

        def precondition(r):
            counts["M"] += 1
            return inverse(r)

        op = solve_mod.spla.LinearOperator(a.shape, matvec=matvec, dtype=float)
        b = np.random.default_rng(9).standard_normal(a.shape[0])
        x, iters = _solve_general(op, b, precondition)
        assert counts == {"A": 2, "M": 1} and iters == 1
        assert np.linalg.norm(a @ x - b) <= 10 * solve_mod.LIN_TOL * np.linalg.norm(b)

    def test_rtol_sets_the_krylov_tolerance(self):
        # a Newton step's forcing floor reaches BiCGStab, not just the certificate
        dom = GridDomain.product(2, x_shape=(8, 4), s_shape=(17, 17))
        coeff = smooth_coefficient(dom, 0.3)
        a = assemble(dom, coeff)
        b = np.random.default_rng(6).standard_normal(a.shape[0])
        inverse = _spectral_inverse(dom, _coords(coeff))
        _, tight = _solve_general(a, b, inverse)
        x, loose = _solve_general(a, b, inverse, rtol=1e-4)
        assert loose < tight
        assert np.linalg.norm(a @ x - b) <= 10 * 1e-4 * np.linalg.norm(b)

    def test_uncertified_run_restarts_before_factorization(self, monkeypatch):
        dom = GridDomain.product(2, x_shape=(8, 4), s_shape=(9, 9))
        coeff = smooth_coefficient(dom, 0.3)
        a = assemble(dom, coeff)
        inverse = _spectral_inverse(dom, _coords(coeff))
        b = np.random.default_rng(5).standard_normal(a.shape[0])
        bicgstab, runs = solve_mod.spla.bicgstab, []

        def first_run_misses(*args, **kwargs):
            x, info = bicgstab(*args, **kwargs)
            runs.append(info)
            return (x + 1e-3 if len(runs) == 1 else x), info

        monkeypatch.setattr(solve_mod.spla, "bicgstab", first_run_misses)
        x, _ = _solve_general(a, b, inverse)
        assert runs == [0, 0]
        assert np.linalg.norm(a @ x - b) <= 10 * solve_mod.LIN_TOL * np.linalg.norm(b)
        # when the restart misses too, the error names the true residual and
        # its target, not the info = 0 that both runs returned
        runs.clear()
        monkeypatch.setattr(solve_mod.spla, "bicgstab", lambda *args, **kwargs: (
            runs.append(0) or (bicgstab(*args, **kwargs)[0] + 1e-3, 0)))
        with pytest.raises(NumericError) as err:
            _solve_general(a, b, inverse)
        assert runs == [0, 0]
        got = re.search(r"true residual (\S+) above its target (\S+) twice", str(err.value))
        assert got and "info" not in str(err.value)
        target = 10 * solve_mod.LIN_TOL * np.linalg.norm(b)
        assert float(got[2]) == pytest.approx(target, rel=1e-3)
        assert float(got[1]) > float(got[2])

    def test_failed_krylov_solve_raises(self, monkeypatch):
        dom = GridDomain.product(2, x_shape=(8, 4), s_shape=(9, 9))
        coeff = smooth_coefficient(dom, 0.3)
        a = assemble(dom, coeff)
        b = np.random.default_rng(5).standard_normal(a.shape[0])
        monkeypatch.setattr(solve_mod.spla, "bicgstab",
                            lambda a, b, x0=None, **kwargs: (x0, -10))
        with pytest.raises(NumericError, match="info=-10"):
            _solve_general(a, b, _spectral_inverse(dom, _coords(coeff)))

    def test_failed_bordered_solve_is_a_gauge_error(self, monkeypatch):
        dom = GridDomain.torus(2, (8, 4, 6, 4))
        coeff = smooth_coefficient(dom, 0.3)
        a = assemble(dom, coeff)
        r = np.random.default_rng(7).standard_normal(a.shape[0])
        monkeypatch.setattr(solve_mod.spla, "bicgstab",
                            lambda a, b, x0=None, **kwargs: (x0, -10))
        with pytest.raises(GaugeError, match="info=-10"):
            _solve_bordered(a, r, _spectral_inverse(dom, _coords(coeff)))

    def test_half_step_iterations_counted(self):
        # scipy returns on a small half-step residual without calling its
        # callback; a callback count read 0 on this torus's first step
        dom = GridDomain.torus(2, (10, 4, 10, 5))
        x0 = dom.meshgrid()[0]
        psi = ScalarField(dom, 0.4 * np.sin(2 * np.pi / dom.lengths[0] * x0))
        spec = ProblemSpec(dom, LOGDET2, identity_chi(dom), psi)
        res = solve_closed(spec)
        assert len(res.linear_solves) == res.iterations == 4
        assert min(res.linear_solves) > 0


def torus_profile_coefficient(dom, axis, flat):
    """Hermitian coordinates (4, N) of a full Hermitian coefficient that varies
    along `axis`, plus `flat` times a variation along the other axes."""
    x = dom.meshgrid()
    t = 2 * np.pi * x[axis] / dom.lengths[axis]
    rest = flat * sum(np.sin(2 * np.pi * x[a] / dom.lengths[a] + a)
                      for a in range(len(x)) if a != axis)
    c = np.zeros(dom.shape + (2, 2), dtype=complex)
    c[..., 0, 0] = 1.2 + 0.3 * np.sin(t) + rest
    c[..., 1, 1] = 0.9 + 0.2 * np.cos(t)
    c[..., 0, 1] = 0.3 + 0.4j + (0.1 - 0.05j) * np.sin(t) + 0.5j * rest
    c[..., 1, 0] = c[..., 0, 1].conj()
    return _coords(c.reshape(-1, 2, 2))


class TestLineInverse:
    # unequal lengths and a 3-node direct axis that is not axis 0
    DOM = GridDomain.torus(2, (6, 3, 5, 4), (1.0, 2.0, 3.0, 1.5))

    @staticmethod
    def averaged(dom, axis, flat):
        """(coefficient varying along `axis`, the reference A at the
        coefficient averaged over every axis but its D, which must be `axis`)."""
        coeff = torus_profile_coefficient(dom, axis, flat)
        d, profile = _direct_axis(dom.shape, coeff)
        assert d == axis
        others = tuple(a + 1 for a in range(len(dom.shape)) if a != axis)
        want = coeff.reshape(4, *dom.shape).mean(axis=others)
        np.testing.assert_allclose(profile, want, rtol=0.0, atol=1e-15)
        mean = np.broadcast_to(np.expand_dims(profile, others), (4, *dom.shape))
        return coeff, ref.assemble_linearized(dom, _matrix(mean.reshape(4, -1)))[0]

    def test_inverts_bordered_operator_of_averaged_coefficient(self):
        coeff, a = self.averaged(self.DOM, 1, 0.05)
        m = _bordered_operator(a)
        inverse = _spectral_inverse(self.DOM, coeff)
        y = np.random.default_rng(8).standard_normal(m.shape[0])
        assert np.max(np.abs(inverse(m @ y) - y)) <= 1e-12
        assert np.max(np.abs(m @ inverse(y) - y)) <= 1e-12

    @pytest.mark.parametrize("dom, axis, flat", [
        (DOM, 1, 0.05),
        # on 2 nodes the steps -1 and +1 reach one neighbour
        (GridDomain.torus(2, (6, 2, 5, 4), (1.0, 2.0, 3.0, 1.5)), 1, 0.05),
        (GridDomain.torus(2, (2, 2, 2, 2)), 1, 0.05),
        # a constant coefficient takes D = 0, here of 1 node, which the steps
        # -1, 0 and +1 all reach
        (GridDomain.torus(2, (1, 1, 3, 1), (1.0, 2.0, 3.0, 1.5)), 0, 0.0),
    ], ids=["3-nodes", "2-nodes", "2-nodes-everywhere", "1-node"])
    def test_matches_dense_per_mode_solves(self, dom, axis, flat):
        # the oracle: per rfftn mode k along the other axes T, the dense
        # A_k = E_k^H A E_k / P (column j of E_k the wave of k on line j),
        # solved by pivoted np.linalg.solve, the zero mode bordered by the gauge
        coeff, a = self.averaged(dom, axis, flat)
        a = a.toarray()
        shape, m = dom.shape, dom.shape[axis]
        t_shape = [s for ax, s in enumerate(shape) if ax != axis]
        y = np.random.default_rng(9).standard_normal(a.shape[0] + 1)
        f = np.fft.rfftn(np.moveaxis(y[:-1].reshape(shape), axis, 0), axes=(1, 2, 3))
        lines = np.moveaxis(np.arange(a.shape[0]).reshape(shape), axis, 0).reshape(m, -1)
        xt = np.meshgrid(*[np.arange(s) for s in t_shape], indexing="ij")
        x, p = np.empty_like(f), float(np.prod(t_shape))
        for k in np.ndindex(f.shape[1:]):
            wave = np.exp(2j * np.pi * sum(kk * g / s for kk, g, s in zip(k, xt, t_shape)))
            e = np.zeros((a.shape[0], m), dtype=complex)
            for j in range(m):
                e[lines[j], j] = wave.reshape(-1)
            ak, col = e.conj().T @ a @ e / p, (slice(None), *k)
            if any(k):
                x[col] = np.linalg.solve(ak, f[col])
            else:
                border = np.block([[ak.real, -p * np.ones((m, 1))],
                                   [np.ones((1, m)), np.zeros((1, 1))]])
                zero = np.linalg.solve(border, np.append(f[col].real, y[-1]))
                x[col] = zero[:m]
        v = np.fft.irfftn(x, s=t_shape, axes=(1, 2, 3))
        want = np.append(np.moveaxis(v, 0, axis), zero[m])
        got = _spectral_inverse(dom, coeff)(y)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_product_domain_keeps_mean_symbol(self, monkeypatch):
        dom = GridDomain.product(2, x_shape=(6, 4), s_shape=(9, 9))
        coeff = _coords(smooth_coefficient(dom, 0.3))

        def no_line_inverse(*args):
            raise AssertionError("a line solve on a product domain")

        monkeypatch.setattr(solve_mod, "_line_inverse", no_line_inverse)
        y = np.random.default_rng(10).standard_normal(int(dom.interior.sum()))
        got = _spectral_inverse(dom, coeff)(y)
        mean = _spectral_inverse(dom, coeff.mean(axis=1, keepdims=True))(y)
        assert got.tobytes() == mean.tobytes()

    @pytest.mark.parametrize("f11", [0.0, np.nan], ids=["zero", "nan"])
    def test_bad_pivot_raises(self, f11):
        # F = diag(1, 0): a mode flat along axis 0 sees only the cyclic second
        # difference along D, whose constants give an exact zero pivot, while
        # the bordered zero mode stays regular
        profile = np.zeros((4, 3))
        profile[0], profile[3] = 1.0, f11
        with pytest.raises(NumericError, match="pivot"):
            _line_inverse(self.DOM, 1, profile)


class TestSubsolution:
    def test_trivial_when_background_strict(self):
        spec = small_dirichlet_spec(psi_value=-0.5)
        usub, t = build_subsolution(spec, 0.1)
        assert t == 0.0
        assert np.max(np.abs(usub.values)) == 0.0

    def test_log_det_needs_positive_t(self):
        spec = small_dirichlet_spec(psi_value=0.5)
        usub, t = build_subsolution(spec, 0.1)
        assert t >= 1.0
        r, s, _ = residual_field(spec, usub.values)
        assert r is not None
        assert np.min(f_of_sigma(LOGDET2, s) - (0.5 + 0.1)) >= 0.0

    def test_boundary_values_preserved(self):
        # the correction u_sub - phi is 0 on the boundary, so u_sub is phi there
        spec = small_dirichlet_spec(psi_value=0.5, phi_value=0.25)
        w, _ = build_subsolution(spec, 0.1)
        bdry = spec.domain.boundary
        assert np.all(w.values[bdry] == 0.0)
        assert np.all(solve_dirichlet(spec).subsolution.values[bdry] == 0.25)

    def test_masked_correction_is_the_checked_start(self):
        # the box potential is not 0 on a sub-domain's boundary: the correction
        # is 0 off the interior, and residual_field's g at it is the g whose
        # level the ladder checked
        dom = exhaustion_domain(0.02)
        spec = ProblemSpec(dom, LOGDET2, identity_chi(dom), ScalarField.full(dom, 0.5),
                           ScalarField.full(dom, 0.25))
        w, t = build_subsolution(spec, 0.1)
        assert t >= 1.0 and np.all(w.values[~dom.interior] == 0.0)
        r, s, _ = residual_field(spec, w.values)
        assert r is not None and np.min(f_of_sigma(LOGDET2, s) - (0.5 + 0.1)) >= 0.0

    def test_cone_condition_failure(self):
        fam = FuncFamily.quotient_log(2, (0.0, 1.0), 3)
        dom = GridDomain.product(3, x_shape=(4, 4, 4, 4), s_shape=(9, 9))
        chi = constant_chi(dom, np.diag([-1.0, 0.5, 1.0]))
        spec = ProblemSpec(
            dom, fam, chi, ScalarField.full(dom, 0.2),
            ScalarField.zeros(dom),
        )
        with pytest.raises(ConstructionError,
                           match="cone violation at interior node #0 for t=1048576.0"):
            build_subsolution(spec, 0.05)

    def test_level_failure(self):
        # every rung is admissible, but none reaches psi + delta
        spec = small_dirichlet_spec(psi_value=0.5)
        # many nodes fall short by 36.637055435 (#34 and #52 agree to 2e-12
        # relative); the node named is the one whose rounding falls furthest
        with pytest.raises(ConstructionError, match=(
                r"level short by 3\.664e\+01 at interior node #52 for t=1048576\.0")):
            build_subsolution(spec, 50.0)


class TestSupersolution:
    def test_zero_background(self):
        spec = small_dirichlet_spec()
        zero_chi = constant_chi(spec.domain, np.zeros((2, 2)))
        spec0 = ProblemSpec(spec.domain, LOGDET2, zero_chi, spec.psi,
                            spec.phi)
        v = build_supersolution(spec0)
        assert np.max(np.abs(v.values)) <= 1e-11

    def test_identity_background_scales_poisson(self):
        spec = small_dirichlet_spec()
        v = build_supersolution(spec)
        h = s_factor_potential(spec.domain)
        np.testing.assert_allclose(v.values, -2.0 * h.values, atol=1e-9)
        assert np.min(v.values[spec.domain.interior]) > 0.0

    def test_dominates_subsolution(self):
        spec = small_dirichlet_spec(psi_value=0.5)
        usub, _ = build_subsolution(spec, 0.1)
        usuper = build_supersolution(spec)
        assert np.all(usuper.values >= usub.values - 1e-10)


class TestDirichletSolve:
    def test_subsolution_level_is_exact_solution(self):
        spec = small_dirichlet_spec(psi_value=0.5)
        usub, _ = build_subsolution(spec, 0.1)
        _, s, _ = residual_field(spec, usub.values)
        psi_exact = np.zeros(spec.domain.shape)
        psi_exact[spec.domain.interior] = f_of_sigma(LOGDET2, s)
        spec_exact = ProblemSpec(
            spec.domain, LOGDET2, spec.chi, ScalarField(spec.domain, psi_exact),
            spec.phi,
        )
        u, _, history, _ = solve_mod._damped_newton(spec_exact, usub.values,
                                                    SolverOptions())
        assert len(history) == 1
        np.testing.assert_array_equal(u, usub.values)

    def test_identity_constants(self):
        spec = small_dirichlet_spec(psi_value=0.0)
        res = solve_dirichlet(spec)
        live = ~spec.domain.exterior
        assert np.max(np.abs(res.u.values[live])) <= 1e-8

    def test_manufactured_convergence(self):
        errors = []
        for n_nodes in (8, 16, 32):
            spec, ustar = manufactured_dirichlet_spec(n_nodes)
            res = solve_dirichlet(spec)
            live = ~spec.domain.exterior
            errors.append(float(np.max(np.abs(res.u.values[live] - ustar[live]))))
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8

    def test_residual_history_decreasing(self):
        spec, _ = manufactured_dirichlet_spec(8)
        res = solve_dirichlet(spec)
        hist = res.residual_history
        assert all(b < a for a, b in zip(hist, hist[1:]))

    def test_translation_gauge(self):
        spec_a = small_dirichlet_spec(psi_value=0.4, phi_value=0.0)
        spec_b = small_dirichlet_spec(psi_value=0.4, phi_value=0.3)
        ua = solve_dirichlet(spec_a).u.values
        ub = solve_dirichlet(spec_b).u.values
        assert np.max(np.abs(ub - ua - 0.3)) <= 1e-9

    def test_iterates_stay_admissible(self):
        spec, _ = manufactured_dirichlet_spec(8)
        res = solve_dirichlet(spec)
        assert residual_field(spec, res.u.values - spec.phi.values)[0] is not None

    def test_overflowed_hessian_is_outside_the_cone(self):
        # a non-finite eigenvalue reads as inadmissible, so the line search
        # halves the step instead of raising DomainError
        spec, _ = manufactured_dirichlet_spec(8)
        w = np.zeros(spec.domain.shape)
        w[np.unravel_index(np.flatnonzero(spec.domain.interior)[0], w.shape)] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            assert residual_field(spec, w)[0] is None

    def test_returns_built_subsolution(self):
        spec = small_dirichlet_spec(psi_value=0.4, phi_value=0.25)
        np.testing.assert_array_equal(solve_dirichlet(spec).subsolution.values,
                                      0.25 + build_subsolution(spec, 0.1)[0].values)

    def test_stalled_solve_stops_at_once(self, monkeypatch):
        # three Newton steps are too few: the solve raises after its third
        # linear solve, with the residual of the psi problem itself
        calls = []
        real = solve_mod._solve_general

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(solve_mod, "_solve_general", counting)
        dom = GridDomain.product(2, x_shape=(4, 4), s_shape=(9, 9))
        x1, _, _, sy = dom.meshgrid()
        spec = ProblemSpec(dom, LOGDET2, identity_chi(dom),
                           ScalarField(dom, 0.4 + np.sin(x1) * np.cos(3 * sy)),
                           ScalarField.zeros(dom))
        with pytest.raises(StallError, match=r"residual 6\.199e-02$"):
            solve_dirichlet(spec, SolverOptions(max_newton=3))
        assert len(calls) == 3

    def test_annulus_surface_factor(self):
        # radial axis bounded, angular axis periodic
        dom = GridDomain.product(
            2, x_shape=(8, 4), s_shape=(17, 24),
            x_lengths=(2 * np.pi, 2 * np.pi),
            s_lengths=(1.0, 2 * np.pi), s_periodic=(False, True),
        )
        spec = ProblemSpec(dom, LOGDET2, identity_chi(dom),
                           ScalarField.full(dom, 0.4),
                           ScalarField.zeros(dom))
        usub, t = build_subsolution(spec, 0.1)
        assert t >= 1.0
        res = solve_dirichlet(spec)
        assert res.residual_history[-1] <= 1e-9
        faces = {(ax, side) for ax, side, _ in
                 boundary_normal_derivatives(res.u)}
        assert faces == {(2, 0), (2, -1)}  # only the radial axis

    def test_degenerate_rejected(self):
        fam = FuncFamily.sigma_quotient(2, 1, 2)
        dom = GridDomain.product(2, x_shape=(6, 4), s_shape=(9, 9))
        psi = ScalarField.zeros(dom)  # inf psi == boundary sup == 0
        spec = ProblemSpec(dom, fam, identity_chi(dom), psi,
                           ScalarField.zeros(dom))
        assert spec.degenerate
        with pytest.raises(DomainError, match="degenerate right-hand side"):
            solve_dirichlet(spec)

    def test_requires_dirichlet_mode(self):
        # checked before build_subsolution, whose message would name the
        # product domain instead
        dom = GridDomain.torus(2, (8, 4, 8, 4))
        spec = ProblemSpec(dom, LOGDET2, identity_chi(dom),
                           ScalarField.full(dom, 0.0))
        with pytest.raises(DomainError,
                           match="solve_dirichlet needs a grid with boundary nodes"):
            solve_dirichlet(spec)


class TestLinearization:
    """The Newton operator is the derivative of the residual: for Hermitian
    F, A v_int + B v_bdry = tr(F Hess v) = sum_{j,k} F^{k jbar} (Hess v)_{j kbar},
    with B of the reference assembly (`newton_reference.assemble_linearized`).
    A real F (or a diagonal one) cannot tell this pairing from tr(F^T Hess v);
    every F here has complex off-diagonal entries."""

    @pytest.mark.parametrize("dom", [
        GridDomain.torus(2, (8, 6, 7, 4), (1.0, 2.0, 3.0, 1.5)),
        GridDomain.torus(3, (4, 3, 5, 3, 4, 3)),
        GridDomain.product(2, x_shape=(6, 4), s_shape=(9, 7)),
        GridDomain.product(3, x_shape=(4, 3, 5, 3), s_shape=(7, 8)),
        GridDomain.product(2, x_shape=(6, 4), s_shape=(9, 12),
                           s_periodic=(False, True)),
        exhaustion_domain(0.02, (13, 11)),
    ], ids=["torus-n2", "torus-n3", "product-n2", "product-n3", "annulus",
            "masked"])
    def test_operator_is_the_trace_pairing(self, dom):
        rng = np.random.default_rng(31)
        n = dom.n
        coeff = hermitian_stack(rng, int(dom.interior.sum()), n, shift=0.5)
        assert np.min(np.abs(coeff[:, 0, 1].imag)) > 0
        v = rng.standard_normal(dom.shape)
        a, b = assemble(dom, coeff), ref.assemble_linearized(dom, coeff)[1]
        got = a @ v[dom.interior] + b @ v[dom.boundary]
        hess = complex_hessian(ScalarField(dom, v))[dom.interior]
        want = np.einsum("nkj,njk->n", coeff, hess).real
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_jacobian_matches_directional_derivative(self):
        # a generic iterate: chi random Hermitian per node and a smooth u that
        # mixes the X and S factors, so F has complex off-diagonal entries
        dom = GridDomain.product(2, x_shape=(8, 4), s_shape=(9, 9))
        rng = np.random.default_rng(29)
        chi = HermitianField(dom, hermitian_stack(rng, dom.roles.size, shift=2.0)
                             .reshape(dom.shape + (2, 2)))
        x0, y0, s0, s1 = dom.meshgrid()
        u = 0.2 * np.sin(x0 + y0) * np.sin(np.pi * s0) * np.cos(0.5 * np.pi * s1)
        spec = ProblemSpec(dom, LOGDET2, chi, ScalarField.zeros(dom),
                           ScalarField.zeros(dom))
        r, s, g = residual_field(spec, u)
        assert r is not None
        a = _newton_operator(dom, _newton_coefficient(LOGDET2, g, s))
        v = np.zeros(dom.shape)
        v[dom.interior] = rng.standard_normal(a.shape[0])
        t = 1e-5
        fd = (residual_field(spec, u + t * v)[0]
              - residual_field(spec, u - t * v)[0]) / (2 * t)
        jv = a @ v[dom.interior]
        # the central difference errs by O(t^2), about 3e-7 here
        assert np.max(np.abs(fd - jv)) <= 1e-5 * np.max(np.abs(jv))


class TestClosedSolve:
    def test_identity_constants(self):
        dom = GridDomain.torus(2, (8, 4, 8, 4))
        spec = ProblemSpec(dom, LOGDET2, identity_chi(dom),
                           ScalarField.full(dom, 0.0))
        res = solve_closed(spec)
        assert abs(res.c) <= 1e-12
        assert np.max(np.abs(res.u.values)) <= 1e-12

    def test_constant_shift_absorbed_by_c(self):
        dom = GridDomain.torus(2, (8, 4, 8, 4))
        spec = ProblemSpec(dom, LOGDET2, identity_chi(dom),
                           ScalarField.full(dom, -1.0))
        res = solve_closed(spec)
        assert res.c == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(res.u.values)) <= 1e-9

    def test_sup_normalization(self):
        spec, _ = manufactured_closed_spec(12)
        res = solve_closed(spec)
        assert np.max(res.u.values) == pytest.approx(0.0, abs=1e-13)

    def test_psi_shift_changes_only_c(self):
        spec, _ = manufactured_closed_spec(12)
        res = solve_closed(spec)
        shifted = ProblemSpec(
            spec.domain, spec.family, spec.chi,
            ScalarField(spec.domain, spec.psi.values + 0.3),
        )
        res_s = solve_closed(shifted)
        # f = psi + c: raising psi lowers c by the same constant
        assert res.c - res_s.c == pytest.approx(0.3, abs=1e-8)
        assert np.max(np.abs(res_s.u.values - res.u.values)) <= 1e-7

    def test_manufactured_c_second_order(self):
        cs, errs = [], []
        for n_nodes in (12, 24):
            spec, ustar = manufactured_closed_spec(n_nodes)
            res = solve_closed(spec)
            cs.append(abs(res.c))
            errs.append(np.max(np.abs(res.u.values - (ustar - ustar.max()))))
        assert cs[0] / cs[1] >= 3.0
        assert errs[0] / errs[1] >= 3.0

    def test_linear_solves_recorded(self):
        spec, _ = manufactured_closed_spec(8)
        res = solve_closed(spec)
        assert len(res.linear_solves) == res.iterations
        assert all(type(iters) is int and iters > 0 for iters in res.linear_solves)

    def test_requires_torus(self):
        spec = small_dirichlet_spec()
        with pytest.raises(DomainError):
            solve_closed(spec)

    def test_high_contrast_takes_few_krylov_iterations(self):
        # psi = 4 sin x0: u depends on x0 alone, and so does F; preconditioned
        # at the grid-mean coefficient the worst Newton step took 271
        dom = GridDomain.torus(2, (16, 8, 16, 8))
        psi = ScalarField(dom, 4.0 * np.sin(dom.meshgrid()[0]))
        spec = ProblemSpec(dom, LOGDET2, identity_chi(dom), psi)
        res = solve_closed(spec)
        assert max(res.linear_solves) <= 5
        assert res.residual_history[-1] <= newton_tol(spec)

    @pytest.mark.parametrize("shape, wave, worst", [
        ((2, 2, 2, 2), 0.0, 1),
        ((2, 8, 16, 8), 0.3, 5),
    ], ids=["2222", "2-8-16-8-wave"])
    def test_coefficient_varying_on_two_nodes_takes_line_solve(self, shape, wave, worst):
        # psi = 2 cos(pi i0) varies along a 2-node axis, and so does F: the
        # line solve along that axis inverts (2,2,2,2)'s operators exactly
        dom = GridDomain.torus(2, shape)
        i0, x2 = np.indices(shape)[0], dom.meshgrid()[2]
        psi = ScalarField(dom, 2.0 * np.cos(np.pi * i0) + wave * np.sin(x2))
        spec = ProblemSpec(dom, LOGDET2, identity_chi(dom), psi)
        res = solve_closed(spec)
        assert max(res.linear_solves) <= worst
        assert res.residual_history[-1] <= newton_tol(spec)


def mixed_dirichlet_spec():
    """log-det on an 8 x 4 x 13^2 product with a psi like dirichlet-newton's,
    mixing the X and S factors, so that F has complex off-diagonal entries."""
    dom = GridDomain.product(2, x_shape=(8, 4), s_shape=(13, 13),
                             x_lengths=(2 * np.pi, 2 * np.pi))
    x0, _, s0, s1 = dom.meshgrid()
    psi = (0.4 + 0.1 * np.sin(x0 + 1.0) * np.cos(np.pi * s0 + 0.2)
           + 0.1 * np.sin(np.pi * s1 + 0.5))
    return ProblemSpec(dom, LOGDET2, identity_chi(dom), ScalarField(dom, psi),
                       ScalarField.zeros(dom))


def mixed_closed_spec():
    """log-det on an (8, 4, 8, 4) torus with psi depending on x of z_1 and y
    of z_2, so that Im F^{1 2bar} is not zero."""
    dom = GridDomain.torus(2, (8, 4, 8, 4))
    x0, _, _, y1 = dom.meshgrid()
    return ProblemSpec(dom, LOGDET2, identity_chi(dom),
                       ScalarField(dom, 0.5 * np.sin(x0 + y1)))


def newton_tol(spec, opts=SolverOptions()):
    return opts.residual_scale * (1.0 + np.max(np.abs(spec.psi.values)))


MIXED_SOLVES = pytest.mark.parametrize("solver, make_spec", [
    (solve_dirichlet, mixed_dirichlet_spec),
    (solve_closed, mixed_closed_spec),
], ids=["dirichlet", "closed"])


class TestNewtonConvergence:
    """Newton on the exact Jacobian converges quadratically.  A last step that
    lands at or below tol meets the stop: its forcing floor leaves it a linear
    residual of about 0.5 tol, so only the steps above tol must contract."""

    @MIXED_SOLVES
    def test_quadratic_on_complex_coefficients(self, solver, make_spec):
        spec = make_spec()
        res = solver(spec)
        tol, hist = newton_tol(spec), res.residual_history
        assert res.iterations <= 5 and hist[-1] <= tol
        for prev, nxt in zip(hist[-3:-1], hist[-2:]):
            assert nxt <= max(prev ** 1.5, tol)

    @MIXED_SOLVES
    def test_forcing_floor(self, solver, make_spec, monkeypatch):
        # rtol = max(LIN_TOL, 0.5 tol / |r_k|_2, eta_k): eta_k =
        # min(FORCING_MAX, 0.9 (res_k / res_{k-1})^2) after a step of length
        # >= 1/2, at most two residual evaluations since the last solve, else 0
        events, general, residual = [], solve_mod._solve_general, solve_mod.residual_field

        def recording(a, b, inverse, rtol=solve_mod.LIN_TOL):
            events.append((rtol, np.linalg.norm(b)))
            return general(a, b, inverse, rtol)

        def counting(*args):
            events.append(None)
            return residual(*args)

        monkeypatch.setattr(solve_mod, "_solve_general", recording)
        monkeypatch.setattr(solve_mod, "residual_field", counting)
        spec, opts = make_spec(), SolverOptions(residual_scale=1e-10)
        res = solver(spec, opts)
        tol, hist = newton_tol(spec, opts), res.residual_history
        solves = [i for i, e in enumerate(events) if e is not None]
        assert len(solves) == len(res.linear_solves)
        loosened = 0
        for k, i in enumerate(solves):  # |b|_2 = |r_k|_2 in both modes
            rtol, r_norm = events[i]
            long_step = k > 0 and i - solves[k - 1] <= 3
            ratio = hist[k] / hist[k - 1] if long_step else 0.0
            eta = min(solve_mod.FORCING_MAX, 0.9 * ratio ** 2)
            floor = max(solve_mod.LIN_TOL, 0.5 * tol / r_norm)
            assert rtol == pytest.approx(max(floor, eta), rel=1e-12)
            loosened += rtol > floor
        assert events[solves[0]][0] == solve_mod.LIN_TOL and loosened >= 1
        assert hist[-1] <= tol

    def test_forcing_term_against_fixed_floor(self, monkeypatch):
        # FORCING_MAX = LIN_TOL restores the fixed floor max(LIN_TOL, 0.5 tol / |r|_2)
        spec = mixed_dirichlet_spec()
        new = solve_dirichlet(spec)
        monkeypatch.setattr(solve_mod, "FORCING_MAX", solve_mod.LIN_TOL)
        old = solve_dirichlet(spec)
        assert new.iterations <= old.iterations
        assert sum(new.linear_solves) <= sum(old.linear_solves)
        assert np.max(np.abs(new.u.values - old.u.values)) <= newton_tol(spec)

    def test_forcing_gate_on_damped_torus(self):
        # eta_k only after a step of length >= 1/2: loosened after every step,
        # A = 8 took 17 steps and A = 16 ended in a damping underflow
        dom = GridDomain.torus(2, (16, 8, 16, 8))

        def spec(amplitude):
            psi = ScalarField(dom, amplitude * np.sin(dom.meshgrid()[0]))
            return ProblemSpec(dom, LOGDET2, identity_chi(dom), psi)

        assert solve_closed(spec(8.0)).linear_solves == [1] * 16
        with pytest.raises(GaugeError):
            solve_closed(spec(16.0))


@pytest.mark.parametrize("solver, make_spec", [
    (solve_closed, manufactured_closed_spec),
    (solve_dirichlet, manufactured_dirichlet_spec),
], ids=["closed", "dirichlet"])
def test_newton_budget_exhausted_stalls(solver, make_spec):
    # both modes need several Newton steps; one is not enough
    spec, _ = make_spec(8)
    with pytest.raises(StallError):
        solver(spec, SolverOptions(max_newton=1))


@pytest.mark.parametrize("field, value", [
    ("residual_scale", 0.0), ("residual_scale", float("nan")), ("max_newton", 0),
    ("delta", 0.0), ("delta", -1.0), ("delta", float("nan")),
])
def test_options_reject_values_that_cannot_converge(field, value):
    with pytest.raises(DomainError):
        SolverOptions(**{field: value})


def spec_args(dom, family=LOGDET2, psi=0.5, phi=0.0):
    return (dom, family, identity_chi(dom), ScalarField.full(dom, psi),
            None if phi is None else ScalarField.full(dom, phi))


@pytest.mark.parametrize("dom, change, message", [
    ("torus", {}, "a grid without boundary nodes takes no boundary data phi"),
    ("box", dict(phi=None), "a grid with boundary nodes needs boundary data phi"),
    ("box", dict(family=FuncFamily.log_det(3)),
     "family dimension does not match the domain"),
    ("box", dict(family=FuncFamily.sigma_root(2, 2), psi=-0.1),
     "psi drops below the attainable range of f"),
], ids=["torus-with-phi", "box-without-phi", "dimension-mismatch", "psi-below-range"])
def test_problem_spec_rejects(dom, change, message):
    dom = {"torus": GridDomain.torus(2, (4, 4, 4, 4)),
           "box": GridDomain.product(2, x_shape=(4, 4), s_shape=(5, 5))}[dom]
    with pytest.raises(DomainError, match=message):
        ProblemSpec(*spec_args(dom, **change))


@pytest.mark.parametrize("dom", [
    GridDomain.torus(2, (4, 4, 4, 4)),
    GridDomain.product(2, x_shape=(4, 4), s_shape=(5, 5)),
    GridDomain.product(2, x_shape=(4, 4), s_shape=(7, 8), s_periodic=(False, True)),
    exhaustion_domain(0.02),
], ids=["torus", "rectangle", "annulus", "restricted"])
def test_the_grid_decides_the_problem(dom):
    # no boundary nodes: the closed problem, which takes no phi; boundary
    # nodes: the Dirichlet problem, which needs phi
    closed = not dom.boundary.any()
    assert closed == all(dom.periodic)
    with pytest.raises(DomainError, match="takes no boundary data phi" if closed
                       else "needs boundary data phi"):
        ProblemSpec(*spec_args(dom, phi=0.0 if closed else None))
    spec = ProblemSpec(*spec_args(dom, phi=None if closed else 0.0))
    other, kind = (solve_dirichlet, "with") if closed else (solve_closed, "without")
    with pytest.raises(DomainError, match=f"needs a grid {kind} boundary nodes"):
        other(spec)


@pytest.mark.parametrize("which", [2, 3, 4], ids=["chi", "psi", "phi"])
def test_problem_spec_rejects_a_field_off_its_grid(which):
    # psi on a 4x4x11^2 grid for a 4x4x9^2 problem raised IndexError
    dom = GridDomain.product(2, x_shape=(4, 4), s_shape=(9, 9))
    args = list(spec_args(dom))
    args[which] = spec_args(GridDomain.product(2, x_shape=(4, 4), s_shape=(11, 11)))[which]
    with pytest.raises(DomainError, match="chi, psi and phi must lie on the problem's grid"):
        ProblemSpec(*args)


def test_sub_domain_problem_is_one_replace():
    # a parent-grid phi on a restricted problem raised a bare broadcast
    # ValueError in the constructor: the sub-domain's 10624 interior nodes
    # against the 12544 of the parent's box
    parent = GridDomain.product(2, x_shape=(4, 4), s_shape=(30, 30))
    x0, _, s0, s1 = parent.meshgrid()
    phi = ScalarField(parent, np.sin(x0) * s0 * s1 + 3.0 * s0 ** 2)
    spec = ProblemSpec(parent, LOGDET2, identity_chi(parent),
                       ScalarField.full(parent, 0.5), phi)
    sub = parent.restrict(s_factor_potential(parent).values < -0.02)
    rebuilt = ProblemSpec(sub, LOGDET2, identity_chi(sub), ScalarField.full(sub, 0.5),
                          ScalarField(sub, phi.values))
    assert rebuilt.background.shape == (4, int(sub.interior.sum()))
    for got in (replace(spec, domain=sub),
                ProblemSpec(sub, LOGDET2, identity_chi(sub), spec.psi, phi)):
        assert got.background.tobytes() == rebuilt.background.tobytes()


class TestNewtonExits:
    """The line search's two failure exits, forced by a fake Newton update."""

    def run(self, monkeypatch, update):
        spec = small_dirichlet_spec()
        u0 = build_subsolution(spec, 0.1)[0].values
        monkeypatch.setattr(solve_mod, "_solve_general",
                            lambda a, b, inverse, rtol: (update(b), 0))
        return solve_mod._damped_newton(spec, u0, SolverOptions())

    def test_cone_exit_at_every_damping(self, monkeypatch):
        def spike(b):  # a concave spike no step down to DAMPING_MIN tames
            v = np.zeros(b.size)
            v[b.size // 2] = 1e30
            return v

        with pytest.raises(ConeExitError, match="no damped step restored"):
            self.run(monkeypatch, spike)

    def test_damping_underflow_without_descent(self, monkeypatch):
        with pytest.raises(StallError, match="damping underflow"):
            self.run(monkeypatch, np.zeros_like)


@pytest.fixture(scope="module")
def touching_spec():
    dom = GridDomain.product(
        2, x_shape=(8, 4), s_shape=(17, 17),
        x_lengths=(2 * np.pi, 2 * np.pi), s_lengths=(1.0, 1.0),
    )
    _, _, x2, y2 = dom.meshgrid()
    r2 = ((x2 - 0.5) ** 2 + (y2 - 0.5) ** 2) / 0.5
    psi = ScalarField(dom, np.log(1e-4 + r2))
    return ProblemSpec(dom, LOGDET2, identity_chi(dom), psi,
                       ScalarField.zeros(dom))


class TestDegenerateSweep:

    def test_monotone_cauchy_decay(self, touching_spec):
        rep = degenerate_sweep(touching_spec, [1.0, 0.5, 0.25, 0.125])
        assert rep.error is None
        assert len(rep.cauchy) == 3
        assert all(a >= b - 1e-12 for a, b in zip(rep.cauchy, rep.cauchy[1:]))

    def test_constant_boundary_shift_exact(self, touching_spec):
        spec = touching_spec
        shifted = ScalarField(spec.domain, spec.phi.values + 0.07)
        rep = degenerate_sweep(spec, [0.5], perturbed_phi=shifted)
        assert rep.stability_diff == pytest.approx(0.07, abs=1e-9)

    def test_stability_bound(self, touching_spec):
        spec = touching_spec
        x1 = spec.domain.meshgrid()[0]
        bump = ScalarField(spec.domain, spec.phi.values + 0.05 * np.sin(x1))
        rep = degenerate_sweep(spec, [0.5, 0.25], perturbed_phi=bump)
        assert rep.stability_bound == pytest.approx(0.05, rel=1e-3)
        assert rep.stability_diff <= rep.stability_bound * (1 + 1e-6) + 1e-8

    def test_bad_ladder(self, touching_spec):
        with pytest.raises(DomainError):
            degenerate_sweep(touching_spec, [0.25, 0.5])

    def test_failed_perturbed_solve_aborts(self, touching_spec):
        # a boundary datum whose X-factor Hessian no subsolution can offset
        spec = touching_spec
        x1 = spec.domain.meshgrid()[0]
        wild = ScalarField(spec.domain, spec.phi.values + 1e6 * np.sin(x1))
        rep = degenerate_sweep(spec, [0.5], perturbed_phi=wild)
        assert rep.error.startswith("perturbed solve failed: subsolution ladder")
        assert len(rep.results) == 1 and rep.stability_diff is None

    def test_programming_error_propagates(self, touching_spec, monkeypatch):
        def broken(spec, opts):
            raise TypeError("not a solver failure")

        monkeypatch.setattr(solve_mod, "solve_dirichlet", broken)
        with pytest.raises(TypeError, match="not a solver failure"):
            degenerate_sweep(touching_spec, [0.5])


class TestExhaustion:
    def test_nested_solves(self):
        spec = small_dirichlet_spec(psi_value=0.4, s_nodes=(21, 21))
        rep = domain_exhaustion(spec, [0.04, 0.02, 0.01])
        assert rep.interior_counts == sorted(rep.interior_counts)
        assert len(rep.diffs_to_full) == 3
        assert all(np.isfinite(d) for d in rep.diffs_to_full)

    def test_sub_domains_take_few_krylov_iterations(self):
        # each sub-domain takes its box's spectral inverse; with the diagonal
        # the worst Newton step took 79 Krylov iterations
        spec = small_dirichlet_spec(psi_value=0.4, s_nodes=(21, 21))
        rep = domain_exhaustion(spec, [0.04, 0.02, 0.01])
        assert max(max(res.linear_solves) for res in rep.results) <= 20

    def test_sub_domain_subsolution_is_phi_on_the_boundary(self):
        # the exhaustion config's grid and levels, with phi = 0.25: the box
        # potential of a sub-domain put 0.108 and 0.099 on its boundary, and
        # u kept it on the exterior nodes
        spec = small_dirichlet_spec(psi_value=0.4, phi_value=0.25)
        rep = domain_exhaustion(spec, [0.04, 0.02])
        for res in rep.results:
            off = ~res.u.domain.interior
            assert np.all(res.subsolution.values[off] == 0.25)
            assert np.all(res.u.values[off] == 0.25)

    def test_empty_domain(self, monkeypatch):
        # every level is cut before the full solve, and an empty one is named
        spec = small_dirichlet_spec(psi_value=0.4)

        def no_solve(*args):
            raise AssertionError("solved before every level was cut")

        monkeypatch.setattr(solve_mod, "solve_dirichlet", no_solve)
        with pytest.raises(ResolutionError, match="level 100.0: empty sub-domain"):
            domain_exhaustion(spec, [100.0, 0.02])
        assert issubclass(ResolutionError, DomainError)  # a config error, exit 4

    @pytest.mark.parametrize("levels", [[-0.1, 0.0], [0.02, 0.04], [0.02, 0.02]])
    def test_bad_levels(self, levels):
        spec = small_dirichlet_spec(psi_value=0.4)
        with pytest.raises(DomainError, match="positive and strictly decreasing"):
            domain_exhaustion(spec, levels)


class TestEstimates:
    def test_trivial_constant_instance(self):
        spec = small_dirichlet_spec(psi_value=0.0)
        res = solve_dirichlet(spec)
        u0 = ScalarField.zeros(spec.domain)
        rep = verify_estimates(res, spec, u0, u0)
        assert rep.sandwich_ok and rep.normal_order_ok
        assert np.isfinite(rep.ratio2nd) and np.isfinite(rep.bdry_ratio)
        assert rep.sup_dbar <= 1e-7

    # the check that read the full (N, n, n) `complex_hessian` stack gives the
    # same report, bit for bit, on each kind of grid and family
    @pytest.mark.parametrize("make, family, psi, phi", [
        (lambda: GridDomain.product(2, x_shape=(4, 4), s_shape=(9, 9)), LOGDET2, 0.4, 0.0),
        (lambda: GridDomain.product(2, x_shape=(4, 4), s_shape=(9, 12),
                                    s_lengths=(1.0, 2 * np.pi), s_periodic=(False, True)),
         LOGDET2, 0.4, 0.0),
        (lambda: exhaustion_domain(0.02), LOGDET2, 0.4, 0.0),
        (lambda: GridDomain.product(3, x_shape=(4, 4, 4, 4), s_shape=(9, 9)),
         FuncFamily.sigma_root(2, 3), 1.5, 0.0),
        (lambda: GridDomain.product(2, x_shape=(4, 4), s_shape=(9, 9)), LOGDET2, 0.4, 1e2),
    ], ids=["product", "annulus", "restricted", "sigma-root-n3", "phi-const-1e2"])
    def test_matches_full_stack_reference(self, make, family, psi, phi):
        dom = make()
        x0, *_, s1 = dom.meshgrid()
        spec = ProblemSpec(dom, family, identity_chi(dom),
                           ScalarField(dom, psi + 0.1 * np.sin(x0) * np.cos(3 * s1)),
                           ScalarField.full(dom, phi))
        res = solve_dirichlet(spec)
        args = (res, spec, res.subsolution, build_supersolution(spec))
        rep, want = verify_estimates(*args), ref.verify_estimates(*args)
        assert rep.sup_dbar > 0 and rep.sandwich_ok
        if dom.exterior.any():  # the reference read the box's faces, here exterior
            assert rep.normal_order_ok and not want.normal_order_ok
            want = replace(want, normal_order_ok=True)
        assert rep == want

    def test_normal_order_reads_boundary_face_nodes_only(self):
        # the masked box's high s0 face is exterior: an ordering broken there is
        # not the sub-domain's, one broken on its low s0 face is
        box = GridDomain.product(2, x_shape=(4, 4), s_shape=(9, 9))
        dom = box.restrict(box.meshgrid()[2] < 0.8)
        spec = ProblemSpec(dom, LOGDET2, identity_chi(dom), ScalarField.full(dom, 0.4),
                           ScalarField.zeros(dom))
        zero = ScalarField.zeros(dom)
        for layer, ok in ((-2, True), (1, False)):
            bump = np.zeros(dom.shape)
            bump[:, :, layer, 4] = 1.0
            rep = verify_estimates(SolveResult(zero, None, [], []), spec,
                                   ScalarField(dom, bump), zero)
            assert rep.normal_order_ok == ok

    def test_manufactured_instance(self):
        spec, _ = manufactured_dirichlet_spec(16)
        res = solve_dirichlet(spec, SolverOptions(delta=0.05))
        rep = verify_estimates(res, spec, res.subsolution, build_supersolution(spec))
        assert rep.sandwich_ok
        assert rep.normal_order_ok
        assert rep.grad_sq > 0
        assert np.isfinite(rep.bdry_ratio)
