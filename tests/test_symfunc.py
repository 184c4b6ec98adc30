import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from conftest import sigma_bruteforce
from hcl.errors import AdmissibilityError, DomainError
from hcl.symfunc import (
    FuncFamily,
    check_structure,
    cone_margin,
    elementary_all,
    eval_f,
    gamma_g_criteria,
    grad_f,
    hess_f,
    in_cone,
    in_gamma_g,
    lambda_tuple,
    sample_cone,
    sigma_k,
    well_conditioned,
)

LOGDET3 = FuncFamily.log_det(3)
SQRT_SIGMA2 = FuncFamily.sigma_root(2, 3)
MIXED = FuncFamily.quotient_log(2, (0.0, 1.0), 3)

ALL_FAMILIES = [
    LOGDET3,
    SQRT_SIGMA2,
    FuncFamily.sigma_root(3, 4),
    FuncFamily.log_sigma(2, 3),
    FuncFamily.sigma_quotient(2, 1, 3),
    MIXED,
]


def hess_fd(family, lam, step=1e-4):
    """Second-order central-difference Hessian of f: the independent cross-check
    of the analytic hess_f on well-conditioned points."""
    lam = lambda_tuple(lam)
    n = family.n
    h = step * (1.0 + np.abs(lam))
    hess = np.zeros((n, n))
    f0 = eval_f(family, lam)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h[i]
        hess[i, i] = (
            eval_f(family, lam + ei) - 2.0 * f0 + eval_f(family, lam - ei)
        ) / h[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h[j]
            mixed = (
                eval_f(family, lam + ei + ej)
                - eval_f(family, lam + ei - ej)
                - eval_f(family, lam - ei + ej)
                + eval_f(family, lam - ei - ej)
            ) / (4.0 * h[i] * h[j])
            hess[i, j] = hess[j, i] = mixed
    return hess


class TestSigmaK:
    def test_examples(self):
        assert sigma_k([1, 2, 3], 2) == pytest.approx(11.0)
        assert sigma_k([1, 1, 1], 3) == pytest.approx(1.0)
        assert sigma_k([-0.5, 1, 1], 2) == pytest.approx(0.0)
        assert sigma_k([1, 2, 3], 0) == 1.0

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            sigma_k([1, 2, 3], 4)
        with pytest.raises(DomainError):
            sigma_k([1, 2, 3], -1)

    def test_against_subset_enumeration(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 9))
            lam = rng.normal(0, 2, n)
            k = int(rng.integers(0, n + 1))
            assert sigma_k(lam, k) == pytest.approx(
                sigma_bruteforce(lam, k), rel=1e-11, abs=1e-11
            )

    def test_batched(self):
        lam = np.array([[1.0, 2, 3], [1, 1, 1]])
        e = elementary_all(lam)
        assert e.shape == (2, 4)
        np.testing.assert_allclose(e[0], [1, 6, 11, 6])

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_last_axis_recurrence(self, n):
        # the batch-first recurrence makes the same operations in the same
        # order, so every value matches, also where rows overflow to +-inf
        # and inf - inf gives NaN
        rng = np.random.default_rng(n)
        for batch in [(), (40,), (6, 7)]:  # 1-D, 2-D and 3-D stacks
            lam = rng.normal(0.0, 3.0, batch + (n,)) * 10.0 ** rng.integers(
                -5, 6, batch + (n,))
            stacks = [lam]
            for huge in ([1e200] * n, [-1e200, 1e200] + [3e150] * (n - 2)):
                row = np.asarray(huge)
                stacks.append(np.where(rng.random(batch + (1,)) < 0.3, row, lam)
                              if batch else row)
            for lam in stacks:
                with np.errstate(over="ignore", invalid="ignore"):
                    e, want = elementary_all(lam), ref.elementary_all_last_axis(lam)
                assert e.shape == want.shape
                assert np.array_equal(e, want, equal_nan=True)
            with np.errstate(over="ignore", invalid="ignore"):
                assert not np.all(np.isfinite(elementary_all(stacks[-1])))


class TestCone:
    def test_examples(self):
        assert in_cone([1, 1, 1], 3) is True
        assert in_cone([-0.5, 1, 1], 2) is False
        assert in_cone([-0.4, 1, 1], 2) is True
        # derived check of the boundary margin by direct expansion
        assert sigma_bruteforce([-0.4, 1, 1], 1) == pytest.approx(1.6)
        assert sigma_bruteforce([-0.4, 1, 1], 2) == pytest.approx(0.2)

    def test_margin(self):
        assert cone_margin([-0.4, 1, 1], 2) == pytest.approx(0.2)

    def test_vectorized(self):
        out = in_cone(np.array([[1.0, 1, 1], [-0.5, 1, 1]]), 2)
        assert out.tolist() == [True, False]


class TestEval:
    def test_log_det(self):
        assert eval_f(LOGDET3, [1, 1, 1]) == pytest.approx(0.0)
        assert eval_f(LOGDET3, [1, 2, 3]) == pytest.approx(np.log(6))

    def test_mixed_family(self):
        assert eval_f(MIXED, [1, 1, 1]) == pytest.approx(1.0 / 3.0 + np.log(3))

    def test_rejects_inadmissible(self):
        with pytest.raises(AdmissibilityError):
            eval_f(LOGDET3, [-1.0, 1, 1])
        with pytest.raises(AdmissibilityError):
            eval_f(MIXED, [-0.5, 1, 1])

    def test_sigma_quotient_value(self):
        fam = FuncFamily.sigma_quotient(2, 1, 3)
        lam = np.array([1.0, 2.0, 4.0])
        expected = sigma_bruteforce(lam, 2) / sigma_bruteforce(lam, 1)
        assert eval_f(fam, lam) == pytest.approx(expected)


class TestGrad:
    def test_log_det(self):
        np.testing.assert_allclose(grad_f(LOGDET3, [1, 2, 3]), [1, 0.5, 1 / 3])
        np.testing.assert_allclose(grad_f(LOGDET3, [1, 1, 1]), [1, 1, 1])

    def test_sqrt_sigma2_symmetric_point(self):
        np.testing.assert_allclose(
            grad_f(SQRT_SIGMA2, [1, 1, 1]), np.full(3, 1 / np.sqrt(3))
        )

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label())
    def test_matches_central_differences(self, family):
        pts = sample_cone(family, 40, seed=3)
        pts = pts[well_conditioned(family, pts)][:12]
        assert len(pts) >= 4
        h = 1e-5
        for lam in pts:
            g = grad_f(family, lam)
            fd = np.empty(family.n)
            for i in range(family.n):
                e = np.zeros(family.n)
                e[i] = h * (1 + abs(lam[i]))
                fd[i] = (eval_f(family, lam + e) - eval_f(family, lam - e)) / (
                    2 * e[i]
                )
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label())
    def test_hessian_analytic_vs_fd(self, family):
        pts = sample_cone(family, 40, seed=13)
        pts = pts[well_conditioned(family, pts)][:8]
        for lam, ha in zip(pts, hess_f(family, pts)):
            hf = hess_fd(family, lam)
            scale = 1.0 + np.linalg.norm(ha)
            assert np.max(np.abs(ha - hf)) <= 1e-5 * scale
            np.testing.assert_allclose(ha, ha.T, atol=1e-12)


@st.composite
def orthant_tuples(draw, n=3):
    vals = draw(
        st.lists(st.floats(0.05, 20.0), min_size=n, max_size=n)
    )
    return np.asarray(vals)


class TestInvariants:
    @given(lam=orthant_tuples(), perm_seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, lam, perm_seed):
        perm = np.random.default_rng(perm_seed).permutation(3)
        for family in (LOGDET3, SQRT_SIGMA2, MIXED):
            assert eval_f(family, lam[perm]) == pytest.approx(
                eval_f(family, lam), rel=1e-12, abs=1e-12
            )
            np.testing.assert_allclose(
                grad_f(family, lam[perm]), grad_f(family, lam)[perm],
                rtol=1e-11, atol=1e-12,
            )

    @given(lam=orthant_tuples(), mu=orthant_tuples())
    @settings(max_examples=60, deadline=None)
    def test_chord_inequality(self, lam, mu):
        for family in (LOGDET3, SQRT_SIGMA2, MIXED):
            lhs = float(np.sum(grad_f(family, lam) * (mu - lam)))
            rhs = eval_f(family, mu) - eval_f(family, lam)
            assert lhs >= rhs - 1e-9 * (1 + abs(rhs))

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label())
    def test_ellipticity_on_samples(self, family):
        pts = sample_cone(family, 60, seed=9)
        assert float(np.min(grad_f(family, pts))) > 0.0

    def test_monotone_action_of_ray_bounded_points(self):
        # f(lam + mu) >= f(lam) for mu in the ray-bounded sub-cone
        pts = sample_cone(MIXED, 80, seed=17)
        members = [m for m in pts if in_gamma_g(MIXED, m).in_gamma_g][:20]
        assert members
        lams = sample_cone(MIXED, 20, seed=23)
        for mu in members:
            for lam in lams:
                assert eval_f(MIXED, lam + mu) >= eval_f(MIXED, lam) - 1e-9

    def test_ray_superlinearity_bound(self):
        # sum f_i(lam) mu_i >= limsup f(t mu)/t approximated on the ladder
        lams = sample_cone(MIXED, 10, seed=31)
        mus = sample_cone(MIXED, 10, seed=37)
        for mu in mus:
            tail = max(
                eval_f(MIXED, t * mu) / t for t in (2.0**18, 2.0**19, 2.0**20)
            )
            for lam in lams:
                pairing = float(np.sum(grad_f(MIXED, lam) * mu))
                assert pairing >= tail - 1e-6 * (1 + abs(tail))

    def test_gamma_g_convexity(self):
        pts = sample_cone(MIXED, 120, seed=41)
        members = [m for m in pts if in_gamma_g(MIXED, m).in_gamma_g][:12]
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                for s in (0.25, 0.5, 0.75):
                    assert in_gamma_g(MIXED, s * a + (1 - s) * b).in_gamma_g


class TestStructureReport:
    @pytest.mark.parametrize(
        "family", [LOGDET3, SQRT_SIGMA2, MIXED], ids=lambda f: f.label()
    )
    def test_zero_violations(self, family):
        rep = check_structure(family, 100, seed=7)
        assert rep.violations == 0
        assert rep.gradient_positive
        assert rep.concave
        assert rep.chord_ok
        assert rep.worst_fd_gradient_mismatch <= 1e-6

    def test_rejects_bad_sample_count(self):
        with pytest.raises(DomainError):
            check_structure(LOGDET3, 0, seed=0)


class TestGammaG:
    def test_mixed_family_classification(self):
        v = in_gamma_g(MIXED, [-0.4, 1, 1])
        assert not v.in_gamma_g and not v.indeterminate
        assert in_gamma_g(MIXED, [1, 1, 1]).in_gamma_g

    def test_log_det_always_inside(self):
        for lam in ([1, 2, 3], [0.1, 0.1, 5.0]):
            assert in_gamma_g(LOGDET3, lam).in_gamma_g

    def test_requires_cone_membership(self):
        with pytest.raises(AdmissibilityError):
            in_gamma_g(MIXED, [-0.5, 1, 1])

    def test_criteria_agree_with_analytic_verdict(self):
        # quotient-log with k = n is inside everywhere: sigma_{n+1} vanishes
        cases = [(MIXED, lambda lam: sigma_k(lam, 3) >= 0.0)] + [
            (FuncFamily.quotient_log(n, (0.5,) * n, n), lambda lam: True)
            for n in (2, 3, 4)]
        for family, analytic in cases:
            for lam in sample_cone(family, 60, seed=5):
                c1, c2, c3 = gamma_g_criteria(family, lam)
                v = in_gamma_g(family, lam)
                assert c1 == c2 == c3 == v.in_gamma_g == analytic(lam)
                assert not v.indeterminate

    @pytest.mark.parametrize("crit1, crit3, indeterminate", [
        (False, False, True), (False, True, False), (True, False, False),
        (True, True, False),
    ], ids=["both-disagree", "ladder-disagrees", "pairing-disagrees", "both-agree"])
    def test_indeterminate_only_when_both_criteria_disagree(
            self, monkeypatch, crit1, crit3, indeterminate):
        from hcl import symfunc

        monkeypatch.setattr(symfunc, "_ray_criteria",
                            lambda family, lam: (None, None, None, crit1, crit3))
        v = in_gamma_g(LOGDET3, [1.0, 2.0, 3.0])  # analytic verdict: inside
        assert v.in_gamma_g and v.indeterminate == indeterminate

    def test_probe_set_drawn_once(self, monkeypatch):
        from hcl import symfunc

        probes = symfunc._probe_set(MIXED)
        assert not probes.flags.writeable
        np.testing.assert_array_equal(probes, sample_cone(MIXED, 32, 0))
        monkeypatch.setattr(symfunc, "sample_cone", None)  # any new draw fails
        assert gamma_g_criteria(MIXED, [1.0, 1.0, 1.0]) == (True, True, True)
        assert symfunc._probe_set(MIXED) is probes


class TestValidation:
    def test_lambda_tuple(self):
        with pytest.raises(DomainError):
            lambda_tuple([1.0])
        with pytest.raises(DomainError):
            lambda_tuple([np.inf, 1.0])

    def test_family_invariants(self):
        with pytest.raises(DomainError):
            FuncFamily.quotient_log(2, (0.0, 0.0), 3)  # zero weight sum
        with pytest.raises(DomainError):
            FuncFamily.sigma_quotient(2, 2, 3)  # l < k violated
        with pytest.raises(DomainError):
            FuncFamily("log-det", 3, 2)  # log-det off Gamma_n
        with pytest.raises(DomainError):
            FuncFamily.sigma_root(4, 3)  # k out of range
