import numpy as np
import pytest

from hcl.errors import DomainError, HypothesisError, RangeError
from hcl.subsol import (
    _shift_to_level,
    build_context,
    certify_bounded_intersection,
    dichotomy_rows,
    is_c_subsolution,
    sample_level_set,
)
from hcl.symfunc import FuncFamily, eval_f, grad_f

SIGMA1 = FuncFamily.sigma_root(1, 3)
LOGDET2 = FuncFamily.log_det(2)
SQRT_SIGMA2 = FuncFamily.sigma_root(2, 3)
MIXED = FuncFamily.quotient_log(2, (0.0, 1.0), 3)


class TestLevelSetPoint:
    def test_shift_mode(self):
        (p,), errors = _shift_to_level(LOGDET2, 1.0, np.array([[-3.0, 0.5]]))
        assert errors == [None]
        assert eval_f(LOGDET2, p) == pytest.approx(1.0, abs=1e-9)
        # the point sits on the shifted ray
        assert p[0] - (-3.0) == pytest.approx(p[1] - 0.5, abs=1e-12)

    def test_level_below_every_ray_stops_drawing(self):
        # every shifted ray enters the cone above sigma_1 = 1e-300: the fan
        # drew new bases without end before it was bounded by 100 * count
        with pytest.raises(RangeError, match="met by 0 of 500 shifted rays"):
            sample_level_set(SIGMA1, 1e-300, 5, seed=0)


class TestBuildContext:
    def test_worked_linear_context(self):
        ctx = build_context(SIGMA1, 3.0, [2.0, 2.0, 2.0], 0.5, 2.0)
        assert ctx.r0 == pytest.approx(0.6, abs=1e-6)
        assert ctx.eps1 == pytest.approx(0.25)
        assert ctx.delta0 == pytest.approx(0.975, abs=1e-6)
        assert ctx.epsilon == pytest.approx(0.1, abs=1e-6)

    def test_six_term_formula(self):
        ctx = build_context(SIGMA1, 3.0, [2.0, 2.0, 2.0], 0.5, 2.0)
        terms = [
            ctx.delta0 / (2 * ctx.r0),
            ctx.delta * (1 - ctx.eps1) / (2 * ctx.r0),
            ctx.eps1 / (2 * ctx.r0),
            ctx.delta0 / (2 * (1 + ctx.eps1)),
            ctx.delta / 2,
            ctx.eps1 / (2 * (1 + ctx.eps1)),
        ]
        assert ctx.epsilon == pytest.approx(min(terms), rel=1e-12)

    def test_recomputation_determinism(self):
        a = build_context(LOGDET2, 0.0, [2.0, 2.0], 0.25, 3.0)
        b = build_context(LOGDET2, 0.0, [2.0, 2.0], 0.25, 3.0)
        assert a.epsilon == b.epsilon
        assert a.r0 == b.r0 and a.eps1 == b.eps1 and a.delta0 == b.delta0

    def test_inputs_stay_finite_near_boundary_levels(self):
        # shifting the level toward the boundary sup (-inf for log-det) keeps
        # the formula inputs finite and positive while the hypotheses hold
        for sigma in (0.0, -5.0, -20.0):
            ctx = build_context(LOGDET2, sigma, [2.0, 2.0], 0.25, 3.0)
            assert np.isfinite(ctx.r0) and ctx.r0 > 0
            assert np.isfinite(ctx.delta0) and ctx.delta0 > 0
            assert 0 < ctx.eps1 <= 0.5
            assert ctx.epsilon > 0

    def test_positive_epsilon_for_log_det(self):
        ctx = build_context(LOGDET2, 0.0, [2.0, 2.0], 0.25, 3.0)
        assert ctx.epsilon > 0

    def test_hypothesis_violation_detected(self):
        # ball radius too small: the certificate itself escapes B_R
        with pytest.raises(HypothesisError):
            build_context(SIGMA1, 3.0, [2.0, 2.0, 2.0], 0.5, 0.5)

    def test_rejects_level_below_range(self):
        with pytest.raises(DomainError):
            build_context(SQRT_SIGMA2, -1.0, [2.0, 2.0, 2.0], 0.5, 4.0)

    def test_certificate_norm(self):
        worst = certify_bounded_intersection(SIGMA1, 3.0, [2, 2, 2], 0.5, 2.0)
        assert 0.0 < worst <= 2.0


@pytest.fixture(scope="module")
def linear_ctx():
    return build_context(SIGMA1, 3.0, [2.0, 2.0, 2.0], 0.5, 2.0)


class TestDichotomyCheck:

    def test_symmetric_point_case2(self, linear_ctx):
        (out,) = dichotomy_rows(linear_ctx, [[1.0, 1.0, 1.0]])
        assert out.case2  # f_i = 1 >= 0.1 * (1 + 3 + 3) = 0.7
        assert out.weight == pytest.approx(7.0)

    def test_constant_gradient_always_case2(self, linear_ctx):
        rng = np.random.default_rng(3)
        lams = []
        for _ in range(50):
            v = rng.normal(0, 2, 2)
            lams.append([v[0], v[1], 3.0 - v.sum()])
        assert all(out is not None and out.case2 for out in dichotomy_rows(linear_ctx, lams))

    def test_off_level_rejected(self, linear_ctx):
        with pytest.raises(DomainError):
            dichotomy_rows(linear_ctx, [[2.0, 2.0, 2.0]])

    @pytest.mark.parametrize(
        "family,sigma,mu,delta,radius",
        [
            (LOGDET2, 0.0, [2.0, 2.0], 0.25, 3.0),
            (SQRT_SIGMA2, 1.0, [2.0, 2.0, 2.0], 0.5, 4.0),
        ],
        ids=["log-det", "sqrt-sigma2"],
    )
    def test_no_neither_on_sampled_boundary(self, family, sigma, mu, delta, radius):
        ctx = build_context(family, sigma, mu, delta, radius)
        pts = sample_level_set(family, sigma, 200, seed=5)
        assert dichotomy_rows(ctx, pts).count(None) == 0

    def test_weight_matches_formula(self, linear_ctx):
        lam = np.array([0.5, 1.0, 1.5])
        (out,) = dichotomy_rows(linear_ctx, lam[None, :])
        f = grad_f(SIGMA1, lam)
        expected = 1.0 + f.sum() + abs(float(np.sum(f * lam)))
        assert out.weight == pytest.approx(expected)


class TestCSubsolution:
    def test_log_det_reachable_level(self):
        v = is_c_subsolution(LOGDET2, [1.0, 1.0], 5.0)
        assert bool(v) and not v.indeterminate

    def test_linear_family_unbounded(self):
        v = is_c_subsolution(SIGMA1, [1.0, 1.0, 1.0], 100.0)
        assert bool(v)

    def test_unbounded_families_always_subsolutions(self):
        # every admissible point passes for families with unbounded axis
        # limits, at levels within reach of the truncated t-ladder
        from hcl.symfunc import sample_cone

        for fam in (LOGDET2, SIGMA1, SQRT_SIGMA2):
            for lam in sample_cone(fam, 20, seed=7):
                level = eval_f(fam, lam) + 5.0
                v = is_c_subsolution(fam, lam, level)
                assert bool(v) and not v.indeterminate

    def test_mixed_family_truncated_above(self):
        # level far above the truncated sup: verdict false, flagged
        # indeterminate because the log term is still rising at t_max
        v = is_c_subsolution(MIXED, [-0.3, 1.0, 1.0], 50.0)
        assert not bool(v)
        assert v.indeterminate

    def test_quotient_family_definitive_false(self):
        fam = FuncFamily.sigma_quotient(2, 1, 3)
        # axis limits converge; a level above them is a clean rejection
        v = is_c_subsolution(fam, [0.2, 0.2, 0.2], 50.0, t_max=2.0**48)
        assert not bool(v)
        assert not v.indeterminate

    def test_quotient_family_axis_limit_value(self):
        fam = FuncFamily.sigma_quotient(2, 1, 3)
        lam = np.array([0.2, 0.2, 0.2])
        # oracle: f(lam + t e_1) -> sigma_1(lam|1) * ... computed directly
        t = 2.0**40
        lim = eval_f(fam, lam + t * np.eye(3)[0])
        v = is_c_subsolution(fam, lam, lim - 0.05, t_max=2.0**48)
        assert bool(v)

    def test_rejects_outside_cone(self):
        with pytest.raises(DomainError):
            is_c_subsolution(LOGDET2, [-1.0, 1.0], 0.0)
