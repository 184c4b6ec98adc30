import numpy as np
import pytest

from hcl.errors import DomainError, HypothesisError, RangeError
from hcl.subsol import (
    _shift_to_level,
    build_context,
    certify_bounded_intersection,
    dichotomy_rows,
    sample_level_set,
)
from hcl.symfunc import FuncFamily, eval_f, grad_f

SIGMA1 = FuncFamily.sigma_root(1, 3)
LOGDET2 = FuncFamily.log_det(2)
SQRT_SIGMA2 = FuncFamily.sigma_root(2, 3)


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
