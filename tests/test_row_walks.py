"""The stacked ray walks against the scalar loops they replaced.

`scalar_reference` keeps the one-ray-at-a-time versions and the one-point
Hessian.  The stacked code must reproduce them bit for bit: the same points,
contexts, Hessians, verdicts and error texts, across families and seeds.
"""

from dataclasses import replace

import numpy as np
import pytest
import scalar_reference as ref

from hcl.errors import HclError
from hcl.subsol import (
    _shift_to_level,
    build_context,
    certify_bounded_intersection,
    dichotomy_rows,
    sample_level_set,
)
from hcl.symfunc import (
    FuncFamily,
    check_structure,
    eval_f,
    gamma_g_criteria,
    hess_f,
    sample_cone,
)

FAMILIES = [
    FuncFamily.log_det(2),
    FuncFamily.sigma_root(2, 3),
    FuncFamily.log_sigma(2, 4),
    FuncFamily.quotient_log(2, (0.0, 1.0), 3),
    FuncFamily.sigma_root(3, 6),
]
SEEDS = [0, 7, 29]


def family_id(fam):
    return fam.label()


def level_for(fam):
    """A level just below f(2, ..., 2), so the shifted rays from 1 meet it."""
    return eval_f(fam, 2.0 * np.ones(fam.n)) - 0.3


def outcome(fn, *args, **kwargs):
    """The value of fn, or the type and text of the HclError it raises."""
    try:
        return fn(*args, **kwargs)
    except HclError as exc:
        return type(exc).__name__, str(exc)


def assert_same(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)
    else:
        assert got == want


@pytest.mark.parametrize("fam", FAMILIES, ids=family_id)
@pytest.mark.parametrize("seed", SEEDS)
def test_sample_cone_matches_scalar(fam, seed):
    assert np.array_equal(sample_cone(fam, 50, seed), ref.sample_cone(fam, 50, seed))


def test_sample_cone_empty():
    assert sample_cone(FAMILIES[1], 0, 3).shape == (0, 3)


@pytest.mark.parametrize("fam", FAMILIES, ids=family_id)
@pytest.mark.parametrize("seed", SEEDS)
def test_sample_level_set_matches_scalar(fam, seed):
    sigma = level_for(fam)
    assert np.array_equal(sample_level_set(fam, sigma, 40, seed),
                          ref.sample_level_set(fam, sigma, 40, seed))


def test_retry_path_matches_scalar():
    # sigma_2^(1/2), n = 3 at level 3: about 4% of the seed-3 bases enter the
    # cone above the level and are redrawn
    fam, sigma, seed = FAMILIES[1], 3.0, 3
    bases = np.random.default_rng(seed).normal(0.0, 2.0, (150, fam.n))
    points, errors = _shift_to_level(fam, sigma, bases)
    misses = 0
    for base, point, err in zip(bases, points, errors):
        want = outcome(ref.level_set_point, fam, sigma, base, mode="shift")
        assert_same(point if err is None else ("RangeError", err), want)
        misses += isinstance(want, tuple)
    assert misses >= 3
    assert np.array_equal(sample_level_set(fam, sigma, 150, seed),
                          ref.sample_level_set(fam, sigma, 150, seed))


@pytest.mark.parametrize("fam", FAMILIES, ids=family_id)
@pytest.mark.parametrize("seed", SEEDS)
def test_build_context_matches_scalar(fam, seed):
    mu = 2.0 * np.ones(fam.n)
    sigma = level_for(fam)
    got = build_context(fam, sigma, mu, 0.5, 8.0, rays=60, seed=seed)
    assert got == ref.build_context(fam, sigma, mu, 0.5, 8.0, rays=60, seed=seed)


@pytest.mark.parametrize("fam", FAMILIES[:2], ids=family_id)
def test_crossing_norms_match_scalar(fam):
    # one ray per seed, so each seed's fan norm is one crossing norm
    mu, sigma = 2.0 * np.ones(fam.n), level_for(fam)
    for seed in range(40):
        assert certify_bounded_intersection(fam, sigma, mu, 0.5, 8.0, 1, seed) == (
            ref.certify_bounded_intersection(fam, sigma, mu, 0.5, 8.0, 1, seed))


@pytest.mark.parametrize("fam", FAMILIES, ids=family_id)
def test_too_small_radius_text_matches_scalar(fam):
    mu = 2.0 * np.ones(fam.n)
    sigma = level_for(fam)
    got = outcome(build_context, fam, sigma, mu, 0.5, 2.0, seed=3)
    assert got == outcome(ref.build_context, fam, sigma, mu, 0.5, 2.0, seed=3)
    assert got[0] == "HypothesisError"


def test_dichotomy_rows_match_per_point_checks():
    fam = FAMILIES[1]
    ctx = build_context(fam, 3.0, [2.0, 2.0, 2.0], 0.5, 6.0, seed=3)
    pts = sample_level_set(fam, ctx.sigma, 120, 3)
    # the derived epsilon gives every point a case; a larger one leaves some
    # points with neither
    for eps in (ctx.epsilon, 0.2):
        c = replace(ctx, epsilon=eps)
        rows = dichotomy_rows(c, pts)
        for lam, row in zip(pts, rows):
            want = outcome(ref.dichotomy_check, c, lam)
            if row is None:
                assert want[0] == "LemmaViolationError"
            else:
                assert row == want
    assert None not in dichotomy_rows(ctx, pts)
    neither = dichotomy_rows(replace(ctx, epsilon=0.2), pts).count(None)
    assert 0 < neither < len(pts)


@pytest.mark.parametrize("fam", FAMILIES, ids=family_id)
def test_check_structure_matches_scalar(fam):
    assert check_structure(fam, 60, 7) == ref.check_structure(fam, 60, 7)


@pytest.mark.parametrize("fam", FAMILIES[:4], ids=family_id)
def test_gamma_g_criteria_match_per_rung_ladder(fam):
    # 100 points per family, 400 criteria tuples in all
    mixed = 0
    for lam in sample_cone(fam, 100, seed=5):
        got = gamma_g_criteria(fam, lam)
        assert got == ref.gamma_g_criteria(fam, lam)
        mixed += got != (True, True, True)
    if fam.kind == "quotient-log":
        assert mixed > 0  # the comparison sees both verdicts


def every_kind(n):
    """The five family kinds at dimension n, over every cone index k."""
    yield FuncFamily.log_det(n)
    for k in range(1, n + 1):
        yield FuncFamily.sigma_root(k, n)
        yield FuncFamily.log_sigma(k, n)
        yield FuncFamily.sigma_quotient(k, 0, n)
        yield FuncFamily.sigma_quotient(k, k - 1, n)
        yield FuncFamily.quotient_log(k, (0.5,) * k, n)


@pytest.mark.parametrize("n", range(2, 7))
def test_hessian_stack_matches_scalar(n):
    for fam in every_kind(n):
        pts = sample_cone(fam, 12, n)
        want = np.array([ref.hess_f(fam, lam) for lam in pts])
        assert np.array_equal(hess_f(fam, pts), want)
        assert np.array_equal(hess_f(fam, pts.reshape(3, 4, n)), want.reshape(3, 4, n, n))
        assert np.array_equal(hess_f(fam, pts[3]), want[3])

