"""Subsolution verification and the explicit epsilon-dichotomy machinery.

Given a level sigma, a center mu and margins (delta, R) certifying that
(mu - 2 delta 1 + positive orthant) meets the level set only inside the ball
B_R(0), the dichotomy context computes the explicit constant

    eps = min{ delta0/(2 R0), delta (1-eps1)/(2 R0), eps1/(2 R0),
               delta0/(2 (1+eps1)),  delta/2,  eps1/(2 (1+eps1)) }

from the auxiliary quantities R0 (axis clearance), eps1 (scaling slack) and
delta0 (worst level margin).  For every lambda on the level set at least one
of the two dichotomy inequalities then holds with this eps:

    case 1:  sum f_i(lambda)(mu_i - lambda_i) >= eps * W(lambda)
    case 2:  min_i f_i(lambda)            >= eps * W(lambda)

with the weight W = 1 + sum f_i + |sum f_i lambda_i|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, HypothesisError, RangeError
from .symfunc import (
    FuncFamily,
    _bisect_rows,
    _grow_rows,
    boundary_sup,
    eval_f,
    grad_f,
    in_cone,
    lambda_tuple,
)

__all__ = [
    "DichotomyContext",
    "DichotomyOutcome",
    "sample_level_set",
    "certify_bounded_intersection",
    "build_context",
    "dichotomy_rows",
]

_R0_MARGIN = 1.2  # multiplicative safety on the smallest admissible clearance
_LEVEL_TOL = 1e-10


def _enter(family: FuncFamily, base: np.ndarray, direction: np.ndarray):
    """(t, f(base + t dir)) per row of (m, n) stacks, t = 1e-9 (1 + t0) past
    the smallest t0 >= 0 in Gamma (doubling to 2^49, about 1e15, then
    bisection); NaN for a ray that never enters the cone."""
    rows = np.flatnonzero(~in_cone(base, family.k))

    def inside(r, s):
        return in_cone(base[r] + s[:, None] * direction[r], family.k)

    lo, hi = np.zeros(base.shape[0]), np.ones(base.shape[0])
    entered = np.flatnonzero(_grow_rows(inside, hi, rows, 50))
    _bisect_rows(inside, lo, hi, entered, 200,
                 settled=lambda r: hi[r] - lo[r] <= 1e-13 * (1.0 + hi[r]))
    t = np.zeros(lo.shape)
    t[rows] = np.nan
    t[entered] = hi[entered]
    t = t + 1e-9 * (1.0 + t)
    f = np.full(t.shape, np.nan)
    rows = np.flatnonzero(~np.isnan(t))
    f[rows] = eval_f(family, base[rows] + t[rows, None] * direction[rows])
    return t, f


def _walk_to_level(family, sigma, base, direction, t_lo, t_hi, rows):
    """Row-wise t_hi with f(base + t_hi dir) = sigma, f increasing on each
    ray: doubles t_hi (200 probes) until f > sigma, then bisects until f at
    t_hi, kept from the probes, is within 1e-10 * (1 + |sigma|).  Returns
    (mask of the rows whose doubling reached the level, f at t_hi)."""
    f_hi = np.full(t_hi.shape, np.nan)

    def probe(r, t, strict):
        val = eval_f(family, base[r] + t[:, None] * direction[r])
        up = val > sigma if strict else ~(val < sigma)
        f_hi[r[up]] = val[up]
        return up

    tol = _LEVEL_TOL * (1.0 + abs(sigma))
    reached = _grow_rows(lambda r, t: probe(r, t, True), t_hi, rows, 200)
    _bisect_rows(lambda r, t: probe(r, t, False), t_lo, t_hi, np.flatnonzero(reached),
                 200, settled=lambda r: np.abs(f_hi[r] - sigma) <= tol)
    return reached, f_hi


def _shift_to_level(family: FuncFamily, sigma: float, bases: np.ndarray):
    """Walk each row of `bases` along +1 to the level sigma, where f is
    increasing by ellipticity.  Returns (points, errors): errors[i] is None
    or the RangeError message of a ray that misses the level."""
    ones = np.ones(bases.shape)
    t_lo, f_lo = _enter(family, bases, ones)
    t_hi = np.maximum(1.0, 2.0 * t_lo)
    reached, f_hi = _walk_to_level(family, sigma, bases, ones, t_lo, t_hi,
                                   np.flatnonzero(f_lo <= sigma))
    errors = []
    for f, hit, val in zip(f_lo, reached, f_hi):
        if np.isnan(f):
            errors.append("ray never enters the cone")
        elif f > sigma:  # entry value already above the level
            errors.append(f"level {sigma} below the ray's attained range")
        elif not hit:
            errors.append(f"level {sigma} not attained on the shifted ray")
        elif abs(val - sigma) > 1e-8 * (1.0 + abs(sigma)):
            errors.append(f"bisection stalled at f={val} for level {sigma}")
        else:
            errors.append(None)
    return bases + t_hi[:, None] * ones, errors


def sample_level_set(family: FuncFamily, sigma: float, count: int, seed: int) -> np.ndarray:
    """Fan of level-set points from 1-shift rays through normal(0, 2) bases;
    each round draws a base per missing point and drops those that miss.
    Raises once 100 * count rays are drawn, fewer than 1% of them hits."""
    rng = np.random.default_rng(seed)
    pts = np.empty((count, family.n))
    got = drawn = 0
    while got < count:
        if drawn >= 100 * count:
            raise RangeError(f"level {sigma} met by {got} of {drawn} shifted rays")
        drawn += count - got
        found, errors = _shift_to_level(
            family, sigma, rng.normal(0.0, 2.0, (count - got, family.n)))
        keep = [i for i, err in enumerate(errors) if err is None]
        pts[got : got + len(keep)] = found[keep]
        got += len(keep)
    return pts


def certify_bounded_intersection(
    family: FuncFamily,
    sigma: float,
    mu,
    delta: float,
    radius: float,
    rays: int = 200,
    seed: int = 0,
) -> float:
    """Sample (mu - 2 delta 1 + orthant) against the level set; return the max
    crossing norm.  Raises when a sampled crossing escapes B_radius(0).

    A certificate is a report, not a proof: rays are quasi-random orthant
    directions from the shifted base point.
    """
    mu = lambda_tuple(mu)
    rng = np.random.default_rng(seed)
    dirs = np.abs(rng.normal(0.0, 1.0, (rays, family.n))) + 1e-12
    for e in dirs:
        e /= np.linalg.norm(e)  # the 1-D norm: axis=-1 differs in the last bit
    base = np.broadcast_to(mu - 2.0 * delta * np.ones(family.n), dirs.shape)
    t_lo, f_lo = _enter(family, base, dirs)
    at_entry = f_lo >= sigma  # level reached at the cone entrance
    t_hi = np.maximum(1.0, 2.0 * t_lo)
    reached, _ = _walk_to_level(family, sigma, base, dirs, t_lo, t_hi,
                                np.flatnonzero(f_lo < sigma))
    t = np.where(at_entry, t_lo, t_hi)
    worst = 0.0
    for i in range(rays):
        if np.isnan(f_lo[i]):
            raise RangeError("ray never enters the cone")
        if at_entry[i] or reached[i]:  # else the level is never attained
            worst = max(worst, float(np.linalg.norm(base[i] + t[i] * dirs[i])))
        if worst > radius:
            raise HypothesisError(
                f"level-set crossing at norm {worst:.6g} escapes B_{radius}"
            )
    return worst


@dataclass(frozen=True)
class DichotomyContext:
    """All constants entering the two-case inequality at level sigma."""

    family: FuncFamily
    sigma: float
    mu: tuple[float, ...]
    delta: float
    radius: float
    r0: float
    eps1: float
    delta0: float
    epsilon: float
    fan_norm: float  # largest sampled crossing norm from the certificate


def build_context(
    family: FuncFamily,
    sigma: float,
    mu,
    delta: float,
    radius: float,
    rays: int = 200,
    seed: int = 0,
) -> DichotomyContext:
    """Derive (R0, eps1, delta0, eps) for the dichotomy at level sigma.

    R0 is 1.2x the smallest clearance such that mu - delta 1 + R0 e_i clears
    the ball radius, stays in Gamma and has f > sigma on every axis; eps1 is
    the first value in 1/2, 1/4, ... keeping f((1 +- eps1)(mu - delta 1) +
    R0 e_i) > sigma; delta0 is the worst of those margins; eps is the
    six-term minimum.  eps depends only on (sigma, mu, delta, radius, f).
    """
    mu = lambda_tuple(mu)
    if mu.shape != (family.n,):
        raise DomainError(f"mu needs {family.n} entries, got shape {mu.shape}")
    if delta <= 0.0 or radius <= 0.0:
        raise DomainError("delta and radius must be positive")
    if not in_cone(mu, family.k):
        raise DomainError("mu must lie in Gamma")
    if not sigma > boundary_sup(family):
        raise DomainError("level sigma must exceed the boundary sup of f")
    fan_norm = certify_bounded_intersection(
        family, sigma, mu, delta, radius, rays=rays, seed=seed
    )

    mu_t = mu - delta * np.ones(family.n)

    def clear_ok(rows, r0):
        r = float(r0[0])
        return np.array([np.min(mu_t) + r > radius and _axis_values(
            family, sigma, mu_t, r, (1.0,)) is not None])

    # one row: probes hi, 2 hi, 4 hi, ... while <= 1e12, then 80 bisections
    hi, row = np.array([max(1.0, radius - float(np.min(mu_t)) + 1.0)]), np.arange(1)
    tries = 1 + int(np.sum(hi[0] * 2.0 ** np.arange(1, 41) <= 1e12))
    if not _grow_rows(clear_ok, hi, row, tries)[0]:
        raise HypothesisError("no axis clearance R0 found")
    _bisect_rows(clear_ok, np.zeros(1), hi, row, 80)
    r0 = _R0_MARGIN * float(hi[0])

    eps1 = 0.5
    while eps1 > 1e-12:
        vals = _axis_values(family, sigma, mu_t, r0, (1.0 + eps1, 1.0 - eps1))
        if vals is not None:
            break
        eps1 *= 0.5
    else:
        raise HypothesisError("no scaling slack eps1 found")
    delta0 = float(np.min(vals - sigma))

    eps = min(
        delta0 / (2.0 * r0),
        delta * (1.0 - eps1) / (2.0 * r0),
        eps1 / (2.0 * r0),
        delta0 / (2.0 * (1.0 + eps1)),
        delta / 2.0,
        eps1 / (2.0 * (1.0 + eps1)),
    )
    if eps <= 0.0:
        raise HypothesisError("derived epsilon not positive; margins degenerate")
    return DichotomyContext(
        family=family,
        sigma=float(sigma),
        mu=tuple(float(x) for x in mu),
        delta=float(delta),
        radius=float(radius),
        r0=float(r0),
        eps1=float(eps1),
        delta0=delta0,
        epsilon=float(eps),
        fan_norm=fan_norm,
    )


def _axis_values(family, sigma, mu_t, r0, scales):
    """f at the points s*mu_t + r0*e_i (i outer, s inner), from one call;
    None unless all of them lie in Gamma with f > sigma."""
    n = mu_t.shape[-1]
    pts = (np.multiply.outer(scales, mu_t) + r0 * np.eye(n)[:, None, :]).reshape(-1, n)
    vals = eval_f(family, pts) if np.all(in_cone(pts, family.k)) else None
    return None if vals is None or np.any(vals <= sigma) else vals


@dataclass(frozen=True)
class DichotomyOutcome:
    """Which of the two case inequalities hold at a boundary point."""

    case1: bool
    case2: bool
    weight: float  # 1 + sum f_i + |sum f_i lambda_i|
    margin1: float  # lhs1 - eps * weight
    margin2: float  # lhs2 - eps * weight


def _dichotomy_terms(ctx: DichotomyContext, lams: np.ndarray):
    """(weight, lhs1, lhs2) per row of an (m, n) stack of level-set points."""
    val = eval_f(ctx.family, lams)
    off = np.flatnonzero(np.abs(val - ctx.sigma) > 1e-6 * (1.0 + abs(ctx.sigma)))
    if off.size:
        raise DomainError(
            f"point is not on the level set: f={val[off[0]]} vs {ctx.sigma}")
    f = grad_f(ctx.family, lams)
    weight = 1.0 + np.sum(f, axis=-1) + np.abs(np.sum(f * lams, axis=-1))
    lhs1 = np.sum(f * (np.asarray(ctx.mu) - lams), axis=-1)
    return weight, lhs1, np.min(f, axis=-1)


def dichotomy_rows(ctx: DichotomyContext, lams) -> list[DichotomyOutcome | None]:
    """Both case inequalities at each level-set point, the rows of an (m, n)
    stack, from one eval_f and one grad_f call; None where neither case holds
    beyond tolerance.  Raises `DomainError` for a point off the level set."""
    weight, lhs1, lhs2 = (x.tolist() for x in _dichotomy_terms(ctx, lambda_tuple(lams)))
    out = []
    for w, a, b in zip(weight, lhs1, lhs2):
        tol = 1e-10 * w
        case1 = a >= ctx.epsilon * w - tol
        case2 = b >= ctx.epsilon * w - tol
        out.append(DichotomyOutcome(case1, case2, w, a - ctx.epsilon * w, b - ctx.epsilon * w)
                   if case1 or case2 else None)
    return out

