"""Scalar reference copies of the ray walks, kept to test the row-wise ones.

These are the one-ray-at-a-time loops that `hcl.subsol` and
`hcl.symfunc.sample_cone` used before the walks were stacked: each probe makes
one `in_cone`/`eval_f` call on one point.  `check_structure` is the version
whose finite-difference gradient check made one `eval_f` call per point and
axis, and `gamma_g_criteria` the one that evaluated its t-ladder one rung per
`eval_f` call.  `battery_instances` is the lemma battery drawn one
`random_instance` at a time, with the corner set from the per-instance
`growth_threshold` sums, and `localize` the one-matrix localization verdict
through the scalar Jacobi sweep; their instance is a one-row
`BorderedStack`, which `_row0` reads at row 0 in Python scalars, as the
one-instance class they were written for stored it.  `hess_f` is the
one-point analytic Hessian with its per-point derivative tables, which
`check_structure` here calls once per point.  They are kept verbatim (only
the imports, the instance holder, `localize`'s return type and
`gamma_g_criteria`'s ladder and probe draw differ: it walks the
library's `LADDER`, and calls `sample_cone` here, once per (family, probes,
seed), and reuses that read-only draw on every later call) so the tests can
require bit-identical points, contexts, draws, thresholds, verdicts, Hessians
and error messages from the stacked code.  `elementary_all_last_axis` is the sigma recurrence that
ran along the last axis of an (..., n+1) array, before it ran on the rows of
an (n+1, ...) one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from hcl.errors import DomainError, HclError, HypothesisError, RangeError
from conftest import bordered
from hcl.spectra import BorderedStack, LocalizationVerdict, eig_hermitian
from hcl.subsol import DichotomyContext, DichotomyOutcome
from hcl.symfunc import (
    FuncFamily,
    StructureReport,
    boundary_sup,
    cone_margin,
    eval_f,
    grad_f,
    LADDER,
    _admissible_sigmas,
    _sigma_all_excluding,
    elementary_all,
    in_cone,
    lambda_tuple,
    well_conditioned,
)

_R0_MARGIN = 1.2
_LEVEL_TOL = 1e-10


class LemmaViolationError(HclError):
    """Neither dichotomy case held at a point beyond tolerance."""


def _cone_entry(family: FuncFamily, base: np.ndarray, direction: np.ndarray) -> float:
    """Smallest t >= 0 with base + t*direction in Gamma, by doubling + bisection.

    Requires the ray to enter the cone eventually (direction with positive
    entries always does).
    """
    if in_cone(base, family.k):
        return 0.0
    hi = 1.0
    while not in_cone(base + hi * direction, family.k):
        hi *= 2.0
        if hi > 1e15:
            raise RangeError("ray never enters the cone")
    lo = 0.0
    for _ in range(200):
        if hi - lo <= 1e-13 * (1.0 + hi):
            break
        mid = 0.5 * (lo + hi)
        if in_cone(base + mid * direction, family.k):
            hi = mid
        else:
            lo = mid
    return hi


def _bisect_level(family, sigma, base, direction, t_lo, t_hi) -> float:
    """t with f(base + t dir) = sigma, assuming f increasing on [t_lo, t_hi]."""
    for _ in range(200):
        mid = 0.5 * (t_lo + t_hi)
        if eval_f(family, base + mid * direction) < sigma:
            t_lo = mid
        else:
            t_hi = mid
        if abs(eval_f(family, base + t_hi * direction) - sigma) <= _LEVEL_TOL * (
            1.0 + abs(sigma)
        ):
            break
    return t_hi


def level_set_point(
    family: FuncFamily, sigma: float, direction, mode: str = "ray"
) -> np.ndarray:
    """A point lambda with f(lambda) = sigma to 1e-10 * (1 + |sigma|).

    mode="ray": scales t*direction with direction in Gamma (f must attain
    sigma along the ray).  mode="shift": walks base + t*1 from the given base
    point; f is strictly increasing there by ellipticity, so bisection is
    well-posed.
    """
    direction = lambda_tuple(direction)
    ones = np.ones(family.n)
    if mode == "shift":
        base = direction
        t_enter = _cone_entry(family, base, ones)
        t_lo = t_enter + 1e-9 * (1.0 + abs(t_enter))
        t_hi = max(1.0, 2.0 * t_lo)
        for _ in range(200):
            if eval_f(family, base + t_hi * ones) > sigma:
                break
            t_hi *= 2.0
        else:
            raise RangeError(f"level {sigma} not attained on the shifted ray")
        if eval_f(family, base + t_lo * ones) > sigma:
            # entry value already above the level: the ray misses the level set
            raise RangeError(f"level {sigma} below the ray's attained range")
        t = _bisect_level(family, sigma, base, ones, t_lo, t_hi)
        point = base + t * ones
    else:
        if not in_cone(direction, family.k):
            raise DomainError("ray mode needs a direction inside Gamma")
        t_lo, t_hi = 1.0, 1.0
        for _ in range(200):
            if eval_f(family, t_lo * direction) < sigma:
                break
            t_lo *= 0.5
        else:
            raise RangeError(f"level {sigma} below the attained range on the ray")
        for _ in range(200):
            if eval_f(family, t_hi * direction) > sigma:
                break
            t_hi *= 2.0
        else:
            raise RangeError(f"level {sigma} above the attained range on the ray")
        t = _bisect_level(family, sigma, np.zeros(family.n), direction, t_lo, t_hi)
        point = t * direction
    val = eval_f(family, point)
    if abs(val - sigma) > 1e-8 * (1.0 + abs(sigma)):
        raise RangeError(f"bisection stalled at f={val} for level {sigma}")
    return point


def sample_level_set(
    family: FuncFamily, sigma: float, count: int, seed: int, spread: float = 2.0
) -> np.ndarray:
    """Fan of level-set points from 1-shift rays through quasi-random bases."""
    rng = np.random.default_rng(seed)
    pts = np.empty((count, family.n))
    got = 0
    while got < count:
        base = rng.normal(0.0, spread, family.n)
        try:
            pts[got] = level_set_point(family, sigma, base, mode="shift")
        except RangeError:
            continue
        got += 1
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
    base = mu - 2.0 * delta * np.ones(family.n)
    worst = 0.0
    for _ in range(rays):
        e = np.abs(rng.normal(0.0, 1.0, family.n)) + 1e-12
        e /= np.linalg.norm(e)
        t0 = _cone_entry(family, base, e)
        t_lo = t0 + 1e-9 * (1.0 + t0)
        if eval_f(family, base + t_lo * e) >= sigma:
            crossing = base + t_lo * e  # level reached at the cone entrance
        else:
            t_hi = max(1.0, 2.0 * t_lo)
            for _ in range(200):
                if eval_f(family, base + t_hi * e) > sigma:
                    break
                t_hi *= 2.0
            else:
                continue  # level never attained along this ray
            t = _bisect_level(family, sigma, base, e, t_lo, t_hi)
            crossing = base + t * e
        worst = max(worst, float(np.linalg.norm(crossing)))
        if worst > radius:
            raise HypothesisError(
                f"level-set crossing at norm {worst:.6g} escapes B_{radius}"
            )
    return worst


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
    if delta <= 0.0 or radius <= 0.0:
        raise DomainError("delta and radius must be positive")
    if not in_cone(mu, family.k):
        raise DomainError("mu must lie in Gamma")
    sup_bd = boundary_sup(family)
    if not sigma > sup_bd:
        raise DomainError("level sigma must exceed the boundary sup of f")
    fan_norm = certify_bounded_intersection(
        family, sigma, mu, delta, radius, rays=rays, seed=seed
    )

    n = family.n
    mu_t = mu - delta * np.ones(n)

    def clear_ok(r0: float) -> bool:
        if np.min(mu_t) + r0 <= radius:
            return False
        for i in range(n):
            p = mu_t + r0 * _axis(n, i)
            if not in_cone(p, family.k) or eval_f(family, p) <= sigma:
                return False
        return True

    hi = max(1.0, radius - float(np.min(mu_t)) + 1.0)
    while not clear_ok(hi):
        hi *= 2.0
        if hi > 1e12:
            raise HypothesisError("no axis clearance R0 found")
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if clear_ok(mid):
            hi = mid
        else:
            lo = mid
    r0 = _R0_MARGIN * hi

    eps1 = 0.5
    while eps1 > 1e-12:
        if _scaled_ok(family, mu_t, r0, eps1, sigma):
            break
        eps1 *= 0.5
    else:
        raise HypothesisError("no scaling slack eps1 found")

    margins = []
    for i in range(n):
        e = _axis(n, i)
        for s in (1.0 + eps1, 1.0 - eps1):
            margins.append(eval_f(family, s * mu_t + r0 * e) - sigma)
    delta0 = float(min(margins))

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


def _axis(n: int, i: int) -> np.ndarray:
    e = np.zeros(n)
    e[i] = 1.0
    return e


def _scaled_ok(family, mu_t, r0, eps1, sigma) -> bool:
    n = mu_t.shape[-1]
    for i in range(n):
        e = _axis(n, i)
        for s in (1.0 + eps1, 1.0 - eps1):
            p = s * mu_t + r0 * e
            if not in_cone(p, family.k) or eval_f(family, p) <= sigma:
                return False
    return True


def dichotomy_check(ctx: DichotomyContext, lam) -> DichotomyOutcome:
    """Evaluate both case inequalities at a level-set point.

    At exact sum f_i lambda_i = 0 the weight's absolute value is hit from the
    nonnegative side; no branch choice is needed since the two scaling
    branches only enter the proof, not the computed inequalities.  Raises
    when neither case holds beyond tolerance.
    """
    lam = lambda_tuple(lam)
    fam = ctx.family
    val = eval_f(fam, lam)
    if abs(val - ctx.sigma) > 1e-6 * (1.0 + abs(ctx.sigma)):
        raise DomainError(f"point is not on the level set: f={val} vs {ctx.sigma}")
    f = grad_f(fam, lam)
    mu = np.asarray(ctx.mu)
    weight = 1.0 + float(np.sum(f)) + abs(float(np.sum(f * lam)))
    lhs1 = float(np.sum(f * (mu - lam)))
    lhs2 = float(np.min(f))
    tol = 1e-10 * weight
    case1 = lhs1 >= ctx.epsilon * weight - tol
    case2 = lhs2 >= ctx.epsilon * weight - tol
    if not (case1 or case2):
        raise LemmaViolationError(
            f"neither dichotomy case at lambda={lam.tolist()}: "
            f"lhs1={lhs1:.6g}, lhs2={lhs2:.6g}, eps*W={ctx.epsilon * weight:.6g}"
        )
    return DichotomyOutcome(
        case1=case1,
        case2=case2,
        weight=weight,
        margin1=lhs1 - ctx.epsilon * weight,
        margin2=lhs2 - ctx.epsilon * weight,
    )


def sample_cone(
    family: FuncFamily,
    count: int,
    seed: int,
    spread: float = 1.0,
    shear_limit: float = 0.95,
) -> np.ndarray:
    """Quasi-random points of Gamma, shape (count, n).

    Draws positive-orthant points from exponentials, then shears each toward
    the cone boundary by subtracting a random multiple of the all-ones vector
    while membership holds.  Deterministic given the seed.
    """
    rng = np.random.default_rng(seed)
    n, k = family.n, family.k
    pts = np.empty((count, n))
    for m in range(count):
        lam = rng.exponential(spread, n)
        # largest shift of -1 keeping the point in the cone, by doubling + bisection
        lo, hi = 0.0, 1.0
        while in_cone(lam - hi, k) and hi < 1e12:
            lo, hi = hi, 2.0 * hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if in_cone(lam - mid, k):
                lo = mid
            else:
                hi = mid
        pts[m] = lam - rng.uniform(0.0, shear_limit) * lo
    return pts


def elementary_all_last_axis(lam) -> np.ndarray:
    """All elementary symmetric values sigma_0..sigma_n of lam, shape (..., n+1).

    Uses the coefficient recurrence of prod_i (x + lambda_i); no subset
    enumeration, stable for moderate n.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    e = np.zeros(lam.shape[:-1] + (n + 1,))
    e[..., 0] = 1.0
    for i in range(n):
        x = lam[..., i : i + 1]
        e[..., 1:] = e[..., 1:] + x * e[..., :-1]
    return e


def _sigma_pair_excluding(lam: np.ndarray) -> np.ndarray:
    """sigma_m(lam with entries i and j removed); shape (n, n, n-1)."""
    n = lam.shape[-1]
    out = np.zeros((n, n, n))
    idx = np.arange(n)
    for i in range(n):
        for j in range(i + 1, n):
            e = elementary_all(lam[(idx != i) & (idx != j)])
            out[i, j, : n - 1] = e
            out[j, i, : n - 1] = e
    return out


def _sigma_derivatives(lam: np.ndarray, top: int):
    """First and second derivatives of sigma_m for m <= top.

    d1[m, i] = sigma_{m-1}(lam | i); d2[m, i, j] = sigma_{m-2}(lam | i, j)
    for i != j and zero on the diagonal.
    """
    n = lam.shape[-1]
    ex = _sigma_all_excluding(lam)  # (n, n) -> sigma_j(lam | i)
    pair = _sigma_pair_excluding(lam)  # (n, n, n)
    d1 = np.zeros((top + 1, n))
    d2 = np.zeros((top + 1, n, n))
    for m in range(1, top + 1):
        d1[m] = ex[:, m - 1]
        if m >= 2:
            d2[m] = pair[:, :, m - 2]
            np.fill_diagonal(d2[m], 0.0)
    return d1, d2


def hess_f(family: FuncFamily, lam) -> np.ndarray:
    """n x n second-derivative matrix of f, analytic by the chain rule through
    the elementary symmetric polynomials."""
    lam = lambda_tuple(lam)
    if lam.ndim != 1:
        raise DomainError("hess_f expects a single eigenvalue tuple")
    n, k = family.n, family.k
    e = _admissible_sigmas(family, lam)
    if family.kind == "log-det":
        return np.diag(-1.0 / lam**2)

    def quotient_parts(num: int, den: int):
        """Value, gradient and Hessian of sigma_num / sigma_den."""
        d1, d2 = _sigma_derivatives(lam, num)
        sn, sd = e[num], e[den]
        gn, gd = d1[num], d1[den]
        hn, hd = d2[num], d2[den]
        q = sn / sd
        dq = gn / sd - sn * gd / sd**2
        outer_nd = np.outer(gn, gd)
        hq = (
            hn / sd
            - (outer_nd + outer_nd.T) / sd**2
            - sn * hd / sd**2
            + 2.0 * sn * np.outer(gd, gd) / sd**3
        )
        return q, dq, hq

    if family.kind == "sigma-root":
        d1, d2 = _sigma_derivatives(lam, k)
        s, g, h2 = e[k], d1[k], d2[k]
        a = 1.0 / k
        return a * s ** (a - 1.0) * h2 + a * (a - 1.0) * s ** (a - 2.0) * np.outer(g, g)
    if family.kind == "log-sigma":
        d1, d2 = _sigma_derivatives(lam, k)
        s, g, h2 = e[k], d1[k], d2[k]
        return h2 / s - np.outer(g, g) / s**2
    if family.kind == "sigma-quotient":
        m = k - family.l
        q, dq, hq = quotient_parts(k, family.l)
        a = 1.0 / m
        return a * q ** (a - 1.0) * hq + a * (a - 1.0) * q ** (a - 2.0) * np.outer(dq, dq)
    # quotient-log
    if k + 1 <= n:
        _, _, hess = quotient_parts(k + 1, k)
    else:
        # sigma_{n+1} vanishes identically: the quotient term is zero
        hess = np.zeros((n, n))
    d1, d2 = _sigma_derivatives(lam, k)
    for j, beta in enumerate(family.betas, start=1):
        if beta:
            s, g, h2 = e[j], d1[j], d2[j]
            hess = hess + beta * (h2 / s - np.outer(g, g) / s**2)
    return hess


def check_structure(family: FuncFamily, samples: int, seed: int) -> StructureReport:
    """Verify ellipticity, concavity and the chord inequality on sampled points.

    Concavity is certified by negative semidefiniteness of the analytic
    Hessian up to 1e-7 * (1 + |H|); the chord inequality
    sum_i f_i(lam)(mu_i - lam_i) >= f(mu) - f(lam) is tested pairwise.  The
    central-difference gradient cross-check runs on the well-conditioned
    subsample, where the pinned step 1e-5 resolves the curvature.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    pts = sample_cone(family, samples, seed)
    vals = eval_f(family, pts)
    grads = grad_f(family, pts)
    min_grad = float(np.min(grads))

    max_eig, scale = -np.inf, 0.0
    for lam in pts:
        hess = hess_f(family, lam)
        scale = max(scale, float(np.linalg.norm(hess)))
        max_eig = max(max_eig, float(np.linalg.eigvalsh(hess)[-1]))

    # chord inequality over cyclically shifted pairs
    mu = np.roll(pts, 1, axis=0)
    mu_vals = np.roll(vals, 1)
    lhs = np.sum(grads * (mu - pts), axis=-1)
    chord_viol = float(np.max((mu_vals - vals) - lhs, initial=-np.inf))

    # analytic gradient vs central finite differences, conditioned subsample
    good = np.flatnonzero(well_conditioned(family, pts))
    if good.size == 0:
        good = np.array([int(np.argmax(cone_margin(pts, family.k)))])
    worst_fd = 0.0
    h = 1e-5
    for idx in good[:25]:
        lam, g = pts[idx], grads[idx]
        fd = np.empty(family.n)
        for i in range(family.n):
            ei = np.zeros(family.n)
            ei[i] = h * (1.0 + abs(lam[i]))
            fd[i] = (eval_f(family, lam + ei) - eval_f(family, lam - ei)) / (2 * ei[i])
        worst_fd = max(
            worst_fd, float(np.max(np.abs(fd - g) / (1.0 + np.abs(g))))
        )

    return StructureReport(
        family=family,
        samples=samples,
        min_gradient=min_grad,
        max_hessian_eigenvalue=max_eig,
        hessian_scale=scale,
        worst_chord_violation=max(chord_viol, 0.0),
        worst_fd_gradient_mismatch=worst_fd,
    )


@functools.lru_cache(maxsize=64)
def _probe_draw(family: FuncFamily, probes: int, seed: int) -> np.ndarray:
    """`sample_cone(family, probes, seed)`, drawn once and returned read-only."""
    mus = sample_cone(family, probes, seed)
    mus.flags.writeable = False
    return mus


def gamma_g_criteria(
    family: FuncFamily,
    lam,
    probes: int = 32,
    seed: int = 0,
) -> tuple[bool, bool, bool]:
    """The three equivalent ray-boundedness criteria, evaluated numerically.

    (1) f(t*lam) bounded below on the ladder;
    (2) limsup_t f(t*lam)/t >= 0, the limsup approximated on the ladder tail;
    (3) sum_i f_i(mu) lam_i >= 0 for sampled mu in Gamma, where the probe set
        contains quasi-random cone points at several scales and far-out points
        of the tested ray itself (where the pairing degenerates first).
    """
    lam = lambda_tuple(lam)
    vals = np.array([eval_f(family, t * lam) for t in LADDER])
    scale = 1.0 + abs(float(vals[0]))
    crit1 = bool(np.all(np.diff(vals[len(vals) // 2 :]) >= -1e-9 * scale))
    slopes = vals[-4:] / LADDER[-4:]
    crit2 = bool(np.max(slopes) >= -1e-7 * scale)
    mus = [_probe_draw(family, probes, seed)]
    for t_big in (2.0 ** 8, 2.0 ** 14, 2.0 ** 20):
        mus.append(t_big * mus[0][: max(probes // 4, 1)])
        mus.append(t_big * lam[None, :])
    mus = np.vstack(mus)
    pairings = np.sum(grad_f(family, mus) * lam, axis=-1)
    crit3 = bool(np.min(pairings) >= -1e-9 * (1.0 + np.max(np.abs(pairings))))
    return crit1, crit2, crit3


class _Row(NamedTuple):
    d: tuple[float, ...]
    a: tuple[complex, ...]
    corner: float
    n: int


def _row0(b: BorderedStack) -> _Row:
    """Row 0 of a stack in Python scalars."""
    return _Row(tuple(map(float, b.d[0])), tuple(map(complex, b.a[0])),
                float(b.corner[0]), b.n)


def growth_threshold(b: BorderedStack, eps: float) -> float:
    """Quadratic growth threshold for the corner at localization width eps.

    (2n-3)/eps * sum|a_i|^2 + (n-1) * sum|d_i| + (n-2) eps / (2n-3);
    for n = 2 this reduces to |a_1|^2/eps + |d_1|.
    """
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    b = _row0(b)
    n = b.n
    a2 = sum(abs(x) ** 2 for x in b.a)
    d1 = sum(abs(x) for x in b.d)
    return (2 * n - 3) / eps * a2 + (n - 1) * d1 + (n - 2) * eps / (2 * n - 3)


def embed(b: BorderedStack) -> np.ndarray:
    """The full n x n Hermitian matrix."""
    b = _row0(b)
    n = b.n
    m = np.zeros((n, n), dtype=complex)
    m.flat[:: n + 1] = b.d + (b.corner,)
    m[:-1, -1] = b.a
    m[-1, :-1] = [x.conjugate() for x in b.a]
    return m


def localize(b: BorderedStack, eps: float, slack_scale: float = 1e-10):
    """The localization verdict of one bordered matrix, from the eigenvalues of
    the scalar Jacobi sweep (eig_hermitian on one matrix)."""
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    lam = eig_hermitian(embed(b)).tolist()
    b = _row0(b)
    slack = slack_scale * (1.0 + math.hypot(*lam))
    n = b.n
    offsets = [abs(x - di) for x, di in zip(lam[: n - 1], sorted(b.d))]
    top = lam[-1]
    hi_lim = b.corner + (n - 1) * eps
    ok = (all(x < eps + slack for x in offsets)
          and b.corner - slack <= top < hi_lim + slack)
    return LocalizationVerdict(ok, max(offsets), abs(top - b.corner) <= slack,
                               tuple(lam))


def random_instance(rng: np.random.Generator, n: int) -> BorderedStack:
    """Random bordered instance: d uniform in [-1, 1], a uniform in the unit disk."""
    d = rng.uniform(-1.0, 1.0, n - 1)
    r = np.sqrt(rng.uniform(0.0, 1.0, n - 1))
    th = rng.uniform(0.0, 2.0 * np.pi, n - 1)
    a = r * np.exp(1j * th)
    return bordered(d, a, 0.0)  # corner set by the caller


def battery_instances(count: int, seed: int):
    """Deterministic battery: cycles n in 2..6, eps in {0.1, 0.3, 1.0} and
    corner multiplier in {1, 1.5, 10}; yields (instance, eps, multiplier)
    with the corner already set to multiplier * threshold.
    """
    rng = np.random.default_rng(seed)
    eps_cycle = (0.1, 0.3, 1.0)
    mult_cycle = (1.0, 1.5, 10.0)
    for i in range(count):
        n = 2 + i % 5
        eps = eps_cycle[(i // 5) % 3]
        mult = mult_cycle[(i // 15) % 3]
        b = random_instance(rng, n)
        corner = mult * growth_threshold(b, eps)
        yield replace(b, corner=np.array([corner])), eps, mult
