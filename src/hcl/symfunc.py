"""Symmetric function families f on Garding cones.

Implements the five operator families

    log-det          f = sum_i log(lambda_i)                    on Gamma_n
    sigma-root(k)    f = sigma_k^(1/k)                          on Gamma_k
    log-sigma(k)     f = log sigma_k                            on Gamma_k
    sigma-quotient   f = (sigma_k / sigma_l)^(1/(k-l)), l < k   on Gamma_k
    quotient-log     f = sigma_{k+1}/sigma_k
                         + sum_{j<=k} beta_j log sigma_j        on Gamma_k

together with cone membership, analytic gradients, structural-condition
verifiers (ellipticity, concavity, the chord inequality) and membership in the
sub-cone where f stays bounded below along outward rays.

All evaluators, `hess_f` included, are vectorized over leading axes: `lam`
may have shape (..., n), and one point gives its row of a stack bit for bit.
Everything is pure and deterministic given (seed, samples).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import AdmissibilityError, DomainError

__all__ = [
    "FuncFamily",
    "ConeVerdict",
    "StructureReport",
    "lambda_tuple",
    "sigma_k",
    "elementary_all",
    "in_cone",
    "cone_margin",
    "eval_f",
    "grad_f",
    "hess_f",
    "boundary_sup",
    "check_structure",
    "well_conditioned",
    "in_gamma_g",
    "gamma_g_criteria",
    "sample_cone",
]

LADDER = 2.0 ** np.arange(21)  # the geometric ray ladder 1, 2, 4, ..., 2^20
LADDER.flags.writeable = False
# Largest dimension n of a family and of a grid (2n axes): the stacked
# Hessian table holds (n + 1) n^2 values per point.
DIMENSION_CAP = 8


def lambda_tuple(values) -> np.ndarray:
    """Validate an eigenvalue tuple: length >= 2, all entries finite."""
    lam = np.asarray(values, dtype=float)
    if lam.shape[-1] < 2:
        raise DomainError("eigenvalue tuple needs at least 2 entries")
    if not np.all(np.isfinite(lam)):
        raise DomainError("eigenvalue tuple contains non-finite entries")
    return lam


def elementary_all(lam) -> np.ndarray:
    """All elementary symmetric values sigma_0..sigma_n of lam, shape (..., n+1).

    Uses the coefficient recurrence of prod_i (x + lambda_i); no subset
    enumeration, stable for moderate n.  The recurrence runs on the contiguous
    rows of an (n+1, ...) array, and the result is a view of it.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    e = np.zeros((n + 1,) + lam.shape[:-1])
    e[0] = 1.0
    for i in range(n):
        e[1:] = e[1:] + lam[..., i] * e[:-1]
    return e.transpose(*range(1, e.ndim), 0)  # np.moveaxis costs 3 us of a 19 us eval_f


def sigma_k(lam, k: int) -> np.ndarray | float:
    """k-th elementary symmetric polynomial, sigma_0 := 1."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if not 0 <= k <= n:
        raise DomainError(f"sigma_k needs 0 <= k <= {n}, got k={k}")
    out = elementary_all(lam)[..., k]
    return float(out) if out.ndim == 0 else out


def _sigma_all_excluding(lam) -> np.ndarray:
    """sigma_j(lam with entry i removed) for all i, j; shape (..., n, n)."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    out = np.zeros(lam.shape[:-1] + (n, n))
    idx = np.arange(n)
    for i in range(n):
        out[..., i, :] = elementary_all(lam[..., idx != i])
    return out


def in_cone(lam, k: int):
    """True iff sigma_j(lam) > 0 for all 1 <= j <= k (Gamma_k membership)."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if not 1 <= k <= n:
        raise DomainError(f"cone index needs 1 <= k <= {n}, got {k}")
    e = elementary_all(lam)
    ok = np.all(e[..., 1 : k + 1] > 0.0, axis=-1)
    return bool(ok) if ok.ndim == 0 else ok


def cone_margin(lam, k: int):
    """min over the defining sigma_j values, a signed distance proxy."""
    e = elementary_all(np.asarray(lam, dtype=float))
    m = np.min(e[..., 1 : k + 1], axis=-1)
    return float(m) if m.ndim == 0 else m


@dataclass(frozen=True)
class FuncFamily:
    """Tagged specification of a pair (f, Gamma).

    `kind` selects the formula, `n` the ambient dimension and `k` the index of
    the natural cone Gamma_k (k = n for log-det).  `l` is the denominator
    degree of the quotient family; `betas` the log weights of the
    quotient-log family.
    """

    kind: str
    n: int
    k: int
    l: int = 0
    betas: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if not 2 <= self.n <= DIMENSION_CAP:
            raise DomainError(f"dimension n must be between 2 and {DIMENSION_CAP}")
        if not 1 <= self.k <= self.n:
            raise DomainError("cone index k must satisfy 1 <= k <= n")
        if self.kind == "log-det" and self.k != self.n:
            raise DomainError("log-det lives on Gamma_n")
        if self.kind == "sigma-quotient" and not 0 <= self.l < self.k:
            raise DomainError("sigma-quotient needs 0 <= l < k")
        if self.kind == "quotient-log":
            b = np.asarray(self.betas, dtype=float)
            if b.shape != (self.k,) or np.any(b < 0) or b.sum() <= 0:
                raise DomainError(
                    "quotient-log needs k weights beta_j >= 0 with positive sum"
                )

    @classmethod
    def log_det(cls, n: int) -> "FuncFamily":
        return cls("log-det", n, n)

    @classmethod
    def sigma_root(cls, k: int, n: int) -> "FuncFamily":
        return cls("sigma-root", n, k)

    @classmethod
    def log_sigma(cls, k: int, n: int) -> "FuncFamily":
        return cls("log-sigma", n, k)

    @classmethod
    def sigma_quotient(cls, k: int, l: int, n: int) -> "FuncFamily":
        return cls("sigma-quotient", n, k, l=l)

    @classmethod
    def quotient_log(cls, k: int, betas, n: int) -> "FuncFamily":
        return cls("quotient-log", n, k, betas=tuple(float(b) for b in betas))

    def label(self) -> str:
        if self.kind == "sigma-root":
            return f"sigma_{self.k}^(1/{self.k})[n={self.n}]"
        if self.kind == "log-sigma":
            return f"log sigma_{self.k}[n={self.n}]"
        if self.kind == "sigma-quotient":
            return f"(sigma_{self.k}/sigma_{self.l})^(1/{self.k - self.l})[n={self.n}]"
        if self.kind == "quotient-log":
            return f"sigma_{self.k + 1}/sigma_{self.k}+sum beta_j log sigma_j[n={self.n}]"
        return f"log-det[n={self.n}]"


@dataclass(frozen=True)
class ConeVerdict:
    """Membership in the ray-bounded sub-cone of a point of the cone."""

    in_gamma_g: bool
    margin: float
    indeterminate: bool = False


def _admissible_sigmas(family: FuncFamily, lam: np.ndarray) -> np.ndarray:
    """elementary_all(lam), after checking that every row lies in Gamma_k."""
    e = elementary_all(lam)
    if not np.all(e[..., 1 : family.k + 1] > 0.0):
        raise AdmissibilityError(
            f"eigenvalues outside Gamma_{family.k} for {family.label()}"
        )
    return e


def eval_f(family: FuncFamily, lam) -> np.ndarray | float:
    """f(lambda) for the selected family; raises outside the cone."""
    lam = lambda_tuple(lam)
    if lam.shape[-1] != family.n:
        raise DomainError("eigenvalue tuple length does not match family dimension")
    e = _admissible_sigmas(family, lam)
    if family.kind == "log-det":
        val = np.sum(np.log(lam), axis=-1)
    else:
        val = f_of_sigma(family, [e[..., m] for m in range(family.n + 1)])
    return float(val) if np.ndim(val) == 0 else val


def f_of_sigma(family: FuncFamily, s) -> np.ndarray:
    """f at s[m] = sigma_m, m = 0..n (rows of any shape, s[0] = 1), with no
    cone test; log-det is log sigma_n, sigma-root the quotient with l = 0."""
    n, k, l = family.n, family.k, family.l
    if family.kind in ("log-det", "log-sigma"):
        return np.log(s[n if family.kind == "log-det" else k])
    if family.kind != "quotient-log":
        # an array, also for one point: `**` on a numpy scalar calls libm pow,
        # on an array sqrt or numpy's own pow, and one point must match a stack
        return np.asarray(s[k] / s[l] if l else s[k]) ** (1.0 / (k - l))
    val = (s[k + 1] if k < n else 0.0) / s[k]  # quotient-log
    for j, beta in enumerate(family.betas, start=1):
        if beta:
            val = val + beta * np.log(s[j])
    return val


def df_dsigma(family: FuncFamily, s) -> dict:
    """{m: df/dsigma_m} at s as in `f_of_sigma`, for the m f depends on."""
    n, k, l = family.n, family.k, family.l
    if family.kind in ("log-det", "log-sigma"):
        m = n if family.kind == "log-det" else k
        return {m: 1.0 / s[m]}
    if family.kind != "quotient-log":  # (sigma_k / sigma_l)^(1/(k-l))
        dk = (s[k] / s[l]) ** (1.0 / (k - l) - 1.0) / ((k - l) * s[l])
        return {k: dk, l: -dk * s[k] / s[l]} if l else {k: dk}
    out = {j: beta / s[j] for j, beta in enumerate(family.betas, start=1) if beta}
    if k < n:  # sigma_{n+1} vanishes identically
        out[k] = out.get(k, 0.0) - s[k + 1] / s[k] ** 2
        out[k + 1] = 1.0 / s[k]
    return out


def grad_f(family: FuncFamily, lam) -> np.ndarray:
    """Gradient f_i = sum_m (df/dsigma_m) sigma_{m-1}(lam | i), positive on the
    cone (ellipticity); log-det takes 1 / lam, which cannot overflow."""
    lam = lambda_tuple(lam)
    e = _admissible_sigmas(family, lam)
    if family.kind == "log-det":
        return 1.0 / lam
    ex = _sigma_all_excluding(lam)  # ex[..., i, j] = sigma_j(lam | i)
    s = [e[..., m : m + 1] for m in range(family.n + 1)]
    return sum(dm * ex[..., m - 1] for m, dm in df_dsigma(family, s).items())


def _sigma_derivatives(lam: np.ndarray, e: np.ndarray) -> list:
    """(sigma_m, gradient, Hessian) for m = 0..n, shaped (..., 1, 1), (..., 1, n)
    and (..., n, n), from lam and e = elementary_all(lam): the gradient holds
    sigma_{m-1}(lam | i), the Hessian sigma_{m-2}(lam | i, j) for i != j."""
    n = lam.shape[-1]
    d1 = np.zeros((n + 1,) + lam.shape[:-1] + (1, n))
    d1[1:, ..., 0, :] = np.moveaxis(_sigma_all_excluding(lam), -1, 0)
    d2 = np.zeros((n + 1,) + lam.shape + (n,))
    i, j = np.triu_indices(n, 1)
    rest = np.array([np.delete(np.arange(n), pair) for pair in zip(i, j)], dtype=int)
    pairs = elementary_all(lam[..., rest])  # [..., p, m] = sigma_m(lam | i[p], j[p])
    d2[2:, ..., i, j] = d2[2:, ..., j, i] = np.moveaxis(pairs, -1, 0)
    return list(zip(np.moveaxis(e, -1, 0)[..., None, None], d1, d2))


def _outer(g, h):
    return np.swapaxes(g, -1, -2) * h


def _log_hess(s, g, h):  # of log s, from the (value, gradient, Hessian) parts
    return h / s - _outer(g, g) / np.float_power(s, 2)


def _power_hess(a, s, g, h):  # of s**a
    return (a * np.float_power(s, a - 1.0) * h
            + a * (a - 1.0) * np.float_power(s, a - 2.0) * _outer(g, g))


def _quotient(num, den):  # parts of num / den
    (sn, gn, hn), (sd, gd, hd) = num, den
    sd2 = np.float_power(sd, 2)
    hq = (hn / sd - (_outer(gn, gd) + _outer(gd, gn)) / sd2 - sn * hd / sd2
          + 2.0 * sn * _outer(gd, gd) / np.float_power(sd, 3))
    return sn / sd, gn / sd - sn * gd / sd2, hq


def hess_f(family: FuncFamily, lam) -> np.ndarray:
    """Hessians of f, shape (..., n, n) for lam of shape (..., n), analytic by
    the chain rule through the elementary symmetric polynomials.  Powers are
    np.float_power, the libm pow of `**` on a numpy scalar (on an array, `**`
    squares by multiplication), so rows match one-point formulas bit for bit."""
    lam = lambda_tuple(lam)
    n, k, l = family.n, family.k, family.l
    e = _admissible_sigmas(family, lam)
    if family.kind == "log-det":
        hess = np.zeros(lam.shape + (n,))
        hess[..., range(n), range(n)] = -1.0 / lam**2
        return hess
    parts = _sigma_derivatives(lam, e)
    if family.kind == "sigma-root":
        return _power_hess(1.0 / k, *parts[k])
    if family.kind == "log-sigma":
        return _log_hess(*parts[k])
    if family.kind == "sigma-quotient":
        return _power_hess(1.0 / (k - l), *_quotient(parts[k], parts[l]))
    # quotient-log; sigma_{n+1} vanishes identically, and with it the quotient
    hess = _quotient(parts[k + 1], parts[k])[2] if k < n else np.zeros(lam.shape + (n,))
    for j, beta in enumerate(family.betas, start=1):
        if beta:
            hess = hess + beta * _log_hess(*parts[j])
    return hess


def boundary_sup(family: FuncFamily) -> float:
    """sup of f approaching the cone boundary.

    -inf for the families carrying a log term (any sigma_j -> 0+ sends the
    value to -inf; faces where several sigma_j vanish at different rates are
    not classified more sharply), 0 for the homogeneous sigma families.
    """
    if family.kind in ("log-det", "log-sigma", "quotient-log"):
        return -np.inf
    return 0.0


def _grow_rows(hit, t: np.ndarray, rows: np.ndarray, tries: int) -> np.ndarray:
    """Row-wise doubling: scale t[rows] by 2 until hit(rows, t[rows])
    holds, at most `tries` probes per row and one call per round on the live
    rows.  Updates t in place; returns the mask of the rows that hit."""
    found = np.zeros(t.shape, dtype=bool)
    for _ in range(tries):
        if rows.size == 0:
            break
        ok = hit(rows, t[rows])
        found[rows[ok]] = True
        rows = rows[~ok]
        t[rows] *= 2.0
    return found


def _bisect_rows(probe, lo: np.ndarray, hi: np.ndarray, rows: np.ndarray,
                 steps: int, settled=None) -> None:
    """Row-wise bisection of [lo, hi] for `rows`, one probe(rows, mid) call
    per step on the live rows: true moves hi to mid, false moves lo.  Rows
    where settled(rows) holds after a step leave.  Updates lo, hi in place."""
    for _ in range(steps):
        if rows.size == 0:
            break
        mid = 0.5 * (lo[rows] + hi[rows])
        up = probe(rows, mid)
        hi[rows[up]], lo[rows[~up]] = mid[up], mid[~up]
        if settled is not None:
            rows = rows[~settled(rows)]


def sample_cone(family: FuncFamily, count: int, seed: int) -> np.ndarray:
    """Quasi-random points of Gamma, shape (count, n).

    Draws positive-orthant points from exponentials, then shears each toward
    the cone boundary by subtracting a random multiple of the all-ones vector
    while membership holds.  Deterministic given the seed.
    """
    rng = np.random.default_rng(seed)
    n, k = family.n, family.k
    lam, shear = np.empty((count, n)), np.empty(count)
    for m in range(count):
        lam[m], shear[m] = rng.exponential(1.0, n), rng.uniform(0.0, 0.95)

    def outside(rows, t):
        return ~in_cone(lam[rows] - t[:, None], k)

    # largest shift of -1 keeping each point in the cone: doubling over
    # 1, 2, ..., 2^39 (below 1e12), then 60 bisection steps
    hi, rows = np.ones(count), np.arange(count)
    _grow_rows(outside, hi, rows, 40)
    lo = np.where(hi > 1.0, 0.5 * hi, 0.0)
    _bisect_rows(outside, lo, hi, rows, 60)
    return lam - (shear * lo)[:, None]


@dataclass(frozen=True)
class StructureReport:
    """Worst violations of the structural conditions over a sample of Gamma."""

    family: FuncFamily
    samples: int
    min_gradient: float
    max_hessian_eigenvalue: float
    hessian_scale: float
    worst_chord_violation: float
    worst_fd_gradient_mismatch: float

    @property
    def gradient_positive(self) -> bool:
        return self.min_gradient > 0.0

    @property
    def concave(self) -> bool:
        return self.max_hessian_eigenvalue <= 1e-7 * (1.0 + self.hessian_scale)

    @property
    def chord_ok(self) -> bool:
        return self.worst_chord_violation <= 1e-8

    @property
    def violations(self) -> int:
        return int(not self.gradient_positive) + int(not self.concave) + int(
            not self.chord_ok
        )


def well_conditioned(family: FuncFamily, pts: np.ndarray) -> np.ndarray:
    """Mask of points far enough from the cone boundary (margin >= 0.1, entries
    at most 10) for finite-difference cross-checks at the pinned steps to stay
    within their tolerances."""
    margins = cone_margin(pts, family.k)
    return (margins >= 0.1) & (np.max(np.abs(pts), axis=-1) <= 10.0)


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

    # np.linalg.norm of one matrix is the square root of the BLAS dot of its
    # entries, as a row times a column in matmul; fmax skips NaN as max() did
    hess = hess_f(family, pts)
    flat = hess.reshape(samples, 1, -1)
    scale = float(np.fmax.reduce(np.sqrt(flat @ np.swapaxes(flat, 1, 2)).ravel(),
                                 initial=0.0))
    max_eig = float(np.fmax.reduce(np.linalg.eigvalsh(hess)[:, -1], initial=-np.inf))

    # chord inequality over cyclically shifted pairs
    mu = np.roll(pts, 1, axis=0)
    mu_vals = np.roll(vals, 1)
    lhs = np.sum(grads * (mu - pts), axis=-1)
    chord_viol = float(np.max((mu_vals - vals) - lhs, initial=-np.inf))

    # analytic gradient vs central finite differences, conditioned subsample
    good = np.flatnonzero(well_conditioned(family, pts))
    if good.size == 0:
        good = np.array([int(np.argmax(cone_margin(pts, family.k)))])
    lam, g = pts[good[:25]], grads[good[:25]]
    step = 1e-5 * (1.0 + np.abs(lam))
    shift = step[:, None, :] * np.eye(family.n)  # [p, i] = step_i e_i at point p
    fd = (eval_f(family, lam[:, None] + shift)
          - eval_f(family, lam[:, None] - shift)) / (2 * step)
    worst_fd = max(0.0, float(np.max(np.abs(fd - g) / (1.0 + np.abs(g)))))

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
def _probe_set(family: FuncFamily) -> np.ndarray:
    """The 32 `sample_cone` probes of `gamma_g_criteria` (seed 0), drawn once
    per family and returned read-only."""
    mus = sample_cone(family, 32, 0)
    mus.flags.writeable = False
    return mus


def _ray_criteria(family: FuncFamily, lam: np.ndarray):
    """(ladder, f on the ladder, scale, crit1, crit3) of `gamma_g_criteria`,
    the whole `LADDER` in one stacked `eval_f` call."""
    vals = eval_f(family, LADDER[:, None] * lam)
    scale = 1.0 + abs(float(vals[0]))
    crit1 = bool(np.all(np.diff(vals[len(vals) // 2 :]) >= -1e-9 * scale))
    mus = [_probe_set(family)]
    for t_big in (2.0 ** 8, 2.0 ** 14, 2.0 ** 20):
        mus.append(t_big * mus[0][:8])
        mus.append(t_big * lam[None, :])
    mus = np.vstack(mus)
    pairings = np.sum(grad_f(family, mus) * lam, axis=-1)
    crit3 = bool(np.min(pairings) >= -1e-9 * (1.0 + np.max(np.abs(pairings))))
    return LADDER, vals, scale, crit1, crit3


def gamma_g_criteria(family: FuncFamily, lam) -> tuple[bool, bool, bool]:
    """The three equivalent ray-boundedness criteria, evaluated numerically.

    (1) f(t*lam) bounded below on the ladder;
    (2) limsup_t f(t*lam)/t >= 0, the limsup approximated on the ladder tail;
    (3) sum_i f_i(mu) lam_i >= 0 for sampled mu in Gamma, where the probe set
        contains quasi-random cone points at several scales and far-out points
        of the tested ray itself (where the pairing degenerates first).
    """
    ladder, vals, scale, crit1, crit3 = _ray_criteria(family, lambda_tuple(lam))
    crit2 = bool(np.max(vals[-4:] / ladder[-4:]) >= -1e-7 * scale)
    return crit1, crit2, crit3


def in_gamma_g(family: FuncFamily, lam) -> ConeVerdict:
    """Membership in the sub-cone where f stays bounded below along the ray t*lam.

    Analytic where possible: always true for the log-det, sigma-root,
    log-sigma and sigma-quotient families (f(t*lam) -> +inf on their cones);
    for quotient-log true iff sigma_{k+1}(lam) >= 0, since the quotient term
    scales linearly in t and dominates the logarithms.  The numeric ladder and
    the pairing criterion cross-check the verdict; when both disagree with it,
    the verdict is flagged indeterminate.
    """
    lam = lambda_tuple(lam)
    if not in_cone(lam, family.k):
        raise AdmissibilityError("point outside Gamma")
    margin = cone_margin(lam, family.k)

    if family.kind == "quotient-log":
        if family.k + 1 <= family.n:
            analytic = bool(sigma_k(lam, family.k + 1) >= 0.0)
        else:
            analytic = True  # sigma_{n+1} vanishes identically
    else:
        analytic = True

    _, _, _, crit1, crit3 = _ray_criteria(family, lam)
    return ConeVerdict(
        in_gamma_g=analytic,
        margin=float(margin),
        indeterminate=crit1 == crit3 != analytic,
    )

