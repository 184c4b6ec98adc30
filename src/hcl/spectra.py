"""Hermitian eigenvalue machinery and bordered-matrix localization.

The centerpiece is the quantitative localization statement for the Hermitian
matrix with fixed diagonal block d_1..d_{n-1}, fixed border a_1..a_{n-1} and a
variable real corner: once the corner clears the quadratic growth threshold

    (2n-3)/eps * sum|a_i|^2 + (n-1) * sum|d_i| + (n-2) eps / (2n-3),

each of the n-1 non-top eigenvalues lies within eps of a diagonal entry
(after a proper permutation) and the top eigenvalue lies in
[corner, corner + (n-1) eps).  Bordered matrices of one size come as a
`BorderedStack` with one row per instance; one instance is a one-row stack.
A cyclic complex Jacobi eigensolver serves as the brute-force oracle for every
conclusion, together with the characteristic polynomial identity and the
interval census from the deformation proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericError, PreconditionError

__all__ = [
    "hermitize",
    "eig_hermitian",
    "closed_form_2x2",
    "BorderedStack",
    "growth_threshold",
    "LocalizationVerdict",
    "localize",
    "localization_verdict",
    "char_poly_terms",
    "char_poly_residual",
    "CensusReport",
    "interval_census",
    "random_instance",
    "battery",
]

_OFF_TOL = 1e-12
_MAX_SWEEPS = 100
SLACK_SCALE = 1e-10  # localization slack per unit of 1 + |A|_F


def hermitize(a) -> np.ndarray:
    """Symmetrize to exact conjugate symmetry: (A + A^H)/2, per matrix of a
    (B, n, n) stack; A/2 + A^H/2 at the entries where A + A^H overflows."""
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise DomainError("expected a square matrix or a stack of them")
    ah = np.conj(np.swapaxes(a, -1, -2))
    with np.errstate(over="ignore", invalid="ignore"):
        h = 0.5 * (a + ah)
    over = np.isinf(h)  # an infinite input stays infinite
    if over.any():
        h[over] = 0.5 * a[over] + 0.5 * ah[over]
    return h


def _not_converged(sweeps: int, off: float, target: float) -> NumericError:
    return NumericError(
        f"Jacobi did not converge after {sweeps} sweeps "
        f"(off-diagonal {off:.3e} vs target {target:.3e})"
    )


def _check_norm(finite: bool) -> None:
    """Raise unless the Frobenius norm is finite: with an inf target no sweep
    would run, and the invariants would compare NaN."""
    if not finite:
        raise DomainError("matrix has non-finite entries or an overflowing norm")


def _check_invariants(lost_trace: bool, lost_norm: bool) -> None:
    """Raise if the rotations, which preserve both, lost the trace or the
    Frobenius norm beyond 1e-10 (relative to 1 + |A|_F and to |A|_F)."""
    if lost_trace:
        raise NumericError("Jacobi lost the trace beyond tolerance")
    if lost_norm:
        raise NumericError("Jacobi lost the Frobenius norm beyond tolerance")


def _exponent(a: np.ndarray):
    """Per matrix of a (..., n, n), the e with all real and imaginary parts
    below 2^e: a norm that overflows on finite entries rotates a * 2^-e."""
    return np.frexp(np.maximum(np.abs(a.real), np.abs(a.imag)).max(axis=(-2, -1)))[1]


def _scaled_back(d: np.ndarray, e) -> np.ndarray:
    with np.errstate(over="ignore"):  # a spectrum past the float maximum: inf
        d = np.ldexp(d, e)
    _check_norm(bool(np.all(np.isfinite(d))))
    return d


def _off_norm(m: list) -> float:
    return math.hypot(*[abs(x) for i, row in enumerate(m)
                        for j, x in enumerate(row) if i != j])


def _jacobi(a) -> list:
    """Cyclic complex Jacobi sweeps on one matrix, in Python scalars; returns
    the diagonal.  The reference path for the stacked sweep."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("expected a square matrix")
    m = a.tolist()
    n = len(m)
    # one pass, in place: hermitize to (A + A^H)/2 (exactly conjugate-symmetric,
    # with a real diagonal) and sum the trace and the squares on and off the
    # diagonal; entry (j, i) below the diagonal is read before it is written
    trace0 = diag_sq = off_sq = 0.0
    for i, row in enumerate(m):
        x = row[i].real
        row[i] = complex(x)
        trace0 += x
        diag_sq += x * x
        for j in range(i + 1, n):
            x = 0.5 * (row[j] + m[j][i].conjugate())
            row[j] = x
            m[j][i] = x.conjugate()
            off_sq += 2.0 * (x.real * x.real + x.imag * x.imag)
    norm = math.sqrt(diag_sq + off_sq)
    if norm == math.inf and np.all(np.isfinite(a)):
        e = _exponent(a)
        return list(_scaled_back(_jacobi(a * 2.0 ** -e), e))
    _check_norm(math.isfinite(norm))
    off = math.sqrt(off_sq)
    target = _OFF_TOL * norm
    # entries this small cannot block convergence; rotating on them would
    # overflow the phase for subnormal magnitudes
    skip = max(1e-18 * norm, 5e-308)
    sweeps = 0
    while off > target:
        if sweeps == _MAX_SWEEPS:
            raise _not_converged(sweeps, off, target)
        sweeps += 1
        for p in range(n - 1):
            mp = m[p]
            for q in range(p + 1, n):
                mq = m[q]
                g = mp[q]
                ag = abs(g)
                if ag <= skip:
                    continue
                w = g / ag
                tau = (mq[q].real - mp[p].real) / (2.0 * ag)
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                # A <- U^H A U with U = [[c, s], [-s conj(w), c conj(w)]] on (p, q)
                u10, u11 = -s * w.conjugate(), c * w.conjugate()
                for row in m:
                    x, y = row[p], row[q]
                    row[p] = x * c + y * u10
                    row[q] = x * s + y * u11
                h01, h11 = -s * w, c * w
                for k in range(n):
                    x, y = mp[k], mq[k]
                    mp[k] = c * x + h01 * y
                    mq[k] = s * x + h11 * y
                mp[q] = mq[p] = 0j
        off = _off_norm(m)
    d = [m[i][i].real for i in range(n)]
    _check_invariants(abs(sum(d) - trace0) > 1e-10 * (1.0 + norm),
                      abs(math.sqrt(sum([x * x for x in d])) - norm) > 1e-10 * norm)
    return d


def _jacobi_stack(a) -> np.ndarray:
    """Cyclic complex Jacobi over a (B, n, n) stack; returns the (B, n) diagonals.

    Every matrix of the stack rotates pair (p, q) at once with the rotation of
    the single-matrix sweep; a matrix whose off-diagonal norm has met the
    target leaves the live set and is not rotated again.
    """
    a = hermitize(a)
    n = a.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(a, axis=(1, 2))
    big = np.isinf(norm) & np.all(np.isfinite(a), axis=(1, 2))
    if big.any():
        e = np.where(big, _exponent(a), 0)
        a[big] *= np.ldexp(1.0, -e[big])[:, None, None]
        return _scaled_back(_jacobi_stack(a), e[:, None])
    _check_norm(bool(np.all(np.isfinite(norm))))
    trace0 = np.trace(a, axis1=1, axis2=2).real
    target = _OFF_TOL * norm
    skip = np.maximum(1e-18 * norm, 5e-308)
    offdiag = ~np.eye(n, dtype=bool)

    def off_norms(x):
        # directly, not as |A|^2 - |diag|^2: that difference cancels and never
        # meets the target
        return np.sqrt(np.sum(np.abs(x[:, offdiag]) ** 2, axis=1))

    live = np.arange(len(a))
    off = off_norms(a)
    sweeps = 0
    while True:
        keep = off > target[live]
        live, off = live[keep], off[keep]
        if not live.size:
            break
        if sweeps == _MAX_SWEEPS:
            raise _not_converged(sweeps, float(off[0]), float(target[live[0]]))
        sweeps += 1
        sub = a[live]
        _sweep_stack(sub, skip[live])
        a[live] = sub
        off = off_norms(sub)
    d = np.diagonal(a, axis1=1, axis2=2).real
    _check_invariants(
        bool(np.any(np.abs(d.sum(axis=1) - trace0) > 1e-10 * (1.0 + norm))),
        bool(np.any(np.abs(np.linalg.norm(d, axis=1) - norm) > 1e-10 * norm)),
    )
    return d


def _sweep_stack(a: np.ndarray, skip: np.ndarray) -> None:
    """One cyclic sweep over every (p, q) pair of every matrix of a, in place;
    a matrix whose |a_pq| is within its skip bound gets the identity."""
    n = a.shape[-1]
    for p in range(n - 1):
        for q in range(p + 1, n):
            g = a[:, p, q]
            ag = np.abs(g)
            rot = ag > skip
            if not rot.any():
                continue
            ag = np.where(rot, ag, 1.0)
            w = np.where(rot, g / ag, 1.0)
            tau = (a[:, q, q].real - a[:, p, p].real) / (2.0 * ag)
            t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
            c = np.where(rot, 1.0 / np.hypot(1.0, t), 1.0)
            s = np.where(rot, t * c, 0.0)
            cc, ss = c[:, None], s[:, None]
            wc = np.conj(w)
            x, y = a[:, :, p].copy(), a[:, :, q].copy()
            a[:, :, p] = x * cc + y * (-s * wc)[:, None]
            a[:, :, q] = x * ss + y * (c * wc)[:, None]
            x, y = a[:, p, :].copy(), a[:, q, :].copy()
            a[:, p, :] = cc * x + (-s * w)[:, None] * y
            a[:, q, :] = ss * x + (c * w)[:, None] * y
            a[rot, p, q] = 0.0
            a[rot, q, p] = 0.0


def eig_hermitian(a) -> np.ndarray:
    """Eigenvalues, ascending, by cyclic Jacobi rotations.

    A matrix (n, n) gives (n,); a stack (B, n, n) gives (B, n), one row per
    matrix, from one vectorized sweep over the whole stack.
    """
    if np.ndim(a) == 3:
        return np.sort(_jacobi_stack(a), axis=-1)
    return np.array(sorted(_jacobi(a)))


def closed_form_2x2(d1: float, a1: complex, corner: float) -> tuple[float, float]:
    """Exact eigenvalue pair of [[d1, a1], [conj(a1), corner]]."""
    root = math.hypot(corner - d1, 2.0 * abs(a1))
    return 0.5 * (corner + d1 - root), 0.5 * (corner + d1 + root)


@dataclass(frozen=True)
class BorderedStack:
    """m bordered instances of one size n as arrays: row i has diagonal block
    d[i], border a[i] and corner corner[i].  One instance is a one-row stack."""

    d: np.ndarray  # (m, n-1) real
    a: np.ndarray  # (m, n-1) complex
    corner: np.ndarray  # (m,)

    def __post_init__(self):
        if np.ndim(self.d) != 2 or np.shape(self.a) != np.shape(self.d) or self.n < 2:
            raise DomainError("need d and a of one shape (m, n-1) with n-1 >= 1")

    @property
    def n(self) -> int:
        return self.d.shape[1] + 1

    def embed(self) -> np.ndarray:
        """The (m, n, n) stack of full Hermitian matrices."""
        m, n = len(self.corner), self.n
        out = np.zeros((m, n, n), dtype=complex)
        out.reshape(m, n * n)[:, :: n + 1] = np.column_stack([self.d, self.corner])
        out[:, :-1, -1] = self.a
        out[:, -1, :-1] = np.conj(self.a)
        return out


def _positive(eps):
    if np.any(np.asarray(eps) <= 0.0):
        raise DomainError("eps must be positive")


def growth_threshold(b: BorderedStack, eps) -> np.ndarray:
    """Quadratic growth threshold for the corner at localization width eps.

    (2n-3)/eps * sum|a_i|^2 + (n-1) * sum|d_i| + (n-2) eps / (2n-3);
    for n = 2 this reduces to |a_1|^2/eps + |d_1|.  Returns the (m,)
    thresholds of the rows of b, with eps scalar or per row; an overflow
    reads inf.  Sums run left to right, |a_i|^2 as hypot ** 2.
    """
    _positive(eps)
    n = b.n
    with np.errstate(over="ignore"):
        a2 = sum(np.float_power(np.hypot(b.a.real, b.a.imag), 2.0).T)
        d1 = sum(np.abs(b.d).T)
        return (2 * n - 3) / eps * a2 + (n - 1) * d1 + (n - 2) * eps / (2 * n - 3)


class LocalizationVerdict(NamedTuple):
    """Outcome of matching eigenvalues to the localization intervals, one
    entry (a witness row) per row of the BorderedStack."""

    satisfied: np.ndarray  # (m,) bool
    max_offset: np.ndarray  # (m,) worst |lambda_alpha - d_matched|
    top_boundary_hit: np.ndarray  # (m,) top eigenvalue equal to the corner within slack
    witness: np.ndarray  # (m, n) sorted eigenvalues


def localize(b: BorderedStack, eps) -> LocalizationVerdict:
    """Check the quantitative localization conclusion for every row of b by
    one stacked sweep of the Jacobi oracle (see localization_verdict)."""
    _positive(eps)
    return localization_verdict(b, eps, eig_hermitian(b.embed()))


def localization_verdict(b: BorderedStack, eps, lam) -> LocalizationVerdict:
    """Match the ascending eigenvalues lam of b.embed() to the localization
    intervals.

    The n-1 smallest are matched to the diagonal entries by the
    minimal-total-displacement assignment (sort both sides and pair in order;
    the conclusion is only claimed up to a proper permutation).  Strict
    inequalities are relaxed by SLACK_SCALE * (1 + |A|_F) to absorb eigensolver
    error, with |A|_F = |lam|_2 for the Hermitian A.  lam is (m, n), and eps
    scalar or per row.
    """
    lam = np.asarray(lam, dtype=float).reshape(len(b.corner), b.n)
    slack = SLACK_SCALE * (1.0 + np.array([math.hypot(*row) for row in lam.tolist()]))
    offsets = np.abs(lam[:, :-1] - np.sort(b.d, axis=1))
    top = lam[:, -1]
    hi_lim = b.corner + (b.n - 1) * eps
    ok = (np.all(offsets < (eps + slack)[:, None], axis=1)
          & (b.corner - slack <= top) & (top < hi_lim + slack))
    return LocalizationVerdict(ok, np.max(offsets, axis=1),
                               np.abs(top - b.corner) <= slack, lam)


def char_poly_terms(b: BorderedStack, x: float) -> tuple[float, float]:
    """Both sides of the bordered characteristic identity at x, for row 0 of b."""
    diffs = x - b.d[0]
    term1 = (x - b.corner[0]) * float(np.prod(diffs))
    term2 = sum(abs(ai) ** 2 * float(np.prod(np.delete(diffs, i)))
                for i, ai in enumerate(b.a[0]))
    return term1, term2


def char_poly_residual(b: BorderedStack, x: float) -> float:
    """Signed residual of (x - corner) prod(x - d_i) - sum |a_i|^2 prod_{j != i}(x - d_j).

    Vanishes, up to roundoff relative to the largest monomial, at every
    eigenvalue of row 0 of b.embed().
    """
    term1, term2 = char_poly_terms(b, x)
    return term1 - term2


@dataclass(frozen=True)
class CensusReport:
    """Eigenvalue counts in the shrunken localization intervals.

    Overlapping intervals merge into connected components; the census is
    indexed by component, the unit for which the deformation argument proves
    constancy (eigenvalues may migrate between overlapping intervals inside a
    component, never across components).
    """

    half_width: float  # eps / (2n-3)
    corners: tuple[float, ...]
    components: tuple[tuple[int, ...], ...]  # interval indices per component
    counts: tuple[tuple[int, ...], ...]  # per corner, per component
    top_in_interval: tuple[bool, ...]  # per corner

    @property
    def constant(self) -> bool:
        return all(c == self.counts[0] for c in self.counts)


def interval_census(b: BorderedStack, eps: float, corners) -> CensusReport:
    """Count non-top eigenvalues in the intervals of half-width eps/(2n-3)
    around each d_i of row 0 of b, with its corner replaced by each corner.

    Every corner must clear the growth threshold for this eps-regime; the
    counts are then constant along the corner ladder.  Whether the top
    eigenvalue intrudes into an interval is reported separately: it stays out
    whenever the threshold exceeds sum|d_i| + eps/(2n-3), which the deformation
    argument assumes (automatic for n >= 3 with a nonzero border, but violable
    for n = 2 with a tiny border).
    """
    corners = [float(c) for c in corners]
    thr = float(growth_threshold(b, eps)[0])
    for c in corners:
        if c < thr - 1e-12 * (1.0 + abs(thr)):
            raise PreconditionError(
                f"corner {c} below growth threshold {thr} for eps={eps}"
            )
    n = b.n
    hw = eps / (2 * n - 3)
    d = b.d[0]
    # connected components of the union of intervals (d_i - hw, d_i + hw): in
    # ascending order, one ends where the next interval starts past its reach
    order = np.argsort(d, kind="stable")
    ds = d[order]
    cut = np.flatnonzero(~(ds[1:] - hw < ds[:-1] + hw)) + 1
    components = np.split(order, cut)
    lo, hi = ds[np.r_[0, cut]] - hw, ds[np.r_[cut - 1, -1]] + hw
    k = len(corners)
    ladder = BorderedStack(np.repeat(b.d[:1], k, axis=0), np.repeat(b.a[:1], k, axis=0),
                           np.array(corners, dtype=float))
    lam = eig_hermitian(ladder.embed())[:, :, None]
    inside = (lam > lo) & (lam < hi)  # (corner, eigenvalue, component)
    return CensusReport(
        half_width=float(hw),
        corners=tuple(corners),
        components=tuple(tuple(grp.tolist()) for grp in components),
        counts=tuple(map(tuple, np.count_nonzero(inside[:, :-1], axis=1).tolist())),
        top_in_interval=tuple(np.any(inside[:, -1], axis=1).tolist()),
    )


def _draws(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d and a from rows of 3(n-1) uniform doubles: uniform(-1, 1), uniform(0, 1)
    and uniform(0, 2 pi) draws, made as numpy makes them, low + (high - low) u."""
    d, r, th = np.split(u, 3, axis=1)
    return -1.0 + 2.0 * d, np.sqrt(r) * np.exp(1j * (2.0 * np.pi * th))


def random_instance(rng: np.random.Generator, n: int) -> BorderedStack:
    """Random bordered instance as a one-row stack: d uniform in [-1, 1], a
    uniform in the unit disk."""
    d, a = _draws(rng.random((1, 3 * (n - 1))))
    return BorderedStack(d, a, np.zeros(1))  # corner set by the caller


def battery(count: int, seed: int) -> list:
    """Deterministic battery as one block per matrix size.

    Instance i has n = 2 + i % 5, eps = (0.1, 0.3, 1.0)[(i // 5) % 3] and
    corner multiplier (1, 1.5, 10)[(i // 15) % 3]; its d and a are the next
    random_instance draws of one generator.  Returns [(rows, BorderedStack with
    corner 0, eps, multiplier)] per size; the caller sets the corners.
    """
    i = np.arange(count)
    sizes, width = 2 + i % 5, 3 * (1 + i % 5)
    eps = np.array([0.1, 0.3, 1.0])[i // 5 % 3]
    mult = np.array([1.0, 1.5, 10.0])[i // 15 % 3]
    start = np.cumsum(width) - width
    u = np.random.default_rng(seed).random(int(width.sum()))
    blocks = []
    for n in range(2, 7):
        rows = np.flatnonzero(sizes == n)
        if rows.size:
            d, a = _draws(u[start[rows, None] + np.arange(3 * (n - 1))])
            blocks.append((rows, BorderedStack(d, a, np.zeros(rows.size)),
                           eps[rows], mult[rows]))
    return blocks
