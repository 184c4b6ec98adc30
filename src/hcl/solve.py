"""Damped-Newton solvers for f(lambda[chi + i ddbar u]) = psi.

The grid poses the problem (`ProblemSpec`); one damped-Newton core serves
both: every accepted step must keep lambda(g[u]) inside the cone at all
interior nodes and decrease the sup-norm residual.  On a torus (no boundary
nodes, no phi) it solves for the pair (u, c) in f(...) = psi + c with a
zero-mean gauge on the updates and sup u = 0 applied after convergence.  A
grid with boundary nodes poses the Dirichlet problem: a strict subsolution
gives its correction w = u - phi, 0 off the interior, and one damped-Newton
run on w starts there; phi meets a Hessian only in
`ProblemSpec.background` = chi + i ddbar phi, so its size adds no rounding
to the iterates.  `residual_field` alone evaluates g = background + i ddbar w
(at the interior nodes, by `box_hessian`), sigma(g), the cone test and f.

g, chi and F are (n^2, N) arrays of Hermitian coordinates
(`grid._hessian_core`).  Every family is a function of sigma_1..sigma_n(g),
sums of principal minors (Horn & Johnson, Matrix Analysis, 2nd ed., 1.2): for
n <= 3 the cone test, f and F need no eigenvalues, n >= 4 one LAPACK call each.

The Newton operator is the exact derivative of the discrete residual: with
F = d f(lambda[g]) / dg (`_newton_coefficient`) it is
L v = tr(F Hess v) = sum_{j,k} F^{k jbar} (Hess v)_{j kbar}, with the Hessian
of `grid.box_hessian`.  Each Newton step solves its system only as far as
inexact Newton needs (the forcing term of `_damped_newton`).

Linear sub-solves share one fast direct solver, `_spectral_inverse`: on a box
with a boundary it inverts a constant-coefficient operator by a real FFT
along the axes that a mixed term pairs with another periodic axis and by a
small dense eigenbasis (DST-I or real Fourier, one matmul) along every other
axis; a masked sub-domain takes its box's map.  It solves the Poisson
problems on a box directly and, at the mean Newton coefficient, preconditions
BiCGStab, the only Krylov solver: it serves every Newton system and refines
a Poisson solve on a masked domain or one that misses its certificate.
The closed problem solves the bordered (N+1) system for the update and the
constant at once, as an operator around A (`_bordered_operator`; no (N+1)
matrix is built).  Its one preconditioner follows the coefficient: averaged
over every axis but the one whose profile spreads most (`_direct_axis`), it
is inverted exactly by an FFT along the other axes and one cyclic line solve
per mode along that axis (`_line_inverse`).  Each Newton step makes one
Krylov solve; its iterations are recorded in `SolveResult.linear_solves`.

One sparse matrix H per grid (`grid._hessian_csr`, cached) gives the n^2
Hermitian coordinates of i ddbar at the interior nodes: the residual's,
phi's and the subsolution's Hessians are one product with H (`box_hessian`),
and the Newton and Poisson operators its action v -> sum_c m_c F_c (H v)_c
(`_newton_operator`, F = I for Poisson), so no Newton step or Poisson solve
builds a matrix (Knoll & Keyes, J. Comput. Phys. 193, 2004).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
import scipy.sparse.linalg as spla

from .errors import (
    AdmissibilityError,
    ConeExitError,
    ConstructionError,
    DomainError,
    GaugeError,
    HclError,
    NumericError,
    ResolutionError,
    StallError,
)
from .grid import (
    INTERIOR,
    GridDomain,
    HermitianField,
    ScalarField,
    _coords,
    _hessian_core,
    _hessian_csr,
    _layout,
    _matrix,
    _mixed_pieces,
    _multiplicity,
    _padded,
    _stencil_offsets,
    _stencil_weights,
    boundary_normal_derivatives,
    box_hessian,
    gradient_sup,
)
from .symfunc import (
    LADDER,
    FuncFamily,
    boundary_sup,
    df_dsigma,
    elementary_all,
    f_of_sigma,
    grad_f,
)

__all__ = [
    "ProblemSpec",
    "SolverOptions",
    "SolveResult",
    "EstimateReport",
    "SweepReport",
    "ExhaustionReport",
    "poisson_dirichlet",
    "s_factor_potential",
    "build_subsolution",
    "build_supersolution",
    "solve_dirichlet",
    "solve_closed",
    "degenerate_sweep",
    "domain_exhaustion",
    "verify_estimates",
    "residual_field",
]

LIN_TOL = 1e-11  # tightest relative residual of a BiCGStab solve
FORCING_MAX = 1e-2  # loosest Newton forcing term, after a step of length >= 1/2
DAMPING_MIN = 1e-12  # smallest line-search step before a stall
POISSON_SUP_TOL = 1e-10  # Poisson sup-norm residual, relative to 1 + |rhs|_inf
ESTIMATE_SLACK = 1e-8  # of the sandwich and the normal-derivative ordering

@dataclass
class ProblemSpec:
    """Problem data (chi, psi, phi) for a family on a grid, which poses the
    problem: a torus takes no phi, a grid with boundary nodes needs it.  The
    fields lie on grids equal to `domain` and are read through its node
    roles, so a sub-domain, like a psi or phi variant, is one `replace`.
    `background`, the one place where phi meets a Hessian: chi + i ddbar phi
    (chi on a torus) at the interior nodes, in Hermitian coordinates."""

    domain: GridDomain
    family: FuncFamily
    chi: HermitianField
    psi: ScalarField
    phi: ScalarField | None = None
    background: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(f is not None and f.domain != self.domain
               for f in (self.chi, self.psi, self.phi)):
            raise DomainError("chi, psi and phi must lie on the problem's grid")
        if self.domain.boundary.any() == (self.phi is None):
            raise DomainError("a grid without boundary nodes takes no boundary data phi"
                              if self.phi is not None else
                              "a grid with boundary nodes needs boundary data phi")
        if self.family.n != self.domain.n:
            raise DomainError("family dimension does not match the domain")
        lo = float(np.min(self.psi.values[~self.domain.exterior]))
        if lo < boundary_sup(self.family):
            raise DomainError("psi drops below the attainable range of f")
        self.background = _coords(self.chi.values[self.domain.interior])
        if self.phi is not None:
            self.background += box_hessian(ScalarField(self.domain, self.phi.values))

    @property
    def degenerate(self) -> bool:
        lo = float(np.min(self.psi.values[~self.domain.exterior]))
        bd = boundary_sup(self.family)
        return np.isfinite(bd) and abs(lo - bd) <= 1e-12 * (1.0 + abs(bd))


@dataclass
class SolverOptions:
    residual_scale: float = 1e-9  # tol = residual_scale * (1 + |psi|_inf)
    max_newton: int = 80
    delta: float = 0.1  # subsolution strictness

    def __post_init__(self):
        if not self.residual_scale > 0:
            raise DomainError("residual_scale must be positive")
        if self.max_newton < 1:
            raise DomainError("max_newton must be at least 1")
        if not self.delta > 0:
            raise DomainError("delta must be positive")


@dataclass
class EstimateReport:
    sup_dbar: float
    grad_sq: float
    ratio2nd: float
    sandwich_ok: bool
    normal_order_ok: bool
    bdry_ratio: float


@dataclass
class SolveResult:
    u: ScalarField
    c: float | None
    residual_history: list[float]
    # the BiCGStab iterations of each Newton step, on either problem (a final
    # half step counts as one); diagnostics only, written to no artifact
    linear_solves: list[int]
    subsolution: ScalarField | None = None  # the start of a Dirichlet solve

    @property
    def iterations(self) -> int:  # Newton steps: one linear solve each
        return len(self.linear_solves)


@dataclass
class SweepReport:
    epsilons: list[float]
    rhos: list[float]  # regularizers actually applied: rho = eps / 2
    results: list[SolveResult]
    cauchy: list[float]  # |u_k - u_{k+1}|_inf
    stability_diff: float | None = None  # |u1 - u2|_inf for the perturbed pair
    stability_bound: float | None = None  # sup_boundary |phi1 - phi2|
    error: str | None = None


@dataclass
class ExhaustionReport:
    levels: list[float]
    interior_counts: list[int]
    results: list[SolveResult]
    diffs_to_full: list[float]
    consecutive_diffs: list[float]


# ----------------------------------------------------------------- helpers


def _sigmas(g: np.ndarray) -> list:
    """[1, sigma_1, ..., sigma_n] of the Hermitian coordinates g (n^2, N): sums
    of principal minors for n <= 3, else from LAPACK's eigenvalues.  The n = 3
    determinant is the product of the LDL^* pivots where the first two are
    positive: the cofactor sum errs by eps |g|^3, 2e-9 relative at (1e-4, 1e-4, 1)."""
    n = int(np.sqrt(len(g)))
    if n == 2:
        a, br, bi, d = g
        return [1.0, a + d, a * d - br * br - bi * bi]
    if n == 3:
        a, br, bi, cr, ci, d, er, ei, f = g
        bb, cc, ee = br * br + bi * bi, cr * cr + ci * ci, er * er + ei * ei
        bec = (br * er - bi * ei) * cr + (br * ei + bi * er) * ci  # Re g01 g12 g20
        with np.errstate(divide="ignore", invalid="ignore"):
            p2 = d - bb / a
            sr, si = er - (br * cr + bi * ci) / a, ei - (br * ci - bi * cr) / a
            ldl = a * p2 * (f - cc / a - (sr * sr + si * si) / p2)
        det = a * (d * f - ee) - f * bb - d * cc + 2.0 * bec
        return [1.0, a + d + f, a * d - bb + a * f - cc + d * f - ee,
                np.where((a > 0.0) & (p2 > 0.0), ldl, det)]
    return list(np.moveaxis(elementary_all(np.linalg.eigvalsh(_matrix(g))), -1, 0))


def _f_of_g(family: FuncFamily, g: np.ndarray):
    """(f(lambda[g]), sigma = `_sigmas`(g)); f is None if some sigma_1..sigma_k
    is not > 0 (lambda[g] outside Gamma_k) or some f is not finite."""
    s = _sigmas(g)
    if not np.all(np.min(s[1:family.k + 1], axis=0) > 0.0):
        return None, s
    val = f_of_sigma(family, s)
    return (val if np.all(np.isfinite(val)) else None), s


def _newton_coefficient(family: FuncFamily, g: np.ndarray, s: list) -> np.ndarray:
    """F = d f(lambda[g]) / dg in Hermitian coordinates at g with sigma = s:
    F = sum_m (df/dsigma_m) dsigma_m/dg, dsigma_m/dg = sum_{j<m} (-1)^j
    sigma_{m-1-j} g^j (Jacobi's formula for m = n); for n = 2 that is
    F = f_1 I + f_2 (sigma_1 I - g).  n >= 4, where the polynomial loses
    accuracy, takes LAPACK: F = P diag(grad f(lambda)) P^*."""
    n = len(s) - 1
    if n > 3:
        lam, p = np.linalg.eigh(_matrix(g))
        return _coords(np.einsum("nik,nk,njk->nij", p, grad_f(family, lam), p.conj()))
    # F = sum_j c_j g^j with c_j = (-1)^j sum_{m>j} (df/dsigma_m) sigma_{m-1-j}
    c = [(-1) ** j * sum(fm * s[m - 1 - j] for m, fm in df_dsigma(family, s).items()
                         if m > j) for j in range(n)]
    coeff = c[1] * g
    if n == 3:  # + c_2 g^2, by the coordinates of g^2
        a, br, bi, cr, ci, d, er, ei, f = g
        coeff += c[2] * np.array([
            a * a + br * br + bi * bi + cr * cr + ci * ci, (a + d) * br + cr * er + ci * ei,
            (a + d) * bi + ci * er - cr * ei, (a + f) * cr + br * er - bi * ei,
            (a + f) * ci + br * ei + bi * er, br * br + bi * bi + d * d + er * er + ei * ei,
            (d + f) * er + br * cr + bi * ci, (d + f) * ei + br * ci - bi * cr,
            cr * cr + ci * ci + er * er + ei * ei + f * f])
    coeff[[j * (2 * n - j) for j in range(n)]] += c[0]  # the diagonal
    return coeff


def residual_field(spec: ProblemSpec, w: np.ndarray, c: float = 0.0):
    """(r, sigma, g) at the interior nodes for the correction w (u = phi + w,
    or u = w on a torus): g = `ProblemSpec.background` + i ddbar w in
    Hermitian coordinates (n^2, N), by `box_hessian`, sigma = `_sigmas`(g)
    and r = f - psi - c, or None as in `_f_of_g`."""
    dom = spec.domain
    g = box_hessian(ScalarField(dom, w))
    g += spec.background  # in place: no second (n^2, N) array per evaluation
    val, s = _f_of_g(spec.family, g)
    return (None if val is None else val - spec.psi.values[dom.interior] - c), s, g


def _newton_operator(domain: GridDomain, coeff: np.ndarray) -> spla.LinearOperator:
    """v -> tr(F Hess v) = sum_c m_c F_c (H v)_c (`_multiplicity`, `_hessian_csr`)
    on interior values, boundary values 0, F in coordinates (n^2, N) or (n^2, 1):
    at the Newton coefficient, the derivative of the residual."""
    h, _ = _hessian_csr(domain.shape, domain.roles.tobytes(), domain.spacings)
    n_int = h.shape[0] // domain.n ** 2
    mf = np.broadcast_to(_multiplicity(domain.n)[:, None] * coeff, (domain.n ** 2, n_int))
    bdry = np.zeros(h.shape[1] - n_int)

    def matvec(v: np.ndarray) -> np.ndarray:
        hv = h @ np.concatenate((np.ravel(v), bdry))
        return np.einsum("ci,ci->i", mf, hv.reshape(mf.shape))

    return spla.LinearOperator((n_int, n_int), matvec=matvec, dtype=float)


@lru_cache(maxsize=16)
def _axis_basis(m: int, periodic: bool):
    """(Q, theta) for one axis of m nodes: the columns of the orthonormal real
    matrix Q are eigenvectors of its second difference, with symbol
    -(4/h^2) sin^2(theta/2).  A bounded axis takes the DST-I matrix (m interior
    nodes), a periodic one the real Fourier basis: the constant, cos/sin pairs
    and, for even m, the alternating column.  Cached and read-only."""
    i = np.arange(m)
    if periodic:
        k = (i + 1) // 2  # wavenumbers 0, 1, 1, 2, 2, ...
        angle = 2.0 * np.pi * (np.outer(i, k) % m) / m
        q = np.sqrt(2.0 / m) * np.where(i % 2 == 1, np.cos(angle), np.sin(angle))
        q[:, 0] = 1.0 / np.sqrt(m)
        if m % 2 == 0:
            q[:, -1] = (-1.0) ** i / np.sqrt(m)
        theta = 2.0 * np.pi * k / m
    else:
        angle = np.pi * (np.outer(i + 1, i + 1) % (2 * m + 2)) / (m + 1)
        q = np.sqrt(2.0 / (m + 1)) * np.sin(angle)
        theta = np.pi * (i + 1) / (m + 1)
    q.flags.writeable = theta.flags.writeable = False
    return q, theta


def _along(x: np.ndarray, axis: int, q: np.ndarray) -> np.ndarray:
    """q applied along one axis of x by one matmul on reshaped views:
    (rest, m) @ q^T for the last axis, q @ (before, m, after) otherwise
    (`tensordot` with `moveaxis` copies and is slower)."""
    shape, m = x.shape, x.shape[axis]
    if axis == x.ndim - 1:
        return (x.reshape(-1, m) @ q.T).reshape(shape)
    return (q @ x.reshape(-1, m, int(np.prod(shape[axis + 1:])))).reshape(shape)


def _direct_axis(shape: tuple[int, ...], coeff: np.ndarray):
    """(D, the profile of the torus coefficient (n^2, N) or (n^2, 1) along D,
    averaged over every other axis): D is the axis whose profile spreads most
    (max - min, of the worst coordinate), the lowest one on a tie, so axis 0
    for a constant coefficient."""
    c = np.broadcast_to(coeff, (len(coeff), int(np.prod(shape)))).reshape(-1, *shape)
    profiles = [c.mean(axis=tuple(np.delete(np.arange(1, c.ndim), a)))
                for a in range(len(shape))]
    d = int(np.argmax([np.ptp(p, axis=1).max() for p in profiles]))
    return d, profiles[d]


@lru_cache(maxsize=4)
def _mode_phases(shape: tuple[int, ...], axis: int):
    """(steps, phases): the step along `axis` of each offset o of
    `_stencil_offsets`, and the read-only e^{i theta . o} for each o (rows)
    and each mode theta of `rfftn` along the other axes (columns)."""
    offs = _stencil_offsets(len(shape) // 2)
    t_axes = [a for a in range(len(shape)) if a != axis]
    grids = np.meshgrid(*[np.fft.fftfreq(shape[a]) for a in t_axes[:-1]],
                        np.fft.rfftfreq(shape[t_axes[-1]]), indexing="ij")
    phase = np.exp(2j * np.pi * sum(offs[:, a, None] * g.reshape(-1)
                                    for a, g in zip(t_axes, grids)))
    phase.flags.writeable = False
    return offs[:, axis], phase


def _line_inverse(domain: GridDomain, axis: int, profile: np.ndarray):
    """The exact inverse of [[A, -1], [1^T, 0]] on the torus, A the action of
    `_newton_operator` at a coefficient that is the profile (n^2, m) along
    `axis` and constant along the other axes T (a constant one included), as
    a map of (N+1)-vectors.  After `rfftn` along T, A is one cyclic
    tridiagonal system along `axis` per mode, whose diagonals group the
    profile's stencil values by the node their step along `axis` reaches
    (step % m: on 1 or 2 nodes the steps -1, 0 and +1 share nodes), times
    `_mode_phases`.  Numbered 0, m-1, 1, m-2, ..., each ring is
    pentadiagonal, so all modes are one banded system, factored by LAPACK's
    pivoted banded LU.  The zero mode carries the gauge: for the T-sums of v
    and dc it is [[A_0, -P 1], [1^T, 0]], P the number of T nodes, one dense
    system factored by pivoted LU.  A zero or non-finite pivot raises
    `NumericError`."""
    import scipy.fft as sfft
    import scipy.linalg as sla

    shape, m = domain.shape, domain.shape[axis]
    t_axes, t_shape = range(1, len(shape)), [s for a, s in enumerate(shape) if a != axis]
    stencil = profile.T @ _stencil_weights(domain.spacings, domain.n)
    steps, phase = _mode_phases(shape, axis)
    steps, modes = steps % m, phase.shape[1]
    i, mode0 = np.arange(m), np.zeros((m + 1, m + 1))
    order = np.ravel(np.column_stack((i, m - 1 - i)))[:m]  # 0, m-1, 1, m-2, ...
    pos, cols = np.argsort(order), m * np.arange(modes)
    band = np.zeros((7, m * modes), dtype=complex, order="F")  # 2 sub-, 2 superdiagonals
    for step in np.unique(steps):  # 0, 1 and m-1 on 3 nodes or more
        diag = stencil[:, steps == step] @ phase[steps == step]
        mode0[i, (i + step) % m] = diag[:, 0].real
        diag[:, 0] = float(step == 0)  # the zero mode is left to the dense system
        r, c = cols + pos[:, None], cols + pos[(i + step) % m][:, None]
        band[4 + r - c, c] = diag
    mode0[:m, m], mode0[m, :m] = -float(np.prod(t_shape)), 1.0
    lu0 = sla.lu_factor(mode0, check_finite=False)
    band, piv, info = sla.lapack.zgbtrf(band, 2, 2, overwrite_ab=True)
    if info != 0 or not (np.isfinite(band).all() and np.isfinite(lu0[0]).all()
                         and np.diag(lu0[0]).all()):
        raise NumericError("zero or non-finite pivot in a per-mode line solve")

    def apply(y: np.ndarray) -> np.ndarray:
        f = sfft.rfftn(np.moveaxis(y[:-1].reshape(shape), axis, 0), axes=t_axes)
        x = f.reshape(m, -1)
        z = sla.lu_solve(lu0, np.append(x[:, 0].real, y[-1]), check_finite=False)
        x = sla.lapack.zgbtrs(band, 2, 2, x[order].T.reshape(-1, 1), piv, overwrite_b=True)[0]
        x = x.reshape(-1, m)[:, pos]
        x[0] = z[:m]
        v = sfft.irfftn(x.T.reshape(f.shape), s=t_shape, axes=t_axes)
        return np.append(np.moveaxis(v, 0, axis), z[m])

    return apply


def _spectral_inverse(domain: GridDomain, coeff: np.ndarray):
    """Inverse of A (`_newton_operator`) at the coefficient (n^2, N) or
    (n^2, 1), averaged as below, as a map of flat interior vectors.  On a
    fully periodic domain (never masked), where A annihilates the constants,
    it is `_line_inverse` of [[A, -1], [1^T, 0]] (`_bordered_operator`) on
    (N+1)-vectors, at the coefficient averaged over all axes but `_direct_axis`.

    With a boundary it is the map of the interior box at fbar, the coefficient
    averaged over the interior.  Each second difference is diagonalized along
    its axis, symbol -(4/h^2) sin^2(theta/2); a mixed difference only by a DFT
    along both of its axes, symbol -(sin theta_a / h_a)(sin theta_b / h_b).
    So the axes of the mixed pieces that pair two periodic axes take `rfftn`;
    every other axis takes the small dense eigenbasis of `_axis_basis`, one
    matmul each way.  Mixed terms that involve a non-periodic axis are
    dropped, so the map is exact for a constant fbar whose mixed terms pair
    periodic axes only (the identity among them) and a preconditioner
    otherwise.  A masked sub-domain applies the box's map to its vector
    scattered into the zero box and gathers its interior back (Buzbee, Dorr,
    George & Golub, SIAM J. Numer. Anal. 8, 1971).  A zero or non-finite
    symbol raises `NumericError`.
    """
    if all(domain.periodic):
        return _line_inverse(domain, *_direct_axis(domain.shape, coeff))
    import scipy.fft as sfft

    inside = domain.roles[domain.interior_box] == INTERIOR
    fbar = _matrix(coeff.mean(axis=1))
    shape, d, h, periodic = inside.shape, inside.ndim, domain.spacings, domain.periodic
    fft_axes = sorted({ax for j in range(domain.n) for k in range(j + 1, domain.n)
                       for a, b, _ in _mixed_pieces(j, k, 0j)
                       if periodic[a] and periodic[b] for ax in (a, b)})
    dense = {a: _axis_basis(m, periodic[a])
             for a, m in enumerate(shape) if a not in fft_axes}
    second, sine = [], []
    for a, m in enumerate(shape):
        if a in dense:
            theta = dense[a][1]
        elif a == fft_axes[-1]:  # the half spectrum of rfftn
            theta = 2.0 * np.pi * np.arange(m // 2 + 1) / m
        else:
            theta = 2.0 * np.pi * np.fft.fftfreq(m)
        view = [1] * d
        view[a] = theta.size
        second.append((-4.0 / h[a] ** 2 * np.sin(0.5 * theta) ** 2).reshape(view))
        sine.append((np.sin(theta) / h[a]).reshape(view))
    sym = 0.0
    for j in range(domain.n):
        sym = sym + 0.25 * fbar[j, j].real * (second[2 * j] + second[2 * j + 1])
        for k in range(j + 1, domain.n):
            for ax_a, ax_b, fac in _mixed_pieces(j, k, fbar[j, k]):
                if periodic[ax_a] and periodic[ax_b]:
                    sym = sym - fac * sine[ax_a] * sine[ax_b]
    if not np.all(np.isfinite(sym)) or np.any(sym == 0.0):
        raise NumericError("zero or non-finite symbol in the spectral inverse")
    fft_shape = [shape[a] for a in fft_axes]

    def apply(r: np.ndarray) -> np.ndarray:
        x = np.reshape(r, shape)
        for a, (q, _) in dense.items():
            x = _along(x, a, q.T)
        if fft_axes:
            x = sfft.irfftn(sfft.rfftn(x, axes=fft_axes) / sym, s=fft_shape,
                            axes=fft_axes)
        else:  # then every axis is dense
            x = x / sym
        for a, (q, _) in dense.items():
            x = _along(x, a, q)
        return x.reshape(-1)

    if inside.all():
        return apply

    def masked(r: np.ndarray) -> np.ndarray:
        box = np.zeros(shape)
        box[inside] = r
        return apply(box).reshape(shape)[inside]

    return masked


def _solve_general(a: spla.LinearOperator, b: np.ndarray, inverse, rtol: float = LIN_TOL):
    """BiCGStab to the relative residual `rtol` on the system of A
    (`_newton_operator`) or its `_bordered_operator` a; returns (x, iters).

    The run starts from zero (scipy then takes r0 = b with no product) and is
    preconditioned by `_spectral_inverse`'s map `inverse`.  The system is
    scaled to sup |b| = 1 first: scipy's breakdown tests are absolute (|rho| < eps^2),
    and the small right-hand sides of the last Newton steps would trip them.
    The certificate is the true residual |A x - b|_2 <= 10 rtol |b|_2; a run
    that misses it (named with its true residual and target) or breaks down
    raises `NumericError`.
    `rtol` is `LIN_TOL` except for a Newton step, whose forcing term raises
    it up to 0.5 tol / |r|_2 or `FORCING_MAX` (see `_damped_newton`).
    Iterations are counted as preconditioner applications, two per iteration
    and one on a final half step, which scipy's `callback` misses.
    """
    n = a.shape[0]
    applied = 0  # preconditioner applications

    def precondition(r):
        nonlocal applied
        applied += 1
        return inverse(r)

    scale = float(np.max(np.abs(b), initial=0.0)) or 1.0
    bs = b / scale
    target = 10.0 * rtol * (float(np.linalg.norm(bs)) + 1e-30)
    x, info = spla.bicgstab(a, bs, rtol=rtol, atol=0.0, maxiter=40 * int(np.sqrt(n) + 10),
                            M=spla.LinearOperator(a.shape, matvec=precondition, dtype=float))
    miss = float(np.linalg.norm(a @ x - bs)) if info == 0 else np.nan
    iters = (applied + 1) // 2
    if info != 0 or not miss <= target:  # a NaN x misses too
        why = (f"(info={info})" if info else f"with true residual {scale * miss:.3e} "
               f"above its target {scale * target:.3e}")
        raise NumericError(f"BiCGStab failed on {n} unknowns after {iters} iterations {why}")
    return scale * x, iters


# ------------------------------------------------------------------ Poisson


def poisson_dirichlet(domain: GridDomain, rhs) -> ScalarField:
    """Solve chern_laplacian(h) = rhs with h = 0 on the boundary (boundary
    data enter through the right side: `build_supersolution`).

    The system is A h_int = rhs, with A of `_newton_operator` at F = I.
    The spectral inverse solves the system directly on an unmasked box, and
    approximately on a masked one; the sup-norm residual is certified at
    POISSON_SUP_TOL * (1 + |rhs|_inf).  When that certificate fails, one
    `_solve_general` pass on the residual, preconditioned by the spectral
    inverse, refines the solution; a second miss raises `NumericError`.
    """
    if not domain.boundary.any():
        raise DomainError("poisson_dirichlet needs a domain with boundary")
    rhs = (rhs.values if isinstance(rhs, ScalarField) else
           np.broadcast_to(np.asarray(rhs, dtype=float), domain.shape))[domain.interior]
    eye = _coords(np.eye(domain.n))[:, None]
    a = _newton_operator(domain, eye)
    target = POISSON_SUP_TOL * (1.0 + float(np.max(np.abs(rhs))))
    solve = _spectral_inverse(domain, eye)
    x = solve(rhs)
    resid = rhs - a @ x
    if float(np.max(np.abs(resid), initial=0.0)) > target:
        x = x + _solve_general(a, resid, solve)[0]
        miss = float(np.max(np.abs(rhs - a @ x), initial=0.0))
        if miss > target:
            raise NumericError(f"Poisson solve: sup residual {miss:.3e} above "
                               f"target {target:.3e} after one BiCGStab pass")
    out = np.zeros(domain.shape)
    out[domain.interior] = x
    return ScalarField(domain, out)


def s_factor_potential(domain: GridDomain) -> ScalarField:
    """h on a product domain, constant along the X factor, where h on the
    box of the S factor solves chern_laplacian(h) = 1 with h = 0 on its
    boundary (negative inside)."""
    if all(domain.periodic):
        raise DomainError("S factor only exists for product domains")
    s = slice(len(domain.shape) - 2, None)
    s_dom = GridDomain.product(1, s_shape=domain.shape[s], s_lengths=domain.lengths[s],
                               s_periodic=domain.periodic[s])
    h = poisson_dirichlet(s_dom, 1.0).values
    return ScalarField(domain, np.broadcast_to(h, domain.shape).copy())


# ------------------------------------------------- sub- and supersolutions


def build_subsolution(spec: ProblemSpec, delta: float) -> tuple[ScalarField, float]:
    """(t h, t): the correction w = u_sub - phi, with h `s_factor_potential` set
    to 0 off the interior nodes and t the smallest of 0 and `LADDER` with
    lambda(g) in Gamma and f >= psi + delta at every interior node, where
    g = `ProblemSpec.background` + t i ddbar h is `residual_field`'s g at t h."""
    if spec.phi is None or all(spec.domain.periodic):
        raise DomainError("subsolution construction needs a Dirichlet product domain")
    if delta <= 0:
        raise DomainError("strictness delta must be positive")
    dom = spec.domain
    h = np.where(dom.interior, s_factor_potential(dom).values, 0.0)
    g_h = box_hessian(ScalarField(dom, h))
    level = spec.psi.values[dom.interior] + delta
    last_reason = ""
    for t in [0.0, *LADDER]:
        val, s = _f_of_g(spec.family, spec.background + t * g_h)
        short = None if val is None else val - level
        if short is None:
            bad = int(np.argmin(np.min(s[1:spec.family.k + 1], axis=0) > 0.0))
            last_reason = f"cone violation at interior node #{bad} for t={t}"
        elif np.all(short >= 0.0):
            return ScalarField(dom, t * h), float(t)
        else:
            last_reason = (f"level short by {-float(short.min()):.3e} at interior "
                           f"node #{int(np.argmin(short))} for t={t}")
    raise ConstructionError(f"subsolution ladder exhausted: {last_reason}")


def build_supersolution(spec: ProblemSpec) -> ScalarField:
    """Solution of chern_laplacian(v) + tr(chi) = 0 with v = phi on the boundary:
    v = phi + h, where chern_laplacian(h) = -tr(`ProblemSpec.background`) and
    h = 0 on the boundary."""
    if spec.phi is None:
        raise DomainError("supersolution needs a grid with boundary nodes")
    dom = spec.domain
    rhs = np.zeros(dom.shape)
    rhs[dom.interior] = -spec.background[[j * (2 * dom.n - j) for j in range(dom.n)]].sum(axis=0)
    return ScalarField(dom, spec.phi.values + poisson_dirichlet(dom, rhs).values)


def _bordered_operator(a: spla.LinearOperator) -> spla.LinearOperator:
    """[[A, -1], [1^T, 0]] as an operator around A (`_newton_operator`):
    (v, dc) -> (A v - dc * 1, sum(v)); no (N+1) matrix is built."""
    n = a.shape[0]

    def matvec(x: np.ndarray) -> np.ndarray:
        out = np.empty(n + 1)
        np.subtract(a @ x[:n], x[n], out=out[:n])
        out[n] = x[:n].sum()
        return out

    return spla.LinearOperator((n + 1, n + 1), matvec=matvec, dtype=float)


def _solve_bordered(a: spla.LinearOperator, r: np.ndarray, inverse, rtol: float = LIN_TOL):
    """Solve the (N+1)-dimensional bordered system

        A v - dc * 1 = -r,   sum(v) = 0

    by one `_solve_general` call on `_bordered_operator`(A) to the relative
    residual `rtol`, preconditioned by the map of (N+1)-vectors `inverse`
    (`_spectral_inverse` on the torus).  Returns (v, dc, the Krylov
    iterations)."""
    n = r.size
    try:
        x, iters = _solve_general(_bordered_operator(a), np.append(-r, 0.0), inverse, rtol)
    except NumericError as exc:
        raise GaugeError(f"augmented system failed: {exc}") from exc
    return x[:n] - x[:n].sum() / n, float(x[n]), iters


# ------------------------------------------------------------------ Newton

def _damped_newton(spec: ProblemSpec, w: np.ndarray, opts: SolverOptions):
    """Damped Newton on the interior values of the correction w
    (`residual_field`), and on c on a torus.

    Each step linearizes at w and solves for the update: the bordered system
    with the zero-mean gauge on a torus (phi is None), else the plain Newton
    system (w stays 0 on the boundary).  The step is halved until the
    iterate stays admissible and the sup-norm residual decreases; the accepted
    trial's g and sigma give the next step's coefficient.  Each step
    makes one BiCGStab solve, preconditioned by `_spectral_inverse` factored
    at its Newton coefficient (averaged over the interior, or on the torus over
    every axis but `_direct_axis`), to the relative residual
    rtol = max(LIN_TOL, 0.5 tol / |r_k|_2, eta_k).  The floor 0.5 tol / |r_k|_2
    leaves a linear residual of at most 0.5 tol in the 2-norm, so in the sup
    norm, and the last step reaches tol without being solved further.  The
    forcing term eta_k = min(FORCING_MAX, 0.9 (res_k / res_{k-1})^2) of the
    sup-norm residuals (Eisenstat & Walker 1996, choice 2) applies only after
    a step of length >= 1/2, else 0: after shorter steps it costs Newton steps.
    The stop is still the true sup-norm residual <= tol.
    Returns (w, c, residual history, Krylov iterations per step).
    """
    dom = spec.domain
    tol = opts.residual_scale * (1.0 + float(np.max(np.abs(spec.psi.values[~dom.exterior]))))
    c = 0.0
    r, s, g = residual_field(spec, w, c)
    if r is None:
        raise AdmissibilityError("initial iterate not admissible")
    res = float(np.max(np.abs(r)))
    history = [res]
    solves: list[int] = []
    long_step = False  # was the last accepted step of length >= 1/2
    for _ in range(opts.max_newton):
        if res <= tol:
            break
        coeff = _newton_coefficient(spec.family, g, s)
        a = _newton_operator(dom, coeff)
        inverse = _spectral_inverse(dom, coeff)
        eta = min(FORCING_MAX, 0.9 * (history[-1] / history[-2]) ** 2) if long_step else 0.0
        rtol = max(LIN_TOL, 0.5 * tol / float(np.linalg.norm(r)), eta)
        if spec.phi is None:
            v, dc, iters = _solve_bordered(a, r, inverse, rtol)
        else:
            (v, iters), dc = _solve_general(a, -r, inverse, rtol), 0.0
        del a, inverse  # not kept while the next step builds its own
        solves.append(iters)
        step = 1.0
        admissible_seen = False
        while step >= DAMPING_MIN:
            trial = w.copy()
            trial[dom.interior] += step * v
            c_t = c + step * dc
            r_t, s_t, g_t = residual_field(spec, trial, c_t)
            if r_t is not None:
                admissible_seen = True
                res_t = float(np.max(np.abs(r_t)))
                if res_t < res:
                    w, c, r, res, s, g = trial, c_t, r_t, res_t, s_t, g_t
                    history.append(res)
                    long_step = step >= 0.5
                    break
            step *= 0.5
        else:
            if not admissible_seen:
                raise ConeExitError(
                    f"no damped step restored admissibility (residual {res:.3e})"
                )
            raise StallError(
                f"damping underflow at residual {res:.3e} (tol {tol:.3e})"
            )
    if res > tol:
        raise StallError(f"Newton did not reach tol {tol:.3e}; residual {res:.3e}")
    return w, c, history, solves


def solve_dirichlet(spec: ProblemSpec, opts: SolverOptions | None = None) -> SolveResult:
    """One damped-Newton run on the correction w = u - phi from the one that
    `build_subsolution` checked at `opts.delta`; returns u = phi + w, with
    phi plus that start as `SolveResult.subsolution`.  A stall raises
    `StallError` at once."""
    opts = opts or SolverOptions()
    if spec.phi is None:
        raise DomainError("solve_dirichlet needs a grid with boundary nodes")
    if spec.degenerate:
        raise DomainError("degenerate right-hand side: use degenerate_sweep")
    w0 = build_subsolution(spec, opts.delta)[0].values
    w, _, history, solves = _damped_newton(spec, w0, opts)
    phi = spec.phi.values
    return SolveResult(ScalarField(spec.domain, phi + w), None, history, solves,
                       ScalarField(spec.domain, phi + w0))


def solve_closed(spec: ProblemSpec, opts: SolverOptions | None = None) -> SolveResult:
    """Augmented Newton for (u, c) with the zero-mean gauge on updates;
    normalizes sup u = 0 after convergence."""
    opts = opts or SolverOptions()
    if spec.phi is not None:
        raise DomainError("solve_closed needs a grid without boundary nodes")
    u, c, history, solves = _damped_newton(spec, np.zeros(spec.domain.shape), opts)
    u = u - float(np.max(u))  # the equation sees only the Hessian; c is unchanged
    return SolveResult(ScalarField(spec.domain, u), float(c), history, solves)


# ------------------------------------------------------------------ sweeps


def _sup_diff(a: ScalarField, b: ScalarField, mask: np.ndarray) -> float:
    """|a - b|_inf over the nodes where mask is True."""
    return float(np.max(np.abs(a.values[mask] - b.values[mask])))


def _decreasing(values, name: str) -> list[float]:
    """`values` as floats, checked positive and strictly decreasing."""
    values = [float(v) for v in values]
    if any(v <= 0 for v in values) or any(b >= a for a, b in zip(values, values[1:])):
        raise DomainError(f"{name} must be positive and strictly decreasing")
    return values


def degenerate_sweep(
    spec: ProblemSpec,
    ladder,
    opts: SolverOptions | None = None,
    perturbed_phi: ScalarField | None = None,
) -> SweepReport:
    """Solve the regularized problems along a decreasing epsilon ladder.

    Each rung eps_k applies the constant regularizer rho = eps_k / 2 (strictly
    inside (0, eps_k)), recorded in the report.  Reports the sup-norm Cauchy
    differences of consecutive solutions and, when a perturbed boundary datum
    is supplied, the discrete stability pair at the final rung.  Aborts with
    partial results when a regularized solve fails.
    """
    opts = opts or SolverOptions()
    if spec.phi is None:
        raise DomainError("degenerate sweep needs a grid with boundary nodes")
    ladder = _decreasing(ladder, "ladder")
    report = SweepReport(epsilons=[], rhos=[], results=[], cauchy=[])
    live = ~spec.domain.exterior
    for eps in ladder:
        rho = 0.5 * eps
        spec_k = replace(spec, psi=ScalarField(spec.domain, spec.psi.values + rho))
        try:
            res = solve_dirichlet(spec_k, opts)
        except HclError as exc:
            report.error = f"solve at eps={eps} failed: {exc}"
            return report
        report.epsilons.append(eps)
        report.rhos.append(rho)
        report.results.append(res)
        if len(report.results) > 1:
            report.cauchy.append(_sup_diff(res.u, report.results[-2].u, live))
    if perturbed_phi is not None and report.results:
        try:  # the last rung's problem, which solved, with phi perturbed
            res_p = solve_dirichlet(replace(spec_k, phi=perturbed_phi), opts)
        except HclError as exc:
            report.error = f"perturbed solve failed: {exc}"
            return report
        report.stability_diff = _sup_diff(res_p.u, report.results[-1].u, live)
        report.stability_bound = _sup_diff(perturbed_phi, spec.phi, spec.domain.boundary)
    return report


def domain_exhaustion(
    spec: ProblemSpec, levels, opts: SolverOptions | None = None
) -> ExhaustionReport:
    """Solve on the nested sub-domains {h < -alpha_k} cut by the S-factor
    Poisson potential, and report sup-norm differences on common interiors.
    The levels alpha_k must be positive and strictly decreasing, so that the
    sub-domains grow and nest.  Every level is cut before any solve: one that
    leaves no interior node raises `ResolutionError`, naming the level."""
    opts = opts or SolverOptions()
    if all(spec.domain.periodic):
        raise DomainError("exhaustion needs a product domain")
    levels = _decreasing(levels, "levels")
    h = s_factor_potential(spec.domain)
    subs = []
    for alpha in levels:
        try:
            subs.append(spec.domain.restrict(h.values < -alpha))
        except ResolutionError as exc:
            raise ResolutionError(f"level {alpha!r}: {exc}") from None
    full = solve_dirichlet(spec, opts)
    report = ExhaustionReport(levels, [int(sub.interior.sum()) for sub in subs], [], [], [])
    for k, sub in enumerate(subs):
        res = solve_dirichlet(replace(spec, domain=sub), opts)
        report.results.append(res)
        report.diffs_to_full.append(_sup_diff(res.u, full.u, sub.interior))
        if k:
            report.consecutive_diffs.append(_sup_diff(
                res.u, report.results[k - 1].u, subs[k - 1].interior & sub.interior))
    return report


# ---------------------------------------------------------------- estimates


def verify_estimates(
    result: SolveResult, spec: ProblemSpec, usub: ScalarField, usuper: ScalarField
) -> EstimateReport:
    """Sandwich usub <= u <= usuper, normal-derivative ordering at the face
    nodes that are boundary nodes (both within ESTIMATE_SLACK) and the
    quadratic-growth ratios.

    The second-order ratio is sup |ddbar u| / (1 + sup |grad u|^2), from
    `box_hessian`; the boundary ratio is max over boundary nodes of
    g_{n nbar} / (1 + sum_alpha |g_{alpha nbar}|^2), the quantity the
    localization lemma bounds, from `_hessian_core` (ghost ring).  |H|_2 lies
    between H's largest column norm and |H|_F, so `eigvalsh` sees the node of
    sup |H|_2 among those with |H|_F^2 >= (1 - 1e-9) max column norm^2; 1e-9
    absorbs the rounding of the sums of squares.
    """
    dom, u, n = spec.domain, result.u, spec.domain.n
    c = box_hessian(u)
    live = ~dom.exterior
    sq, lay = c * c, _layout(n)
    frob = sum(s if j == k else 2.0 * s for (j, k, _), s in zip(lay, sq))
    cols = [sum(s for (j, k, _), s in zip(lay, sq) if m in (j, k)) for m in range(n)]
    near = frob >= (1 - 1e-9) * np.max(cols, initial=0.0)
    lam_u = np.linalg.eigvalsh(_matrix(c[:, near]))
    sup_dbar = float(np.max(np.abs(lam_u))) if lam_u.size else 0.0
    grad_sq = gradient_sup(u)
    ratio2nd = sup_dbar / (1.0 + grad_sq)

    sandwich_ok = bool(np.all(u.values[live] >= usub.values[live] - ESTIMATE_SLACK)
                       and np.all(u.values[live] <= usuper.values[live] + ESTIMATE_SLACK))

    normal_order_ok, bdry_ratio = True, float("nan")
    if dom.boundary.any():
        d_sub = boundary_normal_derivatives(usub)
        d_u = boundary_normal_derivatives(u)
        d_sup = boundary_normal_derivatives(usuper)
        for (ax, side, lo), (_, _, mid), (_, _, hi) in zip(d_sub, d_u, d_sup):
            on = np.moveaxis(dom.boundary, ax, 0)[side]  # a masked box's faces are exterior
            lo, mid, hi = lo[on], mid[on], hi[on]
            scale = ESTIMATE_SLACK * (1.0 + float(np.max(np.abs(mid), initial=0.0)))
            normal_order_ok &= bool(np.all(lo <= mid + scale) and np.all(mid <= hi + scale))
        core = _hessian_core(_padded(u.values, dom), dom.spacings, n)
        gb = dict(zip(lay, _coords(spec.chi.values[dom.boundary]) + core[:, dom.boundary]))
        den = 1.0 + sum(np.hypot(gb[a, n - 1, 0], gb[a, n - 1, 1]) ** 2
                        for a in range(n - 1))
        bdry_ratio = float(np.max(gb[n - 1, n - 1, 0] / den))

    return EstimateReport(sup_dbar, grad_sq, ratio2nd, sandwich_ok, normal_order_ok,
                          bdry_ratio)
