"""Newton/continuation solvers for f(lambda[chi + i ddbar u]) = psi.

One damped-Newton core serves both modes: every accepted step must keep
lambda(g[u]) inside the cone at all interior nodes and decrease the sup-norm
residual.  Closed mode solves for the pair (u, c) in f(...) = psi + c on a
fully periodic domain with a zero-mean gauge on the updates and sup u = 0
applied after convergence.  Dirichlet mode builds a strict subsolution with
u = phi on the boundary, starts from it (optionally along a continuation
ladder) and returns it.  `residual_field` alone evaluates g = chi + i ddbar u
(on the interior box, by `box_hessian`), lambda(g), the cone test and f.

The Newton operator is the exact derivative of the discrete residual: with
F = sum_k f_k(lambda) P_k (`_newton_coefficient`) it is
L v = tr(F Hess v) = sum_{j,k} F^{k jbar} (Hess v)_{j kbar}, with the Hessian
stencils of `grid.complex_hessian`.  Each Newton step solves its system
only as far as its stopping test needs (the forcing floor of `_damped_newton`).

Linear sub-solves share one fast direct solver, `_spectral_inverse`: on an
unmasked box it inverts a constant-coefficient operator by a real FFT along
the axes that a mixed term pairs with another periodic axis and by a small
dense eigenbasis (DST-I or real Fourier, one matmul) along every other axis.
It solves the Poisson problems directly and, frozen at the mean Newton
coefficient, preconditions BiCGStab, the only Krylov solver: it serves every
Newton system and refines a Poisson solve on a masked domain or one that
misses its sup-norm certificate.
Closed mode solves the bordered (N+1) system for the update and the constant
at once, as an operator around A (`_bordered_operator`; no (N+1) matrix is
built), with the mean-coefficient bordered operator inverted exactly as its
preconditioner.  Each Newton step makes one Krylov solve; its iterations are
recorded in `SolveResult.linear_solves`.

For n = 2 the eigenvalues and the Newton coefficient are closed forms on the
stacked 2 x 2 matrices (`_eigvalsh`, `_newton_coefficient`); n >= 3 uses
LAPACK.  `assemble_linearized` stores A row-major in stencil order, as in
ELLPACK: every row holds its S = 1 + 4n + 8n(n-1) weights in the order of
`_stencil_offsets`, so the data is one product of the coefficients' real
view with a cached weight table, and the structure is built once per
domain (cached on the shape and the node roles) with no sort.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    AdmissibilityError,
    ConeExitError,
    ConstructionError,
    DomainError,
    GaugeError,
    HclError,
    NumericError,
    StallError,
)
from .grid import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    GridDomain,
    HermitianField,
    ScalarField,
    boundary_normal_derivatives,
    box_hessian,
    complex_hessian,
    gradient_sup,
)
from .symfunc import (
    LADDER_T_MAX,
    FuncFamily,
    _ladder,
    boundary_sup,
    eval_f,
    grad_f,
    in_cone,
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
    "assemble_linearized",
    "residual_field",
]

LIN_TOL = 1e-11  # relative residual of every BiCGStab solve
DAMPING_MIN = 1e-12  # smallest line-search step before a stall
POISSON_SUP_TOL = 1e-10  # Poisson sup-norm residual, relative to 1 + |rhs|_inf
ESTIMATE_SLACK = 1e-8  # of the sandwich and the normal-derivative ordering

@dataclass
class ProblemSpec:
    """Problem data (chi, psi, phi) over a domain for a function family."""

    domain: GridDomain
    family: FuncFamily
    chi: HermitianField
    psi: ScalarField
    phi: ScalarField | None
    mode: str  # "closed" | "dirichlet"

    def __post_init__(self):
        if self.mode not in ("closed", "dirichlet"):
            raise DomainError("mode must be 'closed' or 'dirichlet'")
        if self.mode == "closed":
            if not all(self.domain.periodic):
                raise DomainError("closed mode needs a fully periodic domain")
        else:
            if not self.domain.boundary.any():
                raise DomainError("dirichlet mode needs boundary nodes")
            if self.phi is None:
                raise DomainError("dirichlet mode needs boundary data phi")
        if self.family.n != self.domain.n:
            raise DomainError("family dimension does not match the domain")
        lo = float(np.min(self.psi.values[~self.domain.exterior]))
        if lo < boundary_sup(self.family):
            raise DomainError("psi drops below the attainable range of f")

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
    continuation: int | None = None  # number of uniform steps; None = direct
    seed: int = 0

    def __post_init__(self):
        if not self.residual_scale > 0:
            raise DomainError("residual_scale must be positive")
        if self.max_newton < 1:
            raise DomainError("max_newton must be at least 1")
        if self.continuation is not None and self.continuation < 1:
            raise DomainError("continuation needs at least one step")


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
    iterations: int
    residual_history: list[float]
    # the BiCGStab iterations of each Newton step in both modes (a final half
    # step counts as one); diagnostics only, written to no artifact
    linear_solves: list[int] = field(default_factory=list)
    subsolution: ScalarField | None = None  # the start of a Dirichlet solve


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


def _eigvalsh(g: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a (N, n, n) Hermitian stack: m -+ r with
    m = (p + q)/2 and r = hypot((p - q)/2, |b|) for n = 2, LAPACK otherwise."""
    if g.shape[-1] != 2:
        return np.linalg.eigvalsh(g)
    p, q = g[:, 0, 0].real, g[:, 1, 1].real
    m = 0.5 * (p + q)
    r = np.hypot(0.5 * (p - q), np.abs(g[:, 0, 1]))
    return np.stack((m - r, m + r), axis=-1)


def _newton_coefficient(family: FuncFamily, g: np.ndarray, lam: np.ndarray):
    """F = sum_k f_k(lambda) P_k, the derivative of f(lambda[g]) in g, for a
    stack g with eigenvalues lam (from `_eigvalsh`).

    For n = 2 by spectral calculus without eigenvectors:
    F = alpha I + beta (g - m I) with alpha = (f_1 + f_2)/2 and
    beta = (f_2 - f_1)/(lambda_2 - lambda_1), beta = 0 on a double eigenvalue.
    Otherwise from LAPACK's eigenvectors.
    """
    if g.shape[-1] != 2:
        lam_g, p = np.linalg.eigh(g)
        return np.einsum("nik,nk,njk->nij", p, grad_f(family, lam_g), p.conj())
    f = grad_f(family, lam)
    alpha = 0.5 * (f[:, 0] + f[:, 1])
    gap = lam[:, 1] - lam[:, 0]
    beta = np.divide(f[:, 1] - f[:, 0], gap, out=np.zeros_like(gap), where=gap > 0)
    half = beta * 0.5 * (g[:, 0, 0].real - g[:, 1, 1].real)
    coeff = np.empty_like(g)
    coeff[:, 0, 0] = alpha + half
    coeff[:, 1, 1] = alpha - half
    coeff[:, 0, 1] = beta * g[:, 0, 1]
    coeff[:, 1, 0] = coeff[:, 0, 1].conj()
    return coeff


def residual_field(spec: ProblemSpec, u_vals: np.ndarray, c: float = 0.0):
    """(r, lam, g) at the interior nodes: g = chi + i ddbar u, lam = lambda(g)
    and r = f(lam) - psi - c, or None if some lam is outside Gamma_k or not finite."""
    dom = spec.domain
    box, n = dom.interior_box, dom.n
    g = box_hessian(ScalarField(dom, u_vals))
    g += spec.chi.values[box]
    g, psi = g.reshape(-1, n, n), spec.psi.values[box].reshape(-1)
    inside = dom.interior[box].reshape(-1)
    if not inside.all():  # a masked domain
        g, psi = g[inside], psi[inside]
    lam = _eigvalsh(g)
    try:
        return eval_f(spec.family, lam) - psi - c, lam, g
    except (AdmissibilityError, DomainError):  # DomainError: lam not finite
        return None, lam, g


def _mixed_pieces(j: int, k: int, c):
    """(axis a, axis b, factor) for the real mixed differences D_ab that make up
    the (j, kbar) and (k, jbar) terms with coefficient c = F^{j kbar}, j < k.

    In tr(F H) with H = Hess v these two terms are
    F^{k jbar} H_{j kbar} + F^{j kbar} H_{k jbar} = 2 Re(conj(c) H_{j kbar}),
    where Re H_{j kbar} = (D_{x_j x_k} + D_{y_j y_k}) / 4 and
    Im H_{j kbar} = (D_{x_j y_k} - D_{y_j x_k}) / 4 (`grid.complex_hessian`)."""
    return (
        (2 * j, 2 * k, 0.5 * c.real),
        (2 * j + 1, 2 * k + 1, 0.5 * c.real),
        (2 * j, 2 * k + 1, 0.5 * c.imag),
        (2 * j + 1, 2 * k, -0.5 * c.imag),
    )


def _stencil_values(spacings, coeff: np.ndarray) -> np.ndarray:
    """Stencil weights of tr(F Hess v) = sum_{j,k} F^{k jbar} (Hess v)_{j kbar},
    one row per offset of `_stencil_offsets` and one column per F of the stack."""
    n = coeff.shape[-1]
    # the centre, two offsets per real axis, sixteen per pair of complex axes
    out = np.empty((1 + 4 * n + 8 * n * (n - 1), coeff.shape[0]))
    out[0] = 0.0
    rows = iter(out[1:])
    for j in range(n):
        fjj = coeff[:, j, j].real
        for ax in (2 * j, 2 * j + 1):
            w = np.divide(0.25 * fjj, spacings[ax] ** 2, out=next(rows))
            next(rows)[:] = w
            out[0] -= 2.0 * w
    for j in range(n):
        for k in range(j + 1, n):
            for ax_a, ax_b, fac in _mixed_pieces(j, k, coeff[:, j, k]):
                w = fac / (4.0 * spacings[ax_a] * spacings[ax_b])
                for sign in (+1, -1, -1, +1):  # sa * sb at the corners
                    np.multiply(w, sign, out=next(rows))
    return out


def _stencil_offsets(n: int) -> np.ndarray:
    """The centre, -+1 along each real axis, then the four corners of each
    mixed axis pair: the row order of `_stencil_values`."""
    eye = np.eye(2 * n, dtype=int)
    offs = [0 * eye[0]] + [s * eye[ax] for ax in range(2 * n) for s in (+1, -1)]
    for j in range(n):
        for k in range(j + 1, n):
            for ax_a, ax_b, _ in _mixed_pieces(j, k, 0j):
                offs += [sa * eye[ax_a] + sb * eye[ax_b]
                         for sa in (+1, -1) for sb in (+1, -1)]
    return np.array(offs)


@lru_cache(maxsize=8)
def _stencil_weights(spacings: tuple[float, ...], n: int) -> np.ndarray:
    """The (2 n^2, S) table W that maps the real view of F, (Re F_jk, Im F_jk)
    for every entry in row-major order, to its stencil weights, one column per
    offset of `_stencil_offsets`: W holds `_stencil_values` of the unit
    matrices E_jk and i E_jk.  `_stencil_values` reads only Re F_jj and the
    F_jk with j < k, so the rows of Im F_jj and of the lower triangle are 0."""
    basis = np.kron(np.eye(n * n), [[1.0], [1j]]).reshape(2 * n * n, n, n)
    w = np.ascontiguousarray(_stencil_values(spacings, basis).T)
    w.flags.writeable = False
    return w


@lru_cache(maxsize=4)
def _stencil_pattern(shape: tuple[int, ...], roles_bytes: bytes):
    """(indices, indptr, hits, b_indices, b_indptr, n_bdry): the read-only
    structure of A and B in `assemble_linearized` on one grid, keyed by its
    node roles (two restrictions of one grid differ only there).  A slot whose
    neighbour is a boundary node keeps its own row as the column; `hits` are
    those slots' flat positions, B's entries in row order.  Every axis wraps;
    on a bounded axis no interior node reaches the wrap."""
    roles = np.frombuffer(roles_bytes, dtype=np.uint8)
    int_flat = np.flatnonzero(roles == INTERIOR)
    bdry_flat = np.flatnonzero(roles == BOUNDARY)
    rank = np.full(roles.size, -1, dtype=np.int32)
    rank[int_flat] = np.arange(int_flat.size)
    rank[bdry_flat] = np.arange(bdry_flat.size)
    grid = np.arange(roles.size, dtype=np.int32).reshape(shape)
    axes = tuple(range(len(shape)))
    nb = np.stack([np.roll(grid, tuple(-off), axis=axes).reshape(-1)[int_flat]
                   for off in _stencil_offsets(len(shape) // 2)], axis=1)
    nb_roles = roles[nb]
    if np.any(nb_roles == EXTERIOR):
        raise DomainError("stencil reached an exterior node; bad mask")
    n_int, hit, cols = int_flat.size, nb_roles == BOUNDARY, rank[nb]
    b_indptr = np.zeros(n_int + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(hit, axis=1), out=b_indptr[1:])
    arrays = (np.where(hit, np.arange(n_int, dtype=np.int32)[:, None], cols).reshape(-1),
              np.arange(0, nb.size + 1, nb.shape[1], dtype=np.int32),
              np.flatnonzero(hit), cols[hit], b_indptr)
    for arr in arrays:
        arr.flags.writeable = False
    return (*arrays, bdry_flat.size)


def assemble_linearized(domain: GridDomain, coeff: np.ndarray):
    """Sparse interior operator and boundary coupling for per-node coefficient
    matrices F (shape (N_int, n, n), Hermitian).

    Returns (A, B) with A acting on interior values and B on boundary values,
    so that A v_int + B v_bdry = tr(F Hess v) = sum_{j,k} F^{k jbar}
    (Hess v)_{j kbar} at the interior nodes, with the Hessian of
    `grid.complex_hessian`: at the Newton coefficient, the derivative of the
    residual.

    Row i of A holds its S weights in the order of `_stencil_offsets`, so the
    data is the one product of F's real view with `_stencil_weights`.  A slot
    whose neighbour is a boundary node holds an explicit 0.0 at its own row's
    column, and its weight goes to B.  Where two offsets reach one neighbour
    (an axis of 1 or 2 nodes) the entries stay apart; the matvec and
    `diagonal()` sum them.
    """
    indices, indptr, hits, b_indices, b_indptr, n_bdry = _stencil_pattern(
        domain.shape, domain.roles.tobytes())
    f = np.ascontiguousarray(coeff, dtype=complex).reshape(-1, domain.n ** 2).view(float)
    data = (f @ _stencil_weights(domain.spacings, domain.n)).reshape(-1)
    b_data = data[hits]
    data[hits] = 0.0
    n_int = indptr.size - 1
    return (sp.csr_matrix((data, indices, indptr), shape=(n_int, n_int)),
            sp.csr_matrix((b_data, b_indices, b_indptr), shape=(n_int, n_bdry)))


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


def _along(x: np.ndarray, axis: int, q: np.ndarray, out: np.ndarray) -> np.ndarray:
    """q applied along one axis of x by one matmul on reshaped views into `out`
    (contiguous, of x's size): (rest, m) @ q^T for the last axis,
    q @ (before, m, after) otherwise (`tensordot` with `moveaxis` copies and is
    slower)."""
    shape, m = x.shape, x.shape[axis]
    if axis == x.ndim - 1:
        return np.matmul(x.reshape(-1, m), q.T, out=out.reshape(-1, m)).reshape(shape)
    xs = x.reshape(-1, m, int(np.prod(shape[axis + 1:])))
    return np.matmul(q, xs, out=out.reshape(xs.shape)).reshape(shape)


def _spectral_inverse(domain: GridDomain, fbar: np.ndarray):
    """Inverse of the constant-coefficient operator
    tr(fbar Hess v) = sum_{j,k} fbar^{k jbar} (Hess v)_{j kbar} on the interior
    box (`assemble_linearized` at fbar everywhere), as a map of flat interior
    vectors; None for a masked domain.

    Each second difference is diagonalized along its axis, symbol
    -(4/h^2) sin^2(theta/2); a mixed difference only by a DFT along both of its
    axes, symbol -(sin theta_a / h_a)(sin theta_b / h_b).  So the axes of the
    mixed pieces that pair two periodic axes take `rfftn`; every other axis
    takes the small dense eigenbasis of `_axis_basis`, one matmul each way.
    Mixed terms that involve a non-periodic axis are dropped, so the map is
    exact for the identity and on the torus (for a complex fbar too: there it
    inverts the Newton operator at the mean coefficient) and a preconditioner
    otherwise.
    On a fully periodic domain the zero mode (the constants) is passed through.
    """
    roles = domain.roles[domain.interior_box]
    if np.count_nonzero(domain.interior) != roles.size or np.any(roles != INTERIOR):
        return None
    import scipy.fft as sfft

    shape, d, h, periodic = roles.shape, roles.ndim, domain.spacings, domain.periodic
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
    if all(periodic):  # mode 0 is the constant on every axis
        sym[(0,) * d] = 1.0
    if not np.all(np.isfinite(sym)) or np.any(sym == 0.0):
        return None
    fft_shape = [shape[a] for a in fft_axes]
    buffers = (np.empty(shape), np.empty(shape))

    def apply(r: np.ndarray) -> np.ndarray:
        # intermediates alternate between two buffers that every application
        # reuses; the result is new, as BiCGStab keeps it past the next one
        x, outs = np.reshape(r, shape), iter(buffers * len(dense))
        for a, (q, _) in dense.items():
            x = _along(x, a, q.T, next(outs))
        if fft_axes:
            x = sfft.irfftn(sfft.rfftn(x, axes=fft_axes) / sym, s=fft_shape,
                            axes=fft_axes)
        else:  # then every axis is dense
            x = np.divide(x, sym, out=next(outs))
        for i, (a, (q, _)) in enumerate(dense.items(), 1):
            x = _along(x, a, q, next(outs) if i < len(dense) else np.empty(shape))
        return x.reshape(-1)

    return apply


def _solve_general(a: sp.csr_matrix, b: np.ndarray, inverse=None, seed: int = 0,
                   rtol: float = LIN_TOL):
    """BiCGStab to the relative residual `rtol` on the system of a sparse
    matrix or a `_bordered_operator` a; returns (x, krylov_iters).

    The run starts from a random start drawn with `seed` and is preconditioned
    by the map of vectors `inverse` (such as `_spectral_inverse` at the mean
    coefficient) or, when there is none, by the diagonal.  The system is scaled to
    sup |b| = 1 first: scipy's breakdown tests are absolute (|rho| < eps^2),
    and the small right-hand sides of the last Newton steps would trip them.
    The certificate is the true residual |A x - b|_2 <= 10 rtol |b|_2; a run
    that converges without it restarts once from its result, and a breakdown
    or a second miss raises `NumericError`.  `rtol` is `LIN_TOL` except for a
    Newton step, whose forcing floor raises it to 0.5 tol / |r|_2 when that is
    larger (see `_damped_newton`).
    Iterations are counted as preconditioner applications, two per iteration
    and one on a final half step, which scipy's `callback` misses.
    """
    n = a.shape[0]
    if inverse is None:
        diag = a.diagonal()
        inv_diag = 1.0 / np.where(np.abs(diag) > 0, diag, 1.0)
        inverse = lambda r: inv_diag * r
    applied = [0]  # preconditioner applications per run

    def precondition(r):
        applied[-1] += 1
        return inverse(r)

    scale = float(np.max(np.abs(b), initial=0.0)) or 1.0
    bs = b / scale
    bnorm = float(np.linalg.norm(bs))
    rng = np.random.default_rng(seed)
    x0 = 1e-3 * rng.standard_normal(n) * (bnorm / np.sqrt(n) + 1e-30)

    def certified(x):  # false for non-finite x too
        return float(np.linalg.norm(a @ x - bs)) <= 10.0 * rtol * (bnorm + 1e-30)

    krylov = dict(rtol=rtol, atol=0.0, maxiter=40 * int(np.sqrt(n) + 10),
                  M=spla.LinearOperator(a.shape, matvec=precondition, dtype=float))
    x, info = spla.bicgstab(a, bs, x0=x0, **krylov)
    if info == 0 and not certified(x):  # converged on the recurrence residual only
        applied.append(0)
        x, info = spla.bicgstab(a, bs, x0=x, **krylov)
    iters = sum((k + 1) // 2 for k in applied)
    if info != 0 or not certified(x):
        raise NumericError(f"BiCGStab failed on {n} unknowns after {iters} "
                           f"iterations (info={info})")
    return scale * x, iters


# ------------------------------------------------------------------ Poisson


def poisson_dirichlet(domain: GridDomain, rhs, bc=0.0) -> ScalarField:
    """Solve chern_laplacian(h) = rhs with h = bc on the boundary.

    The spectral inverse solves the system directly on an unmasked box; the
    sup-norm residual is certified at POISSON_SUP_TOL * (1 + |rhs|_inf).  When
    that certificate fails, or on a masked domain (no spectral inverse), one
    `_solve_general` pass on the residual refines the solution, preconditioned
    by the spectral inverse or by the diagonal; a second miss raises
    `NumericError`.
    """
    if not domain.boundary.any():
        raise DomainError("poisson_dirichlet needs a domain with boundary")
    rhs_vals, bc_vals = (x.values if isinstance(x, ScalarField) else
                         np.broadcast_to(np.asarray(x, dtype=float), domain.shape)
                         for x in (rhs, bc))
    n = domain.n
    eye = np.broadcast_to(np.eye(n, dtype=complex), (int(domain.interior.sum()), n, n))
    a, b = assemble_linearized(domain, eye)
    u_b = bc_vals.reshape(-1)[domain.roles.reshape(-1) == BOUNDARY]
    rhs_eff = rhs_vals[domain.interior] - b @ u_b
    target = POISSON_SUP_TOL * (1.0 + float(np.max(np.abs(rhs_vals[domain.interior]))))
    solve = _spectral_inverse(domain, np.eye(n))
    x = np.zeros(rhs_eff.size) if solve is None else solve(rhs_eff)
    resid = rhs_eff - a @ x
    if float(np.max(np.abs(resid), initial=0.0)) > target:
        x = x + _solve_general(a, resid, solve)[0]
        miss = float(np.max(np.abs(rhs_eff - a @ x), initial=0.0))
        if miss > target:
            raise NumericError(f"Poisson solve: sup residual {miss:.3e} above "
                               f"target {target:.3e} after one BiCGStab pass")
    out = np.zeros(domain.shape)
    out[domain.boundary] = bc_vals[domain.boundary]
    out[domain.interior] = x
    return ScalarField(domain, out)


def s_factor_potential(domain: GridDomain) -> ScalarField:
    """h on a product domain, constant along the X factor, where h on the
    box of the S factor solves chern_laplacian(h) = 1 with h = 0 on its
    boundary (negative inside)."""
    if domain.kind != "product":
        raise DomainError("S factor only exists for product domains")
    s = slice(len(domain.shape) - 2, None)
    s_dom = GridDomain.product(1, s_shape=domain.shape[s], s_lengths=domain.lengths[s],
                               s_periodic=domain.periodic[s])
    h = poisson_dirichlet(s_dom, 1.0, 0.0).values
    return ScalarField(domain, np.broadcast_to(h, domain.shape).copy())


# ------------------------------------------------- sub- and supersolutions


def build_subsolution(
    spec: ProblemSpec, delta: float, t_max: float = LADDER_T_MAX
) -> tuple[ScalarField, float]:
    """phi + t * `s_factor_potential`, smallest t of 0 and the geometric ladder
    with lambda(g) in Gamma and f >= psi + delta at every interior node."""
    if spec.mode != "dirichlet" or spec.domain.kind != "product":
        raise DomainError("subsolution construction needs a Dirichlet product domain")
    if delta <= 0:
        raise DomainError("strictness delta must be positive")
    h = s_factor_potential(spec.domain)
    strict = replace(spec, psi=ScalarField(spec.domain, spec.psi.values + delta))
    last_reason = ""
    for t in [0.0, *_ladder(t_max)]:
        u_vals = spec.phi.values + t * h.values
        short, lam, _ = residual_field(strict, u_vals)
        if short is None:
            bad = int(np.argmin(in_cone(lam, spec.family.k)))
            last_reason = f"cone violation at interior node #{bad} for t={t}"
        elif np.all(short >= 0.0):
            return ScalarField(spec.domain, u_vals), float(t)
        else:
            last_reason = (f"level short by {-float(short.min()):.3e} at interior "
                           f"node #{int(np.argmin(short))} for t={t}")
    raise ConstructionError(f"subsolution ladder exhausted: {last_reason}")


def build_supersolution(spec: ProblemSpec) -> ScalarField:
    """Solution of chern_laplacian(v) + tr(chi) = 0 with v = phi on the boundary."""
    if spec.mode != "dirichlet":
        raise DomainError("supersolution needs Dirichlet mode")
    tr = np.trace(spec.chi.values, axis1=-2, axis2=-1).real
    return poisson_dirichlet(spec.domain, ScalarField(spec.domain, -tr), spec.phi)


def _bordered_operator(a: sp.csr_matrix) -> spla.LinearOperator:
    """[[A, -1], [1^T, 0]] as an operator around the square matrix A:
    (v, dc) -> (A v - dc * 1, sum(v)), with the bordered matrix's diagonal
    (diag A, then 0) for the diagonal preconditioner; no (N+1) matrix is built."""
    n = a.shape[0]

    def matvec(x: np.ndarray) -> np.ndarray:
        out = np.empty(n + 1)
        np.subtract(a @ x[:n], x[n], out=out[:n])
        out[n] = x[:n].sum()
        return out

    op = spla.LinearOperator((n + 1, n + 1), matvec=matvec, dtype=float)
    op.diagonal = lambda: np.append(a.diagonal(), 0.0)
    return op


def _bordered_inverse(inverse):
    """The exact inverse of [[Abar, -1], [1^T, 0]] from a map P that inverts a
    constant-coefficient torus operator Abar on zero-mean vectors (constants
    span both its null spaces; P passes them through): for the right-hand
    side (f, s), dc = -mean(f) and v = P(f - mean f) + s / N.  None for None."""

    def apply(y: np.ndarray) -> np.ndarray:
        f = y[:-1]
        mean = f.mean()
        return np.append(inverse(f - mean) + y[-1] / f.size, -mean)

    return None if inverse is None else apply


def _solve_bordered(a: sp.csr_matrix, r: np.ndarray, inverse, seed: int = 0,
                    rtol: float = LIN_TOL):
    """Solve the (N+1)-dimensional bordered system

        A v - dc * 1 = -r,   sum(v) = 0

    by one `_solve_general` call on `_bordered_operator`(A) to the relative
    residual `rtol`, preconditioned by `_bordered_inverse` of the map
    `inverse` or, when there is none, by the diagonal: diag A, then 1 for the
    constant.  Returns (v, dc, the Krylov iterations)."""
    n = r.size
    try:
        x, iters = _solve_general(_bordered_operator(a), np.append(-r, 0.0),
                                  _bordered_inverse(inverse), seed, rtol)
    except NumericError as exc:
        raise GaugeError(f"augmented system failed: {exc}") from exc
    return x[:n] - x[:n].sum() / n, float(x[n]), iters


# ------------------------------------------------------------------ Newton

def _damped_newton(spec: ProblemSpec, u: np.ndarray, opts: SolverOptions):
    """Damped Newton on the interior values of u, and on c in closed mode.

    Each step linearizes at u and solves for the update: the bordered system
    with the zero-mean gauge in closed mode, the plain Newton system in
    Dirichlet mode (boundary values stay fixed).  The step is halved until the
    iterate stays admissible and the sup-norm residual decreases; the accepted
    trial's g and eigenvalues give the next step's coefficient.  Each step
    makes one BiCGStab solve, preconditioned by `_spectral_inverse` at the
    mean Newton coefficient, to the relative residual
    rtol = max(LIN_TOL, 0.5 tol / |r|_2).  BiCGStab then stops at a linear
    residual |A v + r|_2 <= max(LIN_TOL |r|_2, 0.5 tol): near the solution at
    most 0.5 tol in the 2-norm, so in the sup norm, and the last step reaches
    tol without being solved further.  The stop is still the true sup-norm
    residual <= tol.
    Returns (u, c, residual history, Krylov iterations per step).
    """
    dom = spec.domain
    tol = opts.residual_scale * (1.0 + float(np.max(np.abs(spec.psi.values[~dom.exterior]))))
    c = 0.0
    r, lam, g = residual_field(spec, u, c)
    if r is None:
        raise AdmissibilityError("initial iterate not admissible")
    res = float(np.max(np.abs(r)))
    history = [res]
    solves: list[int] = []
    for _ in range(opts.max_newton):
        if res <= tol:
            break
        coeff = _newton_coefficient(spec.family, g, lam)
        a, _ = assemble_linearized(dom, coeff)
        inverse = _spectral_inverse(dom, coeff.mean(axis=0))
        rtol = max(LIN_TOL, 0.5 * tol / float(np.linalg.norm(r)))
        if spec.mode == "closed":
            v, dc, iters = _solve_bordered(a, r, inverse, opts.seed, rtol)
        else:
            (v, iters), dc = _solve_general(a, -r, inverse, opts.seed, rtol), 0.0
        solves.append(iters)
        step = 1.0
        admissible_seen = False
        while step >= DAMPING_MIN:
            trial = u.copy()
            trial[dom.interior] += step * v
            c_t = c + step * dc
            r_t, lam_t, g_t = residual_field(spec, trial, c_t)
            if r_t is not None:
                admissible_seen = True
                res_t = float(np.max(np.abs(r_t)))
                if res_t < res:
                    u, c, r, res, lam, g = trial, c_t, r_t, res_t, lam_t, g_t
                    history.append(res)
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
    return u, c, history, solves


def solve_dirichlet(spec: ProblemSpec, opts: SolverOptions | None = None) -> SolveResult:
    """Damped Newton from `build_subsolution` at `opts.delta`, returned as
    `SolveResult.subsolution`; optional continuation ladder.

    On a stall the solve restarts along the continuation family
    psi_s = (1 - s) f(lambda(g[subsolution])) + s psi with 8 uniform steps,
    bisected adaptively on further stalls.
    """
    opts = opts or SolverOptions()
    if spec.mode != "dirichlet":
        raise DomainError("solve_dirichlet needs Dirichlet mode")
    if spec.degenerate:
        raise AdmissibilityError("degenerate right-hand side: use degenerate_sweep")
    usub, _ = build_subsolution(spec, opts.delta)
    dom = spec.domain
    u0 = usub.values.copy()
    u0[dom.boundary] = spec.phi.values[dom.boundary]  # phi + t h turns -0.0 to +0.0
    if opts.continuation is None:
        try:
            u, _, history, solves = _damped_newton(spec, u0, opts)
            return SolveResult(ScalarField(dom, u), None, len(history) - 1,
                               history, solves, usub)
        except StallError:
            opts = replace(opts, continuation=8)
    # continuation ladder from the subsolution level
    f0 = np.zeros(dom.shape)
    f0[dom.interior] = eval_f(spec.family, residual_field(spec, usub.values)[1])
    current = u0
    s_values = list(np.linspace(0.0, 1.0, opts.continuation + 1)[1:])
    total_iters = 0
    history_all: list[float] = []
    solves_all: list[int] = []
    s_prev = 0.0
    guard = 0
    while s_values:
        s = s_values[0]
        psi_s = ScalarField(dom, (1.0 - s) * f0 + s * spec.psi.values)
        try:
            current, _, history, solves = _damped_newton(
                replace(spec, psi=psi_s), current, opts)
            total_iters += len(history) - 1
            history_all.extend(history)
            solves_all.extend(solves)
            s_prev = s
            s_values.pop(0)
        except StallError:
            guard += 1
            if guard > 24 or s - s_prev < 1e-6:
                raise
            s_values.insert(0, 0.5 * (s_prev + s))
    return SolveResult(ScalarField(dom, current), None, total_iters, history_all,
                       solves_all, usub)


def solve_closed(spec: ProblemSpec, opts: SolverOptions | None = None) -> SolveResult:
    """Augmented Newton for (u, c) with the zero-mean gauge on updates;
    normalizes sup u = 0 after convergence."""
    opts = opts or SolverOptions()
    if spec.mode != "closed":
        raise DomainError("solve_closed needs closed mode")
    u, c, history, solves = _damped_newton(spec, np.zeros(spec.domain.shape), opts)
    u = u - float(np.max(u))  # the equation sees only the Hessian; c is unchanged
    return SolveResult(ScalarField(spec.domain, u), float(c), len(history) - 1,
                       history, linear_solves=solves)


# ------------------------------------------------------------------ sweeps


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
    if spec.mode != "dirichlet":
        raise DomainError("degenerate sweep needs Dirichlet mode")
    ladder = _decreasing(ladder, "ladder")
    report = SweepReport(epsilons=[], rhos=[], results=[], cauchy=[])
    live = ~spec.domain.exterior
    prev = None
    for eps in ladder:
        rho = 0.5 * eps
        psi_k = ScalarField(spec.domain, spec.psi.values + rho)
        try:
            res = solve_dirichlet(replace(spec, psi=psi_k), opts)
        except HclError as exc:
            report.error = f"solve at eps={eps} failed: {exc}"
            return report
        report.epsilons.append(eps)
        report.rhos.append(rho)
        report.results.append(res)
        if prev is not None:
            report.cauchy.append(
                float(np.max(np.abs(res.u.values[live] - prev.values[live])))
            )
        prev = res.u
    if perturbed_phi is not None and report.results:
        psi_k = ScalarField(spec.domain, spec.psi.values + 0.5 * ladder[-1])
        try:
            res_p = solve_dirichlet(replace(spec, psi=psi_k, phi=perturbed_phi), opts)
        except HclError as exc:
            report.error = f"perturbed solve failed: {exc}"
            return report
        report.stability_diff = float(
            np.max(np.abs(res_p.u.values[live] - report.results[-1].u.values[live]))
        )
        bdry = spec.domain.boundary
        report.stability_bound = float(
            np.max(np.abs(perturbed_phi.values[bdry] - spec.phi.values[bdry]))
        )
    return report


def domain_exhaustion(
    spec: ProblemSpec, levels, opts: SolverOptions | None = None
) -> ExhaustionReport:
    """Solve on the nested sub-domains {h < -alpha_k} cut by the S-factor
    Poisson potential, and report sup-norm differences on common interiors.
    The levels alpha_k must be positive and strictly decreasing, so that the
    sub-domains grow and nest."""
    opts = opts or SolverOptions()
    if spec.domain.kind != "product":
        raise DomainError("exhaustion needs a product domain")
    levels = _decreasing(levels, "levels")
    h = s_factor_potential(spec.domain)
    full = solve_dirichlet(spec, opts)
    report = ExhaustionReport(levels=[], interior_counts=[], results=[],
                              diffs_to_full=[], consecutive_diffs=[])
    prev = None
    for alpha in levels:
        sub = spec.domain.restrict(h.values < -alpha)
        spec_k = replace(
            spec,
            domain=sub,
            chi=HermitianField(sub, spec.chi.values),
            psi=ScalarField(sub, spec.psi.values),
            phi=ScalarField(sub, spec.phi.values),
        )
        res = solve_dirichlet(spec_k, opts)
        report.levels.append(alpha)
        report.interior_counts.append(int(sub.interior.sum()))
        report.results.append(res)
        report.diffs_to_full.append(
            float(np.max(np.abs(res.u.values[sub.interior]
                                - full.u.values[sub.interior])))
        )
        if prev is not None:
            common = prev[0].interior & sub.interior
            report.consecutive_diffs.append(
                float(np.max(np.abs(res.u.values[common] - prev[1].u.values[common])))
            )
        prev = (sub, res)
    return report


# ---------------------------------------------------------------- estimates


def verify_estimates(
    result: SolveResult, spec: ProblemSpec, usub: ScalarField, usuper: ScalarField
) -> EstimateReport:
    """Sandwich usub <= u <= usuper, normal-derivative ordering (both within
    ESTIMATE_SLACK) and the quadratic-growth ratios.

    The second-order ratio is sup |ddbar u| / (1 + sup |grad u|^2); the
    boundary ratio is max over boundary nodes of
    g_{n nbar} / (1 + sum_alpha |g_{alpha nbar}|^2), the quantity the
    localization lemma bounds.
    """
    dom = spec.domain
    u = result.u
    hess = complex_hessian(u)
    live = ~dom.exterior
    lam_u = _eigvalsh(hess[dom.interior])
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
            scale = ESTIMATE_SLACK * (1.0 + float(np.max(np.abs(mid))))
            normal_order_ok &= bool(np.all(lo <= mid + scale))
            normal_order_ok &= bool(np.all(mid <= hi + scale))
        gb = (spec.chi.values + hess)[dom.boundary]
        n = dom.n
        num = gb[:, n - 1, n - 1].real
        den = 1.0 + np.sum(np.abs(gb[: , : n - 1, n - 1]) ** 2, axis=-1)
        bdry_ratio = float(np.max(num / den))

    return EstimateReport(
        sup_dbar=sup_dbar,
        grad_sq=grad_sq,
        ratio2nd=ratio2nd,
        sandwich_ok=sandwich_ok,
        normal_order_ok=normal_order_ok,
        bdry_ratio=bdry_ratio,
    )
