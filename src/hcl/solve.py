"""Newton/continuation solvers for f(lambda[chi + i ddbar u]) = psi.

One damped-Newton core serves both modes: every accepted step must keep
lambda(g[u]) inside the cone at all interior nodes and decrease the sup-norm
residual.  Closed mode solves for the pair (u, c) in f(...) = psi + c on a
fully periodic domain with a zero-mean gauge on the updates and sup u = 0
applied after convergence.  Dirichlet mode starts from a strict subsolution
with u = phi on the boundary, optionally along a continuation ladder.  Linear
sub-solves use diagonally preconditioned CG for the symmetric
constant-coefficient systems and a sparse direct factorization (BiCGStab above
the size threshold) for the nonsymmetric Newton systems.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    AdmissibilityError,
    ConeExitError,
    ConstructionError,
    DomainError,
    GaugeError,
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
    complex_hessian,
    gradient_sup,
)
from .symfunc import FuncFamily, boundary_sup, eval_f, grad_f, in_cone

__all__ = [
    "ProblemSpec",
    "SolverOptions",
    "SolveResult",
    "EstimateReport",
    "SweepReport",
    "ExhaustionReport",
    "poisson_dirichlet",
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
    damping_min: float = 1e-12
    delta: float = 0.1  # subsolution strictness
    lin_tol: float = 1e-11
    linear_solver: str = "auto"  # auto | direct | iterative
    continuation: int | None = None  # number of uniform steps; None = direct
    seed: int = 0
    subsolution: ScalarField | None = None


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
    admissible: bool
    estimates: EstimateReport | None = None


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


def _interior_info(domain: GridDomain):
    roles = domain.roles.reshape(-1)
    int_flat = np.flatnonzero(roles == INTERIOR)
    rank = np.full(roles.size, -1, dtype=np.int64)
    rank[int_flat] = np.arange(int_flat.size)
    return int_flat, rank


def _g_interior(spec_chi: np.ndarray, u_vals: np.ndarray, domain: GridDomain):
    """chi + complex Hessian of u at the interior nodes, stacked (N_int, n, n)."""
    hess = complex_hessian(ScalarField(domain, u_vals)).values
    g = spec_chi + hess
    return g[domain.interior]


def residual_field(spec: ProblemSpec, u_vals: np.ndarray, c: float = 0.0):
    """(residual over interior nodes, admissible flag, eigenvalues)."""
    g = _g_interior(spec.chi.values, u_vals, spec.domain)
    lam = np.linalg.eigvalsh(g)
    ok = in_cone(lam, spec.family.k)
    if not np.all(ok):
        return None, False, lam
    psi_int = spec.psi.values[spec.domain.interior]
    r = eval_f(spec.family, lam) - psi_int - c
    return r, True, lam


def _stencil_entries(family_n: int, spacings, coeff: np.ndarray):
    """Map offset tuple -> coefficient array over interior nodes for the
    linearized operator sum_{j,k} F^{j kbar} (Hess v)_{j kbar}."""
    entries: dict[tuple[int, ...], np.ndarray] = {}
    d = 2 * family_n

    def add(off, val):
        off = tuple(off)
        if off in entries:
            entries[off] = entries[off] + val
        else:
            entries[off] = val.copy() if isinstance(val, np.ndarray) else val

    def unit(ax, s):
        off = [0] * d
        off[ax] = s
        return off

    for j in range(family_n):
        fjj = coeff[:, j, j].real
        for ax in (2 * j, 2 * j + 1):
            w = 0.25 * fjj / spacings[ax] ** 2
            add(unit(ax, +1), w)
            add(unit(ax, -1), w)
            add([0] * d, -2.0 * w)
    for j in range(family_n):
        for k in range(j + 1, family_n):
            c_re = coeff[:, j, k].real
            c_im = coeff[:, j, k].imag
            pieces = (
                (2 * j, 2 * k, 0.5 * c_re),
                (2 * j + 1, 2 * k + 1, 0.5 * c_re),
                (2 * j, 2 * k + 1, -0.5 * c_im),
                (2 * j + 1, 2 * k, 0.5 * c_im),
            )
            for ax_a, ax_b, fac in pieces:
                w = fac / (4.0 * spacings[ax_a] * spacings[ax_b])
                for sa in (+1, -1):
                    for sb in (+1, -1):
                        off = [0] * d
                        off[ax_a] = sa
                        off[ax_b] = sb
                        add(off, w * sa * sb)
    return entries


def assemble_linearized(domain: GridDomain, coeff: np.ndarray):
    """Sparse interior operator and boundary coupling for per-node coefficient
    matrices F (shape (N_int, n, n), Hermitian).

    Returns (A, B) with A acting on interior values and B on boundary values,
    so that the discrete operator is A v_int + B v_bdry.
    """
    int_flat, rank = _interior_info(domain)
    roles = domain.roles.reshape(-1)
    flat = np.arange(roles.size).reshape(domain.shape)
    entries = _stencil_entries(domain.n, domain.spacings, coeff)

    bdry_flat = np.flatnonzero(roles == BOUNDARY)
    bdry_rank = np.full(roles.size, -1, dtype=np.int64)
    bdry_rank[bdry_flat] = np.arange(bdry_flat.size)

    rows_a, cols_a, vals_a = [], [], []
    rows_b, cols_b, vals_b = [], [], []
    n_int = int_flat.size
    for off, val in entries.items():
        nb = flat
        for ax, s in enumerate(off):
            if s:
                nb = np.roll(nb, -s, axis=ax)
        nb_flat = nb.reshape(-1)[int_flat]
        nb_roles = roles[nb_flat]
        if np.any(nb_roles == EXTERIOR):
            raise DomainError("stencil reached an exterior node; bad mask")
        vv = val if isinstance(val, np.ndarray) else np.full(n_int, val)
        m_int = nb_roles == INTERIOR
        rows_a.append(np.arange(n_int)[m_int])
        cols_a.append(rank[nb_flat[m_int]])
        vals_a.append(vv[m_int])
        m_b = ~m_int
        if m_b.any():
            rows_b.append(np.arange(n_int)[m_b])
            cols_b.append(bdry_rank[nb_flat[m_b]])
            vals_b.append(vv[m_b])
    a = sp.csr_matrix(
        (np.concatenate(vals_a), (np.concatenate(rows_a), np.concatenate(cols_a))),
        shape=(n_int, n_int),
    )
    if rows_b:
        b = sp.csr_matrix(
            (np.concatenate(vals_b), (np.concatenate(rows_b), np.concatenate(cols_b))),
            shape=(n_int, bdry_flat.size),
        )
    else:
        b = sp.csr_matrix((n_int, bdry_flat.size))
    return a, b


def _solve_spd(a_neg: sp.csr_matrix, b: np.ndarray, sup_target: float):
    """Diagonally preconditioned CG on the SPD system; certify the sup-norm.

    CG's recurrence residual drifts from the true one near machine precision
    on large grids, so the solve finishes with iterative refinement against
    freshly computed residuals until the sup-norm target holds.
    """
    diag = a_neg.diagonal()
    m = sp.diags(1.0 / diag)
    maxiter = 200 * int(np.sqrt(b.size) + 10)
    x, info = spla.cg(a_neg, b, rtol=0.0, atol=0.25 * sup_target, M=m,
                      maxiter=maxiter)
    resid = b - a_neg @ x
    for _ in range(4):
        if float(np.max(np.abs(resid))) <= sup_target:
            return x
        d, info = spla.cg(a_neg, resid, rtol=1e-2, atol=0.0, M=m,
                          maxiter=maxiter)
        x = x + d
        resid = b - a_neg @ x
    if float(np.max(np.abs(resid))) > sup_target:
        raise NumericError(
            f"CG stalled: sup residual {np.max(np.abs(resid)):.3e} "
            f"above target {sup_target:.3e} (info={info})"
        )
    return x


def _solve_general(a: sp.csr_matrix, b: np.ndarray, opts: SolverOptions):
    """Nonsymmetric sparse solve: diagonally preconditioned BiCGStab with a
    fixed seeded start, falling back to a direct factorization when the
    iteration fails to certify its relative tolerance."""
    n = a.shape[0]
    if opts.linear_solver == "direct" or (
        opts.linear_solver == "auto" and n <= 2000
    ):
        return spla.spsolve(a.tocsc(), b)
    diag = a.diagonal()
    diag = np.where(np.abs(diag) > 0, diag, 1.0)
    m = sp.diags(1.0 / diag)
    rng = np.random.default_rng(opts.seed)
    bnorm = float(np.linalg.norm(b))
    x0 = 1e-3 * rng.standard_normal(n) * (bnorm / np.sqrt(n) + 1e-30)
    x, info = spla.bicgstab(a, b, x0=x0, rtol=opts.lin_tol, atol=0.0, M=m,
                            maxiter=40 * int(np.sqrt(n) + 10))
    if info != 0 or not np.all(np.isfinite(x)) or (
        float(np.linalg.norm(a @ x - b)) > 10.0 * opts.lin_tol * (bnorm + 1e-30)
    ):
        x = spla.spsolve(a.tocsc(), b)
    return x


# ------------------------------------------------------------------ Poisson


def poisson_dirichlet(
    domain: GridDomain, rhs, bc=0.0, sup_tol: float = 1e-10
) -> ScalarField:
    """Solve chern_laplacian(h) = rhs with h = bc on the boundary.

    Conjugate gradient on the symmetric positive-definite (negated) 5-point
    system; sup-norm residual certified at sup_tol * (1 + |rhs|_inf).
    """
    if not domain.boundary.any():
        raise DomainError("poisson_dirichlet needs a domain with boundary")
    rhs_vals = rhs.values if isinstance(rhs, ScalarField) else (
        np.full(domain.shape, float(rhs)) if np.isscalar(rhs) else np.asarray(rhs)
    )
    bc_vals = bc.values if isinstance(bc, ScalarField) else (
        np.full(domain.shape, float(bc)) if np.isscalar(bc) else np.asarray(bc)
    )
    n = domain.n
    coeff = np.zeros((int(domain.interior.sum()), n, n), dtype=complex)
    coeff[:, np.arange(n), np.arange(n)] = 1.0
    a, b = assemble_linearized(domain, coeff)
    u_b = bc_vals.reshape(-1)[domain.roles.reshape(-1) == BOUNDARY]
    rhs_eff = rhs_vals[domain.interior] - b @ u_b
    target = sup_tol * (1.0 + float(np.max(np.abs(rhs_vals[domain.interior]))))
    x = _solve_spd(-a, -rhs_eff, target)
    out = np.zeros(domain.shape)
    out[domain.boundary] = bc_vals[domain.boundary]
    out[domain.interior] = x
    return ScalarField(domain, out)


def s_factor_domain(domain: GridDomain) -> GridDomain:
    """The one-complex-variable S factor of a product domain."""
    if domain.kind != "product":
        raise DomainError("S factor only exists for product domains")
    d = len(domain.shape)
    return GridDomain.product(
        1,
        x_shape=(),
        s_shape=domain.shape[d - 2 :],
        s_lengths=domain.lengths[d - 2 :],
        s_periodic=domain.periodic[d - 2 :],
    )


def pullback_from_s(domain: GridDomain, s_field: ScalarField) -> ScalarField:
    """Extend a field on the S factor constantly along the X factor."""
    d = len(domain.shape)
    shape = (1,) * (d - 2) + domain.shape[d - 2 :]
    return ScalarField(
        domain, np.broadcast_to(s_field.values.reshape(shape), domain.shape).copy()
    )


# ------------------------------------------------- sub- and supersolutions


def build_subsolution(
    spec: ProblemSpec, delta: float, t_max: float = float(2 ** 20)
) -> tuple[ScalarField, float]:
    """phi + t * (pullback of the S-factor Poisson potential), smallest ladder t
    with lambda(g) in Gamma and f >= psi + delta at every interior node."""
    if spec.mode != "dirichlet" or spec.domain.kind != "product":
        raise DomainError("subsolution construction needs a Dirichlet product domain")
    if delta <= 0:
        raise DomainError("strictness delta must be positive")
    s_dom = s_factor_domain(spec.domain)
    h_s = poisson_dirichlet(s_dom, 1.0, 0.0)
    h = pullback_from_s(spec.domain, h_s)
    psi_int = spec.psi.values[spec.domain.interior]
    ladder = [0.0] + [2.0 ** j for j in range(0, int(np.log2(t_max)) + 1)]
    last_reason = ""
    for t in ladder:
        u_vals = spec.phi.values + t * h.values
        g = _g_interior(spec.chi.values, u_vals, spec.domain)
        lam = np.linalg.eigvalsh(g)
        ok = in_cone(lam, spec.family.k)
        if not np.all(ok):
            bad = int(np.flatnonzero(~ok)[0])
            last_reason = f"cone violation at interior node #{bad} for t={t}"
            continue
        vals = eval_f(spec.family, lam)
        short = vals - (psi_int + delta)
        if np.all(short >= 0.0):
            return ScalarField(spec.domain, u_vals), float(t)
        bad = int(np.argmin(short))
        last_reason = (
            f"level short by {-float(short.min()):.3e} at interior node #{bad} "
            f"for t={t}"
        )
    raise ConstructionError(f"subsolution ladder exhausted: {last_reason}")


def build_supersolution(spec: ProblemSpec) -> ScalarField:
    """Solution of chern_laplacian(v) + tr(chi) = 0 with v = phi on the boundary."""
    if spec.mode != "dirichlet":
        raise DomainError("supersolution needs Dirichlet mode")
    tr = np.trace(spec.chi.values, axis1=-2, axis2=-1).real
    return poisson_dirichlet(spec.domain, ScalarField(spec.domain, -tr), spec.phi)


def _solve_bordered(a: sp.csr_matrix, r: np.ndarray, n_nodes: int,
                    opts: SolverOptions):
    """Solve the (N+1)-dimensional bordered system

        A v - dc * 1 = -r,   sum(v) = 0

    by block elimination: A annihilates constants, so pinning node 0 makes the
    operator invertible; two solves with the pinned operator recover (v, dc)
    exactly."""
    a_csr = a.tocsr()
    pinned = a.tolil()
    pinned.rows[0] = [0]
    pinned.data[0] = [1.0]
    pinned = pinned.tocsr()
    b1 = -r.copy()
    b1[0] = 0.0
    b2 = np.ones(n_nodes)
    b2[0] = 0.0
    try:
        x1 = _solve_general(pinned, b1, opts)
        x2 = _solve_general(pinned, b2, opts)
    except Exception as exc:
        raise GaugeError(f"augmented system failed: {exc}") from exc
    if not (np.all(np.isfinite(x1)) and np.all(np.isfinite(x2))):
        raise GaugeError("augmented system produced non-finite update")
    # enforce the original row 0 and the zero-mean gauge
    row0_x1 = float((a_csr[0] @ x1)[0])
    row0_x2 = float((a_csr[0] @ x2)[0])
    denom = row0_x2 - 1.0
    if abs(denom) < 1e-14:
        raise GaugeError("bordered system singular: gauge column degenerate")
    dc = -(float(r[0]) + row0_x1) / denom
    v = x1 + dc * x2
    v -= v.sum() / n_nodes
    return v, float(dc)


# ------------------------------------------------------------------ Newton


def _damped_newton(spec: ProblemSpec, u: np.ndarray, opts: SolverOptions):
    """Damped Newton on the interior values of u, and on c in closed mode.

    Each step linearizes at u and solves for the update: the bordered system
    with the zero-mean gauge in closed mode, the plain Newton system in
    Dirichlet mode (boundary values stay fixed).  The step is halved until the
    iterate stays admissible and the sup-norm residual decreases.
    Returns (u, c, residual history).
    """
    dom = spec.domain
    tol = opts.residual_scale * (1.0 + float(np.max(np.abs(spec.psi.values[~dom.exterior]))))
    c = 0.0
    r, adm, _ = residual_field(spec, u, c)
    if not adm:
        raise AdmissibilityError("initial iterate not admissible")
    res = float(np.max(np.abs(r)))
    history = [res]
    for _ in range(opts.max_newton):
        if res <= tol:
            break
        g = _g_interior(spec.chi.values, u, dom)
        lam_g, p = np.linalg.eigh(g)
        coeff = np.einsum("nik,nk,njk->nij", p, grad_f(spec.family, lam_g), p.conj())
        a, _ = assemble_linearized(dom, coeff)
        if spec.mode == "closed":
            v, dc = _solve_bordered(a, r, r.size, opts)
        else:
            v, dc = _solve_general(a, -r, opts), 0.0
        step = 1.0
        admissible_seen = False
        while step >= opts.damping_min:
            trial = u.copy()
            trial[dom.interior] += step * v
            c_t = c + step * dc
            r_t, adm_t, _ = residual_field(spec, trial, c_t)
            if adm_t:
                admissible_seen = True
                res_t = float(np.max(np.abs(r_t)))
                if res_t < res:
                    u, c, r, res = trial, c_t, r_t, res_t
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
    return u, c, history


def solve_dirichlet(spec: ProblemSpec, opts: SolverOptions | None = None) -> SolveResult:
    """Damped Newton from a strict subsolution; optional continuation ladder.

    On a stall the solve restarts along the continuation family
    psi_s = (1 - s) f(lambda(g[subsolution])) + s psi with 8 uniform steps,
    bisected adaptively on further stalls.
    """
    opts = opts or SolverOptions()
    if spec.degenerate:
        raise AdmissibilityError("degenerate right-hand side: use degenerate_sweep")
    if opts.subsolution is not None:
        usub = opts.subsolution
    else:
        usub, _ = build_subsolution(spec, opts.delta)
    dom = spec.domain
    u0 = usub.values.copy()
    u0[dom.boundary] = spec.phi.values[dom.boundary]
    if opts.continuation is None:
        try:
            u, _, history = _damped_newton(spec, u0, opts)
            return SolveResult(ScalarField(dom, u), None, len(history) - 1,
                               history, True)
        except StallError:
            opts = replace(opts, continuation=8)
    # continuation ladder from the subsolution level
    g0 = _g_interior(spec.chi.values, usub.values, dom)
    lam0 = np.linalg.eigvalsh(g0)
    f0 = np.zeros(dom.shape)
    f0[dom.interior] = eval_f(spec.family, lam0)
    current = u0
    s_values = list(np.linspace(0.0, 1.0, opts.continuation + 1)[1:])
    total_iters = 0
    history_all: list[float] = []
    s_prev = 0.0
    guard = 0
    while s_values:
        s = s_values[0]
        psi_s = ScalarField(dom, (1.0 - s) * f0 + s * spec.psi.values)
        try:
            current, _, history = _damped_newton(replace(spec, psi=psi_s),
                                                 current, opts)
            total_iters += len(history) - 1
            history_all.extend(history)
            s_prev = s
            s_values.pop(0)
        except StallError:
            guard += 1
            if guard > 24 or s - s_prev < 1e-6:
                raise
            s_values.insert(0, 0.5 * (s_prev + s))
    return SolveResult(ScalarField(dom, current), None, total_iters, history_all, True)


def solve_closed(spec: ProblemSpec, opts: SolverOptions | None = None) -> SolveResult:
    """Augmented Newton for (u, c) with the zero-mean gauge on updates;
    normalizes sup u = 0 after convergence."""
    opts = opts or SolverOptions()
    if spec.mode != "closed":
        raise DomainError("solve_closed needs closed mode")
    u, c, history = _damped_newton(spec, np.zeros(spec.domain.shape), opts)
    u = u - float(np.max(u))  # the equation sees only the Hessian; c is unchanged
    return SolveResult(ScalarField(spec.domain, u), float(c), len(history) - 1,
                       history, True)


# ------------------------------------------------------------------ sweeps


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
    ladder = [float(e) for e in ladder]
    if any(e <= 0 for e in ladder) or any(
        b >= a for a, b in zip(ladder, ladder[1:])
    ):
        raise DomainError("ladder must be positive and strictly decreasing")
    report = SweepReport(epsilons=[], rhos=[], results=[], cauchy=[])
    live = ~spec.domain.exterior
    prev = None
    for eps in ladder:
        rho = 0.5 * eps
        psi_k = ScalarField(spec.domain, spec.psi.values + rho)
        try:
            res = solve_dirichlet(replace(spec, psi=psi_k), opts)
        except Exception as exc:
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
        except Exception as exc:
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
    Poisson potential, and report sup-norm differences on common interiors."""
    opts = opts or SolverOptions()
    if spec.domain.kind != "product":
        raise DomainError("exhaustion needs a product domain")
    levels = [float(a) for a in levels]
    s_dom = s_factor_domain(spec.domain)
    h = pullback_from_s(spec.domain, poisson_dirichlet(s_dom, 1.0, 0.0))
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
    result: SolveResult,
    spec: ProblemSpec,
    usub: ScalarField | None = None,
    usuper: ScalarField | None = None,
    slack: float = 1e-8,
) -> EstimateReport:
    """Sandwich, normal-derivative ordering and the quadratic-growth ratios.

    The second-order ratio is sup |ddbar u| / (1 + sup |grad u|^2); the
    boundary ratio is max over boundary nodes of
    g_{n nbar} / (1 + sum_alpha |g_{alpha nbar}|^2), the quantity the
    localization lemma bounds.
    """
    dom = spec.domain
    u = result.u
    hess = complex_hessian(u).values
    live = ~dom.exterior
    lam_u = np.linalg.eigvalsh(hess[dom.interior])
    sup_dbar = float(np.max(np.abs(lam_u))) if lam_u.size else 0.0
    grad_sq = gradient_sup(u)
    ratio2nd = sup_dbar / (1.0 + grad_sq)

    sandwich_ok = True
    if usub is not None:
        sandwich_ok &= bool(np.all(u.values[live] >= usub.values[live] - slack))
    if usuper is not None:
        sandwich_ok &= bool(np.all(u.values[live] <= usuper.values[live] + slack))

    normal_order_ok = True
    if usub is not None and usuper is not None and dom.boundary.any():
        d_sub = boundary_normal_derivatives(usub)
        d_u = boundary_normal_derivatives(u)
        d_sup = boundary_normal_derivatives(usuper)
        for (ax, side, lo), (_, _, mid), (_, _, hi) in zip(d_sub, d_u, d_sup):
            scale = slack * (1.0 + float(np.max(np.abs(mid))))
            normal_order_ok &= bool(np.all(lo <= mid + scale))
            normal_order_ok &= bool(np.all(mid <= hi + scale))

    bdry_ratio = float("nan")
    if dom.boundary.any():
        g = spec.chi.values + hess
        gb = g[dom.boundary]
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
