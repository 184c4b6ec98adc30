"""Reference copies of the Newton-step linear algebra, kept to test the fast paths.

`assemble_linearized` here is the roll-loop assembly that `hcl.solve` used
before the stencil pattern was cached: it rebuilds the COO triplets with one
`np.roll` of the node grid per stencil offset and lets scipy's COO -> CSR
conversion sort them and sum duplicates.  Its A is the operator that
`hcl.solve` now applies as an action through the cached Hessian matrix H
(`_newton_operator`), and its B, the boundary coupling, the reference for
the boundary share of the operator, which `hcl.solve` forms as no matrix.
`box_hessian` is the stencil form of the interior Hessian that `hcl.grid`
computed before it became one product with H: `_hessian_core` on the
interior box, with no ghost ring on the bounded axes.  `_stencil_entries`,
`_interior_info` and `_mixed_pieces` are its helpers.  They are kept verbatim
(only the imports differ), except that `_mixed_pieces` carries the corrected
signs of the two imaginary pieces, as `hcl.solve` does: the old ones paired F
with the transposed Hessian, tr(F^T Hess v), where the derivative of the
residual is tr(F Hess v).  `newton_coefficient` is the LAPACK coefficient
F = P diag(grad f(lambda)) P^* that the Newton loop formed with `eigh` and
`einsum` before F came from sigma(g), and still forms for n >= 4; with
`eval_f` of `np.linalg.eigvalsh` it is the LAPACK oracle of f and F.  Near
the cone boundary LAPACK's own eigenvalue error, eps |g|, sets its accuracy,
so `f_and_coefficient_mp` forms f and F from a 40-digit eigendecomposition
(`mpmath`, which the tests that use it skip without).  `_solve_bordered` is the
closed-mode Newton solve that pinned node 0 and eliminated the gauge constant
with two solves of the pinned matrix (`_pin_row0`, which needs a canonical
CSR matrix), before one solve of the bordered (N+1) system replaced it.
`solve_bordered_direct` factors the bordered system with `spsolve`, as
`hcl.solve` did for systems of up to 2000 nodes before BiCGStab became its
only Newton solver.  `spectral_inverse`
is the constant-coefficient inverse that `hcl.solve` applied with
`scipy.fft.dstn` along every bounded axis and `rfftn` along every periodic
one, before the axes that no kept mixed term couples took small dense
eigenbases.  `_solve_spd` is the diagonally preconditioned CG that refined
`poisson_dirichlet` on masked domains, and whenever the direct solve missed
its sup-norm certificate, before one BiCGStab pass did.  `verify_estimates`
is the estimate check that read the full (N, n, n) stack of
`complex_hessian`, and added chi to it for the boundary ratio, before one
`_hessian_core` in Hermitian coordinates served both ratios.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hcl.errors import DomainError, GaugeError, NumericError
from hcl.grid import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    GridDomain,
    ScalarField,
    _hessian_core,
    boundary_normal_derivatives,
    complex_hessian,
    gradient_sup,
)
from hcl.solve import (
    ESTIMATE_SLACK,
    EstimateReport,
    ProblemSpec,
    SolveResult,
    _solve_general,
)
from hcl.symfunc import FuncFamily, eval_f, grad_f


def newton_coefficient(family: FuncFamily, g: np.ndarray) -> np.ndarray:
    lam_g, p = np.linalg.eigh(g)
    return np.einsum("nik,nk,njk->nij", p, grad_f(family, lam_g), p.conj())


def _interior_info(domain: GridDomain):
    roles = domain.roles.reshape(-1)
    int_flat = np.flatnonzero(roles == INTERIOR)
    rank = np.full(roles.size, -1, dtype=np.int64)
    rank[int_flat] = np.arange(int_flat.size)
    return int_flat, rank


def _mixed_pieces(j: int, k: int, c):
    """(axis a, axis b, factor) for the real mixed differences D_ab that make up
    the (j, kbar) and (k, jbar) terms with coefficient c = F^{j kbar}, j < k."""
    return (
        (2 * j, 2 * k, 0.5 * c.real),
        (2 * j + 1, 2 * k + 1, 0.5 * c.real),
        (2 * j, 2 * k + 1, 0.5 * c.imag),
        (2 * j + 1, 2 * k, -0.5 * c.imag),
    )


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
            for ax_a, ax_b, fac in _mixed_pieces(j, k, coeff[:, j, k]):
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


def box_hessian(u: ScalarField) -> np.ndarray:
    """The Hermitian coordinates (n^2, N) of i ddbar u at the N interior nodes,
    in grid order: `_hessian_core` on `GridDomain.interior_box`, with no ghost
    ring (box stencils reach boundary nodes, not past them).  A masked domain
    drops the box's other nodes; an unmasked one returns the box uncopied."""
    dom = u.domain
    p = np.pad(u.values, [(1, 1) if per else (0, 0) for per in dom.periodic],
               mode="wrap")
    g = _hessian_core(p, dom.spacings, dom.n).reshape(dom.n ** 2, -1)
    inside = dom.interior[dom.interior_box].reshape(-1)
    return g if inside.all() else g[:, inside]


def _pin_row0(a: sp.csr_matrix) -> sp.csr_matrix:
    """A copy of the CSR matrix a with row 0 replaced by the unit row e_0."""
    hi = a.indptr[1]
    return sp.csr_matrix(
        (np.concatenate(([1.0], a.data[hi:])),
         np.concatenate(([0], a.indices[hi:])),
         np.concatenate(([0], a.indptr[1:] - (hi - 1)))),
        shape=a.shape,
    )


def _solve_bordered(a: sp.csr_matrix, r: np.ndarray, n_nodes: int, inverse):
    """Solve the (N+1)-dimensional bordered system

        A v - dc * 1 = -r,   sum(v) = 0

    by block elimination: A annihilates constants, so pinning node 0 makes the
    operator invertible; two solves with the pinned operator recover (v, dc)
    exactly; both share the preconditioner map `inverse` of
    `_solve_general`.  Returns (v, dc, the Krylov iterations of both solves)."""
    a = a.tocsr()
    hi = a.indptr[1]
    cols0, vals0 = a.indices[:hi], a.data[:hi]  # row 0 of A
    pinned = _pin_row0(a)
    b1 = -r.copy()
    b1[0] = 0.0
    b2 = np.ones(n_nodes)
    b2[0] = 0.0
    try:
        x1, rec1 = _solve_general(pinned, b1, inverse)
        x2, rec2 = _solve_general(pinned, b2, inverse)
    except Exception as exc:
        raise GaugeError(f"augmented system failed: {exc}") from exc
    if not (np.all(np.isfinite(x1)) and np.all(np.isfinite(x2))):
        raise GaugeError("augmented system produced non-finite update")
    # enforce the original row 0 and the zero-mean gauge
    row0_x1 = float(vals0 @ x1[cols0])
    row0_x2 = float(vals0 @ x2[cols0])
    denom = row0_x2 - 1.0
    if abs(denom) < 1e-14:
        raise GaugeError("bordered system singular: gauge column degenerate")
    dc = -(float(r[0]) + row0_x1) / denom
    v = x1 + dc * x2
    v -= v.sum() / n_nodes
    return v, float(dc), [rec1, rec2]


def solve_bordered_direct(a: sp.csr_matrix, r: np.ndarray):
    """(v, dc) of [[A, -1], [1^T, 0]] (v, dc) = (-r, 0) by one sparse LU
    factorization of the matrix that `sp.bmat` builds."""
    ones = np.ones((a.shape[0], 1))
    x = spla.spsolve(sp.bmat([[a, -ones], [ones.T, None]], format="csc"),
                     np.append(-r, 0.0))
    return x[:-1], float(x[-1])


def spectral_inverse(domain: GridDomain, fbar: np.ndarray):
    """Exact inverse of the constant-coefficient operator
    sum_{j,k} fbar^{j kbar} (Hess v)_{j kbar} on the interior box, as a map of
    flat interior vectors; None for a masked domain.

    A DFT along the periodic axes and an orthonormal DST-I along the others
    (m = N - 2 interior nodes) diagonalize each second difference, symbol
    -(4/h^2) sin^2(theta/2), and each mixed difference of two periodic axes,
    symbol -(sin theta_a / h_a)(sin theta_b / h_b).  Mixed terms that involve a
    non-periodic axis are dropped (DST-I does not diagonalize them), so the map
    is exact for the identity and on the torus and a preconditioner otherwise.
    On a fully periodic domain the zero mode (the constants) is passed through.
    """
    box = tuple(slice(None) if p else slice(1, -1) for p in domain.periodic)
    roles = domain.roles[box]
    if np.count_nonzero(domain.interior) != roles.size or np.any(roles != INTERIOR):
        return None
    import scipy.fft as sfft

    shape, d, h = roles.shape, roles.ndim, domain.spacings
    p_axes = [a for a in range(d) if domain.periodic[a]]
    s_axes = [a for a in range(d) if not domain.periodic[a]]
    second, sine = [], []
    for a, m in enumerate(shape):
        if not domain.periodic[a]:
            theta = np.pi * np.arange(1, m + 1) / (m + 1)
        elif a == p_axes[-1]:  # the half spectrum of rfftn
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
                if domain.periodic[ax_a] and domain.periodic[ax_b]:
                    sym = sym - fac * sine[ax_a] * sine[ax_b]
    if not s_axes:
        sym[(0,) * d] = 1.0
    if not np.all(np.isfinite(sym)) or np.any(sym == 0.0):
        return None
    p_shape = [shape[a] for a in p_axes]

    def apply(r: np.ndarray) -> np.ndarray:
        x = np.reshape(r, shape)
        if s_axes:
            x = sfft.dstn(x, type=1, axes=s_axes, norm="ortho")
        if p_axes:
            x = sfft.irfftn(sfft.rfftn(x, axes=p_axes) / sym, s=p_shape, axes=p_axes)
        else:
            x = x / sym
        if s_axes:
            x = sfft.dstn(x, type=1, axes=s_axes, norm="ortho")
        return x.reshape(-1)

    return apply


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


def f_and_coefficient_mp(family: FuncFamily, g: np.ndarray, dps: int = 40):
    """(f, F) of each matrix of the Hermitian stack g from its eigenvalues and
    eigenvectors at `dps` digits (`mpmath.eighe`): f = eval_f and
    grad f = grad_f at the eigenvalues rounded to floats, and
    F = P diag(grad f) P^* formed at `dps` digits."""
    import mpmath

    f, coeff = np.empty(len(g)), np.empty(g.shape, dtype=complex)
    with mpmath.workdps(dps):
        for i, m in enumerate(g):
            lam, p = mpmath.eighe(mpmath.matrix(m.tolist()))
            lam = np.array([float(x) for x in lam])
            f[i] = eval_f(family, lam)
            grad = mpmath.diag([float(x) for x in grad_f(family, lam)])
            coeff[i] = np.array((p * grad * p.H).tolist(), dtype=complex)
    return f, coeff


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
    # sup |lambda| = sup |H|_2 sits where |H|_F reaches the largest column norm
    h2 = np.abs(hess[dom.interior]) ** 2
    near = h2.sum(axis=(1, 2)) >= (1 - 1e-9) * np.max(h2.sum(axis=1), initial=0.0)
    lam_u = np.linalg.eigvalsh(hess[dom.interior][near])
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
