"""Reference copies of the Newton-step linear algebra, kept to test the fast paths.

`assemble_linearized` here is the roll-loop assembly that `hcl.solve` used
before the stencil pattern was cached: it rebuilds the COO triplets with one
`np.roll` of the node grid per stencil offset and lets scipy's COO -> CSR
conversion sort them and sum duplicates.  `_stencil_entries`,
`_interior_info` and `_mixed_pieces` are its helpers.  They are kept verbatim
(only the imports differ).  `newton_coefficient` is the LAPACK coefficient
F = P diag(grad f(lambda)) P^* that the Newton loop formed with `eigh` and
`einsum` before the closed form for n = 2.  `_solve_bordered` is the
closed-mode Newton solve that pinned node 0 and eliminated the gauge constant
with two solves of the pinned matrix (`_pin_row0`), before one solve of the
bordered (N+1) system replaced it.  `solve_bordered_direct` factors the
bordered system with `spsolve`, as `hcl.solve` did for systems of up to 2000
nodes before BiCGStab became its only Newton solver.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hcl.errors import DomainError, GaugeError
from hcl.grid import BOUNDARY, EXTERIOR, INTERIOR, GridDomain
from hcl.solve import SolverOptions, _solve_general
from hcl.symfunc import FuncFamily, grad_f


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
        (2 * j, 2 * k + 1, -0.5 * c.imag),
        (2 * j + 1, 2 * k, 0.5 * c.imag),
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


def _pin_row0(a: sp.csr_matrix) -> sp.csr_matrix:
    """A copy of the CSR matrix a with row 0 replaced by the unit row e_0."""
    hi = a.indptr[1]
    return sp.csr_matrix(
        (np.concatenate(([1.0], a.data[hi:])),
         np.concatenate(([0], a.indices[hi:])),
         np.concatenate(([0], a.indptr[1:] - (hi - 1)))),
        shape=a.shape,
    )


def _solve_bordered(a: sp.csr_matrix, r: np.ndarray, n_nodes: int,
                    opts: SolverOptions, inverse=None):
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
        x1, rec1 = _solve_general(pinned, b1, opts, inverse)
        x2, rec2 = _solve_general(pinned, b2, opts, inverse)
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
