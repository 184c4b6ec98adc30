"""Discrete flat geometries and complex finite-difference operators.

Two domain kinds are supported, both with flat metric (torsion and curvature
vanish identically by design):

    Torus      all 2n real axes periodic, no boundary nodes;
    ProductXS  the first 2(n-1) axes periodic (factor X, a flat torus) and the
               last two axes carrying the one-complex-variable factor S with a
               marked boundary (rectangle, or annulus via one periodic axis).

Complex second derivatives use second-order centered stencils on the real
axis pairs (x^j, y^j):

    u_{j kbar} = 1/4 (D_{x^j x^k} + D_{y^j y^k}) u
                 + i/4 (D_{x^j y^k} - D_{y^j x^k}) u,

which is Hermitian by construction.  The trace is the Chern Laplacian,
1/4 of the Euclidean Laplacian per complex axis.  Dirichlet values populate a
one-node ghost ring by quadratic extrapolation through the boundary value, so
centered stencils at boundary nodes reduce to the second-order one-sided
forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, ResolutionError
from .symfunc import DIMENSION_CAP

__all__ = [
    "INTERIOR",
    "BOUNDARY",
    "EXTERIOR",
    "GridDomain",
    "ScalarField",
    "HermitianField",
    "complex_hessian",
    "box_hessian",
    "chern_laplacian",
    "gradient_sup",
    "boundary_normal_derivatives",
    "identity_chi",
    "constant_chi",
]

INTERIOR, BOUNDARY, EXTERIOR = 0, 1, 2

# Most nodes of one grid, about four times the largest one tested (513 x 513);
# an n = 2 Newton solve holds about 2 KB per node, so 2 GB at the cap.
NODE_CAP = 2**20


@dataclass(frozen=True)
class GridDomain:
    """Structured lattice over [0, L_1) x ... with per-axis periodicity; equal
    grids have equal axes, whatever their node roles (a sub-domain equals its
    parent).  Boundary nodes pose the Dirichlet problem, none the closed one."""

    n: int  # complex dimension
    shape: tuple[int, ...]  # node counts, 2n axes
    lengths: tuple[float, ...]
    periodic: tuple[bool, ...]
    roles: np.ndarray = field(default=None, repr=False, compare=False)  # None: box roles

    def __post_init__(self):
        """Check the axes before any per-node array exists, then the roles
        (INTERIOR/BOUNDARY/EXTERIOR; by default each bounded axis's end layers
        are BOUNDARY, all else INTERIOR)."""
        d, bounded = len(self.shape), [a for a, p in enumerate(self.periodic) if not p]
        if self.n < 1 or d != 2 * self.n or len(self.periodic) != d:
            raise DomainError("a grid needs n >= 1, 2n axes and one periodic flag per axis")
        _check_axes(self.shape, self.lengths, self.periodic,
                    ("x_",) * (d - 2) + ("s_",) * 2 if bounded else ("",) * d)
        roles = np.zeros(self.shape, np.uint8) if self.roles is None else np.asarray(self.roles)
        if roles.shape != self.shape:
            raise DomainError(f"roles of shape {roles.shape} on a grid of shape {self.shape}")
        if not np.isin(roles, (INTERIOR, BOUNDARY, EXTERIOR)).all():
            raise DomainError("roles must be INTERIOR, BOUNDARY or EXTERIOR (0, 1 or 2)")
        for ax in bounded:
            ends = np.moveaxis(roles, ax, 0)[:: self.shape[ax] - 1]  # a view: layers 0, -1
            if self.roles is None:
                ends[...] = BOUNDARY
            if (ends == INTERIOR).any():
                raise DomainError(f"interior nodes on an end layer of the bounded axis {ax}")
        object.__setattr__(self, "roles", roles.astype(np.uint8, copy=False))

    @classmethod
    def torus(cls, n: int, shape, lengths=None) -> "GridDomain":
        shape = tuple(int(s) for s in shape)
        lengths = tuple(float(x) for x in (lengths or (2.0 * np.pi,) * len(shape)))
        return cls(n, shape, lengths, (True,) * len(shape))

    @classmethod
    def product(
        cls,
        n: int,
        x_shape=(),
        s_shape=(17, 17),
        x_lengths=None,
        s_lengths=(1.0, 1.0),
        s_periodic=(False, False),
    ) -> "GridDomain":
        """X (flat torus of complex dimension n-1) times S (one complex variable
        with boundary).  An annulus is a rectangle with the angular axis
        periodic."""
        x_shape = tuple(int(s) for s in x_shape)
        if n < 1 or len(x_shape) != 2 * (n - 1):
            raise DomainError("product needs n >= 1 and 2(n-1) node counts for X")
        s_shape = tuple(int(s) for s in s_shape)
        if len(s_shape) != 2:
            raise DomainError("S factor is one complex variable: 2 axes")
        if all(s_periodic):
            raise DomainError("S needs at least one non-periodic axis")
        x_lengths = tuple(
            float(x) for x in (x_lengths or (2.0 * np.pi,) * (2 * (n - 1)))
        )
        lengths = x_lengths + tuple(float(x) for x in s_lengths)
        periodic = (True,) * (2 * (n - 1)) + tuple(bool(p) for p in s_periodic)
        return cls(n, x_shape + s_shape, lengths, periodic)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(
            L / N if p else L / (N - 1)
            for L, N, p in zip(self.lengths, self.shape, self.periodic)
        )

    def axis_coords(self, ax: int) -> np.ndarray:
        N, L, p = self.shape[ax], self.lengths[ax], self.periodic[ax]
        return np.arange(N) * (L / N) if p else np.linspace(0.0, L, N)

    def meshgrid(self) -> list[np.ndarray]:
        return list(
            np.meshgrid(*[self.axis_coords(a) for a in range(len(self.shape))],
                        indexing="ij")
        )

    @property
    def interior(self) -> np.ndarray:
        return self.roles == INTERIOR

    @property
    def interior_box(self) -> tuple[slice, ...]:
        """Holds the interior: all of each periodic axis, 1:-1 of the others."""
        return tuple(slice(None) if p else slice(1, -1) for p in self.periodic)

    @property
    def boundary(self) -> np.ndarray:
        return self.roles == BOUNDARY

    @property
    def exterior(self) -> np.ndarray:
        return self.roles == EXTERIOR

    def restrict(self, keep: np.ndarray) -> "GridDomain":
        """Sub-domain of a product domain carried by a node mask (True = kept).

        Kept nodes adjacent (including diagonally, along the S axes) to a
        dropped node become boundary nodes; kept original-boundary nodes stay
        boundary.  Nodes read their nine S neighbours by `_shift` on the mask
        padded by one node along S (wrapped; dropped past a bounded edge); a
        torus has no S axes and raises `DomainError`.
        """
        if all(self.periodic):
            raise DomainError("restrict needs a product domain")
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != self.shape:
            raise DomainError("mask shape mismatch")
        if not keep.any():
            raise ResolutionError("empty sub-domain")
        d = len(self.shape)
        nb = np.pad(keep, [(0, 0)] * (d - 2) + [(1, 1)] * 2, mode="wrap")
        for ax in (d - 2, d - 1):
            if not self.periodic[ax]:
                np.moveaxis(nb, ax, 0)[[0, -1]] = False
        whole = np.logical_and.reduce([_shift(nb, {d - 2: a, d - 1: b}, range(d - 2))
                                       for a in (-1, 0, 1) for b in (-1, 0, 1)])
        roles = np.full(self.shape, EXTERIOR, dtype=np.uint8)
        roles[keep] = INTERIOR
        roles[keep & (~whole | (self.roles == BOUNDARY))] = BOUNDARY
        if not (roles == INTERIOR).any():
            raise ResolutionError("sub-domain has no interior nodes")
        return GridDomain(self.n, self.shape, self.lengths, self.periodic, roles)


def _check_axes(shape, lengths, periodic, keys) -> None:
    """Reject axes no stencil can use, before any per-node array exists; errors
    name axis a's parameters (and config keys) keys[a] + "shape"/"lengths"."""
    if len(shape) > 2 * DIMENSION_CAP:
        raise DomainError(f"'n' = {len(shape) // 2} is above the dimension cap "
                          f"of {DIMENSION_CAP}")
    if len(lengths) != len(shape):
        raise DomainError("one length per axis needed")
    if min(shape) < 1 or not all(x > 0 for x in lengths):  # also rejects NaN
        raise DomainError("node counts must be >= 1 and lengths > 0")
    nodes = np.prod(shape, dtype=object)  # Python ints: no overflow
    if nodes > NODE_CAP:
        names = " and ".join(dict.fromkeys(f"'{key}shape'" for key in keys))
        raise DomainError(f"{names}: {nodes} nodes, above the cap of {NODE_CAP}")
    for ax, (L, N, p, key) in enumerate(zip(lengths, shape, periodic, keys)):
        if N < 3 and not p:
            raise DomainError(f"'{key}shape' needs >= 3 nodes on the non-periodic axis {ax}")
        h = L / (N if p else N - 1)  # the spacing, as `spacings` gives it
        if not (0.0 < h * h < np.inf and 1.0 / (h * h) < np.inf):
            raise DomainError(f"'{key}lengths': axis {ax} has the spacing {h!r}, whose"
                              " square or its inverse is not a positive finite float")


@dataclass
class ScalarField:
    """One real value per node; boundary nodes carry the Dirichlet datum."""

    domain: GridDomain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.domain.shape:
            raise DomainError("field shape does not match its domain")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("field values must be finite everywhere")

    @classmethod
    def zeros(cls, domain: GridDomain) -> "ScalarField":
        return cls(domain, np.zeros(domain.shape))

    @classmethod
    def full(cls, domain: GridDomain, value: float) -> "ScalarField":
        return cls(domain, np.full(domain.shape, float(value)))

    @classmethod
    def from_function(cls, domain: GridDomain, fn) -> "ScalarField":
        return cls(domain, fn(*domain.meshgrid()))


@dataclass
class HermitianField:
    """One n x n complex matrix per node; conjugate symmetry is enforced by
    symmetrization on construction."""

    domain: GridDomain
    values: np.ndarray  # (*shape, n, n) complex

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        n = self.domain.n
        if self.values.shape != self.domain.shape + (n, n):
            raise DomainError("hermitian field shape mismatch")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("hermitian field values must be finite everywhere")
        self.values = 0.5 * (self.values + np.conj(np.swapaxes(self.values, -1, -2)))


def identity_chi(domain: GridDomain) -> HermitianField:
    return constant_chi(domain, np.eye(domain.n))


def constant_chi(domain: GridDomain, matrix) -> HermitianField:
    m = np.asarray(matrix, dtype=complex)
    n = domain.n
    if m.shape != (n, n):
        raise DomainError("background form must be n x n")
    v = np.broadcast_to(m, domain.shape + (n, n)).copy()
    return HermitianField(domain, v)


def _padded(u: np.ndarray, domain: GridDomain) -> np.ndarray:
    """One ghost node per axis: wrap on periodic axes, quadratic extrapolation
    through the boundary value on the others, written over the wrapped layers
    one bounded axis after another (so a corner extrapolates a ghost)."""
    p = np.pad(u, 1, mode="wrap")
    for ax in [a for a, per in enumerate(domain.periodic) if not per]:
        q = np.moveaxis(p, ax, 0)
        q[0] = 3.0 * q[1] + -3.0 * q[2] + q[3]
        q[-1] = q[-4] + -3.0 * q[-3] + 3.0 * q[-2]
    return p


def _shift(p: np.ndarray, steps: dict, keep=()) -> np.ndarray:
    """View of the core p[1:-1, ..., 1:-1] shifted by steps[ax] in {-1, 0, +1}
    along each axis ax in steps; the other axes in `keep` stay whole."""
    return p[tuple(slice(None) if a in keep and a not in steps else
                   slice(1 + steps.get(a, 0), m - 1 + steps.get(a, 0))
                   for a, m in enumerate(p.shape))]


def _second_same(p, ax, h):
    return (_shift(p, {ax: +1}) - 2.0 * _shift(p, {}) + _shift(p, {ax: -1})) / h**2


def _centred(p, ax, h, keep=()):
    return (_shift(p, {ax: +1}, keep) - _shift(p, {ax: -1}, keep)) / (2.0 * h)


def _hessian_core(p: np.ndarray, h, n: int) -> np.ndarray:
    """The Hermitian coordinates of i ddbar u at the nodes p[1:-1, ..., 1:-1],
    shape (n^2, *core): for each j, u_{j jbar}, then Re and Im u_{j kbar} for
    each k > j.  A mixed difference D_ab is the centred difference along a of
    the one along b: the four-corner stencil, algebraically."""
    out = np.empty((n * n,) + tuple(m - 2 for m in p.shape))
    first = {b: _centred(p, b, h[b], range(p.ndim)) for b in range(2, p.ndim)}
    rows = iter(out)
    for j in range(n):
        xj, yj = 2 * j, 2 * j + 1
        np.multiply(0.25, _second_same(p, xj, h[xj]) + _second_same(p, yj, h[yj]),
                    out=next(rows))
        for k in range(j + 1, n):
            d = {(a, b): _centred(first[b], a, h[a], (b,))
                 for a in (xj, yj) for b in (2 * k, 2 * k + 1)}
            np.multiply(0.25, d[xj, 2 * k] + d[yj, 2 * k + 1], out=next(rows))
            np.multiply(0.25, d[xj, 2 * k + 1] - d[yj, 2 * k], out=next(rows))
    return out


def _layout(n: int) -> list:
    """(j, k, imag) of each Hermitian coordinate, in the order of `_hessian_core`."""
    return [(j, k, i) for j in range(n) for k in range(j, n) for i in range(1 + (k > j))]


def _coords(m: np.ndarray) -> np.ndarray:
    """The Hermitian coordinates (n^2, ...) of a stack (..., n, n), read from
    the upper triangle."""
    return np.stack([m[..., j, k].imag if i else m[..., j, k].real
                     for j, k, i in _layout(m.shape[-1])])


def _matrix(c: np.ndarray) -> np.ndarray:
    """The exactly Hermitian stack (..., n, n) with the coordinates c (n^2, ...)."""
    n = int(np.sqrt(len(c)))
    out = np.zeros(c.shape[1:] + (n, n), dtype=complex)
    for (j, k, i), x in zip(_layout(n), c):
        part = out.imag if i else out.real
        part[..., j, k], part[..., k, j] = x, -x if i else x
    return out


def _mixed_pieces(j: int, k: int, c):
    """(axis a, axis b, factor) for the real mixed differences D_ab that make up
    the (j, kbar) and (k, jbar) terms with coefficient c = F^{j kbar}, j < k.

    In tr(F H) with H = Hess v these two terms are
    F^{k jbar} H_{j kbar} + F^{j kbar} H_{k jbar} = 2 Re(conj(c) H_{j kbar}),
    where Re H_{j kbar} = (D_{x_j x_k} + D_{y_j y_k}) / 4 and
    Im H_{j kbar} = (D_{x_j y_k} - D_{y_j x_k}) / 4 (`_hessian_core`)."""
    return (
        (2 * j, 2 * k, 0.5 * c.real),
        (2 * j + 1, 2 * k + 1, 0.5 * c.real),
        (2 * j, 2 * k + 1, 0.5 * c.imag),
        (2 * j + 1, 2 * k, -0.5 * c.imag),
    )


def _stencil_offsets(n: int) -> np.ndarray:
    """The centre, -+1 along each real axis, then the four corners of each
    mixed axis pair: the column order of `_stencil_weights`."""
    eye = np.eye(2 * n, dtype=int)
    offs = [0 * eye[0]] + [s * eye[ax] for ax in range(2 * n) for s in (+1, -1)]
    offs += [sa * eye[a] + sb * eye[b] for j in range(n) for k in range(j + 1, n)
             for a, b, _ in _mixed_pieces(j, k, 0j) for sa in (+1, -1) for sb in (+1, -1)]
    return np.array(offs)


@lru_cache(maxsize=8)
def _stencil_weights(spacings: tuple[float, ...], n: int) -> np.ndarray:
    """The read-only (n^2, S) table W of the stencil weights of
    tr(F Hess v) = sum_{j,k} F^{k jbar} (Hess v)_{j kbar}: row c for the F whose
    Hermitian coordinates (`_hessian_core`) are the unit vector e_c, one
    column per offset of `_stencil_offsets`: m_c (`_multiplicity`) times the
    stencil of coordinate c of i ddbar v."""
    w, col = np.zeros((n * n, 1 + 4 * n + 8 * n * (n - 1))), 1
    for j in range(n):
        for ax in (2 * j, 2 * j + 1):  # F_jj
            w[j * (2 * n - j), col:col + 2] = 0.25 / spacings[ax] ** 2
            w[j * (2 * n - j), 0] -= 2.0 * w[j * (2 * n - j), col]
            col += 2
    for j in range(n):
        for k in range(j + 1, n):
            re = j * (2 * n - j) + 2 * (k - j) - 1  # Re F_jk, then Im F_jk
            # the factors of Re F_jk = 1 and Im F_jk = 1 at once
            for (ax_a, ax_b, fac), row in zip(_mixed_pieces(j, k, 1 + 1j),
                                              (re, re, re + 1, re + 1)):
                w[row, col:col + 4] = np.array([1, -1, -1, 1]) * (
                    fac / (4.0 * spacings[ax_a] * spacings[ax_b]))  # sa * sb
                col += 4
    w.flags.writeable = False
    return w


def _multiplicity(n: int) -> np.ndarray:
    """m_c = 1 + (j != k), so that tr(F H) = sum_c m_c F_c H_c for Hermitian F, H."""
    return np.array([1.0 + (j != k) for j, k, _ in _layout(n)])


@lru_cache(maxsize=4)
def _hessian_csr(shape: tuple[int, ...], roles_bytes: bytes, spacings: tuple):
    """(H, cols): i ddbar as one read-only sparse matrix on one grid, cached
    on its node roles too (two restrictions of one grid differ only there).
    Row c N + i is the Hermitian coordinate c at the i-th of the N interior
    nodes, so (H x).reshape(n^2, N) has `box_hessian`'s layout; the columns
    are the interior nodes, then the boundary ones (`cols`, in grid order).
    Row (c, i) holds the nonzero taps W[c] / m_c of `_stencil_weights` in
    `_stencil_offsets` order, apart where two reach one neighbour (an axis of
    1 or 2 nodes; the product sums them).  No interior node reaches a wrap."""
    import scipy.sparse as sp  # scipy loads with the first Hessian, not with `hcl`

    n, roles = len(shape) // 2, np.frombuffer(roles_bytes, dtype=np.uint8)
    inside, cols = np.flatnonzero(roles == INTERIOR), np.flatnonzero(roles == BOUNDARY)
    cols = np.concatenate((inside, cols))
    rank = np.full(roles.size, -1, dtype=np.int32)
    rank[cols] = np.arange(cols.size)
    grid = np.pad(rank.reshape(shape), 1, mode="wrap")
    nb = np.stack([_shift(grid, dict(enumerate(off))).reshape(-1)[inside]
                   for off in _stencil_offsets(n)], axis=1)
    if np.any(nb < 0):
        raise DomainError("stencil reached an exterior node; bad mask")
    w = _stencil_weights(spacings, n) / _multiplicity(n)[:, None]
    taps = [np.flatnonzero(row) for row in w]
    indptr = np.insert(np.cumsum(np.repeat([t.size for t in taps], inside.size),
                                 dtype=np.int32), 0, 0)
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=np.int32)
    for c, t in enumerate(taps):  # filled in place: no second copy of H
        at = slice(indptr[c * inside.size], indptr[(c + 1) * inside.size])
        data[at], indices[at] = np.tile(w[c, t], inside.size), nb[:, t].reshape(-1)
    h = sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, cols.size))
    for arr in (h.data, h.indices, h.indptr, cols):
        arr.flags.writeable = False
    return h, cols


def complex_hessian(u: ScalarField) -> np.ndarray:
    """Per-node matrix of mixed complex second derivatives of u, shape
    (*shape, n, n), exact on quadratics: `box_hessian` at the interior nodes,
    `_hessian_core` through the ghost ring at the boundary nodes (for
    reporting only), zero at exterior nodes."""
    dom = u.domain
    core = _hessian_core(_padded(u.values, dom), dom.spacings, dom.n)
    core[:, dom.interior] = box_hessian(u)
    core[:, dom.exterior] = 0.0
    return _matrix(core)


def box_hessian(u: ScalarField) -> np.ndarray:
    """The Hermitian coordinates (n^2, N) of i ddbar u at the N interior nodes,
    in grid order: one product of H (`_hessian_csr`) with u's values at the
    interior and boundary nodes, which box stencils reach, not past them."""
    dom = u.domain
    h, cols = _hessian_csr(dom.shape, dom.roles.tobytes(), dom.spacings)
    x = u.values.reshape(-1)[cols]
    x -= x[-1]  # i ddbar cannot see a constant: constant data give exact zeros
    return (h @ x).reshape(dom.n ** 2, -1)


def chern_laplacian(u: ScalarField) -> ScalarField:
    """Trace of the complex Hessian: 1/4 of the Euclidean Laplacian per axis pair."""
    return ScalarField(u.domain, np.trace(complex_hessian(u), axis1=-2, axis2=-1).real)


def gradient_sup(u: ScalarField) -> float:
    """sup over nodes of sum_j (u_{x^j}^2 + u_{y^j}^2), centered differences.

    At boundary nodes the extrapolated ghost makes the centered stencil equal
    the second-order one-sided form.
    """
    dom = u.domain
    p = _padded(u.values, dom)
    g2 = sum(_centred(p, ax, h) ** 2 for ax, h in enumerate(dom.spacings))
    return float(np.max(g2[~dom.exterior]))


def boundary_normal_derivatives(u: ScalarField):
    """Inward normal derivatives on each non-periodic face: the centred
    difference through the ghost ring, which is the one-sided 3-point form.

    Returns a list of (axis, side, derivative) tuples where side is 0 for the
    low face and -1 for the high face, and derivative is the array over that
    face; the derivative points into the domain.
    """
    dom = u.domain
    p = _padded(u.values, dom)
    out = []
    for ax in [a for a, per in enumerate(dom.periodic) if not per]:
        q, h = np.moveaxis(p, ax, 0), dom.spacings[ax]
        out += [(ax, 0, _centred(q[:3], 0, h)[0]), (ax, -1, -_centred(q[-3:], 0, h)[0])]
    return out
