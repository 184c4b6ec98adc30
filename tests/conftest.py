import itertools

import numpy as np
import pytest

from hcl.grid import GridDomain, ScalarField, _coords, identity_chi
from hcl.solve import ProblemSpec, _newton_operator, s_factor_potential
from hcl.symfunc import FuncFamily


def sigma_bruteforce(lam, k):
    """Independent oracle: k-th elementary symmetric by subset enumeration."""
    lam = list(lam)
    if k == 0:
        return 1.0
    return sum(
        float(np.prod(c)) for c in itertools.combinations(lam, k)
    )


def poisson_square_series(x, y, terms=399):
    """Series solution of the Euclidean problem -lap w = 1 on the unit square,
    w = 0 on the boundary; the Chern-convention solve of lap/4 h = 1 is
    h = -4 w."""
    total = 0.0
    pi = np.pi
    for m in range(1, terms + 1, 2):
        for n in range(1, terms + 1, 2):
            total += (
                np.sin(m * pi * x)
                * np.sin(n * pi * y)
                / (m * n * (m**2 + n**2))
            )
    return 16.0 / pi**4 * total


def manufactured_dirichlet_spec(N, amplitude=0.1, ny_x=4, ny_s=5,
                                family=None):
    """LogDet product instance with exact solution a sin(x1) sin(x2):
    psi from the analytic complex Hessian, phi the trace of the solution."""
    family = family or FuncFamily.log_det(2)
    dom = GridDomain.product(
        2,
        x_shape=(N, ny_x),
        s_shape=(N, ny_s),
        x_lengths=(2 * np.pi, 2 * np.pi),
        s_lengths=(np.pi, 1.0),
    )
    x1, _, x2, _ = dom.meshgrid()
    a = amplitude
    g = np.zeros(dom.shape + (2, 2), dtype=complex)
    g[..., 0, 0] = 1.0 - (a / 4.0) * np.sin(x1) * np.sin(x2)
    g[..., 1, 1] = g[..., 0, 0]
    g[..., 0, 1] = (a / 4.0) * np.cos(x1) * np.cos(x2)
    g[..., 1, 0] = g[..., 0, 1]
    lam = np.linalg.eigvalsh(g)
    psi = np.log(lam[..., 0]) + np.log(lam[..., 1])
    ustar = a * np.sin(x1) * np.sin(x2)
    spec = ProblemSpec(
        dom, family, identity_chi(dom), ScalarField(dom, psi),
        ScalarField(dom, ustar),
    )
    return spec, ustar


def manufactured_closed_spec(N, amplitude=0.1, ny=4):
    """Torus instance with exact solution a sin(x1) sin(x2) and c -> 0."""
    dom = GridDomain.torus(2, (N, ny, N, ny))
    x1, _, x2, _ = dom.meshgrid()
    a = amplitude
    g = np.zeros(dom.shape + (2, 2), dtype=complex)
    g[..., 0, 0] = 1.0 - (a / 4.0) * np.sin(x1) * np.sin(x2)
    g[..., 1, 1] = g[..., 0, 0]
    g[..., 0, 1] = (a / 4.0) * np.cos(x1) * np.cos(x2)
    g[..., 1, 0] = g[..., 0, 1]
    lam = np.linalg.eigvalsh(g)
    psi = np.log(lam[..., 0]) + np.log(lam[..., 1])
    ustar = a * np.sin(x1) * np.sin(x2)
    spec = ProblemSpec(
        dom, FuncFamily.log_det(2), identity_chi(dom),
        ScalarField(dom, psi),
    )
    return spec, ustar


def assemble(dom, coeff):
    """The Newton action A (`_newton_operator`) for the complex coefficient
    stack coeff (N_int, n, n), in its Hermitian coordinates.  A acts on the
    interior values; the boundary coupling B, and A as a matrix where a test
    reads its entries, are the reference assembly's
    (`newton_reference.assemble_linearized`)."""
    return _newton_operator(dom, _coords(np.asarray(coeff, dtype=complex)))


def hermitian_stack(rng, count, n=2, scale=1.0, shift=0.0):
    """Random Hermitian (count, n, n) matrices, positive definite for shift > 0."""
    a = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    g = a @ a.conj().transpose(0, 2, 1) if shift > 0 else a + a.conj().transpose(0, 2, 1)
    return scale * (g + shift * np.eye(n))


def exhaustion_domain(alpha, s_nodes=(21, 21)):
    """A masked product domain: the sub-level set {h < -alpha} of the S-factor
    potential on an (8, 4) x s_nodes grid."""
    dom = GridDomain.product(2, x_shape=(8, 4), s_shape=s_nodes)
    h = s_factor_potential(dom)
    return dom.restrict(h.values < -alpha)


def smooth_coefficient(dom, amp):
    """A Hermitian positive-definite coefficient field varying over the nodes."""
    x = dom.meshgrid()
    coeff = np.zeros(dom.shape + (2, 2), dtype=complex)
    coeff[..., 0, 0] = 1.0 + amp * np.sin(x[0])
    coeff[..., 1, 1] = 1.0 + amp * np.cos(x[-1])
    coeff[..., 0, 1] = 0.5 * amp * np.sin(x[1] + x[-2])
    coeff[..., 1, 0] = coeff[..., 0, 1]
    return coeff[dom.interior]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240813)
