"""hcl: a numerical laboratory for complex Hessian-type fully nonlinear
elliptic equations f(lambda[chi + i ddbar u]) = psi.

Modules:
    symfunc  - symmetric function families on Garding cones
    spectra  - Hermitian eigenvalue machinery and bordered-matrix localization
    subsol   - subsolution verification and the epsilon-dichotomy machinery
    grid     - discrete flat geometries and complex finite-difference operators
    solve    - damped-Newton solvers and a priori estimate reports
    cli      - command-line front end
"""

import importlib

from . import errors, grid, spectra, subsol, symfunc
from .symfunc import FuncFamily

__version__ = "0.1.0"

__all__ = ["errors", "symfunc", "spectra", "subsol", "grid", "solve", "FuncFamily"]


def __getattr__(name):
    # solve (and with it scipy) loads on first use: only the solver commands need it
    if name == "solve":
        return importlib.import_module(".solve", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
