"""Exception hierarchy shared by all hcl modules."""


class HclError(Exception):
    """Base class for all package errors."""


class DomainError(HclError, ValueError):
    """Argument outside the operation's domain (bad k, nonpositive epsilon, ...)."""


class AdmissibilityError(HclError):
    """Eigenvalue tuple outside the Garding cone where a family value was requested."""


class NumericError(HclError):
    """An iterative kernel failed to reach its certified tolerance."""


class RangeError(DomainError):
    """Requested level value not attained on the search ray."""


class HypothesisError(HclError):
    """A certified hypothesis (bounded level-set intersection) failed on a sampled ray."""


class PreconditionError(DomainError):
    """Operation precondition violated (e.g. corner below growth threshold)."""


class ConstructionError(HclError):
    """Subsolution ladder exhausted without meeting the cone and level conditions."""


class StallError(NumericError):
    """Newton damping underflowed without an acceptable step, or `max_newton`
    steps ran out above tol."""


class ConeExitError(NumericError):
    """No damped step could restore admissibility."""


class GaugeError(NumericError):
    """Bordered (closed-mode) linear system was singular."""


class ResolutionError(DomainError):
    """Masked sub-domain too thin to carry the stencils."""


class ConfigError(HclError):
    """CLI configuration unreadable or inconsistent."""
