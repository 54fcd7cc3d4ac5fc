"""Exception hierarchy.

Every failure mode raised by this package derives from NoonSteerError so
callers can catch the whole family in one clause.
"""


class NoonSteerError(Exception):
    """Base class for all package-specific errors."""


class DimTooSmall(NoonSteerError):
    """Fock cutoff cannot hold the requested state."""


class OutOfSupportedOrder(NoonSteerError):
    """Wavefunction order beyond the overflow-guarded range."""


class InvalidOutcome(NoonSteerError):
    """Conditioning outcome outside the physically allowed range."""


class ZeroProbabilityConditioning(NoonSteerError):
    """Conditioning event has vanishing probability; moments undefined."""


class ConvergenceFailure(NoonSteerError):
    """Quadrature refinement stalled above the requested tolerance."""


class NondiscriminatingPhase(NoonSteerError):
    """The criterion denominator is analytically zero at this phase.

    Signals an unusable configuration, not a physics verdict.
    """


class DegenerateChannel(NoonSteerError):
    """eta_a * eta_b == 0: the inferred commutator modulus vanishes."""


class NoThresholdInBracket(NoonSteerError):
    """E does not cross 1 inside the search bracket."""


class UnsupportedOrder(NoonSteerError):
    """Requested N beyond the range the construction is defined for."""


class InsufficientBinOccupancy(NoonSteerError):
    """Too few shots per conditioning bin even after neighbor merging."""
