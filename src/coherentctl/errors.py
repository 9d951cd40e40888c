"""Exception taxonomy for the toolkit.

Raisers attach enough context (offending eigenvalue, measured residual,
dimension pair) to make CLI error reports actionable without a debugger.
"""


class CoherentctlError(Exception):
    """Base class for all toolkit-specific failures."""


class DimensionMismatch(CoherentctlError, ValueError):
    """Operands cannot be composed because their port widths disagree."""


class NonFiniteData(CoherentctlError, ValueError):
    """A matrix holds NaN or infinite entries, e.g. after double-precision overflow."""


class SingularResolvent(CoherentctlError):
    """(iw*I - A) is numerically singular at a requested frequency."""


class IllPosedInterconnection(CoherentctlError):
    """A feedback loop has a singular algebraic (feedthrough) part."""


class NotStable(CoherentctlError):
    """An operation that requires a Hurwitz A-matrix was given one that is not."""


class NotStrictlyProper(CoherentctlError):
    """An operation that requires zero feedthrough was given D != 0."""


class DegenerateWeights(CoherentctlError, ValueError):
    """Frequency weights have identically zero response, so they span no bandwidth."""


class InvalidSlh(CoherentctlError, ValueError):
    """Scattering/coupling/Hamiltonian data violates its structural constraints."""


class NotStabilizable(CoherentctlError):
    """An unstable mode is unreachable from the control inputs (found when placement fails)."""


class NotDetectable(CoherentctlError):
    """An unstable mode is invisible at the measured outputs (found when placement fails)."""


class PlacementFailed(CoherentctlError):
    """Gain placement did not produce a verified stabilizing gain."""


class BezoutResidualTooLarge(CoherentctlError):
    """The assembled factor families fail their identity check on the grid."""


class FactorUnstable(CoherentctlError):
    """A factor realization that must be Hurwitz is not."""


class FeedthroughSingular(CoherentctlError):
    """A controller assembly hits a singular feedthrough (improper inverse)."""


class NotInYoulaRange(CoherentctlError):
    """The supplied controller does not correspond to any stable parameter."""


class InfeasibleStart(CoherentctlError):
    """Descent was started from a parameter violating the unitarity constraint."""


class StalledLineSearch(CoherentctlError):
    """Backtracking ran out of halvings without finding a decrease."""


class ProblemFileError(CoherentctlError, ValueError):
    """A problem document is malformed; ``path`` names the offending entry."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class RankDeficientProjection(UserWarning):
    """Projection subproblem was rank deficient; minimum-norm solution used."""
