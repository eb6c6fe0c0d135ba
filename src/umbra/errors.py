"""Exception types shared across the toolkit, and the check that a
numeric parameter is positive and finite."""

import math


class UmbraError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(UmbraError, ValueError):
    """A parameter is outside its documented range."""


def check_positive(name: str, value) -> float:
    """``value`` as a float; ParameterError naming it unless it is finite
    and > 0 (NaN fails every comparison, so ``value <= 0`` would let it
    through)."""
    value = float(value)
    if not 0 < value < math.inf:
        raise ParameterError(f"{name} must be positive and finite, got {value}")
    return value


class SpecError(UmbraError, ValueError):
    """A body specification document is malformed."""


class ChartError(UmbraError):
    """Local chart construction or evaluation failed."""


class DegeneratePointError(ChartError):
    """The defining gradient vanishes at the requested boundary point."""


class DomainError(UmbraError, ValueError):
    """A query point lies outside the valid chart domain."""


class BoundaryNotInChartError(UmbraError):
    """No shadow-boundary bracket exists on the queried fiber."""


class NotStrictlyConvexError(UmbraError):
    """Monotonicity expected of a strictly convex chart failed on samples."""


class EmptyCurveError(UmbraError):
    """A shadow sweep produced no valid samples."""


class InteriorPointError(UmbraError):
    """Projection was requested for a point inside the target body."""


class NoConvergenceError(UmbraError):
    """An iterative solve exhausted its iteration budget."""


class SeedError(UmbraError):
    """No seed for the projection shadow boundary could be found."""


class OverlapError(UmbraError):
    """Bodies required to have disjoint closures are not disjoint."""


class RankDeficiencyError(UmbraError):
    """The boundary-defining Jacobian lost rank along a trace."""


class FlatCurveError(UmbraError):
    """A curve is too flat or degenerate for exponent fitting."""


class RankDeficiencyWarning(UserWarning):
    """A solved point sits near a rank-deficient configuration."""
