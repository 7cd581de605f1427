"""Exception types shared across the package, and its one finite-number check.

Every numeric failure mode the library can report deliberately is a subclass
of TopmonodromyError so the CLI can map them to machine-readable error JSON.
"""

import math


class TopmonodromyError(Exception):
    """Base class for all package errors."""


class ValidationError(TopmonodromyError):
    """Input violates a documented precondition."""


class DegenerateInputError(TopmonodromyError):
    """Input sits exactly on a degenerate configuration (e.g. colliding
    branch points, a branch point on a cut)."""


class RootFindingError(TopmonodromyError):
    """Simultaneous root iteration did not converge within its budget."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class QuadratureError(TopmonodromyError):
    """Contour integration failed (branch-tracking ambiguity, refinement cap)."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class TrackingError(TopmonodromyError):
    """Root/period continuation failed along a parameter loop.

    arc names the stretch of the loop where it failed; parameter, when set,
    is the fraction of that arc the continuation had reached.
    """

    def __init__(self, message, arc=None, parameter=None):
        super().__init__(message)
        self.arc = arc
        self.parameter = parameter


class IntegrationBlowupError(TopmonodromyError):
    """Time integration produced a non-finite state."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class NearDiscriminantError(TopmonodromyError):
    """Parameters too close to the discriminant locus for a reliable answer."""


def _finite(what, *values):
    """The values, or a ValidationError when one of them is not finite."""
    if not all(math.isfinite(v) for v in values):
        raise ValidationError(f"{what} must be finite, got {values}")
    return values
