"""Error types shared across the package."""


class SplineError(Exception):
    """Base class for every package-specific error."""


class MultiplicityExceeded(SplineError, ValueError):
    """An interior knot value occurs more than order-many times."""

    def __init__(self, value):
        self.value = value
        super().__init__(f"knot value {value!r} occurs more than order-many times")


class OutOfRange(SplineError, ValueError):
    """A sequence point lies outside its allowed range."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"point at index {index} is out of range")


class BadBoundary(SplineError, ValueError):
    """A sequence does not start with the boundary pair 0, 1."""


class MalformedSequence(SplineError, ValueError):
    """A sequence document is not a {"k": order, "points": [numbers]} object."""


class LevelOutOfRange(SplineError, ValueError):
    """Requested level is below 2 or beyond the available points."""


class DomainError(SplineError, ValueError):
    """Evaluation point or interval leaves [0, 1], or a parameter is out of domain."""


class QuadratureTooCoarse(SplineError, ValueError):
    """Node count too small to integrate the target degree exactly."""


class NotPositiveDefinite(SplineError, ValueError):
    """Banded Cholesky factorization failed; the partition is malformed."""


class DegenerateFit(SplineError, ValueError):
    """Too few usable offsets to fit a geometric decay envelope."""

