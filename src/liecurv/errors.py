"""Exception types raised across the library.

Everything derives from :class:`LieCurvError` so callers (and the CLI) can
treat any domain failure as invalid input with a single except clause.
"""

__all__ = [
    "LieCurvError",
    "DimensionMismatch",
    "NotPositiveDefinite",
    "DegeneratePlane",
    "NotCommuting",
    "HorizonExceeded",
    "FamilyConstraintViolated",
    "NormalFormUnavailable",
]


class LieCurvError(Exception):
    """Base class for library-specific errors."""


class DimensionMismatch(LieCurvError):
    """Vector or matrix shape does not match the algebra dimension."""


class NotPositiveDefinite(LieCurvError):
    """A matrix required to be positive definite is not."""


class DegeneratePlane(LieCurvError):
    """Two vectors fail to span a 2-plane."""


class NotCommuting(LieCurvError):
    """Two vectors required to commute do not, within tolerance."""


class HorizonExceeded(LieCurvError):
    """A path parameter lies outside the positive-definiteness window."""


class FamilyConstraintViolated(LieCurvError):
    """Family parameters violate their admissibility constraints."""


class NormalFormUnavailable(LieCurvError):
    """No invariant abelian plane reaches the invariance tolerance."""
