"""Exception hierarchy shared across the package."""

from __future__ import annotations


class ToricError(Exception):
    """Base class for all computational errors raised by this package."""


class NotFullDimensional(ToricError):
    """The input rays do not span the ambient lattice."""


class NotStronglyConvex(ToricError):
    """The input cone contains a line."""


class DegenerateSelection(ToricError):
    """No valid grading degree could be constructed for the requested face."""


class NotComparable(ToricError):
    """A face id is not a face of the lattice."""


class NotSimplicialResult(ToricError):
    """A subdivision step produced a non-simplicial fan where one was required."""


class NotPure(ToricError):
    """Maximal cones of the fan have mixed dimension."""


class NotAShelling(ToricError):
    """A facet order violates the shelling condition.

    The attribute ``index`` is the 0-based position of the first facet whose
    intersection with the union of the earlier facets is not a nonempty union
    of its boundary facets.
    """

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"shelling condition fails at facet index {index}")


class ShellingSearchFailed(ToricError):
    """The recursive boundary-shelling search could not complete."""


class NoShellingFound(ToricError):
    """Exhaustive search proved that the complex admits no shelling."""


class DegreeMismatch(ToricError):
    """A grading degree lies outside the dual cone: it pairs negatively with a ray."""


class NegativeCoefficient(ToricError):
    """A polynomial that must have nonnegative coefficients does not."""


class InvariantViolation(ToricError):
    """A computed object violates a structural invariant at ``face`` (None: no face)."""

    def __init__(self, face: int | None, prop: str, message: str = ""):
        self.face = face
        self.prop = prop
        super().__init__(message or f"face {face}: {prop}")


class NonIntegralExponent(ToricError):
    """A generating function that must have integer exponents does not."""


class CrossCheckMismatch(ToricError):
    """Two independent computations of the same quantity disagree."""
