"""Exception hierarchy.

Every domain failure raises a subclass of MbmlatError so the CLI can map
library errors to exit code 1 with a structured message, while genuine
usage errors stay on argparse's exit code 2.
"""


class MbmlatError(Exception):
    """Base class for all domain errors raised by this package."""


class ValidationError(MbmlatError):
    """Malformed input data (non-square/asymmetric Gram, bad JSON, ...)."""


class RankMismatchError(MbmlatError):
    """A vector's length does not match the lattice rank."""


class DegenerateLatticeError(MbmlatError):
    """Operation requires a non-degenerate lattice (discriminant != 0)."""


class SignatureError(MbmlatError):
    """Operation requires a specific signature (e.g. (1, m) or (0, rank))."""


class IsotropicVectorError(MbmlatError):
    """Projection or reflection attempted along a vector with q(x, x) = 0."""


class NonPositiveVectorError(MbmlatError):
    """A vector required to lie in the positive cone does not."""


class WallIncidenceError(MbmlatError):
    """A point lies on a wall; callers can perturb and retry."""


class NonIntegralReflectionError(MbmlatError):
    """The reflection in the given class is not integral on the lattice."""

    def __init__(self, message, basis_index=None):
        super().__init__(message)
        self.basis_index = basis_index


class FlagChainError(MbmlatError):
    """A wall chain does not bound a common chamber within the positive cone."""


class KernelRankError(MbmlatError):
    """Degenerate-kernel algorithm requires a kernel of dimension exactly 1."""


class BaseRepsError(MbmlatError):
    """Supplied orbit representatives are invalid (wrong square, zero, ...)."""


class ReductionInvariantError(MbmlatError):
    """Internal diagnostic: a run-time invariant of the chamber geometry
    failed -- a reflection step that does not decrease the separating-wall
    count, a crossing that changes the chamber key by more than the
    crossed wall, or a base chamber with an obtuse angle between facets."""


class SquareBoundViolationError(MbmlatError):
    """Internal diagnostic: an integral reflection with |q(s,s)| > 2*delta was
    found, contradicting the reflectivity bound."""


class CatalogError(MbmlatError):
    """Catalog entry failed validation; message names the entry and invariant."""
