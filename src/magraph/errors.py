"""Exception hierarchy for the magraph package.

Every domain failure raises a subclass of :class:`MagError`, so callers (and
the CLI) can catch one type. Errors raised while reading a ``.mag`` file carry
the offending line number.
"""

from __future__ import annotations


class MagError(Exception):
    """Base class for all magraph domain errors."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EmptyAspectError(MagError):
    """An aspect has no elements, or the aspect list itself is empty."""


class InvalidAspectError(MagError):
    """Duplicate aspect names, or duplicate element labels within an aspect."""


class UnknownElementError(MagError):
    """An edge or vertex refers to a label not present in its aspect."""


class EdgeArityError(MagError):
    """An edge does not have exactly one origin and one destination element per aspect."""


class SelfLoopEdgeError(MagError):
    """Origin and destination composite vertices coincide."""


class DuplicateEdgeError(MagError):
    """The same (origin, destination) pair appears more than once."""


class InvalidZetaError(MagError):
    """A sub-determination mask is outside [1, 2^p - 2] or malformed."""


class IndexOutOfRangeError(MagError):
    """A numeric vertex component or vertex index is outside its valid range."""


class UnknownVertexError(MagError):
    """A traversal source does not denote a vertex of the graph."""


class ShapeMismatchError(MagError):
    """Matrix operands have incompatible shapes."""


class NonzeroDiagonalError(MagError):
    """An adjacency matrix has a nonzero diagonal entry (self-loop)."""


class NonBinaryEntryError(MagError):
    """An adjacency matrix entry is neither 0 nor 1."""


class WeightCountError(MagError):
    """An edge-weight vector does not have one entry per edge."""


class NonPositiveWeightError(MagError):
    """An edge weight is not a finite positive number."""


class TooLargeForDenseError(MagError):
    """A dense-only computation was requested beyond the dense size cap."""


class UnknownOptionError(MagError, ValueError):
    """A method or kind argument names no option the function has."""


class UnknownExampleError(MagError):
    """No builtin example with the requested name."""


class MagParseError(MagError):
    """Malformed ``.mag`` or Matrix Market input."""
