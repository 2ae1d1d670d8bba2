"""Exception types shared across the package.

Validation problems (bad labels, lemma-violating diagrams) are *not*
exceptions; they are reported as violation lists by ``validate_label`` and
``validate_diagram``.  The classes here cover unconstructible values and
unparseable text only.
"""

from __future__ import annotations


class SlopeError(ValueError):
    """Base class for slope construction and transform errors."""


class ZeroOverZero(SlopeError):
    """Raised when a slope would be 0/0, which represents nothing."""


class NotUnimodular(SlopeError):
    """Raised when a linear-fractional transform matrix has |det| != 1."""


class InfiniteSlope(SlopeError):
    """Raised when an operation defined for finite slopes receives infinity."""


class ParameterOutOfDomain(ValueError):
    """Raised when a family parameter violates the family's precondition."""


class DiagramError(ValueError):
    """Base class for structural diagram errors.  The file parser sets the
    1-based ``line`` and ``col`` of the offending token, and the error then
    prints as a :class:`ParseError` does; elsewhere it is the bare message."""

    def __init__(self, message: str, line: int | None = None, col: int = 1):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col
        self.expected = ()

    def __str__(self) -> str:
        return self.message if self.line is None else ParseError.__str__(self)


class DanglingEndpoint(DiagramError):
    """Raised when an edge references a node index that does not exist."""

    @classmethod
    def for_edge(cls, a: int, b: int, node_count: int,
                 col: int = 1) -> DanglingEndpoint:
        nodes = (f"a node outside 0..{node_count - 1}" if node_count
                 else "a node, but the diagram has no nodes")
        return cls(f"edge ({a}, {b}) references {nodes}", col=col)


class TooManyNodes(DiagramError):
    """Raised when a diagram exceeds the node bound ``diagram.MAX_NODES``."""

    @classmethod
    def for_count(cls, count: int, bound: int, col: int = 1) -> TooManyNodes:
        return cls(f"{count} nodes exceeds the bound of {bound}", col=col)


class ParseError(ValueError):
    """A positioned syntax error: 1-based line and column, plus the token
    classes that would have been accepted at that point."""

    def __init__(self, message: str, line: int = 1, col: int = 1,
                 expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected

    def __str__(self) -> str:
        detail = f"line {self.line}, column {self.col}: {self.message}"
        if self.expected:
            detail += " (expected " + " | ".join(self.expected) + ")"
        return detail


class UnsupportedVersion(ParseError):
    """Raised for a well-formed header whose format version is unknown."""
