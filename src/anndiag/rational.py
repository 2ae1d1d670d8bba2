"""Exact arithmetic for slopes in Q ∪ {∞} and unordered slope pairs.

A slope records the isotopy class of a curve on the boundary of a solid
torus as an extended rational p/q.  Values are normalized on construction:
gcd(|p|, |q|) = 1, q >= 0 with the sign carried by p, and infinity stored
uniquely as 1/0.  Python integers are arbitrary precision, so family tables
over large twist parameters cannot overflow.

Textual syntax used throughout the package: ``p/q`` with an optional leading
``-``, ``inf`` for infinity, and a bare integer ``n`` meaning ``n/1``.
Unordered pairs print as ``(a,b)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from math import gcd

from .errors import InfiniteSlope, NotUnimodular, ParseError, ZeroOverZero

__all__ = [
    "Slope",
    "SlopePair",
    "FormClass",
    "apply_unimodular",
    "pair_form",
    "parse_slope",
    "parse_slope_pair",
    "scan_slope",
    "scan_slope_pair",
]


@dataclass(frozen=True, init=False, slots=True)
class Slope:
    """A normalized extended rational p/q.

    ``Slope(p, q)`` reduces its arguments, so ``Slope(4, 6) == Slope(2, 3)``
    and ``Slope(k*p, k*q) == Slope(p, q)`` for any nonzero k.  ``Slope(p, 0)``
    is infinity, stored as 1/0.  ``Slope(0, 0)`` raises :class:`ZeroOverZero`.
    """

    p: int
    q: int

    def __init__(self, p: int, q: int):
        if q == 0:
            if p == 0:
                raise ZeroOverZero("slope 0/0 is unrepresentable")
            p = 1
        else:
            if q < 0:
                p, q = -p, -q
            g = gcd(p, q)
            p, q = p // g, q // g
        _set_p(self, p)
        _set_q(self, q)

    @property
    def is_integral(self) -> bool:
        """True iff the slope is an integer.  Infinity is not integral."""
        return self.q == 1

    @property
    def is_infinite(self) -> bool:
        return self.q == 0

    def reciprocal(self) -> "Slope":
        return Slope(self.q, self.p)

    def __str__(self) -> str:
        if self.q == 0:
            return "inf"
        if self.q == 1:
            return str(self.p)
        return f"{self.p}/{self.q}"

    def __repr__(self) -> str:
        return f"Slope({self.p}, {self.q})"


# The __init__s of this module store each frozen field through its slot's
# __set__, bound once after each class: object.__setattr__ takes 1.5-1.9
# times as long a field.
_set_p, _set_q = Slope.p.__set__, Slope.q.__set__

INFINITY = Slope(1, 0)


@dataclass(frozen=True, init=False, slots=True)
class SlopePair:
    """An unordered pair of slopes, stored in a canonical order.

    Construction from (a, b) and from (b, a) yields identical fields: the
    member with the larger denominator is stored first (ties broken by
    numerator, descending), and infinity always sorts last, matching the
    printed forms l(1/3,3), l(1/2,2), ...
    """

    first: Slope
    second: Slope

    def __init__(self, first: Slope, second: Slope):
        if (first.q, first.p) < (second.q, second.p):
            first, second = second, first
        _set_first(self, first)
        _set_second(self, second)

    def __str__(self) -> str:
        return f"({self.first},{self.second})"

    def __repr__(self) -> str:
        return f"SlopePair({self.first!r}, {self.second!r})"


_set_first, _set_second = SlopePair.first.__set__, SlopePair.second.__set__


class FormClass(Enum):
    """Which of the two legal type 3-3 slope-pair forms a pair matches.

    A pair is RECIPROCAL when it can be written (p/q, q/p) with pq != 0,
    PRODUCT when it can be written (p/q, pq) with q != 0, BOTH when both
    readings apply, and INVALID otherwise.
    """

    RECIPROCAL = "reciprocal"
    PRODUCT = "product"
    BOTH = "both"
    INVALID = "invalid"


# A member read such as FormClass.BOTH goes through EnumType.__getattr__ on
# Python 3.10 and 3.11 (~0.1 us); pair_form reads these aliases instead.
_RECIPROCAL, _PRODUCT = FormClass.RECIPROCAL, FormClass.PRODUCT
_BOTH, _INVALID = FormClass.BOTH, FormClass.INVALID


def apply_unimodular(s: Slope, a: int, b: int, c: int, d: int) -> Slope:
    """Transform p/q to (a*p + b*q)/(c*p + d*q) for a unimodular matrix.

    Requires ad - bc = ±1; composition of transforms equals the transform by
    the matrix product.  Unimodularity keeps the image away from 0/0.
    """
    if abs(a * d - b * c) != 1:
        raise NotUnimodular(f"matrix ({a},{b},{c},{d}) has determinant {a*d-b*c}")
    return Slope(a * s.p + b * s.q, c * s.p + d * s.q)


def pair_form(pr: SlopePair) -> FormClass:
    """Classify a slope pair against the two legal forms.

    Both members must be finite.  The pair is unordered, so each form is
    tested with either member playing the p/q role, on the normalized
    integers: (p/q, q/p) holds when p != 0 and the cross products agree, and
    (p/q, pq) when the other member is the integer pq.
    """
    a, b = pr.first, pr.second
    if a.q == 0 or b.q == 0:
        raise InfiniteSlope(f"pair {pr} has an infinite member")
    reciprocal = a.p != 0 and a.p * b.p == a.q * b.q
    product = (b.q == 1 and b.p == a.p * a.q) or (a.q == 1 and a.p == b.p * b.q)
    if reciprocal and product:
        return _BOTH
    if reciprocal:
        return _RECIPROCAL
    if product:
        return _PRODUCT
    return _INVALID


# Text syntax, and the scanning primitives every parser in the package uses.
# Positions are 0-based; ParseError columns are 1-based.  DIGITS are ASCII
# 0-9 only, and whitespace is a space or a tab.
#
# SLOPE ::= "inf" | "-"? DIGITS ("/" DIGITS)?
# PAIR  ::= "(" SLOPE "," SLOPE ")"

_match_digits = re.compile("[0-9]*").match


def skip_ws(text: str, pos: int) -> int:
    """Skip spaces and tabs from ``pos``; return the next position."""
    while pos < len(text) and text[pos] in " \t":
        pos += 1
    return pos


def expect_char(text: str, pos: int, ch: str) -> int:
    """Skip whitespace, then require ``ch``; return the position after it."""
    pos = skip_ws(text, pos)
    if not text.startswith(ch, pos):
        raise ParseError(f"expected '{ch}'", col=pos + 1, expected=(ch,))
    return pos + 1


def scan_digits(text: str, pos: int) -> tuple[int | None, int]:
    """Read ASCII digits at ``pos``; return (value, or None if there are
    none, and the next position).  This is the package's one ``int()`` of
    scanned text: a run past the int-string limit is a ParseError."""
    end = _match_digits(text, pos).end()
    if end == pos:
        return None, pos
    try:
        return int(text[pos:end]), end
    except ValueError:
        raise ParseError(f"number too long ({end - pos} digits)",
                         col=pos + 1) from None


def parse_whole(scan, text: str, what: str):
    """The value ``scan`` reads from all of ``text``, blanks around it
    allowed."""
    value, pos = scan(text, skip_ws(text, 0))
    pos = skip_ws(text, pos)
    if pos != len(text):
        raise ParseError(f"trailing characters after {what}", col=pos + 1)
    return value


def scan_slope(text: str, pos: int = 0) -> tuple[Slope, int]:
    """Scan one slope token at ``pos``; return (slope, next position)."""
    if text.startswith("inf", pos):
        return INFINITY, pos + 3
    neg = text.startswith("-", pos)
    p, end = scan_digits(text, pos + 1 if neg else pos)
    if p is None:
        raise ParseError("expected a slope", col=pos + 1,
                         expected=("integer", "p/q", "inf"))
    q = 1
    if text.startswith("/", end):
        q, den = scan_digits(text, end + 1)
        if q is None:
            raise ParseError("expected a denominator", col=end + 2,
                             expected=("digits",))
        end = den
    try:
        return Slope(-p if neg else p, q), end
    except ZeroOverZero:
        raise ParseError("slope 0/0 is unrepresentable", col=pos + 1) from None


def scan_slope_pair(text: str, pos: int = 0) -> tuple[SlopePair, int]:
    """Scan ``(a,b)`` starting at ``pos``; return (pair, next position)."""
    pos = expect_char(text, pos, "(")
    a, pos = scan_slope(text, skip_ws(text, pos))
    pos = expect_char(text, pos, ",")
    b, pos = scan_slope(text, skip_ws(text, pos))
    return SlopePair(a, b), expect_char(text, pos, ")")


def parse_slope(text: str) -> Slope:
    """Parse a complete slope string, e.g. ``4/3``, ``-2``, ``inf``."""
    return parse_whole(scan_slope, text, "slope")


def parse_slope_pair(text: str) -> SlopePair:
    """Parse ``(a,b)`` into an unordered pair."""
    return parse_whole(scan_slope_pair, text, "slope pair")
