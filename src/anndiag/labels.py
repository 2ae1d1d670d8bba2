"""The edge alphabet of annulus diagrams.

Six annulus types label the edges: the two Hopf types h1/h2, the two
parallel-boundary types k1(r)/k2(r) carrying a slope, the non-separating
type l(r,s) carrying an unordered slope pair, and em.  Labels are pure
symbols with payloads; the annuli themselves are not modeled.

ASCII grammar (spaces and tabs around tokens tolerated, none required;
SLOPE is the slope syntax of :mod:`anndiag.rational`, with ASCII digits
0-9 only)::

    LABEL ::= "h1" | "h2" | "em"
            | "k1" "(" SLOPE ")" | "k2" "(" SLOPE ")"
            | "l" "(" SLOPE "," SLOPE ")" | "l" "(" "?" ")"

``l(?)`` is a type 3-3 label whose slope pair is not recorded; it exists for
catalog entries only and generators never emit it.

``LABEL_PATTERN`` states the same grammar as a regular expression, for a
parser that reads a whole line in one match; ``matched_label`` builds the
label from its groups.  :func:`scan_label` reads the same text and alone
positions an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ParseError
from .rational import (SLOPE_PATTERN, FormClass, Slope, SlopePair,
                       expect_char, pair_form, parse_whole, scan_slope,
                       scan_slope_pair, skip_ws, slope_of_token)

# LABEL of the grammar above as one pattern.  Its groups, in order: a bare
# tag; a k tag and its slope; the two slopes of an l pair (all five are None
# for l(?)).  A bare tag ends where scan_label's isalnum()/"_" run ends,
# which is \w; a tag with a payload is followed by blanks and "(".
_BLANKS = r"[ \t]*"
LABEL_PATTERN = (
    r"(h1|h2|em)(?!\w)"
    rf"|(k1|k2){_BLANKS}\({_BLANKS}({SLOPE_PATTERN}){_BLANKS}\)"
    rf"|l{_BLANKS}\({_BLANKS}(?:\?|({SLOPE_PATTERN}){_BLANKS},{_BLANKS}"
    rf"({SLOPE_PATTERN})){_BLANKS}\)")

__all__ = [
    "LabelKind",
    "AnnulusLabel",
    "H1",
    "H2",
    "EM",
    "k1",
    "k2",
    "ell",
    "SeparationClass",
    "separation_class",
    "Strictness",
    "ViolationCode",
    "Violation",
    "ValidationResult",
    "validate_label",
    "label_to_text",
    "parse_label",
    "scan_label",
]


class LabelKind(Enum):
    H1 = "h1"
    H2 = "h2"
    K1 = "k1"
    K2 = "k2"
    L = "l"
    EM = "em"


# A member read such as LabelKind.K1 goes through EnumType.__getattr__ on
# Python 3.10 and 3.11 (~0.1 us, ten times a global read), so the per-call
# code of this module reads these aliases, bound once after each enum.
_K1, _K2, _L, _EM = LabelKind.K1, LabelKind.K2, LabelKind.L, LabelKind.EM
_KINDS = {k._value_: k for k in LabelKind}
_INVALID_FORM = FormClass.INVALID


@dataclass(frozen=True, init=False, slots=True)
class AnnulusLabel:
    """One edge label: a kind plus its payload, if the kind carries one.

    Equality is structural on normalized payloads; ``l`` with an absent pair
    equals only ``l`` with an absent pair.
    """

    kind: LabelKind
    slope: Slope | None = None
    pair: SlopePair | None = None

    def __init__(self, kind: LabelKind, slope: Slope | None = None,
                 pair: SlopePair | None = None):
        if kind is _K1 or kind is _K2:
            if slope is None or pair is not None:
                raise ValueError(f"{kind._value_} takes exactly a slope payload")
        elif kind is _L:
            if slope is not None:
                raise ValueError("l takes a slope pair, not a slope")
        elif type(kind) is not type(_EM):  # not a LabelKind
            raise ValueError(f"{kind!r} is not a label kind")
        elif slope is not None or pair is not None:
            raise ValueError(f"{kind._value_} takes no payload")
        _set_kind(self, kind)
        _set_slope(self, slope)
        _set_pair(self, pair)

    def __str__(self) -> str:
        return label_to_text(self)

    def __repr__(self) -> str:
        return f"AnnulusLabel({self})"


# AnnulusLabel.__init__ stores each frozen field through its slot's __set__,
# bound once here: object.__setattr__ takes 1.5-1.9 times as long a field.
_set_kind = AnnulusLabel.kind.__set__
_set_slope, _set_pair = AnnulusLabel.slope.__set__, AnnulusLabel.pair.__set__

H1 = AnnulusLabel(LabelKind.H1)
H2 = AnnulusLabel(LabelKind.H2)
EM = AnnulusLabel(LabelKind.EM)


def k1(slope: Slope) -> AnnulusLabel:
    return AnnulusLabel(_K1, slope)


def k2(slope: Slope) -> AnnulusLabel:
    return AnnulusLabel(_K2, slope)


def ell(pair: SlopePair | None = None) -> AnnulusLabel:
    return AnnulusLabel(_L, None, pair)


class SeparationClass(Enum):
    SEPARATING = "separating"
    NON_SEPARATING = "non-separating"
    UNKNOWN = "unknown"


_SEPARATING = SeparationClass.SEPARATING
_NON_SEPARATING = SeparationClass.NON_SEPARATING
_UNKNOWN = SeparationClass.UNKNOWN


def separation_class(lab: AnnulusLabel) -> SeparationClass:
    """Whether the labeled annulus separates the handlebody-knot exterior.

    The unique non-separating characteristic annulus is of type 3-3 (an l
    edge); em and the k types cut off a solid torus, hence separate.  The
    Hopf types are left UNKNOWN rather than guessed.
    """
    kind = lab.kind
    if kind is _L:
        return _NON_SEPARATING
    if kind is _K1 or kind is _K2 or kind is _EM:
        return _SEPARATING
    return _UNKNOWN


class Strictness(Enum):
    STRICT = "strict"
    LENIENT = "lenient"


_STRICT = Strictness.STRICT


class ViolationCode(Enum):
    FINITE_SLOPE_REQUIRED = "FiniteSlopeRequired"
    NON_INTEGRAL_REQUIRED = "NonIntegralRequired"
    SLOPE_PAIR_FORM_INVALID = "SlopePairFormInvalid"
    MISSING_SLOPE_PAIR = "MissingSlopePair"
    EM_WITH_NON_SEPARATING = "EmWithNonSeparating"
    STICK_MUST_BE_K1 = "StickMustBeK1"


@dataclass(frozen=True)
class Violation:
    code: ViolationCode
    where: str
    detail: str

    def __str__(self) -> str:
        return f"{self.where}: {self.code.value}: {self.detail}"


@dataclass(frozen=True)
class ValidationResult:
    """Violations reject a value; warnings are advisory and do not."""

    violations: tuple[Violation, ...] = ()
    warnings: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_label(lab: AnnulusLabel,
                   strictness: Strictness = Strictness.LENIENT,
                   where: str = "label") -> ValidationResult:
    """Check a label's payload against the per-type slope constraints.

    k1 slopes must be finite and non-integral in both modes.  k2 slopes must
    be finite in both modes; STRICT additionally demands non-integrality,
    which LENIENT waives so that computed diagrams with an integral type
    3-2ii slope remain valid.  l pairs must match one of the two legal
    forms; an absent pair passes with a warning.  h1, h2, em always pass.
    """
    found = label_finding(lab, strictness)
    if found is None:
        return ValidationResult()
    warning, code, detail = found
    if warning:
        return ValidationResult((), (Violation(code, where, detail),))
    return ValidationResult((Violation(code, where, detail),))


def label_finding(lab: AnnulusLabel, strictness: Strictness
                  ) -> tuple[bool, ViolationCode, str] | None:
    """The one finding :func:`validate_label` reports on a label, as
    (is it a warning, code, detail), or None when the label passes.  A
    caller names the place of the finding only when there is one."""
    kind = lab.kind
    if kind is _K1 or kind is _K2:
        s = lab.slope
        if s.is_infinite:
            return (False, ViolationCode.FINITE_SLOPE_REQUIRED,
                    f"{kind._value_} slope must be finite, got inf")
        if s.is_integral and (kind is _K1 or strictness is _STRICT):
            return (False, ViolationCode.NON_INTEGRAL_REQUIRED,
                    f"{kind._value_} slope must be non-integral, got {s}")
    elif kind is _L:
        pr = lab.pair
        if pr is None:
            return (True, ViolationCode.MISSING_SLOPE_PAIR,
                    "l label without a recorded slope pair")
        if pr.first.is_infinite or pr.second.is_infinite:
            return (False, ViolationCode.FINITE_SLOPE_REQUIRED,
                    f"l slope pair must be finite, got {pr}")
        if pair_form(pr) is _INVALID_FORM:
            return (False, ViolationCode.SLOPE_PAIR_FORM_INVALID,
                    f"{pr} matches neither (p/q,q/p) nor (p/q,pq)")
    return None


def label_to_text(lab: AnnulusLabel) -> str:
    """Render a label in the ASCII grammar with normalized payloads."""
    kind = lab.kind._value_  # .value is a slower property
    if lab.slope is not None:  # k1 and k2 alone carry a slope
        return f"{kind}({lab.slope})"
    if lab.kind is _L:
        return "l(?)" if lab.pair is None else f"l{lab.pair}"
    return kind


_TAGS = ("h1", "h2", "em", "k1", "k2", "l")

_BARE = {"h1": H1, "h2": H2, "em": EM}


def matched_label(bare: str | None, k: str | None, slope: str | None,
                  first: str | None, second: str | None) -> AnnulusLabel:
    """The label ``LABEL_PATTERN`` matched, from its five groups.  Raises
    what :func:`slope_of_token` raises."""
    if bare is not None:
        return _BARE[bare]
    if k is not None:
        return AnnulusLabel(_KINDS[k], slope_of_token(slope))
    if first is None:
        return ell()
    return ell(SlopePair(slope_of_token(first), slope_of_token(second)))


def scan_label(text: str, pos: int = 0) -> tuple[AnnulusLabel, int]:
    """Scan one label at ``pos``; return (label, next position).  Columns in
    a raised :class:`ParseError` are 1-based and relative to ``text``."""
    pos = skip_ws(text, pos)
    start = pos
    while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
        pos += 1
    tag = text[start:pos]
    kind = _KINDS.get(tag)
    if kind is None:
        raise ParseError(f"unknown label type {tag!r}" if tag else "expected a label",
                         col=start + 1, expected=_TAGS)
    if tag in ("h1", "h2", "em"):
        return AnnulusLabel(kind), pos
    paren = pos
    pos = skip_ws(text, expect_char(text, pos, "("))
    if tag == "l":
        if text.startswith("?", pos):
            return ell(), expect_char(text, pos + 1, ")")
        pair, pos = scan_slope_pair(text, paren)
        return ell(pair), pos
    s, pos = scan_slope(text, pos)
    return AnnulusLabel(kind, s), expect_char(text, pos, ")")


def parse_label(text: str) -> AnnulusLabel:
    """Parse a complete label string per the module grammar."""
    return parse_whole(scan_label, text, "label")
