"""Reference models the benchmark checks anndiag's outputs against.

Nothing here imports anndiag.  The models are built from the paper's
formulas and the documented v1 text format:

* the twist families' slope data as exact ``Fraction`` values, with
  isomorphism of two members decided by comparing label multisets;
* a v1 document writer that renders model diagrams as text;
* the label and diagram validation rules (k1/k2/l slope rules, rule G1:
  ``em`` forbids an ``l`` companion, rule G2: a stick carries ``k1`` with a
  non-integral finite slope).

A model diagram is ``(kinds, edges)``: ``kinds`` a tuple of ``"s"``, ``"h"``
or ``"u"``, ``edges`` a tuple of ``(a, b, label)``.  A label is a tuple
``(tag,)`` for ``h1``/``h2``/``em``, ``(tag, slope)`` for ``k1``/``k2`` and
``("l", pair)`` where ``pair`` is ``None`` (unrecorded) or a 2-tuple of
slopes.  A slope is a ``Fraction`` or :data:`INF`.
"""

from __future__ import annotations

from fractions import Fraction

INF = "inf"

FAMILIES = ("motto", "ll1", "ll1v", "ll2", "e")

# Catalog data from the paper: each anchor's diagram, and whether its
# exterior determines the knot type.  4_1 has a theta shape whose labels
# are not recorded.
ANCHOR = {"motto": "6_1", "ll2": "5_2", "ll1": "5_1", "ll1v": "5_1"}
EXTERIOR_DETERMINES = {"4_1": "yes", "5_1": "unknown", "5_2": "no",
                       "6_1": "yes"}


# Slopes and labels

def slope_text(s) -> str:
    if s == INF:
        return "inf"
    if s.denominator == 1:
        return str(s.numerator)
    return f"{s.numerator}/{s.denominator}"


def _pair_order(s):
    # Larger denominators first, ties by numerator descending; inf last.
    if s == INF:
        return (0, -1)
    return (-s.denominator, -s.numerator)


def pair_sorted(pair):
    return tuple(sorted(pair, key=_pair_order))


def label_text(lab) -> str:
    """The normalized ASCII rendering of a label."""
    tag = lab[0]
    if tag in ("k1", "k2"):
        return f"{tag}({slope_text(lab[1])})"
    if tag == "l":
        if lab[1] is None:
            return "l(?)"
        a, b = pair_sorted(lab[1])
        return f"l({slope_text(a)},{slope_text(b)})"
    return tag


def pair_form(a: Fraction, b: Fraction) -> str:
    """``reciprocal`` for (p/q, q/p) with pq != 0, ``product`` for
    (p/q, pq), ``both`` or ``invalid``; either member may play p/q."""
    reciprocal = (a != 0 and b == 1 / a) or (b != 0 and a == 1 / b)
    product = (b == a.numerator * a.denominator
               or a == b.numerator * b.denominator)
    if reciprocal and product:
        return "both"
    if reciprocal:
        return "reciprocal"
    if product:
        return "product"
    return "invalid"


# Twist families

def in_domain(family: str, n: int) -> bool:
    if family == "ll1":
        return n != 0
    if family == "ll1v":
        return n not in (0, -1)
    return True


def member(family: str, n: int):
    """The n-th member's model diagram from the paper's slope formulas."""
    if family == "motto":
        return ("u", "u", "u"), ((0, 1, ("h2",)),
                                 (1, 2, ("k2", Fraction(2, 1 - 2 * n))))
    if family == "ll1":
        return ("u",), ((0, 0, ("l", (Fraction(1, n), Fraction(n)))),)
    if family == "ll1v":
        return ("u",), ((0, 0, ("l", (Fraction(n, n + 1),
                                      Fraction(n + 1, n)))),)
    if family == "ll2":
        return ("u", "u"), ((0, 1, ("k1", Fraction(4, 3) + 4 * n)),)
    return ("u", "u"), ((0, 1, ("h2",)),)


def knot(name: str):
    """The catalog diagram of a table knot, ``None`` for 4_1."""
    if name == "5_1":
        return ("u",), ((0, 0, ("h1",)),)
    if name == "5_2":
        return ("u", "u"), ((0, 1, ("k1", Fraction(4, 3))),)
    if name == "6_1":
        return ("u", "u", "u"), ((0, 1, ("h2",)), (1, 2, ("k2", Fraction(2))))
    return None


def relabel(rng, kinds, edges):
    """The same diagram with nodes renumbered, edges shuffled and endpoint
    order flipped, all drawn from ``rng``."""
    perm = list(range(len(kinds)))
    rng.shuffle(perm)
    new_kinds = [None] * len(kinds)
    for old, new in enumerate(perm):
        new_kinds[new] = kinds[old]
    new_edges = [(perm[b], perm[a], lab) if rng.random() < 0.5
                 else (perm[a], perm[b], lab) for a, b, lab in edges]
    rng.shuffle(new_edges)
    return tuple(new_kinds), new_edges


def shape(d) -> str:
    """Shape class: label multisets first, then the bare stick."""
    kinds, edges = d
    tags = sorted(lab[0] for _, _, lab in edges)
    if tags == ["h2"]:
        return "circle"
    if tags in (["h2", "k1"], ["h2", "k2"]):
        return "circle-stick"
    if tags == ["h2", "h2", "l"]:
        return "theta"
    if len(kinds) == 2 and len(edges) == 1 and edges[0][0] != edges[0][1]:
        return "stick"
    return "other"


def _label_key(lab):
    if lab[0] == "l" and lab[1] is not None:
        return ("l", pair_sorted(lab[1]))
    return lab


def signature(d):
    """An isomorphism invariant that is complete on the family layouts:
    node kinds, shape, and the multiset of normalized labels.  Every family
    member and catalog diagram is a path, loop or stick whose layout the
    shape fixes, so equal signatures mean isomorphic diagrams."""
    kinds, edges = d
    return (tuple(sorted(kinds)), shape(d),
            tuple(sorted((_label_key(lab) for _, _, lab in edges), key=repr)))


def verdict(d1, d2, homeomorphic: bool) -> str:
    """The decision procedure of the paper on model diagrams."""
    if signature(d1) != signature(d2):
        return "inequivalent"
    if homeomorphic and shape(d1) in ("circle-stick", "theta"):
        return "equivalent"
    return "inconclusive"


def table_row(family: str, n: int) -> str:
    d = member(family, n)
    labels = ",".join(label_text(lab) for _, _, lab in d[1])
    return f"{n}\t{labels}\t{shape(d)}"


# The v1 text format

HEADER = "annulusdiagram v1"


def document_lines(d, name=None, note=None):
    """The normalized v1 lines of a model diagram, without newlines."""
    kinds, edges = d
    lines = [HEADER, ("nodes: " + " ".join(kinds)) if kinds else "nodes:"]
    lines.extend(f"edge: {a} {b} {label_text(lab)}" for a, b, lab in edges)
    if name is not None:
        lines.append(f"name: {name}")
    if note is not None:
        lines.append(f"note: {note}")
    return lines


def document(d, name=None, note=None) -> str:
    return "\n".join(document_lines(d, name, note)) + "\n"


# Validation rules

def label_violations(lab, strict: bool, where: str):
    """(violations, warnings) as lists of ``(where, code)``."""
    tag = lab[0]
    if tag in ("k1", "k2"):
        s = lab[1]
        if s == INF:
            return [(where, "FiniteSlopeRequired")], []
        if s.denominator == 1 and (tag == "k1" or strict):
            return [(where, "NonIntegralRequired")], []
    elif tag == "l":
        if lab[1] is None:
            return [], [(where, "MissingSlopePair")]
        a, b = lab[1]
        if a == INF or b == INF:
            return [(where, "FiniteSlopeRequired")], []
        if pair_form(a, b) == "invalid":
            return [(where, "SlopePairFormInvalid")], []
    return [], []


def diagram_violations(d, strict: bool):
    """Label rules on every edge, then rules G1 and G2."""
    violations, warnings = [], []
    _, edges = d
    for i, (_, _, lab) in enumerate(edges):
        v, w = label_violations(lab, strict, f"edge {i}")
        violations += v
        warnings += w
    tags = [lab[0] for _, _, lab in edges]
    if "em" in tags and "l" in tags:
        violations.append(("diagram", "EmWithNonSeparating"))
    if shape(d) == "stick":
        lab = edges[0][2]
        if not (lab[0] == "k1" and lab[1] != INF and lab[1].denominator != 1):
            violations.append(("diagram", "StickMustBeK1"))
    return violations, warnings
