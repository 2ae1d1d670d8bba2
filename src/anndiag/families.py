"""Twist families, the small knot catalog, and equivalence decisions.

Each family is an infinite sequence of genus-two handlebody-knots obtained
by re-embedding one exterior via n twists along a twisting annulus or disk,
so all members of a family share a homeomorphic exterior.  A family also
fixes its layout and label kinds, so its shape is a constant, which
``shape_of`` computes once (``FAMILY_SHAPES``); only the slopes change with
n, each in one closed form (``family_labels``).  Where a twist acts on a
table knot's slope, that form is the slope's image under the twist's
unimodular matrix (``apply_unimodular``), checked for every n drawn.

The knot catalog is one table built at import: ``base_diagram`` returns
its shared entry, so each catalog diagram keeps its canonical key.

Slope formulas per family (n the twist count):

* Motto family (twists on the 6_1 exterior): h2 plus k2 with slope
  2/(1 - 2n), the image of 6_1's k2 slope 2/1 under (1, 0; -n, 1).
* Lee-Lee family I (twists on 5_1 along a disk, n != 0): a single l edge
  with slope pair (1/n, n).
* Lee-Lee I variant (twists on 5_1 along an annulus, n not in {0, -1}):
  a single l edge with slope pair (n/(n+1), (n+1)/n).
* Lee-Lee family II (twists on 5_2): a stick with k1 slope 4/3 + 4n,
  the image of 5_2's k1 slope 4/3 under (1, 4n; 0, 1).
* E family: a single h2 edge for every n; its members are inequivalent even
  though diagram and exterior agree, which bounds what any decision on the
  circle shape may conclude.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .diagram import Diagram, Edge, NodeKind, ShapeClass, are_isomorphic, shape_of
from .errors import ParameterOutOfDomain
from .labels import H1, H2, AnnulusLabel, ell, k1, k2
from .rational import Slope, SlopePair

__all__ = [
    "Family",
    "TableKnot",
    "ExteriorDetermines",
    "Verdict",
    "CatalogEntry",
    "FAMILY_SHAPES",
    "family_labels",
    "family_diagram",
    "base_diagram",
    "distinguish",
    "decide_equivalence",
    "e_family_crossing_number",
    "leelee2_companion_torus_knot",
]


class Family(Enum):
    MOTTO = "motto"
    LL1 = "ll1"
    LL1_VARIANT = "ll1v"
    LL2 = "ll2"
    E = "e"


# A member read such as Family.MOTTO goes through EnumType.__getattr__ on
# Python 3.10 and 3.11 (~0.1 us, ten times a global read), so the per-call
# code of this module reads these aliases, bound once after each enum.
_MOTTO, _LL1, _LL1V, _LL2 = Family.MOTTO, Family.LL1, Family.LL1_VARIANT, Family.LL2


class TableKnot(Enum):
    K4_1 = "4_1"
    K5_1 = "5_1"
    K5_2 = "5_2"
    K6_1 = "6_1"


class ExteriorDetermines(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class Verdict(Enum):
    INEQUIVALENT = "inequivalent"
    EQUIVALENT = "equivalent"
    INCONCLUSIVE = "inconclusive"


_INEQUIVALENT = Verdict.INEQUIVALENT
_EQUIVALENT = Verdict.EQUIVALENT
_INCONCLUSIVE = Verdict.INCONCLUSIVE


@dataclass(frozen=True)
class CatalogEntry:
    """A named table knot: its recorded diagram (if stated anywhere), shape,
    and whether its exterior is known to determine its knot type."""

    name: str
    diagram: Diagram | None
    shape: ShapeClass
    exterior_determines: ExteriorDetermines
    notes: str

    def __post_init__(self):
        if self.diagram is not None and shape_of(self.diagram) is not self.shape:
            raise ValueError(f"recorded shape {self.shape} does not match diagram")


_U = NodeKind.UNKNOWN
# Each family's node kinds, and the ends of the edge of each of its labels in
# order.  k1, k2 and h2 edges join two distinct nodes; an l edge is a loop.
_LAYOUTS = {
    _MOTTO: ((_U, _U, _U), ((0, 1), (1, 2))),
    _LL1: ((_U,), ((0, 0),)),
    _LL1V: ((_U,), ((0, 0),)),
    _LL2: ((_U, _U), ((0, 1),)),
    Family.E: ((_U, _U), ((0, 1),)),
}


def family_labels(f: Family, n: int) -> tuple[AnnulusLabel, ...]:
    """The edge labels of the n-th member of a twist family.  LL1 requires
    n != 0 and LL1_VARIANT requires n not in {0, -1} (at those parameters
    the stated slope data degenerates); Motto, LL2, and E accept every n."""
    if f is _MOTTO:
        return (H2, k2(Slope(2, 1 - 2 * n)))
    if f is _LL1:
        if n == 0:
            raise ParameterOutOfDomain("ll1 requires n != 0")
        return (ell(SlopePair(Slope(1, n), Slope(n, 1))),)
    if f is _LL1V:
        if n in (0, -1):
            raise ParameterOutOfDomain(
                "ll1v requires n not in {0, -1}: slope n/(n+1) must be "
                "defined and non-integral")
        return (ell(SlopePair(Slope(n, n + 1), Slope(n + 1, n))),)
    if f is _LL2:
        return (k1(Slope(4 + 12 * n, 3)),)
    # E family: one type 2-2 annulus for every twist count.
    return (H2,)


# Each family's node kinds, the edges of its labels but the last, and the
# ends of the last, keyed by the family's value (a Family key hashes through
# Python code).  Only the last label varies with n (motto's h2 is fixed), so
# every member shares the other edges of member 1.
_MEMBERS = {
    f._value_: (nodes, tuple(Edge(a, b, label) for (a, b), label
                             in zip(ends, family_labels(f, 1)[:-1])), ends[-1])
    for f, (nodes, ends) in _LAYOUTS.items()}


def family_diagram(f: Family, n: int) -> Diagram:
    """The n-th member of a twist family: ``family_labels(f, n)`` on the
    family's layout, every node kind UNKNOWN."""
    nodes, fixed, (a, b) = _MEMBERS[f._value_]
    return Diagram(nodes, (*fixed, Edge(a, b, family_labels(f, n)[-1])))


# Every member has the shape of member 1, which is in every domain.
FAMILY_SHAPES = {f: shape_of(family_diagram(f, 1)) for f in Family}


_CATALOG = {TableKnot(entry.name): entry for entry in (
    CatalogEntry(
        "4_1", None, ShapeClass.THETA, ExteriorDetermines.YES,
        "theta-shaped characteristic diagram; any handlebody-knot whose "
        "exterior has this characteristic diagram is equivalent to 4_1, "
        "and the theta criterion applies; edge labels unrecorded"),
    CatalogEntry(
        "5_1", Diagram((_U,), (Edge(0, 0, H1),)),
        ShapeClass.OTHER, ExteriorDetermines.UNKNOWN,
        "a single type 2-1 annulus, the unique essential annulus in the "
        "exterior; no equivalence criterion is known for this diagram"),
    CatalogEntry(
        "5_2", Diagram((_U, _U), (Edge(0, 1, k1(Slope(4, 3))),)),
        ShapeClass.STICK, ExteriorDetermines.NO,
        "stick diagram with k1(4/3): the exterior is the I-bundle piece "
        "glued to a solid torus along the cabling annulus of a "
        "(4,3)-torus knot; the Lee-Lee II twist family realizes "
        "infinitely many inequivalent knots with this exterior"),
    CatalogEntry(
        "6_1", Diagram((_U, _U, _U), (Edge(0, 1, H2), Edge(1, 2, k2(Slope(2, 1))))),
        ShapeClass.CIRCLE_STICK, ExteriorDetermines.YES,
        "circle-stick diagram with h2 and k2(2), the type 3-2ii annulus "
        "being the frontier of a Mobius band of boundary slope 2; the "
        "circle-stick criterion shows the exterior determines the knot type"),
)}


def base_diagram(knot: TableKnot) -> CatalogEntry:
    """The shared catalog entry of a table knot.  4_1 has no recorded
    diagram: its characteristic diagram is the theta shape but the edge
    labels are not stated, and inventing them would create false
    (non-)isomorphisms."""
    return _CATALOG[knot]


_DECISIVE_SHAPES = (ShapeClass.CIRCLE_STICK, ShapeClass.THETA)


def decide_equivalence(d1: Diagram, d2: Diagram,
                       exteriors_homeomorphic: bool = False) -> Verdict:
    """Decide (in)equivalence of two handlebody-knots from their diagrams.

    Non-isomorphic diagrams give INEQUIVALENT; isomorphic diagrams alone
    never certify equivalence.  Isomorphic circle-stick or theta diagrams
    together with homeomorphic exteriors give EQUIVALENT.  The circle shape
    stays INCONCLUSIVE even with homeomorphic exteriors: the E family shares
    one circle diagram and one exterior across infinitely many inequivalent
    knots.  Everything else is INCONCLUSIVE.  ``exteriors_homeomorphic=False``
    means "not known to be homeomorphic", not "known to differ".
    """
    if not are_isomorphic(d1, d2):
        return _INEQUIVALENT
    if exteriors_homeomorphic and shape_of(d1) in _DECISIVE_SHAPES:
        return _EQUIVALENT
    return _INCONCLUSIVE


distinguish = decide_equivalence


def e_family_crossing_number(n: int) -> int:
    """Crossing number of the constituent knot of the n-th E-family member.

    Catalog data, valid for n > 0: the constituent knot has a reduced
    alternating diagram with n + 2 crossings, so its crossing number is
    n + 2.  Nothing is recomputed from knot diagrams here.
    """
    if n <= 0:
        raise ParameterOutOfDomain("crossing number is recorded for n > 0 only")
    return n + 2


def leelee2_companion_torus_knot(n: int) -> tuple[int, int]:
    """Type of the solid-torus core cut off in the n-th Lee-Lee II member:
    a (2n+1, 2)-torus knot.  At n = 0 this is (1, 2), the unknot, matching
    the trivial core of the 5_2 picture.  Interpretation of negative
    parameters is left to the caller."""
    return (2 * n + 1, 2)
