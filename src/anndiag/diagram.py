"""Annulus diagrams as labeled multigraphs with solid/hollow nodes.

A diagram has one node per complementary piece of the characteristic
annulus system (solid = admissibly fibered, hollow = simple, or unknown
where a source does not say) and one undirected edge per characteristic
annulus, labeled by its annulus type.  Loops are allowed.  Diagrams are
symbolic inputs: nothing here computes them from 3-manifold data.

Equality of diagrams "up to isotopy" is realized as labeled-graph
isomorphism, decided by comparing canonical forms (brute-force minima over
node permutations), each computed once per ``Diagram`` and stored on it.
Diagrams that arise have few nodes; the hard cap is :data:`MAX_NODES`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import permutations
from typing import Iterable

from .errors import DanglingEndpoint, TooManyNodes
from .labels import (AnnulusLabel, LabelKind, SeparationClass, Strictness,
                     ValidationResult, Violation, ViolationCode, label_to_text,
                     separation_class, validate_label)

__all__ = [
    "MAX_NODES",
    "NodeKind",
    "Edge",
    "Diagram",
    "ShapeClass",
    "shape_of",
    "canonical_form",
    "are_isomorphic",
    "validate_diagram",
]

# Caps Diagram size; canonical_form's exhaustive search does not reach it.
MAX_NODES = 16


class NodeKind(Enum):
    """Solid (admissibly fibered), hollow (simple), or unrecorded."""

    FIBERED = "s"
    SIMPLE = "h"
    UNKNOWN = "u"


@dataclass(frozen=True)
class Edge:
    """An undirected edge; ``a == b`` is a loop."""

    a: int
    b: int
    label: AnnulusLabel


@dataclass(frozen=True, init=False)
class Diagram:
    """Nodes and edges, stored verbatim; canonicalization is explicit."""

    nodes: tuple[NodeKind, ...]
    edges: tuple[Edge, ...]

    def __init__(self, nodes: Iterable[NodeKind] = (), edges: Iterable[Edge] = ()):
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(self, "edges", tuple(edges))
        n = len(self.nodes)
        if n > MAX_NODES:
            raise TooManyNodes(f"{n} nodes exceeds the bound of {MAX_NODES}")
        for e in self.edges:
            if not (0 <= e.a < n and 0 <= e.b < n):
                raise DanglingEndpoint(
                    f"edge ({e.a}, {e.b}) references a node outside 0..{n - 1}")


class ShapeClass(Enum):
    """The named small shapes of the classification and decision theorems.

    CIRCLE, CIRCLE_STICK, and THETA key on the edge-label multiset (one h2;
    one h2 with one k1 or k2; one l with two h2).  STICK alone is
    topological: exactly two nodes joined by exactly one non-loop edge.
    The label-multiset classes take precedence over STICK.
    """

    CIRCLE = "circle"
    CIRCLE_STICK = "circle-stick"
    THETA = "theta"
    STICK = "stick"
    OTHER = "other"


def shape_of(d: Diagram) -> ShapeClass:
    kinds = sorted(e.label.kind.value for e in d.edges)
    if kinds == ["h2"]:
        return ShapeClass.CIRCLE
    if kinds in (["h2", "k1"], ["h2", "k2"]):
        return ShapeClass.CIRCLE_STICK
    if kinds == ["h2", "h2", "l"]:
        return ShapeClass.THETA
    if len(d.nodes) == 2 and len(d.edges) == 1 and d.edges[0].a != d.edges[0].b:
        return ShapeClass.STICK
    return ShapeClass.OTHER


def canonical_form(d: Diagram) -> bytes:
    """A byte string equal for isomorphic diagrams and unequal otherwise.

    The node kinds in sorted order, ``|``, and the least ``;``-joined sorted
    list of (min endpoint, max endpoint, label text) triples over the node
    permutations that keep the kinds sorted; any other permutation starts
    with a larger kind string of the same length.  UNKNOWN matches only
    UNKNOWN.  Deterministic across runs and platforms.  All n! orders are
    scanned and triples are built for the product of the kind-class sizes'
    factorials, so the cost grows factorially with the node count.  The key
    is stored on ``d``, not as a field, and reused: ``d`` is wholly frozen.
    """
    try:
        return d._key
    except AttributeError:
        pass
    kinds = "".join(k.value for k in d.nodes)
    head = "".join(sorted(kinds))
    ends = [(e.a, e.b, label_to_text(e.label)) for e in d.edges]
    best = None
    for perm in permutations(range(len(kinds))):
        if "".join(map(head.__getitem__, perm)) != kinds:
            continue
        moved = ((perm[a], perm[b], text) for a, b, text in ends)
        body = ";".join(sorted([f"{a}.{b}.{text}" if a <= b else
                                f"{b}.{a}.{text}" for a, b, text in moved]))
        if best is None or body < best:
            best = body
    object.__setattr__(d, "_key", f"{head}|{best}".encode("ascii"))
    return d._key


def are_isomorphic(d1: Diagram, d2: Diagram) -> bool:
    """True iff the diagrams agree up to relabeling of nodes."""
    if len(d1.nodes) != len(d2.nodes) or len(d1.edges) != len(d2.edges):
        return False
    return canonical_form(d1) == canonical_form(d2)


def validate_diagram(d: Diagram,
                     strictness: Strictness = Strictness.LENIENT) -> ValidationResult:
    """Label checks on every edge plus the two diagram-level exclusion rules.

    Rule G1: an em edge forbids any non-separating companion edge, because
    every essential annulus disjoint from a type 4-1 annulus separates.
    Rule G2: a STICK-shaped diagram must carry a single k1 label with a
    finite non-integral slope.
    """
    violations: list[Violation] = []
    warnings: list[Violation] = []
    for i, e in enumerate(d.edges):
        result = validate_label(e.label, strictness, where=f"edge {i}")
        violations.extend(result.violations)
        warnings.extend(result.warnings)

    em_edges = [i for i, e in enumerate(d.edges) if e.label.kind is LabelKind.EM]
    non_sep = [i for i, e in enumerate(d.edges)
               if separation_class(e.label) is SeparationClass.NON_SEPARATING]
    if em_edges and non_sep:
        violations.append(Violation(
            ViolationCode.EM_WITH_NON_SEPARATING, "diagram",
            f"em edge {em_edges[0]} cannot coexist with non-separating "
            f"edge(s) {', '.join(str(i) for i in non_sep)}"))

    if shape_of(d) is ShapeClass.STICK:
        lab = d.edges[0].label
        if lab.kind is not LabelKind.K1 or not validate_label(lab).ok:
            violations.append(Violation(
                ViolationCode.STICK_MUST_BE_K1, "diagram",
                f"stick diagram must carry k1 with a non-integral slope, "
                f"got {label_to_text(lab)}"))

    return ValidationResult(tuple(violations), tuple(warnings))
