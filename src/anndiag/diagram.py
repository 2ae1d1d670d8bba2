"""Annulus diagrams as labeled multigraphs with solid/hollow nodes.

A diagram has one node per complementary piece of the characteristic
annulus system (solid = admissibly fibered, hollow = simple, or unknown
where a source does not say) and one undirected edge per characteristic
annulus, labeled by its annulus type.  Loops are allowed.  Diagrams are
symbolic inputs: nothing here computes them from 3-manifold data.

Equality of diagrams "up to isotopy" is realized as labeled-graph
isomorphism, decided by comparing canonical forms (the least encoding over
node orders, found by a search pruned by symmetry), each computed once per
``Diagram`` and stored on it.  Diagrams that arise have few nodes; the hard
cap is :data:`MAX_NODES`, and every diagram up to it gets a key.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from enum import Enum
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

# Caps Diagram size where every key is quick: the densest one-label 8-node
# diagrams measured key in at most 0.10 s, 9-node ones in up to 0.87 s.
MAX_NODES = 8

# Ends every list of label texts in the search.  It sorts after any text
# (texts are ASCII letters, digits and punctuation), so a list that stops where
# another goes on compares as the larger one, as its row of triples does.
_END = "\x7f"


class NodeKind(Enum):
    """Solid (admissibly fibered), hollow (simple), or unrecorded."""

    FIBERED = "s"
    SIMPLE = "h"
    UNKNOWN = "u"


@dataclass(frozen=True, init=False, slots=True)
class Edge:
    """An undirected edge; ``a == b`` is a loop."""

    a: int
    b: int
    label: AnnulusLabel

    def __init__(self, a: int, b: int, label: AnnulusLabel):
        _set_a(self, a)
        _set_b(self, b)
        _set_label(self, label)


# Edge.__init__ stores each frozen field through its slot's __set__, bound
# once here: object.__setattr__ takes 1.5-1.9 times as long a field.
_set_a, _set_b, _set_label = Edge.a.__set__, Edge.b.__set__, Edge.label.__set__


@dataclass(frozen=True, init=False)
class Diagram:
    """Nodes and edges, stored verbatim; canonicalization is explicit."""

    nodes: tuple[NodeKind, ...]
    edges: tuple[Edge, ...]
    _key = None  # no annotation, so not a field; see canonical_form

    def __init__(self, nodes: Iterable[NodeKind] = (), edges: Iterable[Edge] = ()):
        nodes, edges = tuple(nodes), tuple(edges)
        n = len(nodes)
        if n > MAX_NODES:
            raise TooManyNodes.for_count(n, MAX_NODES)
        for e in edges:
            if not (0 <= e.a < n and 0 <= e.b < n):
                raise DanglingEndpoint.for_edge(e.a, e.b, n)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)


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


# A member read such as ShapeClass.STICK goes through EnumType.__getattr__ on
# Python 3.10 and 3.11 (~0.1 us, ten times a global read), so the per-call
# code of this module reads these aliases, bound once at import.
_STICK, _OTHER = ShapeClass.STICK, ShapeClass.OTHER
_EM, _K1 = LabelKind.EM, LabelKind.K1
_NON_SEPARATING = SeparationClass.NON_SEPARATING
# The label-multiset shapes, keyed by the sorted label kinds.
_SHAPE_BY_KINDS = {
    ("h2",): ShapeClass.CIRCLE,
    ("h2", "k1"): ShapeClass.CIRCLE_STICK,
    ("h2", "k2"): ShapeClass.CIRCLE_STICK,
    ("h2", "h2", "l"): ShapeClass.THETA,
}


def shape_of(d: Diagram) -> ShapeClass:
    kinds = tuple(sorted([e.label.kind._value_ for e in d.edges]))
    shape = _SHAPE_BY_KINDS.get(kinds)
    if shape is not None:
        return shape
    if len(d.nodes) == 2 and len(d.edges) == 1 and d.edges[0].a != d.edges[0].b:
        return _STICK
    return _OTHER


def canonical_form(d: Diagram) -> bytes:
    """A byte string equal for isomorphic diagrams and unequal otherwise.

    The node kinds in sorted order, ``|``, and the ``;``-joined ``a.b.label``
    triples (``a <= b``) of the least sorted list of (a, b, label text)
    triples over the node orders that keep the kinds sorted; any other
    order starts with a larger kind string of the same length.  UNKNOWN
    matches only UNKNOWN.  Deterministic across runs and platforms.  Indices
    are single digits and no label text is a proper prefix of another, so
    triples order as their text: the keys are those earlier versions stored.

    The least list is found by a depth-first search that fills each kind's
    positions in increasing order, always settles the first triple not yet
    known, and drops an order as soon as its triples sort above the best.
    Let p be the lowest position whose row (the triples with first index p)
    is not yet known.  Rule (a) or (b) finds the candidates for a position q:

    (a) if p holds a node u, q is the first free position open to an
        unplaced neighbour of u; candidates: those with the least texts to u;
    (b) if p is free, q is p; candidates: the nodes of its kind.

    One step then serves both.  Of twins (their swap is an automorphism) one
    candidate stays, and for (b) only those whose row, as far as it is known,
    starts least (the others' rows are certainly larger).  One left takes q;
    of several, (c) one per orbit of the automorphisms that fix every placed
    node, found at leaves equal to the best, is tried (McKay and Piperno,
    Practical graph isomorphism II, J. Symb. Comput. 60, 2014).

    The key is ``None`` on the class; the first call stores it on ``d``, not
    as a field, and later calls reuse it: ``d`` is wholly frozen.
    """
    if d._key is not None:
        return d._key
    kinds = [k._value_ for k in d.nodes]  # .value is a slower property
    head = "".join(sorted(kinds))
    n = len(kinds)
    adj = [{} for _ in kinds]
    for e in d.edges:
        t = label_to_text(e.label)
        insort(adj[e.a].setdefault(e.b, [_END]), t)
        if e.a != e.b:
            insort(adj[e.b].setdefault(e.a, [_END]), t)
    res = [None, None, []]
    _extend((kinds, adj, [-1] * n, [-1] * n,
             {k: head.find(k) for k in head}, [], res), 0, 0, True)
    body = ";".join([f"{a}.{b}.{t}" for a, b, texts in res[0]
                     for t in texts[:-1]])
    key = f"{head}|{body}".encode("ascii")
    object.__setattr__(d, "_key", key)
    return key


def _extend(g, p, b, lt):
    """Search the completions of the placed nodes from row ``p``, whose
    triples with second index below ``b`` are out.

    ``g`` holds the node kinds, each node's neighbours with their sorted
    label texts, the node at each position, the position of each node, the
    next free position of each kind, the triples out as one ``(a, b,
    texts)`` entry per pair of positions, and ``res``: the least triples
    found, their node order, and the automorphisms found.  ``lt``: the
    triples out sort below the least ones' start."""
    kinds, adj, at, pos, free, out, res = g
    n = len(at)
    while p < n:
        u = at[p]
        if u < 0:  # (b): the unplaced nodes of its kind may take p
            q, cands = p, []
            for v in range(n):
                if pos[v] < 0 and free[kinds[v]] == p:
                    cands.append(v)
        else:
            # The triples of row p to placed nodes before the first position
            # q open to a neighbour of u go out; then (a): the neighbours
            # with the least texts to u may take q, or with none row p ends.
            q, known = n, []
            for w, ts in adj[u].items():
                c = pos[w]
                if c >= b:
                    known.append((c, ts))
                elif c < 0:
                    c = free[kinds[w]]
                    if c < q:
                        q, texts, cands = c, ts, [w]
                    elif c == q:
                        if ts < texts:
                            texts, cands = ts, [w]
                        elif ts == texts:
                            cands.append(w)
            if known:
                known.sort()
                best = res[0]
                for c, ts in known:
                    if c > q:
                        break
                    triples = (p, c, ts)
                    if not lt:
                        other = best[len(out)]
                        if triples != other:
                            if triples > other:
                                return
                            lt = True
                    out.append(triples)
            if q == n:
                p += 1
                b = p
                continue
        # The step of both rules: drop twins, keep (b)'s least rows, or (c).
        if len(cands) > 1:
            cands = _untwinned(adj, cands)
            if len(cands) > 1 and q == p:
                cands = _least_rows(g, p, cands)
            if len(cands) > 1:
                break
        v = cands[0]
        at[q], pos[v], free[kinds[v]] = v, q, q + 1
        b = q
    else:
        if lt:
            res[0] = out[:]
            res[1] = at[:]
        else:  # equal to the best: the two orders differ by an automorphism
            gamma = [0] * n
            for i, v in enumerate(res[1]):
                gamma[v] = at[i]
            res[2].append(gamma)
        return
    # (c): one candidate per orbit of the automorphisms that fix the placed
    # nodes; twins are gone already.
    mark, best, tried = len(out), res[0], []
    saved = at[:], pos[:], free.copy()
    for v in cands:
        if tried:
            if res[2] and v in _orbit(res[2], at, tried):
                continue
            if res[0] is not best:  # found below this step, so equal so far
                lt = False
        tried.append(v)
        at[q], pos[v], free[kinds[v]] = v, q, q + 1
        _extend(g, p, q, lt)
        del out[mark:]
        at[:], pos[:] = saved[0], saved[1]
        free.update(saved[2])


def _untwinned(adj, cands):
    """One candidate of each class of twins: nodes of one kind whose swap is
    an automorphism, as their loops agree and so do their edges to every
    other node."""
    keep = []
    for y in cands:
        ay = adj[y]
        for x in keep:
            ax = adj[x]
            if ax.get(x) == ay.get(y) and {**ax, x: 0, y: 0} == {**ay, x: 0, y: 0}:
                break
        else:
            keep.append(y)
    return keep


def _orbit(autos, at, tried):
    """Where the automorphisms found that fix every placed node take the
    tried candidates."""
    gens = [gamma for gamma in autos if all(gamma[v] == v for v in at if v >= 0)]
    orbit, todo = set(tried), list(tried)
    while todo:
        v = todo.pop()
        for gamma in gens:
            if gamma[v] not in orbit:
                orbit.add(gamma[v])
                todo.append(gamma[v])
    return orbit


def _least_rows(g, p, cands):
    """The candidates for free position ``p`` whose row of triples starts
    least; every other candidate's row is certainly larger.

    A row is known up to the least position ``m`` open to an unplaced
    neighbour, and at ``m`` (a) puts a neighbour with the least texts; past
    that its next triple is at ``m + 1`` or later, unless the row ends.  Two
    such starts that differ differ where both are known, or where one row
    ends and the other goes on.
    """
    kinds, adj, at, pos, free, out, res = g
    n = len(at)
    end = (n + 1,)
    rows = []
    for v in cands:
        row, kv = adj[v], kinds[v]
        m, least, known = n, None, []
        for w, texts in row.items():
            c = p if w == v else pos[w]
            if c >= 0:
                known.append((c, texts))
            else:
                c = p + 1 if kinds[w] == kv else free[kinds[w]]
                if c < m:
                    m, least = c, texts
                elif c == m and texts < least:
                    least = texts
        known.sort()
        sig = [entry for entry in known if entry[0] < m]
        if least:
            sig.append((m, least))
        sig.append(end if len(sig) == len(row) else (m + 1,))
        rows.append(sig)
    low = min(rows)
    return [v for v, sig in zip(cands, rows) if sig == low]


def are_isomorphic(d1: Diagram, d2: Diagram) -> bool:
    """True iff the diagrams agree up to relabeling of nodes."""
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

    em_edges = [i for i, e in enumerate(d.edges) if e.label.kind is _EM]
    non_sep = [i for i, e in enumerate(d.edges)
               if separation_class(e.label) is _NON_SEPARATING]
    if em_edges and non_sep:
        violations.append(Violation(
            ViolationCode.EM_WITH_NON_SEPARATING, "diagram",
            f"em edge {em_edges[0]} cannot coexist with non-separating "
            f"edge(s) {', '.join(str(i) for i in non_sep)}"))

    if shape_of(d) is _STICK:
        lab = d.edges[0].label
        if lab.kind is not _K1 or not validate_label(lab).ok:
            violations.append(Violation(
                ViolationCode.STICK_MUST_BE_K1, "diagram",
                f"stick diagram must carry k1 with a non-integral slope, "
                f"got {label_to_text(lab)}"))

    return ValidationResult(tuple(violations), tuple(warnings))
