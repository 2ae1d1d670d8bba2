"""canon-scaling: canonical forms of 4-8 node diagrams.

Each base diagram gives three operations, one call each: ``canonical_form``
of a relabeled copy, ``are_isomorphic`` of two more relabelings (must be
True) and ``are_isomorphic`` of a fourth against a mutant (must be False).
Each call gets Diagram objects of its own, and every pass draws new seeded
relabelings, so no pass repeats an input and a key cache cannot stand in
for the search.

The checks are properties, not saved keys: the key of every relabeling of a
base diagram equals the key of its first one; base diagrams that differ in
an invariant computed here (node kinds with degrees, label multiset) have
different keys; a mutant differs from its diagram in that invariant.

The 50 base diagrams of a pass are fixed in shape by their index; the seed
draws labels, slopes, random edges and where the solid and hollow nodes go.
Mixed diagrams have as many solid as hollow nodes (one more hollow when the
count is odd).  Sorted by cost, the 150 operations of a pass fall into
blocks: about 66 at 4-5 nodes (with the cheapest 6-node ones), the 6-node
``canonical_form`` calls (the median lies among them), the 6-node
``are_isomorphic`` calls, then the 7-node ones, all with 7 edges, first the
``canonical_form`` calls and then the ``are_isomorphic`` calls (the p95
tail lies among those), and last 3 calls on an 8-node cycle, which take
about half the time.  Symmetric worst cases: edgeless, cycles, complete
multigraphs and identical stars.
"""

from __future__ import annotations

import random
from collections import Counter

from anndiag import (EM, H1, H2, Diagram, Edge, NodeKind, Slope, SlopePair,
                     ell, k1, k2)
from anndiag.diagram import are_isomorphic, canonical_form
from models import relabel

# (nodes, structure, edges, mixed kinds); edges is the count for "random".
SPECS = (
    [(4, "random", 5, m) for m in (False, False, True, True)]
    + [(4, "cycle", 4, False), (4, "stars", 2, True)]
    + [(4, "random", 6, m) for m in (False, False, True, True)]
    + [(5, "random", 6, m) for m in (False, False, True, True)]
    + [(5, "random", 7, m) for m in (False, False, True, True)]
    + [(5, "cycle", 5, True), (5, "complete2", 20, False),
       (5, "complete", 10, True), (5, "complete", 10, False)]
    + [(6, "edgeless", 0, True), (6, "stars", 4, False),
       (6, "cycle", 6, False), (6, "cycle", 6, True)]
    + [(6, "random", 7, i % 2 == 1) for i in range(14)]
    + [(6, "complete", 15, False), (6, "complete", 15, True)]
    + [(7, "cycle", 7, False), (7, "star-loop", 7, False)]
    + [(7, "random", 7, m) for m in (False, False, True, True, True)]
    + [(8, "cycle", 8, False)]
)

KIND = {"s": NodeKind.FIBERED, "h": NodeKind.SIMPLE, "u": NodeKind.UNKNOWN}


def _label(rng):
    def slope():
        return Slope(rng.randint(-99, 99) or 1, rng.randint(1, 99))
    roll = rng.randrange(6)
    if roll == 0:
        return rng.choice((H1, H2, EM))
    if roll == 1:
        return k1(slope())
    if roll == 2:
        return k2(slope())
    if roll == 3:
        return ell(SlopePair(slope(), slope()))
    return rng.choice((H1, H2, k1(slope()), ell()))


def _base(rng, n, structure, count, mixed):
    """One base diagram as (kinds, [(a, b, label)])."""
    if mixed:
        kinds = ["s"] * (n // 2) + ["h"] * (n - n // 2)
        rng.shuffle(kinds)
    else:
        kinds = ["u"] * n
    same = _label(rng)
    if structure == "random":
        edges = [(rng.randrange(n), rng.randrange(n), _label(rng))
                 for _ in range(count)]
    elif structure == "cycle":
        edges = [(i, (i + 1) % n, same) for i in range(n)]
    elif structure == "edgeless":
        edges = []
    elif structure == "complete":
        edges = [(a, b, same) for a in range(n) for b in range(a + 1, n)]
    elif structure == "complete2":
        edges = [(a, b, same) for a in range(n) for b in range(a + 1, n)] * 2
    elif structure == "stars":
        # Identical stars: two centers, each with the same leaves and labels.
        half = n // 2
        edges = [(c, c + j, same) for c in (0, half) for j in range(1, half)]
    else:  # star-loop: one center, every other node a leaf, a loop on it
        edges = [(0, j, same) for j in range(1, n)] + [(0, 0, same)]
    return tuple(kinds), edges


def invariant(kinds, edges):
    """The multisets of (node kind, degree) and of edge labels."""
    degree = [0] * len(kinds)
    for a, b, _ in edges:
        degree[a] += 1
        degree[b] += 1
    return (frozenset(Counter(zip(kinds, degree)).items()),
            frozenset(Counter(lab for _, _, lab in edges).items()))


def _mutant(rng, kinds, edges):
    """Move one endpoint so that the invariant changes; an edgeless diagram
    gets a loop instead."""
    want = invariant(kinds, edges)
    order = list(range(len(edges)))
    rng.shuffle(order)
    for i in order:
        a, b, lab = edges[i]
        targets = list(range(len(kinds)))
        rng.shuffle(targets)
        for c in targets:
            moved = edges[:i] + [(a, c, lab)] + edges[i + 1:]
            if invariant(kinds, moved) != want:
                return kinds, moved
    return kinds, edges + [(0, 0, H1)]


def _diagram(kinds, edges):
    return Diagram([KIND[k] for k in kinds],
                   [Edge(a, b, lab) for a, b, lab in edges])


class Workload:
    def __init__(self, seed, tracer, out_dir):
        self.tracer = tracer
        self.seed = seed
        rng = random.Random(seed)
        self.bases = [_base(rng, *spec) for spec in SPECS]
        self.keys = [None] * len(self.bases)

    def prepare(self, pass_index):
        rng = random.Random(self.seed * 1_000_003 + pass_index)
        items = []
        for i, (kinds, edges) in enumerate(self.bases):
            keyed, left, right, other = [_diagram(*relabel(rng, kinds, edges))
                                         for _ in range(4)]
            mutant = _diagram(*_mutant(rng, *relabel(rng, kinds, edges)))
            n = len(kinds)
            items += [(i, n, "key", keyed, None), (i, n, "same", left, right),
                      (i, n, "differs", other, mutant)]
        return items

    def run(self, item):
        _, n, what, a, b = item
        if what == "key":
            return self.tracer.call(f"diagram.canonical_form.nodes{n}",
                                    canonical_form, a)
        return self.tracer.call("diagram.are_isomorphic", are_isomorphic, a, b)

    def check(self, item, out):
        i, _, what = item[:3]
        if isinstance(out, Exception):
            return f"base {i}, {what}: raised {out!r}"
        if what == "key":
            if self.keys[i] is None:
                self.keys[i] = out
            if out != self.keys[i]:
                return f"base {i}: key changed under relabeling"
        elif what == "same" and out is not True:
            return f"base {i}: two relabelings not isomorphic"
        elif what == "differs" and out is not False:
            return f"base {i}: isomorphic to a mutant"
        return "ok"

    def finish(self):
        """Bases with different invariants must have different keys."""
        by_key = {}
        for i, key in enumerate(self.keys):
            by_key.setdefault(key, []).append(i)
        problems = []
        for group in by_key.values():
            if len({invariant(*self.bases[i]) for i in group}) > 1:
                problems.append(f"bases {group} share a key but differ")
        return problems

    def direct(self):
        pass
