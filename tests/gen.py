"""Deterministic and random generators shared by the test modules."""

from __future__ import annotations

import random
import sys
from itertools import combinations_with_replacement, product

import hypothesis.strategies as st

from anndiag import (EM, H1, H2, Diagram, Edge, NodeKind, Slope, SlopePair,
                     ell, k1, k2)

# The fixed six-label alphabet used by the isomorphism-oracle universe.
TEST_ALPHABET = (
    H1,
    H2,
    EM,
    k1(Slope(4, 3)),
    k2(Slope(2, 1)),
    ell(SlopePair(Slope(1, 2), Slope(2, 1))),
)

ORACLE_KINDS = (NodeKind.FIBERED, NodeKind.SIMPLE)


def enumerate_diagrams(max_nodes, max_edges, kinds=ORACLE_KINDS,
                       alphabet=TEST_ALPHABET):
    """Every diagram with at most the given node and edge counts."""
    for n in range(max_nodes + 1):
        slots = [(a, b) for a in range(n) for b in range(a, n)]
        choices = [(a, b, lab) for (a, b) in slots for lab in alphabet]
        for kind_vector in product(kinds, repeat=n):
            for e in range(max_edges + 1):
                for combo in combinations_with_replacement(choices, e):
                    yield Diagram(kind_vector,
                                  tuple(Edge(a, b, lab) for a, b, lab in combo))


def simple_diagrams(n, alphabet, loops=False):
    """Every diagram on ``n`` ``u`` nodes with at most one edge, labeled from
    ``alphabet``, on each pair of nodes (and on each node, as a loop, if
    ``loops``)."""
    pairs = [(a, b) for a in range(n) for b in range(a if loops else a + 1, n)]
    for labs in product((None, *alphabet), repeat=len(pairs)):
        yield Diagram((NodeKind.UNKNOWN,) * n,
                      [Edge(a, b, lab) for (a, b), lab in zip(pairs, labs)
                       if lab is not None])


def random_diagram(rng: random.Random, max_nodes=4, max_edges=4,
                   kinds=ORACLE_KINDS, alphabet=TEST_ALPHABET) -> Diagram:
    n = rng.randint(0, max_nodes)
    kind_vector = tuple(rng.choice(kinds) for _ in range(n))
    e = rng.randint(0, max_edges) if n else 0
    edges = tuple(
        Edge(rng.randrange(n), rng.randrange(n), rng.choice(alphabet))
        for _ in range(e))
    return Diagram(kind_vector, edges)


# Edge probabilities of the dense G(n, p) shapes.
DENSITIES = (0.5, 0.7, 0.85)


def dense_ends(rng: random.Random, n, p):
    """The edges of G(n, p): each pair a < b joined with probability p."""
    return [(a, b) for a in range(n) for b in range(a + 1, n)
            if rng.random() < p]


def permuted_copy(rng: random.Random, d: Diagram) -> Diagram:
    """The same diagram with nodes relabeled, edges shuffled, and endpoint
    order flipped at random."""
    perm = list(range(len(d.nodes)))
    rng.shuffle(perm)
    kinds = [None] * len(d.nodes)
    for old, new in enumerate(perm):
        kinds[new] = d.nodes[old]
    edges = []
    for e in d.edges:
        a, b = perm[e.a], perm[e.b]
        if rng.random() < 0.5:
            a, b = b, a
        edges.append(Edge(a, b, e.label))
    rng.shuffle(edges)
    return Diagram(tuple(kinds), tuple(edges))


def random_slope(rng: random.Random, include_infinite=False) -> Slope:
    if include_infinite and rng.random() < 0.1:
        return Slope(1, 0)
    return Slope(rng.randint(-20, 20), rng.randint(1, 20))


def random_label(rng: random.Random):
    """Any constructible label, weighted toward payload-carrying kinds."""
    roll = rng.random()
    if roll < 0.15:
        return H1
    if roll < 0.3:
        return H2
    if roll < 0.4:
        return EM
    if roll < 0.6:
        return k1(random_slope(rng))
    if roll < 0.8:
        return k2(random_slope(rng))
    if roll < 0.85:
        return ell()
    return ell(SlopePair(random_slope(rng), random_slope(rng)))


def random_document_diagram(rng: random.Random, max_nodes=6, max_edges=6) -> Diagram:
    """Structurally valid diagrams with the full label variety, for
    serialization round-trips."""
    n = rng.randint(0, max_nodes)
    kind_vector = tuple(
        rng.choice((NodeKind.FIBERED, NodeKind.SIMPLE, NodeKind.UNKNOWN))
        for _ in range(n))
    e = rng.randint(0, max_edges) if n else 0
    edges = tuple(
        Edge(rng.randrange(n), rng.randrange(n), random_label(rng))
        for _ in range(e))
    return Diagram(kind_vector, edges)


# A digit run just past the interpreter's int-string limit: 4302 digits under
# CPython's default limit of 4300.  None where int() has no such limit.
_INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
TOO_LONG = "1" + "0" * _INT_LIMIT + "1" if _INT_LIMIT else None
# The largest number that limit lets through.
AT_LIMIT = "9" * _INT_LIMIT if _INT_LIMIT else None


# hypothesis strategies

# Text near the grammars: their tokens, both blanks, other whitespace, and
# digits that str.isdigit accepts but are not ASCII.
grammar_text = st.lists(st.sampled_from(
    list("0123456789-/(),?:_ \t\n\r\x0b\xa0²٣") +
    ["inf", "h1", "h2", "em", "k1", "k2", "l", "s", "h", "u", "nodes:",
     "edge:", "name:", "note:", "annulusdiagram v1\n"])).map("".join)

finite_slopes = st.builds(Slope, st.integers(-40, 40), st.integers(1, 40))
slopes = st.one_of(finite_slopes, st.just(Slope(1, 0)))
slope_pairs = st.builds(SlopePair, finite_slopes, finite_slopes)

labels = st.one_of(
    st.sampled_from([H1, H2, EM]),
    st.builds(k1, slopes),
    st.builds(k2, slopes),
    st.just(ell()),
    st.builds(ell, slope_pairs),
)


@st.composite
def diagrams(draw, max_nodes=4, max_edges=4, label_pool=None):
    n = draw(st.integers(0, max_nodes))
    kind_vector = draw(st.lists(st.sampled_from(list(NodeKind)),
                                min_size=n, max_size=n))
    if n == 0:
        return Diagram((), ())
    label_pool = label_pool if label_pool is not None else labels
    edge = st.builds(Edge, st.integers(0, n - 1), st.integers(0, n - 1),
                     label_pool)
    edges = draw(st.lists(edge, max_size=max_edges))
    return Diagram(tuple(kind_vector), tuple(edges))


@st.composite
def shaped_diagrams(draw, min_nodes=0, max_nodes=7):
    """Random diagrams and the symmetric shapes a key search must prune:
    one-kind and alternating ``s``/``h`` cycles, some with evenly spaced
    chords (circulant graphs), complete multigraphs, identical stars,
    edgeless diagrams, two disjoint cycles, and dense one-kind G(n, p)
    diagrams, which have few symmetries to prune by.  One edge may carry
    another label.  Each is relabeled at random."""
    n = draw(st.integers(min_nodes, max_nodes))
    shape = draw(st.sampled_from(["random", "cycle", "alternating", "complete",
                                  "stars", "edgeless", "two-cycles", "dense"]))
    label = draw(labels)
    kinds = [draw(st.sampled_from(list(NodeKind)))] * n
    ends = []
    if shape == "random":
        kinds = draw(st.lists(st.sampled_from(list(NodeKind)),
                              min_size=n, max_size=n))
        if n:
            node = st.integers(0, n - 1)
            ends = draw(st.lists(st.tuples(node, node, labels), max_size=2 * n))
    elif shape in ("cycle", "alternating"):
        steps = {1} | draw(st.sets(st.integers(2, max(2, n // 2)), max_size=2))
        ends = [(i, (i + s) % n, label) for i in range(n) for s in steps]
        if shape == "alternating":
            kinds = [(NodeKind.FIBERED, NodeKind.SIMPLE)[i % 2] for i in range(n)]
    elif shape == "complete":
        ends = draw(st.integers(1, 2)) * [
            (a, b, label) for a in range(n) for b in range(a + 1, n)]
    elif shape == "stars":  # stars of `size` nodes, the rest isolated
        size = draw(st.integers(1, max(n, 1)))
        ends = [(c, c + j, label) for c in range(0, n - size + 1, size)
                for j in range(1, size)]
    elif shape == "two-cycles":
        half = n // 2
        ends = ([(i, (i + 1) % half, label) for i in range(half)]
                + [(half + i, half + (i + 1) % (n - half), label)
                   for i in range(n - half)])
    elif shape == "dense":
        rng = draw(st.randoms(use_true_random=False))
        ends = [(a, b, label) for a, b in
                dense_ends(rng, n, draw(st.sampled_from(DENSITIES)))]
    if ends and draw(st.booleans()):
        i = draw(st.integers(0, len(ends) - 1))
        ends[i] = ends[i][:2] + (draw(labels),)
    d = Diagram(kinds, [Edge(a, b, lab) for a, b, lab in ends])
    return permuted_copy(draw(st.randoms(use_true_random=False)), d)
