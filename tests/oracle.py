"""Independent oracles the library is checked against.

These deliberately avoid the code paths they verify: isomorphism is decided
by raw permutation search over node bijections, canonical keys by
minimizing the encoding over every node permutation (label texts rendered
here from each label's fields), the number of isomorphism classes by
Burnside's lemma, diagram shapes by counting label kinds
against the rules of the ``ShapeClass`` docstring, and slope-pair forms are
decided with fractions.Fraction arithmetic straight from the definitions
(p/q, q/p) with pq != 0 and (p/q, pq) with q != 0.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import permutations


def brute_force_isomorphic(d1, d2) -> bool:
    """Try every node bijection; compare kinds pointwise and the multisets
    of (min endpoint, max endpoint, label) triples."""
    n = len(d1.nodes)
    if n != len(d2.nodes) or len(d1.edges) != len(d2.edges):
        return False
    if sorted(k.value for k in d1.nodes) != sorted(k.value for k in d2.nodes):
        return False
    target = Counter(
        (min(e.a, e.b), max(e.a, e.b), e.label) for e in d2.edges)
    if Counter(e.label for e in d1.edges) != Counter(e.label for e in d2.edges):
        return False
    for perm in permutations(range(n)):
        if any(d1.nodes[i] is not d2.nodes[perm[i]] for i in range(n)):
            continue
        mapped = Counter(
            (min(perm[e.a], perm[e.b]), max(perm[e.a], perm[e.b]), e.label)
            for e in d1.edges)
        if mapped == target:
            return True
    return False


def shape(d) -> str:
    """The shape class's value by the rules of the ``ShapeClass``
    docstring, from a count of each label kind's text."""
    kinds = Counter(e.label.kind.value for e in d.edges)
    if kinds == Counter(["h2"]):
        return "circle"
    if kinds in (Counter(["h2", "k1"]), Counter(["h2", "k2"])):
        return "circle-stick"
    if kinds == Counter(["l", "h2", "h2"]):
        return "theta"
    if (len(d.nodes) == 2 and len(d.edges) == 1
            and d.edges[0].a != d.edges[0].b):
        return "stick"
    return "other"


def _slope_text(s) -> str:
    if s.q == 0:
        return "inf"
    return str(s.p) if s.q == 1 else f"{s.p}/{s.q}"


def label_text(lab) -> str:
    """A label in the ASCII grammar, from its fields alone."""
    kind = lab.kind.value
    if lab.slope is not None:
        return f"{kind}({_slope_text(lab.slope)})"
    if kind == "l":
        if lab.pair is None:
            return "l(?)"
        first, second = lab.pair.first, lab.pair.second
        return f"l({_slope_text(first)},{_slope_text(second)})"
    return kind


def brute_force_key(d) -> bytes:
    """The least encoding over all node permutations: the permuted kind
    vector, ``|``, and the ``;``-joined sorted (min endpoint, max endpoint,
    label) triples.  No permutation is skipped; each label is rendered once,
    by :func:`label_text`."""
    n = len(d.nodes)
    edges = [(e.a, e.b, label_text(e.label)) for e in d.edges]
    best = None
    for perm in permutations(range(n)):
        kinds = [None] * n
        for old, new in enumerate(perm):
            kinds[new] = d.nodes[old].value
        triples = sorted(
            f"{min(perm[a], perm[b])}.{max(perm[a], perm[b])}.{t}"
            for a, b, t in edges)
        enc = ("".join(kinds) + "|" + ";".join(triples)).encode("ascii")
        if best is None or enc < best:
            best = enc
    return best


def burnside_count(n, labels, loops=False) -> int:
    """The number of isomorphism classes of diagrams on ``n`` nodes of one
    kind with at most one edge, of ``labels`` possible labels, on each pair
    of nodes (and on each node, as a loop, if ``loops``): the mean, over the
    node permutations, of (labels + 1) to the number of cycles the
    permutation makes on those pairs."""
    pairs = [(a, b) for a in range(n) for b in range(a if loops else a + 1, n)]
    total = group = 0
    for perm in permutations(range(n)):
        seen, cycles = set(), 0
        for pair in pairs:
            cycles += pair not in seen
            while pair not in seen:
                seen.add(pair)
                a, b = perm[pair[0]], perm[pair[1]]
                pair = (min(a, b), max(a, b))
        total += (labels + 1) ** cycles
        group += 1
    return total // group


def _is_reciprocal_form(x: Fraction, y: Fraction) -> bool:
    # (p/q, q/p) with pq != 0, x playing the p/q role.
    return x != 0 and y == 1 / x


def _is_product_form(x: Fraction, y: Fraction) -> bool:
    # (p/q, pq) with q != 0, x playing the p/q role; Fraction keeps
    # numerator/denominator normalized with denominator > 0.
    return y == Fraction(x.numerator * x.denominator)


def expected_pair_form(a: Fraction, b: Fraction) -> str:
    """Classification of the unordered pair {a, b}: one of ``reciprocal``,
    ``product``, ``both``, ``invalid``."""
    reciprocal = _is_reciprocal_form(a, b) or _is_reciprocal_form(b, a)
    product = _is_product_form(a, b) or _is_product_form(b, a)
    if reciprocal and product:
        return "both"
    if reciprocal:
        return "reciprocal"
    if product:
        return "product"
    return "invalid"
