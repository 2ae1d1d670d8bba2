"""Independent oracles the library is checked against.

These deliberately avoid the code paths they verify: isomorphism is decided
by raw permutation search over node bijections, canonical keys by
minimizing the encoding over every node permutation, the number of
isomorphism classes by Burnside's lemma, and slope-pair forms with
fractions.Fraction arithmetic straight from the definitions (p/q, q/p) with
pq != 0 and (p/q, pq) with q != 0.  Diagram validation is checked against
its composition from the label rule: ``validate_label`` on each edge, then
rules G1 and G2, each over the edges on its own.

Label and slope text, shapes, family members, v1 documents and the
validation rules are stated once, in the benchmark's anndiag-free model
``perfbench/models.py``; :func:`model` converts a src diagram to that
model's form from its fields alone.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from itertools import permutations
from pathlib import Path

from anndiag import (LabelKind, SeparationClass, ShapeClass, ValidationResult,
                     Violation, ViolationCode, label_to_text, separation_class,
                     shape_of, validate_label)

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import models  # noqa: E402


def _model_slope(s):
    return models.INF if s.q == 0 else Fraction(s.p, s.q)


def model_label(lab):
    """A src label as a model label, from its kind's text and its payload."""
    tag = lab.kind.value
    if lab.slope is not None:
        return (tag, _model_slope(lab.slope))
    if tag == "l":
        pair = lab.pair
        return ("l", None if pair is None else
                (_model_slope(pair.first), _model_slope(pair.second)))
    return (tag,)


def model(d):
    """A src diagram as a model diagram ``(kinds, edges)``."""
    return (tuple(k.value for k in d.nodes),
            tuple((e.a, e.b, model_label(e.label)) for e in d.edges))


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


def brute_force_key(d) -> bytes:
    """The least encoding over all node permutations: the permuted kind
    vector, ``|``, and the ``;``-joined sorted (min endpoint, max endpoint,
    label) triples.  No permutation is skipped; each label is rendered once,
    by the model's ``label_text``."""
    n = len(d.nodes)
    edges = [(a, b, models.label_text(lab)) for a, b, lab in model(d)[1]]
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


# perfbench/test_models.py checks the model's pair_form against this.
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


def composed_validation(d, strictness) -> ValidationResult:
    """``validate_diagram`` as a composition: each edge's
    ``validate_label`` result placed at ``edge i``, then rule G1 from the
    em edges and the non-separating ones, then rule G2 on a stick."""
    violations, warnings = [], []
    for i, e in enumerate(d.edges):
        result = validate_label(e.label, strictness, where=f"edge {i}")
        violations.extend(result.violations)
        warnings.extend(result.warnings)

    em_edges = [i for i, e in enumerate(d.edges)
                if e.label.kind is LabelKind.EM]
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
