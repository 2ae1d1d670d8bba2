"""anndiag against the benchmark's anndiag-free model, ``perfbench/models.py``:
v1 documents, shapes, validation findings, family members, verdicts and the
knot catalog.  The last test keeps that model free of anndiag, so the two
stay independent.  No test here needs pytest."""

import ast
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from anndiag import (FAMILY_SHAPES, H2, Diagram, DiagramDocument, Edge,
                     Family, NodeKind, Strictness, TableKnot, base_diagram,
                     decide_equivalence, ell, family_diagram, k1, k2, parse,
                     serialize, shape_of, validate_diagram)
from gen import (diagrams, permuted_copy, random_document_diagram, slope_pairs,
                 slopes)
from oracle import brute_force_isomorphic, model, models


@st.composite
def named_shape_diagrams(draw):
    """The circle, circle-stick or theta label multiset on random ends of 1-3
    nodes."""
    labels = draw(st.just((H2,))
                  | st.tuples(st.just(H2),
                              st.builds(k1, slopes) | st.builds(k2, slopes))
                  | st.tuples(st.builds(ell, slope_pairs), st.just(H2),
                              st.just(H2)))
    n = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(NodeKind), min_size=n, max_size=n))
    node = st.integers(0, n - 1)
    return Diagram(kinds, [Edge(draw(node), draw(node), lab) for lab in labels])


# gen's strategy, the full label and node-kind variety on up to 6 nodes, and
# the named shapes.
any_diagrams = (diagrams()
                | st.randoms(use_true_random=False).map(random_document_diagram)
                | named_shape_diagrams())
# A name or note: printable ASCII words joined by single spaces.
metadata = st.none() | st.lists(
    st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1),
    min_size=1, max_size=3).map(" ".join)


@given(any_diagrams, metadata, metadata)
def test_document_shape_and_findings_are_the_models(d, name, note):
    m, doc = model(d), DiagramDocument(d, name, note)
    text = serialize(doc)
    assert text == models.document(m, name, note)
    assert parse(text) == doc
    assert shape_of(d).value == models.shape(m)
    for strictness in Strictness:
        result = validate_diagram(d, strictness)
        got = ([(v.where, v.code.value) for v in result.violations],
               [(w.where, w.code.value) for w in result.warnings])
        assert got == models.diagram_violations(
            m, strictness is Strictness.STRICT)


def test_family_members_are_the_models():
    for family in Family:
        for n in [*range(-50, 51), -10**40, 10**40]:
            if models.in_domain(family.value, n):
                assert models.document(model(family_diagram(family, n))) == \
                    models.document(models.member(family.value, n)), (family, n)


@given(any_diagrams | named_shape_diagrams(), st.data())
def test_verdict_is_isomorphism_then_the_shape_rule(d1, data):
    if data.draw(st.booleans()):
        d2 = permuted_copy(data.draw(st.randoms(use_true_random=False)), d1)
    else:
        d2 = data.draw(any_diagrams)
    isomorphic = brute_force_isomorphic(d1, d2)
    decisive = models.shape(model(d1)) in ("circle-stick", "theta")
    for homeo in (False, True):
        want = ("inequivalent" if not isomorphic else
                "equivalent" if homeo and decisive else "inconclusive")
        assert decide_equivalence(d1, d2, homeo).value == want


def test_catalog_diagrams_are_the_models():
    for knot in TableKnot:
        d, want = base_diagram(knot).diagram, models.knot(knot.value)
        assert (d is None) == (want is None), knot
        if d is not None:
            assert models.document(model(d)) == models.document(want), knot


def test_exterior_determines_is_the_models():
    for knot in TableKnot:
        assert base_diagram(knot).exterior_determines.value == \
            models.EXTERIOR_DETERMINES[knot.value]


def test_family_shapes_are_the_models():
    for family in Family:
        assert FAMILY_SHAPES[family].value == \
            models.shape(models.member(family.value, 1))


def imported(source):
    """(line, module) of each import in ``source``, in line order; a relative
    import's module starts with its dots."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.lineno, "." * node.level + (node.module or "")))
    return sorted(found)


def test_the_model_imports_only_fractions():
    source = Path(models.__file__).read_text(encoding="utf-8")
    assert {module for _, module in imported(source)} <= {"__future__",
                                                          "fractions"}


def test_the_scan_sees_each_import():
    source = ("from __future__ import annotations\nimport anndiag\n"
              "from anndiag.labels import k1\nfrom . import gen\n")
    assert imported(source) == [(1, "__future__"), (2, "anndiag"),
                                (3, "anndiag.labels"), (4, ".")]
