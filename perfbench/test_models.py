"""Tests of the benchmark's reference models.

    python3 -m pytest perfbench/test_models.py

They check the models against the paper's stated facts and the repository's
independent pair-form oracle, never against anndiag.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import models  # noqa: E402
from oracle import expected_pair_form  # noqa: E402

F = Fraction


def test_slope_formulas():
    assert models.member("motto", 3)[1][1][2] == ("k2", F(-2, 5))
    assert models.member("ll2", 1)[1][0][2] == ("k1", F(16, 3))
    assert models.member("ll1", -3)[1][0][2] == ("l", (F(-1, 3), F(-3)))
    assert models.label_text(models.member("ll1v", 2)[1][0][2]) == "l(2/3,3/2)"


def test_ll1v_members_n_and_minus_n_minus_1_coincide():
    assert models.label_text(models.member("ll1v", 1)[1][0][2]) == "l(1/2,2)"
    assert models.label_text(models.member("ll1v", -2)[1][0][2]) == "l(1/2,2)"
    for n in range(1, 30):
        a, b = models.member("ll1v", n), models.member("ll1v", -n - 1)
        assert models.verdict(a, b, False) == "inconclusive"


def test_family_members_are_pairwise_distinct_except_e():
    for fam in ("motto", "ll1", "ll2"):
        ns = [n for n in range(-12, 13) if models.in_domain(fam, n)]
        for i, n in enumerate(ns):
            for m in ns[i + 1:]:
                assert models.verdict(models.member(fam, n),
                                      models.member(fam, m), False) \
                    == "inequivalent", (fam, n, m)
    assert models.verdict(models.member("e", 1), models.member("e", 7),
                          True) == "inconclusive"


def test_anchors():
    assert models.verdict(models.member("motto", 0), models.knot("6_1"),
                          True) == "equivalent"
    assert models.verdict(models.member("motto", 1), models.knot("6_1"),
                          True) == "inequivalent"
    assert models.verdict(models.member("ll2", 0), models.knot("5_2"),
                          True) == "inconclusive"
    assert models.verdict(models.member("ll1", 1), models.knot("5_1"),
                          True) == "inequivalent"
    assert models.shape(models.knot("5_2")) == "stick"
    assert models.shape(models.knot("6_1")) == "circle-stick"


def test_pair_forms_agree_with_the_oracle():
    values = {F(p, q) for p in range(-8, 9) for q in range(1, 9)}
    for a in values:
        for b in values:
            assert models.pair_form(a, b) == expected_pair_form(a, b), (a, b)


def test_document_writer():
    assert models.document(models.knot("5_2")) == (
        "annulusdiagram v1\nnodes: u u\nedge: 0 1 k1(4/3)\n")
    d = (("s", "h", "u"), ((0, 1, ("k1", F(4, 3))),
                           (2, 2, ("l", (F(2), F(1, 2))))))
    assert models.document(d, name="x", note="y note") == (
        "annulusdiagram v1\nnodes: s h u\nedge: 0 1 k1(4/3)\n"
        "edge: 2 2 l(1/2,2)\nname: x\nnote: y note\n")
    assert models.document(((), ())) == "annulusdiagram v1\nnodes:\n"
    assert models.label_text(("l", (models.INF, F(3)))) == "l(3,inf)"
    assert models.label_text(("l", None)) == "l(?)"


@pytest.mark.parametrize("lab, strict, want", [
    (("k1", F(3)), False, ([("e", "NonIntegralRequired")], [])),
    (("k1", models.INF), False, ([("e", "FiniteSlopeRequired")], [])),
    (("k1", F(4, 3)), True, ([], [])),
    (("k2", F(3)), False, ([], [])),
    (("k2", F(3)), True, ([("e", "NonIntegralRequired")], [])),
    (("l", None), True, ([], [("e", "MissingSlopePair")])),
    (("l", (F(2, 3), models.INF)), False, ([("e", "FiniteSlopeRequired")], [])),
    (("l", (F(2, 3), F(5, 7))), False, ([("e", "SlopePairFormInvalid")], [])),
    (("l", (F(2, 3), F(6))), False, ([], [])),
    (("em",), True, ([], [])),
])
def test_label_rules(lab, strict, want):
    assert models.label_violations(lab, strict, "e") == want


def test_diagram_rules():
    em_l = (("u", "u"), ((0, 1, ("em",)), (1, 1, ("l", (F(1, 2), F(2))))))
    assert models.diagram_violations(em_l, False) == (
        [("diagram", "EmWithNonSeparating")], [])
    stick_k2 = (("u", "u"), ((0, 1, ("k2", F(4, 3))),))
    assert models.diagram_violations(stick_k2, False) == (
        [("diagram", "StickMustBeK1")], [])
    stick_int = (("u", "u"), ((0, 1, ("k1", F(4))),))
    assert models.diagram_violations(stick_int, False) == (
        [("edge 0", "NonIntegralRequired"), ("diagram", "StickMustBeK1")], [])
    assert models.diagram_violations(models.knot("5_2"), True) == ([], [])
