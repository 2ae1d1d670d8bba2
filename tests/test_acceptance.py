"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Everything here is exact: symbolic equality, byte equality, or
agreement with an independent oracle; there are no numeric tolerances.
"""

import functools
import random
from fractions import Fraction
from itertools import combinations

from anndiag import (EM, H1, H2, Diagram, DiagramDocument, Edge, Family,
                     FormClass, NodeKind, ShapeClass, Slope, SlopePair,
                     TableKnot, Verdict, ViolationCode, are_isomorphic,
                     base_diagram, decide_equivalence, distinguish, ell,
                     e_family_crossing_number, family_diagram, k1, k2,
                     leelee2_companion_torus_knot, pair_form, parse,
                     serialize, shape_of, validate_diagram)
from anndiag.cli import main as cli_main
from gen import (TEST_ALPHABET, enumerate_diagrams, permuted_copy,
                 random_diagram, random_document_diagram)
from oracle import brute_force_isomorphic, expected_pair_form, model, models

U = NodeKind.UNKNOWN
S = NodeKind.FIBERED
H = NodeKind.SIMPLE
PAIR = SlopePair(Slope(1, 2), Slope(2, 1))


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} [{title}]: FAIL")
                raise
            print(f"criterion {number:2d} [{title}]: PASS")
        return wrapper
    return decorate


def family_domain(f, lo, hi):
    return (n for n in range(lo, hi + 1) if models.in_domain(f.value, n))


@criterion(1, "5_2 reproduction")
def test_criterion_01_five_two_reproduction():
    entry = base_diagram(TableKnot.K5_2)
    expected = Diagram((U, U), (Edge(0, 1, k1(Slope(4, 3))),))
    assert entry.diagram == expected
    assert shape_of(entry.diagram) is ShapeClass.STICK
    assert [e.label for e in entry.diagram.edges] == [k1(Slope(4, 3))]


@criterion(2, "6_1/Motto and 5_2/LL2 anchoring")
def test_criterion_02_anchoring():
    motto0 = family_diagram(Family.MOTTO, 0)
    six_one = base_diagram(TableKnot.K6_1).diagram
    assert are_isomorphic(motto0, six_one)
    assert sorted(str(e.label) for e in motto0.edges) == ["h2", "k2(2)"]
    assert are_isomorphic(family_diagram(Family.LL2, 0),
                          base_diagram(TableKnot.K5_2).diagram)


@criterion(3, "family tables vs direct formulas")
def test_criterion_03_family_tables():
    for family in Family:
        for n in family_domain(family, -5, 5):
            assert models.document(model(family_diagram(family, n))) == \
                models.document(models.member(family.value, n))


@criterion(4, "distinguishability within families")
def test_criterion_04_distinguishability():
    ranges = {
        Family.MOTTO: range(-5, 6),
        Family.LL2: range(-5, 6),
        Family.LL1: range(1, 6),
        Family.LL1_VARIANT: range(1, 6),
    }
    for family, ns in ranges.items():
        members = [family_diagram(family, n) for n in ns]
        for d1, d2 in combinations(members, 2):
            assert distinguish(d1, d2) is Verdict.INEQUIVALENT
    e_members = [family_diagram(Family.E, n) for n in range(-5, 6)]
    for d1, d2 in combinations(e_members, 2):
        assert distinguish(d1, d2) is Verdict.INCONCLUSIVE


def _decision_set():
    """Deterministic diagrams covering every shape, including isomorphic
    but structurally different copies."""
    rng = random.Random(90125)
    diagrams = []
    kind_pairs = [(U, U), (S, H), (S, S), (H, H), (H, U)]

    for ks in kind_pairs:
        diagrams.append(Diagram(ks, (Edge(0, 1, H2),)))            # circles
    for kind in (S, H, U):
        diagrams.append(Diagram((kind,), (Edge(0, 0, H2),)))

    for slope in (Slope(1, 2), Slope(4, 3), Slope(-2, 3)):         # circle-sticks
        diagrams.append(Diagram((U, U, U),
                                (Edge(0, 1, H2), Edge(1, 2, k1(slope)))))
    for slope in (Slope(2, 1), Slope(2, 5), Slope(-7, 3)):
        diagrams.append(Diagram((U, U, U),
                                (Edge(0, 1, H2), Edge(1, 2, k2(slope)))))
    diagrams.append(Diagram((S, H), (Edge(0, 1, H2), Edge(0, 1, k1(Slope(1, 2))))))

    thetas = [SlopePair(Slope(1, 2), Slope(2, 1)),                 # thetas
              SlopePair(Slope(2, 3), Slope(3, 2)),
              SlopePair(Slope(1, 3), Slope(3, 1))]
    for pair in thetas:
        diagrams.append(Diagram((U, U), (Edge(0, 1, ell(pair)), Edge(0, 1, H2),
                                         Edge(0, 1, H2))))
        diagrams.append(Diagram((S, H), (Edge(0, 0, ell(pair)), Edge(0, 1, H2),
                                         Edge(0, 1, H2))))

    for lab in (k1(Slope(4, 3)), k1(Slope(16, 3)), k1(Slope(3, 1)),  # sticks
                k2(Slope(1, 2)), H1, EM, ell(PAIR)):
        diagrams.append(Diagram((U, U), (Edge(0, 1, lab),)))
    diagrams.append(Diagram((S, H), (Edge(0, 1, k1(Slope(4, 3))),)))

    diagrams.append(Diagram())                                     # others
    diagrams.append(Diagram((U,), (Edge(0, 0, H1),)))
    diagrams.append(Diagram((S,), (Edge(0, 0, H1),)))
    diagrams.append(Diagram((U, U), (Edge(0, 1, H2), Edge(0, 1, H2))))
    diagrams.append(Diagram((U, U, U), (Edge(0, 1, EM), Edge(1, 2, k2(Slope(1, 2))))))
    diagrams.append(Diagram((U,), (Edge(0, 0, ell(PAIR)),)))
    diagrams.append(Diagram((U, U, U), (Edge(0, 1, k1(Slope(1, 2))),
                                        Edge(1, 2, k1(Slope(1, 2))))))

    for knot in (TableKnot.K5_1, TableKnot.K5_2, TableKnot.K6_1):
        diagrams.append(base_diagram(knot).diagram)
    for n in (-2, 0, 3):
        diagrams.append(family_diagram(Family.MOTTO, n))
        diagrams.append(family_diagram(Family.E, n))

    diagrams.extend(permuted_copy(rng, d) for d in list(diagrams))
    return diagrams


@criterion(5, "decision theorems over all shapes")
def test_criterion_05_decision_theorems():
    diagrams = _decision_set()
    assert len(diagrams) >= 50
    shapes = {shape_of(d) for d in diagrams}
    assert shapes == set(ShapeClass)

    decisive = (ShapeClass.CIRCLE_STICK, ShapeClass.THETA)
    iso_same_shape = {shape: 0 for shape in ShapeClass}
    for d1 in diagrams:
        for d2 in diagrams:
            iso = brute_force_isomorphic(d1, d2)
            if iso and d1 is not d2:
                iso_same_shape[shape_of(d1)] += 1
            for flag in (False, True):
                verdict = decide_equivalence(d1, d2, flag)
                if not iso:
                    expected = Verdict.INEQUIVALENT
                elif flag and shape_of(d1) in decisive:
                    expected = Verdict.EQUIVALENT
                else:
                    expected = Verdict.INCONCLUSIVE
                assert verdict is expected
    # The set must actually exercise the EQUIVALENT and the E-family
    # (isomorphic circle) branches on distinct objects.
    assert iso_same_shape[ShapeClass.CIRCLE] > 0
    assert iso_same_shape[ShapeClass.CIRCLE_STICK] > 0
    assert iso_same_shape[ShapeClass.THETA] > 0


@criterion(6, "isomorphism agrees with permutation search")
def test_criterion_06_isomorphism_oracle():
    # Exhaustive all-pairs over the two-node/two-edge sub-universe.
    universe = list(enumerate_diagrams(max_nodes=2, max_edges=2))
    by_size = {}
    for d in universe:
        by_size.setdefault((len(d.nodes), len(d.edges)), []).append(d)
    for group in by_size.values():
        for d1, d2 in combinations(group, 2):
            assert are_isomorphic(d1, d2) == brute_force_isomorphic(d1, d2)
        for d in group:
            assert are_isomorphic(d, d) and brute_force_isomorphic(d, d)

    rng = random.Random(61803)
    for _ in range(800):                      # cross-size sampled pairs
        d1 = rng.choice(universe)
        d2 = rng.choice(universe)
        assert are_isomorphic(d1, d2) == brute_force_isomorphic(d1, d2)

    for _ in range(1200):                     # the full <=4/<=4 universe
        d1 = random_diagram(rng)
        d2 = random_diagram(rng)
        assert are_isomorphic(d1, d2) == brute_force_isomorphic(d1, d2)
    for _ in range(600):                      # guaranteed positives
        d = random_diagram(rng)
        copy = permuted_copy(rng, d)
        assert are_isomorphic(d, copy) and brute_force_isomorphic(d, copy)
    for _ in range(400):                      # near misses
        d = random_diagram(rng, max_nodes=3, max_edges=3)
        if not d.edges:
            continue
        i = rng.randrange(len(d.edges))
        e = d.edges[i]
        other = rng.choice([lab for lab in TEST_ALPHABET if lab != e.label])
        mutated = Diagram(d.nodes, d.edges[:i] + (Edge(e.a, e.b, other),)
                          + d.edges[i + 1:])
        assert are_isomorphic(d, mutated) == brute_force_isomorphic(d, mutated)


@criterion(7, "validation lemmas")
def test_criterion_07_validation_lemmas():
    def rejected_with(d, code):
        return code in {v.code for v in validate_diagram(d).violations}

    for payload in (ell(PAIR), ell(), ell(SlopePair(Slope(1, 3), Slope(3, 1)))):
        loop = Diagram((U, U), (Edge(0, 1, EM), Edge(0, 0, payload)))
        chain = Diagram((U, U, U), (Edge(0, 1, payload), Edge(1, 2, EM)))
        assert rejected_with(loop, ViolationCode.EM_WITH_NON_SEPARATING)
        assert rejected_with(chain, ViolationCode.EM_WITH_NON_SEPARATING)

    good_sticks = [k1(Slope(4, 3)), k1(Slope(16, 3)), k1(Slope(-2, 7))]
    bad_sticks = [H1, EM, k2(Slope(4, 3)), k2(Slope(2, 1)), k1(Slope(2, 1)),
                  k1(Slope(1, 0)), ell(PAIR)]
    for lab in good_sticks:
        assert validate_diagram(Diagram((U, U), (Edge(0, 1, lab),))).ok
    for lab in bad_sticks:
        d = Diagram((U, U), (Edge(0, 1, lab),))
        assert rejected_with(d, ViolationCode.STICK_MUST_BE_K1)
    # A single h2 edge is the circle shape, not a stick: it must pass.
    assert validate_diagram(Diagram((U, U), (Edge(0, 1, H2),))).ok

    for knot in TableKnot:
        entry = base_diagram(knot)
        if entry.diagram is not None:
            assert validate_diagram(entry.diagram).ok
    for family in Family:
        for n in family_domain(family, -5, 5):
            assert validate_diagram(family_diagram(family, n)).ok


@criterion(8, "slope-pair forms, exhaustive to |p|, q <= 8")
def test_criterion_08_pair_forms():
    from math import gcd
    slopes = [Slope(p, q) for p in range(-8, 9) for q in range(1, 9)
              if gcd(abs(p), q) == 1]
    assert len(slopes) == len(set(slopes))
    for a, b in combinations(slopes, 2):
        got = pair_form(SlopePair(a, b))
        want = expected_pair_form(Fraction(a.p, a.q), Fraction(b.p, b.q))
        assert got.value == want
    for a in slopes:
        got = pair_form(SlopePair(a, a))
        assert got.value == expected_pair_form(Fraction(a.p, a.q),
                                               Fraction(a.p, a.q))

    for n in family_domain(Family.LL1, -5, 5):
        pair = family_diagram(Family.LL1, n).edges[0].label.pair
        assert pair_form(pair) is not FormClass.INVALID
    for n in family_domain(Family.LL1_VARIANT, -5, 5):
        pair = family_diagram(Family.LL1_VARIANT, n).edges[0].label.pair
        assert pair_form(pair) is not FormClass.INVALID


@criterion(9, "serialization round-trip and CLI goldens")
def test_criterion_09_serialization(capsys):
    rng = random.Random(171)
    names = (None, "a", "sample-name", "x_1")
    for _ in range(1000):
        doc = DiagramDocument(random_document_diagram(rng),
                              name=rng.choice(names), note=rng.choice(names))
        assert parse(serialize(doc)) == doc

    assert serialize(DiagramDocument(base_diagram(TableKnot.K5_2).diagram)) == \
        "annulusdiagram v1\nnodes: u u\nedge: 0 1 k1(4/3)\n"
    assert serialize(DiagramDocument(Diagram())) == "annulusdiagram v1\nnodes:\n"
    assert serialize(DiagramDocument(base_diagram(TableKnot.K5_1).diagram)) == \
        "annulusdiagram v1\nnodes: u\nedge: 0 0 h1\n"

    goldens = [
        (["table", "ll2", "0", "1"], "0\tk1(4/3)\tstick\n1\tk1(16/3)\tstick\n"),
        (["compare", "e:1", "e:2"], "inconclusive\n"),
        (["compare", "motto:0", "motto:1"], "inequivalent\n"),
        (["compare", "--homeo", "6_1", "motto:0"], "equivalent\n"),
        (["show", "5_2"],
         "annulusdiagram v1\nnodes: u u\nedge: 0 1 k1(4/3)\nname: 5_2\n"
         "note: shape=stick; exterior determines knot type: no\n"),
        (["canon", "5_2"], b"uu|0.1.k1(4/3)".hex() + "\n"),
    ]
    for argv, expected in goldens:
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == expected


@criterion(10, "catalog facts")
def test_criterion_10_catalog_facts():
    for n in range(1, 11):
        assert e_family_crossing_number(n) == n + 2
    for n in range(-3, 4):
        assert leelee2_companion_torus_knot(n) == (2 * n + 1, 2)
