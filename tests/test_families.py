from itertools import combinations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from anndiag import (FAMILY_SHAPES, H1, H2, CatalogEntry, Diagram, Edge,
                     ExteriorDetermines, Family, FormClass, LabelKind,
                     NodeKind, ParameterOutOfDomain, ShapeClass, Slope,
                     SlopePair, TableKnot, Verdict, apply_unimodular,
                     are_isomorphic, base_diagram, decide_equivalence,
                     distinguish, ell, e_family_crossing_number,
                     family_diagram, family_labels, k1, label_to_text,
                     leelee2_companion_torus_knot, pair_form, shape_of,
                     validate_diagram)
from anndiag.cli import main
from gen import AT_LIMIT
from oracle import model, models

U = NodeKind.UNKNOWN
OUT_OF_DOMAIN = [(Family.LL1, 0), (Family.LL1_VARIANT, 0),
                 (Family.LL1_VARIANT, -1)]


def family_domain(f, lo=-5, hi=5):
    return (n for n in range(lo, hi + 1) if models.in_domain(f.value, n))


class TestGenerators:
    def test_motto_layout_and_slope(self):
        d = family_diagram(Family.MOTTO, 0)
        assert [e.label.kind for e in d.edges] == [LabelKind.H2, LabelKind.K2]
        assert d.edges[1].label.slope == Slope(2, 1)
        assert are_isomorphic(d, base_diagram(TableKnot.K6_1).diagram)

    def test_ll2_layout_and_slope(self):
        d = family_diagram(Family.LL2, 0)
        assert shape_of(d) is ShapeClass.STICK
        assert d.edges[0].label == k1(Slope(4, 3))
        assert are_isomorphic(d, base_diagram(TableKnot.K5_2).diagram)

    def test_ll1_is_a_loop_with_pair(self):
        d = family_diagram(Family.LL1, 2)
        assert d.nodes == (U,)
        assert d.edges == (Edge(0, 0, ell(SlopePair(Slope(1, 2), Slope(2, 1)))),)

    def test_variant_pair(self):
        d = family_diagram(Family.LL1_VARIANT, 1)
        assert d.edges[0].label.pair == SlopePair(Slope(1, 2), Slope(2, 1))

    def test_e_is_the_circle_for_every_n(self):
        for n in (-3, 0, 5):
            assert shape_of(family_diagram(Family.E, n)) is ShapeClass.CIRCLE

    @pytest.mark.parametrize("family, n", OUT_OF_DOMAIN)
    def test_domain_errors(self, family, n):
        for member in (family_labels, family_diagram):
            with pytest.raises(ParameterOutOfDomain):
                member(family, n)

    @given(st.sampled_from(Family),
           st.integers(-3, 3) | st.integers(-10**40, 10**40))
    def test_member_is_its_labels_on_the_layout(self, family, n):
        # What `table` prints of a member: its labels and its family's shape.
        assume((family, n) not in OUT_OF_DOMAIN)
        d = family_diagram(family, n)
        assert tuple(e.label for e in d.edges) == family_labels(family, n)
        assert shape_of(d) is FAMILY_SHAPES[family]

    @pytest.mark.parametrize("family", list(Family))
    def test_outputs_pass_lenient_validation(self, family):
        for n in family_domain(family):
            assert validate_diagram(family_diagram(family, n)).ok

    @pytest.mark.parametrize("n", range(-5, 6))
    def test_motto_slope_formula(self, n):
        assert models.document(model(family_diagram(Family.MOTTO, n))) == \
            models.document(models.member("motto", n))

    @pytest.mark.parametrize("n", range(-5, 6))
    def test_ll2_slope_formula_and_non_integrality(self, n):
        d = family_diagram(Family.LL2, n)
        assert models.document(model(d)) == \
            models.document(models.member("ll2", n))
        assert d.edges[0].label.slope.q == 3

    @given(st.integers(-10**40, 10**40))
    def test_closed_forms_are_the_twist_images(self, n):
        # The generator states each slope in closed form; the twist matrices
        # acting on the base slopes of 6_1 and 5_2 must give the same slope.
        motto = family_diagram(Family.MOTTO, n).edges[1].label.slope
        assert motto == apply_unimodular(Slope(2, 1), 1, 0, -n, 1)
        ll2 = family_diagram(Family.LL2, n).edges[0].label.slope
        assert ll2 == apply_unimodular(Slope(4, 3), 1, 4 * n, 0, 1)

    def test_ll1_pairs_are_both_forms(self):
        for n in family_domain(Family.LL1):
            form = pair_form(family_diagram(Family.LL1, n).edges[0].label.pair)
            assert form is FormClass.BOTH

    def test_variant_pairs_are_reciprocal(self):
        for n in family_domain(Family.LL1_VARIANT):
            form = pair_form(
                family_diagram(Family.LL1_VARIANT, n).edges[0].label.pair)
            assert form in (FormClass.RECIPROCAL, FormClass.BOTH)

    def test_family_labels_pass_strict_except_integral_k2(self):
        from anndiag import Strictness, validate_label
        for family in Family:
            for n in family_domain(family):
                for e in family_diagram(family, n).edges:
                    integral_k2 = (e.label.kind is LabelKind.K2
                                   and e.label.slope.is_integral)
                    ok = validate_label(e.label, Strictness.STRICT).ok
                    assert ok == (not integral_k2)


class TestCatalog:
    def test_5_2_entry(self):
        entry = base_diagram(TableKnot.K5_2)
        assert entry.shape is ShapeClass.STICK
        assert entry.exterior_determines is ExteriorDetermines.NO
        assert entry.diagram.edges[0].label == k1(Slope(4, 3))

    def test_5_1_entry(self):
        entry = base_diagram(TableKnot.K5_1)
        assert entry.diagram == Diagram((U,), (Edge(0, 0, H1),))
        assert entry.shape is ShapeClass.OTHER
        assert entry.exterior_determines is ExteriorDetermines.UNKNOWN

    def test_6_1_entry(self):
        entry = base_diagram(TableKnot.K6_1)
        assert entry.shape is ShapeClass.CIRCLE_STICK
        assert entry.exterior_determines is ExteriorDetermines.YES

    def test_4_1_has_no_recorded_diagram(self):
        entry = base_diagram(TableKnot.K4_1)
        assert entry.diagram is None
        assert entry.shape is ShapeClass.THETA
        assert entry.exterior_determines is ExteriorDetermines.YES
        assert entry.notes

    def test_catalog_diagrams_validate(self):
        for knot in TableKnot:
            entry = base_diagram(knot)
            if entry.diagram is not None:
                assert validate_diagram(entry.diagram).ok
                assert shape_of(entry.diagram) is entry.shape

    def test_exterior_determines_exactly_on_the_decisive_shapes(self):
        # The shapes on which decide_equivalence can answer EQUIVALENT.
        decisive = {ShapeClass.CIRCLE_STICK, ShapeClass.THETA}
        for knot in TableKnot:
            entry = base_diagram(knot)
            assert ((entry.exterior_determines is ExteriorDetermines.YES)
                    == (entry.shape in decisive))

    @pytest.mark.parametrize("knot", list(TableKnot))
    def test_entry_is_built_once(self, knot):
        assert base_diagram(knot) is base_diagram(knot)

    def test_cli_keys_the_shared_diagram(self, capsys):
        assert main(["canon", "6_1"]) == 0
        key = bytes.fromhex(capsys.readouterr().out)
        assert base_diagram(TableKnot.K6_1).diagram._key == key

    def test_entry_shape_consistency_enforced(self):
        with pytest.raises(ValueError):
            CatalogEntry("x", Diagram((U,), (Edge(0, 0, H1),)),
                         ShapeClass.THETA, ExteriorDetermines.UNKNOWN, "")


class TestDistinguish:
    def test_is_decide_equivalence_with_its_default(self):
        assert distinguish is decide_equivalence
        d1 = family_diagram(Family.MOTTO, 0)
        d2 = base_diagram(TableKnot.K6_1).diagram
        assert decide_equivalence(d1, d2) is Verdict.INCONCLUSIVE
        assert decide_equivalence(d1, d2, True) is Verdict.EQUIVALENT

    def test_motto_members(self):
        assert distinguish(family_diagram(Family.MOTTO, 1),
                           family_diagram(Family.MOTTO, 2)) is Verdict.INEQUIVALENT

    def test_e_members_share_the_diagram(self):
        assert distinguish(family_diagram(Family.E, 1),
                           family_diagram(Family.E, 5)) is Verdict.INCONCLUSIVE

    def test_reflexive_is_inconclusive(self):
        d = family_diagram(Family.MOTTO, 3)
        assert distinguish(d, d) is Verdict.INCONCLUSIVE

    @pytest.mark.parametrize("family, lo", [
        (Family.MOTTO, -5), (Family.LL2, -5), (Family.LL1, 1),
        (Family.LL1_VARIANT, 1),
    ])
    def test_pairwise_distinction(self, family, lo):
        members = [family_diagram(family, n) for n in family_domain(family, lo, 5)]
        for d1, d2 in combinations(members, 2):
            assert distinguish(d1, d2) is Verdict.INEQUIVALENT

    def test_e_family_collapse(self):
        members = [family_diagram(Family.E, n) for n in range(-5, 6)]
        for d1, d2 in combinations(members, 2):
            assert are_isomorphic(d1, d2)

    def test_variant_twist_symmetry(self):
        # n and -(n+1) give the same slope pair, hence the same diagram.
        for n in (1, 2, 3, 4):
            assert are_isomorphic(family_diagram(Family.LL1_VARIANT, n),
                                  family_diagram(Family.LL1_VARIANT, -(n + 1)))

    def test_ll1_and_variant_can_coincide(self):
        assert are_isomorphic(family_diagram(Family.LL1, 2),
                              family_diagram(Family.LL1_VARIANT, 1))

    def test_each_key_is_computed_once(self, monkeypatch):
        calls = []

        def counting(label):
            calls.append(label)
            return label_to_text(label)

        monkeypatch.setattr("anndiag.diagram.label_to_text", counting)
        window = [family_diagram(Family.MOTTO, n) for n in range(-10, 10)]
        for d1 in window:
            for d2 in window:
                if d1 is not d2:
                    assert distinguish(d1, d2) is Verdict.INEQUIVALENT
        assert len(calls) == sum(len(d.edges) for d in window) == 40

    # A slope too long to print leaves a diagram with no key, whatever the
    # size of the diagram it is compared with.
    @pytest.mark.skipif(AT_LIMIT is None, reason="no int-string limit")
    @pytest.mark.parametrize("family", [Family.LL2, Family.MOTTO],
                             ids=["same-size", "other-size"])
    def test_too_long_to_print_has_no_key(self, family):
        d = family_diagram(Family.LL2, int(AT_LIMIT))
        with pytest.raises(ValueError):
            distinguish(d, family_diagram(family, 0))


class TestDecideEquivalence:
    def test_circle_stick_with_homeomorphic_exteriors(self):
        d1 = Diagram((U, U, U), (Edge(0, 1, H2), Edge(1, 2, k1(Slope(1, 2)))))
        d2 = Diagram((U, U, U), (Edge(2, 1, k1(Slope(1, 2))), Edge(1, 0, H2)))
        assert decide_equivalence(d1, d2, True) is Verdict.EQUIVALENT
        assert decide_equivalence(d1, d2, False) is Verdict.INCONCLUSIVE

    def test_theta_with_homeomorphic_exteriors(self):
        pair = SlopePair(Slope(1, 2), Slope(2, 1))
        d = Diagram((U, U), (Edge(0, 1, ell(pair)), Edge(0, 1, H2),
                             Edge(0, 1, H2)))
        assert decide_equivalence(d, d, True) is Verdict.EQUIVALENT

    def test_circle_stays_inconclusive(self):
        d1 = family_diagram(Family.E, 1)
        d2 = family_diagram(Family.E, 2)
        assert decide_equivalence(d1, d2, True) is Verdict.INCONCLUSIVE

    def test_non_isomorphic_wins(self):
        assert decide_equivalence(family_diagram(Family.LL2, 0),
                                  family_diagram(Family.LL2, 1),
                                  True) is Verdict.INEQUIVALENT

    def test_self_decision_matches_shape(self):
        decisive = (ShapeClass.CIRCLE_STICK, ShapeClass.THETA)
        samples = [
            base_diagram(TableKnot.K5_1).diagram,
            base_diagram(TableKnot.K5_2).diagram,
            base_diagram(TableKnot.K6_1).diagram,
            family_diagram(Family.E, 0),
            family_diagram(Family.LL1, 3),
        ]
        for d in samples:
            expected = (Verdict.EQUIVALENT if shape_of(d) in decisive
                        else Verdict.INCONCLUSIVE)
            assert decide_equivalence(d, d, True) is expected


class TestCatalogFacts:
    @pytest.mark.parametrize("n, crossings", [(1, 3), (4, 6), (10, 12)])
    def test_crossing_numbers(self, n, crossings):
        assert e_family_crossing_number(n) == crossings

    @pytest.mark.parametrize("n", [0, -1])
    def test_crossing_number_domain(self, n):
        with pytest.raises(ParameterOutOfDomain):
            e_family_crossing_number(n)

    @pytest.mark.parametrize("n, knot", [(0, (1, 2)), (1, (3, 2)), (-1, (-1, 2))])
    def test_companion_torus_knots(self, n, knot):
        assert leelee2_companion_torus_knot(n) == knot
