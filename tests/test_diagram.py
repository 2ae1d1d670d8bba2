import copy
import dataclasses
import pickle
import random
import sys
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anndiag.diagram
from anndiag import (EM, H1, H2, MAX_NODES, DanglingEndpoint, Diagram, Edge,
                     Family, NodeKind, ShapeClass, Slope, SlopePair,
                     Strictness, TooManyNodes, ViolationCode, are_isomorphic,
                     canonical_form, ell, family_diagram, k1, k2, shape_of,
                     validate_diagram)
from gen import (DENSITIES, dense_ends, diagrams, enumerate_diagrams,
                 permuted_copy, random_diagram, shaped_diagrams,
                 simple_diagrams)
from gen import labels as labels_strategy
from oracle import brute_force_isomorphic, brute_force_key, burnside_count
from oracle import shape as oracle_shape
from test_slots import assert_slotted

S, H, U = NodeKind.FIBERED, NodeKind.SIMPLE, NodeKind.UNKNOWN
PAIR = SlopePair(Slope(1, 2), Slope(2, 1))


def stick(label):
    return Diagram((U, U), (Edge(0, 1, label),))


class TestConstruction:
    def test_stores_verbatim(self):
        d = Diagram((U, U), (Edge(1, 0, H1),))
        assert d.edges[0].a == 1 and d.edges[0].b == 0

    def test_empty_diagram_is_valid(self):
        d = Diagram()
        assert d.nodes == () and d.edges == ()

    def test_dangling_endpoint(self):
        with pytest.raises(DanglingEndpoint):
            Diagram((U, U), (Edge(0, 3, H1),))

    def test_edges_require_nodes(self):
        with pytest.raises(DanglingEndpoint):
            Diagram((), (Edge(0, 0, H1),))

    def test_a_rejected_edge_sets_no_field(self):
        d = Diagram((U,))
        with pytest.raises(DanglingEndpoint):
            Diagram.__init__(d, (U, U), (Edge(0, 2, H1),))
        with pytest.raises(TooManyNodes):
            Diagram.__init__(d, (U,) * 9)
        assert (d.nodes, d.edges) == ((U,), ())

    def test_node_bound(self):
        assert anndiag.diagram.MAX_NODES == 8
        Diagram((U,) * 8, ())
        with pytest.raises(TooManyNodes):
            Diagram((U,) * 9, ())

    def test_errors_outside_the_parser_print_the_bare_message(self):
        with pytest.raises(DanglingEndpoint) as dangling:
            Diagram((U, U), (Edge(0, 5, H2),))
        with pytest.raises(DanglingEndpoint) as no_nodes:
            Diagram((), (Edge(0, 0, H1),))
        with pytest.raises(TooManyNodes) as too_many:
            Diagram((U,) * 9, ())
        assert str(dangling.value) == (
            "edge (0, 5) references a node outside 0..1")
        assert str(no_nodes.value) == (
            "edge (0, 0) references a node, but the diagram has no nodes")
        assert str(too_many.value) == "9 nodes exceeds the bound of 8"
        assert dangling.value.line is too_many.value.line is None
        assert no_nodes.value.line is None


class TestEdge:
    def test_fields(self):
        assert [f.name for f in dataclasses.fields(Edge)] == ["a", "b", "label"]

    def test_keyword_construction(self):
        assert Edge(label=H2, b=1, a=0) == Edge(0, 1, H2)
        assert repr(Edge(0, 1, H2)) == "Edge(a=0, b=1, label=AnnulusLabel(h2))"

    def test_replace_runs_the_constructor(self):
        # Only __init__ fills the slots; an unfilled one would not compare.
        e = dataclasses.replace(Edge(0, 1, H2), b=0, label=ell(PAIR))
        assert (e.a, e.b, e.label) == (0, 0, ell(PAIR))
        assert e == Edge(0, 0, ell(PAIR))

    @pytest.mark.parametrize("edge", [
        Edge(0, 1, H2), Edge(2, 2, ell(PAIR)), Edge(1, 0, k1(Slope(4, 3)))],
        ids=str)
    def test_pickle_round_trip(self, edge):
        assert_slotted(edge)


class TestShape:
    def test_circle(self):
        assert shape_of(Diagram((U, U), (Edge(0, 1, H2),))) is ShapeClass.CIRCLE
        assert shape_of(Diagram((U,), (Edge(0, 0, H2),))) is ShapeClass.CIRCLE

    def test_circle_stick(self):
        d = Diagram((U, U, U), (Edge(0, 1, H2), Edge(1, 2, k2(Slope(2, 1)))))
        assert shape_of(d) is ShapeClass.CIRCLE_STICK
        d = Diagram((U, U), (Edge(0, 1, k1(Slope(1, 2))), Edge(0, 1, H2)))
        assert shape_of(d) is ShapeClass.CIRCLE_STICK

    def test_theta(self):
        d = Diagram((U, U), (Edge(0, 1, ell(PAIR)), Edge(0, 1, H2),
                             Edge(0, 1, H2)))
        assert shape_of(d) is ShapeClass.THETA

    def test_stick(self):
        assert shape_of(stick(k1(Slope(4, 3)))) is ShapeClass.STICK
        assert shape_of(stick(H1)) is ShapeClass.STICK

    def test_label_multiset_takes_precedence_over_stick(self):
        # A single h2 edge between two nodes is the circle shape, not a stick.
        assert shape_of(stick(H2)) is ShapeClass.CIRCLE

    def test_other(self):
        assert shape_of(Diagram((U,), (Edge(0, 0, H1),))) is ShapeClass.OTHER
        assert shape_of(Diagram()) is ShapeClass.OTHER
        two_h2 = Diagram((U, U), (Edge(0, 1, H2), Edge(0, 1, H2)))
        assert shape_of(two_h2) is ShapeClass.OTHER

    @given(diagrams())
    def test_matches_the_docstring_rules(self, d):
        assert shape_of(d).value == oracle_shape(d)

    def test_matches_the_docstring_rules_on_small_universe(self):
        seen = set()
        for d in enumerate_diagrams(2, 3, kinds=(U,)):
            want = oracle_shape(d)
            seen.add(want)
            assert shape_of(d).value == want, d
        assert seen == {s.value for s in ShapeClass}


class TestCanonicalForm:
    def test_node_order_irrelevant(self):
        d1 = Diagram((NodeKind.FIBERED, NodeKind.SIMPLE),
                     (Edge(0, 1, k1(Slope(4, 3))),))
        d2 = Diagram((NodeKind.SIMPLE, NodeKind.FIBERED),
                     (Edge(1, 0, k1(Slope(4, 3))),))
        assert canonical_form(d1) == canonical_form(d2)

    def test_labels_distinguish(self):
        a = Diagram((U,), (Edge(0, 0, H1),))
        b = Diagram((U,), (Edge(0, 0, H2),))
        assert canonical_form(a) != canonical_form(b)

    def test_node_kinds_distinguish(self):
        a = Diagram((NodeKind.FIBERED,), (Edge(0, 0, H1),))
        b = Diagram((NodeKind.UNKNOWN,), (Edge(0, 0, H1),))
        assert canonical_form(a) != canonical_form(b)

    def test_motto_members_differ(self):
        k_1 = canonical_form(family_diagram(Family.MOTTO, 1))
        k_2 = canonical_form(family_diagram(Family.MOTTO, 2))
        assert k_1 != k_2

    def test_bound(self):
        with pytest.raises(TooManyNodes):
            canonical_form(Diagram((U,) * 8 + (U,), ()))

    @settings(max_examples=150)
    @given(diagrams())
    def test_permutation_invariance(self, d):
        rng = random.Random(canonical_form(d))
        assert canonical_form(permuted_copy(rng, d)) == canonical_form(d)

    # Exact key bytes: keys stored by earlier versions must keep matching.
    @pytest.mark.parametrize("d, key", [
        pytest.param(Diagram((U, U), (Edge(0, 1, k1(Slope(4, 3))),)),
                     b"uu|0.1.k1(4/3)", id="stick"),
        pytest.param(Diagram(), b"|", id="empty"),
        pytest.param(Diagram((S, H)), b"hs|", id="edgeless-mixed"),
        pytest.param(Diagram((U, S, H), (Edge(0, 0, H1),
                                         Edge(2, 0, k2(Slope(2, 1))),
                                         Edge(1, 2, ell(PAIR)))),
                     b"hsu|0.1.l(1/2,2);0.2.k2(2);2.2.h1", id="mixed-loop"),
    ])
    def test_deterministic_bytes(self, d, key):
        assert canonical_form(d) == key

    @settings(max_examples=200, deadline=None)
    @given(shaped_diagrams(max_nodes=7))
    def test_matches_the_all_permutation_key(self, d):
        assert canonical_form(d) == brute_force_key(d)

    def test_matches_the_all_permutation_key_on_small_universe(self):
        for d in enumerate_diagrams(max_nodes=2, max_edges=2,
                                    kinds=tuple(NodeKind)):
            assert canonical_form(d) == brute_force_key(d)


class TestClassCounts:
    """As many distinct keys as isomorphism classes, counted by Burnside's
    lemma: too many keys means the search missed a least encoding, too few
    that the key lost information."""

    @pytest.mark.parametrize("alphabet, loops, counts", [
        ((H2,), False, [1, 1, 2, 4, 11, 34]),
        ((H2,), True, [1, 2, 6, 20, 90]),
        ((H1, H2), False, [1, 1, 3, 10, 66]),
    ], ids=["one-label", "one-label-loops", "two-labels"])
    def test_one_key_per_class(self, alphabet, loops, counts):
        for n, count in enumerate(counts):
            keys = {canonical_form(d)
                    for d in simple_diagrams(n, alphabet, loops)}
            assert len(keys) == count
            assert burnside_count(n, len(alphabet), loops) == count


def one_label(kinds, ends):
    return Diagram(kinds, tuple(Edge(a, b, H2) for a, b in ends))


def cycles(*sizes):
    """Disjoint cycles of the given sizes, one node kind, one label."""
    ends, start = [], 0
    for size in sizes:
        ends += [(start + i, start + (i + 1) % size) for i in range(size)]
        start += size
    return one_label((U,) * start, ends)


# Q3: nodes are 3-bit words, joined when they differ in one bit.
HYPERCUBE = one_label((U,) * 8, [(v, v ^ bit) for v in range(8)
                                 for bit in (1, 2, 4) if v < v ^ bit])
# The 4-prism C4 x K2: node 4r + c is joined to the next node in its cycle
# and to the node in its place on the other cycle.
PRISM = one_label((U,) * 8, [(4 * r + c, 4 * r + (c + 1) % 4)
                             for r in range(2) for c in range(4)]
                  + [(c, c + 4) for c in range(4)])
# The Wagner graph: an 8-cycle and its four long diagonals, cubic as Q3 is.
WAGNER = one_label((U,) * 8, [(i, (i + 1) % 8) for i in range(8)]
                   + [(i, i + 4) for i in range(4)])
COMPLETE = [(a, b) for a in range(8) for b in range(a + 1, 8)]

# 8-node diagrams with automorphism groups of up to 8! elements.
WORST_CASES = {
    "cycle": cycles(8),
    "alternating-cycle": one_label((S, H) * 4,
                                   [(i, (i + 1) % 8) for i in range(8)]),
    "edgeless": Diagram((U,) * 8),
    "complete": one_label((U,) * 8, COMPLETE),
    "doubled-complete": one_label((U,) * 8, COMPLETE * 2),
    "identical-stars": one_label((U,) * 8, [(c, c + j) for c in (0, 4)
                                           for j in (1, 2, 3)]),
    "double-edges": one_label((U,) * 8, [(a, a + 1) for a in range(0, 8, 2)] * 2),
    "2xC4": cycles(4, 4),
    "Q3": HYPERCUBE,
}


class TestLargeDiagrams:
    """8 nodes, the bound, where the all-permutation key is too slow for a
    property."""

    @settings(max_examples=100, deadline=None)
    @given(shaped_diagrams(min_nodes=MAX_NODES, max_nodes=MAX_NODES),
           st.randoms())
    def test_relabeling_keeps_the_key(self, d, rng):
        assert canonical_form(permuted_copy(rng, d)) == canonical_form(d)

    # Equal degree and label multisets, different cycle structure.
    @pytest.mark.parametrize("d1, d2", [
        (cycles(8), cycles(4, 4)),
        (cycles(8), cycles(5, 3)),
        (cycles(4, 4), cycles(5, 3)),
        (HYPERCUBE, WAGNER),
    ], ids=["C8-2xC4", "C8-C5+C3", "2xC4-C5+C3", "Q3-Wagner"])
    def test_distinct_keys_for_non_isomorphic_pairs(self, d1, d2):
        assert canonical_form(d1) != canonical_form(d2)
        assert not are_isomorphic(d1, d2)

    def test_hypercube_and_prism_share_a_key(self):
        assert canonical_form(HYPERCUBE) == canonical_form(PRISM)

    @pytest.mark.parametrize("name", list(WORST_CASES))
    def test_worst_cases_take_under_a_second(self, name):
        d = permuted_copy(random.Random(name), WORST_CASES[name])
        start = time.process_time()
        canonical_form(d)
        assert time.process_time() - start < 1.0

    # Dense one-label diagrams have few automorphisms to prune by.
    @pytest.mark.parametrize("p", DENSITIES)
    def test_dense_diagrams_take_under_a_second(self, p):
        rng = random.Random(1000 + MAX_NODES)
        for _ in range(25):
            d = one_label((U,) * MAX_NODES, dense_ends(rng, MAX_NODES, p))
            start = time.process_time()
            canonical_form(d)
            assert time.process_time() - start < 1.0

    # The _extend calls of each case, relabeled as above; a search that more
    # than doubles them has lost some of its pruning.
    SEARCH_SIZE = {"cycle": 7, "alternating-cycle": 7, "edgeless": 1,
                   "complete": 1, "doubled-complete": 1, "identical-stars": 3,
                   "double-edges": 14, "2xC4": 8, "Q3": 40, "prism": 38}

    @pytest.mark.parametrize("name", [*WORST_CASES, "prism"])
    def test_search_size(self, name, monkeypatch):
        extend, calls = anndiag.diagram._extend, []

        def counting(*args):
            calls.append(args)
            return extend(*args)

        monkeypatch.setattr("anndiag.diagram._extend", counting)
        d = PRISM if name == "prism" else WORST_CASES[name]
        canonical_form(permuted_copy(random.Random(name), d))
        assert len(calls) <= 2 * self.SEARCH_SIZE[name]


class TestKeyCache:
    @settings(max_examples=100)
    @given(diagrams())
    def test_second_call_returns_the_stored_key(self, d):
        first = canonical_form(d)
        assert first == brute_force_key(d)
        second = canonical_form(d)
        assert second is first
        assert second == brute_force_key(d)

    def test_stored_key_is_not_a_field(self):
        keyed = Diagram((U, S), (Edge(0, 1, k1(Slope(4, 3))),))
        canonical_form(keyed)
        fresh = Diagram((U, S), (Edge(0, 1, k1(Slope(4, 3))),))
        assert keyed == fresh
        assert hash(keyed) == hash(fresh)
        assert repr(keyed) == repr(fresh)
        assert dataclasses.fields(keyed) == dataclasses.fields(fresh)
        assert [f.name for f in dataclasses.fields(keyed)] == ["nodes", "edges"]

    @pytest.mark.parametrize("clone", [
        copy.copy, lambda d: pickle.loads(pickle.dumps(d))],
        ids=["copy", "pickle"])
    def test_clones_keep_the_key(self, clone):
        d = Diagram((U, S, H), (Edge(0, 0, H1), Edge(2, 0, k2(Slope(2, 1)))))
        key = canonical_form(d)
        twin = clone(d)
        assert twin == d
        assert canonical_form(twin) == key

    def test_fresh_keys_raise_no_attribute_error(self):
        fresh = [Diagram((U,), (Edge(0, 0, H2),)),
                 Diagram((U, U), (Edge(0, 1, k1(Slope(4, 3))),)),
                 Diagram((U,) * 6, tuple(Edge(i, (i + 1) % 6, H2) for i in range(6))),
                 Diagram((U,) * 8)]
        raised = []

        def trace(frame, event, arg):
            if not frame.f_globals.get("__name__", "").startswith("anndiag"):
                return None
            if event == "exception" and issubclass(arg[0], AttributeError):
                raised.append(frame.f_code.co_name)
            return trace

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            for d in fresh:
                canonical_form(d)
        finally:
            sys.settrace(previous)
        assert raised == []

    # The key alone tells apart diagrams whose kinds, node counts or edge
    # counts differ: its head is the sorted kinds, and its body lists every edge.
    @pytest.mark.parametrize("d1, d2", [
        (Diagram((S, H)), Diagram((S, S))),
        (Diagram((H, U), (Edge(0, 1, H2),)), Diagram((S, U), (Edge(0, 1, H2),))),
        (Diagram((U,)), Diagram((U, U))),
        (Diagram((U, U), (Edge(0, 1, H2),)),
         Diagram((U, U), (Edge(0, 1, H2), Edge(0, 1, H2)))),
    ], ids=["edgeless", "one-h2", "node-count", "edge-count"])
    def test_kinds_distinguish(self, d1, d2):
        assert not are_isomorphic(d1, d2)
        assert not are_isomorphic(d2, d1)


class TestIsomorphism:
    @settings(max_examples=200)
    @given(diagrams(), diagrams())
    def test_agrees_with_permutation_search(self, d1, d2):
        assert are_isomorphic(d1, d2) == brute_force_isomorphic(d1, d2)

    @settings(max_examples=100)
    @given(diagrams())
    def test_permuted_copies_are_isomorphic(self, d):
        rng = random.Random(len(d.edges))
        copy = permuted_copy(rng, d)
        assert are_isomorphic(d, copy)
        assert brute_force_isomorphic(d, copy)

    def test_equivalence_relation_on_small_universe(self):
        universe = list(enumerate_diagrams(max_nodes=2, max_edges=1))
        keys = [canonical_form(d) for d in universe]
        for d in universe:
            assert are_isomorphic(d, d)
        for (i, d1), (j, d2) in combinations(enumerate(universe), 2):
            assert are_isomorphic(d1, d2) == are_isomorphic(d2, d1)
            assert are_isomorphic(d1, d2) == (keys[i] == keys[j])
        # Key equality is transitive, so isomorphism is too; spot-check the
        # grouping against the oracle.
        rng = random.Random(7)
        for _ in range(300):
            i, j = rng.randrange(len(universe)), rng.randrange(len(universe))
            assert (keys[i] == keys[j]) == brute_force_isomorphic(
                universe[i], universe[j])


class TestValidation:
    def test_em_excludes_non_separating(self):
        d = Diagram((U, U), (Edge(0, 1, EM), Edge(0, 0, ell(PAIR))))
        result = validate_diagram(d)
        assert ViolationCode.EM_WITH_NON_SEPARATING in {
            v.code for v in result.violations}

    def test_em_with_separating_companion_is_fine(self):
        d = Diagram((U, U, U), (Edge(0, 1, EM), Edge(1, 2, k2(Slope(1, 2)))))
        assert validate_diagram(d).ok

    def test_stick_must_be_k1_non_integral(self):
        assert validate_diagram(stick(k1(Slope(4, 3)))).ok
        for lab in (H1, EM, k2(Slope(4, 3)), ell(PAIR)):
            result = validate_diagram(stick(lab))
            assert ViolationCode.STICK_MUST_BE_K1 in {
                v.code for v in result.violations}

    def test_stick_with_integral_k1_rejected(self):
        result = validate_diagram(stick(k1(Slope(3, 1))))
        got = {v.code for v in result.violations}
        assert ViolationCode.STICK_MUST_BE_K1 in got
        assert ViolationCode.NON_INTEGRAL_REQUIRED in got

    def test_label_violations_carry_edge_positions(self):
        d = Diagram((U, U, U), (Edge(0, 1, H2), Edge(1, 2, k2(Slope(2, 1)))))
        strict = validate_diagram(d, Strictness.STRICT)
        assert [v.where for v in strict.violations] == ["edge 1"]
        assert validate_diagram(d, Strictness.LENIENT).ok

    def test_warnings_propagate(self):
        d = Diagram((U,), (Edge(0, 0, ell()),))
        result = validate_diagram(d)
        assert result.ok
        assert [w.where for w in result.warnings] == ["edge 0"]

    @pytest.mark.parametrize("strictness", list(Strictness))
    @given(lab=labels_strategy)
    def test_g2_fires_exactly_off_finite_non_integral_k1(self, strictness,
                                                          lab):
        d = stick(lab)
        if shape_of(d) is not ShapeClass.STICK:
            return
        fired = ViolationCode.STICK_MUST_BE_K1 in {
            v.code for v in validate_diagram(d, strictness).violations}
        assert fired is not (lab.kind.value == "k1"
                             and not lab.slope.is_infinite
                             and not lab.slope.is_integral)

    @given(labels_strategy)
    def test_g2_soundness(self, lab):
        # Any stick-shaped diagram that validates carries exactly one k1
        # label with a finite non-integral slope.
        d = stick(lab)
        if shape_of(d) is ShapeClass.STICK and validate_diagram(d).ok:
            assert lab.kind.value == "k1"
            assert not lab.slope.is_infinite and not lab.slope.is_integral
