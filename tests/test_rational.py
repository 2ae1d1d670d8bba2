import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from anndiag import (FormClass, InfiniteSlope, NotUnimodular, ParseError,
                     Slope, SlopePair, ZeroOverZero, apply_unimodular,
                     pair_form, parse_slope, parse_slope_pair)
from gen import TOO_LONG, finite_slopes, slopes
from oracle import expected_pair_form
from test_slots import assert_slotted


class TestSlopeNormalization:
    def test_gcd_reduction(self):
        assert Slope(4, 6) == Slope(2, 3)

    def test_sign_carried_by_numerator(self):
        s = Slope(2, -3)
        assert (s.p, s.q) == (-2, 3)

    def test_infinity_is_one_over_zero(self):
        assert (Slope(5, 0).p, Slope(5, 0).q) == (1, 0)
        assert Slope(-7, 0) == Slope(1, 0)

    def test_zero_over_zero_rejected(self):
        with pytest.raises(ZeroOverZero):
            Slope(0, 0)

    def test_zero_normalizes_denominator(self):
        assert (Slope(0, -9).p, Slope(0, -9).q) == (0, 1)

    @given(slopes)
    def test_idempotent(self, s):
        assert Slope(s.p, s.q) == s

    @given(st.integers(-300, 300), st.integers(-300, 300),
           st.integers(-12, 12).filter(lambda k: k != 0))
    def test_scale_invariance(self, p, q, k):
        if p == 0 and q == 0:
            return
        assert Slope(k * p, k * q) == Slope(p, q)


class TestOneStepNormalization:
    @given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12))
    def test_agrees_with_fraction(self, p, q):
        if p == 0 and q == 0:
            return
        s = Slope(p, q)
        if q == 0:
            assert (s.p, s.q) == (1, 0)
        else:
            f = Fraction(p, q)
            assert (s.p, s.q) == (f.numerator, f.denominator)

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(Slope)] == ["p", "q"]

    def test_keyword_construction(self):
        s = Slope(q=-6, p=4)
        assert (s.p, s.q) == (-2, 3)
        assert Slope(p=-3, q=0) == Slope(1, 0)
        with pytest.raises(ZeroOverZero):
            Slope(p=0, q=0)

    @pytest.mark.parametrize("change, pq", [
        ({"q": -4}, (-1, 4)), ({"p": 6, "q": 4}, (3, 2)),
        ({"p": 0, "q": -5}, (0, 1)), ({"q": 0}, (1, 0))])
    def test_replace_normalizes(self, change, pq):
        s = dataclasses.replace(Slope(1, 2), **change)
        assert (s.p, s.q) == pq

    def test_replace_to_zero_over_zero_raises(self):
        with pytest.raises(ZeroOverZero):
            dataclasses.replace(Slope(0, 1), q=0)

    @pytest.mark.parametrize("p, q, pq", [
        (4, -6, (-2, 3)), (-7, 0, (1, 0)), (0, -9, (0, 1)), (12, 3, (4, 1))])
    def test_pickle_round_trip(self, p, q, pq):
        s = Slope(p, q)
        twin = pickle.loads(pickle.dumps(s))
        assert (twin.p, twin.q) == pq
        assert twin == s and hash(twin) == hash(s)
        assert_slotted(s)


class TestPredicates:
    def test_integrality(self):
        assert not Slope(4, 3).is_integral
        assert Slope(2, 1).is_integral
        assert not Slope(1, 0).is_integral

    def test_infinity(self):
        assert Slope(1, 0).is_infinite
        assert not Slope(0, 1).is_infinite
        assert not Slope(-7, 2).is_infinite


class TestUnimodular:
    def test_leelee2_shift(self):
        assert apply_unimodular(Slope(4, 3), 1, 4, 0, 1) == Slope(16, 3)

    def test_motto_twist(self):
        assert apply_unimodular(Slope(2, 1), 1, 0, -1, 1) == Slope(-2, 1)

    @given(slopes)
    def test_identity(self, s):
        assert apply_unimodular(s, 1, 0, 0, 1) == s

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodular):
            apply_unimodular(Slope(1, 2), 2, 0, 0, 2)

    @pytest.mark.parametrize("n", range(-6, 7))
    def test_family_formula_regression(self, n):
        motto = apply_unimodular(Slope(2, 1), 1, 0, -n, 1)
        assert (motto.p, motto.q) == (Fraction(2, 1 - 2 * n).numerator,
                                      Fraction(2, 1 - 2 * n).denominator)
        ll2 = apply_unimodular(Slope(4, 3), 1, 4 * n, 0, 1)
        expected = Fraction(4, 3) + 4 * n
        assert (ll2.p, ll2.q) == (expected.numerator, expected.denominator)

    @given(slopes, st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
    def test_composition(self, s, x, y, z):
        # Random unimodular matrices as products of shears and a flip.
        m = _compose((1, x, 0, 1), (1, 0, y, 1))
        n = _compose((0, -1, 1, 0), (1, z, 0, 1))
        via_two = apply_unimodular(apply_unimodular(s, *m), *n)
        assert via_two == apply_unimodular(s, *_compose(n, m))


def _compose(m, n):
    """Matrix product m @ n for 2x2 tuples (a, b, c, d)."""
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


class TestSlopePair:
    @given(finite_slopes, finite_slopes)
    def test_unordered(self, a, b):
        assert SlopePair(a, b) == SlopePair(b, a)

    def test_canonical_order_matches_printed_forms(self):
        pr = SlopePair(Slope(3, 1), Slope(1, 3))
        assert (pr.first, pr.second) == (Slope(1, 3), Slope(3, 1))
        assert str(pr) == "(1/3,3)"

    @pytest.mark.parametrize("value, text", [
        (Slope(4, 6), "Slope(2, 3)"),
        (Slope(-5, 0), "Slope(1, 0)"),
        (SlopePair(Slope(3, 1), Slope(1, 3)),
         "SlopePair(Slope(1, 3), Slope(3, 1))"),
    ])
    def test_repr_rebuilds_the_value(self, value, text):
        assert repr(value) == text
        assert eval(text, {"Slope": Slope, "SlopePair": SlopePair}) == value

    def test_infinity_ordered_last(self):
        pr = SlopePair(Slope(1, 0), Slope(2, 1))
        assert pr.second.is_infinite

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(SlopePair)] == [
            "first", "second"]

    def test_keyword_construction(self):
        pr = SlopePair(Slope(1, 3), Slope(3, 1))
        assert SlopePair(first=Slope(3, 1), second=Slope(1, 3)) == pr
        assert SlopePair(second=Slope(1, 3), first=Slope(3, 1)) == pr
        assert SlopePair(second=Slope(3, 1), first=Slope(1, 3)) == pr

    @pytest.mark.parametrize("change, pair", [
        ({"first": Slope(1, 0)}, (Slope(3, 1), Slope(1, 0))),
        ({"first": Slope(5, 1)}, (Slope(5, 1), Slope(3, 1))),
        ({"second": Slope(2, 7)}, (Slope(2, 7), Slope(1, 3)))])
    def test_replace_orders_the_pair(self, change, pair):
        pr = dataclasses.replace(SlopePair(Slope(1, 3), Slope(3, 1)), **change)
        assert (pr.first, pr.second) == pair

    @pytest.mark.parametrize("a, b", [
        (Slope(3, 1), Slope(1, 3)), (Slope(1, 0), Slope(-2, 5)),
        (Slope(0, 1), Slope(0, 1))])
    def test_pickle_round_trip(self, a, b):
        pr = SlopePair(a, b)
        twin = pickle.loads(pickle.dumps(pr))
        assert (twin.first, twin.second) == (pr.first, pr.second)
        assert twin == pr and hash(twin) == hash(pr)
        assert_slotted(pr)

    @given(finite_slopes, finite_slopes)
    def test_form_symmetry(self, a, b):
        assert pair_form(SlopePair(a, b)) == pair_form(SlopePair(b, a))


class TestPairForm:
    @pytest.mark.parametrize("a, b, expected", [
        (Slope(1, 3), Slope(3, 1), FormClass.BOTH),
        (Slope(2, 3), Slope(6, 1), FormClass.PRODUCT),
        (Slope(2, 3), Slope(5, 1), FormClass.INVALID),
        (Slope(2, 3), Slope(3, 2), FormClass.RECIPROCAL),
        (Slope(0, 1), Slope(0, 1), FormClass.PRODUCT),
    ])
    def test_examples(self, a, b, expected):
        assert pair_form(SlopePair(a, b)) is expected

    def test_infinite_member_rejected(self):
        with pytest.raises(InfiniteSlope):
            pair_form(SlopePair(Slope(1, 0), Slope(2, 1)))

    @given(finite_slopes, finite_slopes)
    def test_agrees_with_fraction_oracle(self, a, b):
        got = pair_form(SlopePair(a, b))
        want = expected_pair_form(Fraction(a.p, a.q), Fraction(b.p, b.q))
        assert got.value == want


class TestTextSyntax:
    @pytest.mark.parametrize("text, slope", [
        ("4/3", Slope(4, 3)),
        ("-2/3", Slope(-2, 3)),
        ("7", Slope(7, 1)),
        ("-7", Slope(-7, 1)),
        ("inf", Slope(1, 0)),
        ("6/4", Slope(3, 2)),
    ])
    def test_parse(self, text, slope):
        assert parse_slope(text) == slope

    @given(slopes)
    def test_round_trip(self, s):
        assert parse_slope(str(s)) == s

    @pytest.mark.parametrize("bad", ["", "/3", "2/", "2/-3", "--2", "0/0",
                                     "4/3x", "infx", "²/3", "٣/2", "3/٢",
                                     "+3", "4/3\n", "\xa04/3", "1_0"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_slope(bad)

    def test_spaces_and_tabs_around_a_slope(self):
        assert parse_slope(" \t-4/6\t ") == Slope(-2, 3)

    @pytest.mark.parametrize("text, col, message", [
        ("²/3", 1, "expected a slope"),
        ("-٣/2", 1, "expected a slope"),
        ("3/٢", 3, "expected a denominator"),
        ("  4/3x", 6, "trailing characters after slope"),
    ])
    def test_non_ascii_digits_are_positioned(self, text, col, message):
        with pytest.raises(ParseError) as err:
            parse_slope(text)
        assert (err.value.line, err.value.col) == (1, col)
        assert err.value.message == message

    @pytest.mark.skipif(TOO_LONG is None, reason="int() has no string limit")
    @pytest.mark.parametrize("template, col", [("{}/3", 1), ("-{}", 2),
                                               ("1/{}", 3)])
    def test_number_past_the_int_limit_is_positioned(self, template, col):
        with pytest.raises(ParseError) as err:
            parse_slope(template.format(TOO_LONG))
        assert (err.value.line, err.value.col) == (1, col)
        assert err.value.message == f"number too long ({len(TOO_LONG)} digits)"

    @pytest.mark.parametrize("text, col, message", [
        ("(1/2,x)", 6, "expected a slope"),
        ("1/2,2)", 1, "expected '('"),
        ("(1/2 2)", 6, "expected ','"),
        ("(1/2,2", 7, "expected ')'"),
        ("(1/2,2)x", 8, "trailing characters after slope pair"),
    ])
    def test_pair_errors_are_positioned(self, text, col, message):
        with pytest.raises(ParseError) as err:
            parse_slope_pair(text)
        assert (err.value.col, err.value.message) == (col, message)

    def test_pair_tolerates_spaces_and_tabs(self):
        assert parse_slope_pair(" (\t1/2 , 2 )\t") == SlopePair(
            Slope(1, 2), Slope(2, 1))

    def test_pair_round_trip(self):
        pr = SlopePair(Slope(-2, 3), Slope(5, 1))
        assert parse_slope_pair(str(pr)) == pr
