import dataclasses
import pickle

import pytest
from hypothesis import given

from anndiag import (EM, H1, H2, AnnulusLabel, LabelKind, ParseError,
                     SeparationClass, Slope, SlopePair, Strictness,
                     ViolationCode, ell, k1, k2, label_to_text, parse_label,
                     separation_class, validate_label)
from gen import AT_LIMIT, TOO_LONG, labels
from oracle import model_label, models
from test_slots import assert_slotted

PAIR = SlopePair(Slope(1, 2), Slope(2, 1))


def codes(result):
    return [v.code for v in result.violations]


class TestValidate:
    def test_k1_non_integral_ok_in_both_modes(self):
        lab = k1(Slope(4, 3))
        assert validate_label(lab, Strictness.STRICT).ok
        assert validate_label(lab, Strictness.LENIENT).ok

    def test_k2_integral_is_strict_only(self):
        lab = k2(Slope(2, 1))
        assert validate_label(lab, Strictness.LENIENT).ok
        strict = validate_label(lab, Strictness.STRICT)
        assert codes(strict) == [ViolationCode.NON_INTEGRAL_REQUIRED]

    def test_k1_integral_rejected_in_both_modes(self):
        for mode in Strictness:
            result = validate_label(k1(Slope(3, 1)), mode)
            assert codes(result) == [ViolationCode.NON_INTEGRAL_REQUIRED]

    def test_k_labels_require_finite_slope(self):
        for lab in (k1(Slope(1, 0)), k2(Slope(1, 0))):
            assert codes(validate_label(lab)) == [ViolationCode.FINITE_SLOPE_REQUIRED]

    def test_l_pair_must_match_a_legal_form(self):
        bad = ell(SlopePair(Slope(2, 3), Slope(5, 1)))
        assert codes(validate_label(bad)) == [ViolationCode.SLOPE_PAIR_FORM_INVALID]

    def test_l_pair_with_infinite_member(self):
        bad = ell(SlopePair(Slope(1, 0), Slope(2, 1)))
        assert codes(validate_label(bad)) == [ViolationCode.FINITE_SLOPE_REQUIRED]

    def test_l_without_pair_warns_but_passes(self):
        result = validate_label(ell(), Strictness.STRICT)
        assert result.ok
        assert [w.code for w in result.warnings] == [ViolationCode.MISSING_SLOPE_PAIR]

    @pytest.mark.parametrize("lab", [H1, H2, EM])
    def test_payloadless_labels_always_pass(self, lab):
        assert validate_label(lab, Strictness.STRICT).ok

    @given(labels)
    def test_strict_pass_implies_lenient_pass(self, lab):
        if validate_label(lab, Strictness.STRICT).ok:
            assert validate_label(lab, Strictness.LENIENT).ok


class TestSeparation:
    def test_l_is_the_non_separating_type(self):
        pr = SlopePair(Slope(1, 2), Slope(2, 1))
        assert separation_class(ell(pr)) is SeparationClass.NON_SEPARATING
        assert separation_class(ell()) is SeparationClass.NON_SEPARATING

    @pytest.mark.parametrize("lab", [EM, k1(Slope(4, 3)), k2(Slope(2, 1))])
    def test_separating_types(self, lab):
        assert separation_class(lab) is SeparationClass.SEPARATING

    @pytest.mark.parametrize("lab", [H1, H2])
    def test_hopf_types_unstated(self, lab):
        assert separation_class(lab) is SeparationClass.UNKNOWN


class TestConstruction:
    def test_payload_kind_consistency(self):
        with pytest.raises(ValueError):
            k1(None)

    @pytest.mark.parametrize("kind, payload, message", [
        (LabelKind.K1, {"pair": PAIR}, "k1 takes exactly a slope payload"),
        (LabelKind.K2, {}, "k2 takes exactly a slope payload"),
        (LabelKind.L, {"slope": Slope(1, 2)},
         "l takes a slope pair, not a slope"),
        (LabelKind.H1, {"slope": Slope(1, 2)}, "h1 takes no payload"),
        (LabelKind.EM, {"pair": PAIR}, "em takes no payload"),
        (LabelKind.K1, {"slope": Slope(1, 2), "pair": PAIR},
         "k1 takes exactly a slope payload"),
        (LabelKind.L, {"slope": Slope(1, 2), "pair": PAIR},
         "l takes a slope pair, not a slope"),
        (LabelKind.H2, {"pair": PAIR}, "h2 takes no payload"),
        ("k1", {}, "'k1' is not a label kind"),
        ("h1", {}, "'h1' is not a label kind"),
        (None, {}, "None is not a label kind"),
        ("k1", {"slope": Slope(4, 3)}, "'k1' is not a label kind"),
    ], ids=["k1-pair", "k2-empty", "l-slope", "h1-slope", "em-pair",
            "k1-both", "l-both", "h2-pair", "k1-text", "h1-text", "none",
            "k1-text-slope"])
    def test_payload_errors(self, kind, payload, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            AnnulusLabel(kind, **payload)

    def test_fields(self):
        fields = dataclasses.fields(AnnulusLabel)
        assert [(f.name, f.default) for f in fields] == [
            ("kind", dataclasses.MISSING), ("slope", None), ("pair", None)]

    def test_keyword_construction(self):
        assert AnnulusLabel(slope=Slope(8, 6), kind=LabelKind.K1) == k1(Slope(4, 3))
        assert AnnulusLabel(kind=LabelKind.L, pair=PAIR) == ell(PAIR)
        assert AnnulusLabel(kind=LabelKind.L) == ell()
        assert AnnulusLabel(kind=LabelKind.H2) == H2
        with pytest.raises(ValueError, match="^k2 takes exactly a slope payload$"):
            AnnulusLabel(kind=LabelKind.K2, pair=PAIR)

    def test_replace_checks_the_payload(self):
        lab = dataclasses.replace(k1(Slope(4, 3)), kind=LabelKind.K2)
        assert lab == k2(Slope(4, 3))
        assert dataclasses.replace(ell(), pair=PAIR) == ell(PAIR)
        with pytest.raises(ValueError, match="^h1 takes no payload$"):
            dataclasses.replace(k1(Slope(4, 3)), kind=LabelKind.H1)

    def test_a_rejected_payload_sets_no_field(self):
        lab = k1(Slope(4, 3))
        with pytest.raises(ValueError):
            AnnulusLabel.__init__(lab, LabelKind.H1, Slope(1, 2))
        assert (lab.kind, lab.slope, lab.pair) == (LabelKind.K1, Slope(4, 3), None)

    @pytest.mark.parametrize("lab", [H1, H2, EM, k1(Slope(4, 3)), k2(Slope(2, 1)),
                                     ell(), ell(PAIR)], ids=str)
    def test_pickle_round_trip(self, lab):
        twin = pickle.loads(pickle.dumps(lab))
        assert (twin.kind, twin.slope, twin.pair) == (lab.kind, lab.slope, lab.pair)
        assert twin == lab and hash(twin) == hash(lab)
        assert_slotted(lab)

    def test_structural_equality_on_normalized_payloads(self):
        assert k1(Slope(8, 6)) == k1(Slope(4, 3))
        assert ell() == ell()
        assert ell() != ell(SlopePair(Slope(1, 2), Slope(2, 1)))


class TestGrammar:
    @pytest.mark.parametrize("lab, text", [
        (H1, "h1"),
        (H2, "h2"),
        (EM, "em"),
        (k1(Slope(4, 3)), "k1(4/3)"),
        (k2(Slope(2, 1)), "k2(2)"),
        (ell(SlopePair(Slope(1, 3), Slope(3, 1))), "l(1/3,3)"),
        (ell(), "l(?)"),
    ])
    def test_to_text(self, lab, text):
        assert label_to_text(lab) == text
        assert parse_label(text) == lab

    def test_whitespace_tolerated(self):
        assert parse_label("  l ( 1/2 , 2 ) ") == ell(
            SlopePair(Slope(1, 2), Slope(2, 1)))

    @given(labels)
    def test_round_trip(self, lab):
        assert parse_label(label_to_text(lab)) == lab

    def test_unknown_tag_reports_position_and_expectations(self):
        with pytest.raises(ParseError) as err:
            parse_label("k3(1/2)")
        assert err.value.col == 1
        assert "k1" in err.value.expected

    @pytest.mark.parametrize("bad", [
        "", "k1", "k1(", "k1()", "k1(inf", "k1(4/3) extra", "l(1/2)",
        "l(1/2,)", "l(,2)", "l(?", "h1()", "k1(0/0)", "k1(²/3)", "k1(٣/2)",
        "l(1/2,٢)", "k1(\xa01/2)", "k1(1/2)\n",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_label(bad)

    def test_tabs_between_tokens(self):
        assert parse_label("\tk2\t(\t-1/2\t)") == k2(Slope(-1, 2))

    @pytest.mark.parametrize("text, col", [("k1(²/3)", 4), ("k1(٣/2)", 4),
                                           ("l(1/2,٢)", 7), ("k2(1/٣)", 6)])
    def test_non_ascii_digit_position(self, text, col):
        with pytest.raises(ParseError) as err:
            parse_label(text)
        assert err.value.col == col

    @pytest.mark.skipif(TOO_LONG is None, reason="int() has no string limit")
    def test_number_past_the_int_limit_is_positioned(self):
        with pytest.raises(ParseError) as err:
            parse_label(f"l(1/2,{TOO_LONG})")
        assert err.value.col == 7
        assert "too long" in err.value.message


class TestRenderedText:
    @given(labels)
    def test_text_is_the_oracles_and_repeats(self, lab):
        text = label_to_text(lab)
        assert text == models.label_text(model_label(lab))
        assert label_to_text(lab) == text
        fresh = AnnulusLabel(lab.kind, lab.slope, lab.pair)
        assert label_to_text(fresh) == text

    # cli._member turns this ValueError into "member too large to print".
    @pytest.mark.skipif(AT_LIMIT is None, reason="no int-string limit")
    @pytest.mark.parametrize("make", [k1, k2], ids=["k1", "k2"])
    def test_too_long_to_print_raises_on_every_call(self, make):
        lab = make(Slope(int(AT_LIMIT) * 10 + 1, 2))
        for _ in range(2):
            with pytest.raises(ValueError):
                label_to_text(lab)
