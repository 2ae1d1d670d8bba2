import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anndiag import (H2, DanglingEndpoint, Diagram, DiagramDocument,
                     DiagramError, Edge, NodeKind, ParseError, TableKnot,
                     TooManyNodes, UnsupportedVersion, base_diagram, parse,
                     parse_label, parse_slope, parse_slope_pair, serialize)
from anndiag.catalog_io import _EDGE, _parse_edge, _scan_edge
from anndiag.labels import label_to_text
from gen import (TOO_LONG, diagrams, grammar_text, labels,
                 random_document_diagram)

U = NodeKind.UNKNOWN

FIVE_TWO_TEXT = "annulusdiagram v1\nnodes: u u\nedge: 0 1 k1(4/3)\n"


class TestSerialize:
    def test_five_two_stick(self):
        doc = DiagramDocument(base_diagram(TableKnot.K5_2).diagram)
        assert serialize(doc) == FIVE_TWO_TEXT

    def test_empty_diagram(self):
        assert serialize(DiagramDocument(Diagram())) == "annulusdiagram v1\nnodes:\n"

    def test_five_one_loop(self):
        doc = DiagramDocument(base_diagram(TableKnot.K5_1).diagram)
        assert serialize(doc) == "annulusdiagram v1\nnodes: u\nedge: 0 0 h1\n"

    def test_metadata_lines(self):
        doc = DiagramDocument(Diagram((U,), (Edge(0, 0, H2),)),
                              name="circle", note="one h2 loop")
        assert serialize(doc) == ("annulusdiagram v1\nnodes: u\n"
                                  "edge: 0 0 h2\nname: circle\n"
                                  "note: one h2 loop\n")

    def test_metadata_must_be_single_trimmed_lines(self):
        d = Diagram()
        for bad in ("", " padded ", "two\nlines", "two\rlines"):
            with pytest.raises(ValueError):
                DiagramDocument(d, name=bad)
            with pytest.raises(ValueError):
                DiagramDocument(d, note=bad)

    def test_fields_are_the_diagram_and_its_metadata(self):
        # The format version lives in the header alone.
        assert [f.name for f in dataclasses.fields(DiagramDocument)] == [
            "diagram", "name", "note"]


class TestParse:
    def test_round_trips_catalog(self):
        for knot in TableKnot:
            entry = base_diagram(knot)
            if entry.diagram is None:
                continue
            doc = DiagramDocument(entry.diagram, name=entry.name)
            assert parse(serialize(doc)) == doc

    def test_tolerates_blank_lines_and_trailing_whitespace(self):
        text = ("annulusdiagram v1   \n\n  \nnodes: u u\t\n\n"
                "edge: 0 1 k1(4/3) \n\n")
        assert parse(text).diagram == base_diagram(TableKnot.K5_2).diagram

    def test_tabs_separate_tokens(self):
        text = "annulusdiagram v1\nnodes: u\t u\nedge: 0\t1\tk1(4/3)\n"
        assert parse(text).diagram == base_diagram(TableKnot.K5_2).diagram

    def test_stored_order_preserved(self):
        text = "annulusdiagram v1\nnodes: h s\nedge: 1 0 h2\n"
        d = parse(text).diagram
        assert d.nodes == (NodeKind.SIMPLE, NodeKind.FIBERED)
        assert (d.edges[0].a, d.edges[0].b) == (1, 0)

    @settings(max_examples=150)
    @given(diagrams(max_nodes=5, max_edges=5),
           st.one_of(st.none(), st.text(
               alphabet=st.characters(min_codepoint=33, max_codepoint=126),
               min_size=1, max_size=12)))
    def test_round_trip_random(self, d, name):
        doc = DiagramDocument(d, name=name)
        assert parse(serialize(doc)) == doc

    def test_injective_on_stored_form(self):
        rng = random.Random(20240)
        docs = [DiagramDocument(random_document_diagram(rng)) for _ in range(300)]
        by_text = {}
        for doc in docs:
            text = serialize(doc)
            if text in by_text:
                assert by_text[text] == doc
            by_text[text] = doc


class TestParseErrors:
    def test_unsupported_version(self):
        with pytest.raises(UnsupportedVersion) as err:
            parse("annulusdiagram v9\nnodes:\n")
        assert err.value.line == 1

    def test_missing_header(self):
        with pytest.raises(ParseError) as err:
            parse("nodes: u\n")
        assert err.value.line == 1

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    def test_missing_nodes_line(self):
        with pytest.raises(ParseError):
            parse("annulusdiagram v1\n")
        with pytest.raises(ParseError):
            parse("annulusdiagram v1\nedge: 0 0 h1\n")

    def test_dangling_endpoint_carries_line(self):
        with pytest.raises(DanglingEndpoint) as err:
            parse("annulusdiagram v1\nnodes: u\nedge: 0 2 h1\n")
        assert err.value.line == 3

    def test_unknown_node_kind_position(self):
        with pytest.raises(ParseError) as err:
            parse("annulusdiagram v1\nnodes: u x\n")
        assert (err.value.line, err.value.col) == (2, 10)
        assert err.value.expected == ("s", "h", "u")

    def test_bad_label_position(self):
        with pytest.raises(ParseError) as err:
            parse("annulusdiagram v1\nnodes: u\nedge: 0 0 k9(1/2)\n")
        assert (err.value.line, err.value.col) == (3, 11)

    def test_missing_index(self):
        with pytest.raises(ParseError) as err:
            parse("annulusdiagram v1\nnodes: u\nedge: 0 h1\n")
        assert err.value.line == 3

    def test_trailing_garbage_after_label(self):
        with pytest.raises(ParseError):
            parse("annulusdiagram v1\nnodes: u\nedge: 0 0 h1 h2\n")

    def test_edges_after_metadata_rejected(self):
        with pytest.raises(ParseError):
            parse("annulusdiagram v1\nnodes: u\nname: x\nedge: 0 0 h1\n")

    def test_duplicate_metadata_rejected(self):
        with pytest.raises(ParseError):
            parse("annulusdiagram v1\nnodes: u\nname: x\nname: y\n")

    # A line the CLI's universal-newline reading would split in two.
    @pytest.mark.parametrize("line", ["name: a\rb", "note: a\rb", "name:  x"])
    def test_malformed_metadata_value(self, line):
        with pytest.raises(ParseError) as err:
            parse(f"annulusdiagram v1\nnodes: u\n{line}\n")
        assert (err.value.line, err.value.col) == (3, 7)
        assert err.value.message == f"malformed {line[:4]} value"

    def test_crlf_line_ends_are_stripped(self):
        doc = parse("annulusdiagram v1\r\nnodes: u\r\nname: x\r\nnote: y z\r\n")
        assert (doc.name, doc.note) == ("x", "y z")

    def test_unrecognized_line(self):
        with pytest.raises(ParseError) as err:
            parse("annulusdiagram v1\nnodes: u\nvertex: 0\n")
        assert err.value.expected == ("edge:", "name:", "note:")

    @pytest.mark.parametrize("edge, col", [
        ("edge: 0 1 k1(²/3)", 14),
        ("edge: 0 1 k1(٣/2)", 14),
        ("edge: 0 1 k1(4/٣)", 16),
        ("edge: 0 ١ h1", 9),
        ("edge: 0\tx h1", 9),
        ("edge: 0 1\th1 x", 14),
    ])
    def test_edge_error_positions(self, edge, col):
        with pytest.raises(ParseError) as err:
            parse(f"annulusdiagram v1\nnodes: u u\n{edge}\n")
        assert (err.value.line, err.value.col) == (3, col)

    @pytest.mark.skipif(TOO_LONG is None, reason="int() has no string limit")
    @pytest.mark.parametrize("edge, col", [
        (f"edge: 0 1 k1({TOO_LONG}/3)", 14),
        (f"edge: {TOO_LONG} 0 h1", 7),
    ], ids=["slope", "index"])
    def test_number_past_the_int_limit(self, edge, col):
        with pytest.raises(ParseError) as err:
            parse(f"annulusdiagram v1\nnodes: u u\n{edge}\n")
        assert (err.value.line, err.value.col) == (3, col)
        assert "too long" in err.value.message

    def test_non_ascii_version_digit_is_not_a_version(self):
        with pytest.raises(ParseError) as err:
            parse("annulusdiagram v٣\nnodes:\n")
        assert type(err.value) is ParseError
        assert (err.value.line, err.value.col) == (1, 1)

    def test_too_many_nodes(self):
        with pytest.raises(TooManyNodes) as err:
            parse("annulusdiagram v1\nnodes: " + " ".join(["u"] * 9) + "\n")
        assert (err.value.line, err.value.col) == (2, 24)
        assert err.value.message == "9 nodes exceeds the bound of 8"

    @pytest.mark.parametrize("body, line, col", [
        ("nodes: u u\nedge: 0 5 h2", 3, 9),
        ("nodes: u u\nedge: 7\t9 h2", 3, 7),
        ("nodes: u u\n\nedge: 0 1 h2\nedge: 1  2 h2", 5, 10),
        ("nodes: " + " ".join(["u"] * 9), 2, 24),
        ("nodes: " + "\t".join(["s", "h"] * 5), 2, 24),
        ("nodes:\nedge: 0 0 h1", 3, 7),
    ], ids=["second-index", "first-index", "third-edge", "kinds", "tabs",
            "no-nodes"])
    def test_structural_error_positions(self, body, line, col):
        with pytest.raises(DiagramError) as err:
            parse(f"annulusdiagram v1\n{body}\n")
        assert (err.value.line, err.value.col) == (line, col)
        assert str(err.value) == f"line {line}, column {col}: {err.value.message}"
        assert not isinstance(err.value, ParseError)


# A digit run past the int-string limit where there is one.
LONG = TOO_LONG or "1" * 5000
# Edge-line text: the label alphabet, both blanks, "?", ",", parentheses,
# digits that are not ASCII, and long digit runs.
EDGE_TOKENS = st.sampled_from(
    ["h1", "h2", "em", "k1", "k2", "l", "inf", "-", "/", "(", ")", ",", "?",
     " ", "\t", " \t", "²", "٣", "x", "_", "0", "1", "07", "12", "0/0", LONG])

INDEX = st.one_of(st.integers(0, 8).map(str), st.sampled_from(["07", "٣", "²"]))
# Digits that str.isdigit accepts and int() may read, as often as the rest.
SPLICES = st.one_of(EDGE_TOKENS, st.sampled_from(["²", "٣", "١٢"]))


@st.composite
def edge_lines(draw):
    """An edge line as written, with up to three runs of its characters
    replaced by tokens, or tokens alone after the key."""
    if draw(st.integers(0, 4)) == 0:
        return "edge: " + "".join(draw(st.lists(EDGE_TOKENS, max_size=12)))
    a, b = draw(INDEX), draw(INDEX)
    line = f"edge: {a} {b} {label_to_text(draw(labels))}"
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(len("edge:"), len(line)))
        j = draw(st.integers(i, min(i + 2, len(line))))
        line = line[:i] + draw(SPLICES) + line[j:]
    return line


def edge_outcome(read, line, node_count):
    """The edge ``read`` gives, or its error's type, column and message."""
    try:
        return read(line, node_count)
    except (ParseError, DiagramError) as err:
        return type(err), err.col, err.message


class TestEdgeLines:
    """An edge line read in one match of ``_EDGE`` is the edge the token
    scanner reads; a line the match does not take gets the scanner's
    error."""

    @settings(max_examples=1000)
    @given(edge_lines(), st.integers(0, 9))
    @example("edge: 0 1 k1(0/0)", 2)
    @example(f"edge: 0 1 k1({LONG}/3)", 2)
    @example(f"edge: {LONG} 1 h1", 2)
    @example("edge: 0 1h1", 2)
    @example("edge: 0 1 h1x", 2)
    @example("edge: 0 1 k1(-inf)", 2)
    @example("edge: 0 1 k1 ( 2/3 )", 2)
    @example("edge: 0 0 l(?)", 1)
    @example("edge: 0 0 l( 1/2 ,2 )", 1)
    @example("edge: 0 5 h2", 2)
    @example("edge: 0 1 k1(٣/2)", 2)
    def test_the_pattern_reads_as_the_scanner(self, line, node_count):
        assert (edge_outcome(_parse_edge, line, node_count)
                == edge_outcome(_scan_edge, line, node_count))

    def test_every_written_edge_line_matches(self):
        rng = random.Random(2401)
        for _ in range(300):
            text = serialize(DiagramDocument(random_document_diagram(rng)))
            for line in text.splitlines()[2:]:
                assert _EDGE.fullmatch(line), line


class TestFuzz:
    BASE = ("annulusdiagram v1\nnodes: s h u\nedge: 0 1 k1(4/3)\n"
            "edge: 2 2 l(1/2,2)\nname: sample\nnote: fuzz target\n")
    POOL = ["x", "99", "-1", "k9(1/2)", "nodes:", "edge:", "annulusdiagram",
            "v9", "?", "l(1/2,2)", "u", "(", ")"]

    def _mutations(self):
        tokens = self.BASE.replace("\n", " ⏎ ").split(" ")
        for i in range(len(tokens)):
            if tokens[i] == "⏎":
                continue
            deleted = tokens[:i] + tokens[i + 1:]
            yield " ".join(deleted).replace(" ⏎ ", "\n").replace("⏎", "\n")
            for repl in self.POOL:
                mutated = tokens[:i] + [repl] + tokens[i + 1:]
                yield " ".join(mutated).replace(" ⏎ ", "\n").replace("⏎", "\n")

    def test_single_token_mutations_never_panic(self):
        baseline = parse(self.BASE)
        assert serialize(baseline) == self.BASE
        for text in self._mutations():
            try:
                parse(text)
            except (ParseError, DanglingEndpoint, TooManyNodes) as err:
                assert getattr(err, "line", None) is not None
            # Any other exception propagates and fails the test.


class TestTotality:
    """Every text comes back as a value or a typed, positioned error."""

    @settings(max_examples=300)
    @given(st.one_of(st.text(), grammar_text))
    @pytest.mark.parametrize("parser", [parse, parse_label, parse_slope,
                                        parse_slope_pair])
    def test_value_or_typed_error(self, parser, text):
        try:
            parser(text)
        except (ParseError, DiagramError) as err:
            assert isinstance(getattr(err, "line", None), int)

    @settings(max_examples=300)
    @given(grammar_text)
    def test_documents_past_the_header(self, body):
        try:
            parse("annulusdiagram v1\nnodes: u u\n" + body)
        except (ParseError, DiagramError) as err:
            assert isinstance(err.line, int)
