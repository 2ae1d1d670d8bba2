import io
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import anndiag
from anndiag import (DiagramDocument, TableKnot, base_diagram, parse,
                     serialize)
from anndiag.cli import _build_parser, main
from gen import AT_LIMIT, dense_ends, diagrams, grammar_text
from oracle import models

FIVE_TWO_SHOW = (
    "annulusdiagram v1\n"
    "nodes: u u\n"
    "edge: 0 1 k1(4/3)\n"
    "name: 5_2\n"
    "note: shape=stick; exterior determines knot type: no\n"
)

FOUR_ONE_SHOW = (
    "4_1: no diagram recorded\n"
    "shape: theta\n"
    "exterior determines knot type: yes\n"
    "note: theta-shaped characteristic diagram; any handlebody-knot whose "
    "exterior has this characteristic diagram is equivalent to 4_1, and the "
    "theta criterion applies; edge labels unrecorded\n"
)

MOTTO_ONE_SHOW = (
    "annulusdiagram v1\n"
    "nodes: u u u\n"
    "edge: 0 1 h2\n"
    "edge: 1 2 k2(-2)\n"
    "name: motto:1\n"
    "note: shape=circle-stick\n"
)

# Valid in lenient mode; ``validate --strict`` flags the integral k2 slope.
INTEGRAL_K2 = ("annulusdiagram v1\nnodes: u u u\nedge: 0 1 h2\n"
               "edge: 1 2 k2(2)\n")


def stdin_of(data, errors="strict"):
    """A stdin that yields ``data``, opened as Python opens it on POSIX (no
    newline translation); under the C locale ``errors`` is
    ``"surrogateescape"``."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=errors,
                            newline="\n")


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestShow:
    def test_catalog_knot(self, capsys):
        status, out, _ = run(capsys, "show", "5_2")
        assert status == 0
        assert out == FIVE_TWO_SHOW

    def test_knot_without_diagram(self, capsys):
        status, out, _ = run(capsys, "show", "4_1")
        assert status == 0
        assert out == FOUR_ONE_SHOW

    def test_family_member(self, capsys):
        status, out, _ = run(capsys, "show", "motto:1")
        assert status == 0
        assert out == MOTTO_ONE_SHOW

    @pytest.mark.parametrize("target", [
        "motto:0", "motto:-3", "ll1:2", "ll1:-1", "ll1v:2", "ll1v:-2",
        "ll2:0", "ll2:-4", "e:1", "e:-2",
        pytest.param("ll2:" + "9" * 300, id="ll2:9x300")])
    def test_every_family(self, target, capsys):
        # The member and its shape come from the model alone.
        family, _, n = target.partition(":")
        member = models.member(family, int(n))
        want = models.document(member, target, f"shape={models.shape(member)}")
        assert run(capsys, "show", target) == (0, want, "")

    def test_output_reparses_to_the_catalog_diagram(self, capsys):
        for name, knot in (("5_1", TableKnot.K5_1), ("5_2", TableKnot.K5_2),
                           ("6_1", TableKnot.K6_1)):
            _, out, _ = run(capsys, "show", name)
            assert parse(out).diagram == base_diagram(knot).diagram

    def test_file_target_round_trips(self, capsys, tmp_path):
        path = tmp_path / "d.ad"
        path.write_text(FIVE_TWO_SHOW, encoding="ascii")
        status, out, _ = run(capsys, "show", str(path))
        assert status == 0
        assert out == FIVE_TWO_SHOW

    def test_out_of_domain_family_parameter(self, capsys):
        status, _, err = run(capsys, "show", "ll1:0")
        assert status == 2
        assert "n != 0" in err

    def test_missing_file(self, capsys):
        status, _, err = run(capsys, "show", "/no/such/file.ad")
        assert status == 2
        assert "cannot read" in err

    def test_non_ascii_member_number_is_a_path(self, capsys):
        status, out, err = run(capsys, "show", "motto:٣")
        assert (status, out) == (2, "")
        assert err.startswith("error: cannot read motto:٣")

    def test_member_number_past_the_int_limit(self, capsys):
        status, out, err = run(capsys, "show", "motto:-" + "9" * 5000)
        assert (status, out) == (2, "")
        assert err == "error: motto parameter: number too long (5000 digits)\n"


class TestTable:
    def test_ll2_golden(self, capsys):
        status, out, _ = run(capsys, "table", "ll2", "0", "1")
        assert status == 0
        assert out == "0\tk1(4/3)\tstick\n1\tk1(16/3)\tstick\n"

    def test_out_of_domain_rows_skipped(self, capsys):
        status, out, _ = run(capsys, "table", "ll1", "-2", "2")
        assert status == 0
        assert out == ("-2\tl(-1/2,-2)\tother\n"
                       "-1\tl(-1,-1)\tother\n"
                       "1\tl(1,1)\tother\n"
                       "2\tl(1/2,2)\tother\n")

    def test_motto_rows(self, capsys):
        status, out, _ = run(capsys, "table", "motto", "-1", "1")
        assert status == 0
        assert out == ("-1\th2,k2(2/3)\tcircle-stick\n"
                       "0\th2,k2(2)\tcircle-stick\n"
                       "1\th2,k2(-2)\tcircle-stick\n")

    def test_negative_range_parses(self, capsys):
        status, out, _ = run(capsys, "table", "e", "-2", "-1")
        assert status == 0
        assert out == "-2\th2\tcircle\n-1\th2\tcircle\n"

    def test_empty_range_is_usage_error(self, capsys):
        status, _, err = run(capsys, "table", "ll2", "3", "1")
        assert status == 2
        assert "empty range" in err

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["table", "bogus", "0", "1"])
        assert err.value.code == 2


class TestLargeTable:
    @pytest.mark.parametrize("family, frm, to", [
        ("motto", -1234, 1265), ("ll2", -600, 600), ("ll1v", -300, 300),
        ("ll1", -600, 600), ("e", -1000, 1000)])
    def test_rows_match_the_slope_formulas(self, family, frm, to, capsys):
        status, out, err = run(capsys, "table", family, str(frm), str(to))
        assert (status, err) == (0, "")
        lines = out.splitlines(keepends=True)
        assert all(line.endswith("\n") for line in lines)
        assert [line[:-1] for line in lines] == [
            models.table_row(family, n) for n in range(frm, to + 1)
            if models.in_domain(family, n)]


class TestCompare:
    def test_e_family_members_inconclusive(self, capsys):
        assert run(capsys, "compare", "e:1", "e:2") == (0, "inconclusive\n", "")

    def test_motto_members_inequivalent(self, capsys):
        assert run(capsys, "compare", "motto:0", "motto:1") == (
            0, "inequivalent\n", "")

    def test_homeo_flag_upgrades_circle_stick(self, capsys):
        assert run(capsys, "compare", "--homeo", "6_1", "motto:0") == (
            0, "equivalent\n", "")

    def test_without_flag_stays_inconclusive(self, capsys):
        assert run(capsys, "compare", "6_1", "motto:0") == (
            0, "inconclusive\n", "")

    def test_knot_without_diagram_is_usage_error(self, capsys):
        status, _, err = run(capsys, "compare", "4_1", "5_2")
        assert status == 2
        assert "no recorded diagram" in err

    def test_stdin_twice_is_usage_error(self, capsys, monkeypatch):
        _, shown, _ = run(capsys, "show", "5_2")
        stdin = io.StringIO(shown)
        monkeypatch.setattr("sys.stdin", stdin)
        assert run(capsys, "compare", "-", "-") == (
            2, "", "error: stdin (-) can be read only once\n")
        assert stdin.tell() == 0  # rejected before reading


class TestValidate:
    def test_valid_file(self, capsys, tmp_path):
        path = tmp_path / "six.ad"
        path.write_text("annulusdiagram v1\nnodes: u u u\nedge: 0 1 h2\n"
                        "edge: 1 2 k2(2)\n", encoding="ascii")
        assert run(capsys, "validate", str(path)) == (0, "ok\n", "")

    def test_strict_flags_integral_k2(self, capsys, tmp_path):
        path = tmp_path / "six.ad"
        path.write_text("annulusdiagram v1\nnodes: u u u\nedge: 0 1 h2\n"
                        "edge: 1 2 k2(2)\n", encoding="ascii")
        status, out, _ = run(capsys, "validate", "--strict", str(path))
        assert status == 3
        assert out == ("edge 1: NonIntegralRequired: k2 slope must be "
                       "non-integral, got 2\n")

    def test_warning_only_passes(self, capsys, tmp_path):
        path = tmp_path / "lq.ad"
        path.write_text("annulusdiagram v1\nnodes: u\nedge: 0 0 l(?)\n",
                        encoding="ascii")
        status, out, _ = run(capsys, "validate", str(path))
        assert status == 0
        assert out == ("warning: edge 0: MissingSlopePair: l label without "
                       "a recorded slope pair\nok\n")

    def test_parse_error_exits_3(self, capsys, tmp_path):
        path = tmp_path / "v9.ad"
        path.write_text("annulusdiagram v9\nnodes:\n", encoding="ascii")
        status, _, err = run(capsys, "validate", str(path))
        assert status == 3
        assert "line 1" in err

    def test_dangling_endpoint_exits_3(self, capsys, tmp_path):
        path = tmp_path / "dangle.ad"
        path.write_text("annulusdiagram v1\nnodes: u\nedge: 0 2 h1\n",
                        encoding="ascii")
        status, _, err = run(capsys, "validate", str(path))
        assert status == 3

    @pytest.mark.parametrize("body, error", [
        ("nodes: u u\nedge: 0 5 h2\n",
         "line 3, column 9: edge (0, 5) references a node outside 0..1"),
        ("nodes:" + " u" * 9 + "\n",
         "line 2, column 24: 9 nodes exceeds the bound of 8"),
        ("nodes: u x\n",
         "line 2, column 10: unknown node kind 'x' (expected s | h | u)"),
    ], ids=["dangling", "too-many-nodes", "node-kind"])
    def test_file_errors_are_positioned(self, body, error, capsys, tmp_path):
        path = tmp_path / "bad.ad"
        path.write_text("annulusdiagram v1\n" + body, encoding="ascii")
        assert run(capsys, "validate", str(path)) == (
            3, "", f"error: {path}: {error}\n")

    def test_show_pipes_into_validate(self, capsys, monkeypatch):
        _, shown, _ = run(capsys, "show", "5_2")
        monkeypatch.setattr("sys.stdin", stdin_of(shown.encode()))
        assert run(capsys, "validate", "-") == (0, "ok\n", "")

    @pytest.mark.parametrize("stdin_errors", [None, "strict", "surrogateescape"],
                             ids=["file", "stdin", "stdin-surrogateescape"])
    def test_non_utf8_is_a_read_error(self, stdin_errors, capsys, monkeypatch,
                                      tmp_path):
        for command, data in (
                ("validate", b"annulusdiagram v1\nnodes: u \xff u\n"),
                ("show", b"annulusdiagram v1\nnodes: u\nname: a\xffb\n")):
            path = tmp_path / "bad.ad"
            path.write_bytes(data)
            if stdin_errors:
                path = "-"
                monkeypatch.setattr("sys.stdin", stdin_of(data, stdin_errors))
            assert run(capsys, command, str(path)) == (
                2, "", f"error: cannot read {path}: not valid UTF-8\n")

    @pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_newlines_read_as_in_text_mode(self, newline, from_stdin, capsys,
                                           monkeypatch, tmp_path):
        _, shown, _ = run(capsys, "show", "5_2")
        data = shown.replace("\n", newline).encode()
        path = tmp_path / "five_two.ad"
        path.write_bytes(data)
        if from_stdin:
            path = "-"
            monkeypatch.setattr("sys.stdin", stdin_of(data))
        assert run(capsys, "show", str(path)) == (0, shown, "")


class TestCanon:
    def test_hex_key(self, capsys):
        status, out, _ = run(capsys, "canon", "5_2")
        assert status == 0
        assert out == b"uu|0.1.k1(4/3)".hex() + "\n"

    def test_anchoring_at_the_cli(self, capsys):
        _, catalog_key, _ = run(capsys, "canon", "5_2")
        _, family_key, _ = run(capsys, "canon", "ll2:0")
        assert catalog_key == family_key

    def test_byte_stable_across_runs(self, capsys):
        first = run(capsys, "canon", "motto:-3")
        second = run(capsys, "canon", "motto:-3")
        assert first == second

    def test_eight_nodes(self, capsys, tmp_path):
        path = tmp_path / "c8.ad"
        path.write_text("annulusdiagram v1\nnodes:" + " u" * 8 + "\n" + "".join(
            f"edge: {i} {(i + 1) % 8} h2\n" for i in range(8)), encoding="ascii")
        status, out, err = run(capsys, "canon", str(path))
        assert (status, err) == (0, "")
        assert bytes.fromhex(out) == (
            b"u" * 8 + b"|0.1.h2;0.2.h2;1.3.h2;2.4.h2;3.5.h2;4.6.h2;5.7.h2;6.7.h2")

    def test_sixteen_nodes(self, capsys, tmp_path):
        # G(16, 0.5), 61 edges: refused before a key search, which took over a
        # minute on it.
        rng = random.Random(1016)
        path = tmp_path / "g16.ad"
        path.write_text("annulusdiagram v1\nnodes:" + " u" * 16 + "\n" + "".join(
            f"edge: {a} {b} h2\n" for a, b in dense_ends(rng, 16, 0.5)),
            encoding="ascii")
        start = time.process_time()
        assert run(capsys, "canon", str(path)) == (3, "", f"error: {path}: "
            "line 2, column 24: 16 nodes exceeds the bound of 8\n")
        assert time.process_time() - start < 1.0


class TestUsage:
    @pytest.mark.parametrize("argv", [
        [], ["frobnicate"], ["show"], ["table"], ["table", "ll2"],
        ["table", "ll2", "0"], ["table", "ll2", "x", "1"],
        ["table", "bogus", "0", "1"], ["compare", "e:1"], ["canon"],
        ["validate"], ["compare", "--bogus", "e:1", "e:2"],
        ["table", "motto", "٣", "٤"], ["table", "motto", "1_0", "1_1"],
        ["table", "motto", "-" + "9" * 5000, "0"],
    ])
    def test_malformed_invocations_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert message.startswith("anndiag") and "error: " in message
        if any(len(arg) > 120 for arg in argv):  # not echoed whole
            assert len(message) < 120

    # A member whose slope has more digits than the int-string limit.
    @pytest.mark.skipif(AT_LIMIT is None, reason="no int-string limit")
    @pytest.mark.parametrize("argv, family", [
        (["show", f"ll2:{AT_LIMIT}"], "ll2"),
        (["show", f"motto:{AT_LIMIT}"], "motto"),
        (["canon", f"ll2:{AT_LIMIT}"], "ll2"),
        (["compare", "5_2", f"ll2:{AT_LIMIT}"], "ll2"),
        (["table", "ll2", AT_LIMIT, AT_LIMIT], "ll2"),
    ], ids=["show-ll2", "show-motto", "canon", "compare", "table"])
    def test_member_too_large_to_print(self, argv, family, capsys):
        assert run(capsys, *argv) == (
            2, "", f"error: {family} member too large to print\n")

    def test_file_errors_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.ad"
        bad.write_text("annulusdiagram v1\nnodes: u\nedge: 0 1 h1\n",
                       encoding="ascii")
        for argv in (["show", str(bad)], ["canon", str(bad)],
                     ["validate", str(bad)], ["compare", str(bad), "5_2"]):
            assert main(argv) == 3
            capsys.readouterr()


class TestRepeatedCalls:
    """One parser serves every in-process call; no call leaks into the next."""

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_flag_does_not_stick(self, capsys):
        assert run(capsys, "compare", "--homeo", "6_1", "motto:0") == (
            0, "equivalent\n", "")
        assert run(capsys, "compare", "6_1", "motto:0") == (
            0, "inconclusive\n", "")

    def test_strict_does_not_stick(self, capsys, tmp_path):
        path = tmp_path / "six.ad"
        path.write_text(INTEGRAL_K2, encoding="ascii")
        assert run(capsys, "validate", "--strict", str(path)) == (
            3, "edge 1: NonIntegralRequired: k2 slope must be non-integral, "
            "got 2\n", "")
        assert run(capsys, "validate", str(path)) == (0, "ok\n", "")

    @pytest.mark.parametrize("argv, code", [
        (["table", "motto", "x", "1"], 2), (["compare", "e:1"], 2),
        (["--help"], 0), (["show", "--help"], 0)])
    def test_call_after_exit_prints_golden(self, argv, code, capsys):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == code
        capsys.readouterr()
        assert run(capsys, "show", "5_2") == (0, FIVE_TWO_SHOW, "")

    def test_output_goes_to_the_streams_of_the_call(self):
        first, second, help_out = io.StringIO(), io.StringIO(), io.StringIO()
        _build_parser.cache_clear()  # the next call builds under `first`
        with redirect_stdout(io.StringIO()), redirect_stderr(first):
            assert main(["show", "5_2"]) == 0
        with redirect_stderr(second), pytest.raises(SystemExit):
            main(["table", "motto", "x", "1"])
        with redirect_stdout(help_out), pytest.raises(SystemExit):
            main(["--help"])
        assert first.getvalue() == ""
        assert second.getvalue().splitlines()[-1] == (
            "anndiag table: error: argument FROM: invalid integer value: 'x'")
        assert help_out.getvalue().startswith("usage: anndiag")


# Text near the document grammar, most of it past a header and two nodes.
_TWO_NODES = "annulusdiagram v1\nnodes: u u"
documents = st.builds(
    str.__add__,
    st.sampled_from(["", "annulusdiagram v1\n", _TWO_NODES, _TWO_NODES + "\n",
                     _TWO_NODES + "\n", _TWO_NODES + "\nedge: "]),
    grammar_text)


def _splice(doc, at, bad):
    at %= len(doc) + 1
    return doc[:at] + bad + doc[at:]


def _with_value(d, key, head, bad, tail):
    return (serialize(DiagramDocument(d)) + key + ": ").encode() + (
        head + bad + tail + b"\n")


# Documents as UTF-8, arbitrary bytes, documents with a byte sequence that
# is not UTF-8 spliced in, and documents that parse but for such a sequence
# inside the name or note value, which ``show`` echoes.
_encoded = documents.map(str.encode)
_not_utf8 = st.sampled_from([b"\xff", b"\xc3(", b"\x80", b"\xed\xa0\x80"])
_word = st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7e),
                max_size=6).map(str.encode)
byte_documents = st.one_of(
    _encoded, st.binary(),
    st.builds(_splice, _encoded, st.integers(0, 10**6), _not_utf8),
    st.builds(_with_value, diagrams(), st.sampled_from(["name", "note"]),
              _word, _not_utf8, _word))


class TestTotality:
    """Every file or stdin, whatever its bytes, ends in exit 0, 2 or 3,
    never a traceback; stderr holds nothing or one ``error:`` line, and
    stdout is UTF-8 (no byte comes back as a lone surrogate)."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("totality") / "doc.ad"

    @settings(max_examples=150, deadline=None)
    @given(data=byte_documents)
    @example(data=b"annulusdiagram v1\nnodes: u\nname: a\xffb\n")
    @pytest.mark.parametrize("argv", [
        ["show", "{}"], ["validate", "{}"], ["canon", "{}"],
        ["compare", "{}", "5_2"], ["show", "-"], ["validate", "-"],
        ["canon", "-"], ["compare", "-", "5_2"]],
        ids=["show", "validate", "canon", "compare", "show-stdin",
             "validate-stdin", "canon-stdin", "compare-stdin"])
    def test_exits_0_2_or_3(self, argv, path, data):
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with (redirect_stdout(out), redirect_stderr(err),
              mock.patch("sys.stdin", stdin_of(data, "surrogateescape"))):
            try:
                status = main([arg.format(path) for arg in argv])
            except SystemExit as stop:  # argparse
                status = stop.code
        assert status in (0, 2, 3)
        out.getvalue().encode("utf-8")  # strict: raises on a lone surrogate
        lines = err.getvalue().splitlines(keepends=True)
        assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: ")
                               and lines[0].endswith("\n"))


# argv lists near the command grammar; ``{file}`` stands for a valid file.
_bounds = st.integers(-10, 10).map(str)
_targets = st.just("{file}") | st.sampled_from([
    "4_1", "5_1", "5_2", "6_1", "motto:0", "motto:-2", "ll1:0", "ll1v:3",
    "ll2:1", "e:2", "motto:x", "ll2:", "e:1_0", "motto:٣", "bogus:1",
    "/no/such/file.ad"])
_tokens = st.one_of(
    st.sampled_from(["show", "table", "compare", "validate", "canon",
                     "frobnicate", "", "--homeo", "--strict", "-h",
                     "--bogus", "motto", "ll1", "e", "x", "1_0", "٣"]),
    _targets, _bounds)
_flags = st.lists(st.sampled_from(["--homeo", "--strict", "-h", "--bogus"]),
                  max_size=1)


def _command(head, operands):
    return st.tuples(st.just(head), _flags, operands)


argvs = st.one_of(
    *(_command([name], st.lists(_targets, min_size=k, max_size=k))
      for name, k in (("show", 1), ("canon", 1), ("validate", 1),
                      ("compare", 2))),
    st.integers(-10, 10).flatmap(lambda frm: _command(["table"], st.tuples(
        st.sampled_from(["motto", "ll1", "ll1v", "ll2", "e", "bogus"]),
        st.just(str(frm)), st.integers(frm - 3, frm + 20).map(str)))),
    _command([], st.lists(_tokens, max_size=5)),
).map(lambda parts: [arg for part in parts for arg in part])


class TestArgvTotality:
    """Every argv from the grammar ends in exit 0, 2 or 3; stderr holds
    nothing, one ``error:`` line, or argparse's usage block and its error."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("argv") / "six.ad"
        path.write_text(INTEGRAL_K2, encoding="ascii")
        return path

    @settings(max_examples=150, deadline=None)
    @given(argv=argvs)
    def test_exits_0_2_or_3(self, argv, path):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                status = main([arg.format(file=path) for arg in argv])
            except SystemExit as stop:  # argparse: usage error or help
                status = stop.code
        assert status in (0, 2, 3)
        lines = err.getvalue().splitlines()
        assert (lines == []
                or (len(lines) == 1 and lines[0].startswith("error: "))
                or (lines[0].startswith("usage: anndiag")
                    and lines[-1].startswith("anndiag")
                    and ": error: " in lines[-1])), lines


def test_closed_pipe_is_quiet():
    """``anndiag table motto 0 200000 | head -1`` stops with status 0."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(anndiag.__file__)))
    with subprocess.Popen(
            [sys.executable, "-m", "anndiag.cli", "table", "motto", "0",
             "200000"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env) as proc:
        assert proc.stdout.readline() == b"0\th2,k2(2)\tcircle-stick\n"
        proc.stdout.close()
        err = proc.stderr.read()
        status = proc.wait(timeout=60)
    assert (status, err) == (0, b"")
