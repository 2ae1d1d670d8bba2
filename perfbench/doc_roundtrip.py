"""doc-roundtrip: v1 documents through the parser, validator and writer.

One operation takes one document and runs ``parse``, ``validate_diagram``
lenient and strict, and ``serialize``; it never canonicalizes.  The
documents are written by this module from the documented format, with up
to 4 nodes, every label kind, slopes of 1-5 digits (some not in lowest
terms), blank lines, trailing whitespace and spaces inside labels.

A pass holds 240 seeded documents, one in eight of them malformed in one of
twelve ways, each of which must raise ``ParseError`` or ``DiagramError`` on
the faulty line.  Which document has which size, label kinds, slope lengths
and fault is fixed by its index; the seed draws the values.  Three more
documents are the same in every run and fail today (see KEPT).
"""

from __future__ import annotations

import random
from fractions import Fraction

import models
from anndiag import (DiagramError, ParseError, Strictness, parse, serialize,
                     validate_diagram)
from anndiag.labels import label_to_text, scan_label, validate_label
from anndiag.rational import pair_form, scan_slope

DOCS = 240
MALFORMED_EVERY = 8
TAGS = ("k1", "l", "h2", "k2", "em", "l", "k1", "h1", "k2")
WORDS = ("twist", "family", "motto", "stick", "theta", "knot", "genus", "two")

# Faults kept until the parser handles them; each must raise a positioned
# ParseError on line 3, and today does not:
#   a superscript digit passes str.isdigit but not int();
#   an Arabic-Indic digit is read silently as 3;
#   a slope of more than 4300 digits hits CPython's int-string limit.
KEPT = (
    "annulusdiagram v1\nnodes: u u\nedge: 0 1 k1(²/3)\n",
    "annulusdiagram v1\nnodes: u u\nedge: 0 1 k1(٣/2)\n",
    "annulusdiagram v1\nnodes: u u\nedge: 0 1 k1(1" + "0" * 4300 + "1/3)\n",
)


def _digits(rng, d):
    return rng.randint(10 ** (d - 1), 10 ** d - 1)


def _fraction(rng, d):
    """(text, value) of a finite non-zero slope p/q, sometimes unreduced."""
    p = _digits(rng, d) * rng.choice((1, -1))
    q = max(2, _digits(rng, d))
    if rng.random() < 0.3:
        k = rng.choice((2, 3))
        return f"{p * k}/{q * k}", Fraction(p, q)
    return f"{p}/{q}", Fraction(p, q)


def _label(rng, tag, d, variant):
    """(raw label text, model label, raw slope tokens)."""
    sp = " " if rng.random() < 0.2 else ""
    if tag in ("h1", "h2", "em"):
        return tag, (tag,), []
    if tag in ("k1", "k2"):
        if variant == 0:
            text, value = models.INF, models.INF
        elif variant == 1:
            value = Fraction(_digits(rng, d) * rng.choice((1, -1)))
            text = str(value)
        else:
            text, value = _fraction(rng, d)
        return f"{tag}({sp}{text}{sp})", (tag, value), [text]
    if variant == 0:
        return f"l({sp}?{sp})", ("l", None), []
    a_text, a = _fraction(rng, d)
    if variant == 1:
        b = 1 / a
    elif variant == 2:
        b = Fraction(a.numerator * a.denominator)
    elif variant == 3:
        b = models.INF
    else:
        b = _fraction(rng, d)[1]
    b_text = models.slope_text(b)
    if rng.random() < 0.5:
        a_text, b_text, a, b = b_text, a_text, b, a
    return (f"l({sp}{a_text},{sp}{b_text}{sp})", ("l", (a, b)),
            [a_text, b_text])


def _fault(rng, kind, lines, n):
    """Apply one fault to the document lines; return the faulty line number.

    ``lines[0]`` is the header and ``lines[1]`` the node list; edge lines
    follow, then name/note lines."""
    body = len(lines)
    while body > 2 and not lines[body - 1].startswith("edge:"):
        body -= 1
    if kind == "version":
        lines[0] = "annulusdiagram v2"
        return 1
    if kind == "node-kind":
        lines[1] = "nodes: " + " ".join(["u"] * (n - 1) + ["x"])
        return 2
    if kind == "edge-after-meta":
        if not any(ln.startswith(("name:", "note:")) for ln in lines):
            lines.append("name: " + rng.choice(WORDS))
        lines.append("edge: 0 0 h1")
        return len(lines)
    if kind == "duplicate-note":
        if not any(ln.startswith("note:") for ln in lines):
            lines.append("note: " + rng.choice(WORDS))
        lines.append("note: " + rng.choice(WORDS))
        return len(lines)
    bad = {
        "tag": f"edge: 0 0 k3({rng.randint(2, 99)}/7)",
        "paren": f"edge: 0 0 k1({rng.randint(2, 99)}/7",
        "denominator": f"edge: 0 0 k2({rng.randint(2, 99)}/)",
        "zero": "edge: 0 0 k1(0/0)",
        "dangling": f"edge: 0 {n + rng.randint(0, 3)} h2",
        "trailing": "edge: 0 0 h1 x",
        "comma": f"edge: 0 0 l(1/{rng.randint(2, 9)} 2)",
        "unrecognized": "nodes: u",
    }[kind]
    lines.insert(body, bad)
    return body + 1


FAULTS = ("version", "node-kind", "tag", "paren", "denominator", "zero",
          "dangling", "edge-after-meta", "duplicate-note", "trailing",
          "comma", "unrecognized")


def _document(rng, i):
    """One seeded document: (text, expectation, slope tokens, label texts)."""
    n = 1 + i % 4
    m = (i // 4) % 6
    kinds = tuple(rng.choice("shu") for _ in range(n))
    edges, raw, tokens = [], [], []
    for j in range(m):
        tag = TAGS[(i + 3 * j) % len(TAGS)]
        text, lab, toks = _label(rng, tag, 1 + (i + j) % 5, (i + 2 * j) % 5)
        a, b = rng.randrange(n), rng.randrange(n)
        edges.append((a, b, lab))
        raw.append(text)
        tokens += toks
    d = (kinds, tuple(edges))
    name = " ".join(rng.sample(WORDS, 2)) if i % 3 == 0 else None
    note = rng.choice(WORDS) if i % 5 == 0 else None
    lines = models.document_lines(d, name, note)
    for j, text in enumerate(raw):
        a, b, _ = edges[j]
        lines[2 + j] = f"edge: {a} {b} {text}"
    if i % MALFORMED_EVERY == MALFORMED_EVERY - 1:
        kind = FAULTS[(i // MALFORMED_EVERY) % len(FAULTS)]
        line = _fault(rng, kind, lines, n)
        cls = DiagramError if kind == "dangling" else ParseError
        expect = ("error", cls, line, False)
        tokens, raw = [], []
    else:
        expect = ("ok", models.document(d, name, note),
                  models.diagram_violations(d, strict=False),
                  models.diagram_violations(d, strict=True))
    # Blank lines and trailing whitespace, which the parser tolerates,
    # at seeded places; they shift line numbers, so track the fault line.
    out = []
    fault_line = expect[2] if expect[0] == "error" else 0
    for k, ln in enumerate(lines, start=1):
        if rng.random() < 0.1:
            out.append("")
        if k == fault_line:
            expect = ("error", expect[1], len(out) + 1, False)
        out.append(ln + rng.choice(("", "", "", " ", "\t")))
    return "\n".join(out) + "\n", expect, tokens, raw


def _violations(result):
    return ([(v.where, v.code.value) for v in result.violations],
            [(w.where, w.code.value) for w in result.warnings])


class Workload:
    def __init__(self, seed, tracer, out_dir):
        self.tracer = tracer
        rng = random.Random(seed)
        self.items = []
        self.tokens, self.label_texts = [], []
        for i in range(DOCS):
            text, expect, tokens, raw = _document(rng, i)
            self.items.append((i, text, expect, len(text.encode())))
            self.tokens += tokens
            self.label_texts += raw
        for k, text in enumerate(KEPT):
            self.items.append((DOCS + k, text, ("error", ParseError, 3, True),
                               len(text.encode())))

    def prepare(self, pass_index):
        return self.items

    def run(self, item):
        _, text, _, nbytes = item
        call, add = self.tracer.call, self.tracer.add
        add("catalog_io.parse.bytes", nbytes)
        doc = call("catalog_io.parse", parse, text)
        lenient = call("diagram.validate_diagram", validate_diagram,
                       doc.diagram, Strictness.LENIENT)
        strict = call("diagram.validate_diagram", validate_diagram,
                      doc.diagram, Strictness.STRICT)
        out = call("catalog_io.serialize", serialize, doc)
        add("catalog_io.serialize.bytes", len(out))
        return out, lenient, strict

    def check(self, item, out):
        i, _, expect, _ = item
        if expect[0] == "error":
            _, cls, line, kept = expect
            if isinstance(out, cls) and getattr(out, "line", None) == line:
                return "ok"
            if kept:
                return "failed"
            return f"doc {i}: expected {cls.__name__} on line {line}, got {out!r}"
        if isinstance(out, Exception):
            return f"doc {i}: raised {out!r}"
        text, lenient, strict = out
        _, want_text, want_lenient, want_strict = expect
        if text != want_text:
            return f"doc {i}: serialized {text!r} != {want_text!r}"
        if _violations(lenient) != want_lenient:
            return f"doc {i}: lenient {_violations(lenient)} != {want_lenient}"
        if _violations(strict) != want_strict:
            return f"doc {i}: strict {_violations(strict)} != {want_strict}"
        return "ok"

    def finish(self):
        return []

    def direct(self):
        """The rational and labels layers on one pass's tokens, called
        directly."""
        call = self.tracer.call
        for token in self.tokens:
            call("rational.scan_slope", scan_slope, token, 0)
        labels = []
        for text in self.label_texts:
            labels.append(call("labels.scan_label", scan_label, text, 0)[0])
        for lab in labels:
            call("labels.validate_label", validate_label, lab,
                 Strictness.LENIENT)
            call("labels.validate_label", validate_label, lab,
                 Strictness.STRICT)
            call("labels.label_to_text", label_to_text, lab)
            pr = lab.pair
            if pr is not None and not (pr.first.is_infinite
                                       or pr.second.is_infinite):
                call("rational.pair_form", pair_form, pr)
