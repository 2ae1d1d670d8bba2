"""Bit-exact textual serialization of annulus diagrams.

Format v1, one construct per line, ASCII with ``\\n`` newlines::

    annulusdiagram v1
    nodes: s h u
    edge: 0 1 k1(4/3)
    name: optional display name
    note: optional free-form remark

Node kinds: ``s`` solid (fibered), ``h`` hollow (simple), ``u`` unknown.
Edge endpoints are 0-based node indices in ASCII digits 0-9; labels follow
the label grammar.  A key is followed by a space before its first token;
further tokens on ``nodes:`` and ``edge:`` lines are separated by spaces or
tabs.  ``name:`` and ``note:`` may each appear at most once, after the
edges.  The parser tolerates trailing whitespace and blank lines, nothing
else, and reports errors with 1-based line and column.  Files store the
diagram exactly as given; canonicalization is never applied on I/O.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .diagram import MAX_NODES, Diagram, Edge, NodeKind
from .errors import (DanglingEndpoint, DiagramError, ParseError, TooManyNodes,
                     UnsupportedVersion)
from .labels import label_to_text, scan_label
from .rational import scan_digits, skip_ws

__all__ = ["FORMAT_VERSION", "DiagramDocument", "serialize", "parse"]

FORMAT_VERSION = "v1"

_HEADER = f"annulusdiagram {FORMAT_VERSION}"
_HEADER_RE = re.compile("annulusdiagram v([0-9]+)")
_NODE_KINDS = {k.value: k for k in NodeKind}
_BLANK_SEPARATED = re.compile("[^ \t]+")  # tokens between spaces and tabs


@dataclass(frozen=True)
class DiagramDocument:
    """A diagram plus optional metadata, as stored in a v1 file."""

    diagram: Diagram
    name: str | None = None
    note: str | None = None

    def __post_init__(self):
        for field in (self.name, self.note):
            if field is not None and (field == "" or field != field.strip()
                                      or "\n" in field or "\r" in field):
                raise ValueError(
                    "metadata strings must be non-empty single lines without "
                    "surrounding whitespace")


def serialize(doc: DiagramDocument) -> str:
    """Emit the document; byte-deterministic for equal inputs."""
    d = doc.diagram
    # k._value_, since .value is a slower property
    lines = [_HEADER, " ".join(["nodes:"] + [k._value_ for k in d.nodes])]
    lines.extend(f"edge: {e.a} {e.b} {label_to_text(e.label)}" for e in d.edges)
    if doc.name is not None:
        lines.append(f"name: {doc.name}")
    if doc.note is not None:
        lines.append(f"note: {doc.note}")
    return "\n".join(lines) + "\n"


def _parse_nodes(line: str) -> list[NodeKind]:
    tokens = list(_BLANK_SEPARATED.finditer(line, len("nodes:")))
    kinds: list[NodeKind] = []
    for token in tokens:
        if token[0] not in _NODE_KINDS:
            raise ParseError(f"unknown node kind {token[0]!r}",
                             col=token.start() + 1, expected=("s", "h", "u"))
        kinds.append(_NODE_KINDS[token[0]])
    if len(kinds) > MAX_NODES:
        raise TooManyNodes.for_count(len(kinds), MAX_NODES,
                                     col=tokens[MAX_NODES].start() + 1)
    return kinds


def _parse_edge(line: str, node_count: int) -> Edge:
    a_at = skip_ws(line, len("edge:"))
    a, pos = scan_digits(line, a_at)
    b = None
    if a is not None:
        b_at = skip_ws(line, pos)
        b, pos = scan_digits(line, b_at)
    if b is None:
        raise ParseError("expected a node index", col=pos + 1,
                         expected=("decimal node index",))
    label, pos = scan_label(line, pos)
    pos = skip_ws(line, pos)
    if pos != len(line):
        raise ParseError("trailing characters after label", col=pos + 1)
    if not (a < node_count and b < node_count):
        raise DanglingEndpoint.for_edge(
            a, b, node_count, col=(a_at if a >= node_count else b_at) + 1)
    return Edge(a, b, label)


def parse(text: str) -> DiagramDocument:
    """Parse a v1 document; ``parse(serialize(doc))`` reproduces ``doc``."""
    lines = text.split("\n")
    stage = "header"
    nodes: list[NodeKind] = []
    edges: list[Edge] = []
    meta: dict[str, str] = {}

    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip()
        if not line:
            continue
        key = line.partition(" ")[0]
        try:
            if stage == "header":
                if line != _HEADER:
                    m = _HEADER_RE.fullmatch(line)
                    if m:
                        raise UnsupportedVersion(
                            f"format version v{m.group(1)} is not supported",
                            col=len("annulusdiagram ") + 1)
                    raise ParseError("expected the format header",
                                     expected=(_HEADER,))
                stage = "nodes"
            elif stage == "nodes":
                if key != "nodes:":
                    raise ParseError("expected the node list",
                                     expected=("nodes:",))
                nodes = _parse_nodes(line)
                stage = "body"
            elif key == "edge:":
                if meta:
                    raise ParseError("edge lines must precede name/note lines")
                edges.append(_parse_edge(line, len(nodes)))
            elif key in ("name:", "note:"):
                field, value = key[:-1], line[len(key) + 1:]
                if field in meta:
                    raise ParseError(f"duplicate {field} line")
                if not value or value != value.strip() or "\r" in value:
                    raise ParseError(f"malformed {field} value",
                                     col=len(key) + 2)
                meta[field] = value
            else:
                raise ParseError("unrecognized line",
                                 expected=("edge:", "name:", "note:"))
        except (ParseError, DiagramError) as err:
            err.line = lineno
            raise

    if stage != "body":
        raise ParseError(
            "unexpected end of input: expected the "
            + ("format header" if stage == "header" else "node list"),
            line=len(lines))
    return DiagramDocument(Diagram(nodes, edges), **meta)
