"""Bit-exact textual serialization of annulus diagrams.

Format v1, one construct per line, ASCII with ``\\n`` newlines::

    annulusdiagram v1
    nodes: s h u
    edge: 0 1 k1(4/3)
    name: optional display name
    note: optional free-form remark

Node kinds: ``s`` solid (fibered), ``h`` hollow (simple), ``u`` unknown.
Edge endpoints are 0-based decimal node indices; labels follow the label
grammar.  ``name:`` and ``note:`` may each appear at most once, after the
edges.  The parser tolerates trailing whitespace and blank lines, nothing
else, and reports errors with 1-based line and column.  Files store the
diagram exactly as given; canonicalization is never applied on I/O.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .diagram import MAX_NODES, Diagram, Edge, NodeKind
from .errors import DanglingEndpoint, ParseError, TooManyNodes, UnsupportedVersion
from .labels import label_to_text, scan_label

__all__ = ["FORMAT_VERSION", "DiagramDocument", "serialize", "parse"]

FORMAT_VERSION = "v1"

_HEADER = f"annulusdiagram {FORMAT_VERSION}"
_HEADER_RE = re.compile(r"annulusdiagram v(\d+)")
_NODE_KINDS = {k.value: k for k in NodeKind}


@dataclass(frozen=True)
class DiagramDocument:
    """A diagram plus optional metadata, as stored in a v1 file."""

    diagram: Diagram
    name: str | None = None
    note: str | None = None
    version: str = FORMAT_VERSION

    def __post_init__(self):
        if self.version != FORMAT_VERSION:
            raise UnsupportedVersion(f"unknown format version {self.version!r}")
        for field in (self.name, self.note):
            if field is not None and (field == "" or field != field.strip()
                                      or "\n" in field):
                raise ValueError(
                    "metadata strings must be non-empty single lines without "
                    "surrounding whitespace")


def serialize(doc: DiagramDocument) -> str:
    """Emit the document; byte-deterministic for equal inputs."""
    d = doc.diagram
    if d.nodes:
        nodes_line = "nodes: " + " ".join(k.value for k in d.nodes)
    else:
        nodes_line = "nodes:"
    lines = [_HEADER, nodes_line]
    lines.extend(f"edge: {e.a} {e.b} {label_to_text(e.label)}" for e in d.edges)
    if doc.name is not None:
        lines.append(f"name: {doc.name}")
    if doc.note is not None:
        lines.append(f"note: {doc.note}")
    return "\n".join(lines) + "\n"


def _scan_index(line: str, pos: int, lineno: int) -> tuple[int, int]:
    while pos < len(line) and line[pos] == " ":
        pos += 1
    start = pos
    while pos < len(line) and line[pos].isdigit():
        pos += 1
    if pos == start:
        raise ParseError("expected a node index", line=lineno, col=start + 1,
                         expected=("decimal node index",))
    return int(line[start:pos]), pos


def _parse_nodes(line: str, lineno: int) -> list[NodeKind]:
    kinds: list[NodeKind] = []
    pos = len("nodes:")
    while True:
        while pos < len(line) and line[pos] == " ":
            pos += 1
        if pos == len(line):
            return kinds
        start = pos
        while pos < len(line) and line[pos] != " ":
            pos += 1
        token = line[start:pos]
        if token not in _NODE_KINDS:
            raise ParseError(f"unknown node kind {token!r}", line=lineno,
                             col=start + 1, expected=("s", "h", "u"))
        kinds.append(_NODE_KINDS[token])


def _parse_edge(line: str, lineno: int, node_count: int) -> Edge:
    a, pos = _scan_index(line, len("edge:"), lineno)
    b, pos = _scan_index(line, pos, lineno)
    try:
        label, pos = scan_label(line, pos)
    except ParseError as pe:
        raise ParseError(pe.message, line=lineno, col=pe.col,
                         expected=pe.expected) from None
    while pos < len(line) and line[pos] == " ":
        pos += 1
    if pos != len(line):
        raise ParseError("trailing characters after label", line=lineno,
                         col=pos + 1)
    if not (a < node_count and b < node_count):
        raise DanglingEndpoint(
            f"edge ({a}, {b}) references a node outside 0..{node_count - 1}",
            line=lineno)
    return Edge(a, b, label)


def _parse_meta(line: str, lineno: int, key: str) -> str:
    value = line[len(key) + 2:]
    if not value or value != value.strip():
        raise ParseError(f"malformed {key} value", line=lineno,
                         col=len(key) + 3)
    return value


def parse(text: str) -> DiagramDocument:
    """Parse a v1 document; ``parse(serialize(doc))`` reproduces ``doc``."""
    lines = text.split("\n")
    stage = "header"
    nodes: list[NodeKind] = []
    edges: list[Edge] = []
    name: str | None = None
    note: str | None = None

    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip()
        if not line:
            continue
        if stage == "header":
            if line == _HEADER:
                stage = "nodes"
                continue
            m = _HEADER_RE.fullmatch(line)
            if m:
                raise UnsupportedVersion(
                    f"format version v{m.group(1)} is not supported",
                    line=lineno, col=len("annulusdiagram ") + 1)
            raise ParseError("expected the format header", line=lineno, col=1,
                             expected=(_HEADER,))
        if stage == "nodes":
            if line == "nodes:" or line.startswith("nodes: "):
                nodes = _parse_nodes(line, lineno)
                if len(nodes) > MAX_NODES:
                    raise TooManyNodes(
                        f"{len(nodes)} nodes exceeds the bound of {MAX_NODES}",
                        line=lineno)
                stage = "body"
                continue
            raise ParseError("expected the node list", line=lineno, col=1,
                             expected=("nodes:",))
        if line == "edge:" or line.startswith("edge: "):
            if name is not None or note is not None:
                raise ParseError("edge lines must precede name/note lines",
                                 line=lineno, col=1)
            edges.append(_parse_edge(line, lineno, len(nodes)))
        elif line == "name:" or line.startswith("name: "):
            if name is not None:
                raise ParseError("duplicate name line", line=lineno, col=1)
            name = _parse_meta(line, lineno, "name")
        elif line == "note:" or line.startswith("note: "):
            if note is not None:
                raise ParseError("duplicate note line", line=lineno, col=1)
            note = _parse_meta(line, lineno, "note")
        else:
            raise ParseError("unrecognized line", line=lineno, col=1,
                             expected=("edge:", "name:", "note:"))

    if stage != "body":
        raise ParseError(
            "unexpected end of input: expected the "
            + ("format header" if stage == "header" else "node list"),
            line=len(lines), col=1)
    return DiagramDocument(Diagram(nodes, edges), name=name, note=note)
