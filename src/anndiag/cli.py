"""Command-line interface: catalog lookup, family tables, comparison,
validation, canonical keys.  ``main(argv)`` may be called repeatedly in
process; it builds its argument parser once per process, on the first call.

Targets may be a table-knot name (``4_1``, ``5_1``, ``5_2``, ``6_1``), a
family reference ``family:n`` (families ``motto``, ``ll1``, ``ll1v``,
``ll2``, ``e``), or a diagram file path (``-`` for stdin).  Exit status:
0 on success (an inconclusive verdict is not an error), 2 on usage errors,
3 on parse or validation errors in input files.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .catalog_io import DiagramDocument, parse, serialize
from .diagram import canonical_form, shape_of, validate_diagram
from .errors import DiagramError, ParameterOutOfDomain, ParseError
from .families import (FAMILY_SHAPES, Family, TableKnot, base_diagram,
                       decide_equivalence, family_diagram, family_labels)
from .labels import AnnulusLabel, Strictness, label_to_text
from .rational import scan_digits

_FAMILY_NAMES = {f.value for f in Family}
_KNOT_NAMES = {k.value: k for k in TableKnot}


class _CliError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _read_document(path: str) -> DiagramDocument:
    # Bytes, decoded strictly: a text stdin may carry a bad byte through as a
    # lone surrogate, depending on the locale.
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        text = data.decode("utf-8")
    except OSError as err:
        raise _CliError(2, f"cannot read {path}: {err.strerror}") from None
    except UnicodeDecodeError:
        raise _CliError(2, f"cannot read {path}: not valid UTF-8") from None
    try:
        # Newlines as text mode reads them.
        return parse(text.replace("\r\n", "\n").replace("\r", "\n"))
    except (ParseError, DiagramError) as err:
        raise _CliError(3, f"{path}: {err}") from None


def _resolve(target: str) -> DiagramDocument:
    """The document a table knot, ``family:n`` or file target names."""
    if target in _KNOT_NAMES:
        entry = base_diagram(_KNOT_NAMES[target])
        if entry.diagram is None:
            raise _CliError(2, f"{target} has no recorded diagram")
        return DiagramDocument(
            entry.diagram, name=entry.name,
            note=(f"shape={entry.shape.value}; exterior determines knot "
                  f"type: {entry.exterior_determines.value}"))
    family, _, number = target.partition(":")
    if family not in _FAMILY_NAMES:
        return _read_document(target)
    try:
        n = integer(number)
    except argparse.ArgumentTypeError as err:
        raise _CliError(2, f"{family} parameter: {err}") from None
    except ValueError:
        return _read_document(target)
    f = Family(family)
    try:
        d = family_diagram(f, n)
    except ParameterOutOfDomain as err:
        raise _CliError(2, str(err)) from None
    _labels_text(f, tuple(e.label for e in d.edges))  # exit 2 if too large
    return DiagramDocument(d, name=target, note=f"shape={shape_of(d).value}")


def integer(text: str) -> int:
    """An optional ``-`` then ASCII digits, else a ValueError, or past the
    int-string limit an ArgumentTypeError (argparse prints its message)."""
    neg = text.startswith("-")
    try:
        n, end = scan_digits(text, 1 if neg else 0)
    except ParseError as err:
        raise argparse.ArgumentTypeError(err.message) from None
    if n is None or end != len(text):
        raise ValueError(f"not an integer: {text!r}")
    return -n if neg else n


def _labels_text(family: Family, labels: tuple[AnnulusLabel, ...]) -> str:
    """A member's labels as text, or exit 2 if one is too large to print."""
    try:
        return ",".join(map(label_to_text, labels))
    except ValueError:  # a slope past the int-string limit
        raise _CliError(2, f"{family.value} member too large to print") from None


def _cmd_show(args: argparse.Namespace) -> int:
    if args.target in _KNOT_NAMES:
        entry = base_diagram(_KNOT_NAMES[args.target])
        if entry.diagram is None:
            print(f"{entry.name}: no diagram recorded")
            print(f"shape: {entry.shape.value}")
            print("exterior determines knot type: "
                  f"{entry.exterior_determines.value}")
            print(f"note: {entry.notes}")
            return 0
    print(serialize(_resolve(args.target)), end="")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.frm > args.to:
        raise _CliError(2, f"empty range: {args.frm} > {args.to}")
    family = Family(args.family)
    shape = FAMILY_SHAPES[family]._value_
    write = sys.stdout.write
    for n in range(args.frm, args.to + 1):
        try:
            labels = family_labels(family, n)
        except ParameterOutOfDomain:
            continue
        write(f"{n}\t{_labels_text(family, labels)}\t{shape}\n")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.a == args.b == "-":
        raise _CliError(2, "stdin (-) can be read only once")
    d1, d2 = _resolve(args.a).diagram, _resolve(args.b).diagram
    print(decide_equivalence(d1, d2, args.homeo).value)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    doc = _read_document(args.path)
    strictness = Strictness.STRICT if args.strict else Strictness.LENIENT
    result = validate_diagram(doc.diagram, strictness)
    for w in result.warnings:
        print(f"warning: {w}")
    for v in result.violations:
        print(v)
    if result.violations:
        return 3
    print("ok")
    return 0


def _cmd_canon(args: argparse.Namespace) -> int:
    print(canonical_form(_resolve(args.target).diagram).hex())
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anndiag",
        description="Annulus-diagram calculus for genus-two handlebody-knots.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("show", help="print a diagram and its shape")
    p.add_argument("target", help="table knot, family:n, or file path")
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser("table", help="tabulate a family over a parameter range")
    p.add_argument("family", choices=[f.value for f in Family])
    p.add_argument("frm", metavar="FROM", type=integer)
    p.add_argument("to", metavar="TO", type=integer)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("compare", help="compare two diagrams")
    p.add_argument("--homeo", action="store_true",
                   help="the two exteriors are known to be homeomorphic")
    p.add_argument("a", help="table knot, family:n, or file path")
    p.add_argument("b", help="table knot, family:n, or file path")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("validate", help="check a diagram file")
    p.add_argument("--strict", action="store_true",
                   help="also enforce non-integrality of k2 slopes")
    p.add_argument("path", help="diagram file, or - for stdin")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("canon", help="print the canonical key as hex")
    p.add_argument("target", help="table knot, family:n, or file path")
    p.set_defaults(func=_cmd_canon)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.status


def entry() -> None:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (``| head``); keep the final flush quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 0
    sys.exit(status)


if __name__ == "__main__":
    entry()
