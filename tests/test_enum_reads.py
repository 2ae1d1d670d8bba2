"""The per-call code reads enum members through module aliases bound at
import, never through the enum class.  On Python 3.10 and 3.11 a read such
as ``LabelKind.K1`` goes through ``EnumType.__getattr__`` and costs about ten
times a global read.  ``ViolationCode`` is read only when a violation is
built, so it stays.  No test here needs pytest."""

import dis
import types
from enum import Enum

from anndiag import catalog_io, cli, diagram, families, labels, rational
from anndiag.labels import LabelKind, ViolationCode

HOT = (
    families.family_labels,
    families.family_diagram,
    families.decide_equivalence,
    labels.AnnulusLabel.__init__,
    labels.validate_label,
    labels.separation_class,
    labels.label_to_text,
    labels.scan_label,
    rational.pair_form,
    diagram.shape_of,
    diagram.validate_diagram,
    catalog_io.serialize,
    cli._labels_text,
)


def enum_globals(func):
    """Names of the Enum classes, other than ViolationCode, that ``func`` or
    a code object nested in it (a comprehension, say) loads as a global."""
    found = set()
    codes = [func.__code__]
    while codes:
        code = codes.pop()
        for ins in dis.get_instructions(code):
            if ins.opname == "LOAD_GLOBAL":
                value = func.__globals__.get(ins.argval)
                if (isinstance(value, type) and issubclass(value, Enum)
                        and value is not ViolationCode):
                    found.add(ins.argval)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return found


def test_hot_functions_load_no_enum_class():
    loads = {f.__qualname__: enum_globals(f) for f in HOT}
    assert {name: found for name, found in loads.items() if found} == {}


def _reads_members(edges):
    code = ViolationCode.STICK_MUST_BE_K1
    return [e for e in edges if e.label.kind is LabelKind.K1], code


def test_the_check_sees_enum_reads():
    assert enum_globals(_reads_members) == {"LabelKind"}
    assert enum_globals(families.base_diagram) == {
        "TableKnot", "ShapeClass", "ExteriorDetermines"}
