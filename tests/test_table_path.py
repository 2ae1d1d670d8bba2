"""``table`` prints each row from ``family_labels``, ``label_to_text`` and
the family's shape in ``FAMILY_SHAPES``.  No row builds an ``Edge`` or a
``Diagram`` or runs ``shape_of``: a family's shape does not change with n.
No test here needs pytest."""

import dis
import types

from anndiag import cli
from anndiag.diagram import Diagram

PER_MEMBER = {"family_diagram", "shape_of", "Diagram", "Edge", "_member"}
LOADS = {"LOAD_GLOBAL", "LOAD_NAME", "LOAD_DEREF", "LOAD_ATTR", "LOAD_METHOD"}


def names_loaded(func):
    """Names that ``func`` loads, in its own code, in code nested in it (a
    comprehension, say) and in the functions of its module that it calls."""
    names, funcs, seen = set(), [func], {func}
    while funcs:
        f = funcs.pop()
        codes = [f.__code__]
        while codes:
            code = codes.pop()
            for ins in dis.get_instructions(code):
                if ins.opname not in LOADS:
                    continue
                names.add(ins.argval)
                value = f.__globals__.get(ins.argval)
                if (isinstance(value, types.FunctionType) and value not in seen
                        and value.__module__ == f.__module__):
                    seen.add(value)
                    funcs.append(value)
            codes.extend(c for c in code.co_consts
                         if isinstance(c, types.CodeType))
    return names


def test_table_builds_no_member():
    assert names_loaded(cli._cmd_table) & PER_MEMBER == set()


def _build(n):
    return Diagram()


def _builds_each(ns):
    return [_build(n) for n in ns]


def test_the_check_sees_member_loads():
    assert "family_diagram" in names_loaded(cli._resolve)
    assert names_loaded(_builds_each) & PER_MEMBER == {"Diagram"}
