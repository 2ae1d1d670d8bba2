"""Arithmetic in ``src/anndiag`` is exact: no true division, no float or
complex literal and no call of ``float``.  No test here needs pytest."""

import ast
from pathlib import Path

import anndiag

SRC = Path(anndiag.__file__).parent


def inexact(source):
    """(line, form) of each true division, float or complex literal and
    ``float(`` call in ``source``, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.Div)):
            found.append((node.lineno, "/"))
        elif (isinstance(node, ast.Constant)
              and type(node.value) in (float, complex)):
            found.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float("))
    return sorted(found)


def test_src_is_exact():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 8
    found = {p.name: inexact(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: forms for name, forms in found.items() if forms} == {}


def test_the_scan_sees_each_form():
    source = "a = 1 / 2\nb = 0.5 + 1j\nc = float('1')\nd /= 3\ne = 7 // 2\n"
    assert inexact(source) == [(1, "/"), (2, "0.5"), (2, "1j"), (3, "float("),
                               (4, "/")]
