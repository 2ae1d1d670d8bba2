"""Tests of the twin loader.

    python3 -m pytest perfbench/test_twin.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import twin  # noqa: E402


def test_twin_module_is_bound_to_the_frozen_copy():
    import anndiag
    import family_sweep

    module = twin.load("family_sweep")
    assert module.family_diagram.__module__ == "anndiag_ref.families"
    assert family_sweep.family_diagram.__module__ == "anndiag.families"
    assert sys.modules["anndiag"] is anndiag
    assert not any(k.startswith("anndiag.") and v.__name__.startswith("anndiag_ref")
                   for k, v in sys.modules.items())


def test_every_workload_has_a_reference():
    for figures in twin.REFERENCE.values():
        assert set(figures) == {"throughput_per_s", "op_p50_ms", "op_tail_ms"}
        assert all(value > 0 for value in figures.values())
