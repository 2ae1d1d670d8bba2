"""The demos run to the end and print the bytes they printed when their
output was recorded: each is a script that calls the public API
(``distinguish``, ``decide_equivalence``, ``canonical_form``) the way a
reader of the README would, and ``golden/<demo>.stdout`` holds its output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["tour.py", "family_tables.py"])
def test_demo_runs_cleanly(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    golden = ROOT / "tests" / "golden" / f"{Path(script).stem}.stdout"
    assert proc.stdout == golden.read_bytes()
