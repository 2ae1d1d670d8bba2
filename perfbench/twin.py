"""Twin operations: each operation run again on a frozen copy of anndiag.

The host this benchmark is made for is shared, and its speed is not
steady: for minutes at a time the same Python code runs about 2.5 times
slower while other tenants load it, and from one 100 ms to the next it
moves by a fifth.  The thread is not descheduled then, it gets less done,
so its CPU time grows as much as its wall time.

So right after each operation the run times its twin: the same operation,
on inputs built from the same seed, by the same workload module bound to
``anndiag_ref``, a frozen copy of anndiag (``frozen/anndiag_ref``: the
sources of ``src/anndiag`` at the commit that added this benchmark,
unchanged).  An operation and its twin run the same code on the same
input at nearly the same moment, so the host's speed cancels in the ratio
of their times; no change to ``src/anndiag`` changes the twin.
``workload.py`` reports each timing as ``REFERENCE[workload][metric] *
(metric of the operations / metric of their twins)``, where the reference
is the twins' own figure in the reference runs of README.md.  A change to
the frozen copy or to ``REFERENCE`` changes every figure, so it is a change
of the benchmark.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FROZEN = HERE / "frozen"
PACKAGE = "anndiag_ref"

# The twins' median figures over the calibration runs of README.md (seeds
# 101-105, 20 s runs, the 2-vCPU VM of the reference runs).
REFERENCE = {
    "family-sweep": {"throughput_per_s": 1366.0, "op_p50_ms": 0.5302,
                     "op_tail_ms": 1.710},
    "doc-roundtrip": {"throughput_per_s": 10660.0, "op_p50_ms": 0.08590,
                      "op_tail_ms": 0.1897},
    "canon-scaling": {"throughput_per_s": 27.58, "op_p50_ms": 8.025,
                      "op_tail_ms": 118.9},
    "cli-session": {"throughput_per_s": 499.8, "op_p50_ms": 1.184,
                    "op_tail_ms": 41.98},
}


def load(module_name: str):
    """Import a workload module a second time, bound to ``anndiag_ref``."""
    if str(FROZEN) not in sys.path:
        sys.path.insert(0, str(FROZEN))
    importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    live = {k: v for k, v in sys.modules.items()
            if k == "anndiag" or k.startswith("anndiag.")}
    for key in [k for k in sys.modules if k.startswith(PACKAGE)]:
        sys.modules["anndiag" + key[len(PACKAGE):]] = sys.modules[key]
    try:
        spec = importlib.util.spec_from_file_location(
            module_name + "_twin", HERE / f"{module_name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        for key in [k for k in sys.modules
                    if k == "anndiag" or k.startswith("anndiag.")]:
            del sys.modules[key]
        sys.modules.update(live)
    return module
