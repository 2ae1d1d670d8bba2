"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload runs in a fresh
interpreter (``python -S``, so that site hooks of the environment are not
timed), which lets ``setup_s`` count everything from interpreter start to
the first timed operation: the CPU time of that process up to then.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("family-sweep", "doc-roundtrip", "canon-scaling", "cli-session")
TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "anndiag" / "__init__.py").is_file():
        print(f"error: no anndiag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cmd = [sys.executable, "-S", str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} ran past {TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"error: workload process exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    child = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        metrics = child["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": child["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
            "throughput_per_s": {"value": child["throughput_per_s"],
                                 "unit": "1/s"},
            "op_p50_ms": {"value": child["op_p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": child["op_tail_ms"], "unit": "ms"},
        }
    print(json.dumps({"correct": child["correct"],
                      "attempted": child["attempted"],
                      "failed": child["failed"],
                      "metrics": metrics}))
    return 0 if child["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
