"""The workload process: set up one workload, time it, check it, report.

Started by ``run.py`` as ``python -S perfbench/workload.py ...`` from the
checkout root.  A run attempts whole passes over the workload's seeded
input set until the summed time of its operations and their twins reaches
``--seconds``, so the share of failed operations is the same at any speed.
Each pass is timed operation by operation, each operation followed by its
twin (see twin.py); outputs are checked after the pass, outside the timed
phase.  Prints one JSON line for ``run.py``.

Every timing is CPU time of the workload's one thread (``CLOCK_THREAD_
CPUTIME_ID``), not wall time.  The workload is single-threaded and does
no blocking I/O in its timed phase, so on an idle machine the two agree
(the run prints their ratio on standard error).  On a shared host they do
not: wall time also counts the time the thread waits for a CPU held by
other processes or, through steal time, by other guests.  The kernel
leaves both out of the thread's CPU time.

What CPU time still counts is the host running the thread slower while
other tenants load it.  The twins take that out: every timing is reported
relative to the same timing of the twins, in the twins' reference units.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import math
import resource
import sys
import time
from array import array
from pathlib import Path

import twin

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Tail percentile per workload: the highest of p90, p95, p99 that leaves at
# least ten samples beyond it in a slow run, that stays below the knee
# where cyclic-GC pauses set the latency of 40 us calls (doc-roundtrip),
# and that lies inside a block of operations of one kind.  README.md gives
# the sample counts.
TAIL_PERCENTILE = {"family-sweep": 90.0, "doc-roundtrip": 95.0,
                   "canon-scaling": 95.0, "cli-session": 99.0}

clock = time.thread_time
# Passes also stop after this much wall time, in case the CPU time measured
# is still short of --seconds, so that a run on a crowded host ends in time.
WALL_CAP_S = 90.0


class Tracer:
    """Spans (name, start, end, parent index) and counters, kept in memory
    in flat arrays so that a 20 s run of short calls stays small."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counts: dict[str, int] = {}
        self._parent = -1

    def call(self, name, fn, *args):
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._parent)
        self.end.append(0.0)
        self._parent = index
        self.start.append(clock())
        try:
            return fn(*args)
        finally:
            self.end[index] = clock()
            self._parent = self.parent[index]

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def spans(self):
        for i in range(len(self.start)):
            yield (self.names[self.name[i]], self.start[i], self.end[i],
                   self.parent[i])

    def write(self, path: Path) -> None:
        """Gzipped TSV: name, start and end in microseconds, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("name\tstart_us\tend_us\tparent\n")
            for name, start, end, parent in self.spans():
                fh.write(f"{name}\t{start * 1e6:.1f}\t{end * 1e6:.1f}\t{parent}\n")


class NoTracer:
    """The untraced run: calls go straight through."""

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)

    @staticmethod
    def add(name, value):
        pass


class Latencies:
    """Latency percentiles in fixed memory, so that peak RSS does not grow
    with the number of operations a run completes.

    Samples are counted in logarithmic bins 0.05% wide; each bin also keeps
    its largest sample.  ``percentile`` returns that largest sample of the
    bin holding the nearest-rank percentile: a measured latency at most
    0.05% above the exact nearest-rank value."""

    LOW = 1e-7
    STEP = math.log(1.0005)
    BINS = math.ceil(math.log(1e3 / LOW) / STEP)

    def __init__(self):
        self.count = 0
        self.counts = array("q", bytes(8 * self.BINS))
        self.largest = array("d", bytes(8 * self.BINS))

    def add(self, seconds: float) -> None:
        i = min(self.BINS - 1,
                max(0, int(math.log(max(seconds, self.LOW) / self.LOW)
                           / self.STEP)))
        self.counts[i] += 1
        if seconds > self.largest[i]:
            self.largest[i] = seconds
        self.count += 1

    def beyond(self, pct: float) -> int:
        return self.count - math.ceil(pct / 100 * self.count)

    def percentile(self, pct: float) -> float:
        rank = max(1, math.ceil(pct / 100 * self.count))
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= rank:
                return self.largest[i]
        raise ValueError("no samples")


def per_layer(tracer: Tracer, loop_spans: int, passes: int, import_ms: float,
              speed: float, names) -> dict:
    """Per-pass calls and busy time of every layer metric in ``names``.

    Spans recorded inside the timed loop are divided by the pass count;
    the direct inner-layer passes run once over one pass's inputs.  Times
    are multiplied by the run's host ``speed``, as ``setup_s`` is."""
    calls: dict[str, float] = {}
    busy: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(tracer.spans()):
        weight = 1 / passes if i < loop_spans else 1.0
        keys = [name]
        if name.startswith("diagram.canonical_form.nodes"):
            keys.append("diagram.canonical_form")
        for key in keys:
            calls[key] = calls.get(key, 0.0) + weight
            busy[key] = (busy.get(key, 0.0)
                         + weight * (end - start) * 1e3 * speed)
    out = {}
    for name, unit in names:
        if name == "setup.import_ms":
            value = import_ms * speed
        elif name.endswith(".calls"):
            value = calls.get(name[:-len(".calls")], 0.0)
        elif name.endswith(".busy_ms"):
            value = busy.get(name[:-len(".busy_ms")], 0.0)
        else:
            value = tracer.counts.get(name, 0) / passes
        out[name] = {"value": value, "unit": unit}
    return out


def measure(wl, seconds: float, tracer, make_twin) -> dict:
    """Run whole passes, each operation followed by its twin.  ``make_twin``
    is called once set-up has ended, so ``setup_s`` leaves it out."""
    latencies, twin_latencies = Latencies(), Latencies()
    attempted = failed = passes = 0
    timed = twin_timed = 0.0
    problems: list[str] = []
    setup_s = None
    while True:
        items = wl.prepare(passes)
        if setup_s is None:
            setup_s = time.process_time()
            twin_wl = make_twin()
            wall_start, cpu_start = time.perf_counter(), clock()
        twin_items = twin_wl.prepare(passes)
        outcomes = []
        for item, twin_item in zip(items, twin_items):
            start = clock()
            try:
                out = tracer.call("op", wl.run, item)
            except Exception as err:  # an outcome the check classifies
                out = err
            middle = clock()
            try:
                twin_wl.run(twin_item)
            except Exception:  # as its operation did, or did before a fix
                pass
            outcomes.append((out, middle - start, clock() - middle))
        passes += 1
        for item, (out, latency, twin_latency) in zip(items, outcomes):
            verdict = wl.check(item, out)
            attempted += 1
            timed += latency
            twin_timed += twin_latency
            if verdict == "failed":
                failed += 1
                continue
            latencies.add(latency)
            twin_latencies.add(twin_latency)
            if verdict != "ok" and len(problems) < 20:
                problems.append(verdict)
        wall = time.perf_counter() - wall_start
        if (timed + twin_timed >= seconds
                or wall >= min(4 * seconds, WALL_CAP_S)):
            break
    cpu = clock() - cpu_start
    problems.extend(wl.finish())
    return {"latencies": latencies, "twin_latencies": twin_latencies,
            "attempted": attempted, "failed": failed, "passes": passes,
            "timed": timed, "twin_timed": twin_timed,
            "cpu_per_wall": cpu / wall, "problems": problems,
            "setup_s": setup_s}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=("family-sweep", "doc-roundtrip", "canon-scaling",
                             "cli-session"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    started = clock()
    import anndiag
    import anndiag.cli  # noqa: F401  (timed too: every CLI call pays it)
    import_ms = (clock() - started) * 1e3
    if not Path(anndiag.__file__).resolve().is_relative_to(SRC):
        print(f"error: anndiag imported from {anndiag.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    name = args.workload.replace("-", "_")
    module = importlib.import_module(name)
    tracer = Tracer() if args.trace else NoTracer()
    out_dir = ROOT / "perfbench" / "out"
    wl = module.Workload(args.seed, tracer, out_dir)

    def make_twin():
        return twin.load(name).Workload(args.seed, NoTracer(),
                                        out_dir / "twin")

    result = measure(wl, args.seconds, tracer, make_twin)

    for problem in result["problems"]:
        print(f"incorrect: {problem}", file=sys.stderr)
    lat, twin_lat = result["latencies"], result["twin_latencies"]
    tail_pct = TAIL_PERCENTILE[args.workload]
    ref = twin.REFERENCE[args.workload]
    throughput = result["attempted"] / result["timed"]
    twin_throughput = result["attempted"] / result["twin_timed"]
    p50, twin_p50 = lat.percentile(50) * 1e3, twin_lat.percentile(50) * 1e3
    tail = lat.percentile(tail_pct) * 1e3
    twin_tail = twin_lat.percentile(tail_pct) * 1e3
    # The host's speed against the reference runs, from the twins alone.
    speed = twin_throughput / ref["throughput_per_s"]
    print(f"{args.workload}: {result['passes']} passes, {lat.count} timed ops, "
          f"p{tail_pct:g} with {lat.beyond(tail_pct)} beyond, "
          f"cpu/wall {result['cpu_per_wall']:.3f}, host speed {speed:.3f}; "
          f"unscaled ops/s, p50 ms, tail ms: {throughput:.6g} {p50:.6g} "
          f"{tail:.6g}; twins: {twin_throughput:.6g} {twin_p50:.6g} "
          f"{twin_tail:.6g}", file=sys.stderr)
    report = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": result["setup_s"] * speed,
        "throughput_per_s": ref["throughput_per_s"] * throughput / twin_throughput,
        "op_p50_ms": ref["op_p50_ms"] * p50 / twin_p50,
        "op_tail_ms": ref["op_tail_ms"] * tail / twin_tail,
    }
    if args.trace:
        loop_spans = len(tracer.start)
        wl.direct()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        report["per_layer"] = per_layer(tracer, loop_spans, result["passes"],
                                        import_ms, speed, names)
        tracer.write(ROOT / "perfbench" / "out"
                     / f"spans-{args.workload}-{args.seed}.tsv.gz")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
