"""cli-session: the ``anndiag`` command, called in-process.

One operation is one ``anndiag.cli.main(argv)`` call with standard output
and error captured.  A pass is 50 calls: 49 one-shot commands (``show``,
``canon``, ``compare [--homeo]``, ``validate [--strict]`` and 4-8 row
``table`` calls on table knots, ``family:n`` references and files written
during set-up) and one ``table motto`` call over 2500 rows.  The one-shot
calls make the median; the ``table`` call is 2% of the calls, so the p99
tail lies in the middle of the ``table`` calls.

Expected outputs come from the models: documents from the v1 writer,
verdicts from the family model, violations from the validation rules,
table rows from the slope formulas.  ``canon`` is checked by property:
targets with equal model signatures print equal keys, others differ.
One call is kept failing: ``validate`` on a file that is not UTF-8, which
should exit 3 and today raises ``UnicodeDecodeError``.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import models
from anndiag import Family, family_diagram, parse, serialize
from anndiag.cli import main
from anndiag.diagram import shape_of
from anndiag.labels import label_to_text
from anndiag.rational import Slope, apply_unimodular

TABLE_ROWS = 2500
NON_UTF8 = b"annulusdiagram v1\nnodes: u \xff u\nedge: 0 1 h2\n"


def _fraction(rng):
    return Fraction(rng.randint(1, 40) * rng.choice((1, -1)),
                    rng.randint(2, 40))


def _validation_files(rng):
    """Model diagrams, each showing one validation outcome."""
    r = _fraction(rng)
    while r.denominator == 1:
        r = _fraction(rng)
    p = rng.randint(2, 30)
    return {
        "theta.ad": (("s", "h"), ((0, 1, ("h2",)), (0, 1, ("h2",)),
                                  (0, 0, ("l", (r, 1 / r))))),
        "stick-int.ad": (("u", "u"), ((0, 1, ("k1", Fraction(p))),)),
        "k2-int.ad": (("u", "s", "h"), ((0, 1, ("h2",)),
                                        (1, 2, ("k2", Fraction(p))))),
        "em-l.ad": (("u", "u"), ((0, 1, ("em",)),
                                 (1, 1, ("l", (r, Fraction(r.numerator
                                                           * r.denominator)))))),
        "l-bad.ad": (("h",), ((0, 0, ("l", (r, r + 1))),)),
        "l-unrecorded.ad": (("u", "u"), ((0, 0, ("l", None)), (0, 1, ("h1",)))),
        "k2-inf.ad": (("u", "u", "u"), ((0, 1, ("h2",)),
                                        (1, 2, ("k2", models.INF)))),
    }


class Workload:
    def __init__(self, seed, tracer, out_dir):
        self.tracer = tracer
        rng = random.Random(seed)
        work = out_dir / f"cli-session-{seed}"
        work.mkdir(parents=True, exist_ok=True)
        self.models = {k: models.knot(k) for k in ("5_1", "5_2", "6_1")}
        self.texts = {}

        def write(name, d):
            path = str(work / name)
            text = models.document(d, name=name)
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
            self.models[path] = d
            self.texts[path] = text
            return path

        def family_ref():
            fam = rng.choice(models.FAMILIES)
            n = rng.randint(-30, 30)
            while not models.in_domain(fam, n):
                n += 1
            self.models[f"{fam}:{n}"] = models.member(fam, n)
            return f"{fam}:{n}"

        copies = []
        for i in range(4):
            ref = family_ref()
            copies.append((ref, write(f"copy{i}.ad",
                                      models.relabel(rng, *self.models[ref]))))
        copies.append(("6_1", write("copy-6_1.ad",
                                    models.relabel(rng, *self.models["6_1"]))))
        checked = {name: write(name, d)
                   for name, d in _validation_files(rng).items()}
        broken = str(work / "broken.ad")
        with open(broken, "w", encoding="ascii") as fh:
            fh.write("annulusdiagram v1\nnodes: u u\nedge: 0 1 k1(4/)\n")
        non_utf8 = str(work / "non-utf8.ad")
        with open(non_utf8, "wb") as fh:
            fh.write(NON_UTF8)

        knots = ("5_1", "5_2", "6_1")
        calls = [["show", k] for k in knots] + [["show", "4_1"]]
        calls += [["show", family_ref()] for _ in range(3)]
        calls += [["show", copies[i][1]] for i in (0, 4)]
        calls += [["canon", k] for k in knots] + [["canon", family_ref()]]
        calls += [["canon", ref] for ref, _ in copies[:2]]
        calls += [["canon", path] for _, path in copies]
        for _ in range(2):
            fam = rng.choice(models.FAMILIES)
            n = rng.randint(1, 20)
            m = -n - 1 if fam in ("ll1v", "e") else n + rng.randint(1, 9)
            self.models[f"{fam}:{n}"] = models.member(fam, n)
            self.models[f"{fam}:{m}"] = models.member(fam, m)
            calls.append(["compare", f"{fam}:{n}", f"{fam}:{m}"])
        calls.append(["compare", family_ref(), family_ref()])
        for fam in ("motto", "ll2", "ll1"):
            n = rng.choice((0, rng.randint(1, 9)))
            n = n or (1 if fam == "ll1" else 0)
            self.models[f"{fam}:{n}"] = models.member(fam, n)
            calls.append(["compare", "--homeo", f"{fam}:{n}",
                          models.ANCHOR[fam]])
        calls += [["compare", "--homeo", "6_1", "motto:0"],
                  ["compare", copies[4][1], "6_1"],
                  ["compare", "--homeo", copies[0][1], copies[0][0]],
                  ["compare", copies[1][0], copies[2][1]],
                  ["compare", "ll1:0", "5_1"],
                  ["compare", "4_1", "6_1"]]
        self.models["motto:0"] = models.member("motto", 0)
        for i, path in enumerate(checked.values()):
            calls.append(["validate", path])
            if i % 2 == 0:
                calls.append(["validate", "--strict", path])
        calls += [["validate", broken], ["validate", non_utf8]]
        for fam, lo in (("ll1", -3), ("ll1v", -4), ("ll2", -2), ("e", -1)):
            calls.append(["table", fam, str(lo), str(lo + 3 + rng.randint(0, 4))])
        start = rng.randint(-5000, 5000)
        calls.append(["table", "motto", str(start), str(start + TABLE_ROWS - 1)])
        self.non_utf8 = non_utf8
        self.calls = [tuple(c) for c in calls]
        self.expected = {}
        self.keys = {}

    def prepare(self, pass_index):
        return self.calls

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.tracer.call(f"cli.main.{argv[0]}", main, list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    # Expected outputs

    def _expect(self, argv):
        """(exit status, stdout) expected for a call; stdout None where a
        check of its own applies."""
        cmd, args = argv[0], [a for a in argv[1:] if not a.startswith("--")]
        if cmd == "show":
            target = args[0]
            if target == "4_1":
                return 0, None
            d = self.models[target]
            if target in self.texts:
                return 0, self.texts[target]
            if target in models.EXTERIOR_DETERMINES:
                note = (f"shape={models.shape(d)}; exterior determines knot "
                        f"type: {models.EXTERIOR_DETERMINES[target]}")
            else:
                note = f"shape={models.shape(d)}"
            return 0, models.document(d, name=target, note=note)
        if cmd == "compare":
            if "4_1" in args or "ll1:0" in args:
                return 2, ""
            a, b = (self.models[t] for t in args)
            return 0, models.verdict(a, b, "--homeo" in argv) + "\n"
        if cmd == "validate":
            if args[0] not in self.models:  # unreadable: exit 3 on line 3
                return 3, None
            strict = "--strict" in argv
            violations, warnings = models.diagram_violations(
                self.models[args[0]], strict)
            return (3 if violations else 0), (warnings, violations)
        if cmd == "table":
            fam, lo, hi = args[0], int(args[1]), int(args[2])
            return 0, "".join(models.table_row(fam, n) + "\n"
                              for n in range(lo, hi + 1)
                              if models.in_domain(fam, n))
        return 0, None  # canon: checked across calls in finish()

    def check(self, argv, out):
        kept = argv[-1] == self.non_utf8
        if isinstance(out, Exception):
            return "failed" if kept else f"{argv}: raised {out!r}"
        if argv not in self.expected:
            self.expected[argv] = self._expect(argv)
        code, stdout, stderr = out
        want_code, want = self.expected[argv]
        if code != want_code:
            return "failed" if kept else f"{argv}: exit {code}, want {want_code}"
        cmd = argv[0]
        if cmd == "table":
            self.tracer.add("cli.table.rows", stdout.count("\n"))
        if cmd == "canon":
            key = stdout.strip()
            if not stdout.endswith("\n") or not bytes.fromhex(key).isascii():
                return f"{argv}: malformed key {stdout!r}"
            self.keys.setdefault(argv[1], set()).add(key)
        elif cmd == "show" and want is None:
            lines = stdout.split("\n")
            if lines[:3] != ["4_1: no diagram recorded", "shape: theta",
                             "exterior determines knot type: yes"] \
                    or not lines[3].startswith("note: "):
                return f"{argv}: printed {stdout!r}"
        elif cmd == "validate" and want is None:
            if "line 3, column" not in stderr:
                return f"{argv}: error not on line 3: {stderr!r}"
        elif cmd == "validate":
            warnings, violations = [], []
            for line in stdout.splitlines():
                if line == "ok":
                    continue
                into = warnings if line.startswith("warning: ") else violations
                where, code_name = line.removeprefix("warning: ").split(": ")[:2]
                into.append((where, code_name))
            ok_line = stdout.endswith("ok\n")
            if (warnings, violations) != want or ok_line == bool(want[1]):
                return f"{argv}: printed {stdout!r}"
        elif stdout != want:
            return f"{argv}: printed {stdout[:200]!r}, want {want[:200]!r}"
        return "ok"

    def finish(self):
        """``canon``: one key per target, equal exactly for equal model
        signatures."""
        problems = []
        by_signature = {}
        for target, keys in self.keys.items():
            if len(keys) != 1:
                problems.append(f"canon {target}: keys vary between calls")
                continue
            sig = models.signature(self.models[target])
            by_signature.setdefault(sig, set()).update(keys)
        for sig, keys in by_signature.items():
            if len(keys) != 1:
                problems.append(f"canon: isomorphic targets print {len(keys)} keys")
        all_keys = [k for keys in by_signature.values() for k in keys]
        if len(all_keys) != len(set(all_keys)):
            problems.append("canon: different targets print one key")
        return problems

    def direct(self):
        """The layers behind one pass's ``table`` and ``show`` calls."""
        call = self.tracer.call
        matrix = {"motto": (Slope(2, 1), 1, 0, -1, 1),
                  "ll2": (Slope(4, 3), 1, 4, 0, 1)}
        for argv in self.calls:
            if argv[0] == "table":
                fam = argv[1]
                for n in range(int(argv[2]), int(argv[3]) + 1):
                    if not models.in_domain(fam, n):
                        continue
                    d = call("families.family_diagram", family_diagram,
                             Family(fam), n)
                    if fam in matrix:
                        base, a, b, c, e = matrix[fam]
                        call("rational.apply_unimodular", apply_unimodular,
                             base, a, b * n, c * n, e)
                    for edge in d.edges:
                        call("labels.label_to_text", label_to_text, edge.label)
                    call("diagram.shape_of", shape_of, d)
            elif argv[0] == "show" and argv[1] != "4_1":
                doc = parse(self._expect(argv)[1])
                call("catalog_io.serialize", serialize, doc)
