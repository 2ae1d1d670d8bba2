"""family-sweep: the paper's headline use, telling twist-family members apart.

One operation is one member's row: ``distinguish`` against every other
member of its family window, then ``decide_equivalence(..., True)`` against
the family's catalog anchor (the ``e`` family has none).  The same Diagram
objects are compared on every pass, so a key cache would show here.  All
nodes are of kind ``u`` and every diagram has 1-3 nodes.

Windows: 20 in-domain members of each family at seeded offsets, 100 rows
a pass.  Sorted by cost the rows fall into blocks: 1-node ``ll1``/``ll1v``
rows, 2-node ``e`` rows, 2-node ``ll2`` rows with their anchor, 3-node
``motto`` rows.  The median lies inside the ``e`` block and the p90 tail
inside the ``motto`` block, away from block edges.
"""

from __future__ import annotations

import random

import models
from anndiag import (Family, TableKnot, base_diagram, decide_equivalence,
                     distinguish, family_diagram)
from anndiag.diagram import are_isomorphic, canonical_form, shape_of
from anndiag.labels import label_to_text
from anndiag.rational import Slope, apply_unimodular

WINDOW = {"motto": 20, "ll1": 20, "ll1v": 20, "ll2": 20, "e": 20}
OFFSET = {"motto": (-400, 350), "ll1": (-40, 30), "ll1v": (-14, 4),
          "ll2": (-400, 390), "e": (-400, 390)}


class Workload:
    def __init__(self, seed, tracer, out_dir):
        self.tracer = tracer
        rng = random.Random(seed)
        self.windows = {}
        for fam, size in WINDOW.items():
            n = rng.randint(*OFFSET[fam])
            ns = []
            while len(ns) < size:
                if models.in_domain(fam, n):
                    ns.append(n)
                n += 1
            self.windows[fam] = ns
        self.anchors = {fam: base_diagram(TableKnot(k)).diagram
                        for fam, k in models.ANCHOR.items()}
        self.rows = []
        for fam, ns in self.windows.items():
            members = [family_diagram(Family(fam), n) for n in ns]
            for i, d in enumerate(members):
                others = tuple(members[:i] + members[i + 1:])
                self.rows.append((fam, ns[i], d, others,
                                  self.anchors.get(fam)))
        self.expected = None

    def prepare(self, pass_index):
        return self.rows

    def run(self, row):
        _, _, d, others, anchor = row
        call = self.tracer.call
        verdicts = [call("families.distinguish", distinguish, d, o)
                    for o in others]
        if anchor is not None:
            verdicts.append(call("families.decide_equivalence",
                                 decide_equivalence, d, anchor, True))
        return verdicts

    def _expected_rows(self):
        expected = {}
        for fam, ns in self.windows.items():
            ms = [models.member(fam, n) for n in ns]
            for i, n in enumerate(ns):
                row = [models.verdict(ms[i], m, False)
                       for j, m in enumerate(ms) if j != i]
                if fam in models.ANCHOR:
                    row.append(models.verdict(
                        ms[i], models.knot(models.ANCHOR[fam]), True))
                expected[fam, n] = row
        return expected

    def check(self, row, out):
        if self.expected is None:
            self.expected = self._expected_rows()
        fam, n = row[0], row[1]
        if isinstance(out, Exception):
            return f"{fam}:{n} raised {out!r}"
        got = [v.value for v in out]
        if got != self.expected[fam, n]:
            return f"{fam}:{n} verdicts {got} != {self.expected[fam, n]}"
        return "ok"

    def finish(self):
        return []

    def direct(self):
        """The inner layers behind one pass, called directly."""
        call = self.tracer.call
        for fam, ns in self.windows.items():
            for n in ns:
                call("families.family_diagram", family_diagram, Family(fam), n)
                if fam == "motto":
                    call("rational.apply_unimodular", apply_unimodular,
                         Slope(2, 1), 1, 0, -n, 1)
                elif fam == "ll2":
                    call("rational.apply_unimodular", apply_unimodular,
                         Slope(4, 3), 1, 4 * n, 0, 1)
        for _, _, d, others, anchor in self.rows:
            pairs = [(d, o) for o in others]
            if anchor is not None:
                pairs.append((d, anchor))
                call("diagram.shape_of", shape_of, d)
            for a, b in pairs:
                call("diagram.are_isomorphic", are_isomorphic, a, b)
                if len(a.nodes) != len(b.nodes) or len(a.edges) != len(b.edges):
                    continue
                for x in (a, b):
                    for e in x.edges:
                        call("labels.label_to_text", label_to_text, e.label)
                    call(f"diagram.canonical_form.nodes{len(x.nodes)}",
                         canonical_form, x)
