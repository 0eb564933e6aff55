"""Spans and counters recorded by wrappers around the package's functions.

A wrapper replaces the binding a caller looks up, module attribute by
module attribute (the package imports functions by name, so
`spinnet.experiments.evaluate_closed` and `spinnet.evaluator.evaluate_closed`
are separate bindings of one function).  Only the traced run installs
them; `uninstall` puts every original back.

Spans live in flat arrays (name, start, end, parent, request) until the
run writes them out.  A span's self time is its duration minus the time
its direct children cover; children of one span never overlap because
the benchmark is single-threaded.
"""

from __future__ import annotations

import gzip
import time
from array import array
from pathlib import Path

# span name -> the (module, attribute) bindings it wraps
SPANS = {
    "dsl.parse": [("dsl", "parse_network")],
    "model.validate": [
        ("dsl", "validate_network"), ("model", "validate_network"),
        ("experiments", "validate_network"), ("evaluator", "validate_network"),
        ("hilbert", "validate_network"),
    ],
    "model.merge": [("experiments", "merge_free_ends")],
    "experiments.join": [("experiments", "join_free_ends")],
    "experiments.exchange": [("experiments", "exchange_experiment")],
    "experiments.angles": [("experiments", "angle_matrix")],
    "experiments.stability": [("experiments", "stability_measure")],
    "evaluator.eval": [("experiments", "evaluate_closed"), ("evaluator", "evaluate_closed")],
    "evaluator.closed_form": [
        ("evaluator", "theta_value"), ("evaluator", "tet_value"), ("experiments", "theta_value"),
    ],
    "hilbert.born": [("hilbert", "born_join_distribution")],
    # The per-channel Clebsch-Gordan tensor: a cache lookup once warm, a
    # clebsch_gordan sweep on a miss.  clebsch_gordan itself only runs on
    # misses, which a warm cache never has.
    "hilbert.cg": [("hilbert", "_cg_tensor")],
    "dynamics.search": [("dynamics", "approximate_unitary_search")],
    "dynamics.projector": [("dynamics", "pair_projector")],
}

# counter name -> bindings whose calls it counts (no span: too frequent)
COUNTERS = {
    "evaluator.recoupling": [("evaluator", "recoupling_coefficient")],
    "radical.mul": [("Radical", "__mul__"), ("Radical", "__rmul__")],
    "radical.add": [("Radical", "__add__"), ("Radical", "__radd__")],
}


class Tracer:
    def __init__(self):
        self.names: list[str] = ["request"]
        self.name_id = {"request": 0}
        self.sname = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.req = array("l")
        self.request = -1
        self.stack: list[int] = []
        self.counts = {name: 0 for name in COUNTERS}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.sname.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.req.append(self.request)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def _span_wrapper(self, name: str, fn):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)

        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, sp) -> None:
        """Wrap every binding in SPANS and COUNTERS on the namespace `sp`."""
        assert not self._saved, "already installed"
        targets = {"Radical": sp.radical.Radical}
        for table, make in ((SPANS, self._span_wrapper), (COUNTERS, self._count_wrapper)):
            for name, bindings in table.items():
                for owner_name, attr in bindings:
                    owner = targets.get(owner_name) or getattr(sp, owner_name)
                    original = getattr(owner, attr)
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, make(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis ----------------------------------------------------------------

    def summary(self, first: int, last: int) -> dict[str, dict[str, float]]:
        """Per span name over spans [first, last): calls, total time of the
        outermost spans of that name (nested same-name spans are not counted
        twice), and self time."""
        child = {}
        for i in range(first, last):
            p = self.parent[i]
            if p >= 0:
                child[p] = child.get(p, 0.0) + self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total": 0.0, "self": 0.0} for name in self.names}
        for i in range(first, last):
            name = self.names[self.sname[i]]
            dur = self.end[i] - self.start[i]
            row = out[name]
            row["calls"] += 1
            row["self"] += dur - child.get(i, 0.0)
            p = self.parent[i]
            while p >= 0 and self.sname[p] != self.sname[i]:
                p = self.parent[p]
            if p < 0:
                row["total"] += dur
        return out

    def write(self, path: Path) -> None:
        """All spans as gzipped tab-separated lines: request, span index,
        parent index, name, start and end in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("request\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                f.write(
                    f"{self.req[i]}\t{i}\t{self.parent[i]}\t{self.names[self.sname[i]]}"
                    f"\t{self.start[i]!r}\t{self.end[i]!r}\n"
                )
