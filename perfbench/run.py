#!/usr/bin/env python3
"""Closed-loop benchmark of the spinnet package, one workload per run.

    python3 perfbench/run.py --workload probe-warm --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory and nowhere else.  One client sends one request at a
time, the next only after the previous returns, in a single thread.
Requests run in whole passes over the seed's sequence (see workloads.py)
until --seconds have gone by, and every answer is checked against the
frozen reference in perfbench/reference/ as it arrives.

--trace 0 prints the end-to-end metrics, with times scaled to a reference
machine speed (see KERNEL_REF_S).  --trace 1 is the per-layer run:
it alternates untraced passes with passes under trace wrappers, reports
per-pass layer times (median over traced passes) and counts (first
traced pass, so they repeat exactly for a seed), and writes every span to
.bench_out/.  The last stdout line is one JSON object; lines before it
name each metric with its unit for people.  Any wrong answer, raised
error or failed self-check makes the exit status non-zero.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import spans
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3  # this process plus two fresh child processes
# The machine's speed drifts by +-15% over seconds on shared hosts, far more
# than the changes the benchmark must resolve.  So times are scaled to a
# reference speed: a fixed pure-Python kernel is timed every CALIBRATE_EVERY_S
# between requests, and each latency is multiplied by KERNEL_REF_S over the
# mean of the kernel timings taken just before and just after it.
KERNEL_REF_S = 0.0095  # kernel time at the reference speed
CALIBRATE_EVERY_S = 0.5
TAIL_LADDER = (50, 90, 99, 99.9)
TAIL_BEYOND = 10  # samples a reported tail percentile must leave above it


class SelfCheckFailed(Exception):
    pass


def kernel_seconds() -> float:
    """How long a fixed piece of interpreter work (integer arithmetic and
    dict updates, like the package's own hot loops) takes right now: the
    faster of two back-to-back timings, so caches the last request left
    cold do not count."""
    best = float("inf")
    for _ in range(2):
        t = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(40_000):
            k = i & 63
            table[k] = table.get(k, 0) + i * i % 7
        best = min(best, time.perf_counter() - t)
    return best


class Speedometer:
    """Kernel timings taken between requests, to scale latencies to the
    reference speed."""

    def __init__(self):
        self.readings = [kernel_seconds()]
        self.last = time.perf_counter()
        self.before: list[int] = []  # per request, the index of the reading before it

    def tick(self) -> None:
        """Call before each request."""
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.readings.append(kernel_seconds())
            self.last = time.perf_counter()
        self.before.append(len(self.readings) - 1)

    def scaled(self, latencies: list[float]) -> list[float]:
        readings = self.readings + [kernel_seconds()]
        return [
            lat * 2 * KERNEL_REF_S / (readings[k] + readings[k + 1])
            for lat, k in zip(latencies, self.before)
        ]


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("SPINNET_CACHE_SIZE", None)  # the cache is unbounded here
    import numpy as np

    import spinnet
    from spinnet import dsl, dynamics, errors, evaluator, experiments, hilbert, model, radical

    if Path(spinnet.__file__).resolve().parent != ROOT / "src" / "spinnet":
        raise SelfCheckFailed(f"imported spinnet from {spinnet.__file__}, not this checkout")
    return types.SimpleNamespace(
        np=np, dsl=dsl, dynamics=dynamics, errors=errors, evaluator=evaluator,
        experiments=experiments, hilbert=hilbert, model=model, radical=radical,
    )


def load_reference(workload: str) -> dict:
    with open(HERE / "reference" / f"{workload}.json") as f:
        return json.load(f)


def build_inputs(workload: str, seed: int, reference: dict):
    """The workload's pool and the seed's pass over it."""
    requests = W.pool(workload)
    if [r.text for r in requests] != [r.text for r in W.pool(workload)]:
        raise SelfCheckFailed("generating the pool twice gave different .snet text")
    stale = [r.key for r in requests if r.key not in reference["entries"]]
    if stale:
        raise SelfCheckFailed(f"{len(stale)} generated requests have no reference answer")
    sequence = W.pass_sequence(requests, seed)
    if [r.key for r in sequence] != [r.key for r in W.pass_sequence(requests, seed)]:
        raise SelfCheckFailed("one seed gave two different request sequences")
    return requests, sequence


def setup(workload: str, seed: int):
    """Import, generate the inputs, warm up.  Returns (sp, sequence,
    reference, seconds), the seconds scaled to the reference speed."""
    kernel_before = kernel_seconds()
    t0 = time.perf_counter()
    sp = import_package()
    reference = load_reference(workload)
    requests, sequence = build_inputs(workload, seed, reference)
    # A warm workload's cache is filled by one pass; a cold one only needs
    # lazy initialisation done, by a request that is the same for every seed.
    warmup = sequence if W.WARM[workload] else requests[:1]
    for req in warmup:
        if not W.WARM[workload]:
            sp.evaluator.default_cache().clear()
        W.execute(sp, req)
    seconds = time.perf_counter() - t0
    seconds *= 2 * KERNEL_REF_S / (kernel_before + kernel_seconds())
    # Keep the reference and the pool out of the cyclic collector's sweeps,
    # so their size does not tax the requests' garbage collections.
    gc.collect()
    gc.freeze()
    return sp, sequence, reference, seconds


def setup_seconds_in_child(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


class Loop:
    """The closed loop: one request at a time, answers checked between requests."""

    def __init__(self, sp, workload: str, reference: dict, speed: Speedometer | None = None):
        self.sp = sp
        self.speed = speed
        self.warm = W.WARM[workload]
        self.expected = reference["entries"]
        self.cache = sp.evaluator.default_cache()
        self.latencies: list[float] = []
        self.failed = 0
        self.failures: list[str] = []
        self.cache_hits = 0
        self.cache_misses = 0

    def run_pass(self, sequence, tracer: spans.Tracer | None = None) -> float:
        """Run one pass; returns its busy time (sum of request latencies)."""
        busy = 0.0
        stats = self.cache.stats
        hits0, misses0 = stats["hits"], stats["misses"]
        for idx, req in enumerate(sequence):
            if not self.warm:
                stats = self.cache.stats
                self.cache_hits += stats["hits"] - hits0
                self.cache_misses += stats["misses"] - misses0
                self.cache.clear()
                hits0 = misses0 = 0
            if self.speed is not None:
                self.speed.tick()
            if tracer is not None:
                tracer.request = idx
                span = tracer.open(0)
            t = time.perf_counter()
            try:
                result = W.execute(self.sp, req)
            except Exception as exc:  # noqa: BLE001 - every raise is a failed request
                result = exc
            dt = time.perf_counter() - t
            if tracer is not None:
                tracer.close(span)
            busy += dt
            self.latencies.append(dt)
            self.check(req, result)
        stats = self.cache.stats
        self.cache_hits += stats["hits"] - hits0
        self.cache_misses += stats["misses"] - misses0
        return busy

    def check(self, req: W.Request, result) -> None:
        if isinstance(result, Exception) and not isinstance(result, self.sp.errors.NullState):
            ok, got = False, f"raised {type(result).__name__}: {result}"
        else:
            got = W.encode(self.sp, req, result)
            ok = W.matches(self.expected[req.key], got)
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{req.op} {req.key}: got {str(got)[:200]}")


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least
    TAIL_BEYOND samples above it."""
    n = len(latencies)
    pct = max((p for p in TAIL_LADDER if n * (1 - p / 100) >= TAIL_BEYOND), default=TAIL_LADDER[0])
    ordered = sorted(latencies)
    return pct, ordered[min(n - 1, int(n * pct / 100))]


def run_timed(workload: str, seed: int, seconds: float) -> tuple[dict, Loop]:
    samples = [setup_seconds_in_child(workload, seed) for _ in range(SETUP_SAMPLES - 1)]
    sp, sequence, reference, own = setup(workload, seed)
    samples.append(own)
    speed = Speedometer()
    loop = Loop(sp, workload, reference, speed)
    deadline = time.perf_counter() + seconds
    while True:
        loop.run_pass(sequence)
        if time.perf_counter() >= deadline:
            break
    if W.WARM[workload] and loop.cache_hits + loop.cache_misses == 0:
        raise SelfCheckFailed("warm workload reported no cache traffic")
    latencies = speed.scaled(loop.latencies)
    n = len(latencies)
    pct, tail_value = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "throughput_rps": (n / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw_tail = tail(loop.latencies)[1]
    print(f"# {workload} seed={seed}: {n} requests in {n // len(sequence)} passes of "
          f"{len(sequence)}, closed loop, one client")
    print(f"#   latency_tail_ms is p{pct:g} of {n} samples")
    print(f"#   times scaled to the reference speed; the kernel ran "
          f"{statistics.median(speed.readings):.5f} s (median of {len(speed.readings)}) "
          f"against {KERNEL_REF_S} s")
    print(f"#   unscaled: throughput_rps {n / sum(loop.latencies):.4f} latency_p50_ms "
          f"{statistics.median(loop.latencies) * 1e3:.4f} latency_tail_ms {raw_tail * 1e3:.4f}")
    print(f"#   cache hits {loop.cache_hits} misses {loop.cache_misses}; setup samples {samples}")
    return metrics, loop


def search_nodes(req: W.Request, ancillas: int) -> int:
    """Nodes approximate_unitary_search visits for a request, as its node
    budget counts them: the root plus one per extension tried."""
    _target, length, beam = req.args
    n = 1 + ancillas
    ops = n * (n - 1)  # qubit pairs times two channels
    nodes, frontier = 1, 1
    for level in range(length):
        grown = frontier * (ops if level == 0 else ops - 1)
        nodes += grown
        frontier = min(beam, grown) if beam else grown
    return nodes


def run_traced(workload: str, seed: int, seconds: float) -> tuple[dict, Loop]:
    sp, sequence, reference, _ = setup(workload, seed)
    loop = Loop(sp, workload, reference)
    tracer = spans.Tracer()
    untraced, traced, summaries = [], [], []
    counts = cache = None
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(loop.run_pass(sequence))
        first = len(tracer.start)
        for name in tracer.counts:
            tracer.counts[name] = 0
        hits0, misses0 = loop.cache_hits, loop.cache_misses
        tracer.install(sp)
        try:
            traced.append(loop.run_pass(sequence, tracer))
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary(first, len(tracer.start)))
        if counts is None:
            counts = dict(tracer.counts)
            cache = (loop.cache_hits - hits0, loop.cache_misses - misses0,
                     len(sp.evaluator.default_cache()))
    out_path = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.tsv.gz"
    tracer.write(out_path)

    def med(name: str, field: str) -> float:
        return statistics.median(s.get(name, {}).get(field, 0.0) for s in summaries)

    def calls(name: str) -> int:
        return summaries[0].get(name, {}).get("calls", 0)

    experiments_self = statistics.median(
        sum(row["self"] for name, row in s.items() if name.startswith("experiments."))
        for s in summaries
    )
    hilbert_self = statistics.median(
        sum(row["self"] for name, row in s.items() if name.startswith("hilbert."))
        for s in summaries
    )
    hits, misses, entries = cache
    ancillas = {r.text: len(r.text.splitlines()) - 1 for r in sequence if r.op == "search"}
    nodes = sum(search_nodes(r, ancillas[r.text]) for r in sequence if r.op == "search")
    search_s = med("dynamics.search", "total")
    metrics = {
        "dsl.parse_s": (med("dsl.parse", "total"), "s"),
        "dsl.parse_calls": (calls("dsl.parse"), "count"),
        "model.validate_s": (med("model.validate", "total"), "s"),
        "model.validate_calls": (calls("model.validate"), "count"),
        "model.merge_s": (med("model.merge", "total"), "s"),
        "experiments.self_s": (experiments_self, "s"),
        "evaluator.eval_s": (med("evaluator.eval", "total"), "s"),
        "evaluator.eval_calls": (calls("evaluator.eval"), "count"),
        "evaluator.recoupling_branches": (counts["evaluator.recoupling"], "count"),
        "evaluator.closed_form_s": (med("evaluator.closed_form", "total"), "s"),
        "evaluator.closed_form_calls": (calls("evaluator.closed_form"), "count"),
        "evaluator.cache_hits": (hits, "count"),
        "evaluator.cache_misses": (misses, "count"),
        "evaluator.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "evaluator.cache_entries": (entries, "count"),
        "hilbert.born_s": (med("hilbert.born", "total"), "s"),
        "hilbert.born_calls": (calls("hilbert.born"), "count"),
        "hilbert.cg_s": (med("hilbert.cg", "total"), "s"),
        "hilbert.cg_calls": (calls("hilbert.cg"), "count"),
        "hilbert.contract_self_s": (hilbert_self, "s"),
        "radical.mul_ops": (counts["radical.mul"], "count"),
        "radical.add_ops": (counts["radical.add"], "count"),
        "dynamics.search_s": (search_s, "s"),
        "dynamics.projector_s": (med("dynamics.projector", "total"), "s"),
        "dynamics.nodes": (nodes, "count"),
        "dynamics.nodes_per_s": (nodes / search_s if search_s else 0.0, "1/s"),
        "trace.overhead_frac": (statistics.median(traced) / statistics.median(untraced) - 1, "frac"),
    }
    print(f"# {workload} seed={seed} traced: {len(traced)} traced and {len(untraced)} untraced "
          f"passes of {len(sequence)}; layer times are per pass, counts from the first "
          f"traced pass; spans in {out_path.relative_to(ROOT)}")
    if W.WARM[workload] and hits + misses == 0:
        raise SelfCheckFailed("warm workload reported no cache traffic")
    return metrics, loop


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the seconds it took (used for setup_s samples)")
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            print(setup(args.workload, args.seed)[3])
            return 0
        run = run_traced if args.trace else run_timed
        metrics, loop = run(args.workload, args.seed, args.seconds)
    except (SelfCheckFailed, ImportError, OSError, subprocess.SubprocessError, W.BadInput) as exc:
        print(f"benchmark cannot run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    n = len(loop.latencies)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    # Not in BENCHMARK.json, where a metric must never read 0; the JSON
    # result carries it as failed and attempted.
    print(f"failed_frac {loop.failed / n!r} frac ({loop.failed} of {n} requests)")
    for line in loop.failures:
        print(f"# wrong: {line}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": n,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if loop.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
