#!/usr/bin/env python3
"""Regenerate the frozen answers in perfbench/reference/ from the current code.

    python3 perfbench/make_reference.py [workload ...]

Run once from a checkout whose answers are trusted; the benchmark then
compares every answer against these files.  Each answer is cross-checked
against a second, independent path before it is written, and generation
stops on the first disagreement:

- probe-warm: joins against the Born-rule join; exchanges, angles and the
  first stability angle against a Born-rule join on the split network.
  Only where the free ends span at most BORN_DIM_CAP dimensions, because
  the Born path contracts dense exact tensors.
- born-oracle: every Born-rule join against the combinatorial join.
- closed-cold: the strand-expansion oracle where the labels sum to at
  most 16.
- dynamics-search: no second path.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter
from fractions import Fraction

import run
import workloads as W

BORN_DIM_CAP = 4000
STRAND_CAP = 16


class OutOfReach(Exception):
    """The Born path would contract more than BORN_DIM_CAP dimensions."""


def dims(net) -> int:
    return math.prod(net.label(end) + 1 for end in net.free_ends)


def born_encoded(sp, net, end_a, end_b) -> dict:
    try:
        dist = sp.hilbert.born_join_distribution(net, end_a, end_b)
    except sp.errors.NullState:
        return {"null": True}
    return W.encode(sp, W.Request("born", "", ()), dist)


def born_exchange(sp, net, end_a, end_b):
    """p_up of the exchange by the Born rule, or None for a null state."""
    uid = net.fresh_id("u")
    split = sp.experiments.split_unit(net, end_a, 1, unit_id=uid, rest_id=net.fresh_id("r"))
    if dims(split) > BORN_DIM_CAP:
        raise OutOfReach
    got = born_encoded(sp, split, sp.model.End(uid, 1), end_b)
    if "null" in got:
        return None
    return got["dist"].get(str(net.label(end_b) + 1), "0/1")


def theta_of(sp, p_up: str) -> float:
    num, den = p_up.split("/")
    return sp.experiments.angle_from_probability(Fraction(int(num), int(den)))


def cross_check_probe(sp, req: W.Request, net, ends, answer: dict) -> str:
    """'born' when the Born path agrees, 'none' when it is out of reach."""
    try:
        if req.op == "join":
            if dims(net) > BORN_DIM_CAP:
                return "none"
            agree = born_encoded(sp, net, *ends) == answer
        elif req.op == "exchange":
            p_up = born_exchange(sp, net, *ends)
            agree = ("null" in answer) if p_up is None else p_up == answer.get("p_up")
        elif req.op == "stability":
            p_up = born_exchange(sp, net, ends[0], ends[1])
            agree = ("null" in answer) if p_up is None else (
                abs(theta_of(sp, p_up) - answer["angles"][0]) <= W.FLOAT_TOL)
        elif req.op == "angles":
            agree = True
            for i in range(len(ends)):
                for j in range(i + 1, len(ends)):
                    p_up = born_exchange(sp, net, ends[i], ends[j])
                    if p_up is None:
                        agree = agree and "null" in answer
                    else:
                        agree = agree and "null" not in answer and (
                            abs(theta_of(sp, p_up) - answer["angles"][i][j]) <= W.FLOAT_TOL)
        else:
            raise ValueError(req.op)
    except OutOfReach:
        return "none"
    if not agree:
        raise AssertionError(f"Born path disagrees on {req.op} {req.key}: {answer}")
    return "born"


def make(sp, workload: str) -> dict:
    entries, checks = {}, Counter()
    for req in W.pool(workload):
        if req.key in entries:
            continue
        sp.evaluator.default_cache().clear()
        answer = W.encode(sp, req, W.execute(sp, req))
        net = sp.dsl.parse_network(req.text)
        ends = W.request_ends(sp, net, req) if workload in ("probe-warm", "born-oracle") else []
        if workload == "probe-warm":
            checks[cross_check_probe(sp, req, net, ends, answer)] += 1
        elif workload == "born-oracle":
            try:
                dist = sp.experiments.join_free_ends(net, *ends)
                combinatorial = W.encode(sp, W.Request("join", "", ()), dist)
            except sp.errors.NullState:
                combinatorial = {"null": True}
            if combinatorial != answer:
                raise AssertionError(f"join disagrees with Born on {req.key}")
            checks["join"] += 1
        elif workload == "closed-cold" and sum(e.label for e in net.edges) <= STRAND_CAP:
            oracle = sp.evaluator.strand_expansion_oracle(net, STRAND_CAP)
            if W.encode(sp, req, oracle) != answer:
                raise AssertionError(f"strand oracle disagrees on {req.key}")
            checks["strand"] += 1
        else:
            checks["none"] += 1
        entries[req.key] = answer
    return {
        "workload": workload,
        "pool_seed": W.POOL_SEED,
        "cross_checks": dict(sorted(checks.items())),
        "entries": entries,
    }


def main(argv: list[str]) -> int:
    sp = run.import_package()
    for workload in argv or W.WORKLOADS:
        t = time.perf_counter()
        ref = make(sp, workload)
        path = run.HERE / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as f:
            json.dump(ref, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"{workload}: {len(ref['entries'])} answers, "
              f"cross-checks {ref['cross_checks']} ({time.perf_counter() - t:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
