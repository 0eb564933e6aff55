"""The four request workloads: their input pools, requests and answers.

Each workload's inputs come from a pool of requests that the generators
in gen.py build from a fixed pool seed.  A run's `--seed` shuffles the
pool into one pass, and the closed loop repeats whole passes.  The seed
sets the order and never the content: the benchmark's spread is taken
across runs with different seeds, so every seed's pass must do the same
work.  Every request has a frozen answer in reference/<workload>.json.

A request carries `.snet` text.  Executing it parses the text first, so
the parser is part of every request.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import gen

FLOAT_TOL = 1e-12
POOL_SEED = 20241017

WORKLOADS = ("probe-warm", "closed-cold", "born-oracle", "dynamics-search")
# Warm workloads keep the process cache across requests and warm it with
# one pass before timing; cold ones clear it before every request.
WARM = {"probe-warm": True, "closed-cold": False, "born-oracle": True, "dynamics-search": False}


@dataclass(frozen=True)
class Request:
    op: str
    text: str
    args: tuple

    @property
    def key(self) -> str:
        blob = json.dumps([self.op, self.text, list(self.args)], separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:20]


# -- pools ---------------------------------------------------------------------


def _probe_requests(rng: random.Random, net: gen.Net) -> list[Request]:
    """Every valid one of join, exchange, stability and angles on one open network."""
    text = net.text()
    free = net.free_ends()
    unit = [e for e in free if net.label[gen.end_edge(e)] >= 1]
    a, b = rng.sample(free, 2)
    out = [Request("join", text, (a, b))]
    if unit:
        a = rng.choice(unit)
        b = rng.choice([e for e in free if e != a])
        out.append(Request("exchange", text, (a, b)))
        reps = min(net.label[gen.end_edge(a)], 3)
        out.append(Request("stability", text, (a, b, reps, rng.randrange(1 << 16))))
    if len(unit) >= 2:
        ends = rng.sample(unit, min(len(unit), 4))
        out.append(Request("angles", text, tuple(ends)))
    return out


def probe_pool() -> list[Request]:
    rng = random.Random(POOL_SEED)
    requests = []
    for scale in (2, 4, 8, 16, 32):
        for _ in range(16):
            net = gen.grown_network(rng, max_edges=8, max_label=scale, dim_cap=10**12)
            requests += _probe_requests(rng, net)
    for n in (2, 4, 8, 16, 32, 64, 128):
        text = gen.aligned_triple(n).text()
        requests += [
            Request("angles", text, ("eA", "eB", "eC")),
            Request("exchange", text, ("eA", "eC")),
            Request("join", text, ("eA", "eB")),
            Request("stability", text, ("eA", "eB", min(n, 3), n)),
        ]
    return requests


def closed_pool() -> list[Request]:
    rng = random.Random(POOL_SEED + 1)
    nets = []
    for n in (12, 14, 16, 18, 20, 22):
        for i in range(10):
            edges = gen.random_cubic_graph(rng, n)
            labels = gen.cycle_labels(rng, n, edges, extra=i % 2)
            nets.append(gen.closed_net(edges, labels))
    for rungs in range(3, 12):
        edges = gen.circular_ladder(rungs)
        labels = gen.cycle_labels(rng, 2 * rungs, edges, extra=rungs % 2)
        nets.append(gen.closed_net(edges, labels))
        if rungs <= 8:
            ring, rung = (1 if rungs <= 4 else 1 + rungs % 3), 2
            labels = [rung if k % 3 == 2 else ring for k in range(len(edges))]
            nets.append(gen.closed_net(edges, labels))
    return [Request("eval", net.text(), ()) for net in nets]


def born_pool() -> list[Request]:
    rng = random.Random(POOL_SEED + 2)
    requests = []
    for _ in range(25):
        net = gen.grown_network(rng, max_edges=8, max_label=8, dim_cap=4000)
        requests.append(Request("born", net.text(), tuple(rng.sample(net.free_ends(), 2))))
    return requests


def dynamics_pool() -> list[Request]:
    requests = []
    for ancillas in (2, 3):
        text = gen.register(ancillas).text()
        exhaustive = (2, 3, 4) if ancillas == 2 else (1, 2, 3, 4)
        shapes = [(length, 0) for length in exhaustive] + [(length, 64) for length in (5, 6, 7, 8)]
        for length, beam in shapes:
            target = "xht"[len(requests) % 3]
            requests.append(Request("search", text, (target, length, beam)))
    return requests


def pool(workload: str) -> list[Request]:
    return {
        "probe-warm": probe_pool,
        "closed-cold": closed_pool,
        "born-oracle": born_pool,
        "dynamics-search": dynamics_pool,
    }[workload]()


# Pools whose requests fall into a few cost clusters hold 15, 25 or 75
# requests: with a pass length of 5 mod 10, the median and the p90 of whole
# passes land inside one cluster of latencies, not on the gap between two.


def pass_sequence(requests: list[Request], seed: int) -> list[Request]:
    """The pool in a seeded order."""
    order = list(requests)
    random.Random(seed).shuffle(order)
    return order


# -- execution -----------------------------------------------------------------

_GATES = {
    "x": ((0, 1), (1, 0)),
    "h": ((1 / math.sqrt(2), 1 / math.sqrt(2)), (1 / math.sqrt(2), -1 / math.sqrt(2))),
    "t": ((1, 0), (0, complex(math.cos(math.pi / 4), math.sin(math.pi / 4)))),
}


class BadInput(Exception):
    """A request's text does not parse: the benchmark's inputs are broken."""


def execute(sp, req: Request):
    """Run one request against the package namespace `sp` and return the raw
    result (NullState is a result).  Functions are looked up on their
    modules at call time, so installed trace wrappers take effect."""
    net = sp.dsl.parse_network(req.text)
    if isinstance(net, list):
        raise BadInput("; ".join(str(e) for e in net))
    if req.op == "search":
        target, length, beam = req.args
        return sp.dynamics.approximate_unitary_search(
            sp.np.array(_GATES[target], dtype=complex),
            len(net.edges) - 1,
            length,
            beam_width=beam or None,
        )
    if req.op == "eval":
        return sp.evaluator.evaluate_closed(net)
    ends = request_ends(sp, net, req)
    try:
        if req.op == "join":
            return sp.experiments.join_free_ends(net, *ends)
        if req.op == "born":
            return sp.hilbert.born_join_distribution(net, *ends)
        if req.op == "exchange":
            return sp.experiments.exchange_experiment(net, *ends)
        if req.op == "angles":
            return sp.experiments.angle_matrix(net, ends)
        if req.op == "stability":
            reps, rng_seed = req.args[2:]
            return sp.experiments.stability_measure(net, ends[0], ends[1], reps, rng_seed)
    except sp.errors.NullState as exc:
        return exc
    raise ValueError(f"unknown op {req.op!r}")


def request_ends(sp, net, req: Request) -> list:
    """The free ends a request names: `edge` (its lowest free side) or `edge:side`."""
    names = req.args[:2] if req.op == "stability" else req.args
    return [_resolve(sp, net, name) for name in names]


def _resolve(sp, net, name: str):
    eid, _, side = name.partition(":")
    if side:
        return sp.model.End(eid, int(side))
    free = [s for s in (0, 1) if net.is_free(sp.model.End(eid, s))]
    if not free:
        raise BadInput(f"edge {eid!r} has no free end")
    return sp.model.End(eid, free[0])


# -- answers -------------------------------------------------------------------


def _q(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def encode(sp, req: Request, result) -> dict:
    """A JSON form of a result: probabilities as exact p/q strings, angles
    and fidelities as floats."""
    if isinstance(result, sp.errors.NullState):
        return {"null": True}
    if req.op in ("join", "born"):
        return {"dist": {str(c): _q(p) for c, p in sorted(result.entries.items())}}
    if req.op == "exchange":
        return {"p_up": _q(result.p_up), "p_down": _q(result.p_down), "theta": result.theta}
    if req.op == "angles":
        return {"angles": result.angles.tolist()}
    if req.op == "stability":
        return {
            "angles": list(result.angles),
            "outcomes": list(result.outcomes),
            "max_drift": result.max_drift,
        }
    if req.op == "eval":
        return {"value": _q(result)}
    if req.op == "search":
        return {
            "fidelity": result.fidelity,
            "success_prob": result.success_prob,
            "best_by_length": list(result.best_by_length),
            "sequence": [[*p.pair, p.channel.value] for p in result.best_sequence.steps],
        }
    raise ValueError(f"unknown op {req.op!r}")


def matches(expected, actual) -> bool:
    """Exact equality except floats, which may differ by FLOAT_TOL.

    A search may return another sequence of the same length when two
    sequences tie on fidelity within rounding; its success probability
    belongs to that sequence and is then not compared.
    """
    if isinstance(expected, dict) and "sequence" in expected and isinstance(actual, dict):
        if expected.get("sequence") != actual.get("sequence"):
            if len(expected["sequence"]) != len(actual.get("sequence", ())):
                return False
            expected = {k: v for k, v in expected.items() if k not in ("sequence", "success_prob")}
            actual = {k: v for k, v in actual.items() if k not in ("sequence", "success_prob")}
    return _same(expected, actual)


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return (
            isinstance(a, (int, float)) and isinstance(b, (int, float))
            and not isinstance(a, bool) and not isinstance(b, bool)
            and abs(a - b) <= FLOAT_TOL
        )
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_same, a, b))
    return a == b
