"""Command-line front end for spin-network experiments.

Subcommands wrap the library one-to-one: eval, join, born, exchange,
angles, geometry, stability, dynamics.  Networks are read from `.snet`
files (or stdin as `-`); results print as human-readable lines or as
json-lines (`--format jsonl`, one record per line, keys sorted,
byte-deterministic for a fixed seed).  Exact mode prints probabilities
as `p/q`; `--numeric float` switches to decimals.  Exit codes: 0 ok, 1
I/O, 2 usage or parse errors, 3 domain violations (invalid or unsuitable
network, or a request over its size bound).  `--stats` also writes the
process's work counters (`evaluator.counters()` and the process cache's
`stats`) to stderr as one JSON line, and leaves stdout as it is.

Free ends are named by edge id, with an optional `:side` suffix (`e1:0`)
when both sides of the edge are free.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .dsl import parse_network
from .dynamics import MAX_QUBITS, approximate_unitary_search
from .errors import OutOfRange, SpinNetError
from .evaluator import counters, default_cache, evaluate_closed
from .experiments import (
    angle_matrix,
    exchange_experiment,
    geometry_consistency,
    join_free_ends,
    stability_measure,
)
from .hilbert import StateVector, born_join_distribution
from .model import End, SpinNetwork

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

_GATES = {
    "identity": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "t": np.array([[1, 0], [0, complex(math.cos(math.pi / 4), math.sin(math.pi / 4))]]),
}


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _rational(q: Fraction, args):
    if args.numeric == "exact":
        # Decimal prints an int of any length; str(int) refuses past the
        # interpreter's int-to-str digit limit (4,300 by default).
        return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"
    return float(q)


def _load_network(path: str) -> SpinNetwork:
    # A file and stdin are both read as bytes and decoded here, so neither
    # depends on the locale, and both get a text-mode file's universal
    # newlines.
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as f:
                data = f.read()
    except OSError as exc:
        raise _Failure(EXIT_IO, str(exc))
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _Failure(EXIT_USAGE, f"{path}: not valid UTF-8 at byte {exc.start}")
    result = parse_network(text.replace("\r\n", "\n").replace("\r", "\n"))
    if isinstance(result, SpinNetwork):
        return result
    listing = "\n".join(f"{path}:{e}" for e in result)
    raise _Failure(EXIT_USAGE, listing)


def _resolve_end(net: SpinNetwork, text: str) -> End:
    # an edge id may itself hold ':', so the whole text is tried first
    edge_ids = {e.id for e in net.edges}
    if text not in edge_ids:
        eid, _, side_text = text.rpartition(":")
        if eid not in edge_ids or side_text not in ("0", "1"):
            raise _Failure(EXIT_USAGE, f"unknown end {text!r}")
        return End(eid, int(side_text))
    free = [side for side in (0, 1) if net.is_free(End(text, side))]
    if not free:
        raise _Failure(EXIT_USAGE, f"edge {text!r} has no free end")
    return End(text, free[0])


def _end_name(end: End) -> str:
    return f"{end.edge}:{end.side}"


def _emit(args, record: dict, human: str) -> None:
    if args.format == "jsonl":
        print(json.dumps(record, sort_keys=True))
    else:
        print(human)


# -- subcommands -----------------------------------------------------------


def _cmd_eval(args) -> int:
    shown = _rational(evaluate_closed(_load_network(args.file)), args)
    _emit(args, {"value": shown}, str(shown))
    return EXIT_OK


def _pair(args) -> tuple[SpinNetwork, End, End]:
    net = _load_network(args.file)
    return net, _resolve_end(net, args.end_a), _resolve_end(net, args.end_b)


def _cmd_join(args) -> int:
    # join and born: args.join is join_free_ends or born_join_distribution
    dist = args.join(*_pair(args))
    record = {str(label): _rational(p, args) for label, p in dist.entries.items()}
    human = " ".join(f"c={label} p={_rational(dist.entries[label], args)}" for label in dist.support)
    _emit(args, record, human)
    return EXIT_OK


def _cmd_exchange(args) -> int:
    r = exchange_experiment(*_pair(args))
    p_up, p_down = _rational(r.p_up, args), _rational(r.p_down, args)
    human = f"p_up={p_up} p_down={p_down} theta={r.theta!r} rad ({math.degrees(r.theta):.6f} deg)"
    _emit(args, {"p_up": p_up, "p_down": p_down, "theta": r.theta}, human)
    return EXIT_OK


def _angles_for(args):
    net = _load_network(args.file)
    ends = [_resolve_end(net, text) for text in args.ends] or None
    return angle_matrix(net, ends)


def _cmd_angles(args) -> int:
    am = _angles_for(args)
    names = [_end_name(e) for e in am.ends]
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            _emit(
                args,
                {"end_a": names[i], "end_b": names[j], "theta": am.angles[i][j]},
                f"{names[i]} {names[j]} theta={am.angles[i][j]!r}",
            )
    return EXIT_OK


def _cmd_geometry(args) -> int:
    report = geometry_consistency(_angles_for(args))
    rows = report.embedding
    record = {
        "embeddable": report.embeddable,
        "residual": report.gram_residual,
        "embedding": None if rows is None else [[float(x) for x in row] for row in rows],
    }
    human = f"embeddable={'true' if report.embeddable else 'false'} residual={report.gram_residual:g}"
    _emit(args, record, human)
    return EXIT_OK


def _cmd_stability(args) -> int:
    report = stability_measure(*_pair(args), args.reps, args.seed)
    for i, (theta, outcome) in enumerate(zip(report.angles, report.outcomes)):
        _emit(
            args,
            {"outcome": outcome, "rep": i, "theta": theta},
            f"rep={i} theta={theta!r} outcome={outcome}",
        )
    _emit(
        args,
        {"max_drift": report.max_drift, "repetitions": args.reps},
        f"max_drift={report.max_drift!r}",
    )
    return EXIT_OK


def _cmd_dynamics(args) -> int:
    ancillas = args.ancillas
    if not 0 <= ancillas <= MAX_QUBITS:  # before an ancilla state is built
        raise OutOfRange(f"--ancillas must lie in 0..{MAX_QUBITS}, got {ancillas}")
    if args.ancilla_state == "singlets":
        anc = None
    elif args.ancilla_state == "plus":
        vec = np.ones(1 << ancillas, dtype=complex) / math.sqrt(1 << ancillas)
        anc = StateVector((1,) * ancillas, vec)
    else:  # "up"
        vec = np.zeros(1 << ancillas, dtype=complex)
        vec[0] = 1
        anc = StateVector((1,) * ancillas, vec)
    report = approximate_unitary_search(
        _GATES[args.target],
        ancillas,
        args.max_len,
        ancilla_state=anc,
        beam_width=args.beam_width,
        node_budget=args.node_budget,
    )
    steps = [
        {"pair": list(p.pair), "channel": p.channel.value}
        for p in report.best_sequence.steps
    ]
    record = {
        "fidelity": report.fidelity,
        "success_prob": report.success_prob,
        "sequence": steps,
        "best_by_length": list(report.best_by_length),
    }
    human_steps = " ".join(f"{s['channel']}({s['pair'][0]},{s['pair'][1]})" for s in steps)
    human = (
        f"fidelity={report.fidelity!r} success_prob={report.success_prob!r} "
        f"sequence=[{human_steps}]"
    )
    _emit(args, record, human)
    return EXIT_OK


# -- argument plumbing ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinnet",
        description="Exact combinatorial experiments on spin networks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("human", "jsonl"), default="human")
    common.add_argument("--numeric", choices=("exact", "float"), default="exact")
    common.add_argument("--stats", action="store_true", help="write the work counters to stderr as one JSON line")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate a closed network")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_eval)

    pair = argparse.ArgumentParser(add_help=False, parents=[common])
    for name in ("file", "end_a", "end_b"):
        pair.add_argument(name)

    p = sub.add_parser("join", parents=[pair], help="outcome distribution of joining two free ends")
    p.set_defaults(handler=_cmd_join, join=join_free_ends)

    p = sub.add_parser("born", parents=[pair], help="the same distribution by the Born rule (the check path)")
    p.set_defaults(handler=_cmd_join, join=born_join_distribution)

    p = sub.add_parser("exchange", parents=[pair], help="unit-exchange probabilities and angle")
    p.set_defaults(handler=_cmd_exchange)

    p = sub.add_parser("angles", parents=[common], help="pairwise emergent angles between free ends")
    p.add_argument("file")
    p.add_argument("ends", nargs="*")
    p.set_defaults(handler=_cmd_angles)

    p = sub.add_parser("geometry", parents=[common], help="rank-3 embeddability of the angle matrix")
    p.add_argument("file")
    p.add_argument("ends", nargs="*")
    p.set_defaults(handler=_cmd_geometry)

    p = sub.add_parser("stability", parents=[pair], help="repeat committed exchanges and track the angle")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_stability)

    p = sub.add_parser("dynamics", parents=[common], help="search postselection sequences for a target gate")
    p.add_argument("--target", choices=sorted(_GATES), default="x")
    p.add_argument("--ancillas", type=int, default=2)
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--ancilla-state", choices=("singlets", "plus", "up"), default="singlets")
    p.add_argument("--beam-width", type=int, default=None)
    p.add_argument("--node-budget", type=int, default=200_000)
    p.set_defaults(handler=_cmd_dynamics)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        try:
            return args.handler(args)
        finally:
            # the process's counts, so a refused command's work shows too;
            # a cache that cannot be built raises its own error here
            if args.stats:
                stats = {**counters(), "cache": default_cache().stats}
                print(json.dumps(stats, sort_keys=True), file=sys.stderr)
    except _Failure as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except SpinNetError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
