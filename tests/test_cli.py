"""Command-line behavior: golden outputs, exit codes, determinism."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from spinnet import cli, evaluator, experiments
from spinnet.dsl import serialize_network
from spinnet.dynamics import approximate_unitary_search
from spinnet.evaluator import theta_value
from spinnet.hilbert import StateVector
from spinnet.model import SpinNetwork

from netgen import aligned_triple, cube_net, mixed_sign_join, theta_net


# two label-2 vertices sharing the edge c; a, b, d and e are free
CHAIN = "edge a 2\nedge b 2\nedge c 2\nedge d 2\nedge e 2\nvertex v a b c\nvertex w c d e\n"


@pytest.fixture(scope="module")
def fx(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    singlet = SpinNetwork.from_spec({"a": 1, "b": 1, "s": 0}, [("v", ("a", "b", "s"))])
    triplet = SpinNetwork.from_spec({"a": 1, "b": 1, "t": 2}, [("v", ("a", "b", "t"))])
    files = {
        "theta": serialize_network(theta_net(2, 2, 2)),
        "singlet": serialize_network(singlet),
        "triplet": serialize_network(triplet),
        "aligned": serialize_network(aligned_triple(2)),
        "open": "edge a 1\nedge b 1\n",
        "huge": "".join(f"edge e{i} 200\n" for i in range(4)),
        "bad": "edge a -1\nfrob\n",
        "edges": "edge e0 0\nedge e1 1\nedge e2 2\n",
        "colon": "edge a:b 1\nedge c 1\n",
        "chain": CHAIN,
    }
    paths = {}
    for name, text in files.items():
        path = root / f"{name}.snet"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- eval ----------------------------------------------------------------------


def test_eval_prints_exact_rational(fx, capsys):
    code, out, _ = run(["eval", fx["theta"]], capsys)
    assert (code, out) == (0, "-3/1\n")


def test_eval_float_mode(fx, capsys):
    code, out, _ = run(["eval", fx["theta"], "--numeric", "float"], capsys)
    assert (code, out) == (0, "-3.0\n")


def test_eval_jsonl(fx, capsys):
    code, out, _ = run(["eval", fx["theta"], "--format", "jsonl"], capsys)
    assert (code, out) == (0, '{"value": "-3/1"}\n')


def test_eval_open_network_is_domain_error(fx, capsys):
    code, _, err = run(["eval", fx["open"]], capsys)
    assert code == 3
    assert "HasFreeEnds" in err


@pytest.mark.parametrize("bound", ["abc", "1.5", "0", "-2"])
def test_eval_bad_cache_size_is_domain_error(fx, capsys, monkeypatch, bound):
    from spinnet import evaluator

    monkeypatch.setattr(evaluator, "_default_cache", None)
    monkeypatch.setenv("SPINNET_CACHE_SIZE", bound)
    code, out, err = run(["eval", fx["theta"]], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("OutOfRange: SPINNET_CACHE_SIZE must be a positive integer")


def test_eval_missing_file_is_io_error(fx, capsys):
    code, _, err = run(["eval", fx["theta"] + ".nope"], capsys)
    assert code == 1
    assert err


def test_eval_parse_errors_print_spans(fx, capsys):
    code, _, err = run(["eval", fx["bad"]], capsys)
    assert code == 2
    lines = err.rstrip().split("\n")
    assert len(lines) == 2
    assert lines[0].endswith(":1:8: lexical: label must be a non-negative integer, got '-1'")
    assert ":2:1: syntactic:" in lines[1]


def _stdin(data: bytes) -> io.TextIOWrapper:
    # the shape of a real stdin: text over a byte buffer, which the CLI reads
    return io.TextIOWrapper(io.BytesIO(data), encoding="latin-1", newline="\n")


def test_eval_reads_stdin(fx, capsys, monkeypatch):
    text = "edge a 2\nedge b 2\nedge c 2\nvertex u a b c\nvertex v a b c\n"
    monkeypatch.setattr(sys, "stdin", _stdin(text.encode()))
    code, out, _ = run(["eval", "-"], capsys)
    assert (code, out) == (0, "-3/1\n")


THETA_CRLF_TABS = b"edge\ta\t2\r\nedge\tb\t2\r\nedge\tc\t2\r\nvertex\tu\ta\tb\tc\r\nvertex\tv\ta\tb\tc\r\n"


@pytest.mark.parametrize("line_end", [b"\n", b"\r\n", b"\r"])
def test_a_file_and_stdin_read_the_same_text(tmp_path, capsys, monkeypatch, line_end):
    data = THETA_CRLF_TABS.replace(b"\r\n", line_end)
    path = tmp_path / "theta.snet"
    path.write_bytes(data)
    assert run(["eval", str(path)], capsys) == (0, "-3/1\n", "")
    monkeypatch.setattr(sys, "stdin", _stdin(data))
    assert run(["eval", "-"], capsys) == (0, "-3/1\n", "")


def test_a_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.snet"
    path.write_bytes(b"edge a 2\xff\n")
    assert run(["eval", str(path)], capsys) == (2, "", f"{path}: not valid UTF-8 at byte 8\n")


def test_stdin_that_is_not_utf8_is_a_usage_error(capsys, monkeypatch):
    # the stream's own encoding (latin-1 here) decodes any byte; the CLI
    # reads UTF-8 whatever the locale says
    monkeypatch.setattr(sys, "stdin", _stdin(b"edge a 2\nedge b \xc3\n"))
    assert run(["eval", "-"], capsys) == (2, "", "-: not valid UTF-8 at byte 16\n")


def test_non_utf8_input_exits_2_without_a_traceback(tmp_path):
    """`python -m spinnet eval` on a file and on stdin, under a latin-1
    stdin encoding."""
    path = tmp_path / "bad.snet"
    path.write_bytes(b"edge a 2\xff\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONIOENCODING="latin-1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for arg, data, name in ((str(path), b"", str(path)), ("-", path.read_bytes(), "-")):
        proc = subprocess.run(
            [sys.executable, "-m", "spinnet", "eval", arg],
            input=data, capture_output=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.decode() == f"{name}: not valid UTF-8 at byte 8\n"


def test_eval_prints_values_past_the_int_str_digit_limit(tmp_path, capsys):
    """The value of theta(20000, 20000, 20000) has a 5,027-digit numerator,
    past the interpreter's default 4,300-digit int-to-str limit."""
    path = tmp_path / "big.snet"
    path.write_text(serialize_network(theta_net(20000, 20000, 20000)))
    expected = theta_value(20000, 20000, 20000)
    for fmt in ("human", "jsonl"):
        code, out, err = run(["eval", str(path), "--format", fmt], capsys)
        assert (code, err) == (0, "")
        text = json.loads(out)["value"] if fmt == "jsonl" else out.rstrip("\n")
        num, den = text.split("/")
        assert len(num) > 4300
        assert Fraction(int(Decimal(num)), int(Decimal(den))) == expected


# -- join and exchange ----------------------------------------------------------


def test_join_singlet_jsonl_golden(fx, capsys):
    code, out, _ = run(["join", fx["singlet"], "a", "b", "--format", "jsonl"], capsys)
    assert (code, out) == (0, '{"0": "1/1"}\n')


def test_join_accepts_explicit_sides(fx, capsys):
    code, out, _ = run(["join", fx["singlet"], "a:1", "b:1", "--format", "jsonl"], capsys)
    assert (code, out) == (0, '{"0": "1/1"}\n')


def test_join_names_an_edge_whose_id_holds_a_colon(fx, capsys):
    # the whole text is tried as an edge id before a ':side' is split off
    bare = run(["join", fx["colon"], "a:b", "c"], capsys)
    assert bare == (0, "c=0 p=1/4 c=2 p=3/4\n", "")
    assert run(["join", fx["colon"], "a:b:1", "c:0"], capsys) == bare


def test_join_human_and_float_modes(fx, capsys):
    code, out, _ = run(["join", fx["singlet"], "a", "b"], capsys)
    assert (code, out) == (0, "c=0 p=1/1\n")
    code, out, _ = run(
        ["join", fx["singlet"], "a", "b", "--format", "jsonl", "--numeric", "float"],
        capsys,
    )
    assert (code, out) == (0, '{"0": 1.0}\n')


def test_join_unknown_end_is_usage_error(fx, capsys):
    code, _, err = run(["join", fx["singlet"], "a", "zz"], capsys)
    assert code == 2
    assert "unknown end 'zz'" in err


def test_join_occupied_end_is_domain_error(fx, capsys):
    code, _, err = run(["join", fx["singlet"], "a:0", "b:1"], capsys)
    assert code == 3
    assert "NotAFreeEnd" in err


def test_born_matches_join_on_fixtures(fx, capsys):
    for name, ends in (("singlet", ["a", "b"]), ("triplet", ["a", "b"]), ("open", ["a:0", "b:1"])):
        for fmt in ("human", "jsonl"):
            joined = run(["join", fx[name], *ends, "--format", fmt], capsys)
            assert joined[0] == 0
            assert run(["born", fx[name], *ends, "--format", fmt], capsys) == joined


def test_born_state_above_the_bound_exits_3(fx):
    """`python -m spinnet born` on four bare label-200 edges refuses the
    201^8-entry state at once."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "spinnet", "born", fx["huge"], "e0:0", "e1:0"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("TooLarge:")


def test_join_on_a_label_past_the_digit_bound_is_a_parse_error(tmp_path):
    """`python -m spinnet join` reports the label's span and exits 2, with no
    traceback."""
    path = tmp_path / "long.snet"
    path.write_text("edge a " + "1" * 5000 + "\nedge b 1\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "spinnet", "join", str(path), "a", "b"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"{path}:1:8: lexical: label has 5000 digits, more than 640\n"


def test_join_with_mixed_sign_weights_exits_3(tmp_path):
    """`python -m spinnet join` on a nonplanar mirror closure refuses the
    join with UnsupportedNetwork, with no traceback; `born` answers."""
    net, end_a, end_b = mixed_sign_join()
    path = tmp_path / "mixed.snet"
    path.write_text(serialize_network(net))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    ends = [f"{end.edge}:{end.side}" for end in (end_a, end_b)]
    proc = subprocess.run(
        [sys.executable, "-m", "spinnet", "join", str(path), *ends],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("UnsupportedNetwork:") and "ROADMAP item 1" in proc.stderr
    assert "Traceback" not in proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "spinnet", "born", str(path), *ends],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "c=3 p=7/655 c=5 p=648/655\n")


def test_eval_past_the_branch_bound_exits_3(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cube.snet"
    path.write_text(serialize_network(cube_net(1, 2)))
    monkeypatch.setattr(evaluator, "_MAX_BRANCHES", 0)
    code, out, err = run(["eval", str(path)], capsys)
    assert (code, out) == (3, "")
    assert err == "TooLarge: more than 0 recoupling branches\n"


def test_eval_past_the_closed_form_bound_exits_3(tmp_path, capsys):
    top = evaluator.MAX_CLOSED_FORM_LABEL
    path = tmp_path / "big.snet"
    path.write_text(serialize_network(theta_net(top + 1, top + 1, 2)))
    code, out, err = run(["eval", str(path)], capsys)
    assert (code, out) == (3, "")
    assert err == f"TooLarge: label {top + 1} exceeds the closed-form bound {top}\n"


def test_exchange_singlet_human(fx, capsys):
    code, out, _ = run(["exchange", fx["singlet"], "a", "b"], capsys)
    assert code == 0
    assert out == "p_up=0/1 p_down=1/1 theta=3.141592653589793 rad (180.000000 deg)\n"


def test_exchange_triplet_jsonl(fx, capsys):
    code, out, _ = run(["exchange", fx["triplet"], "a", "b", "--format", "jsonl"], capsys)
    assert (code, out) == (0, '{"p_down": "0/1", "p_up": "1/1", "theta": 0.0}\n')


# -- angles, geometry, stability -------------------------------------------------


def test_angles_one_record_per_pair(fx, capsys):
    code, out, _ = run(
        ["angles", fx["aligned"], "eA", "eB", "eC", "--format", "jsonl"], capsys
    )
    assert code == 0
    records = [json.loads(line) for line in out.rstrip().split("\n")]
    assert [(r["end_a"], r["end_b"]) for r in records] == [
        ("eA:1", "eB:1"),
        ("eA:1", "eC:1"),
        ("eB:1", "eC:1"),
    ]
    assert all(r["theta"] == 0.0 for r in records)


# the chain's angles in pair order: a-b, a-d, a-e, b-d, b-e, d-e
CHAIN_ANGLES = [1.9106332362490186] + [1.5707963267948966] * 4 + [1.9106332362490186]


def test_angles_chain_golden_lines(fx, capsys):
    # plain floats in both formats: a NumPy 2 scalar would print as np.float64(...)
    pairs = [("a:1", "b:1"), ("a:1", "d:1"), ("a:1", "e:1"), ("b:1", "d:1"), ("b:1", "e:1"), ("d:1", "e:1")]
    code, out, _ = run(["angles", fx["chain"], "a", "b", "d", "e"], capsys)
    assert code == 0
    assert out == "".join(f"{x} {y} theta={t!r}\n" for (x, y), t in zip(pairs, CHAIN_ANGLES))
    code, out, _ = run(["angles", fx["chain"], "a", "b", "d", "e", "--format", "jsonl"], capsys)
    assert code == 0
    assert out == "".join(
        json.dumps({"end_a": x, "end_b": y, "theta": t}, sort_keys=True) + "\n"
        for (x, y), t in zip(pairs, CHAIN_ANGLES)
    )


def test_angles_past_the_end_bound_exits_3(tmp_path, capsys, monkeypatch):
    labels = {f"{name}{k}": label for k in range(100) for name, label in (("a", 1), ("b", 1), ("t", 2))}
    vertices = [(f"v{k}", (f"a{k}", f"b{k}", f"t{k}")) for k in range(100)]
    path = tmp_path / "loose.snet"
    path.write_text(serialize_network(SpinNetwork.from_spec(labels, vertices)))

    def forbidden(*_args):
        raise AssertionError("a refused matrix runs no exchange")

    monkeypatch.setattr(experiments, "_exchange", forbidden)
    code, out, err = run(["angles", str(path)], capsys)
    assert (code, out) == (3, "")
    assert err == "TooLarge: 300 ends exceed the angle-matrix bound of 64\n"


def test_geometry_aligned_golden_line(fx, capsys):
    code, out, _ = run(["geometry", fx["aligned"], "eA", "eB", "eC"], capsys)
    assert (code, out) == (0, "embeddable=true residual=0\n")


def test_geometry_jsonl_record(fx, capsys):
    code, out, _ = run(
        ["geometry", fx["aligned"], "eA", "eB", "eC", "--format", "jsonl"], capsys
    )
    assert code == 0
    record = json.loads(out)
    assert record["embeddable"] is True
    assert record["residual"] == 0.0
    assert len(record["embedding"]) == 3


def test_geometry_not_embeddable_reports_instead_of_crashing(fx, capsys):
    ends = ["e1:0", "e1:1", "e2:0", "e2:1"]
    code, out, _ = run(["geometry", fx["edges"], *ends], capsys)
    assert (code, out) == (0, "embeddable=false residual=1.33333\n")
    code, out, _ = run(["geometry", fx["edges"], *ends, "--format", "jsonl"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["embeddable"] is False and record["embedding"] is None


def test_stability_zero_reps_summary_only(fx, capsys):
    code, out, _ = run(
        ["stability", fx["singlet"], "a", "b", "--reps", "0", "--format", "jsonl"],
        capsys,
    )
    assert (code, out) == (0, '{"max_drift": 0.0, "repetitions": 0}\n')


def test_stability_fixed_seed_is_byte_identical(fx, capsys):
    args = [
        "stability", fx["aligned"], "eA", "eB",
        "--reps", "2", "--seed", "7", "--format", "jsonl",
    ]
    first = run(args, capsys)
    second = run(args, capsys)
    assert first == second
    assert first[0] == 0
    lines = first[1].rstrip().split("\n")
    assert len(lines) == 3
    assert json.loads(lines[-1])["repetitions"] == 2


# -- dynamics and usage ----------------------------------------------------------


def test_dynamics_search_jsonl(fx, capsys):
    code, out, _ = run(
        [
            "dynamics", "--target", "x", "--ancillas", "2",
            "--max-len", "1", "--ancilla-state", "plus", "--format", "jsonl",
        ],
        capsys,
    )
    assert code == 0
    assert out == (
        '{"best_by_length": [0.0, 0.5], "fidelity": 0.5,'
        ' "sequence": [{"channel": "singlet", "pair": [0, 1]}],'
        ' "success_prob": 0.25}\n'
    )


def test_dynamics_with_its_defaults_prints_a_probability_of_at_most_one(capsys):
    assert run(["dynamics"], capsys) == (0, "fidelity=0.0 success_prob=1.0 sequence=[]\n", "")


def test_dynamics_zero_beam_width_exits_3(capsys):
    code, out, err = run(["dynamics", "--max-len", "1", "--beam-width", "0"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("OutOfRange:")


def test_dynamics_zero_node_budget_exits_3(capsys):
    code, out, err = run(["dynamics", "--max-len", "1", "--node-budget", "0"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("OutOfRange:")


@pytest.mark.parametrize("ancillas", ["-1", "7", "100"])
@pytest.mark.parametrize("state", ["plus", "up", "singlets"])
def test_dynamics_ancillas_out_of_bounds_exit_3(capsys, ancillas, state):
    # refused before an ancilla state of 2^ancillas amplitudes is built
    code, out, err = run(
        ["dynamics", "--max-len", "1", "--ancillas", ancillas, "--ancilla-state", state],
        capsys,
    )
    assert (code, out) == (3, "")
    assert err.startswith("OutOfRange:")


def test_dynamics_up_ancillas_start_every_ancilla_up(capsys):
    code, out, _ = run(
        ["dynamics", "--target", "z", "--max-len", "2", "--ancilla-state", "up", "--format", "jsonl"], capsys
    )
    assert code == 0
    up = np.zeros(4, dtype=complex)
    up[0] = 1
    report = approximate_unitary_search(cli._GATES["z"], 2, 2, ancilla_state=StateVector((1, 1), up))
    record = json.loads(out)
    assert (record["fidelity"], record["success_prob"]) == (report.fidelity, report.success_prob)
    assert record["fidelity"] == 0.5


def test_usage_errors_exit_2(fx, capsys):
    assert run([], capsys)[0] == 2
    assert run(["nope"], capsys)[0] == 2
    assert run(["join", fx["singlet"], "a"], capsys)[0] == 2
    # c joins the chain's two vertices, so neither of its ends is free
    assert run(["join", fx["chain"], "c", "d"], capsys) == (2, "", "edge 'c' has no free end\n")


# -- --stats ---------------------------------------------------------------------

THETA = b"edge a 2\nedge b 2\nedge c 2\nvertex v a b c\nvertex w a b c\n"


def _console(args, data: bytes) -> subprocess.CompletedProcess:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("SPINNET_CACHE_SIZE", None)
    return subprocess.run([sys.executable, "-m", "spinnet", *args], input=data,
                          capture_output=True, env=env, timeout=60)


def test_stats_write_the_counters_to_stderr_and_leave_stdout_alone():
    # a new process evaluates the theta once: one labelling, no recoupling,
    # and two cache misses, its program and its theta value
    plain = _console(["eval", "-"], THETA)
    counted = _console(["eval", "-", "--stats"], THETA)
    assert (plain.returncode, plain.stdout, plain.stderr) == (0, b"-3/1\n", b"")
    assert (counted.returncode, counted.stdout) == (0, plain.stdout)
    stats = json.loads(counted.stderr)
    assert stats == {
        "evaluations": 1, "labellings": 1, "recoupling_branches": 0,
        "cache": {"hits": 0, "misses": 2, "size": 2, "kinds": {"program": 1, "theta": 1}},
    }


@pytest.mark.parametrize("args", [
    ["join", "singlet", "a", "b", "--format", "jsonl"],
    ["exchange", "triplet", "a", "b"],
    ["angles", "aligned", "eA", "eB", "eC", "--numeric", "float"],
    ["stability", "aligned", "eA", "eB", "--reps", "2", "--seed", "3"],
    ["dynamics", "--max-len", "1", "--ancilla-state", "plus"],
])
def test_stats_leave_every_commands_stdout_byte_identical(fx, capsys, args):
    args = [fx.get(a, a) for a in args]
    code, out, err = run(args, capsys)
    assert (code, err) == (0, "")
    code, counted, err = run(args + ["--stats"], capsys)
    assert (code, counted) == (0, out)
    stats = json.loads(err)
    assert sorted(stats) == ["cache", "evaluations", "labellings", "recoupling_branches"]
    assert sorted(stats["cache"]) == ["hits", "kinds", "misses", "size"]
    assert sum(stats["cache"]["kinds"].values()) == stats["cache"]["size"]


def test_stats_count_the_born_paths_entries_by_kind(fx, capsys, fresh_cache):
    # the singlet's one vertex is one operand, built from one 3j and the
    # pairings of its two label-1 free ends and its label-0 one
    code, out, err = run(["born", fx["singlet"], "a", "b", "--stats"], capsys)
    assert (code, out) == (0, "c=0 p=1/1\n")
    assert json.loads(err)["cache"]["kinds"] == {
        "bargmann-metric": 3, "cg-band": 2, "operand": 1, "pairing": 2, "vertex-3j": 1,
    }


def test_stats_follow_a_refused_command_too(tmp_path, capsys, monkeypatch, fresh_cache):
    path = tmp_path / "cube.snet"
    path.write_text(serialize_network(cube_net(1, 2)))
    monkeypatch.setattr(evaluator, "_MAX_BRANCHES", 0)
    before = evaluator.counters()
    code, out, err = run(["eval", str(path), "--stats"], capsys)
    assert (code, out) == (3, "")
    stats, refusal = err.splitlines()
    assert json.loads(stats)["evaluations"] == before["evaluations"] + 1
    assert refusal == "TooLarge: more than 0 recoupling branches"


def test_stats_with_a_bad_cache_size_still_exit_3(fx, capsys, monkeypatch):
    monkeypatch.setattr(evaluator, "_default_cache", None)
    monkeypatch.setenv("SPINNET_CACHE_SIZE", "0")
    code, out, err = run(["eval", fx["theta"], "--stats"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("OutOfRange: SPINNET_CACHE_SIZE must be a positive integer")
