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

import pytest

from spinnet import cli, evaluator
from spinnet.dsl import serialize_network
from spinnet.evaluator import theta_value
from spinnet.model import SpinNetwork

from netgen import aligned_triple, cube_net, mixed_sign_join, theta_net


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


def test_eval_reads_stdin(fx, capsys, monkeypatch):
    text = "edge a 2\nedge b 2\nedge c 2\nvertex u a b c\nvertex v a b c\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run(["eval", "-"], capsys)
    assert (code, out) == (0, "-3/1\n")


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


def test_dynamics_zero_beam_width_exits_3(capsys):
    code, out, err = run(["dynamics", "--max-len", "1", "--beam-width", "0"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("OutOfRange:")


def test_usage_errors_exit_2(fx, capsys):
    assert run([], capsys)[0] == 2
    assert run(["nope"], capsys)[0] == 2
    assert run(["join", fx["singlet"], "a"], capsys)[0] == 2
