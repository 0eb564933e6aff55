import math
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netgen import aligned_triple, mirror_closures_planar, mixed_sign_join
from spinnet.errors import (
    ExhaustedEnd,
    InadmissibleSplit,
    InvalidNetwork,
    NotAFreeEnd,
    NullState,
    OutOfRange,
    TooFewEnds,
    TooLarge,
    UnsupportedNetwork,
)
from spinnet.evaluator import MAX_CLOSED_FORM_LABEL
from spinnet.experiments import (
    AngleMatrix,
    OutcomeDistribution,
    angle_from_probability,
    angle_matrix,
    exchange_experiment,
    geometry_consistency,
    join_free_ends,
    split_unit,
    stability_measure,
)
from spinnet.hilbert import born_join_distribution
from spinnet.model import End, SpinNetwork, merge_free_ends, validate_network


def singlet_net():
    return SpinNetwork.from_spec({"a": 1, "b": 1, "s": 0}, [("v", ("a", "b", "s"))])


def triplet_net():
    return SpinNetwork.from_spec({"a": 1, "b": 1, "t": 2}, [("v", ("a", "b", "t"))])


# -- joining ---------------------------------------------------------------


def test_join_singlet_and_triplet_pairs():
    assert join_free_ends(singlet_net(), End("a", 1), End("b", 1)).entries == {0: F(1)}
    assert join_free_ends(triplet_net(), End("a", 1), End("b", 1)).entries == {2: F(1)}


def test_join_bare_pairs_counts_dimensions():
    pair = SpinNetwork.from_spec({"a": 1, "b": 1})
    assert join_free_ends(pair, End("a", 0), End("b", 0)).entries == {
        0: F(1, 4),
        2: F(3, 4),
    }
    skew = SpinNetwork.from_spec({"a": 1, "b": 3})
    assert join_free_ends(skew, End("a", 0), End("b", 0)).entries == {
        2: F(3, 8),
        4: F(5, 8),
    }


def test_join_with_spin_zero_is_certain():
    net = SpinNetwork.from_spec({"a": 3, "z": 0})
    assert join_free_ends(net, End("a", 0), End("z", 0)).entries == {3: F(1)}


def test_join_rejects_bad_ends():
    net = singlet_net()
    with pytest.raises(NotAFreeEnd):
        join_free_ends(net, End("a", 0), End("b", 1))  # a:0 is attached
    with pytest.raises(NotAFreeEnd):
        join_free_ends(net, End("a", 1), End("a", 1))
    bad = SpinNetwork.from_spec({"a": 1, "b": 1})
    with pytest.raises(InvalidNetwork):
        join_free_ends(
            SpinNetwork(bad.edges + bad.edges, ()), End("a", 0), End("b", 0)
        )


def test_join_null_state():
    net = SpinNetwork.from_spec(
        {"l": 1, "c": 2, "x": 1, "y": 1}, [("v", ("l", "l", "c"))]
    )
    with pytest.raises(NullState):
        join_free_ends(net, End("x", 0), End("y", 0))


def test_join_with_mixed_sign_weights_is_unsupported():
    # a typed refusal, not an assert, so it holds under python -O too
    net, end_a, end_b = mixed_sign_join()
    assert not mirror_closures_planar(net, end_a, end_b)
    with pytest.raises(UnsupportedNetwork, match="ROADMAP item 1"):
        join_free_ends(net, end_a, end_b)
    assert born_join_distribution(net, end_a, end_b).entries == {3: F(7, 655), 5: F(648, 655)}


def test_join_agrees_with_born_oracle_sample(open_nets):
    for net in open_nets[:60]:
        ends = net.free_ends
        try:
            combinatorial = join_free_ends(net, ends[0], ends[1])
        except NullState:
            with pytest.raises(NullState):
                born_join_distribution(net, ends[0], ends[1])
            continue
        oracle = born_join_distribution(net, ends[0], ends[1])
        assert combinatorial.entries == oracle.entries


def test_chain_join_at_label_512_within_budget(fresh_cache):
    # at labels 512 each tet value sums a Racah series of hundreds of terms
    net = SpinNetwork.from_spec(dict.fromkeys("abcde", 512), [("u", "abc"), ("w", "cde")])
    start = time.perf_counter()
    dist = join_free_ends(net, End("a", 1), End("d", 1))
    assert time.perf_counter() - start < 6.0
    assert dist.support == tuple(range(0, 1025, 2))


def test_join_builds_one_closure_for_every_channel(monkeypatch):
    # the channels differ only in the joined unit's label, so one mirror
    # closure and one compiled program serve them all
    import spinnet.evaluator as ev
    import spinnet.experiments as ex

    net = SpinNetwork.from_spec({"a": 6, "b": 4})
    want = join_free_ends(net, End("a", 1), End("b", 1))
    counts = {"_mirror_closure": 0, "_compile": 0}
    for owner, name in ((ex, "_mirror_closure"), (ev, "_compile")):
        def counted(*args, _name=name, _fn=getattr(owner, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(owner, name, counted)
    assert join_free_ends(net, End("a", 1), End("b", 1)) == want
    assert want.entries == {c: F(c + 1, 35) for c in (2, 4, 6, 8, 10)}
    assert counts == {"_mirror_closure": 1, "_compile": 1}


def test_join_past_the_closed_form_bound_is_too_large():
    top = MAX_CLOSED_FORM_LABEL
    net = SpinNetwork.from_spec({"x": 1, "y": top + 1, "z": top + 2}, [("u", ("x", "y", "z"))])
    with pytest.raises(TooLarge, match="closed-form bound"):
        join_free_ends(net, End("x", 1), End("y", 1))


def test_outcome_distribution_validates():
    with pytest.raises(OutOfRange):
        OutcomeDistribution(1, 1, {0: F(1, 2)})  # does not sum to 1
    with pytest.raises(OutOfRange):
        OutcomeDistribution(1, 1, {1: F(1)})  # inadmissible channel
    dist = OutcomeDistribution(1, 1, {0: F(1, 4), 2: F(3, 4)})
    assert dist.support == (0, 2)
    assert dist.probability(2) == F(3, 4)
    assert dist.probability(4) == 0


# -- the exchange and angles -------------------------------------------------


def test_exchange_singlet_antialigned():
    result = exchange_experiment(singlet_net(), End("a", 1), End("b", 1))
    assert result.p_up == 0 and result.p_down == 1
    assert result.theta == pytest.approx(math.pi, abs=1e-12)


def test_exchange_triplet_aligned():
    result = exchange_experiment(triplet_net(), End("a", 1), End("b", 1))
    assert result.p_up == 1 and result.p_down == 0
    assert result.theta == 0.0


def test_exchange_independent_pair_is_sixty_degrees():
    pair = SpinNetwork.from_spec({"a": 1, "b": 1})
    result = exchange_experiment(pair, End("a", 0), End("b", 0))
    assert result.p_up == F(3, 4)
    assert result.theta == pytest.approx(math.pi / 3, abs=1e-12)


def test_exchange_completeness_and_round_trip(open_nets):
    checked = 0
    for net in open_nets:
        if checked >= 12:
            break
        ends = [e for e in net.free_ends if net.label(e) >= 1]
        if len(ends) < 2:
            continue
        try:
            result = exchange_experiment(net, ends[0], ends[1])
        except NullState:
            continue
        assert result.p_up + result.p_down == 1
        assert 0 <= result.p_up <= 1
        assert 0 <= result.theta <= math.pi
        assert math.cos(result.theta / 2) ** 2 == pytest.approx(
            float(result.p_up), abs=1e-12
        )
        rerun = exchange_experiment(net, ends[0], ends[1])
        assert rerun == result
        checked += 1
    assert checked == 12


def test_exchange_into_spin_zero_forced_up():
    net = SpinNetwork.from_spec({"a": 2, "b": 0})
    result = exchange_experiment(net, End("a", 0), End("b", 0))
    assert result.p_up == 1 and result.p_down == 0
    assert result.theta == 0.0


@given(st.integers(min_value=0, max_value=1000))
def test_angle_round_trip(i):
    p = F(i, 1000)
    theta = angle_from_probability(p)
    assert 0 <= theta <= math.pi
    assert math.cos(theta / 2) ** 2 == pytest.approx(float(p), abs=1e-12)


def test_angle_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        angle_from_probability(F(-1, 10))
    with pytest.raises(OutOfRange):
        angle_from_probability(1.1)


# -- splitting ----------------------------------------------------------------


def test_split_unit_structure():
    net = SpinNetwork.from_spec({"a": 3})
    out = split_unit(net, End("a", 0), 1)
    assert validate_network(out) == []
    labels = sorted(out.label(e) for e in out.free_ends)
    assert labels == [1, 2, 3]


def test_split_unit_rejects_bad_k():
    net = SpinNetwork.from_spec({"a": 3})
    for k in (-1, 4):
        with pytest.raises(InadmissibleSplit):
            split_unit(net, End("a", 0), k)
    with pytest.raises(NotAFreeEnd):
        split_unit(singlet_net(), End("a", 0), 1)


# -- angle matrices and geometry ----------------------------------------------


def test_angle_matrix_triplet_fixture():
    net = triplet_net()
    am = angle_matrix(net)
    assert am.ends == (End("a", 1), End("b", 1), End("t", 1))
    assert am.angle(End("a", 1), End("b", 1)) == 0.0
    assert am.angle(End("a", 1), End("t", 1)) == pytest.approx(math.pi)
    assert np.array_equal(am.angles, am.angles.T)


def test_angle_matrix_preconditions():
    with pytest.raises(TooFewEnds):
        angle_matrix(SpinNetwork.from_spec({"a": 2}), [End("a", 0)])
    with pytest.raises(NotAFreeEnd):
        angle_matrix(singlet_net(), [End("a", 1), End("a", 1)])
    zero = SpinNetwork.from_spec({"a": 0, "b": 2})
    with pytest.raises(InadmissibleSplit):
        angle_matrix(zero)


def test_geometry_aligned_triple_is_flat():
    net = aligned_triple(4)
    ends = [End("eA", 1), End("eB", 1), End("eC", 1)]
    report = geometry_consistency(angle_matrix(net, ends))
    assert report.embeddable
    assert report.gram_residual < 1e-12
    # all three unit vectors coincide
    dots = report.embedding @ report.embedding.T
    assert np.max(np.abs(dots - 1)) < 1e-9


def test_geometry_rejects_impossible_angles():
    ends = (End("x", 0), End("y", 0), End("z", 0))
    angles = np.array([
        [0.0, 0.0, 0.0],
        [0.0, 0.0, math.pi],
        [0.0, math.pi, 0.0],
    ])
    report = geometry_consistency(AngleMatrix(ends, angles))
    assert not report.embeddable
    assert report.gram_residual > 0.5


def test_geometry_orthogonal_directions_embed():
    ends = (End("x", 0), End("y", 0), End("z", 0))
    half = math.pi / 2
    report = geometry_consistency(AngleMatrix(ends, np.array([
        [0.0, half, half],
        [half, 0.0, half],
        [half, half, 0.0],
    ])))
    assert report.embeddable
    gram = report.embedding @ report.embedding.T
    assert np.max(np.abs(gram - np.eye(3))) < 1e-9


# -- ends that name no side of an edge ---------------------------------------

# Each entry point gets the bad end first and a real free end second.
_END_TAKERS = {
    "join_free_ends": lambda net, bad, ok: join_free_ends(net, bad, ok),
    "born_join_distribution": lambda net, bad, ok: born_join_distribution(net, bad, ok),
    "exchange_experiment": lambda net, bad, ok: exchange_experiment(net, bad, ok),
    "angle_matrix": lambda net, bad, ok: angle_matrix(net, [bad, ok]),
    "stability_measure": lambda net, bad, ok: stability_measure(net, bad, ok, 1, rng_seed=1),
    "split_unit": lambda net, bad, ok: split_unit(net, bad, 1),
    "merge_free_ends": lambda net, bad, ok: merge_free_ends(net, bad, ok, 2),
}


@pytest.mark.parametrize("side", [2, -1])
@pytest.mark.parametrize("entry", sorted(_END_TAKERS))
def test_an_end_with_no_such_side_is_not_free(entry, side):
    net = SpinNetwork.from_spec({"a": 2, "b": 2})
    with pytest.raises(NotAFreeEnd):
        _END_TAKERS[entry](net, End("a", side), End("b", 0))


@pytest.mark.parametrize("entry", ["exchange_experiment", "stability_measure"])
def test_an_end_is_not_exchanged_with_itself(entry):
    # refused as a repeated end, not as an attached one: the end is free
    net = SpinNetwork.from_spec({"a": 2, "b": 2})
    with pytest.raises(NotAFreeEnd, match="with itself"):
        _END_TAKERS[entry](net, End("a", 0), End("a", 0))


# -- stability -----------------------------------------------------------------


def test_stability_zero_reps():
    net = SpinNetwork.from_spec({"a": 4, "b": 4})
    report = stability_measure(net, End("a", 0), End("b", 0), 0, rng_seed=1)
    assert report.angles == () and report.outcomes == ()
    assert report.max_drift == 0.0


@pytest.mark.parametrize("end_a", [End("zz", 1), End("a", 0)])
def test_stability_refuses_an_end_that_is_not_free(end_a):
    net = SpinNetwork.from_spec({"a": 2, "b": 2, "s": 0}, [("v", ("a", "b", "s"))])
    with pytest.raises(NotAFreeEnd):
        stability_measure(net, end_a, End("b", 0), 1, rng_seed=1)


@pytest.mark.parametrize("end_b", [End("zz", 0), End("b", 0)])
@pytest.mark.parametrize("repetitions", [0, 1])
def test_stability_refuses_a_second_end_that_is_not_free(end_b, repetitions):
    # refused before any repetition runs, so also when none does
    net = SpinNetwork.from_spec({"a": 2, "b": 2, "s": 0}, [("v", ("a", "b", "s"))])
    with pytest.raises(NotAFreeEnd, match=f"{end_b.edge}:{end_b.side}"):
        stability_measure(net, End("a", 1), end_b, repetitions, rng_seed=1)


def test_stability_needs_label_headroom():
    net = SpinNetwork.from_spec({"a": 2, "b": 2})
    with pytest.raises(ExhaustedEnd):
        stability_measure(net, End("a", 0), End("b", 0), 3, rng_seed=1)
    with pytest.raises(OutOfRange):
        stability_measure(net, End("a", 0), End("b", 0), -1, rng_seed=1)


def test_stability_is_deterministic_given_seed():
    net = SpinNetwork.from_spec({"a": 6, "b": 6})
    one = stability_measure(net, End("a", 0), End("b", 0), 5, rng_seed=42)
    two = stability_measure(net, End("a", 0), End("b", 0), 5, rng_seed=42)
    assert one == two
    assert len(one.angles) == 5
    assert one.max_drift == max(abs(t - one.angles[0]) for t in one.angles)


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=0, max_value=10_000))
def test_stability_drift_small_on_large_ends(seed):
    net = SpinNetwork.from_spec({"a": 40, "b": 40, "t": 80},
                                [("v", ("a", "b", "t"))])
    report = stability_measure(net, End("a", 1), End("b", 1), 3, rng_seed=seed)
    assert report.angles[0] == 0.0  # aligned preparation
    assert report.max_drift < 0.35
