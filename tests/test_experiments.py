import hashlib
import itertools
import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netgen import aligned_triple, grown_network, mirror_closures_planar, mixed_sign_join
from spinnet import experiments
from spinnet.errors import (
    ExhaustedEnd,
    InadmissibleSplit,
    InvalidNetwork,
    NotAFreeEnd,
    NullState,
    OutOfRange,
    SpinNetError,
    TooFewEnds,
    TooLarge,
    UnsupportedNetwork,
)
from spinnet.evaluator import MAX_CLOSED_FORM_LABEL, _evaluate, _loop, _shape, theta_value
from spinnet.experiments import (
    AngleMatrix,
    ExchangeResult,
    OutcomeDistribution,
    StabilityReport,
    angle_from_probability,
    angle_matrix,
    exchange_experiment,
    geometry_consistency,
    join_free_ends,
    split_unit,
    stability_measure,
)
from spinnet.hilbert import born_join_distribution
from spinnet.model import (
    Edge,
    End,
    SpinNetwork,
    Vertex,
    admissible_couplings,
    merge_free_ends,
    validate_network,
)


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


def test_a_join_hands_back_positive_integer_weights_of_its_nonzero_channels(open_nets):
    import spinnet.experiments as ex

    joined = 0
    for net in open_nets[:80]:
        for end_a, end_b in itertools.combinations(net.free_ends, 2):
            try:
                weights = ex._join(net, end_a, end_b)
            except (NullState, UnsupportedNetwork):
                continue
            assert list(weights) == sorted(weights)
            assert set(weights) <= set(admissible_couplings(net.label(end_a), net.label(end_b)))
            assert all(type(w) is int and w > 0 for w in weights.values())
            total = sum(weights.values())
            assert join_free_ends(net, end_a, end_b).entries == {c: F(w, total) for c, w in weights.items()}
            joined += 1
    assert joined > 300


def _reference_join(net, end_a, end_b):
    """The join's weights by its formula in Fractions: each channel c's
    loop(c)·n·theta_den / (d·theta_num), for the mirror closure's value n/d
    through c, scaled by the lcm of their denominators; the same refusals."""
    channels = admissible_couplings(net.label(end_a), net.label(end_b))
    labels = tuple(e.label for e in net.edges)
    values = _evaluate(_shape(net, end_a, end_b), [labels + (c,) for c in channels])
    weights = {}
    for c, (n, d) in zip(channels, values):
        theta = theta_value(net.label(end_a), net.label(end_b), c)
        if n:
            weights[c] = F(_loop(c) * n * theta.denominator, d * theta.numerator)
    if not weights:
        raise NullState("every weight is 0")
    if len({w > 0 for w in weights.values()}) > 1:
        raise UnsupportedNetwork("weights of mixed sign")
    scale = math.lcm(*(w.denominator for w in weights.values()))
    return {c: abs(w.numerator) * (scale // w.denominator) for c, w in weights.items()}


def _join_or_refusal(join, net, end_a, end_b):
    try:
        weights = join(net, end_a, end_b)
    except (NullState, UnsupportedNetwork) as exc:
        return type(exc)
    return list(weights.items())


def test_a_joins_integer_weights_are_its_formula_in_fractions(open_nets):
    # the weights stability_measure's chain reads, on every free-end pair of
    # the open corpus and on the aligned triples, refusals included
    pairs = [(net, *pair) for net in open_nets for pair in itertools.combinations(net.free_ends, 2)]
    pairs += [(net, *pair) for net in map(aligned_triple, range(2, 129, 2)) for pair in [
        (End("eA", 1), End("eB", 1)), (End("eA", 1), End("eC", 1)), (End("eB", 1), End("eR", 1)),
    ]]
    pairs.append(mixed_sign_join())
    refused = set()
    for net, end_a, end_b in pairs:
        want = _join_or_refusal(_reference_join, net, end_a, end_b)
        assert _join_or_refusal(experiments._join, net, end_a, end_b) == want
        if isinstance(want, type):
            refused.add(want)
    assert refused == {NullState, UnsupportedNetwork}


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


def test_join_builds_one_closure_for_every_channel(monkeypatch, fresh_cache):
    # the channels differ only in the joined unit's label, so one mirror
    # closure and one compiled program serve them all; a repeated join
    # finds that program in the process cache and builds no closure
    import spinnet.evaluator as ev

    net = SpinNetwork.from_spec({"a": 6, "b": 4})
    counts = {"from_shape": 0, "_compile": 0}
    for owner, name in ((ev._MGraph, "from_shape"), (ev, "_compile")):
        def counted(*args, _name=name, _fn=getattr(owner, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(owner, name, counted)
    want = join_free_ends(net, End("a", 1), End("b", 1))
    assert want.entries == {c: F(c + 1, 35) for c in (2, 4, 6, 8, 10)}
    assert counts == {"from_shape": 1, "_compile": 1}
    assert join_free_ends(net, End("a", 1), End("b", 1)) == want
    assert counts == {"from_shape": 1, "_compile": 1}


def test_join_validates_its_network_once(monkeypatch, open_nets):
    # the closure comes from a network just validated, so neither module
    # validates it again
    import spinnet.evaluator as ev
    import spinnet.experiments as ex

    calls = 0
    validate = ex.validate_network

    def counted(net):
        nonlocal calls
        calls += 1
        return validate(net)

    for owner in (ex, ev):
        monkeypatch.setattr(owner, "validate_network", counted)
    for joins, net in enumerate(open_nets[:20], 1):
        try:
            join_free_ends(net, *net.free_ends[:2])
        except (NullState, UnsupportedNetwork):
            pass
        assert calls == joins


def test_join_past_the_closed_form_bound_is_too_large():
    top = MAX_CLOSED_FORM_LABEL
    net = SpinNetwork.from_spec({"x": 1, "y": top + 1, "z": top + 2}, [("u", ("x", "y", "z"))])
    with pytest.raises(TooLarge, match="closed-form bound"):
        join_free_ends(net, End("x", 1), End("y", 1))


def test_outcome_distribution_validates():
    with pytest.raises(OutOfRange, match="sum to 1/2, not 1"):
        OutcomeDistribution(1, 1, {0: F(1, 2)})
    with pytest.raises(OutOfRange, match="label 1 cannot couple 1 and 1"):
        OutcomeDistribution(1, 1, {1: F(1)})
    with pytest.raises(OutOfRange, match="sum to 0, not 1"):
        OutcomeDistribution(1, 1, {})
    with pytest.raises(OutOfRange, match="sum to 3/2, not 1"):
        OutcomeDistribution(2, 2, {0: F(1, 2), 2: 1})
    # entries are checked in order, each for its channel before its value
    with pytest.raises(OutOfRange, match="probability 3/2 for label 2 is outside"):
        OutcomeDistribution(2, 2, {2: F(3, 2), 0: F(-1, 2)})
    with pytest.raises(OutOfRange, match="probability -1/2 for label 0 is outside"):
        OutcomeDistribution(2, 2, {0: F(-1, 2), 2: F(3, 2)})
    with pytest.raises(OutOfRange, match="label 1 cannot couple 2 and 2"):
        OutcomeDistribution(2, 2, {1: 0.5, 2: 1})
    dist = OutcomeDistribution(1, 1, {0: F(1, 4), 2: F(3, 4)})
    assert dist.support == (0, 2)
    assert dist.probability(2) == F(3, 4)
    assert dist.probability(4) == 0
    assert OutcomeDistribution(1, 1, {0: 1}).entries == {0: 1}


@pytest.mark.parametrize("entries", [
    {0: 0.25, 2: 0.75}, {0: True}, {0: "x"}, {0: None}, {0: F(1, 4), 2: 0.75}, {0: 1.0},
])
def test_an_outcome_distribution_holds_exact_probabilities(entries):
    # a float or a bool sums to 1 in value, but an entry is a Fraction or a
    # plain int; what is not a number is refused the same way
    with pytest.raises(OutOfRange):
        OutcomeDistribution(1, 1, entries)


@pytest.mark.parametrize("label_a, label_b, entries", [
    (1, 1, {2.0: F(1)}), (1, 0, {True: F(1)}), (1, 1, {F(2): F(1)}), (1, 1, {0: F(1, 2), 2.0: F(1, 2)}),
])
def test_an_outcome_distribution_keys_are_labels(label_a, label_b, entries):
    # each key equals an admissible coupling in value, but is not a plain int
    with pytest.raises(OutOfRange, match="is not a label"):
        OutcomeDistribution(label_a, label_b, entries)


@pytest.mark.parametrize("p_up, p_down", [
    (0.5, 0.5), (F(1, 2), 0.5), (True, False), (False, 1), ("1", 0), (None, 1), (F(1, 2), F(1, 2) + 0j),
])
def test_an_exchange_result_holds_exact_probabilities(p_up, p_down):
    # a result holds p_up alone and reads p_down from it, so no p_down is
    # taken; a value that is not a Fraction or a plain int is refused as
    # p_up, also where it equals one
    with pytest.raises(TypeError):
        ExchangeResult(p_up, p_down)
    for p in (p_up, p_down):
        if type(p) is F or type(p) is int:
            assert ExchangeResult(p).p_down == 1 - p
        else:
            with pytest.raises(OutOfRange):
                ExchangeResult(p)


def test_an_exchange_result_checks_its_sum_and_angle():
    # p_down and theta are read from p_up, so they cannot disagree with it
    quarter = ExchangeResult(F(1, 4))
    assert quarter.p_down == F(3, 4) and type(quarter.p_down) is F
    assert quarter.theta == angle_from_probability(F(1, 4)) == pytest.approx(2 * math.pi / 3)
    assert (ExchangeResult(0).p_down, ExchangeResult(0).theta) == (1, math.pi)
    assert (ExchangeResult(F(1)).p_down, ExchangeResult(F(1)).theta) == (0, 0.0)
    assert ExchangeResult(F(2, 4)) == ExchangeResult(F(1, 2))
    for p_up in (F(3, 2), F(-1, 2), 2, -1):
        with pytest.raises(OutOfRange, match=r"p_up .* is outside \[0, 1\]"):
            ExchangeResult(p_up)


@pytest.mark.parametrize("angles, message", [
    ([[0, 1], [1, 0], [0, 0]], "shape"),
    ([[0, 1], [2, 0]], "symmetric with zero diagonal"),
    ([[1, 1], [1, 0]], "symmetric with zero diagonal"),
    ([[0, math.nan], [math.nan, 0]], "symmetric with zero diagonal"),
    ([[math.nan, 1], [1, 0]], "symmetric with zero diagonal"),
    ([[0, -1], [-1, 0]], r"lie in \[0, pi\]"),
    ([[0, 4], [4, 0]], r"lie in \[0, pi\]"),
])
def test_an_angle_matrix_is_symmetric_with_zero_diagonal_and_angles_in_range(angles, message):
    ends = (End("a", 1), End("b", 1))
    with pytest.raises(OutOfRange, match=message):
        AngleMatrix(ends, np.array(angles, dtype=float))
    assert AngleMatrix(ends, np.array([[0, math.pi], [math.pi, 0]])).angle(*ends) == math.pi


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


def _vertex_weights(a, b, x):
    """A unit moved from a to b at a vertex (a, b, x): its up and down
    weights, both over 4a(b+1)."""
    return (a + x - b) * (b + x - a + 2), (a + b - x) * (a + b + x + 2)


def _p_up_at_one_vertex(dist: OutcomeDistribution, a, b):
    """p_up of an exchange from a to b, read from the join of the pair: the
    vertex's p_up averaged over the pair's joined label x."""
    return sum(p * _vertex_weights(a, b, x)[0] for x, p in dist.entries.items()) / (4 * a * (b + 1))


def test_an_exchange_at_one_vertex_has_the_closed_form():
    checked = 0
    for a in range(1, 13):
        for b in range(13):
            for x in admissible_couplings(a, b):
                net = SpinNetwork.from_spec({"a": a, "b": b, "x": x}, [("v", ("a", "b", "x"))])
                result = exchange_experiment(net, End("a", 1), End("b", 1))
                up, down = _vertex_weights(a, b, x)
                assert (result.p_up, result.p_down) == (F(up, 4 * a * (b + 1)), F(down, 4 * a * (b + 1)))
                checked += 1
    assert checked == 806


def _answered_exchanges(nets):
    """Every ordered pair of free ends, end_a of label >= 1, with the
    exchange from end_a to end_b, where exchange_experiment answers."""
    for net in nets:
        for end_a, end_b in itertools.permutations(net.free_ends, 2):
            if net.label(end_a) < 1:
                continue
            try:
                result = exchange_experiment(net, end_a, end_b)
            except NullState:
                continue
            yield net, end_a, end_b, result


def test_an_exchange_is_its_pairs_join_read_at_one_vertex(open_nets):
    pairs = 0
    for net, end_a, end_b, result in _answered_exchanges(open_nets):
        a, b = net.label(end_a), net.label(end_b)
        assert result.p_up == _p_up_at_one_vertex(join_free_ends(net, end_a, end_b), a, b)
        pairs += 1
    assert pairs > 1500


def test_the_exchange_identity_holds_on_the_born_path(open_nets):
    # the same identity with both sides read by the Born rule, so it checks
    # the evaluator's exchanges with nothing of the evaluator
    agreed = 0
    for net, end_a, end_b, result in _answered_exchanges(open_nets):
        a, b = net.label(end_a), net.label(end_b)
        p_up = _p_up_at_one_vertex(born_join_distribution(net, end_a, end_b), a, b)
        uid = net.fresh_id("u")
        split = split_unit(net, end_a, 1, unit_id=uid)
        assert p_up == born_join_distribution(split, End(uid, 1), end_b).probability(b + 1)
        if p_up == result.p_up:
            agreed += 1
        else:
            # evaluate_closed is wrong on nonplanar closures (ROADMAP item 1),
            # as test_join_equals_born_on_nonplanar_closures pins
            assert not mirror_closures_planar(split, End(uid, 1), end_b)
    assert agreed > 1500


def _couplings(net, join):
    """The matrix M_ij = <J_i . J_j> over net's free ends, in exact
    Fractions: M_ii = a_i(a_i+2)/4, and M_ij = (<x(x+2)> - a_i(a_i+2) -
    a_j(a_j+2))/8 over the join of ends i and j, read by join."""
    ends = net.free_ends
    labels = [net.label(end) for end in ends]
    m = [[F(0)] * len(ends) for _ in ends]
    for i, a in enumerate(labels):
        m[i][i] = F(a * (a + 2), 4)
    for i, j in itertools.combinations(range(len(ends)), 2):
        a, b = labels[i], labels[j]
        mean = sum(p * x * (x + 2) for x, p in join(net, ends[i], ends[j]).entries.items())
        m[i][j] = m[j][i] = (mean - a * (a + 2) - b * (b + 2)) / 8
    return m


def _row_sums(net, join):
    """For each free end i, the sum over j != i of M_ij (see _couplings)."""
    return [sum(row) - row[i] for i, row in enumerate(_couplings(net, join))]


def _row_sum_nets(nets):
    """Index and network of each corpus network with at least two free ends
    whose every pair of free ends both join paths answer."""
    out = []
    for k, net in enumerate(nets):
        if len(net.free_ends) < 2:
            continue
        try:
            for end_a, end_b in itertools.combinations(net.free_ends, 2):
                join_free_ends(net, end_a, end_b)
                born_join_distribution(net, end_a, end_b)
        except SpinNetError:
            continue
        out.append((k, net))
    return out


def _free_end_casimirs(net):
    return [F(-net.label(e) * (net.label(e) + 2), 4) for e in net.free_ends]


def test_the_row_sums_hold_on_the_born_path(open_nets):
    # the ends of a network that is the whole state couple to zero total
    # spin: sum_j J_j = 0, so sum_{j != i} <J_i . J_j> = -<J_i . J_i>
    nets = _row_sum_nets(open_nets)
    assert len(nets) >= 162
    for _, net in nets:
        assert _row_sums(net, born_join_distribution) == _free_end_casimirs(net)


NONPLANAR_ROW_SUMS = 22  # index in open_corpus() of the network some of whose joins close nonplanar


def test_the_row_sums_hold_on_the_evaluator_path(open_nets):
    nets = [(k, net) for k, net in _row_sum_nets(open_nets) if k != NONPLANAR_ROW_SUMS]
    assert len(nets) >= 161
    for _, net in nets:
        assert _row_sums(net, join_free_ends) == _free_end_casimirs(net)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: evaluate_closed is wrong on nonplanar mirror closures, "
    "so the evaluator's joins of this network break the row sums",
)
def test_the_row_sums_hold_on_the_evaluator_path_on_a_nonplanar_closure(open_nets):
    net = open_nets[NONPLANAR_ROW_SUMS]
    assert _row_sums(net, join_free_ends) == _free_end_casimirs(net)


# -- both identities on hypothesis-drawn networks ----------------------------

_grown_networks = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda seed: grown_network(random.Random(seed))
)


def _or_null(join, net, end_a, end_b):
    """join(net, end_a, end_b), or None where the state vanishes."""
    try:
        return join(net, end_a, end_b)
    except NullState:
        return None


@settings(deadline=None, max_examples=40)
@given(_grown_networks)
def test_the_exchange_identity_holds_on_grown_networks(net):
    # on the Born path for every ordered pair, on the evaluator where every
    # closure the exchange and the pair's join evaluate is planar
    for end_a, end_b in itertools.permutations(net.free_ends, 2):
        a, b = net.label(end_a), net.label(end_b)
        if a < 1:
            continue
        uid = net.fresh_id("u")
        split = split_unit(net, end_a, 1, unit_id=uid)
        pair = _or_null(born_join_distribution, net, end_a, end_b)
        exchanged = _or_null(born_join_distribution, split, End(uid, 1), end_b)
        assert (pair is None) == (exchanged is None)
        planar = mirror_closures_planar(net, end_a, end_b) and mirror_closures_planar(split, End(uid, 1), end_b)
        if pair is None:
            if planar:
                with pytest.raises(NullState):
                    exchange_experiment(net, end_a, end_b)
            continue
        p_up = _p_up_at_one_vertex(pair, a, b)
        assert p_up == exchanged.probability(b + 1)
        if planar:
            assert exchange_experiment(net, end_a, end_b).p_up == p_up
            assert _p_up_at_one_vertex(join_free_ends(net, end_a, end_b), a, b) == p_up


@settings(deadline=None, max_examples=40)
@given(_grown_networks)
def test_the_row_sums_hold_on_grown_networks(net):
    # on the Born path whenever every pair answers, on the evaluator when
    # also every pair's closures are planar
    pairs = list(itertools.combinations(net.free_ends, 2))
    if any(_or_null(born_join_distribution, net, *pair) is None for pair in pairs):
        return
    assert _row_sums(net, born_join_distribution) == _free_end_casimirs(net)
    if all(mirror_closures_planar(net, *pair) for pair in pairs):
        assert _row_sums(net, join_free_ends) == _free_end_casimirs(net)


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


@pytest.mark.parametrize("p", [True, False, "x", None, "0.5", [0.5], 0.5j])
def test_an_angle_comes_only_from_a_number(p):
    # a bool is not a probability, though it compares as 0 or 1
    with pytest.raises(OutOfRange):
        angle_from_probability(p)


@pytest.mark.parametrize("p, theta", [(1, 0.0), (0, math.pi), (0.5, math.pi / 2), (F(1, 2), math.pi / 2),
                                      (np.float64(0.25), 2 * math.pi / 3)])
def test_an_angle_still_comes_from_any_real_probability(p, theta):
    assert angle_from_probability(p) == pytest.approx(theta, abs=1e-15)


# -- splitting ----------------------------------------------------------------


def test_split_unit_structure():
    net = SpinNetwork.from_spec({"a": 3})
    out = split_unit(net, End("a", 0), 1)
    assert validate_network(out) == []
    labels = sorted(out.label(e) for e in out.free_ends)
    assert labels == [1, 2, 3]


def test_derived_networks_are_valid(open_nets):
    # what exchanges join without validating, a unit split off a valid
    # network's end, and that unit merged with another end at any label
    merges = 0
    for net in open_nets:
        for end in net.free_ends:
            if net.label(end) < 1:
                continue
            uid = net.fresh_id("u")
            split = split_unit(net, end, 1, unit_id=uid)
            assert validate_network(split) == []
            unit = End(uid, 1)
            for other in split.free_ends:
                if other == unit:
                    continue
                for c in admissible_couplings(1, split.label(other)):
                    assert validate_network(merge_free_ends(split, unit, other, c)) == []
                    merges += 1
    assert merges > 1000


def test_split_unit_rejects_bad_k():
    # a k that is not a label validate_network accepts is refused too, though
    # it lies in [0, 3] in value
    net = SpinNetwork.from_spec({"a": 3})
    for k in (-1, 4, 1.5, True, 1.0, F(1), "1"):
        with pytest.raises(InadmissibleSplit):
            split_unit(net, End("a", 0), k)
    with pytest.raises(NotAFreeEnd):
        split_unit(singlet_net(), End("a", 0), 1)
    # so is an end whose label is no label, on a network built directly
    for label in ("x", 2.5, True):
        with pytest.raises(InadmissibleSplit):
            split_unit(SpinNetwork((Edge("a", label),), ()), End("a", 0), 1)


@pytest.mark.parametrize("ids", [{"unit_id": "a"}, {"rest_id": "x1"}, {"unit_id": "p", "rest_id": "p"}])
def test_split_unit_refuses_ids_that_collide(ids):
    # with an edge id, with the vertex's fresh x1, and with each other
    with pytest.raises(InvalidNetwork, match="collide"):
        split_unit(SpinNetwork.from_spec({"a": 3}), End("a", 0), 1, **ids)


# -- angle matrices and geometry ----------------------------------------------


def test_angle_matrix_triplet_fixture():
    net = triplet_net()
    am = angle_matrix(net)
    assert am.ends == (End("a", 1), End("b", 1), End("t", 1))
    assert am.angle(End("a", 1), End("b", 1)) == 0.0
    assert am.angle(End("a", 1), End("t", 1)) == pytest.approx(math.pi)
    assert np.array_equal(am.angles, am.angles.T)


def test_angle_of_an_end_the_matrix_does_not_hold_is_refused():
    am = angle_matrix(triplet_net())
    for stranger in (End("v", 1), End("a", 0)):
        with pytest.raises(NotAFreeEnd, match=f"end {stranger.edge}:{stranger.side}"):
            am.angle(End("a", 1), stranger)
        with pytest.raises(NotAFreeEnd):
            am.angle(stranger, End("t", 1))


@pytest.mark.xfail(
    strict=True,
    reason="an exchange angle depends on which end gives the unit, and angle_matrix "
    "exchanges from the end declared first (ROADMAP item 16)",
)
def test_an_angle_does_not_depend_on_declaration_order():
    # at the vertex (a=2, b=1, x=1) a unit from a to b reads 2.094, one from
    # b to a reads pi
    vertex = [("v", ("a", "b", "x"))]
    one = angle_matrix(SpinNetwork.from_spec({"a": 2, "b": 1, "x": 1}, vertex))
    other = angle_matrix(SpinNetwork.from_spec({"b": 1, "a": 2, "x": 1}, vertex))
    assert one.angle(End("a", 1), End("b", 1)) == other.angle(End("a", 1), End("b", 1))


# The network of probe-warm's slowest request, `angles` on e0, u2, j4, e1: two
# of its pairs' own joins close nonplanar, and their split joins read wrong
# angles, which the benchmark's frozen reference holds.
TAIL_NET = (
    {"e0": 14, "e1": 13, "e2": 4, "j1": 14, "u2": 13, "r2": 1, "j3": 13, "j4": 14},
    [("w1", ("e0", "e2", "j1")), ("x2", ("j1", "u2", "r2")), ("w3", ("e2", "e1", "j3")), ("w4", ("j3", "r2", "j4"))],
)
TAIL_PAIRS = [(End("e0", 1), End("j4", 1)), (End("u2", 1), End("e1", 1))]


def test_the_tail_requests_wrong_pairs_refuse_their_own_joins():
    net = SpinNetwork.from_spec(*TAIL_NET)
    for end_a, end_b in TAIL_PAIRS:
        with pytest.raises(UnsupportedNetwork):
            join_free_ends(net, end_a, end_b)


def _born_p_up(net, end_a, end_b):
    # the Born rule on the network the exchange joins: end_a's split
    uid = net.fresh_id("u")
    split = split_unit(net, end_a, 1, unit_id=uid)
    return born_join_distribution(split, End(uid, 1), end_b).probability(net.label(end_b) + 1)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP items 1 and 19: the split's mirror closure is nonplanar too, and "
    "evaluate_closed misreads it without refusing; Born gives 502/2205 and 502/1911",
)
def test_the_tail_requests_exchanges_equal_the_born_rule():
    # the evaluator reads 525746/5060811 (angle 2.4852, Born 2.1468) and
    # 5890/8281 (angle 1.1346, Born 2.0653)
    net = SpinNetwork.from_spec(*TAIL_NET)
    got = [exchange_experiment(net, end_a, end_b).p_up for end_a, end_b in TAIL_PAIRS]
    assert got == [_born_p_up(net, end_a, end_b) for end_a, end_b in TAIL_PAIRS]


def _loose_vertices(count):
    """count disjoint vertices (1, 1, 2): 3 * count free ends, none of
    label 0."""
    labels, vertices = {}, []
    for k in range(count):
        labels.update({f"a{k}": 1, f"b{k}": 1, f"t{k}": 2})
        vertices.append((f"v{k}", (f"a{k}", f"b{k}", f"t{k}")))
    return SpinNetwork.from_spec(labels, vertices)


def test_an_angle_matrix_past_the_end_bound_is_too_large(monkeypatch):
    # k ends take k(k-1)/2 exchanges: past the bound the matrix is refused
    # before any exchange, and at the bound it measures every pair
    net = _loose_vertices(100)
    assert len(net.free_ends) == 300 and experiments.MAX_ANGLE_ENDS == 64

    def forbidden(*_args):
        raise AssertionError("a refused matrix runs no exchange")

    monkeypatch.setattr(experiments, "_exchange", forbidden)
    with pytest.raises(TooLarge, match="300 ends exceed the angle-matrix bound of 64"):
        angle_matrix(net)
    with pytest.raises(TooLarge, match="65 ends"):
        angle_matrix(net, net.free_ends[:65])
    pairs = []

    def counted(_split, _unit_end, end_b):
        pairs.append(end_b)
        return ExchangeResult(F(1))

    monkeypatch.setattr(experiments, "_exchange", counted)
    assert angle_matrix(net, net.free_ends[:64]).angles.shape == (64, 64)
    assert len(pairs) == 64 * 63 // 2


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


def test_geometry_takes_a_zero_tolerance(monkeypatch):
    # the verdict needs no margin where no eigenvalue is near zero
    monkeypatch.setattr(experiments, "_GEOMETRY_TOL", 0.0)
    ends = (End("x", 0), End("y", 0), End("z", 0))
    half = math.pi / 2
    square = np.full((3, 3), half) - np.diag([half] * 3)
    report = geometry_consistency(AngleMatrix(ends, square))
    assert report.embeddable and report.gram_residual == 0.0


# -- the spin-geometry law, in exact rationals --------------------------------


def _inertia(m):
    """(positive, zero, negative) eigenvalue counts of a symmetric matrix of
    Fractions, by congruence, which keeps them (Sylvester's law of inertia):
    one diagonal pivot eliminated at a time, and where every diagonal entry
    left is zero but an entry a_ij is not, row and column j added to row and
    column i, which makes the pivot a_ii = 2·a_ij."""
    a = [list(row) for row in m]
    counts = [0, 0, 0]
    while a:
        k = next((i for i, row in enumerate(a) if row[i]), None)
        if k is None:
            nonzero = next(((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x), None)
            if nonzero is None:
                counts[1] += len(a)
                break
            i, j = nonzero
            for row in a:
                row[i] += row[j]
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            k = i
        pivot = a[k][k]
        counts[0 if pivot > 0 else 2] += 1
        a = [
            [a[r][c] - a[r][k] * a[k][c] / pivot for c in range(len(a)) if c != k]
            for r in range(len(a)) if r != k
        ]
    return tuple(counts)


# (positive, zero, negative) eigenvalue counts of the couplings M of
# open_corpus() networks with five or more free ends, on both paths: M is
# the Gram matrix of the ends' spins J_i, which sum to 0, and its rank
# passes 3, so the ends' couplings do not fit 3-space (ROADMAP item 18)
_COUPLING_INERTIA = {
    14: (4, 3, 0), 47: (4, 3, 0), 105: (4, 3, 0), 142: (4, 3, 0),
    37: (4, 1, 0), 179: (4, 1, 0),
    146: (5, 2, 0),
}


@pytest.mark.parametrize("join", [join_free_ends, born_join_distribution])
def test_the_couplings_have_their_exact_rank(open_nets, join):
    for k, want in _COUPLING_INERTIA.items():
        assert _inertia(_couplings(open_nets[k], join)) == want, k


def test_the_couplings_of_four_ends_have_rank_three_on_the_born_path(open_nets):
    # four spins summing to 0 span at most 3 directions; the evaluator reads
    # (4, 0, 0) here, item 1's defect, which the row-sum xfail pins
    assert _inertia(_couplings(open_nets[NONPLANAR_ROW_SUMS], born_join_distribution)) == (3, 1, 0)


def test_inertia_counts_match_the_eigenvalues():
    rng = random.Random(20261020)
    for _ in range(200):
        k = rng.randrange(1, 6)
        m = [[F(rng.randrange(-2, 3)) for _ in range(k)] for _ in range(k)]
        # symmetric, with a zero diagonal at even sizes to force the pair step
        m = [[m[i][j] + m[j][i] if i != j else m[i][i] * (k % 2) for j in range(k)] for i in range(k)]
        rows = [[F(rng.randrange(-2, 3)) for _ in range(k)] for _ in range(rng.randrange(1, k + 1))]
        gram = [[sum(r[i] * r[j] for r in rows) for j in range(k)] for i in range(k)]
        for matrix in (m, gram):
            eig = np.linalg.eigvalsh(np.array(matrix, dtype=float))
            want = (int(np.sum(eig > 1e-9)), int(np.sum(np.abs(eig) <= 1e-9)), int(np.sum(eig < -1e-9)))
            assert _inertia(matrix) == want


def _exact_gram(net, ends):
    """G_ij = cos(theta_ij) = 2·p_up - 1 from each pair's exchange, diagonal 1."""
    gram = [[F(1)] * len(ends) for _ in ends]
    for i, j in itertools.combinations(range(len(ends)), 2):
        gram[i][j] = gram[j][i] = 2 * exchange_experiment(net, ends[i], ends[j]).p_up - 1
    return gram


def test_chain_gram_is_positive_definite_with_least_eigenvalue_two_over_n_plus_one():
    # ROADMAP item 11: the chain's four free ends never fit 3-space, and
    # their distance from it is exactly 2/(n+1)
    for n in range(2, 129, 2):
        chain = SpinNetwork.from_spec(dict.fromkeys("abcde", n), [("u", "abc"), ("w", "cde")])
        gram = _exact_gram(chain, [End(e, 1) for e in "abde"])
        shifted = [[x - F(2, n + 1) if i == j else x for j, x in enumerate(row)] for i, row in enumerate(gram)]
        assert _inertia(gram) == (4, 0, 0), n
        assert _inertia(shifted) == ((2, 2, 0) if n == 2 else (3, 1, 0)), n


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_aligned_triple_gram_has_rank_one(n):
    gram = _exact_gram(aligned_triple(n), [End("eA", 1), End("eB", 1), End("eC", 1)])
    assert _inertia(gram) == (1, 2, 0)


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


@pytest.mark.parametrize("entry", ["exchange_experiment", "stability_measure", "join_free_ends", "born_join_distribution"])
def test_an_end_is_not_exchanged_with_itself(entry):
    # refused as a repeated end, not as an attached one: the end is free
    net = SpinNetwork.from_spec({"a": 2, "b": 2})
    with pytest.raises(NotAFreeEnd, match="with itself"):
        _END_TAKERS[entry](net, End("a", 0), End("a", 0))


# -- stability -----------------------------------------------------------------


def _inadmissible_net(a=1, b=1, c=1):
    # one vertex whose labels break parity, such as (1, 1, 1)
    return SpinNetwork(
        (Edge("a", a), Edge("b", b), Edge("c", c)),
        (Vertex("v", (End("a", 0), End("b", 0), End("c", 0))),),
    )


@pytest.mark.parametrize("repetitions", [0, 1])
def test_stability_refuses_an_invalid_network_also_with_no_repetitions(repetitions):
    with pytest.raises(InvalidNetwork):
        stability_measure(_inadmissible_net(), End("a", 1), End("b", 1), repetitions, 1)


# each probe on a network with three free ends a:1, b:1, c:1 and a spare
# unit on a: three exchanges, or three repetitions, join three splits
_PROBES = {
    "exchange_experiment": lambda net: exchange_experiment(net, End("a", 1), End("b", 1)),
    "angle_matrix": lambda net: angle_matrix(net, [End("a", 1), End("b", 1), End("c", 1)]),
    "stability_measure": lambda net: stability_measure(net, End("a", 1), End("b", 1), 3, 1),
}


@pytest.mark.parametrize(
    "entry", ["exchange_experiment", "angle_matrix", "stability_measure", "join_free_ends", "born_join_distribution"]
)
def test_a_probe_validates_before_it_reads_a_label(entry):
    # a network built directly with a label that cannot be compared: each
    # probe refuses it as invalid, as the joins do, before any label is read
    net = SpinNetwork((Edge("a", "x"), Edge("b", 1)), ())
    with pytest.raises(InvalidNetwork):
        _END_TAKERS[entry](net, End("a", 1), End("b", 1))


@pytest.mark.parametrize("entry", sorted(_PROBES))
def test_a_probe_validates_its_network_once(monkeypatch, entry):
    import spinnet.evaluator as ev
    import spinnet.experiments as ex

    calls = 0
    validate = ex.validate_network

    def counted(net):
        nonlocal calls
        calls += 1
        return validate(net)

    for owner in (ex, ev):
        monkeypatch.setattr(owner, "validate_network", counted)
    net = SpinNetwork.from_spec({"a": 4, "b": 3, "c": 3}, [("v", ("a", "b", "c"))])
    _PROBES[entry](net)
    assert calls == 1
    with pytest.raises(InvalidNetwork):
        _PROBES[entry](_inadmissible_net(4, 3, 2))


def test_an_angle_matrix_splits_each_end_once(monkeypatch):
    import spinnet.experiments as ex

    splits = []
    split = ex.split_unit

    def counted(net, end, *args, **kwargs):
        splits.append(end)
        return split(net, end, *args, **kwargs)

    monkeypatch.setattr(ex, "split_unit", counted)
    net = SpinNetwork.from_spec({"a": 2, "b": 2, "c": 2, "d": 2})
    ends = [End("a", 0), End("b", 1), End("c", 0), End("d", 1)]
    angle_matrix(net, ends)
    assert splits == ends[:-1]


def test_a_stability_run_joins_once_and_commits_nothing(monkeypatch):
    import spinnet.experiments as ex

    joins = []
    join = ex._join

    def counted(net, end_a, end_b):
        joins.append((end_a, end_b))
        return join(net, end_a, end_b)

    def forbidden(*_args, **_kwargs):
        raise AssertionError("a stability run splits and merges no network")

    monkeypatch.setattr(ex, "_join", counted)
    monkeypatch.setattr(ex, "split_unit", forbidden)
    monkeypatch.setattr(ex, "merge_free_ends", forbidden)
    net = SpinNetwork.from_spec({"a": 4, "b": 3, "c": 3}, [("v", ("a", "b", "c"))])
    assert len(stability_measure(net, End("a", 1), End("b", 1), 3, 1).angles) == 3
    assert joins == [(End("a", 1), End("b", 1))]
    stability_measure(net, End("a", 1), End("b", 1), 0, 1)
    assert len(joins) == 1


def test_an_exchange_refuses_an_end_its_split_would_make():
    # the split adds edges u1 and r1; neither is an end of the network given
    net = SpinNetwork.from_spec({"a": 2, "b": 2})
    for end_b in (End("r1", 1), End("u1", 1)):
        with pytest.raises(NotAFreeEnd):
            exchange_experiment(net, End("a", 0), end_b)


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


@pytest.mark.parametrize("repetitions", [True, False, 2.0, 1.5, "2", None])
def test_stability_refuses_a_repetition_count_that_is_not_an_int(monkeypatch, repetitions):
    # refused before any join is made
    def no_join(*_args):
        raise AssertionError("a refused run must not join")

    monkeypatch.setattr(experiments, "_join", no_join)
    net = SpinNetwork.from_spec({"a": 4, "b": 4})
    with pytest.raises(OutOfRange):
        stability_measure(net, End("a", 0), End("b", 0), repetitions, rng_seed=1)


@pytest.mark.parametrize("rng_seed", [None, 1.5, "x", [1], True, False])
def test_stability_refuses_a_seed_that_is_not_an_int(monkeypatch, rng_seed):
    # None would seed from the OS, so one seed would not give one report;
    # refused before any join is made
    def no_join(*_args):
        raise AssertionError("a refused run must not join")

    monkeypatch.setattr(experiments, "_join", no_join)
    net = SpinNetwork.from_spec({"a": 4, "b": 4})
    with pytest.raises(OutOfRange):
        stability_measure(net, End("a", 0), End("b", 0), 2, rng_seed=rng_seed)


def test_stability_is_deterministic_given_seed():
    net = SpinNetwork.from_spec({"a": 6, "b": 6})
    one = stability_measure(net, End("a", 0), End("b", 0), 5, rng_seed=42)
    two = stability_measure(net, End("a", 0), End("b", 0), 5, rng_seed=42)
    assert one == two
    assert len(one.angles) == 5
    assert one.max_drift == max(abs(t - one.angles[0]) for t in one.angles)


def _committing_stability(net, end_a, end_b, repetitions, rng_seed):
    """The stability run computed the way it is defined, kept as the
    reference for stability_measure: each repetition splits a unit off the
    tracked end, reads the exchange from the split's join, and commits the
    join at the sampled label, so the network grows by two vertices a
    repetition and every exchange closes the whole history."""
    if repetitions < 0:
        raise OutOfRange(f"repetitions must be >= 0, got {repetitions}")
    if end_a == end_b:
        raise NotAFreeEnd("cannot exchange an end with itself")
    for end in (end_a, end_b):
        if not net.is_free(end):
            raise NotAFreeEnd(f"end {end.edge}:{end.side} is not a free end")
    if net.label(end_a) < repetitions:
        raise ExhaustedEnd(f"end {end_a.edge}:{end_a.side} would reach 0")
    if validate_network(net):
        raise InvalidNetwork(validate_network(net))
    rng = random.Random(rng_seed)

    angles, outcomes = [], []
    current, cur_a, cur_b = net, end_a, end_b
    for _ in range(repetitions):
        uid, rid = current.fresh_id("u"), current.fresh_id("r")
        split = split_unit(current, cur_a, 1, unit_id=uid, rest_id=rid)
        b = current.label(cur_b)
        p_up = join_free_ends(split, End(uid, 1), cur_b).probability(b + 1)
        angles.append(angle_from_probability(p_up))
        c = b + 1 if rng.random() < float(p_up) else b - 1
        outcomes.append(c)
        jid = split.fresh_id("j")  # the id merge_free_ends gives the joined unit
        current = merge_free_ends(split, End(uid, 1), cur_b, c)
        cur_a, cur_b = End(rid, 1), End(jid, 1)

    return StabilityReport(tuple(angles), tuple(outcomes))


def _report_or_refusal(run, *args):
    try:
        return run(*args)
    except SpinNetError as exc:
        return type(exc)


@pytest.mark.parametrize("seed", [1, 2])
def test_stability_equals_the_committing_run_on_the_open_corpus(open_nets, seed):
    runs = refused = 0
    for net in open_nets:
        for end_a, end_b in itertools.permutations(net.free_ends, 2):
            args = (net, end_a, end_b, min(net.label(end_a), 6), seed)
            report = _report_or_refusal(stability_measure, *args)
            assert report == _report_or_refusal(_committing_stability, *args)
            runs += 1
            refused += not isinstance(report, StabilityReport)
    assert runs == 2614
    assert 0 < refused < runs // 2


def test_stability_equals_the_committing_run_on_long_runs():
    singlet = SpinNetwork.from_spec({"a": 64, "b": 64, "s": 0}, [("v", ("a", "b", "s"))])
    args = (singlet, End("a", 1), End("b", 1), 64, 1)
    assert stability_measure(*args) == _committing_stability(*args)
    # a chain (a, b, c | c, d, e) at label 12, where the tracked pair's label
    # takes 13 values and both outcomes occur
    chain = SpinNetwork.from_spec(dict.fromkeys("abcde", 12), [("u", "abc"), ("w", "cde")])
    for seed in (1, 2, 3):
        args = (chain, End("a", 1), End("d", 1), 12, seed)
        report = stability_measure(*args)
        assert report == _committing_stability(*args)
        assert len(set(report.outcomes)) > 2


def test_a_long_stability_run_has_a_bounded_cost(fresh_cache):
    # committing every repetition made a run cost r^3: tens of seconds here
    net = SpinNetwork.from_spec({"a": 256, "b": 256, "s": 0}, [("v", ("a", "b", "s"))])
    start = time.perf_counter()
    report = stability_measure(net, End("a", 1), End("b", 1), 256, rng_seed=1)
    assert time.perf_counter() - start < 2.0
    assert report.outcomes == tuple(range(255, -1, -1))
    assert report.angles == (math.pi,) * 256 and report.max_drift == 0.0


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=0, max_value=10_000))
def test_stability_drift_small_on_large_ends(seed):
    net = SpinNetwork.from_spec({"a": 40, "b": 40, "t": 80},
                                [("v", ("a", "b", "t"))])
    report = stability_measure(net, End("a", 1), End("b", 1), 3, rng_seed=seed)
    assert report.angles[0] == 0.0  # aligned preparation
    assert report.max_drift < 0.35


# -- every probe on the open corpus --------------------------------------------


def _probe_answer(run, *args) -> str:
    try:
        result = run(*args)
    except SpinNetError as exc:
        return type(exc).__name__
    if isinstance(result, ExchangeResult):
        return f"exchange {result.p_up} {result.p_down} {result.theta!r}"
    if isinstance(result, AngleMatrix):
        return f"angles {result.ends!r} {result.angles.tolist()!r}"
    return f"stability {result.angles!r} {result.outcomes!r} {result.max_drift!r}"


def test_the_open_corpus_probes_answer_as_before(open_nets):
    # a digest of every exchange and stability run over each ordered pair of
    # free ends, and of both angle matrices (all ends, ends of label >= 1) of
    # every open-corpus network, taken before exchanges validated once and
    # split each end once
    answers = []
    for net in open_nets:
        for end_a, end_b in itertools.permutations(net.free_ends, 2):
            answers.append(_probe_answer(exchange_experiment, net, end_a, end_b))
            reps = min(net.label(end_a), 3)
            answers.append(_probe_answer(stability_measure, net, end_a, end_b, reps, len(answers)))
        answers.append(_probe_answer(angle_matrix, net))
        answers.append(_probe_answer(angle_matrix, net, [e for e in net.free_ends if net.label(e) >= 1]))
    assert len(answers) == 5668
    assert sum(a.startswith("exchange") for a in answers) == 1812
    assert sum(a.startswith("stability") for a in answers) == 2288
    assert sum(a.startswith("angles") for a in answers) == 242
    h = hashlib.sha256()
    for answer in answers:
        h.update(answer.encode() + b"\n")
    assert h.hexdigest() == "619f913e0f4ec78f1e38bb477b2f362284e58abbca21070a19eef8b33d2ab93b"


def test_angle_matrices_and_geometry_reports_compare_by_identity():
    # they hold numpy arrays, whose == is elementwise, so equality is identity
    net = SpinNetwork.from_spec({"a": 2, "b": 2, "c": 2}, [("v", ("a", "b", "c"))])
    am, again = angle_matrix(net), angle_matrix(net)
    report = geometry_consistency(am)
    for x, y in ((am, again), (report, geometry_consistency(again))):
        assert x == x and x != y
        assert hash(x) == hash(x)
