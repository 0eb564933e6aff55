import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spinnet.dsl import parse_network

from netgen import (
    cube_net,
    cycle_labelled_net,
    dumbbell_net,
    free_end_pairs,
    perfbench_workloads,
    prism_net,
    random_cubic_graph,
    reference_mirror_closure,
    tet_net,
    theta_net,
)
from spinnet import evaluator as ev
from spinnet.errors import (
    HasFreeEnds,
    InadmissibleTriple,
    InvalidNetwork,
    NullState,
    OutOfRange,
    SpinNetError,
    TooLarge,
    UnsupportedNetwork,
)
from spinnet.evaluator import (
    EvalCache,
    evaluate_closed,
    loop_value,
    recoupling_coefficient,
    strand_expansion_oracle,
    tet_value,
    theta_value,
)
from spinnet.experiments import join_free_ends
from spinnet.hilbert import wigner_6j
from spinnet.model import (
    Edge,
    End,
    SpinNetwork,
    Vertex,
    admissible_couplings,
    merge_free_ends,
    vertex_admissible,
)
from spinnet.radical import Radical

THETA_CASES = [
    (1, 1, 0), (1, 1, 2), (2, 2, 2), (2, 2, 0), (3, 3, 0), (2, 1, 1),
    (3, 2, 1), (2, 2, 4), (3, 3, 2), (4, 3, 1), (3, 3, 4),
]
TET_CASES = [
    (1, 1, 1, 1, 2, 2), (1, 1, 1, 1, 0, 2), (1, 1, 1, 1, 2, 0),
    (2, 2, 2, 2, 2, 2), (2, 1, 1, 2, 2, 3), (3, 1, 1, 3, 2, 4),
    (2, 2, 2, 2, 4, 2), (1, 1, 2, 2, 1, 2), (2, 2, 2, 2, 0, 4),
]


def test_loop_values():
    assert loop_value(0) == 1
    for n in range(8):
        assert loop_value(n) == (-1) ** n * (n + 1)
        assert abs(loop_value(n)) == n + 1


@pytest.mark.parametrize("bad", [-1, 2.5, 1.0, True, False, "3", None])
def test_loop_value_refuses_a_value_that_is_not_a_label(bad):
    with pytest.raises(OutOfRange):
        loop_value(bad)


@given(st.integers(min_value=0, max_value=8))
def test_theta_with_zero_leg_is_a_loop(n):
    assert theta_value(n, n, 0) == loop_value(n)


def test_theta_rejects_inadmissible(fresh_cache):
    # labels are checked when a lookup misses; a refused call leaves no trace
    theta_value(1, 1, 2)
    with pytest.raises(InadmissibleTriple):
        theta_value(1, 1, 1)
    assert ev.default_cache().stats == {"size": 1, "hits": 0, "misses": 1}


@pytest.mark.parametrize("labels", THETA_CASES)
def test_theta_matches_strand_oracle(labels):
    net = theta_net(*labels)
    assert strand_expansion_oracle(net) == theta_value(*labels)
    assert evaluate_closed(net) == theta_value(*labels)


def test_tet_rejects_inadmissible_vertex(fresh_cache):
    tet_value(1, 1, 1, 1, 2, 2)
    with pytest.raises(InadmissibleTriple):
        tet_value(1, 1, 1, 1, 1, 1)
    # a tet is computed where it is asked for and stores nothing
    assert ev.default_cache().stats == {"size": 0, "hits": 0, "misses": 0}


@pytest.mark.parametrize("fn, labels, bad", [
    (theta_value, (1, 1, 2), (1, 1, 2.0)),
    (theta_value, (1, 1, 2), (True, 1, 2)),
    (tet_value, (1, 1, 1, 1, 0, 0), (1.0, 1, 1, 1, 0, 0)),
    (tet_value, (1, 1, 1, 1, 2, 2), (1, 1, 1, True, 2, 2)),
    (recoupling_coefficient, (1, 1, 1, 1, 0, 2), (1, 1, 1, 1, 0, 2.0)),
    (recoupling_coefficient, (1, 1, 1, 1, 2, 0), (True, 1, 1, 1, 2, 0)),
])
def test_a_label_that_is_not_an_int_is_refused_once_its_key_is_cached(fresh_cache, fn, labels, bad):
    # a float or bool label's key equals the int one's: the label types are
    # checked on every call, not only when the lookup misses
    fn(*labels)
    stats = fresh_cache.stats
    with pytest.raises(InadmissibleTriple):
        fn(*bad)
    assert fresh_cache.stats == stats


def test_degenerate_tet_reduces_to_theta():
    # an f=0 rung welds the two (a,b,·) vertices into a theta
    assert tet_value(1, 1, 1, 1, 2, 0) == theta_value(1, 1, 2)


@pytest.mark.parametrize("labels", TET_CASES)
def test_tet_matches_strand_oracle(labels):
    net = tet_net(*labels)
    want = tet_value(*labels)
    assert strand_expansion_oracle(net) == want
    assert evaluate_closed(net) == want


def _tet_relabelings() -> list[tuple[int, ...]]:
    """The 24 permutations of tet_value's six arguments that relabeling the
    tetrahedron's four vertices w, x, y, z induces: argument k labels the
    edge between the pair of vertices at index k below."""
    pairs = ["wy", "xy", "xz", "wz", "wx", "yz"]
    index = {frozenset(pair): k for k, pair in enumerate(pairs)}
    perms = set()
    for sigma in itertools.permutations("wxyz"):
        image = dict(zip("wxyz", sigma))
        perms.add(tuple(index[frozenset(image[v] for v in pairs[k])] for k in range(6)))
    return sorted(perms)


TET_RELABELINGS = _tet_relabelings()


@st.composite
def _admissible_tets(draw, top=12):
    """Labels (a, b, c, d, e, f) up to top whose four vertex triples
    (a,d,e), (b,c,e), (a,b,f), (c,d,f) are admissible."""
    label = st.integers(min_value=0, max_value=top)
    a, b, d = draw(label), draw(label), draw(label)
    e = draw(st.sampled_from([x for x in admissible_couplings(a, d) if x <= top]))
    f = draw(st.sampled_from([x for x in admissible_couplings(a, b) if x <= top]))
    cs = [x for x in admissible_couplings(b, e) if x <= top and x in admissible_couplings(d, f)]
    assume(cs)
    return a, b, draw(st.sampled_from(cs)), d, e, f


@settings(deadline=None, max_examples=200)
@given(_admissible_tets())
def test_tet_is_invariant_under_the_24_vertex_relabelings(labels):
    # no key stands in for the tet's symmetry: each relabeling is summed anew
    assert len(TET_RELABELINGS) == 24
    value = tet_value(*labels)
    for perm in TET_RELABELINGS:
        assert tet_value(*(labels[i] for i in perm)) == value, perm


def test_the_evaluator_keeps_no_memo_outside_the_process_cache():
    # a functools memo would survive default_cache().clear()
    assert [name for name, obj in vars(ev).items() if hasattr(obj, "cache_info")] == []


def test_tet_symmetry_under_vertex_relabelings():
    # rotating the tetrahedron 180 degrees maps (a,b,c,d,e,f) -> (c,d,a,b,e,f)
    assert tet_value(2, 1, 1, 2, 2, 3) == tet_value(1, 2, 2, 1, 2, 3)
    assert tet_value(3, 1, 1, 3, 2, 4) == tet_value(1, 3, 3, 1, 2, 4)


def _racah_tet(a, b, c, d, e, f):
    """The tet value as the plain Racah sum: each term built from its own
    factorials."""
    half_sums = ((a + d + e) // 2, (b + c + e) // 2, (a + b + f) // 2, (c + d + f) // 2)
    pair_sums = ((b + d + e + f) // 2, (a + c + e + f) // 2, (a + b + c + d) // 2)
    interior = 1
    for bj in pair_sums:
        for ai in half_sums:
            interior *= math.factorial(bj - ai)
    exterior = 1
    for lbl in (a, b, c, d, e, f):
        exterior *= math.factorial(lbl)
    total = Fraction(0)
    for s in range(max(half_sums), min(pair_sums) + 1):
        term = Fraction(math.factorial(s + 1))
        for ai in half_sums:
            term /= math.factorial(s - ai)
        for bj in pair_sums:
            term /= math.factorial(bj - s)
        total += -term if s % 2 else term
    return Fraction(interior, exterior) * total


def test_term_ratio_tet_equals_the_racah_sum():
    rng = random.Random(20261018)
    checked = 0
    while checked < 3000:
        # every label at most 40, and every vertex triple admissible
        a, b, d = (rng.randint(0, 40) for _ in range(3))
        e = rng.choice([x for x in admissible_couplings(a, d) if x <= 40])
        f = rng.choice([x for x in admissible_couplings(a, b) if x <= 40])
        cs = [x for x in admissible_couplings(b, e) if x <= 40 and x in admissible_couplings(d, f)]
        if not cs:
            continue
        labels = (a, b, rng.choice(cs), d, e, f)
        assert tet_value(*labels) == _racah_tet(*labels), labels
        checked += 1


def test_evaluate_empty_network():
    assert evaluate_closed(SpinNetwork((), ())) == 1


def test_evaluate_is_multiplicative_over_components():
    one = theta_net(2, 2, 2)
    both = SpinNetwork.from_spec(
        {"x": 2, "y": 2, "z": 2, "p": 1, "q": 1, "r": 2},
        [("u", ("x", "y", "z")), ("v", ("x", "y", "z")),
         ("s", ("p", "q", "r")), ("t", ("p", "q", "r"))],
    )
    assert evaluate_closed(both) == evaluate_closed(one) * theta_value(1, 1, 2)


def test_evaluate_rejects_open_or_invalid():
    # the message names every free end, in edge order, side 0 first
    with pytest.raises(HasFreeEnds, match="^network has free ends: a:0, a:1$"):
        evaluate_closed(SpinNetwork.from_spec({"a": 1}))
    open_net = SpinNetwork.from_spec({"a": 1, "b": 1, "c": 2, "d": 0}, [("v", "abc")])
    with pytest.raises(HasFreeEnds, match="^network has free ends: a:1, b:1, c:1, d:0, d:1$"):
        evaluate_closed(open_net)
    bad = SpinNetwork(
        (Edge("x", 1), Edge("y", 1), Edge("z", 1)),
        (
            Vertex("u", (End("x", 0), End("y", 0), End("z", 0))),
            Vertex("v", (End("x", 1), End("y", 1), End("z", 1))),
        ),
    )
    with pytest.raises(InvalidNetwork):
        evaluate_closed(bad)


def test_tadpole_with_nonzero_bridge_vanishes():
    assert evaluate_closed(dumbbell_net(1, 1, 2)) == 0
    assert strand_expansion_oracle(dumbbell_net(1, 1, 2)) == 0


def test_prism_and_cube_match_oracle():
    prism = prism_net(1, 1, 2, 1, 1, 2, 2, 1, 1)
    assert evaluate_closed(prism) == strand_expansion_oracle(prism)
    cube = cube_net(1, 2)
    assert evaluate_closed(cube) == strand_expansion_oracle(cube)


def test_oracle_size_guard():
    assert strand_expansion_oracle(theta_net(4, 4, 2)) is not None  # 10 strands
    with pytest.raises(TooLarge):
        strand_expansion_oracle(theta_net(8, 8, 4))  # 20 strands


def test_a_label_past_the_closed_form_bound_is_too_large(fresh_cache):
    top = ev.MAX_CLOSED_FORM_LABEL
    assert evaluate_closed(theta_net(top, top, 2)) == theta_value(top, top, 2)
    with pytest.raises(TooLarge, match="closed-form bound"):
        evaluate_closed(theta_net(top + 1, top + 1, 2))
    with pytest.raises(TooLarge, match="closed-form bound"):
        tet_value(top + 1, top + 1, top + 1, top + 1, 2, 2)
    # a move factor past the bound is refused by its tet and stores nothing
    size = len(fresh_cache)
    with pytest.raises(TooLarge, match="closed-form bound"):
        recoupling_coefficient(top + 1, top + 1, top + 1, top + 1, 2, 2)
    with pytest.raises(TooLarge, match="closed-form bound"):
        evaluate_closed(tet_net(top + 1, top + 1, top + 1, top + 1, 2, 2))
    assert len(fresh_cache) == size


_IMPORT_CHECK = """
import sys
import spinnet.model, spinnet.dsl, spinnet.evaluator, spinnet.experiments
import spinnet.hilbert, spinnet.dynamics, spinnet.radical, spinnet.cli
from spinnet.evaluator import strand_expansion_oracle, theta_value
from spinnet.model import SpinNetwork
assert "networkx" not in sys.modules, "importing spinnet loaded networkx"
theta = SpinNetwork.from_spec({"x": 2, "y": 2, "z": 2}, [("u", ("x", "y", "z")), ("v", ("x", "y", "z"))])
assert strand_expansion_oracle(theta) == theta_value(2, 2, 2)
assert "networkx" in sys.modules
"""


def test_only_the_strand_oracle_loads_networkx():
    """networkx is the strand oracle's alone: a fresh interpreter that
    imports every spinnet module has not loaded it until the oracle runs."""
    src = str(Path(ev.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CHECK],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=0, max_value=2**30))
def test_reduction_independent_of_declaration_order(seed):
    rng = random.Random(seed)
    edges = list({"t1": 1, "t2": 1, "t3": 2, "u1": 1, "u2": 1, "u3": 2,
                  "m1": 2, "m2": 1, "m3": 1}.items())
    verts = [
        ("a1", ["t1", "t2", "m1"]), ("a2", ["t2", "t3", "m2"]),
        ("a3", ["t3", "t1", "m3"]), ("b1", ["u1", "u2", "m1"]),
        ("b2", ["u2", "u3", "m2"]), ("b3", ["u3", "u1", "m3"]),
    ]
    rng.shuffle(edges)
    rng.shuffle(verts)
    for _vid, eids in verts:
        rng.shuffle(eids)
    shuffled = SpinNetwork.from_spec(edges, verts)
    reference = prism_net(1, 1, 2, 1, 1, 2, 2, 1, 1)
    assert evaluate_closed(shuffled) == evaluate_closed(reference)
    assert strand_expansion_oracle(shuffled) == evaluate_closed(reference)


def test_cold_and_warm_cache_agree(fresh_cache):
    net = tet_net(2, 2, 2, 2, 2, 2)
    cold = evaluate_closed(net)
    warm = evaluate_closed(net)
    assert fresh_cache.hits > 0
    assert cold == warm


def test_each_request_records_traffic_on_the_process_cache(fresh_cache):
    from spinnet.hilbert import born_join_distribution

    triplet = SpinNetwork.from_spec({"a": 1, "b": 1, "t": 2}, [("v", ("a", "b", "t"))])
    requests = [
        lambda: evaluate_closed(tet_net(2, 2, 2, 2, 2, 2)),
        lambda: join_free_ends(triplet, End("a", 1), End("b", 1)),
        lambda: born_join_distribution(triplet, End("a", 1), End("b", 1)),
    ]
    for request in requests:
        fresh_cache.clear()
        request()
        assert fresh_cache.misses > 0 and len(fresh_cache) == fresh_cache.misses
        request()
        assert fresh_cache.hits > 0 and len(fresh_cache) == fresh_cache.misses


def test_a_bounded_cache_evicts_the_least_recently_used():
    cache = EvalCache(2)
    computed = []

    def compute(key):
        computed.append(key)
        return key.upper()

    for key in "abac":  # store a, store b, hit a, store c: b goes
        assert cache.get_or(key, compute, key) == key.upper()
    assert computed == ["a", "b", "c"]
    assert cache.get_or("a", compute, "a") == "A"
    assert cache.get_or("b", compute, "b") == "B"
    assert computed == ["a", "b", "c", "b"]
    assert cache.stats == {"size": 2, "hits": 2, "misses": 4}


@pytest.mark.parametrize("bound", [True, False, 1.5, 2.0, "2", 0, -1])
def test_a_cache_bound_must_be_an_int_at_least_1(bound):
    # as SPINNET_CACHE_SIZE is parsed: True would keep max_entries=True,
    # and 1.5 would run as a one-entry cache
    with pytest.raises(OutOfRange):
        EvalCache(bound)


def test_get_or_passes_its_arguments_and_keeps_nothing_from_a_failed_compute():
    cache = EvalCache()
    assert cache.get_or(("sum", 1, 2, 3), lambda *xs: sum(xs), 1, 2, 3) == 6
    with pytest.raises(ValueError):
        cache.get_or(("int", "x"), int, "x")
    assert cache.get_or(("sum", 1, 2, 3), int, "x") == 6
    assert cache.stats == {"size": 1, "hits": 1, "misses": 1}


def _tet_over_thetas(a, b, c, d, e, f):
    """tet / sqrt|theta(a,d,e) theta(b,c,e) theta(a,b,f) theta(c,d,f)|,
    exact and signed: Penrose's bridge from a tetrahedral network to the
    6j symbol {a/2 d/2 e/2; c/2 b/2 f/2}."""
    norm = theta_value(a, d, e) * theta_value(b, c, e) * theta_value(a, b, f) * theta_value(c, d, f)
    return Radical(tet_value(a, b, c, d, e, f)) / Radical.sqrt(abs(norm))


def _wigner_six_j(a, b, c, d, e, f):
    return wigner_6j(*(Fraction(x, 2) for x in (a, d, e, c, b, f)))


# at label 600 the four thetas' product is far past a float; the identity
# is exact there too
@pytest.mark.parametrize("labels", TET_CASES + [(600,) * 6])
def test_six_j_bridge(labels):
    assert _tet_over_thetas(*labels) == _wigner_six_j(*labels)


def test_six_j_bridge_sweep():
    # the evaluator's tet, normalised by its four thetas, is the 6j of the
    # independent Racah formula in hilbert, sign included, on every
    # admissible labelling with labels 0-6
    checked = zero = 0
    for labels in itertools.product(range(7), repeat=6):
        a, b, c, d, e, f = labels
        if not all(vertex_admissible(*t) for t in ((a, d, e), (b, c, e), (a, b, f), (c, d, f))):
            continue
        got = _tet_over_thetas(*labels)
        assert got == _wigner_six_j(*labels), labels
        checked += 1
        zero += got.is_zero()
    assert (checked, zero) == (3418, 10)


def _recoupling_admissible(a, b, c, d, j, i):
    return all(vertex_admissible(*t) for t in ((a, b, j), (c, d, j), (a, d, i), (b, c, i)))


def test_recoupling_coefficient_is_loop_times_tet_over_thetas():
    large = [(384,) * 6, (600,) * 6, (384, 384, 600, 600, 768, 216), (600, 384, 600, 384, 600, 216)]
    assert all(_recoupling_admissible(*labels) for labels in large)
    small = [labels for labels in itertools.product(range(7), repeat=6) if _recoupling_admissible(*labels)]
    for a, b, c, d, j, i in small + large:
        want = loop_value(i) * tet_value(a, b, c, d, i, j) / (theta_value(a, d, i) * theta_value(b, c, i))
        got = recoupling_coefficient(a, b, c, d, j, i)
        assert type(got) is Fraction and got == want, (a, b, c, d, j, i)


@pytest.mark.parametrize("labels", [(1, 1, 1, 1, 2, 1), (2, 2, 2, 2, 2, 6), (1, 1, 1, 1, 1, 0)])
def test_recoupling_coefficient_refuses_inadmissible_labels(labels):
    assert not _recoupling_admissible(*labels)
    with pytest.raises(InadmissibleTriple):
        recoupling_coefficient(*labels)


def _family(cache, a, b, c, d, j):
    """The recoupling family of (a, b, c, d, j) as the label step reads it:
    looked up in cache, built on a miss."""
    return cache.get_or(("recoupling", a, b, c, d, j), ev._recoupling_family, a, b, c, d, j)


def _family_steps(top):
    """Every (a, b, c, d, j) with labels up to top at which a recoupling
    step can stand: (a, b, j) and (c, d, j) admissible."""
    return [(a, b, c, d, j) for a, b, c, d, j in itertools.product(range(top + 1), repeat=5)
            if vertex_admissible(a, b, j) and vertex_admissible(c, d, j)]


def test_a_warm_recoupling_coefficient_equals_a_cold_one(fresh_cache):
    # each family built on a cache the others have warmed equals the one
    # built on a cleared cache, and each of its channels the uncached
    # recoupling_coefficient
    cases = _family_steps(4)
    for labels in cases:
        _family(fresh_cache, *labels)
    warm = {labels: _family(fresh_cache, *labels) for labels in cases}
    assert fresh_cache.hits >= len(cases)
    for labels in cases:
        fresh_cache.clear()
        assert _family(fresh_cache, *labels) == warm[labels], labels
        for i, n, d in warm[labels]:
            assert recoupling_coefficient(*labels, i) == Fraction(n, d), (labels, i)


def _loop_tet_over_thetas(a, b, c, d, j, i):
    return loop_value(i) * tet_value(a, b, c, d, i, j) / (theta_value(a, d, i) * theta_value(b, c, i))


def test_a_recoupling_family_is_loop_times_tet_over_thetas(fresh_cache):
    # every admissible step with labels up to 6: a family lists exactly the
    # admissible channels, in increasing order, each as the reduced pair of
    # loop(i) tet / (theta theta) with a positive denominator
    cases = _family_steps(6)
    assert len(cases) == 1714
    for a, b, c, d, j in cases:
        family = ev._recoupling_family(a, b, c, d, j)
        channels = [i for i in range(13) if vertex_admissible(a, d, i) and vertex_admissible(b, c, i)]
        assert [i for i, _, _ in family] == channels, (a, b, c, d, j)
        for i, n, den in family:
            want = _loop_tet_over_thetas(a, b, c, d, j, i)
            assert (type(n), type(den)) == (int, int)
            assert (n, den) == (want.numerator, want.denominator), (a, b, c, d, j, i)


def test_a_large_recoupling_family_is_loop_times_tet_over_thetas(fresh_cache):
    # the large cases of the coefficient test: their channel, and the first
    # and last of each family
    large = [(384,) * 6, (600,) * 6, (384, 384, 600, 600, 768, 216), (600, 384, 600, 384, 600, 216)]
    for *step, i in large:
        family = {ch: (n, d) for ch, n, d in ev._recoupling_family(*step)}
        assert list(family) == sorted(family) and i in family
        for ch in (i, min(family), max(family)):
            want = _loop_tet_over_thetas(*step, ch)
            assert family[ch] == (want.numerator, want.denominator), (step, ch)


def test_cached_move_factors_are_reduced_pairs(monkeypatch, fresh_cache, closed_nets, open_nets):
    # every recoupling channel and triangle factor the label step multiplies
    # in is in lowest terms: an unreduced pair grows the integers of every
    # product it enters.  The corpora recouple little, so the closed-cold
    # pool runs too.
    for net in closed_nets + _closed_cold_pool(monkeypatch):
        evaluate_closed(net)
    for net, end_a, end_b in free_end_pairs(open_nets):
        try:
            join_free_ends(net, end_a, end_b)
        except (NullState, UnsupportedNetwork):
            pass
    pairs = {"recoupling": [], "triangle": []}
    for key, value in fresh_cache._data.items():
        if key[0] == "recoupling":
            pairs["recoupling"] += [(n, d) for _, n, d in value]
        elif key[0] == "triangle":
            pairs["triangle"].append(value)
    assert len(pairs["recoupling"]) > 500 and len(pairs["triangle"]) > 500
    for n, d in pairs["recoupling"] + pairs["triangle"]:
        assert (type(n), type(d)) == (int, int)
        assert d > 0 and math.gcd(n, d) == 1, (n, d)


def test_a_family_past_the_label_bound_computes_no_channel(monkeypatch, fresh_cache):
    # the top channel holds a family's largest label: past the bound, the
    # family is refused before any tet is computed, though its cheaper
    # channels (here, every i up to the bound) are within it
    top = ev.MAX_CLOSED_FORM_LABEL

    def forbidden(*_args):
        raise AssertionError("a refused family computes no channel")

    monkeypatch.setattr(ev, "_tet", forbidden)
    with pytest.raises(TooLarge, match="closed-form bound"):
        ev._recoupling_family(top, top, top, top, 2)
    # the cube is one recoupling step; every label at the bound gives its
    # family channels up to twice the bound
    with pytest.raises(TooLarge, match="closed-form bound"):
        evaluate_closed(cube_net(top, top))
    assert len(fresh_cache) == 0


def test_each_cached_triangle_factor_is_its_tet_over_its_theta(fresh_cache):
    # tet networks reduce by one triangle op; every factor cached under a
    # ("triangle", alpha, beta, gamma, p, q, r) key must be the pair the op
    # multiplies in, in lowest terms, built here from uncached tet and
    # theta values
    grid = [(a, b, c, d, e, f) for a, b, c, d, e, f in itertools.product(range(4), repeat=6)
            if _recoupling_admissible(a, b, c, d, f, e)]  # the tet's four vertex triples
    for labels in grid:
        assert evaluate_closed(tet_net(*labels)) == tet_value(*labels)
    factors = {key[1:]: value for key, value in fresh_cache._data.items() if key[0] == "triangle"}
    assert len(factors) > 50
    for (alpha, beta, gamma, p, q, r), pair in factors.items():
        factor = tet_value(alpha, beta, q, r, p, gamma) / ev._theta(alpha, beta, gamma)
        assert pair == (factor.numerator, factor.denominator)


# -- the reference engine, the programs, the memo and the finders ------------
#
# The reference is the plain reduction that the programs replaced: a
# labelled graph rewritten move by move and copied for every recoupling
# branch, a separate finder per kind of direct move, no memo, and a BFS from
# every edge to full depth.  Its graphs are the evaluator's _MGraph holding
# each label where the evaluator holds the label's position.  The evaluator
# must follow its schedule exactly, and so give every value it gives.


def _graph(net, *joined):
    """The evaluator's graph of net, or of the closure a join of two of
    its free ends evaluates, each edge holding its position."""
    return ev._MGraph.from_shape(ev._shape(net, *joined))


def _labelled(net):
    """net's graph with each edge holding its label."""
    g = _graph(net)
    g.epos = {e: net.edges[p].label for e, p in g.epos.items()}
    g.zeros = {e for e, label in g.epos.items() if label == 0}
    return g


def _weld(g, p1, p2):
    assert g.epos[p1[0]] == g.epos[p2[0]], "weld across unequal labels"
    g.weld(p1, p2)


def _eliminate_zero_edge(g, e):
    """Delete a zero-labelled edge, welding the neighbours it held apart."""
    ports = g.eports[e]
    if ports[0] is not None and ports[1] is not None and ports[0][0] == ports[1][0]:
        # zero self-loop: the vertex's third edge is forced to label zero
        # as well; stub it out and drop the vertex with the loop.
        v = ports[0][0]
        rest = [p for p in g.vports[v] if p[0] != e]
        assert len(rest) == 1 and g.epos[rest[0][0]] == 0
        g.drop_edge(e)
        re, rs = rest[0]
        g.eports[re][rs] = None
        g.drop_vertex(v)
        return
    g.drop_edge(e)
    for side, port in enumerate(ports):
        if port is None:
            continue
        v, _ = port
        a, b = g.other_two(v, (e, side))
        g.drop_vertex(v)
        _weld(g, a, b)


def _collapse_parallel(g, u, v, edges):
    """Remove a two-vertex face.  Returns the scalar factor, or None when
    the component evaluates to zero (mismatched outer labels)."""
    if len(edges) == 3:
        x, y, z = (g.epos[e] for e in edges)
        for e in edges:
            g.drop_edge(e)
        g.drop_vertex(u)
        g.drop_vertex(v)
        return ev.theta_value(x, y, z)
    e1, e2 = edges
    x, y = g.epos[e1], g.epos[e2]
    outer_u = [p for p in g.vports[u] if p[0] not in (e1, e2)]
    outer_v = [p for p in g.vports[v] if p[0] not in (e1, e2)]
    assert len(outer_u) == 1 and len(outer_v) == 1
    cu, cv = g.epos[outer_u[0][0]], g.epos[outer_v[0][0]]
    if cu != cv:
        return None
    g.drop_edge(e1)
    g.drop_edge(e2)
    g.drop_vertex(u)
    g.drop_vertex(v)
    _weld(g, outer_u[0], outer_v[0])
    return ev.theta_value(x, y, cu) / loop_value(cu)


def _contract_triangle(g, tri):
    """Replace a 3-cycle by a single vertex.  Returns the scalar factor, or
    None when the outer labels cannot meet at a vertex (value zero)."""
    t1, t2, t3, p, q, r = tri
    outer1 = [pt for pt in g.vports[t1] if pt[0] not in (p, r)]
    outer2 = [pt for pt in g.vports[t2] if pt[0] not in (p, q)]
    outer3 = [pt for pt in g.vports[t3] if pt[0] not in (q, r)]
    assert len(outer1) == 1 and len(outer2) == 1 and len(outer3) == 1
    alpha = g.epos[outer1[0][0]]
    beta = g.epos[outer2[0][0]]
    gamma = g.epos[outer3[0][0]]
    if not vertex_admissible(alpha, beta, gamma):
        return None
    lp, lq, lr = g.epos[p], g.epos[q], g.epos[r]
    factor = ev.tet_value(alpha, beta, lq, lr, lp, gamma) / ev.theta_value(alpha, beta, gamma)
    for e in (p, q, r):
        g.drop_edge(e)
    for t in (t1, t2, t3):
        g.drop_vertex(t)
    g.add_vertex([outer1[0], outer2[0], outer3[0]])
    return factor


def _recoupling_branches(g, cycle):
    """Trade one cycle edge for a chord, yielding (weight, rewired graph)
    per admissible channel."""
    verts, edges = cycle
    assert len(edges) >= 4, "short cycles are handled by the direct moves"
    v0, v1 = verts[0], verts[1]
    j = edges[0]          # recouple across this edge
    e_prev = edges[-1]    # cycle edge meeting j at v0
    e_next = edges[1]     # cycle edge meeting j at v1
    third_v0 = [p for p in g.vports[v0] if p[0] not in (j, e_prev)]
    third_v1 = [p for p in g.vports[v1] if p[0] not in (j, e_next)]
    assert len(third_v0) == 1 and len(third_v1) == 1
    a_port, d_port = third_v0[0], third_v1[0]
    b_port = next(p for p in g.vports[v0] if p[0] == e_prev)
    c_port = next(p for p in g.vports[v1] if p[0] == e_next)
    la, lb = g.epos[a_port[0]], g.epos[b_port[0]]
    lc, ld = g.epos[c_port[0]], g.epos[d_port[0]]
    lj = g.epos[j]
    channels = sorted(set(admissible_couplings(la, ld)) & set(admissible_couplings(lb, lc)))
    for li in channels:
        coeff = ev.recoupling_coefficient(la, lb, lc, ld, lj, li)
        h = g.copy()
        h.drop_edge(j)
        h.drop_vertex(v0)
        h.drop_vertex(v1)
        ei = h.add_edge(li)
        h.add_vertex([a_port, d_port, (ei, 0)])
        h.add_vertex([b_port, c_port, (ei, 1)])
        yield coeff, h


def _ref_zero_edge(g):
    for e in sorted(g.epos):
        if g.epos[e] == 0:
            return e
    return None


def _ref_self_loop(g):
    for v in sorted(g.vports):
        edges = [e for e, _ in g.vports[v]]
        if len(set(edges)) < 3:
            return v
    return None


def _ref_parallel_pair(g):
    groups = {}
    for e in sorted(g.epos):
        u, v = g.endpoints(e)
        groups.setdefault((min(u, v), max(u, v)), []).append(e)
    best = None
    for (u, v), edges in sorted(groups.items()):
        if len(edges) == 3:
            return u, v, edges
        if len(edges) == 2 and best is None:
            best = (u, v, edges)
    return best


def _ref_triangle(g):
    adj = {}
    for e in sorted(g.epos):
        u, v = g.endpoints(e)
        if u == v:
            continue
        adj.setdefault(u, {}).setdefault(v, e)
        adj.setdefault(v, {}).setdefault(u, e)
    for t1 in sorted(adj):
        for t2 in sorted(adj[t1]):
            if t2 <= t1:
                continue
            for t3 in sorted(adj[t2]):
                if t3 <= t1 or t3 == t2 or t3 not in adj[t1]:
                    continue
                return t1, t2, t3, adj[t1][t2], adj[t2][t3], adj[t3][t1]
    return None


def _ref_move(g):
    zero = _ref_zero_edge(g)
    if zero is not None:
        return "zero", zero
    loop = _ref_self_loop(g)
    if loop is not None:
        return "loop", loop
    pair = _ref_parallel_pair(g)
    if pair is not None:
        return "parallel", pair
    tri = _ref_triangle(g)
    if tri is not None:
        return "triangle", tri
    return None


def _uncapped_shortest_cycle(g):
    adj = {v: [] for v in g.vports}
    for e in sorted(g.epos):
        u, v = g.endpoints(e)
        adj[u].append((v, e))
        adj[v].append((u, e))
    best = None
    for e0 in sorted(g.epos):
        u0, v0 = g.endpoints(e0)
        dist = {u0: 0}
        parent = {}
        frontier = [u0]
        while frontier and v0 not in dist:
            nxt = []
            for x in frontier:
                for y, e in adj[x]:
                    if e == e0 or y in dist:
                        continue
                    dist[y] = dist[x] + 1
                    parent[y] = (x, e)
                    nxt.append(y)
            frontier = nxt
        if v0 not in dist:
            continue
        verts, edges, x = [v0], [], v0
        while x != u0:
            x, pe = parent[x]
            edges.append(pe)
            verts.append(x)
        verts.reverse()
        edges.reverse()
        edges.append(e0)
        if best is None or len(edges) < len(best[1]):
            best = (verts, edges)
    return best


def _state(g):
    """A labelled graph's state at a recoupling step: its edges in id order
    with their labels and ports.  That is all of it: vports is the inverse
    of eports, and no circle is left over."""
    assert not g.circles
    return tuple((e, g.epos[e], *g.eports[e]) for e in sorted(g.epos))


def _reference_eval_graph(g, steps):
    acc = Fraction(1)
    while True:
        for lbl in g.circles:
            acc *= loop_value(lbl)
        g.circles.clear()
        if g.empty():
            return acc
        move = _ref_move(g)
        if move is not None:
            kind, arg = move
            if kind == "zero":
                _eliminate_zero_edge(g, arg)
                continue
            if kind == "loop":
                return Fraction(0)
            if kind == "parallel":
                factor = _collapse_parallel(g, *arg)
            else:
                factor = _contract_triangle(g, arg)
            if factor is None:
                return Fraction(0)
            acc *= factor
            continue
        cycle = _uncapped_shortest_cycle(g)
        steps.append((_state(g), tuple(map(tuple, cycle))))
        total = Fraction(0)
        for coeff, branch in _recoupling_branches(g, cycle):
            total += coeff * _reference_eval_graph(branch, steps)
        return acc * total


def _reference_value(net, steps=None):
    steps = [] if steps is None else steps
    value = Fraction(1)
    for comp in ev._components(_labelled(net)):
        value *= _reference_eval_graph(comp, steps)
        if value == 0:
            return Fraction(0)
    return value


def _counting_coefficients(fn, *args):
    """fn(*args) and the recoupling branches the evaluator took meanwhile,
    one per recoupling coefficient it read, from its own counters."""
    before = ev.counters()["recoupling_branches"]
    result = fn(*args)
    return result, ev.counters()["recoupling_branches"] - before


def _reference_trace(monkeypatch, net):
    """The reference's value, the (state, cycle) of each recoupling step in
    order, and the number of recoupling coefficients it computed, one per
    branch."""
    steps = []
    count = 0
    coefficient = ev.recoupling_coefficient

    def spy(*args):
        nonlocal count
        count += 1
        return coefficient(*args)

    with monkeypatch.context() as patch:
        patch.setattr(ev, "recoupling_coefficient", spy)
        value = _reference_value(net, steps)
    return value, steps, count


def _evaluator_trace(monkeypatch, net):
    """evaluate_closed's value, the (state, cycle) of each recoupling step
    whose total it computes, in order, and the number of recoupling
    branches it took.  It runs on an empty process cache of its own, so
    that every step is planned by the spy class, not found compiled."""
    seen = []
    recouple = ev._recouple

    class Step(ev._Recoupling):
        # keeps the graph's edges in id order with their ports, read before
        # planning rewires the graph into the branches' shape
        def __init__(self, g):
            self.shape = tuple((e, *g.eports[e]) for e in sorted(g.epos))
            super().__init__(g)

    def spy(step, state, call):
        seen.append((tuple((e, lbl, *ports) for (e, *ports), lbl in zip(step.shape, state)), step))
        return recouple(step, state, call)

    with monkeypatch.context() as patch:
        patch.setattr(ev, "_default_cache", EvalCache())
        patch.setattr(ev, "_Recoupling", Step)
        patch.setattr(ev, "_recouple", spy)
        value, count = _counting_coefficients(evaluate_closed, net)
    return value, [(state, tuple(map(tuple, step.cycle))) for state, step in seen], count


def _cubic_nets():
    rng = random.Random(20261018)
    nets = [
        cycle_labelled_net(rng, random_cubic_graph(rng, n), extra)
        for n in (8, 10, 12, 14, 14, 16, 16, 18, 18)
        for extra in (0, 1)
    ]
    nets += [cycle_labelled_net(rng, nx.circular_ladder_graph(r), r % 2) for r in (4, 5, 6, 7)]
    return nets


CUBIC_NETS = _cubic_nets()


def _planar(net):
    owner = {end: v.id for v in net.vertices for end in v.ends}
    graph = nx.MultiGraph()
    graph.add_edges_from((owner[End(e.id, 0)], owner[End(e.id, 1)]) for e in net.edges)
    return nx.check_planarity(graph)[0]


def test_cubic_corpus_is_planar_and_nonplanar():
    planar = [_planar(net) for net in CUBIC_NETS]
    assert 3 <= sum(planar) <= len(planar) - 3


@pytest.mark.parametrize("k", range(len(CUBIC_NETS)))
def test_memo_and_capped_search_keep_the_schedule(monkeypatch, k):
    # the evaluator recouples exactly the reference's states, each once, in
    # the order the reference first meets them, on the same cycles, and so
    # gets the same value
    net = CUBIC_NETS[k]
    want, ref_steps, _ = _reference_trace(monkeypatch, net)
    got, steps, _ = _evaluator_trace(monkeypatch, net)
    assert got == want
    assert steps == list(dict.fromkeys(ref_steps))


def _ladder(rungs, seed):
    return cycle_labelled_net(random.Random(seed), nx.circular_ladder_graph(rungs), seed % 3)


@pytest.mark.parametrize("rungs, seed", [(6, 6), (8, 33)])
def test_memo_saves_recoupling_work_on_a_ladder(monkeypatch, rungs, seed):
    # most labelled ladders reduce by direct moves after one recoupling
    # step, leaving the memo nothing to reuse; these two recurse
    net = _ladder(rungs, seed)
    want, _, ref_count = _reference_trace(monkeypatch, net)
    got, _, count = _evaluator_trace(monkeypatch, net)
    assert got == want
    assert count < ref_count


def _counted(monkeypatch, net, *names):
    """evaluate_closed(net) and how often it called each named function of
    the evaluator."""
    calls = dict.fromkeys(names, 0)

    def spy(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    with monkeypatch.context() as patch:
        for name in names:
            patch.setattr(ev, name, spy(name, getattr(ev, name)))
        value = evaluate_closed(net)
    return value, calls


def test_a_warm_evaluation_looks_up_move_factors_and_no_tet(monkeypatch, fresh_cache):
    # a triangle's scalar and a recoupling step's channels are one cache
    # entry each: once the cache is warm no tet is computed and no family
    # built, and every branch still reads its recoupling coefficient
    net = _ladder(8, 33)
    names = ("_tet", "_recoupling_family")
    (cold_value, cold), cold_branches = _counting_coefficients(_counted, monkeypatch, net, *names)
    (warm_value, warm), warm_branches = _counting_coefficients(_counted, monkeypatch, net, *names)
    assert warm_value == cold_value == _reference_value(net)
    assert cold["_tet"] > 0 and warm["_tet"] == 0
    assert cold["_recoupling_family"] > 0 and warm["_recoupling_family"] == 0
    assert warm_branches == cold_branches > cold["_recoupling_family"]


def test_schedule_tree_searches_a_repeated_shape_once(monkeypatch, fresh_cache):
    # this ladder's recoupling steps repeat graph shapes under new labels,
    # so their programs and cycles are reused rather than searched for again
    net = _ladder(8, 33)
    value, calls = _counted(monkeypatch, net, "_shortest_cycle", "_recouple")
    assert value == _reference_value(net)
    assert calls["_shortest_cycle"] < calls["_recouple"]


def test_branches_share_programs_and_copy_no_graph(monkeypatch, fresh_cache):
    # a branch reads its node's program on its own label tuple; a shape
    # graph is copied at most once per program made, not once per branch
    net = _ladder(8, 33)
    want = _reference_value(net)
    copies = 0
    copy = ev._MGraph.copy

    def counted_copy(g):
        nonlocal copies
        copies += 1
        return copy(g)

    monkeypatch.setattr(ev._MGraph, "copy", counted_copy)
    (value, calls), branches = _counting_coefficients(_counted, monkeypatch, net, "_compile")
    assert value == want
    assert copies <= calls["_compile"] < branches


def _plans(ops):
    """ops with each recoupling step replaced by its plan."""
    return [
        (op[0], op[1].gather, op[1].j, op[1].abcd, op[1].cycle) if op[0] == ev._RECOUPLE else op
        for op in ops
    ]


def test_a_program_is_a_function_of_the_shape():
    # two copies of one shape compile to equal ops, and their recoupling
    # steps plan the same gather, j, abcd and cycle, down to the children
    root = _graph(_ladder(8, 33))
    first, second = ev._compile(root.copy()), ev._compile(root.copy())
    assert first[-1][0] == ev._RECOUPLE
    assert _plans(first) == _plans(second)
    for zero in (False, True):
        assert _plans(first[-1][1].child(zero)) == _plans(second[-1][1].child(zero))


def _same_program(cached, fresh):
    """Checks that cached, a program the process cache holds, is fresh,
    one just compiled: equal ops and equal plans at its recoupling step,
    down to every child the cached step has compiled.  Returns the number
    of recoupling steps compared."""
    assert _plans(cached) == _plans(fresh)
    if not cached or cached[-1][0] != ev._RECOUPLE:
        return 0
    step, fresh_step = cached[-1][1], fresh[-1][1]
    return 1 + sum(
        _same_program(step.children[zero], fresh_step.child(zero))
        for zero in (False, True)
        if step.children[zero] is not None
    )


def _closed_cold_pool(monkeypatch):
    """The benchmark's closed-cold networks."""
    return [parse_network(req.text) for req in perfbench_workloads(monkeypatch).closed_pool()]


def test_a_cached_program_is_a_fresh_compile(monkeypatch, fresh_cache, closed_nets, open_nets):
    # after the closed corpus, the closed-cold pool and every open-corpus
    # join, each program in the process cache, run on every request whose
    # shape it serves, equals the one its key compiles to afresh
    cold = _closed_cold_pool(monkeypatch)
    assert len(cold) == 75
    for net in closed_nets + cold:
        evaluate_closed(net)
    for net, end_a, end_b in free_end_pairs(open_nets):
        try:
            join_free_ends(net, end_a, end_b)
        except (NullState, UnsupportedNetwork):
            pass
    programs = {key: comps for key, comps in fresh_cache._data.items() if key[0] == "program"}
    steps = 0
    for key, comps in programs.items():
        fresh = ev._programs(key)
        assert len(comps) == len(fresh)
        steps += sum(_same_program(cached, new) for cached, new in zip(comps, fresh))
    assert len(programs) > 1000 and steps > 200


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=0, max_value=2**30),
    st.lists(
        st.tuples(
            st.sampled_from(["multigraph", "cubic", "girth 4"]),
            st.sampled_from([2, 4, 6, 8]),
            st.integers(min_value=0, max_value=6),
        ),
        min_size=1, max_size=2,
    ),
    st.sampled_from([2, 3]),
)
def test_one_slot_table_shares_one_program(seed, components, scale):
    # two networks with one slot table, one zero set, other labels and
    # other ids: the second finds the first's program, and each value is
    # the one it has under a cleared cache
    net = _random_closed_net(random.Random(seed), components)
    other = SpinNetwork(
        tuple(Edge("x" + e.id, scale * e.label) for e in net.edges),
        tuple(Vertex("y" + v.id, tuple(End("x" + end.edge, end.side) for end in v.ends))
              for v in net.vertices),
    )
    zeros = tuple(k for k, e in enumerate(net.edges) if e.label == 0)
    with pytest.MonkeyPatch.context() as patch:
        cache = EvalCache()
        patch.setattr(ev, "_default_cache", cache)
        values = [evaluate_closed(net), evaluate_closed(other)]
        assert [key for key in cache._data if key[0] == "program"] == [("program", ev._shape(net), zeros)]
        for one, value in zip((net, other), values):
            cache.clear()
            assert evaluate_closed(one) == value


@pytest.mark.parametrize("net", [cube_net(1, 2), _ladder(6, 37)], ids=["cube", "ladder"])
def test_zero_channel_children_keep_the_value(monkeypatch, fresh_cache, net):
    # no input label is 0, so every zero edge removed is a channel edge i = 0
    assert all(e.label for e in net.edges)
    value, calls = _counted(monkeypatch, net, "_drop_zero_edge")
    assert calls["_drop_zero_edge"] >= 1
    assert value == _reference_value(net)
    _, ref_steps, _ = _reference_trace(monkeypatch, net)
    _, steps, _ = _evaluator_trace(monkeypatch, net)
    assert steps == list(dict.fromkeys(ref_steps))


def test_a_call_past_the_branch_bound_is_too_large(monkeypatch):
    net = _ladder(8, 33)
    want, _, branches = _evaluator_trace(monkeypatch, net)
    monkeypatch.setattr(ev, "_MAX_BRANCHES", branches)
    assert evaluate_closed(net) == want
    monkeypatch.setattr(ev, "_MAX_BRANCHES", branches - 1)
    with pytest.raises(TooLarge, match="recoupling branches"):
        evaluate_closed(net)


def test_the_branch_bound_holds_on_cached_programs(monkeypatch, fresh_cache):
    # a program found in the process cache runs its whole label step, so
    # the bound still counts every branch of every call
    net = _ladder(8, 33)
    want, _, branches = _evaluator_trace(monkeypatch, net)
    assert evaluate_closed(net) == want
    key = ("program", ev._shape(net), ())
    assert key in fresh_cache._data
    monkeypatch.setattr(ev, "_MAX_BRANCHES", branches - 1)
    with pytest.raises(TooLarge, match="recoupling branches"):
        evaluate_closed(net)
    # a refused call stores no program, though it compiled one
    del fresh_cache._data[key]
    size = len(fresh_cache)
    with pytest.raises(TooLarge, match="recoupling branches"):
        evaluate_closed(net)
    assert len(fresh_cache) == size and key not in fresh_cache._data


def _three_channel_join():
    """An open network and two of its free ends whose join has three
    channels, each taking two recoupling branches."""
    net = SpinNetwork(
        tuple(Edge(eid, label) for eid, label in
              (("e0", 1), ("e1", 5), ("e2", 5), ("j1", 4), ("j2", 4), ("u1", 2), ("r1", 2))),
        (
            Vertex("w1", (End("e0", 0), End("e2", 0), End("j1", 0))),
            Vertex("w2", (End("e0", 1), End("e1", 1), End("j2", 0))),
            Vertex("x1", (End("j1", 1), End("u1", 0), End("r1", 0))),
        ),
    )
    return net, (End("e1", 0), End("u1", 1))


def test_each_labelling_of_a_join_keeps_its_own_budget(monkeypatch, fresh_cache):
    # the join's three channels take two recoupling branches each: under a
    # bound of two it answers, from a cached program too, though the call
    # takes six
    net, ends = _three_channel_join()
    want = join_free_ends(net, *ends)
    assert len(want.entries) == 3
    with monkeypatch.context() as patch:
        patch.setattr(ev, "_MAX_BRANCHES", 2)
        got, count = _counting_coefficients(join_free_ends, net, *ends)
        assert got == want
    assert count == 6
    monkeypatch.setattr(ev, "_MAX_BRANCHES", 1)
    with pytest.raises(TooLarge, match="recoupling branches"):
        join_free_ends(net, *ends)


def _random_closed_net(rng, components):
    """A closed network with a part per (kind, n, cycles): a random
    trivalent multigraph on n vertices (loops and parallel edges allowed),
    or a random simple cubic graph on at least 4 (on at least 6 and of
    girth at least 4 for kind "girth 4"), labelled by that many superposed
    cycles.

    Each cycle adds 1 along the cycle that a random walk from one of the
    part's vertices closes.  The cycle meets each of its vertices in two
    distinct slots, so every vertex stays admissible, and an edge no cycle
    meets keeps label 0.  Ids follow a random declaration order.
    """
    ends = []  # edge -> [(vertex, slot), (vertex, slot)]
    starts = []  # per cycle, the vertex its walk starts from
    base = 0
    for kind, n, cycles in components:
        first = base
        if kind != "multigraph":
            if kind == "cubic":
                graph = random_cubic_graph(rng, max(n, 4))
            else:
                graph = random_cubic_graph(rng, max(n, 6), min_girth=4)
            slots = dict.fromkeys(graph, 0)
            for u, v in graph.edges:
                ends.append([(base + u, slots[u]), (base + v, slots[v])])
                slots[u] += 1
                slots[v] += 1
            base += len(graph)
        else:
            points = [(base + v, slot) for v in range(n) for slot in range(3)]
            rng.shuffle(points)
            ends += [[points[k], points[k + 1]] for k in range(0, len(points), 2)]
            base += n
        starts += [rng.randrange(first, base) for _ in range(cycles)]
    at = {port: (e, side) for e, pair in enumerate(ends) for side, port in enumerate(pair)}
    labels = [0] * len(ends)
    for v in starts:
        slot_in = None
        walk, left = [], {v: 0}  # the edges walked; where each vertex was left
        while True:
            e, side = at[v, rng.choice([s for s in range(3) if s != slot_in])]
            walk.append(e)
            v, slot_in = ends[e][1 - side]
            if v in left:
                for e in walk[left[v]:]:
                    labels[e] += 1
                break
            left[v] = len(walk)
    names = rng.sample(range(4 * len(ends)), len(ends))
    edges = [Edge(f"e{names[e]}", labels[e]) for e in range(len(ends))]
    rng.shuffle(edges)
    vertices = [
        Vertex(f"v{v}", tuple(End(f"e{names[at[v, s][0]]}", at[v, s][1]) for s in range(3)))
        for v in range(base)
    ]
    rng.shuffle(vertices)
    return SpinNetwork(tuple(edges), tuple(vertices))


@settings(deadline=None, max_examples=200)
@given(
    st.integers(min_value=0, max_value=2**30),
    st.lists(
        st.tuples(
            st.sampled_from(["multigraph", "cubic", "girth 4"]),
            st.sampled_from([2, 4, 6, 8, 10]),
            st.integers(min_value=0, max_value=12),
        ),
        min_size=1, max_size=3,
    ),
)
def test_programs_equal_the_reference_engine(seed, components):
    # zero labels (input zero edges, zero self-loops, zero circles), loops,
    # bubbles, thetas, triangles, recoupling and several components
    net = _random_closed_net(random.Random(seed), components)
    assert evaluate_closed(net) == _reference_value(net)


def _relabelled(g, rng, emap=None, vmap=None):
    """g with its edge and vertex ids sent to random distinct integers, or
    through the maps given."""
    emap = emap or dict(zip(g.epos, rng.sample(range(4 * len(g.epos)), len(g.epos))))
    vmap = vmap or dict(zip(g.vports, rng.sample(range(4 * len(g.vports)), len(g.vports))))
    h = ev._MGraph()
    for e, pos in g.epos.items():
        h.epos[emap[e]] = pos
        h.eports[emap[e]] = [(vmap[v], slot) for v, slot in g.eports[e]]
    for v, ports in g.vports.items():
        h.vports[vmap[v]] = [(emap[e], side) for e, side in ports]
    h.zeros = {emap[e] for e in g.zeros}
    return h


@settings(deadline=None, max_examples=80)
@given(st.integers(min_value=0, max_value=2**30), st.sampled_from([6, 8, 10, 12, 14, 16]))
def test_capped_shortest_cycle_matches_full_search(seed, n):
    # the reducer only searches graphs of girth >= 4
    rng = random.Random(seed)
    graph = random_cubic_graph(rng, n, min_girth=4)
    g = _relabelled(_graph(cycle_labelled_net(rng, graph)), rng)
    assert ev._shortest_cycle(g) == _uncapped_shortest_cycle(g)


def test_step_memo_keys_on_labels(monkeypatch):
    # a recoupling step belongs to one program, and so to one shape, ids
    # included: an evaluation's memo tells a step's states apart by their
    # labels alone, and an equal state is a hit
    net = cube_net(1, 2)
    labels = tuple(e.label for e in net.edges)  # edge k has position k
    states = [labels] + [labels[:e] + (labels[e] + 2,) + labels[e + 1:] for e in range(len(labels))]
    totals = itertools.count(1)
    monkeypatch.setattr(ev, "_recouple", lambda step, state, call: (next(totals), 1))
    ops = ev._compile(_graph(net))
    (code, step), = ops  # the cube has girth 4: its program is one recoupling step
    assert code == ev._RECOUPLE
    call = ev._Call()
    assert [ev._run(ops, lbls, call) for lbls in states] == [(k, 1) for k in range(1, len(states) + 1)]
    assert list(call.memo) == [(step, tuple(lbls[p] for p in step.gather)) for lbls in states]
    assert ev._run(ops, states[0], call) == (1, 1)
    assert len(call.memo) == len(states)


def test_step_memos_hold_reduced_pairs(monkeypatch):
    # a recoupling total is stored as one reduced pair with a positive
    # denominator, so a zero total as (0, 1); _ladder(6, 6) has one
    calls = []

    class Call(ev._Call):
        def __init__(self):
            super().__init__()
            calls.append(self)

    monkeypatch.setattr(ev, "_Call", Call)
    for net in (_ladder(8, 33), _ladder(6, 6)):
        assert evaluate_closed(net) == _reference_value(net)
    totals = [total for call in calls for total in call.memo.values()]
    for n, d in totals:
        assert type(n) is int and type(d) is int
        assert d > 0 and math.gcd(n, d) == 1
    assert (0, 1) in totals


def _laddered_cycle(prefix, chords):
    """A Hamiltonian 8-cycle of label-1 edges with label-2 chords, the
    chords declared first."""
    edges = [(f"{prefix}m{k}", 2) for k in range(len(chords))]
    edges += [(f"{prefix}h{k}", 1) for k in range(8)]
    at = {v: [] for v in range(8)}
    for k, (u, v) in enumerate(chords):
        at[u].append(f"{prefix}m{k}")
        at[v].append(f"{prefix}m{k}")
    for k in range(8):
        at[k].append(f"{prefix}h{k}")
        at[(k + 1) % 8].append(f"{prefix}h{k}")
    return edges, [(f"{prefix}v{v}", tuple(es)) for v, es in at.items()]


def test_steps_of_two_shapes_keep_their_own_totals():
    # the cube and the Moebius ladder on 8 vertices, drawn so that both are
    # recoupled at once with equal label tuples, have different values: a
    # total must not pass from one step to the other within a call
    cube = _laddered_cycle("c", [(0, 3), (4, 7), (1, 6), (2, 5)])
    ladder = _laddered_cycle("w", [(0, 4), (1, 5), (2, 6), (3, 7)])
    values = [evaluate_closed(SpinNetwork.from_spec(*part)) for part in (cube, ladder)]
    assert values[0] != values[1]
    both = SpinNetwork.from_spec(cube[0] + ladder[0], cube[1] + ladder[1])
    assert evaluate_closed(both) == values[0] * values[1]


def _random_multigraph(rng, n, labels):
    """A random trivalent multigraph on n vertices, loops and parallel edges
    allowed, with random ids, holding its labels in place of positions."""
    points = [(v, slot) for v in range(n) for slot in range(3)]
    rng.shuffle(points)
    g = ev._MGraph()
    g.vports = {v: [None] * 3 for v in range(n)}
    for e in range(len(points) // 2):
        g.epos[e] = rng.choice(labels)
        g.eports[e] = [points[2 * e], points[2 * e + 1]]
        for side, (v, slot) in enumerate(g.eports[e]):
            g.vports[v][slot] = (e, side)
    g.zeros = {e for e, label in g.epos.items() if label == 0}
    return _relabelled(g, rng)


@settings(deadline=None, max_examples=400)
@given(
    st.integers(min_value=0, max_value=2**30),
    st.sampled_from([2, 4, 6, 8, 10, 12]),
    st.sampled_from(["multigraph", "multigraph without zeros", "simple"]),
)
@example(93, 6, "multigraph without zeros")  # a theta outranks a bubble of lower (u, v)
def test_one_scan_picks_what_the_reference_finders_pick(seed, n, kind):
    # _next_move reads the zero edges from g.zeros, the reference from labels
    rng = random.Random(seed)
    if kind == "simple":
        net = cycle_labelled_net(rng, random_cubic_graph(rng, max(n, 4)))
        g = _relabelled(_labelled(net), rng)
    else:
        g = _random_multigraph(rng, n, (0, 1, 2) if kind == "multigraph" else (1, 2))
    assert ev._next_move(g) == _ref_move(g)


# -- one graph under several labellings ----------------------------------


def test_a_mirror_closure_graph_is_the_reference_closures_graph(open_nets):
    # the evaluator builds a join's closure straight from the open network
    # and its two ends, with the ids, ports and slots the reference closure
    # of the merged network has as a closed network, each edge at the
    # position of the merged network's edge it copies
    pairs = free_end_pairs(open_nets)
    assert len(pairs) == 1307
    for net, end_a, end_b in pairs:
        c = admissible_couplings(net.label(end_a), net.label(end_b))[0]
        merged = merge_free_ends(net, end_a, end_b, c)
        closed, _circles = reference_mirror_closure(merged)
        want = _graph(closed)
        got = _graph(net, end_a, end_b)
        assert (got.eports, got.vports) == (want.eports, want.vports)
        assert [merged.edges[p].label for p in got.epos.values()] == [e.label for e in closed.edges]


def _digest(answers) -> str:
    h = hashlib.sha256()
    for answer in answers:
        h.update(answer.encode() + b"\n")
    return h.hexdigest()


def _join_answer(net, end_a, end_b) -> str:
    try:
        dist = join_free_ends(net, end_a, end_b)
    except SpinNetError as exc:
        return type(exc).__name__
    return " ".join(f"{c}={p}" for c, p in sorted(dist.entries.items()))


def _closed_answer(net) -> str:
    try:
        return str(evaluate_closed(net))
    except SpinNetError as exc:
        return type(exc).__name__


def test_the_corpora_answer_as_the_merged_network_closures_did(open_nets, closed_nets):
    # digests of every join answer on the open corpus and every closed
    # value, as they read when joins built a merged network and its closure
    pairs = free_end_pairs(open_nets)
    assert (len(pairs), len(closed_nets)) == (1307, 214)
    joins = [_join_answer(*pair) for pair in pairs]
    assert joins.count("NullState") == 193
    assert _digest(joins) == "cd6cf28ff162bd264bcfb425277d1ae2e94df5725dbe867d1cc34802dd8acbfe"
    closed = [_closed_answer(net) for net in closed_nets]
    assert _digest(closed) == "f825ddada5c58a34d8674249b4655851a180fea6b598c691f87336b145dcef06"


def test_a_relabelled_graph_evaluates_as_each_relabelled_network(open_nets):
    # the closures of one join differ only in the joined unit's label,
    # which is the merged network's last edge, fused with its mirror image;
    # the bare loops the reference returns apart are no part of the value
    checked = 0
    for net in open_nets[:80]:
        end_a, end_b = net.free_ends[:2]
        channels = admissible_couplings(net.label(end_a), net.label(end_b))
        merged = [merge_free_ends(net, end_a, end_b, c) for c in channels]
        labellings = [tuple(e.label for e in m.edges) for m in merged]
        got = [Fraction(*pair) for pair in ev._evaluate(ev._shape(net, end_a, end_b), labellings)]
        assert got == [evaluate_closed(reference_mirror_closure(m)[0]) for m in merged]
        checked += len(channels) > 1
    assert checked >= 40


def test_labellings_share_the_step_memos(monkeypatch):
    # a labelling met twice finds every recoupling total the first one
    # left; joining two bare edges beside a closed network closes it into
    # two copies of it and a theta (1, 1, 2)
    net = _ladder(8, 33)
    value, once = _counting_coefficients(evaluate_closed, net)
    open_net = SpinNetwork(net.edges + (Edge("x", 1), Edge("y", 1)), net.vertices)
    labels = tuple(e.label for e in open_net.edges) + (2,)
    want = value**2 * theta_value(1, 1, 2)
    pairs, branches = _counting_coefficients(
        ev._evaluate, ev._shape(open_net, End("x", 0), End("y", 0)), [labels, labels]
    )
    assert [Fraction(*pair) for pair in pairs] == [want, want]
    assert branches == 2 * once > 0


def test_the_counters_add_each_evaluation_once(monkeypatch, fresh_cache):
    # one evaluation per evaluate_closed call and per join, one labelling
    # per value computed, and every branch taken, a refused call's too;
    # reading with reset zeroes them
    net = _ladder(8, 33)
    _, _, branches = _evaluator_trace(monkeypatch, net)
    ev.counters(reset=True)
    assert ev.counters() == {"evaluations": 0, "labellings": 0, "recoupling_branches": 0}
    evaluate_closed(net)
    evaluate_closed(net)  # a warm cache still takes every branch
    assert ev.counters() == {"evaluations": 2, "labellings": 2, "recoupling_branches": 2 * branches}
    # refused once its branch count passes the bound, which is its last one
    with monkeypatch.context() as patch:
        patch.setattr(ev, "_MAX_BRANCHES", branches - 1)
        with pytest.raises(TooLarge, match="recoupling branches"):
            evaluate_closed(net)
    assert ev.counters(reset=True) == {"evaluations": 3, "labellings": 2, "recoupling_branches": 3 * branches}
    join_net, ends = _three_channel_join()
    join_free_ends(join_net, *ends)
    assert ev.counters() == {"evaluations": 1, "labellings": 3, "recoupling_branches": 6}
    fresh_cache.clear()
    assert ev.counters(reset=True)["evaluations"] == 1
    assert ev.counters() == {"evaluations": 0, "labellings": 0, "recoupling_branches": 0}


def test_one_closed_cold_pass_takes_3648_recoupling_branches(monkeypatch, fresh_cache):
    # the benchmark's closed-cold pool, the cache cleared before each
    # request as the benchmark clears it: the package's counters read the
    # branches its traced runs counted through a wrapped binding before
    # the label step read whole recoupling families
    pool = _closed_cold_pool(monkeypatch)
    before = ev.counters()
    for net in pool:
        fresh_cache.clear()
        evaluate_closed(net)
    after = ev.counters()
    assert {name: after[name] - before[name] for name in after} == {
        "evaluations": 75, "labellings": 75, "recoupling_branches": 3648,
    }
