import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from netgen import cube_net, dumbbell_net, prism_net, tet_net, theta_net
from spinnet.errors import HasFreeEnds, InadmissibleTriple, InvalidNetwork, TooLarge
from spinnet.evaluator import (
    EvalCache,
    evaluate_closed,
    loop_value,
    recoupling_coefficient,
    recoupling_six_j_magnitude,
    strand_expansion_oracle,
    tet_value,
    theta_value,
)
from spinnet.model import Edge, End, SpinNetwork, Vertex, vertex_admissible

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


@given(st.integers(min_value=0, max_value=8))
def test_theta_with_zero_leg_is_a_loop(n):
    assert theta_value(n, n, 0) == loop_value(n)


def test_theta_rejects_inadmissible():
    with pytest.raises(InadmissibleTriple):
        theta_value(1, 1, 1)


@pytest.mark.parametrize("labels", THETA_CASES)
def test_theta_matches_strand_oracle(labels):
    net = theta_net(*labels)
    assert strand_expansion_oracle(net) == theta_value(*labels)
    assert evaluate_closed(net) == theta_value(*labels)


def test_tet_rejects_inadmissible_vertex():
    with pytest.raises(InadmissibleTriple):
        tet_value(1, 1, 1, 1, 1, 1)


def test_degenerate_tet_reduces_to_theta():
    # an f=0 rung welds the two (a,b,·) vertices into a theta
    assert tet_value(1, 1, 1, 1, 2, 0) == theta_value(1, 1, 2)


@pytest.mark.parametrize("labels", TET_CASES)
def test_tet_matches_strand_oracle(labels):
    net = tet_net(*labels)
    want = tet_value(*labels)
    assert strand_expansion_oracle(net) == want
    assert evaluate_closed(net) == want


def test_tet_symmetry_under_vertex_relabelings():
    # rotating the tetrahedron 180 degrees maps (a,b,c,d,e,f) -> (c,d,a,b,e,f)
    assert tet_value(2, 1, 1, 2, 2, 3) == tet_value(1, 2, 2, 1, 2, 3)
    assert tet_value(3, 1, 1, 3, 2, 4) == tet_value(1, 3, 3, 1, 2, 4)


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
    with pytest.raises(HasFreeEnds):
        evaluate_closed(SpinNetwork.from_spec({"a": 1}))
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


def test_cold_and_warm_cache_agree():
    net = tet_net(2, 2, 2, 2, 2, 2)
    cold = evaluate_closed(net, EvalCache())
    cache = EvalCache()
    first = evaluate_closed(net, cache)
    warm = evaluate_closed(net, cache)
    assert cold == first == warm


def test_an_empty_cache_passed_in_records_the_traffic():
    # an empty EvalCache has length 0, so it must not be mistaken for None
    from spinnet.experiments import join_free_ends
    from spinnet.hilbert import born_join_distribution

    triplet = SpinNetwork.from_spec({"a": 1, "b": 1, "t": 2}, [("v", ("a", "b", "t"))])
    requests = [
        lambda cache: evaluate_closed(tet_net(2, 2, 2, 2, 2, 2), cache),
        lambda cache: join_free_ends(triplet, End("a", 1), End("b", 1), cache),
        lambda cache: born_join_distribution(triplet, End("a", 1), End("b", 1), cache),
    ]
    for request in requests:
        cache = EvalCache()
        request(cache)
        assert cache.misses > 0 and len(cache) == cache.misses
        request(cache)
        assert cache.hits > 0 and len(cache) == cache.misses


def _hilbert_six_j(a, b, c, d, e, f):
    from fractions import Fraction as F

    from spinnet.hilbert import wigner_6j

    return abs(float(wigner_6j(F(a, 2), F(d, 2), F(e, 2), F(c, 2), F(b, 2), F(f, 2))))


@pytest.mark.parametrize("labels", TET_CASES)
def test_six_j_bridge(labels):
    got = recoupling_six_j_magnitude(*labels)
    want = _hilbert_six_j(*labels)
    assert got == pytest.approx(want, abs=1e-12)


def test_six_j_bridge_sweep():
    checked = 0
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    for e in range(5):
                        for f in range(5):
                            if not (
                                vertex_admissible(a, d, e)
                                and vertex_admissible(b, c, e)
                                and vertex_admissible(a, b, f)
                                and vertex_admissible(c, d, f)
                            ):
                                continue
                            assert recoupling_six_j_magnitude(
                                a, b, c, d, e, f
                            ) == pytest.approx(_hilbert_six_j(a, b, c, d, e, f), abs=1e-12)
                            checked += 1
    assert checked > 50
