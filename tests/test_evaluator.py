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

from netgen import (
    cube_net,
    cycle_labelled_net,
    dumbbell_net,
    free_end_pairs,
    prism_net,
    random_cubic_graph,
    reference_mirror_closure,
    tet_net,
    theta_net,
)
from spinnet import evaluator as ev
from spinnet.errors import HasFreeEnds, InadmissibleTriple, InvalidNetwork, OutOfRange, SpinNetError, TooLarge
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
from spinnet.experiments import join_free_ends
from spinnet.model import (
    Edge,
    End,
    SpinNetwork,
    Vertex,
    admissible_couplings,
    merge_free_ends,
    vertex_admissible,
)

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


def _hilbert_six_j(a, b, c, d, e, f):
    from fractions import Fraction as F

    from spinnet.hilbert import wigner_6j

    return abs(float(wigner_6j(F(a, 2), F(d, 2), F(e, 2), F(c, 2), F(b, 2), F(f, 2))))


# the four thetas' product at label 600 is too large for a float
@pytest.mark.parametrize("labels", TET_CASES + [(600,) * 6])
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


def test_a_warm_recoupling_coefficient_equals_a_cold_one(fresh_cache):
    cases = [labels for labels in itertools.product(range(5), repeat=6) if _recoupling_admissible(*labels)]
    for labels in cases:
        recoupling_coefficient(*labels)
    warm = {labels: recoupling_coefficient(*labels) for labels in cases}
    assert fresh_cache.hits >= len(cases)
    for labels in cases:
        fresh_cache.clear()
        assert recoupling_coefficient(*labels) == warm[labels], labels


def test_each_cached_triangle_factor_is_its_tet_over_its_theta(fresh_cache):
    # tet networks reduce by one triangle op; every factor cached under a
    # ("triangle", alpha, beta, gamma, p, q, r) key must be the pair the op
    # multiplies in, built here from uncached tet and theta values
    grid = [(a, b, c, d, e, f) for a, b, c, d, e, f in itertools.product(range(4), repeat=6)
            if _recoupling_admissible(a, b, c, d, f, e)]  # the tet's four vertex triples
    for labels in grid:
        assert evaluate_closed(tet_net(*labels)) == tet_value(*labels)
    factors = {key[1:]: value for key, value in fresh_cache._data.items() if key[0] == "triangle"}
    assert len(factors) > 50
    for (alpha, beta, gamma, p, q, r), pair in factors.items():
        tet, theta = tet_value(alpha, beta, q, r, p, gamma), ev._theta(alpha, beta, gamma)
        assert pair == (tet.numerator * theta.denominator, tet.denominator * theta.numerator)


# -- the reference engine, the programs, the memo and the finders ------------
#
# The reference is the plain reduction that the programs replaced: a
# labelled graph rewritten move by move and copied for every recoupling
# branch, a separate finder per kind of direct move, no memo, and a BFS from
# every edge to full depth.  Its graphs are the evaluator's _MGraph holding
# each label where the evaluator holds the label's position.  The evaluator
# must follow its schedule exactly, and so give every value it gives.


def _labelled(net):
    """net's graph with each edge holding its label."""
    g = ev._MGraph.from_network(net)
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


def _counting_coefficients(patch):
    """Counts the recoupling coefficients computed while patch is open."""
    count = [0]
    coefficient = ev.recoupling_coefficient

    def spy(*args):
        count[0] += 1
        return coefficient(*args)

    patch.setattr(ev, "recoupling_coefficient", spy)
    return count


def _reference_trace(monkeypatch, net):
    """The reference's value, the (state, cycle) of each recoupling step in
    order, and the number of recoupling coefficients computed."""
    steps = []
    with monkeypatch.context() as patch:
        count = _counting_coefficients(patch)
        value = _reference_value(net, steps)
    return value, steps, count[0]


def _evaluator_trace(monkeypatch, net):
    """evaluate_closed's value, the (state, cycle) of each recoupling step
    whose total it computes, in order, and the number of recoupling
    coefficients computed."""
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
        count = _counting_coefficients(patch)
        patch.setattr(ev, "_Recoupling", Step)
        patch.setattr(ev, "_recouple", spy)
        value = evaluate_closed(net)
    return value, [(state, tuple(map(tuple, step.cycle))) for state, step in seen], count[0]


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
    # a move's scalar is one cache entry: once the cache is warm no tet is
    # looked up, and every branch still reads its recoupling coefficient
    net = _ladder(8, 33)
    names = ("tet_value", "recoupling_coefficient")
    cold_value, cold = _counted(monkeypatch, net, *names)
    warm_value, warm = _counted(monkeypatch, net, *names)
    assert warm_value == cold_value == _reference_value(net)
    assert cold["tet_value"] > 0 and warm["tet_value"] == 0
    assert warm["recoupling_coefficient"] == cold["recoupling_coefficient"] > 0


def test_schedule_tree_searches_a_repeated_shape_once(monkeypatch):
    # this ladder's recoupling steps repeat graph shapes under new labels,
    # so their programs and cycles are reused rather than searched for again
    net = _ladder(8, 33)
    value, calls = _counted(monkeypatch, net, "_shortest_cycle", "_recouple")
    assert value == _reference_value(net)
    assert calls["_shortest_cycle"] < calls["_recouple"]


def test_branches_share_programs_and_copy_no_graph(monkeypatch):
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
    value, calls = _counted(monkeypatch, net, "_compile", "recoupling_coefficient")
    assert value == want
    assert copies <= calls["_compile"] < calls["recoupling_coefficient"]


def _plans(ops):
    """ops with each recoupling step replaced by its plan."""
    return [
        (op[0], op[1].gather, op[1].j, op[1].abcd, op[1].cycle) if op[0] == ev._RECOUPLE else op
        for op in ops
    ]


def test_a_program_is_a_function_of_the_shape():
    # two copies of one shape compile to equal ops, and their recoupling
    # steps plan the same gather, j, abcd and cycle, down to the children
    root = ev._MGraph.from_network(_ladder(8, 33))
    first, second = ev._compile(root.copy()), ev._compile(root.copy())
    assert first[-1][0] == ev._RECOUPLE
    assert _plans(first) == _plans(second)
    for zero in (False, True):
        assert _plans(first[-1][1].child(zero)) == _plans(second[-1][1].child(zero))


@pytest.mark.parametrize("net", [cube_net(1, 2), _ladder(6, 37)], ids=["cube", "ladder"])
def test_zero_channel_children_keep_the_value(monkeypatch, net):
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
    g = _relabelled(ev._MGraph.from_network(cycle_labelled_net(rng, graph)), rng)
    assert ev._shortest_cycle(g) == _uncapped_shortest_cycle(g)


def test_step_memo_keys_on_labels(monkeypatch):
    # a recoupling step belongs to one program, and so to one shape, ids
    # included: its memo tells states apart by their labels alone, and an
    # equal state is a hit
    net = cube_net(1, 2)
    labels = tuple(e.label for e in net.edges)  # edge k has position k
    states = [labels] + [labels[:e] + (labels[e] + 2,) + labels[e + 1:] for e in range(len(labels))]
    totals = itertools.count(1)
    monkeypatch.setattr(ev, "_recouple", lambda step, state, call: (next(totals), 1))
    ops = ev._compile(ev._MGraph.from_network(net))
    (code, step), = ops  # the cube has girth 4: its program is one recoupling step
    assert code == ev._RECOUPLE
    call = ev._Call()
    assert [ev._run(ops, lbls, call) for lbls in states] == [(k, 1) for k in range(1, len(states) + 1)]
    assert list(step.memo) == [tuple(lbls[p] for p in step.gather) for lbls in states]
    assert ev._run(ops, states[0], call) == (1, 1)
    assert len(step.memo) == len(states)


def test_step_memos_hold_reduced_pairs(monkeypatch):
    # a recoupling total is stored as one reduced pair with a positive
    # denominator, so a zero total as (0, 1); _ladder(6, 6) has one
    steps = []

    class Step(ev._Recoupling):
        def __init__(self, g):
            super().__init__(g)
            steps.append(self)

    monkeypatch.setattr(ev, "_Recoupling", Step)
    for net in (_ladder(8, 33), _ladder(6, 6)):
        assert evaluate_closed(net) == _reference_value(net)
    totals = [total for step in steps for total in step.memo.values()]
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
    # and its two ends, with the ids, ports and slots from_network gives the
    # reference closure of the merged network, each edge at the position of
    # the merged network's edge it copies
    pairs = free_end_pairs(open_nets)
    assert len(pairs) == 1307
    for net, end_a, end_b in pairs:
        c = admissible_couplings(net.label(end_a), net.label(end_b))[0]
        merged = merge_free_ends(net, end_a, end_b, c)
        closed, _circles = reference_mirror_closure(merged)
        want = ev._MGraph.from_network(closed)
        got = ev._MGraph.mirror_closure(net, end_a, end_b)
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
        got = [Fraction(*pair) for pair in ev._evaluate_mirror_closure(net, end_a, end_b, labellings)]
        assert got == [evaluate_closed(reference_mirror_closure(m)[0]) for m in merged]
        checked += len(channels) > 1
    assert checked >= 40


def test_labellings_share_the_step_memos(monkeypatch):
    # a labelling met twice finds every recoupling total the first one
    # left; joining two bare edges beside a closed network closes it into
    # two copies of it and a theta (1, 1, 2)
    net = _ladder(8, 33)
    value, once = _counted(monkeypatch, net, "recoupling_coefficient")
    open_net = SpinNetwork(net.edges + (Edge("x", 1), Edge("y", 1)), net.vertices)
    labels = tuple(e.label for e in open_net.edges) + (2,)
    calls = 0
    coefficient = ev.recoupling_coefficient

    def counted(*args):
        nonlocal calls
        calls += 1
        return coefficient(*args)

    monkeypatch.setattr(ev, "recoupling_coefficient", counted)
    want = value**2 * theta_value(1, 1, 2)
    pairs = ev._evaluate_mirror_closure(open_net, End("x", 0), End("y", 0), [labels, labels])
    assert [Fraction(*pair) for pair in pairs] == [want, want]
    assert calls == 2 * once["recoupling_coefficient"] > 0
