import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from netgen import (
    cube_net,
    cycle_labelled_net,
    dumbbell_net,
    prism_net,
    random_cubic_graph,
    tet_net,
    theta_net,
)
from spinnet import evaluator as ev
from spinnet.errors import HasFreeEnds, InadmissibleTriple, InvalidNetwork, TooLarge
from spinnet.evaluator import (
    _TET_SYMMETRIES,
    EvalCache,
    evaluate_closed,
    loop_value,
    recoupling_coefficient,
    recoupling_six_j_magnitude,
    strand_expansion_oracle,
    tet_canonical_key,
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
    # labels are checked when a lookup misses; a refused call leaves no trace
    cache = EvalCache()
    theta_value(1, 1, 2, cache)
    with pytest.raises(InadmissibleTriple):
        theta_value(1, 1, 1, cache)
    assert cache.stats == {"size": 1, "hits": 0, "misses": 1}


@pytest.mark.parametrize("labels", THETA_CASES)
def test_theta_matches_strand_oracle(labels):
    net = theta_net(*labels)
    assert strand_expansion_oracle(net) == theta_value(*labels)
    assert evaluate_closed(net) == theta_value(*labels)


def test_tet_rejects_inadmissible_vertex():
    cache = EvalCache()
    tet_value(1, 1, 1, 1, 2, 2, cache)
    with pytest.raises(InadmissibleTriple):
        tet_value(1, 1, 1, 1, 1, 1, cache)
    assert cache.stats == {"size": 1, "hits": 0, "misses": 1}


def test_degenerate_tet_reduces_to_theta():
    # an f=0 rung welds the two (a,b,·) vertices into a theta
    assert tet_value(1, 1, 1, 1, 2, 0) == theta_value(1, 1, 2)


@pytest.mark.parametrize("labels", TET_CASES)
def test_tet_matches_strand_oracle(labels):
    net = tet_net(*labels)
    want = tet_value(*labels)
    assert strand_expansion_oracle(net) == want
    assert evaluate_closed(net) == want


@given(st.tuples(*[st.integers(min_value=0, max_value=12)] * 6))
def test_tet_canonical_key_is_the_least_relabeling(labels):
    key = tet_canonical_key(*labels)
    assert key == min(tuple(labels[i] for i in perm) for perm in _TET_SYMMETRIES)
    for perm in _TET_SYMMETRIES:
        assert tet_canonical_key(*(labels[i] for i in perm)) == key


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


# -- the per-call memo, the capped cycle search and the one-scan finder -------
#
# The reference is the plain reduction: the module's own moves, a separate
# finder per kind of direct move, no memo, and a BFS from every edge to full
# depth.  The evaluator must follow its schedule exactly, and so give every
# value it gives.


def _ref_zero_edge(g):
    for e in sorted(g.elabel):
        if g.elabel[e] == 0:
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
    for e in sorted(g.elabel):
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
    for e in sorted(g.elabel):
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
    for e in sorted(g.elabel):
        u, v = g.endpoints(e)
        adj[u].append((v, e))
        adj[v].append((u, e))
    best = None
    for e0 in sorted(g.elabel):
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


def _reference_eval_graph(g, cache):
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
                ev._eliminate_zero_edge(g, arg)
                continue
            if kind == "loop":
                return Fraction(0)
            if kind == "parallel":
                factor = ev._collapse_parallel(g, *arg, cache)
            else:
                factor = ev._contract_triangle(g, arg, cache)
            if factor is None:
                return Fraction(0)
            acc *= factor
            continue
        cycle = _uncapped_shortest_cycle(g)
        total = Fraction(0)
        for coeff, branch in ev._recoupling_branches(g, cycle, cache):
            total += coeff * _reference_eval_graph(branch, cache)
        return acc * total


def _reference_value(net):
    cache = EvalCache()
    value = Fraction(1)
    for comp in ev._components(ev._MGraph.from_network(net)):
        value *= _reference_eval_graph(comp, cache)
        if value == 0:
            return Fraction(0)
    return value


def _full_state(g):
    return (
        tuple(sorted(g.elabel.items())),
        tuple(sorted((e, tuple(ports)) for e, ports in g.eports.items())),
        tuple(sorted((v, tuple(ports)) for v, ports in g.vports.items())),
        tuple(g.circles),
    )


def _traced(monkeypatch, evaluate, net):
    """The value, the (state, cycle) of each recoupling step in order, and
    the number of recoupling coefficients computed."""
    steps = []
    coefficients = 0
    branches, coefficient = ev._recoupling_branches, ev.recoupling_coefficient

    def spy_branches(g, cycle, cache):
        steps.append((_full_state(g), tuple(map(tuple, cycle))))
        return branches(g, cycle, cache)

    def spy_coefficient(*args):
        nonlocal coefficients
        coefficients += 1
        return coefficient(*args)

    with monkeypatch.context() as patch:
        patch.setattr(ev, "_recoupling_branches", spy_branches)
        patch.setattr(ev, "recoupling_coefficient", spy_coefficient)
        value = evaluate(net)
    return value, steps, coefficients


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
    # the order the reference first meets them, and so gets the same value
    net = CUBIC_NETS[k]
    want, ref_steps, _ = _traced(monkeypatch, _reference_value, net)
    got, steps, _ = _traced(monkeypatch, lambda n: evaluate_closed(n, EvalCache()), net)
    assert got == want
    assert steps == list(dict.fromkeys(ref_steps))


@pytest.mark.parametrize("rungs, seed", [(6, 6), (8, 33)])
def test_memo_saves_recoupling_work_on_a_ladder(monkeypatch, rungs, seed):
    # most labelled ladders reduce by direct moves after one recoupling
    # step, leaving the memo nothing to reuse; these two recurse
    net = cycle_labelled_net(random.Random(seed), nx.circular_ladder_graph(rungs), seed % 3)
    want, _, ref_count = _traced(monkeypatch, _reference_value, net)
    got, _, count = _traced(monkeypatch, lambda n: evaluate_closed(n, EvalCache()), net)
    assert got == want
    assert count < ref_count


def _relabelled(g, rng, emap=None, vmap=None):
    """g with its edge and vertex ids sent to random distinct integers, or
    through the maps given."""
    emap = emap or dict(zip(g.elabel, rng.sample(range(4 * len(g.elabel)), len(g.elabel))))
    vmap = vmap or dict(zip(g.vports, rng.sample(range(4 * len(g.vports)), len(g.vports))))
    h = ev._MGraph()
    for e, label in g.elabel.items():
        h.elabel[emap[e]] = label
        h.eports[emap[e]] = [(vmap[v], slot) for v, slot in g.eports[e]]
    for v, ports in g.vports.items():
        h.vports[vmap[v]] = [(emap[e], side) for e, side in ports]
    return h


@settings(deadline=None, max_examples=80)
@given(st.integers(min_value=0, max_value=2**30), st.sampled_from([6, 8, 10, 12, 14, 16]))
def test_capped_shortest_cycle_matches_full_search(seed, n):
    # the reducer only searches graphs of girth >= 4
    rng = random.Random(seed)
    graph = random_cubic_graph(rng, n, min_girth=4)
    g = _relabelled(ev._MGraph.from_network(cycle_labelled_net(rng, graph)), rng)
    assert ev._shortest_cycle(g) == _uncapped_shortest_cycle(g)


def test_memo_key_tells_apart_ids_and_labels():
    # on nonplanar graphs the value depends on the schedule, which reads ids
    g = ev._MGraph.from_network(cube_net(1, 2))
    es, vs = sorted(g.elabel), sorted(g.vports)
    same_e, same_v = dict(zip(es, es)), dict(zip(vs, vs))
    states = [g]
    for a, b in itertools.combinations(es, 2):
        states.append(_relabelled(g, None, {**same_e, a: b, b: a}, same_v))
    for a, b in itertools.combinations(vs, 2):
        states.append(_relabelled(g, None, same_e, {**same_v, a: b, b: a}))
    for e in es:
        h = _relabelled(g, None, same_e, same_v)
        h.elabel[e] += 2
        states.append(h)
    assert len({_full_state(h) for h in states}) == len(states)
    assert len({ev._state_key(h) for h in states}) == len(states)


def _random_multigraph(rng, n, labels):
    """A random trivalent multigraph on n vertices, loops and parallel edges
    allowed, with random ids."""
    points = [(v, slot) for v in range(n) for slot in range(3)]
    rng.shuffle(points)
    g = ev._MGraph()
    g.vports = {v: [None] * 3 for v in range(n)}
    for e in range(len(points) // 2):
        g.elabel[e] = rng.choice(labels)
        g.eports[e] = [points[2 * e], points[2 * e + 1]]
        for side, (v, slot) in enumerate(g.eports[e]):
            g.vports[v][slot] = (e, side)
    return _relabelled(g, rng)


@settings(deadline=None, max_examples=400)
@given(
    st.integers(min_value=0, max_value=2**30),
    st.sampled_from([2, 4, 6, 8, 10, 12]),
    st.sampled_from(["multigraph", "multigraph without zeros", "simple"]),
)
@example(93, 6, "multigraph without zeros")  # a theta outranks a bubble of lower (u, v)
def test_one_scan_picks_what_the_reference_finders_pick(seed, n, kind):
    rng = random.Random(seed)
    if kind == "simple":
        net = cycle_labelled_net(rng, random_cubic_graph(rng, max(n, 4)))
        g = _relabelled(ev._MGraph.from_network(net), rng)
    else:
        g = _random_multigraph(rng, n, (0, 1, 2) if kind == "multigraph" else (1, 2))
    assert ev._next_move(g) == _ref_move(g)
