"""Deterministic network corpora shared by the test modules.

Everything here is seeded or enumerated so test runs are reproducible.
Beyond the public model API, only mirror_closures_planar reads the
evaluator: the closure graph a join runs.
"""

from __future__ import annotations

import itertools
import math
import random

import networkx as nx

from spinnet.evaluator import _MGraph, _shape
from spinnet.experiments import split_unit
from spinnet.model import (
    Edge,
    End,
    SpinNetwork,
    Vertex,
    admissible_couplings,
    merge_free_ends,
    vertex_admissible,
)

MAX_STRANDS = 16


def theta_net(a: int, b: int, c: int) -> SpinNetwork:
    return SpinNetwork.from_spec(
        {"x": a, "y": b, "z": c},
        [("u", ("x", "y", "z")), ("v", ("x", "y", "z"))],
    )


def tet_net(a: int, b: int, c: int, d: int, e: int, f: int) -> SpinNetwork:
    return SpinNetwork.from_spec(
        {"a": a, "b": b, "c": c, "d": d, "e": e, "f": f},
        [
            ("w", ("a", "d", "e")),
            ("x", ("b", "c", "e")),
            ("y", ("a", "b", "f")),
            ("z", ("c", "d", "f")),
        ],
    )


def prism_net(t1, t2, t3, u1, u2, u3, m1, m2, m3) -> SpinNetwork:
    return SpinNetwork.from_spec(
        {"t1": t1, "t2": t2, "t3": t3, "u1": u1, "u2": u2, "u3": u3,
         "m1": m1, "m2": m2, "m3": m3},
        [
            ("a1", ("t1", "t2", "m1")),
            ("a2", ("t2", "t3", "m2")),
            ("a3", ("t3", "t1", "m3")),
            ("b1", ("u1", "u2", "m1")),
            ("b2", ("u2", "u3", "m2")),
            ("b3", ("u3", "u1", "m3")),
        ],
    )


def cube_net(ring: int, rung: int) -> SpinNetwork:
    labels = {f"a{i}": ring for i in range(1, 5)}
    labels.update({f"b{i}": ring for i in range(1, 5)})
    labels.update({f"r{i}": rung for i in range(1, 5)})
    return SpinNetwork.from_spec(
        labels,
        [
            ("p1", ("a1", "a4", "r1")),
            ("p2", ("a1", "a2", "r2")),
            ("p3", ("a2", "a3", "r3")),
            ("p4", ("a3", "a4", "r4")),
            ("q1", ("b1", "b4", "r1")),
            ("q2", ("b1", "b2", "r2")),
            ("q3", ("b2", "b3", "r3")),
            ("q4", ("b3", "b4", "r4")),
        ],
    )


def dumbbell_net(loop1: int, loop2: int, bridge: int) -> SpinNetwork:
    return SpinNetwork.from_spec(
        {"l1": loop1, "l2": loop2, "c": bridge},
        [("u", ("l1", "l1", "c")), ("v", ("l2", "l2", "c"))],
    )


def aligned_triple(n: int) -> SpinNetwork:
    """Three label-n units coupled head-to-tail at maximal (stretched) labels.

    eA and eB couple to 2n, which couples with eC to 3n; the free ends of
    eA, eB, eC then behave as three perfectly aligned directions.
    """
    return SpinNetwork.from_spec(
        {"eA": n, "eB": n, "eAB": 2 * n, "eC": n, "eR": 3 * n},
        [("v1", ("eA", "eB", "eAB")), ("v2", ("eAB", "eC", "eR"))],
    )


def random_cubic_graph(rng: random.Random, n: int, min_girth: int = 3) -> nx.Graph:
    """A random connected, bridgeless, simple cubic graph on n vertices."""
    while True:
        graph = nx.random_regular_graph(3, n, seed=rng.randrange(2**32))
        if (
            nx.is_connected(graph)
            and not nx.has_bridges(graph)
            and nx.girth(graph) >= min_girth
        ):
            return graph


def cycle_labelled_net(rng: random.Random, graph: nx.Graph, extra: int = 0) -> SpinNetwork:
    """The closed network of a bridgeless cubic graph, labelled by superposed cycles.

    Each cycle, through an uncovered edge until every edge is covered and
    then through `extra` random edges, adds 1 along its edges.  A cycle
    meets a vertex in two of its three edges, so every vertex stays
    admissible and no edge is left at label zero.  Edge and vertex ids
    follow a random declaration order.
    """
    edges = [tuple(sorted(e)) for e in graph.edges]
    rng.shuffle(edges)
    labels = dict.fromkeys(edges, 0)

    def add_cycle(edge):
        # the edge closes the tree path of a random-order DFS between its ends
        a, b = edge
        parent = {b: None}
        stack = [b]
        while a not in parent:
            x = stack.pop()
            nbrs = [y for y in graph[x] if {x, y} != {a, b}]
            rng.shuffle(nbrs)
            for y in nbrs:
                if y not in parent:
                    parent[y] = x
                    stack.append(y)
        labels[edge] += 1
        while parent[a] is not None:
            labels[tuple(sorted((a, parent[a])))] += 1
            a = parent[a]

    for edge in edges:
        if labels[edge] == 0:
            add_cycle(edge)
    for _ in range(extra):
        add_cycle(rng.choice(edges))
    name = {edge: f"e{k}" for k, edge in enumerate(edges)}
    vertices = list(graph.nodes)
    rng.shuffle(vertices)
    return SpinNetwork.from_spec(
        [(name[edge], labels[edge]) for edge in edges],
        [(f"v{v}", [name[tuple(sorted((v, w)))] for w in graph[v]]) for v in vertices],
    )


def closed_corpus(max_strands: int = MAX_STRANDS) -> list[SpinNetwork]:
    """Every closed fixture family, label sums capped for the strand oracle."""
    nets: list[SpinNetwork] = [SpinNetwork((), ())]
    for a, b, c in itertools.combinations_with_replacement(range(6), 3):
        if vertex_admissible(a, b, c) and a + b + c <= max_strands:
            nets.append(theta_net(a, b, c))
    for labels in itertools.product(range(4), repeat=6):
        a, b, c, d, e, f = labels
        if sum(labels) > max_strands:
            continue
        if not (
            vertex_admissible(a, d, e)
            and vertex_admissible(b, c, e)
            and vertex_admissible(a, b, f)
            and vertex_admissible(c, d, f)
        ):
            continue
        nets.append(tet_net(*labels))
    for t, u, m in itertools.product((1, 2), (1, 2), (1, 2)):
        labels = (t, t, t, u, u, u, m, m, m)
        if sum(labels) > max_strands:
            continue
        if vertex_admissible(t, t, m) and vertex_admissible(u, u, m):
            nets.append(prism_net(*labels))
    nets.append(prism_net(1, 1, 2, 1, 1, 2, 2, 1, 1))
    nets.append(cube_net(1, 2))
    nets.append(cube_net(1, 0))
    for loop1, loop2, bridge in [(1, 1, 0), (1, 1, 2), (2, 2, 0), (2, 1, 2), (3, 2, 4)]:
        nets.append(dumbbell_net(loop1, loop2, bridge))
    # disconnected: two thetas evaluated as one network
    two = SpinNetwork.from_spec(
        {"x": 1, "y": 1, "z": 2, "p": 2, "q": 2, "r": 2},
        [("u", ("x", "y", "z")), ("v", ("x", "y", "z")),
         ("s", ("p", "q", "r")), ("t", ("p", "q", "r"))],
    )
    nets.append(two)
    return [n for n in nets if sum(e.label for e in n.edges) <= max_strands]


def grown_network(
    rng: random.Random,
    max_edges: int = 8,
    max_label: int = 6,
    dim_cap: int = 4000,
) -> SpinNetwork:
    """An open network grown by random merges and unit splits of bare edges."""
    count = rng.randint(1, 3)
    net = SpinNetwork.from_spec(
        {f"e{i}": rng.randint(0, max_label) for i in range(count)}
    )
    for _step in range(rng.randint(0, 6)):
        free = net.free_ends
        if len(free) < 2:
            break
        if rng.random() < 0.25:
            if len(net.edges) + 2 > max_edges:
                break
            end = rng.choice(free)
            label = net.label(end)
            if label >= 1:
                net = split_unit(net, end, rng.randint(1, label))
            continue
        if len(net.edges) + 1 > max_edges:
            break
        end_a, end_b = rng.sample(list(free), 2)
        choices = [
            c
            for c in admissible_couplings(net.label(end_a), net.label(end_b))
            if c <= max_label
        ]
        if not choices:
            continue
        net = merge_free_ends(net, end_a, end_b, rng.choice(choices))
    dim = math.prod(net.label(end) + 1 for end in net.free_ends)
    if dim > dim_cap or len(net.free_ends) < 2:
        return grown_network(rng, max_edges, max_label, dim_cap)
    return net


def open_corpus(count: int = 220, seed: int = 20260815) -> list[SpinNetwork]:
    rng = random.Random(seed)
    return [grown_network(rng) for _ in range(count)]


def free_end_pairs(nets: list[SpinNetwork]) -> list[tuple[SpinNetwork, End, End]]:
    """Every unordered pair of free ends of every network."""
    return [
        (net, end_a, end_b)
        for net in nets
        for end_a, end_b in itertools.combinations(net.free_ends, 2)
    ]


def reference_mirror_closure(net: SpinNetwork) -> tuple[SpinNetwork, list[int]]:
    """Glue a mirror copy of the network along every free end, as a network.

    Each edge with one free end fuses with its mirror image into a single
    edge between the copies; an edge with both ends free fuses into a bare
    loop, returned separately as a label (the model cannot hold a
    vertex-free loop).  The evaluator builds the same closure straight into
    its own graph (``_MGraph.from_shape``); this is the reference.
    """
    free_sides: dict[str, set[int]] = {}
    for end in net.free_ends:
        free_sides.setdefault(end.edge, set()).add(end.side)

    circles: list[int] = []
    edges: list[Edge] = []
    for e in net.edges:
        n_free = len(free_sides.get(e.id, ()))
        if n_free == 2:
            circles.append(e.label)
        elif n_free == 1:
            edges.append(Edge("g." + e.id, e.label))
        else:
            edges.append(Edge("o." + e.id, e.label))
            edges.append(Edge("m." + e.id, e.label))

    def port(end: End, copy: str) -> End:
        if len(free_sides.get(end.edge, ())) == 1:
            return End("g." + end.edge, 0 if copy == "o" else 1)
        return End(copy + "." + end.edge, end.side)

    vertices: list[Vertex] = []
    for v in net.vertices:
        vertices.append(Vertex("o." + v.id, tuple(port(end, "o") for end in v.ends)))
        vertices.append(Vertex("m." + v.id, tuple(port(end, "m") for end in v.ends)))
    return SpinNetwork(tuple(edges), tuple(vertices)), circles


def mirror_closures_planar(net: SpinNetwork, end_a: End, end_b: End) -> bool:
    """Whether every closed graph the join of two free ends evaluates is planar.

    The graph is the evaluator's own (``_MGraph.from_shape``), one for
    every channel, read under each channel's labels.  Label-0 edges are
    left out, as the evaluator removes them (welding the two edges each one
    held apart) before any other move.
    """
    closure = _MGraph.from_shape(_shape(net, end_a, end_b))
    labels = [e.label for e in net.edges]
    for c in admissible_couplings(net.label(end_a), net.label(end_b)):
        channel_labels = labels + [c]
        graph = nx.Graph()
        graph.add_nodes_from(closure.vports)
        graph.add_edges_from(
            (p0[0], p1[0])
            for e, (p0, p1) in closure.eports.items()
            if channel_labels[closure.epos[e]]
        )
        if not nx.check_planarity(graph)[0]:
            return False
    return True


def mixed_sign_join() -> tuple[SpinNetwork, End, End]:
    """A join whose mirror closures are nonplanar and whose channel weights
    come out of evaluate_closed with mixed signs (the Born rule gives
    c=3 p=7/655, c=5 p=648/655)."""
    net = SpinNetwork.from_spec(
        {"e0": 5, "e1": 3, "e2": 4, "j1": 5, "j2": 2, "u1": 1, "r1": 1, "j3": 2},
        [
            ("w1", ("e2", "e1", "j1")),
            ("w2", ("e0", "j1", "j2")),
            ("x1", ("j2", "u1", "r1")),
            ("w3", ("e1", "r1", "j3")),
        ],
    )
    return net, End("e2", 1), End("u1", 1)
