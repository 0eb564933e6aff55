"""Seeded input generators for the benchmark, independent of the package.

Networks are built here as plain edge/vertex lists and written straight to
`.snet` text, so nothing the package does (its model, serializer or test
helpers) can change what the benchmark feeds it.  The parser claims an
edge's side 0 at its first vertex mention and side 1 at its second, so an
edge mentioned once has its side-1 end free and an edge never mentioned
has both ends free; requests name free ends the way the command line
does, by edge id with an optional `:side`.

Every generator takes a `random.Random` and nothing else that varies, so
one seed gives byte-identical text.
"""

from __future__ import annotations

import math
import random


def couplings(a: int, b: int) -> range:
    """Labels c that may meet a and b at a vertex: |a-b|, |a-b|+2, ..., a+b."""
    return range(abs(a - b), a + b + 1, 2)


class Net:
    """A labelled trivalent network under construction."""

    def __init__(self):
        self.edges: list[tuple[str, int]] = []
        self.vertices: list[tuple[str, tuple[str, str, str]]] = []
        self.label: dict[str, int] = {}
        self.claims: dict[str, int] = {}

    def add_edge(self, eid: str, label: int) -> str:
        self.edges.append((eid, label))
        self.label[eid] = label
        self.claims[eid] = 0
        return eid

    def add_vertex(self, vid: str, e1: str, e2: str, e3: str) -> None:
        for e in (e1, e2, e3):
            self.claims[e] += 1
            assert self.claims[e] <= 2, "edge claimed three times"
        self.vertices.append((vid, (e1, e2, e3)))

    def free_ends(self) -> list[str]:
        """Free ends as end names: `e` for an edge's only free end,
        `e:0` and `e:1` when both ends of e are free."""
        out = []
        for eid, _ in self.edges:
            n = self.claims[eid]
            if n == 0:
                out += [f"{eid}:0", f"{eid}:1"]
            elif n == 1:
                out.append(eid)
        return out

    def text(self) -> str:
        lines = [f"edge {eid} {lbl}" for eid, lbl in self.edges]
        lines += [f"vertex {vid} {a} {b} {c}" for vid, (a, b, c) in self.vertices]
        return "\n".join(lines) + "\n"


def end_edge(end: str) -> str:
    return end.partition(":")[0]


# -- open networks ----------------------------------------------------------


def grown_network(rng: random.Random, max_edges: int, max_label: int, dim_cap: int) -> Net:
    """An open network grown from bare edges by random merges and unit splits.

    Retries until the network has at least two free ends and the product
    of (label + 1) over its free ends, the dimension the Born-rule path
    contracts into, is at most dim_cap.
    """
    while True:
        net = Net()
        for i in range(rng.randint(1, 3)):
            net.add_edge(f"e{i}", rng.randint(0, max_label))
        fresh = 0
        for _step in range(rng.randint(0, 6)):
            free = net.free_ends()
            if len(free) < 2:
                break
            fresh += 1
            if rng.random() < 0.25:
                if len(net.edges) + 2 > max_edges:
                    break
                end = rng.choice(free)
                a = net.label[end_edge(end)]
                if a >= 1:
                    k = rng.randint(1, a)
                    _split(net, end, k, fresh)
                continue
            if len(net.edges) + 1 > max_edges:
                break
            end_a, end_b = rng.sample(free, 2)
            if end_edge(end_a) == end_edge(end_b):
                continue  # a self-loop forces the joint label to 0
            choices = [
                c for c in couplings(net.label[end_edge(end_a)], net.label[end_edge(end_b)])
                if c <= max_label
            ]
            if not choices:
                continue
            c = rng.choice(choices)
            j = net.add_edge(f"j{fresh}", c)
            net.add_vertex(f"w{fresh}", end_edge(end_a), end_edge(end_b), j)
        free = net.free_ends()
        dim = math.prod(net.label[end_edge(e)] + 1 for e in free)
        if len(free) >= 2 and dim <= dim_cap:
            return net


def _split(net: Net, end: str, k: int, n: int) -> None:
    a = net.label[end_edge(end)]
    u = net.add_edge(f"u{n}", k)
    r = net.add_edge(f"r{n}", a - k)
    net.add_vertex(f"x{n}", end_edge(end), u, r)


def aligned_triple(n: int) -> Net:
    """Three label-n units coupled head to tail at maximal labels.

    eA and eB couple to 2n, which couples with eC to 3n, so the free ends
    of eA, eB and eC behave as three parallel directions.
    """
    net = Net()
    for eid, lbl in (("eA", n), ("eB", n), ("eAB", 2 * n), ("eC", n), ("eR", 3 * n)):
        net.add_edge(eid, lbl)
    net.add_vertex("v1", "eA", "eB", "eAB")
    net.add_vertex("v2", "eAB", "eC", "eR")
    return net


# -- closed networks ----------------------------------------------------------


def random_cubic_graph(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A uniformly paired simple cubic graph on n vertices with no bridge.

    Pairing model: 3n points, a random perfect matching, rejected until
    the multigraph is simple, connected and bridgeless (every edge on a
    cycle, which the cycle labelling below needs).
    """
    assert n % 2 == 0 and n >= 4
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = [(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2])]
        if any(a == b for a, b in edges) or len(set(edges)) != len(edges):
            continue
        if all(_on_cycle(n, edges, k) for k in range(len(edges))):
            return edges


def circular_ladder(rungs: int) -> list[tuple[int, int]]:
    """Two rings of `rungs` vertices joined by rungs (3 gives the prism, 4 the cube)."""
    edges = []
    for i in range(rungs):
        j = (i + 1) % rungs
        edges += [(i, j), (rungs + i, rungs + j), (i, rungs + i)]
    return edges


def _adjacency(n: int, edges: list[tuple[int, int]], skip: int) -> list[list[tuple[int, int]]]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, (a, b) in enumerate(edges):
        if k != skip:
            adj[a].append((b, k))
            adj[b].append((a, k))
    return adj


def _on_cycle(n: int, edges: list[tuple[int, int]], k: int) -> bool:
    """Whether edge k lies on a cycle (its ends stay connected without it)."""
    a, b = edges[k]
    adj = _adjacency(n, edges, k)
    seen = {a}
    stack = [a]
    while stack:
        x = stack.pop()
        for y, _e in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return b in seen and len(seen) == n


def _random_cycle(rng: random.Random, n: int, edges: list[tuple[int, int]], k: int) -> list[int]:
    """Edge indices of a cycle through edge k: k plus a random-order DFS path."""
    a, b = edges[k]
    adj = _adjacency(n, edges, k)
    parent = {b: None}
    stack = [b]
    while a not in parent:
        x = stack.pop()
        nbrs = adj[x][:]
        rng.shuffle(nbrs)
        for y, e in nbrs:
            if y not in parent:
                parent[y] = (x, e)
                stack.append(y)
    path = [k]
    x = a
    while parent[x] is not None:
        x, e = parent[x]
        path.append(e)
    return path


def cycle_labels(rng: random.Random, n: int, edges: list[tuple[int, int]], extra: int) -> list[int]:
    """Edge labels from superposed cycles: each cycle adds 1 along its edges.

    Cycles are drawn through uncovered edges until every edge is covered,
    then `extra` more through random edges.  A cycle meets a vertex in two
    of its three edges, so every vertex stays admissible (even sum,
    triangle inequality), and no edge is left at label zero.
    """
    labels = [0] * len(edges)
    while 0 in labels:
        for e in _random_cycle(rng, n, edges, labels.index(0)):
            labels[e] += 1
    for _ in range(extra):
        for e in _random_cycle(rng, n, edges, rng.randrange(len(edges))):
            labels[e] += 1
    return labels


def closed_net(edges: list[tuple[int, int]], labels: list[int]) -> Net:
    """The closed network of a cubic graph with the given edge labels."""
    n = 1 + max(max(e) for e in edges)
    net = Net()
    incident: list[list[str]] = [[] for _ in range(n)]
    for k, ((a, b), lbl) in enumerate(zip(edges, labels)):
        net.add_edge(f"e{k}", lbl)
        incident[a].append(f"e{k}")
        incident[b].append(f"e{k}")
    for v, es in enumerate(incident):
        net.add_vertex(f"v{v}", *es)
    return net


def register(ancillas: int) -> Net:
    """A qubit register as bare label-1 edges: one system qubit, then ancillas."""
    net = Net()
    net.add_edge("s0", 1)
    for i in range(ancillas):
        net.add_edge(f"a{i}", 1)
    return net
