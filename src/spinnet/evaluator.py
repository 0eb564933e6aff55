"""Exact evaluation of closed labelled trivalent networks.

The value of a closed network is defined by strand expansion: an edge with
label n stands for n parallel strands averaged with signs over the n! ways
of matching its two ends, a vertex routes strands between its three edges
so that none terminates, and every closed strand loop contributes a factor
-2.  ``strand_expansion_oracle`` computes that sum literally; it is
factorially expensive and serves as ground truth.  ``evaluate_closed``
computes the same rational number by local rewrites (zero-edge removal,
loop and bubble collapse, triangle contraction, recoupling) whose scalar
coefficients are the closed forms below.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections import OrderedDict
from fractions import Fraction
from typing import Callable, Iterator, TypeVar

from .errors import HasFreeEnds, InadmissibleTriple, InvalidNetwork, OutOfRange, TooLarge
from .model import End, SpinNetwork, admissible_couplings, validate_network, vertex_admissible

_ENV_CACHE_SIZE = "SPINNET_CACHE_SIZE"

_T = TypeVar("_T")


class EvalCache:
    """LRU memo shareable across evaluations, keyed by tuples.

    It holds the evaluator's theta and tet values (``Fraction``), the
    ``hilbert`` coefficients ``cg`` and ``6j`` (``Radical``) and the
    ``hilbert`` tensors with their scales (``cg-band``, ``vertex-3j``,
    ``pairing``, ``bargmann-metric``), whose arrays are read-only because
    every caller shares them.
    """

    def __init__(self, max_entries: int | None = None):
        if max_entries is not None and max_entries < 1:
            raise OutOfRange("cache bound must be positive or None")
        self.max_entries = max_entries
        self._data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get_or(self, key, compute: Callable[[], _T]) -> _T:
        """The cached value for key, else compute() stored under it.  A
        compute() that raises stores nothing and counts as no miss."""
        try:
            value = self._data[key]
        except KeyError:
            value = compute()
            self.misses += 1
            self._data[key] = value
            if self.max_entries is not None:
                while len(self._data) > self.max_entries:
                    self._data.popitem(last=False)
            return value
        self.hits += 1
        self._data.move_to_end(key)
        return value

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    @property
    def stats(self) -> dict:
        return {"size": len(self._data), "hits": self.hits, "misses": self.misses}


_default_cache: EvalCache | None = None


def default_cache() -> EvalCache:
    """Process-wide cache; bound set by SPINNET_CACHE_SIZE when present."""
    global _default_cache
    if _default_cache is None:
        bound = os.environ.get(_ENV_CACHE_SIZE)
        try:
            max_entries = int(bound) if bound else None
        except ValueError:
            raise OutOfRange(f"{_ENV_CACHE_SIZE} must be an integer, got {bound!r}") from None
        _default_cache = EvalCache(max_entries)
    return _default_cache


# -- closed forms ------------------------------------------------------


def loop_value(n: int) -> Fraction:
    """Value of a free loop of label n: (-1)^n (n + 1)."""
    if n < 0:
        raise OutOfRange(f"label must be non-negative, got {n}")
    return Fraction((n + 1) if n % 2 == 0 else -(n + 1))


def theta_value(a: int, b: int, c: int, cache: EvalCache | None = None) -> Fraction:
    """Value of the two-vertex network whose three edges carry a, b, c."""
    if cache is None:
        cache = default_cache()
    key = ("theta",) + tuple(sorted((a, b, c)))
    return cache.get_or(key, lambda: _theta(a, b, c))


def _theta(a: int, b: int, c: int) -> Fraction:
    # checked on a cache miss only: a key is stored only for admissible
    # labels, and admissibility does not depend on their order
    if not vertex_admissible(a, b, c):
        raise InadmissibleTriple(a, b, c)
    s = (a + b + c) // 2
    m, n, p = s - c, s - a, s - b
    num = math.factorial(s + 1) * math.factorial(m) * math.factorial(n) * math.factorial(p)
    den = math.factorial(a) * math.factorial(b) * math.factorial(c)
    sign = -1 if s % 2 else 1
    return Fraction(sign * num, den)


# The six arguments label the edges of a tetrahedral network whose four
# vertices carry the triples (a,d,e), (b,c,e), (a,b,f), (c,d,f).  The 24
# relabelings induced by permuting the four vertices leave the value fixed;
# _TET_SYMMETRIES holds them as index permutations for canonical cache keys.


def _tet_symmetries() -> tuple[tuple[int, ...], ...]:
    edge_of_pair = {
        frozenset("wx"): 4, frozenset("wy"): 0, frozenset("wz"): 3,
        frozenset("xy"): 1, frozenset("xz"): 2, frozenset("yz"): 5,
    }
    pair_of_index = {i: pair for pair, i in edge_of_pair.items()}
    perms = set()
    for sigma in itertools.permutations("wxyz"):
        m = dict(zip("wxyz", sigma))
        image = tuple(
            edge_of_pair[frozenset(m[p] for p in pair_of_index[i])] for i in range(6)
        )
        perms.add(image)
    return tuple(sorted(perms))


_TET_SYMMETRIES = _tet_symmetries()


@functools.lru_cache(maxsize=4096)  # asked for on every tet lookup, hits included
def tet_canonical_key(a: int, b: int, c: int, d: int, e: int, f: int) -> tuple[int, ...]:
    labels = (a, b, c, d, e, f)
    return min(tuple(labels[i] for i in perm) for perm in _TET_SYMMETRIES)


def tet_value(a: int, b: int, c: int, d: int, e: int, f: int, cache: EvalCache | None = None) -> Fraction:
    """Value of the tetrahedral network with vertex triples
    (a,d,e), (b,c,e), (a,b,f), (c,d,f)."""
    if cache is None:
        cache = default_cache()
    key = ("tet",) + tet_canonical_key(a, b, c, d, e, f)
    return cache.get_or(key, lambda: _tet(a, b, c, d, e, f))


def _tet(a: int, b: int, c: int, d: int, e: int, f: int) -> Fraction:
    # checked on a cache miss only, as for _theta: the 24 symmetries only
    # permute the four vertex triples
    for triple in ((a, d, e), (b, c, e), (a, b, f), (c, d, f)):
        if not vertex_admissible(*triple):
            raise InadmissibleTriple(*triple)
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


def recoupling_coefficient(
    a: int, b: int, c: int, d: int, j: int, i: int, cache: EvalCache | None = None
) -> Fraction:
    """Weight of the i-channel when an edge j with end vertices (a,b|j) and
    (c,d|j) is traded for an edge i with end vertices (a,d|i) and (b,c|i)."""
    return (
        loop_value(i)
        * tet_value(a, b, c, d, i, j, cache)
        / (theta_value(a, d, i, cache) * theta_value(b, c, i, cache))
    )


def recoupling_six_j_magnitude(
    a: int, b: int, c: int, d: int, e: int, f: int, cache: EvalCache | None = None
) -> float:
    """|tet| normalized by the geometric mean of its four vertex thetas.

    This is the bridge between network evaluation and angular momentum
    recoupling: it equals the magnitude of the 6j symbol
    {a/2 d/2 e/2; c/2 b/2 f/2}.
    """
    t = tet_value(a, b, c, d, e, f, cache)
    norm = (
        theta_value(a, d, e, cache)
        * theta_value(b, c, e, cache)
        * theta_value(a, b, f, cache)
        * theta_value(c, d, f, cache)
    )
    return abs(float(t)) / math.sqrt(abs(float(norm)))


# -- reduction engine --------------------------------------------------


class _MGraph:
    """Mutable multigraph the reducer rewrites in place.

    elabel: edge -> label.  eports: edge -> [port, port] where a port is a
    (vertex, slot) pair or None for the stub left when a zero-labelled
    neighbour was deleted (only zero edges ever carry stubs).  vports:
    vertex -> [(edge, side) x 3].  circles collects labels of closed loops
    awaiting multiplication into the scalar.
    """

    __slots__ = ("elabel", "eports", "vports", "circles")

    def __init__(self):
        self.elabel: dict[int, int] = {}
        self.eports: dict[int, list] = {}
        self.vports: dict[int, list] = {}
        self.circles: list[int] = []

    @staticmethod
    def from_network(net: SpinNetwork) -> "_MGraph":
        g = _MGraph()
        eid_of = {e.id: k for k, e in enumerate(net.edges)}
        for e in net.edges:
            g.elabel[eid_of[e.id]] = e.label
            g.eports[eid_of[e.id]] = [None, None]
        for vk, v in enumerate(net.vertices):
            ports = []
            for slot, end in enumerate(v.ends):
                ek = eid_of[end.edge]
                g.eports[ek][end.side] = (vk, slot)
                ports.append((ek, end.side))
            g.vports[vk] = ports
        return g

    def copy(self) -> "_MGraph":
        g = _MGraph()
        g.elabel = dict(self.elabel)
        g.eports = {e: list(p) for e, p in self.eports.items()}
        g.vports = {v: list(p) for v, p in self.vports.items()}
        g.circles = list(self.circles)
        return g

    def empty(self) -> bool:
        return not self.elabel and not self.vports

    def endpoints(self, e: int) -> tuple[int | None, int | None]:
        p0, p1 = self.eports[e]
        return (p0[0] if p0 else None, p1[0] if p1 else None)

    def other_two(self, v: int, excluded: tuple[int, int]) -> tuple:
        rest = [p for p in self.vports[v] if p != excluded]
        assert len(rest) == 2, "vertex port bookkeeping broke"
        return rest[0], rest[1]

    def weld(self, p1, p2) -> None:
        """Fuse two edge ends whose shared junction has been removed.

        The surviving edge keeps p1's id; welding the two ends of a single
        edge closes it into a circle.
        """
        (e1, s1), (e2, s2) = p1, p2
        if e1 == e2:
            self.circles.append(self.elabel[e1])
            del self.elabel[e1]
            del self.eports[e1]
            return
        assert self.elabel[e1] == self.elabel[e2], "weld across unequal labels"
        far = self.eports[e2][1 - s2]
        self.eports[e1][s1] = far
        if far is not None:
            fv, fslot = far
            self.vports[fv][fslot] = (e1, s1)
        del self.elabel[e2]
        del self.eports[e2]

    def drop_edge(self, e: int) -> None:
        del self.elabel[e]
        del self.eports[e]

    def drop_vertex(self, v: int) -> None:
        del self.vports[v]

    def add_edge(self, label: int, port0=None, port1=None) -> int:
        e = (max(self.elabel) + 1) if self.elabel else 0
        self.elabel[e] = label
        self.eports[e] = [port0, port1]
        return e

    def add_vertex(self, ports) -> int:
        v = (max(self.vports) + 1) if self.vports else 0
        self.vports[v] = list(ports)
        for slot, (e, side) in enumerate(ports):
            self.eports[e][side] = (v, slot)
        return v


def _eliminate_zero_edge(g: _MGraph, e: int) -> None:
    """Delete a zero-labelled edge, welding the neighbours it held apart."""
    ports = g.eports[e]
    if ports[0] is not None and ports[1] is not None and ports[0][0] == ports[1][0]:
        # zero self-loop: the vertex's third edge is forced to label zero
        # as well; stub it out and drop the vertex with the loop.
        v = ports[0][0]
        rest = [p for p in g.vports[v] if p[0] != e]
        assert len(rest) == 1 and g.elabel[rest[0][0]] == 0
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
        g.weld(a, b)


def _next_move(g: _MGraph) -> tuple[str, object] | None:
    """The schedule's next direct move, from one scan of the edges in id order.

    In order of priority:
    - ("zero", e): the lowest-id zero-labelled edge;
    - ("loop", v): the lowest vertex holding a self-loop;
    - ("parallel", (u, v, edges)): the bundle between u < v, edges by id,
      the lowest (u, v) with three edges (a whole theta component), else
      the lowest with two;
    - ("triangle", (t1, t2, t3, p, q, r)): the lexicographically first
      3-cycle t1 < t2 < t3, where p = t1t2, q = t2t3, r = t3t1.
    None means none applies: the graph has girth at least 4.
    """
    nbrs: dict[int, dict[int, int]] = {v: {} for v in g.vports}  # first edge to each neighbour
    loop = None
    bundles: dict[tuple[int, int], list[int]] = {}
    tri = None
    for e in sorted(g.elabel):
        if g.elabel[e] == 0:
            return "zero", e
        (u, _), (v, _) = g.eports[e]  # only zero edges carry stubs
        if u == v:
            if loop is None or u < loop:
                loop = u
            continue
        row_u, row_v = nbrs[u], nbrs[v]
        if v in row_u:
            bundles.setdefault((u, v) if u < v else (v, u), [row_u[v]]).append(e)
            continue
        for w in row_u:
            if w in row_v:  # e closes the triangle u, v, w
                t = tuple(sorted((u, v, w)))
                if tri is None or t < tri:
                    tri = t
        row_u[v] = row_v[u] = e
    if loop is not None:
        return "loop", loop
    if bundles:
        pairs = sorted(bundles)
        u, v = next((p for p in pairs if len(bundles[p]) == 3), pairs[0])
        return "parallel", (u, v, bundles[u, v])
    if tri is not None:
        t1, t2, t3 = tri
        return "triangle", (t1, t2, t3, nbrs[t1][t2], nbrs[t2][t3], nbrs[t3][t1])
    return None


def _collapse_parallel(g: _MGraph, u: int, v: int, edges: list[int], cache: EvalCache) -> Fraction | None:
    """Remove a two-vertex face.  Returns the scalar factor, or None when
    the component evaluates to zero (mismatched outer labels)."""
    if len(edges) == 3:
        x, y, z = (g.elabel[e] for e in edges)
        for e in edges:
            g.drop_edge(e)
        g.drop_vertex(u)
        g.drop_vertex(v)
        return theta_value(x, y, z, cache)
    e1, e2 = edges
    x, y = g.elabel[e1], g.elabel[e2]
    outer_u = [p for p in g.vports[u] if p[0] not in (e1, e2)]
    outer_v = [p for p in g.vports[v] if p[0] not in (e1, e2)]
    assert len(outer_u) == 1 and len(outer_v) == 1
    cu, cv = g.elabel[outer_u[0][0]], g.elabel[outer_v[0][0]]
    if cu != cv:
        return None
    g.drop_edge(e1)
    g.drop_edge(e2)
    g.drop_vertex(u)
    g.drop_vertex(v)
    g.weld(outer_u[0], outer_v[0])
    return theta_value(x, y, cu, cache) / loop_value(cu)


def _contract_triangle(g: _MGraph, tri: tuple[int, int, int, int, int, int], cache: EvalCache) -> Fraction | None:
    """Replace a 3-cycle by a single vertex.  Returns the scalar factor, or
    None when the outer labels cannot meet at a vertex (value zero)."""
    t1, t2, t3, p, q, r = tri
    outer1 = [pt for pt in g.vports[t1] if pt[0] not in (p, r)]
    outer2 = [pt for pt in g.vports[t2] if pt[0] not in (p, q)]
    outer3 = [pt for pt in g.vports[t3] if pt[0] not in (q, r)]
    assert len(outer1) == 1 and len(outer2) == 1 and len(outer3) == 1
    alpha = g.elabel[outer1[0][0]]
    beta = g.elabel[outer2[0][0]]
    gamma = g.elabel[outer3[0][0]]
    if not vertex_admissible(alpha, beta, gamma):
        return None
    lp, lq, lr = g.elabel[p], g.elabel[q], g.elabel[r]
    factor = tet_value(alpha, beta, lq, lr, lp, gamma, cache) / theta_value(alpha, beta, gamma, cache)
    for e in (p, q, r):
        g.drop_edge(e)
    for t in (t1, t2, t3):
        g.drop_vertex(t)
    g.add_vertex([outer1[0], outer2[0], outer3[0]])
    return factor


def _shortest_cycle(g: _MGraph) -> tuple[list[int], list[int]] | None:
    """Shortest cycle as (vertices, edges); edges[i] joins vertices[i], [i+1].

    Of the shortest cycles, the one through the lowest edge id wins.  The
    graph must have girth at least 4 (the direct moves have removed every
    loop, bubble and triangle): the first 4-cycle found ends the search, and
    each BFS stops at the depth past which it could no longer beat the best
    cycle so far.
    """
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vports}
    for e in sorted(g.elabel):
        u, v = g.endpoints(e)
        adj[u].append((v, e))
        adj[v].append((u, e))
    best: tuple[list[int], list[int]] | None = None
    for e0 in sorted(g.elabel):
        u0, v0 = g.endpoints(e0)
        # shortest path u0 -> v0 avoiding e0 closes the shortest cycle via e0;
        # only a path of at most `limit` edges closes a strictly shorter one
        limit = len(best[1]) - 2 if best is not None else len(g.vports)
        dist = {u0: 0}
        parent: dict[int, tuple[int, int]] = {}
        frontier = [u0]
        while frontier and v0 not in dist and dist[frontier[0]] < limit:
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
        verts = [v0]
        edges = []
        x = v0
        while x != u0:
            px, pe = parent[x]
            edges.append(pe)
            verts.append(px)
            x = px
        verts.reverse()
        edges.reverse()
        edges.append(e0)  # closes verts[-1] -> verts[0]
        best = (verts, edges)
        if len(edges) == 4:
            break
    return best


def _recoupling_branches(
    g: _MGraph, cycle: tuple[list[int], list[int]], cache: EvalCache
) -> Iterator[tuple[Fraction, "_MGraph"]]:
    """Trade one cycle edge for a chord, yielding (weight, rewired graph)
    per admissible channel.  The rewired graphs have a strictly shorter
    shortest cycle, which is what makes the reduction terminate."""
    verts, edges = cycle
    k = len(edges)
    assert k >= 4, "short cycles are handled by the direct moves"
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
    la, lb = g.elabel[a_port[0]], g.elabel[b_port[0]]
    lc, ld = g.elabel[c_port[0]], g.elabel[d_port[0]]
    lj = g.elabel[j]
    channels = sorted(set(admissible_couplings(la, ld)) & set(admissible_couplings(lb, lc)))
    for li in channels:
        coeff = recoupling_coefficient(la, lb, lc, ld, lj, li, cache)
        h = g.copy()
        h.drop_edge(j)
        h.drop_vertex(v0)
        h.drop_vertex(v1)
        ei = h.add_edge(li)
        h.add_vertex([a_port, d_port, (ei, 0)])
        h.add_vertex([b_port, c_port, (ei, 1)])
        yield coeff, h


def _components(g: _MGraph) -> list[_MGraph]:
    seen: set[int] = set()
    comps: list[_MGraph] = []
    for start in sorted(g.vports):
        if start in seen:
            continue
        stack = [start]
        verts = set()
        while stack:
            v = stack.pop()
            if v in verts:
                continue
            verts.add(v)
            for e, _side in g.vports[v]:
                for w in g.endpoints(e):
                    if w is not None and w not in verts:
                        stack.append(w)
        seen |= verts
        h = _MGraph()
        for v in verts:
            h.vports[v] = list(g.vports[v])
        for e, ports in g.eports.items():
            owner = ports[0][0] if ports[0] else ports[1][0]
            if owner in verts:
                h.elabel[e] = g.elabel[e]
                h.eports[e] = list(ports)
        comps.append(h)
    return comps


def _require_closed_valid(net: SpinNetwork) -> None:
    violations = validate_network(net)
    if violations:
        raise InvalidNetwork(violations)
    if net.free_ends:
        ends = ", ".join(f"{e.edge}:{e.side}" for e in net.free_ends)
        raise HasFreeEnds(f"network has free ends: {ends}")


def evaluate_closed(net: SpinNetwork, cache: EvalCache | None = None) -> Fraction:
    """Exact value of a closed network.

    The rewrites follow a deterministic schedule.  On planar networks the
    result does not depend on that schedule; on nonplanar ones it does, and
    the value returned there is not to be trusted.

    Within one call, the total over the recoupling branches is memoised by
    the exact graph state at the recoupling step (labels and ports, ids
    included, since the schedule reads them): once a new channel edge has
    been absorbed, the graph left is often the same for every channel.  The
    memo is dropped when the call returns.
    """
    _require_closed_valid(net)
    if cache is None:
        cache = default_cache()
    g = _MGraph.from_network(net)
    memo: dict[tuple, Fraction] = {}
    value = Fraction(1)
    for comp in _components(g):
        value *= _eval_graph(comp, cache, memo)
        if value == 0:
            return Fraction(0)
    return value


def _state_key(g: _MGraph) -> tuple:
    """The exact state of g that the schedule reads: edge labels and ports,
    with their ids.  vports is the inverse of eports, so it adds nothing;
    circles are always flushed before a recoupling step."""
    return tuple((e, g.elabel[e], *g.eports[e]) for e in sorted(g.elabel))


def _eval_graph(g: _MGraph, cache: EvalCache, memo: dict[tuple, Fraction]) -> Fraction:
    """Value of one connected component, recursing over recoupling branches;
    memo maps the state at a recoupling step to its branch total."""
    acc = Fraction(1)
    while True:
        if g.circles:
            for lbl in g.circles:
                acc *= loop_value(lbl)
            g.circles.clear()
        if g.empty():
            return acc

        move = _next_move(g)
        if move is not None:
            kind, arg = move
            if kind == "zero":
                _eliminate_zero_edge(g, arg)
                continue
            if kind == "loop":
                # a bundle closing onto its own vertex forces the third label
                # to zero; zero edges are gone here, so the component vanishes
                return Fraction(0)
            if kind == "parallel":
                factor = _collapse_parallel(g, *arg, cache)
            else:
                factor = _contract_triangle(g, arg, cache)
            if factor is None:
                return Fraction(0)
            acc *= factor
            continue

        key = _state_key(g)
        total = memo.get(key)
        if total is None:
            cycle = _shortest_cycle(g)
            assert cycle is not None, "a closed trivalent graph always has a cycle"
            total = Fraction(0)
            for coeff, branch in _recoupling_branches(g, cycle, cache):
                total += coeff * _eval_graph(branch, cache, memo)
            memo[key] = total
        return acc * total


# -- strand expansion oracle --------------------------------------------


def _rotation_system(net: SpinNetwork) -> dict[str, list[End]]:
    """Cyclic order of ends around each vertex, from a planar embedding.

    The network is expanded into a simple graph (two midpoint nodes per
    edge, so self-loops and parallel edges pose no problem), handed to the
    planarity algorithm, and the embedding's neighbor order around each
    vertex node is read back as an order on that vertex's ends.  Label-0
    ends carry no strands, so they are left out of the embedding and
    appended arbitrarily.
    """
    # networkx's only user: imported here so that importing spinnet does
    # not load it
    import networkx as nx

    aux = nx.Graph()
    for v in net.vertices:
        aux.add_node(("v", v.id))
        for end in v.ends:
            if net.label(end) > 0:
                aux.add_edge(("v", v.id), ("m", end.edge, end.side))
    for e in net.edges:
        if e.label > 0:
            aux.add_edge(("m", e.id, 0), ("m", e.id, 1))
    ok, embedding = nx.check_planarity(aux)
    if not ok:
        raise TooLarge("no planar embedding; the strand expansion is only "
                       "defined for planar networks")
    data = embedding.get_data()
    rotation = {}
    for v in net.vertices:
        order = [End(n[1], n[2]) for n in data.get(("v", v.id), [])]
        order += [end for end in v.ends if net.label(end) == 0]
        rotation[v.id] = order
    return rotation


def strand_expansion_oracle(net: SpinNetwork, max_strands: int = 16) -> Fraction:
    """Evaluate a closed network straight from the strand definition.

    Each edge of label n stands for n spin-1/2 strands joined end to end
    in all n! ways with the sign of the permutation, each vertex routes
    its strands between bundles without crossings, and a completed
    configuration contributes a factor -2 per closed strand loop.  The
    grand sum, divided by the product of the n! and by -1 for every
    antiparallel strand pair (n_e choose 2 per edge), is the network
    value.

    "Without crossings" is meant literally: the network is drawn in the
    plane first (only the cyclic order of edges around each vertex
    matters), and each vertex pairs off strands in the unique nested
    pattern inside each corner of that drawing.  Routing them any other
    way can flip the sign of the whole sum, which is why the drawing is
    pinned down here rather than left to declaration order; the value is
    then a function of the network alone, which the test suite checks by
    shuffling declaration order.

    Exponential in the total label; refuses inputs whose labels sum past
    max_strands, and the rare network with no planar drawing (none exist
    below nine edges).

    The first call imports networkx (for the planar drawing); importing
    spinnet itself does not.
    """
    _require_closed_valid(net)
    total_label = sum(e.label for e in net.edges)
    if total_label > max_strands:
        raise TooLarge(f"{total_label} strands exceeds the bound {max_strands}")

    # one slot per strand end, grouped by edge end
    slot_base: dict[tuple[str, int], int] = {}
    npos = 0
    for v in net.vertices:
        for end in v.ends:
            slot_base[(end.edge, end.side)] = npos
            npos += net.label(end)

    # nested routing: the corner between cyclically adjacent bundles x, y
    # holds (x+y-z)/2 arcs pairing the last slots of x with the first
    # slots of y in reverse; no two arcs interleave
    rotation = _rotation_system(net)
    arc = list(range(npos))
    for v in net.vertices:
        ends = rotation[v.id]
        labels = [net.label(end) for end in ends]
        total = sum(labels)
        for i, end_i in enumerate(ends):
            j = (i + 1) % len(ends)
            m = labels[i] + labels[j] - (total - labels[i] - labels[j])
            si = slot_base[(end_i.edge, end_i.side)]
            sj = slot_base[(ends[j].edge, ends[j].side)]
            for t in range(m // 2):
                x = si + labels[i] - 1 - t
                y = sj + t
                arc[x] = y
                arc[y] = x

    # per-edge permutation pools with signs and inverses
    pools = []
    for e in net.edges:
        n = e.label
        pool = []
        for sigma in itertools.permutations(range(n)):
            inv = [0] * n
            for k, s in enumerate(sigma):
                inv[s] = k
            pool.append((_perm_sign(sigma), sigma, inv))
        pools.append((e.id, n, pool))

    denom = 1
    for _eid, n, _pool in pools:
        denom *= math.factorial(n)

    grand = 0
    edge_step = list(range(npos))
    for combo in itertools.product(*(pool for _eid, _n, pool in pools)):
        sign = 1
        for (eid, n, _pool), (s, sigma, inv) in zip(pools, combo):
            sign *= s
            b0 = slot_base[(eid, 0)]
            b1 = slot_base[(eid, 1)]
            for k in range(n):
                edge_step[b0 + k] = b1 + sigma[k]
                edge_step[b1 + k] = b0 + inv[k]
        loops = 0
        visited = bytearray(npos)
        for s0 in range(npos):
            if visited[s0]:
                continue
            loops += 1
            cur = s0
            while True:
                visited[cur] = 1
                nxt = arc[cur]
                visited[nxt] = 1
                cur = edge_step[nxt]
                if cur == s0:
                    break
        grand += sign * (-2) ** loops
    antiparallel = sum(e.label * (e.label - 1) // 2 for e in net.edges)
    return Fraction(-grand if antiparallel % 2 else grand, denom)


def _perm_sign(sigma) -> int:
    seen = [False] * len(sigma)
    sign = 1
    for k in range(len(sigma)):
        if seen[k]:
            continue
        length = 0
        j = k
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
