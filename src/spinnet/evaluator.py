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

import itertools
import math
import operator
import os
from collections import Counter, OrderedDict
from fractions import Fraction
from typing import Callable, TypeVar

from .errors import HasFreeEnds, InadmissibleTriple, InvalidNetwork, OutOfRange, TooLarge
from .model import End, SpinNetwork, validate_network, vertex_admissible

_ENV_CACHE_SIZE = "SPINNET_CACHE_SIZE"

_T = TypeVar("_T")


class EvalCache:
    """LRU memo keyed by tuples: the type of the process cache.

    ``default_cache()`` builds the one instance the package reads and
    writes, and the package keeps no other memo across calls, so a cleared
    cache is a cold one.  It holds the evaluator's theta values
    (``Fraction``), its triangle factors (a reduced ``(numerator,
    denominator)`` pair of ints), its recoupling families (for one
    (a, b, c, d, j), an ``(i, numerator, denominator)`` triple of ints per
    channel i, in increasing i, each pair reduced) and its compiled
    programs (``program``: one per network shape and set of zero-labelled
    positions, which hold no label), and the ``hilbert`` tensors with their
    scales (``operand``: a vertex's 3j with its slots' pairings applied and
    any self-loop traced, keyed by its labels, pairings and loop alone;
    ``cg-band``: every channel of a Born join of labels (a, b), one entry
    per pair, each channel's Clebsch-Gordan band on the axis k_a + k_b,
    along which the projection reads only the state's J_z-conserving
    entries;
    ``vertex-3j``, ``pairing``, ``bargmann-metric``), whose arrays are
    read-only because every caller shares them.  Every
    pair has a positive denominator.  Tets are not cached: each is
    computed when a move factor built from it misses; and neither are
    ``tet_value``, ``recoupling_coefficient`` and the public ``hilbert``
    coefficients, nor the recoupling totals, which last one evaluation.
    max_entries is a plain ``int`` of at least 1, or None for no bound.
    """

    def __init__(self, max_entries: int | None = None):
        if max_entries is not None and (type(max_entries) is not int or max_entries < 1):
            raise OutOfRange(f"cache bound must be an int >= 1 or None, got {max_entries!r}")
        self.max_entries = max_entries
        self._data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get_or(self, key, compute: Callable[..., _T], *args) -> _T:
        """The cached value for key, else compute(*args) stored under it.
        A compute that raises stores nothing and counts as no miss.  A hit
        moves key to the back of the eviction order only when the cache is
        bounded: an unbounded cache evicts nothing, so its order is moot."""
        try:
            value = self._data[key]
        except KeyError:
            value = compute(*args)
            self.put(key, value)
            return value
        self.hits += 1
        if self.max_entries is not None:
            self._data.move_to_end(key)
        return value

    def get(self, key):
        """The cached value for key, counted as a hit, else None, counted as
        nothing: for a caller that stores its value later, by ``put``."""
        value = self._data.get(key)
        if value is not None:
            self.hits += 1
            if self.max_entries is not None:
                self._data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        """Store value under key, counted as a miss, evicting the least
        recently used entries past the bound."""
        self.misses += 1
        self._data[key] = value
        if self.max_entries is not None:
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    @property
    def stats(self) -> dict:
        return {"size": len(self._data), "hits": self.hits, "misses": self.misses}

    def kinds(self) -> dict[str, int]:
        """The number of entries of each key kind (a key's first item),
        counted over the keys on each call, so lookups never pay for it."""
        return dict(Counter(key[0] for key in self._data))


_default_cache: EvalCache | None = None


def default_cache() -> EvalCache:
    """The process cache, built on first use, that every closed form,
    compiled program and Born-path tensor is looked up in.  A program is
    stored once the evaluation that compiled it returns; the recoupling
    totals its steps reach are not stored, and last one evaluation.
    SPINNET_CACHE_SIZE, read then, bounds its entries; unset, it is
    unbounded."""
    global _default_cache
    if _default_cache is None:
        bound = os.environ.get(_ENV_CACHE_SIZE)
        try:
            max_entries = int(bound) if bound else None
            _default_cache = EvalCache(max_entries)
        except (ValueError, OutOfRange):
            raise OutOfRange(f"{_ENV_CACHE_SIZE} must be a positive integer, got {bound!r}") from None
    return _default_cache


# -- closed forms ------------------------------------------------------


def loop_value(n: int) -> Fraction:
    """Value of a free loop of label n: (-1)^n (n + 1)."""
    if type(n) is not int:
        raise OutOfRange(f"label must be a non-negative int, got {n!r}")
    return Fraction(_loop(n))


def _loop(n: int) -> int:
    # loop_value as an int: the label step multiplies it in unreduced
    if n < 0:
        raise OutOfRange(f"label must be non-negative, got {n}")
    return n + 1 if n % 2 == 0 else -(n + 1)


def theta_value(a: int, b: int, c: int) -> Fraction:
    """Value of the two-vertex network whose three edges carry a, b, c."""
    # checked on every call, hits included: a float or bool label's key
    # would equal an int one's
    if not (type(a) is type(b) is type(c) is int):
        raise InadmissibleTriple(a, b, c)
    # the key holds the labels in increasing order, found by comparisons
    # rather than sorted(): once the cache is warm nearly every call hits
    lo, hi = (a, b) if a <= b else (b, a)
    if c >= hi:
        key = ("theta", lo, hi, c)
    elif c >= lo:
        key = ("theta", lo, c, hi)
    else:
        key = ("theta", c, lo, hi)
    return default_cache().get_or(key, _theta, a, b, c)


# The largest label a closed form takes; a larger one raises TooLarge.  The
# cost grows with the labels (factorials of them, and for a tet a Racah sum
# whose length grows with them too): with every label at the bound, one
# _theta takes about 0.4 s and one tet_value about 4 s on a 2-core host, and
# _theta(n, n, n) takes about 4x as long per doubling of n past it.
MAX_CLOSED_FORM_LABEL = 32_768


def _check_label_bound(labels: tuple[int, ...]) -> None:
    top = max(labels)
    if top > MAX_CLOSED_FORM_LABEL:
        raise TooLarge(f"label {top} exceeds the closed-form bound {MAX_CLOSED_FORM_LABEL}")


def _theta(a: int, b: int, c: int) -> Fraction:
    # checked on a cache miss only: a key is stored only for admissible
    # labels within the bound, and neither check depends on their order
    if not vertex_admissible(a, b, c):
        raise InadmissibleTriple(a, b, c)
    _check_label_bound((a, b, c))
    s = (a + b + c) // 2
    m, n, p = s - c, s - a, s - b
    num = math.factorial(s + 1) * math.factorial(m) * math.factorial(n) * math.factorial(p)
    den = math.factorial(a) * math.factorial(b) * math.factorial(c)
    sign = -1 if s % 2 else 1
    return Fraction(sign * num, den)


def tet_value(a: int, b: int, c: int, d: int, e: int, f: int) -> Fraction:
    """Value of the tetrahedral network with vertex triples
    (a,d,e), (b,c,e), (a,b,f), (c,d,f).  Not cached: it is computed on
    every call, by the Racah sum the move factors are built from too (see
    ``_tet``); the label step looks up those factors, and computes a tet
    only when one of them misses."""
    _require_tet_admissible(a, b, c, d, e, f)
    _check_label_bound((a, b, c, d, e, f))
    return Fraction(*_tet(a, b, c, d, e, f))


def _tet(a: int, b: int, c: int, d: int, e: int, f: int) -> tuple[int, int]:
    # tet_value as an unreduced (numerator, denominator) pair with a
    # positive denominator; its labels are not checked
    half_sums = ((a + d + e) // 2, (b + c + e) // 2, (a + b + f) // 2, (c + d + f) // 2)
    pair_sums = ((b + d + e + f) // 2, (a + c + e + f) // 2, (a + b + c + d) // 2)
    lo, hi = max(half_sums), min(pair_sums)  # admissibility makes lo <= hi
    # The Racah sum over lo <= s <= hi of
    #   t(s) = (-1)^s (s+1)! / (prod_i (s - A_i)! prod_j (B_j - s)!),
    # A_i the half sums and B_j the pair sums, is t(lo) times
    # 1 + r(lo) (1 + r(lo+1) (1 + ...)), where the term ratio is
    #   r(s) = t(s+1)/t(s) = -(s+2) prod_j (B_j - s) / prod_i (s+1 - A_i).
    # Horner's rule from the top keeps that bracket as num/den in integers.
    num = den = 1
    for s in range(hi - 1, lo - 1, -1):
        up = -(s + 2)
        for bj in pair_sums:
            up *= bj - s
        down = 1
        for ai in half_sums:
            down *= s + 1 - ai
        num, den = down * den + up * num, down * den
    numer = math.factorial(lo + 1) * num
    denom = den
    for ai in half_sums:
        denom *= math.factorial(lo - ai)
    for bj in pair_sums:
        denom *= math.factorial(bj - lo)
        for ai in half_sums:
            numer *= math.factorial(bj - ai)
    for lbl in (a, b, c, d, e, f):
        denom *= math.factorial(lbl)
    return -numer if lo % 2 else numer, denom


def _reduced(num: int, den: int) -> tuple[int, int]:
    # num/den in lowest terms with a positive denominator, by one gcd
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _require_tet_admissible(a: int, b: int, c: int, d: int, e: int, f: int) -> None:
    # vertex_admissible refuses a label that is not a plain int
    for triple in ((a, d, e), (b, c, e), (a, b, f), (c, d, f)):
        if not vertex_admissible(*triple):
            raise InadmissibleTriple(*triple)


def recoupling_coefficient(a: int, b: int, c: int, d: int, j: int, i: int) -> Fraction:
    """Weight of the i-channel when an edge j with end vertices (a,b|j) and
    (c,d|j) is traded for an edge i with end vertices (a,d|i) and (b,c|i):
    loop(i) tet / (theta(a,d,i) theta(b,c,i)).  Not cached, like
    ``tet_value``: the label step looks up every channel of (a, b, c, d, j)
    at once, as one ``recoupling`` entry, whose channels are computed by
    the same integer steps as this one."""
    _require_tet_admissible(a, b, c, d, i, j)
    _check_label_bound((a, b, c, d, j, i))
    return Fraction(*_coefficient(a, b, c, d, j, i))


def _coefficient(a: int, b: int, c: int, d: int, j: int, i: int) -> tuple[int, int]:
    # recoupling_coefficient as a reduced pair with a positive denominator;
    # its labels are not checked.  The tet is reduced before the thetas
    # multiply in, so the final gcd works on smaller integers.
    tn, td = _tet(a, b, c, d, i, j)
    g = math.gcd(tn, td)
    ad, bc = theta_value(a, d, i), theta_value(b, c, i)
    return _reduced(
        _loop(i) * (tn // g) * ad.denominator * bc.denominator,
        (td // g) * ad.numerator * bc.numerator,
    )


def _recoupling_family(a: int, b: int, c: int, d: int, j: int) -> tuple[tuple[int, int, int], ...]:
    """The coefficients of every channel of a recoupling of j, as
    (i, numerator, denominator) in increasing i, each reduced with a
    positive denominator: the channels are the i with (a,d,i) and (b,c,i)
    admissible.  (a,b,j) and (c,d,j) must be admissible, as they are at
    every recoupling step; a + d and b + c both have j's parity, so the two
    ranges of i share their step, and they always meet.  The top channel
    holds the family's largest label, so a family past
    ``MAX_CLOSED_FORM_LABEL`` is refused before any channel is computed."""
    lo, top = max(abs(a - d), abs(b - c)), min(a + d, b + c)
    _check_label_bound((a, b, c, d, j, top))
    return tuple([(i, *_coefficient(a, b, c, d, j, i)) for i in range(lo, top + 1, 2)])


# -- reduction engine --------------------------------------------------
#
# The reducer works in two steps.  The shape step (_compile) reads a
# graph's shape (edge and vertex ids, ports) and which of its edges are
# zero, nothing else: it picks each move (_next_move, _shortest_cycle),
# rewires an _MGraph whose edges hold positions into a label tuple, and
# returns the ops the moves leave as a tuple, its program.  A theta
# component is a bubble whose two outer legs are one edge, so it leaves a
# bubble op and the circle op its weld closes.  The label step (_run,
# _recouple) reads those ops on one label tuple, with one closed-form lookup
# per bubble or triangle op and one per recoupling step and state, in
# integers: a value is a (numerator, denominator) pair, multiplied
# unreduced, and reduced once per recoupling total, by one gcd, before the
# evaluation memoises it.  A move's scalar is cached whole, as a reduced
# pair of ints with a positive denominator: a triangle's tet/theta keyed by
# its six labels, and a recoupling step's coefficients as one family keyed
# by (a, b, c, d, j), a pair per channel.  Only a miss computes the move's
# tets, by one integer Racah sum each (_tet, which tet_value and
# recoupling_coefficient use too), looks up its thetas and checks the label
# bound; it checks no triple, since the label step has already found each
# admissible.  Once the cache is warm nearly every lookup is a hit, so a
# hit only builds its key and reads the cache: no sort, no closure, and no
# reordering unless the cache is bounded.  A program is compiled once per
# schedule node and read by every branch that reaches that node.  Since a
# program holds no label, the process cache keeps each network shape's
# programs (see _evaluate), and a request whose shape the process has
# compiled before runs the label step alone.


class _MGraph:
    """Mutable multigraph the shape step rewrites in place.

    epos: edge -> the position of its label in the label tuple the graph
    is read with.  eports: edge -> [port, port] where a port is a (vertex,
    slot) pair or None for the stub left when a zero-labelled neighbour was
    deleted (only zero edges ever carry stubs).  vports: vertex ->
    [(edge, side) x 3].  zeros: the edges whose label is 0; the builders
    read no labels and leave it empty.  circles collects the positions of
    closed loops awaiting their op.
    """

    __slots__ = ("epos", "eports", "vports", "zeros", "circles")

    def __init__(self):
        self.epos: dict[int, int] = {}
        self.eports: dict[int, list] = {}
        self.vports: dict[int, list] = {}
        self.zeros: set[int] = set()
        self.circles: list[int] = []

    @staticmethod
    def from_shape(shape: tuple) -> "_MGraph":
        """The graph a shape (see ``_shape``) describes: with no joined
        ends, the network's own, in which the k-th declared edge has id and
        position k; with two, the closure their join evaluates."""
        edge_count, slots, join = shape
        if join:
            return _MGraph._mirror_closure(edge_count, slots, join)
        g = _MGraph()
        for k in range(edge_count):
            g.epos[k] = k
            g.eports[k] = [None, None]
        for vk in range(len(slots) // 3):
            ports = g.vports[vk] = [divmod(end, 2) for end in slots[3 * vk : 3 * vk + 3]]
            for slot, (k, side) in enumerate(ports):
                g.eports[k][side] = (vk, slot)
        return g

    @staticmethod
    def _mirror_closure(edge_count: int, slots: tuple, join: tuple) -> "_MGraph":
        """The closed graph a join of two free ends of a network evaluates:
        the network with the joined ends attached to a vertex (end_a,
        end_b, unit:0), glued to its mirror copy along every free end left.
        It is read with the network's labels followed by the unit's: each
        edge holds the position of the edge it copies, the unit's being
        edge_count.  No merged network is built, and an end's freedom is
        counted from the vertices' slots by edge index.

        The numbering is the one a closure of ``merge_free_ends(net, end_a,
        end_b, c)`` has: the join vertex is vertex len(net.vertices) and the
        unit edge edge_count; vertex k's copies are 2k and 2k + 1, and edge
        ids follow declaration order.  An edge with one free end fuses with
        its mirror image (side 0 at the first copy); any other edge has one
        id per copy.  An edge with both ends free would close into a bare
        loop, a factor every labelling shares, and is left out."""
        unit = edge_count
        slots += (*join, 2 * unit)  # the join vertex's
        attached = [0] * (unit + 1)
        for end in slots:
            attached[end // 2] += 1
        # an edge has one copy per attached end: two, one if it fuses with
        # its mirror image, none if it would close into a bare loop
        first: list[int] = []  # edge index -> the id of its first copy
        g = _MGraph()
        for k, n in enumerate(attached):
            first.append(len(g.epos))
            for ek in range(first[k], first[k] + n):
                g.epos[ek] = k
                g.eports[ek] = [None, None]
        for vk in range(len(slots) // 3):
            for copy in (0, 1):
                ports = []
                for slot, end in enumerate(slots[3 * vk : 3 * vk + 3]):
                    k, side = divmod(end, 2)
                    port = (first[k], copy) if attached[k] == 1 else (first[k] + copy, side)
                    g.eports[port[0]][port[1]] = (2 * vk + copy, slot)
                    ports.append(port)
                g.vports[2 * vk + copy] = ports
        return g

    def copy(self) -> "_MGraph":
        g = _MGraph()
        g.epos = dict(self.epos)
        g.eports = {e: list(p) for e, p in self.eports.items()}
        g.vports = {v: list(p) for v, p in self.vports.items()}
        g.zeros = set(self.zeros)
        g.circles = list(self.circles)
        return g

    def empty(self) -> bool:
        return not self.epos and not self.vports

    def endpoints(self, e: int) -> tuple[int | None, int | None]:
        p0, p1 = self.eports[e]
        return (p0[0] if p0 else None, p1[0] if p1 else None)

    def other_two(self, v: int, excluded: tuple[int, int]) -> tuple:
        rest = [p for p in self.vports[v] if p != excluded]
        assert len(rest) == 2, "vertex port bookkeeping broke"
        return rest[0], rest[1]

    def weld(self, p1, p2) -> None:
        """Fuse two edge ends whose shared junction has been removed.

        The surviving edge keeps p1's id and position; welding the two ends
        of a single edge closes it into a circle.
        """
        (e1, s1), (e2, s2) = p1, p2
        if e1 == e2:
            self.circles.append(self.epos[e1])
            self.drop_edge(e1)
            return
        far = self.eports[e2][1 - s2]
        self.eports[e1][s1] = far
        if far is not None:
            fv, fslot = far
            self.vports[fv][fslot] = (e1, s1)
        self.drop_edge(e2)

    def drop_edge(self, e: int) -> None:
        del self.epos[e]
        del self.eports[e]
        self.zeros.discard(e)

    def drop_vertex(self, v: int) -> None:
        del self.vports[v]

    def add_edge(self, pos: int, port0=None, port1=None) -> int:
        e = (max(self.epos) + 1) if self.epos else 0
        self.epos[e] = pos
        self.eports[e] = [port0, port1]
        return e

    def add_vertex(self, ports) -> int:
        v = (max(self.vports) + 1) if self.vports else 0
        self.vports[v] = list(ports)
        for slot, (e, side) in enumerate(ports):
            self.eports[e][side] = (v, slot)
        return v


def _next_move(g: _MGraph) -> tuple[str, object] | None:
    """The schedule's next direct move, from one scan of the edges in id order.

    In order of priority:
    - ("zero", e): the lowest-id zero-labelled edge;
    - ("loop", v): the lowest vertex holding a self-loop;
    - ("parallel", (u, v, edges)): the bundle between u < v, edges by id,
      the lowest (u, v) with three edges (a whole theta component), else
      the lowest with two.  Both are reduced as the bubble on their first
      two edges (see _bundle_op), so the preference only orders bubbles;
      it is kept so that the schedule, and every value, does not move;
    - ("triangle", (t1, t2, t3, p, q, r)): the lexicographically first
      3-cycle t1 < t2 < t3, where p = t1t2, q = t2t3, r = t3t1.
    None means none applies: the graph has girth at least 4.
    """
    if g.zeros:
        return "zero", min(g.zeros)
    nbrs: dict[int, dict[int, int]] = {v: {} for v in g.vports}  # first edge to each neighbour
    loop = None
    bundles: dict[tuple[int, int], list[int]] = {}
    tri = None
    for e in sorted(g.epos):
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


def _shortest_cycle(g: _MGraph) -> tuple[list[int], list[int]] | None:
    """Shortest cycle as (vertices, edges); edges[i] joins vertices[i], [i+1].

    Of the shortest cycles, the one through the lowest edge id wins.  The
    graph must have girth at least 4 (the direct moves have removed every
    loop, bubble and triangle): the first 4-cycle found ends the search, and
    each BFS stops at the depth past which it could no longer beat the best
    cycle so far.
    """
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vports}
    for e in sorted(g.epos):
        u, v = g.endpoints(e)
        adj[u].append((v, e))
        adj[v].append((u, e))
    best: tuple[list[int], list[int]] | None = None
    for e0 in sorted(g.epos):
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


def _components(g: _MGraph) -> list[_MGraph]:
    """g's connected components: g itself when it is connected."""
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
        if len(verts) == len(g.vports):
            return [g]
        seen |= verts
        h = _MGraph()
        for v in verts:
            h.vports[v] = list(g.vports[v])
        for e, ports in g.eports.items():
            owner = ports[0][0] if ports[0] else ports[1][0]
            if owner in verts:
                h.epos[e] = g.epos[e]
                h.eports[e] = list(ports)
        h.zeros = g.zeros & h.epos.keys()
        comps.append(h)
    return comps


# Op codes.  An op is a tuple: its code, then label positions.  A program
# ends where its ops end, at a recoupling step or a dead op, or with nothing
# left of its graph.
_CIRCLE = 0    # (_CIRCLE, p): a closed loop
_BUBBLE = 1    # (_BUBBLE, px, py, pcu, pcv): a two-edge face, 0 unless cu == cv
_TRIANGLE = 2  # (_TRIANGLE, pa, pb, pg, pp, pq, pr): a 3-cycle with outer legs
               # a, b, g and edges p, q, r, 0 unless (a, b, g) is admissible
_RECOUPLE = 3  # (_RECOUPLE, step): the program's end, a _Recoupling
_DEAD = 4      # (_DEAD,): the program's end, a self-loop, value 0


class _Recoupling:
    """A program's recoupling step, planned when the program is compiled.

    gather holds the positions of the labels of the graph's edges in id
    order: a branch's state at the step is those labels, and an
    evaluation memoises the total over its branches by step and state (see
    ``_Call``).  cycle is the cycle recoupled on; j and abcd the ranks in
    gather of the edge traded and of its legs a, b, c, d; take reads the
    state off a label tuple, and legs reads a, b, c, d off a state, each
    in one call; graph the shape every branch starts from, with the
    channel edge last, kept until both children are compiled; children[z]
    the program of the branches whose channel label is 0 (z True) or not,
    compiled on first use.
    """

    __slots__ = ("gather", "cycle", "j", "abcd", "take", "legs", "graph", "children")

    def __init__(self, g: _MGraph):
        """Find g's shortest cycle and rewire g into the branches' shape:
        the edge j with end vertices (a,b|j) and (c,d|j) is traded for an
        edge i with end vertices (a,d|i) and (b,c|i).  The branches have a
        strictly shorter shortest cycle, which is what makes the reduction
        terminate."""
        order = sorted(g.epos)
        self.gather = tuple(g.epos[e] for e in order)
        cycle = self.cycle = _shortest_cycle(g)
        assert cycle is not None, "a closed trivalent graph always has a cycle"
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
        rank = {e: k for k, e in enumerate(order)}
        self.j = rank[j]
        self.abcd = tuple(rank[p[0]] for p in (a_port, b_port, c_port, d_port))
        # the cycle alone has at least 4 edges, so take returns a tuple, as
        # legs does
        self.take = operator.itemgetter(*self.gather)
        self.legs = operator.itemgetter(*self.abcd)
        # a branch's labels are the step's without j's, the channel's appended
        for e, k in rank.items():
            g.epos[e] = k if k < self.j else k - 1
        g.drop_edge(j)
        g.drop_vertex(v0)
        g.drop_vertex(v1)
        ei = g.add_edge(len(order) - 1)
        g.add_vertex([a_port, d_port, (ei, 0)])
        g.add_vertex([b_port, c_port, (ei, 1)])
        self.graph = g
        self.children: list[tuple | None] = [None, None]

    def child(self, zero: bool) -> tuple:
        """The program of the branches whose channel label is 0 or not,
        compiled on first use from the branch shape: from a copy while the
        other child may still need it, else from the shape itself, which
        the step then lets go."""
        ops = self.children[zero]
        if ops is None:
            g = self.graph
            if self.children[not zero] is None:
                g = g.copy()
            else:
                self.graph = None
            if zero:
                g.zeros.add(max(g.epos))  # the channel edge has the highest id
            ops = self.children[zero] = _compile(g)
        return ops


def _drop_zero_edge(g: _MGraph, e: int) -> None:
    """Delete a zero-labelled edge, welding the neighbours it held apart."""
    ports = g.eports[e]
    if ports[0] is not None and ports[1] is not None and ports[0][0] == ports[1][0]:
        # zero self-loop: the vertex's third edge is forced to label zero
        # as well; stub it out and drop the vertex with the loop.
        v = ports[0][0]
        rest = [p for p in g.vports[v] if p[0] != e]
        assert len(rest) == 1 and rest[0][0] in g.zeros
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


def _bundle_op(g: _MGraph, u: int, v: int, edges: list[int]) -> tuple:
    """Remove the two-vertex face on the bundle's first two edges; returns
    the op it leaves.  In a three-edge bundle, a whole theta component, the
    third edge is both outer legs, and the weld closes it into a circle:
    theta/loop for the bubble, times the loop."""
    e1, e2 = edges[:2]
    outer_u = [p for p in g.vports[u] if p[0] not in (e1, e2)]
    outer_v = [p for p in g.vports[v] if p[0] not in (e1, e2)]
    assert len(outer_u) == 1 and len(outer_v) == 1
    op = (_BUBBLE, g.epos[e1], g.epos[e2], g.epos[outer_u[0][0]], g.epos[outer_v[0][0]])
    g.drop_edge(e1)
    g.drop_edge(e2)
    g.drop_vertex(u)
    g.drop_vertex(v)
    g.weld(outer_u[0], outer_v[0])
    return op


def _triangle_op(g: _MGraph, tri: tuple[int, int, int, int, int, int]) -> tuple:
    """Replace a 3-cycle by a single vertex; returns the op it leaves."""
    t1, t2, t3, p, q, r = tri
    outer1 = [pt for pt in g.vports[t1] if pt[0] not in (p, r)]
    outer2 = [pt for pt in g.vports[t2] if pt[0] not in (p, q)]
    outer3 = [pt for pt in g.vports[t3] if pt[0] not in (q, r)]
    assert len(outer1) == 1 and len(outer2) == 1 and len(outer3) == 1
    op = (_TRIANGLE, *(g.epos[e] for e in (outer1[0][0], outer2[0][0], outer3[0][0], p, q, r)))
    for e in (p, q, r):
        g.drop_edge(e)
    for t in (t1, t2, t3):
        g.drop_vertex(t)
    g.add_vertex([outer1[0], outer2[0], outer3[0]])
    return op


def _compile(g: _MGraph) -> tuple:
    """The shape step: the ops of g's program, found by rewiring g move by
    move until it is empty, dead or at a recoupling step.  An empty graph's
    program has no ops."""
    ops = []
    while not g.empty():
        move = _next_move(g)
        if move is None:
            ops.append((_RECOUPLE, _Recoupling(g)))
            break
        kind, arg = move
        if kind == "zero":
            _drop_zero_edge(g, arg)
        elif kind == "loop":
            # a bundle closing onto its own vertex forces the third label to
            # zero; zero edges are gone here, so the component vanishes
            ops.append((_DEAD,))
            break
        elif kind == "parallel":
            ops.append(_bundle_op(g, *arg))
        else:
            ops.append(_triangle_op(g, arg))
        ops.extend((_CIRCLE, p) for p in g.circles)
        g.circles.clear()
    return tuple(ops)


def _require_closed_valid(net: SpinNetwork) -> None:
    violations = validate_network(net)
    if violations:
        raise InvalidNetwork(violations)
    # a valid network attaches 3 ends per vertex, each to a distinct end of
    # its 2 per edge, so it is closed exactly when the counts meet
    if 3 * len(net.vertices) != 2 * len(net.edges):
        ends = ", ".join(f"{e.edge}:{e.side}" for e in net.free_ends)
        raise HasFreeEnds(f"network has free ends: {ends}")


def evaluate_closed(net: SpinNetwork) -> Fraction:
    """Exact value of a closed network.

    The rewrites follow a deterministic schedule.  On planar networks the
    result does not depend on that schedule; on nonplanar ones it does, and
    the value returned there is not to be trusted.

    Closed forms and compiled programs are looked up in the process cache
    (``default_cache``); see ``_evaluate``.  Within one call, each
    recoupling step memoises the total over its branches by its labels:
    once a new channel edge has been absorbed, the labels left are often
    the same for every channel.  The memo is dropped when the call returns.

    A call that takes more than ``_MAX_BRANCHES`` recoupling branches, or
    a closed form on a label above ``MAX_CLOSED_FORM_LABEL``, raises
    ``TooLarge``.
    """
    _require_closed_valid(net)
    return Fraction(*_evaluate(_shape(net), [tuple(e.label for e in net.edges)])[0])


def _shape(net: SpinNetwork, *joined: End) -> tuple:
    """All the shape step reads of net, or of the closure a join of two of
    its free ends evaluates: net's edge count, the ends in each vertex's
    slots in declaration order, as one flat tuple, and the joined ends
    (none for net itself).  Side s of the k-th declared edge is end
    2k + s.  Ids are left out: a program reads positions, and the graph
    numbers edges and vertices by index."""
    index = {e.id: 2 * k for k, e in enumerate(net.edges)}
    slots = tuple([index[end.edge] + end.side for v in net.vertices for end in v.ends])
    return len(net.edges), slots, tuple([index[end.edge] + end.side for end in joined])


def _programs(key: tuple) -> tuple:
    """The programs a ``program`` key names, one per connected component:
    compiled from the graph its shape describes, with its edges at the
    key's zero positions zero.  The graph is built from the key alone, so
    the key holds every input of the shape step."""
    _, shape, zeros = key
    g = _MGraph.from_shape(shape)
    g.zeros = {e for e, p in g.epos.items() if p in zeros}
    return tuple([_compile(comp) for comp in _components(g)])


def _evaluate(shape: tuple, labellings: list[tuple[int, ...]]) -> list[tuple[int, int]]:
    """The value of the graph shape describes under each labelling, each
    admissible on it, where an edge's label is the labelling's entry at the
    edge's position.  Each value is the unreduced (numerator, denominator)
    pair the components' ``_run`` pairs multiply to; the denominator is
    nonzero but may be negative, and a zero value has numerator 0.  The
    caller reduces it once, into whatever it builds from it.

    The programs depend on the shape and on the zero-labelled positions
    alone, since zero edges are the only labels the shape step reads.  They
    are looked up in the process cache under ``("program", shape, zeros)``,
    and kept in this call for each zero set met, so each is compiled at
    most once here even when the cache keeps one entry.  The programs this
    call compiles are stored only once every labelling has its value, so a
    refused call stores none.  The labellings share one record of
    recoupling totals (``_Call``); each has its own ``_MAX_BRANCHES``
    budget.  The call adds its work to ``counters()`` once, as it returns
    or raises."""
    cache = default_cache()
    programs: dict[tuple[int, ...], tuple] = {}
    compiled = []
    call = _Call()
    values = []
    try:
        for labels in labellings:
            # most labellings have no zero label, and then no scan
            zeros = tuple([k for k, x in enumerate(labels) if x == 0]) if 0 in labels else ()
            comps = programs.get(zeros)
            if comps is None:
                key = ("program", shape, zeros)
                comps = cache.get(key)
                if comps is None:
                    comps = _programs(key)
                    compiled.append((key, comps))
                programs[zeros] = comps
            call.limit = call.branches + _MAX_BRANCHES
            num = den = 1
            for ops in comps:
                n, d = _run(ops, labels, call)
                if not n:
                    num = 0
                    break
                num *= n
                den *= d
            values.append((num, den))
    finally:
        _COUNTS["evaluations"] += 1
        _COUNTS["labellings"] += len(values)
        _COUNTS["recoupling_branches"] += call.branches
    for key, comps in compiled:
        cache.put(key, comps)
    return values


# The evaluator's work in this process, added once per _evaluate call.
_COUNTS = {"evaluations": 0, "labellings": 0, "recoupling_branches": 0}


def counters(reset: bool = False) -> dict[str, int]:
    """The evaluator's cumulative counts in this process, as a new dict:
    - evaluations: closed evaluations, one per ``evaluate_closed`` call and
      one per join, whatever number of channels the join evaluates;
    - labellings: the labellings those evaluations computed a value for,
      one per ``evaluate_closed`` call and one per channel of a join;
    - recoupling_branches: the branches their recoupling steps took, one
      per channel of each step and state an evaluation meets, a refused
      evaluation's included.
    Each evaluation adds its counts once, when it returns or raises, so a
    branch costs nothing extra.  reset=True zeroes them after they are
    read.  Clearing the process cache leaves them as they are."""
    counts = dict(_COUNTS)
    if reset:
        for name in _COUNTS:
            _COUNTS[name] = 0
    return counts


# Recoupling branches one closed evaluation (one labelling) may take.  The
# heaviest networks of the benchmark's workloads take 718.
_MAX_BRANCHES = 1_000_000


class _Call:
    """One evaluation's record.  memo maps (step, state) to the total over
    the step's branches in that state, a reduced (numerator, denominator)
    pair with a positive denominator, for every step and state its
    labellings meet; branches counts the recoupling branches its labellings
    have taken, across their components, and limit the count past which
    the current labelling is refused: its branches past ``_MAX_BRANCHES``."""

    __slots__ = ("memo", "branches", "limit")

    def __init__(self):
        self.memo: dict[tuple, tuple[int, int]] = {}
        self.branches = 0
        self.limit = _MAX_BRANCHES


def _run(ops: tuple, labels: tuple[int, ...], call: _Call) -> tuple[int, int]:
    """Value of one connected component as an unreduced (numerator,
    denominator) pair: its program's ops read on its labels, each at the
    positions fixed when the program was compiled.  A dead op or a failed
    label check returns (0, 1), and a program with no ops (1, 1).

    One program serves every graph that reaches its node because:
    - _next_move reads labels only to find a zero edge, and _shortest_cycle
      and the moves' rewiring read none;
    - a zero edge comes only from an input label or from a channel edge (no
      edge is 0 at a recoupling step, since the zero move comes first), so
      a root's zero edges are the input's and a branch's are its channel
      edge or none: one program per recoupling step and channel-is-zero;
    - a branch's shape, ids included, is fixed by its parent's shape and
      cycle;
    - a weld joins two equal labels (every vertex stays admissible, and a
      bubble's outer legs are checked; a theta's are one edge), so the
      position it keeps holds the label of the edge it makes;
    - any other label fact (an inadmissible triangle, a bubble with unequal
      outer labels) ends the branch with value 0.
    """
    num = den = 1
    # codes tested by how often a join's ops run: triangles, then bubbles
    # and circles, a theta leaving one of each
    for op in ops:
        code = op[0]
        if code == _TRIANGLE:
            _, pa, pb, pg, pp, pq, pr = op
            alpha, beta, gamma = labels[pa], labels[pb], labels[pg]
            if not vertex_admissible(alpha, beta, gamma):
                return 0, 1
            lp, lq, lr = labels[pp], labels[pq], labels[pr]
            tn, td = default_cache().get_or(
                ("triangle", alpha, beta, gamma, lp, lq, lr), _triangle, alpha, beta, gamma, lp, lq, lr
            )
            num *= tn
            den *= td
        elif code == _BUBBLE:
            _, px, py, pcu, pcv = op
            cu = labels[pcu]
            if cu != labels[pcv]:
                return 0, 1
            theta = theta_value(labels[px], labels[py], cu)
            num *= theta.numerator
            den *= theta.denominator * _loop(cu)
        elif code == _CIRCLE:
            num *= _loop(labels[op[1]])
        elif code == _RECOUPLE:
            step = op[1]
            key = (step, step.take(labels))
            total = call.memo.get(key)
            if total is None:
                total = call.memo[key] = _recouple(step, key[1], call)
            return num * total[0], den * total[1]
        else:
            return 0, 1
    return num, den


def _triangle(alpha: int, beta: int, gamma: int, p: int, q: int, r: int) -> tuple[int, int]:
    """The factor a triangle op multiplies in, tet over theta, as the
    reduced (numerator, denominator) pair, with a positive denominator, the
    label step reads: the 3-cycle with edges p, q, r and outer legs alpha,
    beta, gamma contracts to one vertex on those legs.  Every triple of the
    tet is admissible there (the op checks the new vertex's, and the
    others are vertices of the graph), so only the label bound is
    checked."""
    _check_label_bound((alpha, beta, gamma, p, q, r))
    tn, td = _tet(alpha, beta, q, r, p, gamma)
    g = math.gcd(tn, td)
    theta = theta_value(alpha, beta, gamma)
    return _reduced((tn // g) * theta.denominator, (td // g) * theta.numerator)


def _recouple(step: _Recoupling, state: tuple[int, ...], call: _Call) -> tuple[int, int]:
    """The total over a recoupling step's branches, state the labels of its
    edges in id order, as a reduced (numerator, denominator) pair with a
    positive denominator.  A branch's labels are state without j's label,
    then the channel's.  Every channel's coefficient comes from one
    ``recoupling`` entry, and the family's channels count as branches
    before any runs.  The channels are summed as unreduced pairs and the
    sum is reduced once."""
    la, lb, lc, ld = step.legs(state)
    lj = state[step.j]
    family = default_cache().get_or(
        ("recoupling", la, lb, lc, ld, lj), _recoupling_family, la, lb, lc, ld, lj
    )
    call.branches += len(family)
    if call.branches > call.limit:
        raise TooLarge(f"more than {_MAX_BRANCHES} recoupling branches")
    kept = state[: step.j] + state[step.j + 1 :]
    num, den = 0, 1
    for li, cn, cd in family:
        n, d = _run(step.child(li == 0), kept + (li,), call)
        if n:
            d *= cd
            num, den = num * d + n * cn * den, den * d
    return _reduced(num, den)


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
