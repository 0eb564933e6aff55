"""Immutable data model for labelled trivalent networks with free ends.

A network is a multigraph whose edges carry a non-negative integer label
(the number of elementary strands, i.e. twice the spin) and whose vertices
are trivalent.  Each edge has two ends; an end is either attached to a
vertex slot or free.  Free ends are the interface through which networks
are probed and combined.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InadmissibleJoin, InvalidNetwork, NotAFreeEnd

SpinLabel = int


def vertex_admissible(a: int, b: int, c: int) -> bool:
    """True when three edge labels may meet at a trivalent vertex.

    Each must be a label (see _is_label).  Then two conditions: the
    triangle inequality |a - b| <= c <= a + b, and a + b + c even so every
    strand entering the vertex pairs off with a strand of another edge (no
    strand can terminate).  The triangle inequality holds only when all
    three are non-negative, so _is_label's sign check is not repeated:
    this runs once per recoupling step.
    """
    return type(a) is type(b) is type(c) is int and (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b


def _is_label(x) -> bool:
    """True for an edge label: a non-negative plain ``int`` (not a ``bool``)."""
    return type(x) is int and x >= 0


def admissible_couplings(a: int, b: int) -> tuple[int, ...]:
    """All labels c with vertex_admissible(a, b, c), in increasing order.

    There are exactly min(a, b) + 1 of them: |a-b|, |a-b|+2, ..., a+b; none
    when a or b is not a label.
    """
    if not (_is_label(a) and _is_label(b)):
        return ()
    return tuple(range(abs(a - b), a + b + 1, 2))


# The records are named tuples: built, hashed and compared in C, which
# every parse, validation and end lookup does many times.  So a record
# equals any tuple of the same fields, a plain one or another record's.


class End(NamedTuple):
    """One of the two ends of an edge; side is 0 or 1."""

    edge: str
    side: int

    def opposite(self) -> "End":
        return End(self.edge, 1 - self.side)


class Edge(NamedTuple):
    id: str
    label: SpinLabel


class Vertex(NamedTuple):
    """A trivalent vertex holding exactly three edge ends in slot order."""

    id: str
    ends: tuple[End, End, End]


@dataclass(frozen=True)
class Violation:
    """One validation failure; kind is 'structure', 'label' or 'admissibility'."""

    kind: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.subject}: {self.message}"


@dataclass(frozen=True)
class SpinNetwork:
    edges: tuple[Edge, ...]
    vertices: tuple[Vertex, ...]

    # -- construction -------------------------------------------------

    @staticmethod
    def from_spec(
        edges: Mapping[str, int] | Iterable[tuple[str, int]],
        vertices: Iterable[tuple[str, Sequence[str]]] = (),
    ) -> "SpinNetwork":
        """Build and validate a network from edge labels and vertex edge triples.

        Each vertex names three edge ids; ends are claimed in declaration
        order, side 0 before side 1.  Naming an edge a third time is a
        structural violation.  Ids, in edges and in vertices alike, are
        taken as ``str(id)``; labels are taken as given, so one that is not
        a label (a non-negative ``int``) is a label violation.
        """
        if isinstance(edges, Mapping):
            edge_items = list(edges.items())
        else:
            edge_items = list(edges)
        edge_objs = tuple(Edge(str(i), lbl) for i, lbl in edge_items)
        claimed: dict[str, int] = {}  # edge id -> number of ends used so far
        vertex_objs = []
        overclaimed = []
        for vid, eids in vertices:
            slot_ends = []
            for eid in map(str, eids):
                n = claimed.get(eid, 0)
                claimed[eid] = n + 1
                if n >= 2:
                    overclaimed.append(
                        Violation("structure", str(vid), f"edge {eid!r} has no end left to attach")
                    )
                slot_ends.append(End(eid, min(n, 1)))
            vertex_objs.append(Vertex(str(vid), tuple(slot_ends)))
        net = SpinNetwork(edge_objs, tuple(vertex_objs))
        problems = overclaimed + validate_network(net)
        if problems:
            raise InvalidNetwork(problems)
        return net

    # -- lookups -------------------------------------------------------

    @cached_property
    def _edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def _vertex_by_id(self) -> dict[str, Vertex]:
        return {v.id: v for v in self.vertices}

    @cached_property
    def _attachment(self) -> dict[End, str]:
        att: dict[End, str] = {}
        for v in self.vertices:
            for end in v.ends:
                att[end] = v.id
        return att

    def vertex(self, vertex_id: str) -> Vertex:
        return self._vertex_by_id[vertex_id]

    def label(self, end_or_id: End | str) -> SpinLabel:
        eid = end_or_id.edge if isinstance(end_or_id, End) else end_or_id
        return self._edge_by_id[eid].label

    def attachment(self, end: End) -> str | None:
        """The vertex id an end is attached to, or None for a free end."""
        return self._attachment.get(end)

    def is_free(self, end: End) -> bool:
        return end.side in (0, 1) and end.edge in self._edge_by_id and end not in self._attachment

    @cached_property
    def free_ends(self) -> tuple[End, ...]:
        out = []
        for e in self.edges:
            for side in (0, 1):
                end = End(e.id, side)
                if end not in self._attachment:
                    out.append(end)
        return tuple(out)

    @cached_property
    def _used_ids(self) -> frozenset[str]:
        return frozenset(self._edge_by_id) | frozenset(self._vertex_by_id)

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        return tuple(_find_violations(self))

    def fresh_id(self, prefix: str) -> str:
        """Smallest prefixN not already used as an edge or vertex id."""
        used = self._used_ids
        n = 1
        while f"{prefix}{n}" in used:
            n += 1
        return f"{prefix}{n}"


def validate_network(net: SpinNetwork) -> list[Violation]:
    """All structural, label and admissibility violations, empty when valid.

    A network is immutable, so its violations are found once, on the first
    call, and kept with it; each call returns a new list of them.
    """
    return list(net._violations)


def _find_violations(net: SpinNetwork) -> list[Violation]:
    out: list[Violation] = []
    seen_edges: set[str] = set()
    for e in net.edges:
        if e.id in seen_edges:
            out.append(Violation("structure", e.id, "duplicate edge id"))
        seen_edges.add(e.id)
        if not _is_label(e.label):
            out.append(Violation("label", e.id, f"label must be a non-negative integer, got {e.label!r}"))
    seen_vertices: set[str] = set()
    end_owner: dict[End, str] = {}
    for v in net.vertices:
        if v.id in seen_vertices:
            out.append(Violation("structure", v.id, "duplicate vertex id"))
        seen_vertices.add(v.id)
        if v.id in seen_edges:
            out.append(Violation("structure", v.id, "vertex id collides with an edge id"))
        if len(v.ends) != 3:
            out.append(Violation("structure", v.id, f"vertex must have 3 slots, got {len(v.ends)}"))
            continue
        labels = []
        for end in v.ends:
            if end.edge not in seen_edges:
                out.append(Violation("structure", v.id, f"references unknown edge {end.edge!r}"))
                continue
            if end.side not in (0, 1):
                out.append(Violation("structure", v.id, f"edge end side must be 0 or 1, got {end.side}"))
                continue
            if end in end_owner:
                out.append(
                    Violation("structure", v.id, f"end {end.edge}:{end.side} already attached to {end_owner[end]}")
                )
                continue
            end_owner[end] = v.id
            labels.append(net.label(end))
        if len(labels) == 3 and not vertex_admissible(*labels):
            a, b, c = labels
            out.append(Violation("admissibility", v.id, f"labels ({a}, {b}, {c}) violate triangle or parity"))
    return out


def merge_free_ends(net: SpinNetwork, end_a: End, end_b: End, new_label: SpinLabel) -> SpinNetwork:
    """Join two free ends through a fresh vertex carrying a fresh labelled edge.

    The two old ends attach to the new vertex together with side 0 of the new
    edge; side 1 of the new edge is the merged network's new free end.  The
    vertex takes a fresh ``w<n>`` id and the edge a fresh ``j<n>`` one.  A
    new_label that is not a label ``validate_network`` accepts (a
    non-negative ``int``), or that cannot couple the two ends, raises
    InadmissibleJoin.  So the result is valid whenever net is.
    """
    if end_a == end_b:
        raise NotAFreeEnd("cannot merge an end with itself")
    for end in (end_a, end_b):
        if end.edge not in net._edge_by_id:
            raise NotAFreeEnd(f"no edge {end.edge!r} in network")
        if end.side not in (0, 1):
            raise NotAFreeEnd(f"end {end.edge}:{end.side}: an edge has only sides 0 and 1")
        if not net.is_free(end):
            raise NotAFreeEnd(f"end {end.edge}:{end.side} is attached to vertex {net.attachment(end)!r}")
    a = net.label(end_a)
    b = net.label(end_b)
    if not _is_label(new_label) or not vertex_admissible(a, b, new_label):
        raise InadmissibleJoin(f"cannot couple labels {a} and {b} to {new_label}")
    eid = net.fresh_id("j")
    new_edge = Edge(eid, new_label)
    new_vertex = Vertex(net.fresh_id("w"), (end_a, end_b, End(eid, 0)))
    return SpinNetwork(net.edges + (new_edge,), net.vertices + (new_vertex,))


def networks_isomorphic(a: SpinNetwork, b: SpinNetwork) -> bool:
    """Label- and incidence-preserving equality keyed on ids.

    Vertex slot order and which physical end of an edge sits in a slot are
    representation details, so both are ignored.
    """
    if {e.id: e.label for e in a.edges} != {e.id: e.label for e in b.edges}:
        return False
    by_id_a = {v.id: sorted(end.edge for end in v.ends) for v in a.vertices}
    by_id_b = {v.id: sorted(end.edge for end in v.ends) for v in b.vertices}
    if by_id_a != by_id_b:
        return False
    # free-end multiplicity per edge must agree even though sides may differ
    free_a = sorted(end.edge for end in a.free_ends)
    free_b = sorted(end.edge for end in b.free_ends)
    return free_a == free_b
