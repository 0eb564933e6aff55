"""Operational procedures on networks with free ends.

Joining two free ends produces a distribution over the admissible labels
of the joined unit; splitting a unit off an end and joining it with
another end turns that distribution into a probability p whose angle
reading theta = 2*arccos(sqrt(p)) is the angle "between" the two ends.
The collection of pairwise angles is then checked against the geometry
of directions in three-dimensional space, and the angle's stability is
probed by committing sampled outcomes and repeating.

Probabilities come from closed-network evaluations alone: the network is
closed on itself through each candidate joined unit and the values are
normalized across candidates.  They are exact rationals.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ExhaustedEnd,
    InadmissibleSplit,
    InvalidNetwork,
    NotAFreeEnd,
    NullState,
    OutOfRange,
    TooFewEnds,
    UnsupportedNetwork,
)
# evaluate_closed is not called here; it stays importable from this
# module: perfbench/spans.py wraps the binding experiments.evaluate_closed.
from .evaluator import evaluate_closed, evaluate_closed_relabelled, loop_value, theta_value  # noqa: F401
from .model import (
    Edge,
    End,
    SpinNetwork,
    Vertex,
    admissible_couplings,
    merge_free_ends,
    validate_network,
)


# -- result types --------------------------------------------------------


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact distribution over the possible labels of a joined unit.

    Only labels with nonzero probability appear in entries; every key is
    an admissible coupling of the two joined labels and the values sum
    to exactly 1.
    """

    label_a: int
    label_b: int
    entries: Mapping[int, Fraction]

    def __post_init__(self):
        allowed = set(admissible_couplings(self.label_a, self.label_b))
        total = Fraction(0)
        for c, p in self.entries.items():
            if c not in allowed:
                raise OutOfRange(f"label {c} cannot couple {self.label_a} and {self.label_b}")
            if not 0 <= p <= 1:
                raise OutOfRange(f"probability {p} for label {c} is outside [0, 1]")
            total += p
        if total != 1:
            raise OutOfRange(f"probabilities sum to {total}, not 1")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.entries))

    def probability(self, label: int) -> Fraction:
        return self.entries.get(label, Fraction(0))


@dataclass(frozen=True)
class ExchangeResult:
    """Outcome of splitting a unit-1 off one end and joining it with another.

    The joined unit comes out as b+1 with probability p_up and b-1 with
    p_down; theta is the angle reading of p_up.
    """

    p_up: Fraction
    p_down: Fraction
    theta: float

    def __post_init__(self):
        if self.p_up + self.p_down != 1:
            raise OutOfRange(f"p_up + p_down = {self.p_up + self.p_down}, not 1")
        if not 0 <= self.theta <= math.pi:
            raise OutOfRange(f"theta {self.theta} outside [0, pi]")


@dataclass(frozen=True)
class AngleMatrix:
    """Pairwise angles between free ends; symmetric with zero diagonal."""

    ends: tuple[End, ...]
    angles: np.ndarray

    def __post_init__(self):
        k = len(self.ends)
        if self.angles.shape != (k, k):
            raise OutOfRange(f"angle matrix shape {self.angles.shape} does not match {k} ends")
        if np.any(self.angles != self.angles.T) or np.any(np.diag(self.angles) != 0):
            raise OutOfRange("angle matrix must be symmetric with zero diagonal")
        if np.any(self.angles < 0) or np.any(self.angles > math.pi):
            raise OutOfRange("angles must lie in [0, pi]")

    def angle(self, end_a: End, end_b: End) -> float:
        i = self.ends.index(end_a)
        j = self.ends.index(end_b)
        return float(self.angles[i, j])


@dataclass(frozen=True)
class GeometryReport:
    """Whether an angle collection fits directions in three dimensions."""

    gram_residual: float
    embeddable: bool
    embedding: np.ndarray | None


@dataclass(frozen=True)
class StabilityReport:
    """Angle trajectory under committed repetitions of the exchange."""

    angles: tuple[float, ...]
    outcomes: tuple[int, ...]
    max_drift: float


# -- joining -------------------------------------------------------------


def _mirror_closure(net: SpinNetwork) -> tuple[SpinNetwork, list[int]]:
    """Glue a mirror copy of the network along every free end.

    Each edge with one free end fuses with its mirror image into a single
    edge between the copies; an edge with both ends free fuses into a bare
    loop, returned separately as a label (the model cannot hold a
    vertex-free loop).  The result is closed, so the evaluator applies.
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


def join_free_ends(net: SpinNetwork, end_a: End, end_b: End) -> OutcomeDistribution:
    """Distribution over the label of the unit formed by joining two free ends.

    For each admissible label c the joined network is closed on itself
    through the new unit (mirror gluing along all free ends) and weighted
    by loop(c)/theta(a, b, c); the weights, which all carry one common
    sign, normalize to exact rational probabilities.  Weights of mixed
    sign come from a nonplanar mirror closure, which the evaluator does
    not yet read right, and raise UnsupportedNetwork.
    """
    problems = validate_network(net)
    if problems:
        raise InvalidNetwork(problems)
    if end_a == end_b:
        raise NotAFreeEnd("cannot join an end with itself")
    for end in (end_a, end_b):
        if not net.is_free(end):
            raise NotAFreeEnd(f"end {end.edge}:{end.side} is not a free end")
    a, b = net.label(end_a), net.label(end_b)

    # Every channel closes onto one graph, whose last edge is the joined
    # unit fused with its mirror image: build it once and evaluate it under
    # each channel's label there.
    channels = admissible_couplings(a, b)
    closed, circles = _mirror_closure(merge_free_ends(net, end_a, end_b, channels[0]))
    labels = [e.label for e in closed.edges]
    labellings = []
    for c in channels:
        labels[-1] = c
        labellings.append(tuple(labels))

    weights: dict[int, Fraction] = {}
    for c, value in zip(channels, evaluate_closed_relabelled(closed, labellings)):
        for lbl in circles:
            value *= loop_value(lbl)
        weights[c] = loop_value(c) / theta_value(a, b, c) * value

    nonzero = {c: w for c, w in weights.items() if w != 0}
    if not nonzero:
        raise NullState("the network state vanishes; no outcome has weight")
    if len({w > 0 for w in nonzero.values()}) > 1:
        raise UnsupportedNetwork(
            "the channel weights differ in sign: the mirror closure is nonplanar, and "
            "evaluate_closed does not read slot order as a rotation system yet (ROADMAP item 1)"
        )
    total = sum(nonzero.values())
    entries = {c: w / total for c, w in sorted(nonzero.items())}
    return OutcomeDistribution(a, b, entries)


# -- splitting and the exchange ------------------------------------------


def split_unit(
    net: SpinNetwork,
    end_a: End,
    k: int,
    *,
    vertex_id: str | None = None,
    unit_id: str | None = None,
    rest_id: str | None = None,
) -> SpinNetwork:
    """Split a free end of label a into free ends of labels k and a - k.

    A fresh vertex (a, k, a-k) absorbs the old end; the side-1 ends of the
    two fresh edges are the new free ends.  Ids default to fresh ``u<n>``
    (the split-off unit), ``r<n>`` (the remainder) and ``x<n>`` (vertex).
    """
    if not net.is_free(end_a):
        raise NotAFreeEnd(f"end {end_a.edge}:{end_a.side} is not a free end")
    a = net.label(end_a)
    if not 0 <= k <= a:
        raise InadmissibleSplit(f"cannot split a unit of {k} from an end of label {a}")
    uid = unit_id if unit_id is not None else net.fresh_id("u")
    rid = rest_id if rest_id is not None else net.fresh_id("r")
    vid = vertex_id if vertex_id is not None else net.fresh_id("x")
    used = {e.id for e in net.edges} | {v.id for v in net.vertices}
    if {uid, rid, vid} & used or len({uid, rid, vid}) < 3:
        raise InvalidNetwork(message=f"ids {uid!r}/{rid!r}/{vid!r} collide")
    new_edges = net.edges + (Edge(uid, k), Edge(rid, a - k))
    new_vertex = Vertex(vid, (end_a, End(uid, 0), End(rid, 0)))
    return SpinNetwork(new_edges, net.vertices + (new_vertex,))


def _exchange(net: SpinNetwork, end_a: End, end_b: End) -> tuple[ExchangeResult, SpinNetwork, End, End]:
    """Exchange result plus the split network and its new ends (for commits)."""
    uid = net.fresh_id("u")
    rid = net.fresh_id("r")
    split = split_unit(net, end_a, 1, unit_id=uid, rest_id=rid)
    dist = join_free_ends(split, End(uid, 1), end_b)
    b = net.label(end_b)
    p_up = dist.probability(b + 1)
    p_down = dist.probability(b - 1) if b >= 1 else Fraction(0)
    result = ExchangeResult(p_up, p_down, angle_from_probability(p_up))
    return result, split, End(uid, 1), End(rid, 1)


def exchange_experiment(net: SpinNetwork, end_a: End, end_b: End) -> ExchangeResult:
    """Split a unit 1 off end_a and join it with end_b.

    The joined unit can only come out as b+1 or b-1; p = p_up defines the
    angle between the two ends through p = cos^2(theta/2).
    """
    if end_a == end_b:
        raise NotAFreeEnd("cannot exchange an end with itself")
    result, _split, _unit, _rest = _exchange(net, end_a, end_b)
    return result


def angle_from_probability(p) -> float:
    """The angle theta in [0, pi] with cos^2(theta/2) = p."""
    if not 0 <= p <= 1:
        raise OutOfRange(f"probability {p} outside [0, 1]")
    return 2.0 * math.acos(math.sqrt(float(p)))


# -- angle collections and geometry ---------------------------------------


def angle_matrix(net: SpinNetwork, ends: Sequence[End] | None = None) -> AngleMatrix:
    """Angles between every pair of the given free ends (default: all).

    Each pair is measured counterfactually on the original network, so
    the order of pairs cannot matter.
    """
    chosen = tuple(ends) if ends is not None else net.free_ends
    if len(chosen) < 2:
        raise TooFewEnds("an angle needs at least two free ends")
    if len(set(chosen)) != len(chosen):
        raise NotAFreeEnd("ends must be distinct")
    for end in chosen:
        if not net.is_free(end):
            raise NotAFreeEnd(f"end {end.edge}:{end.side} is not a free end")
        if net.label(end) < 1:
            raise InadmissibleSplit(f"end {end.edge}:{end.side} has label 0, no unit to split")

    matrix = np.zeros((len(chosen), len(chosen)))
    for i in range(len(chosen)):
        for j in range(i + 1, len(chosen)):
            theta = exchange_experiment(net, chosen[i], chosen[j]).theta
            matrix[i, j] = matrix[j, i] = theta
    return AngleMatrix(chosen, matrix)


def geometry_consistency(am: AngleMatrix, tol: float = 1e-9) -> GeometryReport:
    """Check whether the angles are realizable by unit vectors in 3-space.

    The Gram matrix G_ij = cos(theta_ij) of any such vectors is positive
    semidefinite with rank at most 3; gram_residual adds the magnitude of
    the most negative eigenvalue to the magnitudes of eigenvalues beyond
    the third-largest, so it vanishes exactly on realizable collections.
    Eigenvalues within tol of zero count as zero, so solver noise on a
    true-zero spectrum reports residual 0 rather than ~1e-16.
    """
    gram = np.cos(am.angles)
    np.fill_diagonal(gram, 1.0)
    eigenvalues, eigenvectors = np.linalg.eigh(gram)  # ascending
    eigenvalues = np.where(np.abs(eigenvalues) <= tol, 0.0, eigenvalues)
    descending = eigenvalues[::-1]
    negative = max(0.0, -float(eigenvalues[0]))
    beyond_rank_3 = float(np.sum(np.abs(descending[3:])))
    residual = negative + beyond_rank_3
    embeddable = negative <= tol and beyond_rank_3 <= tol
    embedding = None
    if embeddable:
        top = eigenvectors[:, ::-1][:, :3] * np.sqrt(np.clip(descending[:3], 0.0, None))
        if top.shape[1] < 3:
            top = np.pad(top, ((0, 0), (0, 3 - top.shape[1])))
        norms = np.linalg.norm(top, axis=1)
        embedding = top / norms[:, None]
    return GeometryReport(residual, embeddable, embedding)


# -- stability under committed repetitions ---------------------------------


def stability_measure(
    net: SpinNetwork,
    end_a: End,
    end_b: End,
    repetitions: int,
    rng_seed: int,
) -> StabilityReport:
    """Measure the angle repeatedly, committing a sampled outcome each time.

    Every repetition records the current angle between the tracked ends,
    samples up/down with the exchange probabilities, and commits: the
    split-off unit is actually joined at the sampled label, after which
    the tracked ends are the remainder (label a-1) and the new unit
    (label b+1 or b-1).  Each repetition consumes one unit of end_a's
    label, so the label must not run out before the repetitions do.
    """
    if repetitions < 0:
        raise OutOfRange(f"repetitions must be >= 0, got {repetitions}")
    if end_a == end_b:
        raise NotAFreeEnd("cannot exchange an end with itself")
    for end in (end_a, end_b):
        if not net.is_free(end):
            raise NotAFreeEnd(f"end {end.edge}:{end.side} is not a free end")
    if net.label(end_a) < repetitions:
        raise ExhaustedEnd(
            f"end {end_a.edge}:{end_a.side} (label {net.label(end_a)}) would reach 0 "
            f"before {repetitions} repetitions complete"
        )
    rng = random.Random(rng_seed)

    angles: list[float] = []
    outcomes: list[int] = []
    current, cur_a, cur_b = net, end_a, end_b
    for _ in range(repetitions):
        result, split, unit_end, rest_end = _exchange(current, cur_a, cur_b)
        angles.append(result.theta)
        b = current.label(cur_b)
        up = rng.random() < float(result.p_up)
        c = b + 1 if up else b - 1
        outcomes.append(c)
        jid = split.fresh_id("j")
        current = merge_free_ends(split, unit_end, cur_b, c, edge_id=jid)
        cur_a, cur_b = rest_end, End(jid, 1)

    drift = max((abs(t - angles[0]) for t in angles), default=0.0)
    return StabilityReport(tuple(angles), tuple(outcomes), drift)
