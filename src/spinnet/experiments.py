"""Operational procedures on networks with free ends.

Joining two free ends produces a distribution over the admissible labels
of the joined unit; splitting a unit off an end and joining it with
another end turns that distribution into a probability p whose angle
reading theta = 2*arccos(sqrt(p)) is the angle "between" the two ends.
The collection of pairwise angles is then checked against the geometry
of directions in three-dimensional space, and the angle's stability is
probed by repeating the exchange, each time on the network the sampled
outcome would commit.  Such a run is a chain on the tracked label, read
from one join of the tracked pair.

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
from .evaluator import _evaluate_mirror_closure, _loop, evaluate_closed, theta_value  # noqa: F401
# merge_free_ends is not called here either; it stays importable from this
# module: perfbench/spans.py wraps the binding experiments.merge_free_ends.
from .model import (
    Edge,
    End,
    SpinNetwork,
    Vertex,
    _is_label,
    admissible_couplings,
    merge_free_ends,  # noqa: F401
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


@dataclass(frozen=True, eq=False)
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
        for end in (end_a, end_b):
            if end not in self.ends:
                raise NotAFreeEnd(f"end {end.edge}:{end.side} is not an end of this matrix")
        return float(self.angles[self.ends.index(end_a), self.ends.index(end_b)])


@dataclass(frozen=True, eq=False)
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


def _require_valid(net: SpinNetwork) -> None:
    problems = validate_network(net)
    if problems:
        raise InvalidNetwork(problems)


def _require_free(net: SpinNetwork, *ends: End) -> None:
    for end in ends:
        if not net.is_free(end):
            raise NotAFreeEnd(f"end {end.edge}:{end.side} is not a free end")


def join_free_ends(net: SpinNetwork, end_a: End, end_b: End) -> OutcomeDistribution:
    """Distribution over the label of the unit formed by joining two free ends.

    For each admissible label c the joined network is closed on itself
    through the new unit (mirror gluing along all free ends) and weighted
    by loop(c)/theta(a, b, c); the weights normalize to exact rational
    probabilities, so a bare loop's factor, common to every channel, is
    left out.  The closure is built once, straight from net and the two
    ends, and read under each channel's labelling; no joined network is
    built.  The weights come from ``_join``, which refuses a vanishing
    state and weights of mixed sign.

    net is validated here (``validate_network`` finds a network's
    violations once, so a network the parser has checked costs no second
    pass) and the ends are checked; the rest is ``_join``.
    """
    _require_valid(net)
    if end_a == end_b:
        raise NotAFreeEnd("cannot join an end with itself")
    _require_free(net, end_a, end_b)
    weights = _join(net, end_a, end_b)
    total = sum(weights.values())
    entries = {c: Fraction(w, total) for c, w in weights.items()}
    return OutcomeDistribution(net.label(end_a), net.label(end_b), entries)


def _join(net: SpinNetwork, end_a: End, end_b: End) -> dict[int, int]:
    """Each label c the joined unit takes with nonzero weight, in increasing
    order, with its weight as a positive integer: loop(c)/theta(a, b, c)
    times the value of net's mirror closure through c, over one common
    denominator that is dropped (and the common sign with it).

    Raises NullState when every weight is 0, and UnsupportedNetwork when
    the weights differ in sign: then the mirror closure is nonplanar,
    which the evaluator does not yet read right.  Nothing is checked: net
    must be valid, and end_a and end_b distinct free ends of it.
    """
    a, b = net.label(end_a), net.label(end_b)
    # Every channel closes onto one graph, in which the joined unit is fused
    # with its mirror image: evaluate it under net's labels and each
    # channel's.
    channels = admissible_couplings(a, b)
    # a tuple made from a list, not a generator: tuple() sizes a generator's
    # result by a guess and shrinks it, and over many joins the shrunk
    # blocks pile up in the interpreter's tuple free lists (3 MB more peak
    # RSS over a 20 s probe-warm run)
    labels = tuple([e.label for e in net.edges])
    values = _evaluate_mirror_closure(net, end_a, end_b, [labels + (c,) for c in channels])
    # each value is an unreduced pair (n, d): the weight
    # loop(c)·n·theta_den / (d·theta_num) is reduced once, by Fraction
    weights = {}
    for c, (n, d) in zip(channels, values):
        # for every channel, a zero one too: each is refused past the label bound
        theta = theta_value(a, b, c)
        if n:
            weights[c] = Fraction(_loop(c) * n * theta.denominator, d * theta.numerator)
    if not weights:
        raise NullState("the network state vanishes; no outcome has weight")
    if len({w > 0 for w in weights.values()}) > 1:
        raise UnsupportedNetwork(
            "the channel weights differ in sign: the mirror closure is nonplanar, and "
            "evaluate_closed does not read slot order as a rotation system yet (ROADMAP item 1)"
        )
    scale = math.lcm(*(w.denominator for w in weights.values()))
    return {c: abs(w.numerator) * (scale // w.denominator) for c, w in weights.items()}


# -- splitting and the exchange ------------------------------------------


def split_unit(
    net: SpinNetwork,
    end_a: End,
    k: int,
    *,
    unit_id: str | None = None,
    rest_id: str | None = None,
) -> SpinNetwork:
    """Split a free end of label a into free ends of labels k and a - k.

    A fresh vertex (a, k, a-k) absorbs the old end; the side-1 ends of the
    two fresh edges are the new free ends.  The vertex takes a fresh
    ``x<n>`` id; edge ids default to fresh ``u<n>`` (the split-off unit)
    and ``r<n>`` (the remainder).
    A k that is not a label ``validate_network`` accepts (a non-negative
    ``int``), or exceeds a, raises InadmissibleSplit.  The vertex is
    admissible and the ids are new, so the result is valid whenever net is.
    """
    if not net.is_free(end_a):
        raise NotAFreeEnd(f"end {end_a.edge}:{end_a.side} is not a free end")
    a = net.label(end_a)
    if not (_is_label(k) and k <= a):
        raise InadmissibleSplit(f"cannot split a unit of {k} from an end of label {a}")
    uid = unit_id if unit_id is not None else net.fresh_id("u")
    rid = rest_id if rest_id is not None else net.fresh_id("r")
    vid = net.fresh_id("x")
    if {uid, rid, vid} & net._used_ids or len({uid, rid, vid}) < 3:
        raise InvalidNetwork(message=f"ids {uid!r}/{rid!r}/{vid!r} collide")
    new_edges = net.edges + (Edge(uid, k), Edge(rid, a - k))
    new_vertex = Vertex(vid, (end_a, End(uid, 0), End(rid, 0)))
    return SpinNetwork(new_edges, net.vertices + (new_vertex,))


def _split_off_unit(net: SpinNetwork, end_a: End) -> tuple[SpinNetwork, End]:
    """``split_unit(net, end_a, 1)`` with the free end of its unit."""
    uid = net.fresh_id("u")
    return split_unit(net, end_a, 1, unit_id=uid), End(uid, 1)


def _exchange(split: SpinNetwork, unit_end: End, end_b: End) -> ExchangeResult:
    """The exchange read off the join of a split-off unit with end_b.
    Nothing is checked: split must be valid (a split of a valid network
    is), and end_b a free end of it other than the unit's."""
    b = split.label(end_b)
    weights = _join(split, unit_end, end_b)
    # the unit comes out as b+1 or b-1, the join's only channels; p_down is
    # 1 - p_up, which takes no second reduction of the weights
    up = weights.get(b + 1, 0)
    p_up = Fraction(up, up + weights.get(b - 1, 0))
    return ExchangeResult(p_up, 1 - p_up, angle_from_probability(p_up))


def exchange_experiment(net: SpinNetwork, end_a: End, end_b: End) -> ExchangeResult:
    """Split a unit 1 off end_a and join it with end_b.

    The joined unit can only come out as b+1 or b-1; p = p_up defines the
    angle between the two ends through p = cos^2(theta/2).  net is
    validated once, after the split's own checks; the split, valid by
    construction, is joined without a second validation, and no
    ``OutcomeDistribution`` is built for the two outcomes.
    """
    if end_a == end_b:
        raise NotAFreeEnd("cannot exchange an end with itself")
    split, unit_end = _split_off_unit(net, end_a)
    _require_valid(net)
    _require_free(net, end_b)
    return _exchange(split, unit_end, end_b)


def angle_from_probability(p) -> float:
    """The angle theta in [0, pi] with cos^2(theta/2) = p."""
    if not 0 <= p <= 1:
        raise OutOfRange(f"probability {p} outside [0, 1]")
    return 2.0 * math.acos(math.sqrt(float(p)))


# -- angle collections and geometry ---------------------------------------


def angle_matrix(net: SpinNetwork, ends: Sequence[End] | None = None) -> AngleMatrix:
    """Angles between every pair of the given free ends (default: all).

    Each pair is measured counterfactually on the original network, so
    the order of pairs cannot matter.  net is validated once, after the
    ends are checked, and each chosen end but the last is split once: the
    exchanges of the pairs (i, j), j > i, all join the split of end i.
    """
    chosen = tuple(ends) if ends is not None else net.free_ends
    if len(chosen) < 2:
        raise TooFewEnds("an angle needs at least two free ends")
    if len(set(chosen)) != len(chosen):
        raise NotAFreeEnd("ends must be distinct")
    for end in chosen:
        _require_free(net, end)
        if net.label(end) < 1:
            raise InadmissibleSplit(f"end {end.edge}:{end.side} has label 0, no unit to split")
    _require_valid(net)

    matrix = np.zeros((len(chosen), len(chosen)))
    for i, end_a in enumerate(chosen[:-1]):
        split, unit_end = _split_off_unit(net, end_a)
        for j in range(i + 1, len(chosen)):
            matrix[i, j] = matrix[j, i] = _exchange(split, unit_end, chosen[j]).theta
    return AngleMatrix(chosen, matrix)


# eigenvalues of a Gram matrix within this of zero count as zero
_GEOMETRY_TOL = 1e-9


def geometry_consistency(am: AngleMatrix) -> GeometryReport:
    """Check whether the angles are realizable by unit vectors in 3-space.

    The Gram matrix G_ij = cos(theta_ij) of any such vectors is positive
    semidefinite with rank at most 3; gram_residual adds the magnitude of
    the most negative eigenvalue to the magnitudes of eigenvalues beyond
    the third-largest, so it vanishes exactly on realizable collections.
    Eigenvalues within a fixed 1e-9 of zero count as zero, so solver noise
    on a true-zero spectrum reports residual 0 rather than ~1e-16, and the
    verdict takes the same margin.
    """
    gram = np.cos(am.angles)
    np.fill_diagonal(gram, 1.0)
    eigenvalues, eigenvectors = np.linalg.eigh(gram)  # ascending
    eigenvalues = np.where(np.abs(eigenvalues) <= _GEOMETRY_TOL, 0.0, eigenvalues)
    descending = eigenvalues[::-1]
    negative = max(0.0, -float(eigenvalues[0]))
    beyond_rank_3 = float(np.sum(np.abs(descending[3:])))
    residual = negative + beyond_rank_3
    embeddable = negative <= _GEOMETRY_TOL and beyond_rank_3 <= _GEOMETRY_TOL
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
    split-off unit is joined at the sampled label, after which the tracked
    ends are the remainder (label a-1) and the new unit (label b+1 or b-1).
    Each repetition consumes one unit of end_a's label, so the label must
    not run out before the repetitions do.

    The run has the law of that committing procedure, and for a seed the
    same report, but it commits no network.  A commit moves one unit from
    a to b, so the pair's joined label x never changes, and at the vertex
    (a, b, x) the unit comes out up with weight (a+x-b)(b+x-a+2) and down
    with weight (a+b-x)(a+b+x+2), both over 4a(b+1).  So the run is a
    chain on the tracked label: end_a and end_b are joined once, each
    repetition reads p_up from the pair's channel weights w_x and the
    vertex weights, and then multiplies each w_x by its branch's weight.

    net is validated once, after the arguments are checked, also when no
    repetition runs; a run of no repetition makes no join.
    """
    # a plain-int seed: random.Random also takes None, seeded from the OS
    if not (type(repetitions) is type(rng_seed) is int and repetitions >= 0):
        raise OutOfRange(f"need ints repetitions >= 0 and rng_seed, got {repetitions!r} and {rng_seed!r}")
    if end_a == end_b:
        raise NotAFreeEnd("cannot exchange an end with itself")
    _require_free(net, end_a, end_b)
    if net.label(end_a) < repetitions:
        raise ExhaustedEnd(
            f"end {end_a.edge}:{end_a.side} (label {net.label(end_a)}) would reach 0 "
            f"before {repetitions} repetitions complete"
        )
    _require_valid(net)
    rng = random.Random(rng_seed)

    angles: list[float] = []
    outcomes: list[int] = []
    a, b = net.label(end_a), net.label(end_b)
    # the pair's channel weights w_x, positive integers
    weights = _join(net, end_a, end_b) if repetitions else {}
    for _ in range(repetitions):
        # each w_x times the up weight at (a, b, x); up + down = 4a(b+1) for
        # every x, so p_up's denominator is 4a(b+1) times the sum of the w_x
        ups = {x: w * (a + x - b) * (b + x - a + 2) for x, w in weights.items()}
        p_up = Fraction(sum(ups.values()), 4 * a * (b + 1) * sum(weights.values()))
        angles.append(angle_from_probability(p_up))
        up = rng.random() < float(p_up)
        weights = ups if up else {x: w * (a + b - x) * (a + b + x + 2) for x, w in weights.items()}
        a, b = a - 1, (b + 1 if up else b - 1)
        outcomes.append(b)

    drift = max((abs(t - angles[0]) for t in angles), default=0.0)
    return StabilityReport(tuple(angles), tuple(outcomes), drift)
