"""Postselected singlet/triplet measurement dynamics on qubit registers.

A measurement of a qubit pair's total spin has two channels: the one
dimensional singlet and the three dimensional triplet.  Postselecting a
channel applies the corresponding projector and renormalizes, which is
not unitary on its own; this module composes such projectors and searches
over short postselection sequences for ones whose induced action on a
system register (with ancillas prepared and read back in a reference
state) approximates a chosen unitary.

Every projector entry is 0, +-1/2 or 1.  A pair projector is the value
(pair, channel, n_qubits); its float matrix, laid out by one index
builder, and its exact ``Fraction`` rep, which sequence_channel composes,
are derived from it on first use and hold the same entries, since they
are dyadic.  States run in complex double precision with identities checked
to 1e-12.  The search runs in real double precision when the ancilla
state is real, as every named one is, and in complex double precision
otherwise.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    BadIndices,
    BudgetExceeded,
    MalformedArguments,
    OutOfRange,
    ZeroProbability,
)
from .hilbert import LinearMapRep, StateVector

_PROB_FLOOR = 1e-18  # squared norms below this count as impossible

MAX_QUBITS = 6  # system and ancilla qubits one search may hold
_BLOCK_BYTES = 1 << 18  # bytes of children's lifts the search makes at once


class PairChannel(enum.Enum):
    SINGLET = "singlet"
    TRIPLET = "triplet"


SINGLET = PairChannel.SINGLET
TRIPLET = PairChannel.TRIPLET


@dataclass(frozen=True)
class PairProjector:
    """Total-spin projector on one qubit pair, identity elsewhere.

    pair indexes two qubits i < j of an n_qubits register (0 = most
    significant tensor factor), each a plain ``int``.  matrix (float64,
    read-only) and rep (exact) are the projector on the whole register,
    derived on first use.
    """

    pair: tuple[int, int]
    channel: PairChannel
    n_qubits: int

    def __post_init__(self):
        # a channel other than SINGLET would build the triplet projector, and
        # a float index would fail only at the first .matrix
        if not isinstance(self.channel, PairChannel):
            raise MalformedArguments(f"channel must be a PairChannel, got {self.channel!r}")
        pair, n = self.pair, self.n_qubits
        if not (type(pair) is tuple and len(pair) == 2 and type(pair[0]) is type(pair[1]) is type(n) is int
                and 0 <= pair[0] < pair[1] < n):
            raise BadIndices(f"need a pair (i, j) of ints with 0 <= i < j < n_qubits, got {pair!r}, n={n!r}")

    @cached_property
    def matrix(self) -> np.ndarray:
        full = _pair_matrix(self.n_qubits, *self.pair, self.channel)
        full.flags.writeable = False
        return full

    @cached_property
    def rep(self) -> LinearMapRep:
        exact = {v: Fraction(v) for v in np.unique(self.matrix).tolist()}  # dyadic, so exact
        labels = (1,) * self.n_qubits
        return LinearMapRep(labels, labels, np.vectorize(exact.__getitem__, otypes=[object])(self.matrix))


@dataclass(frozen=True)
class MeasurementSequence:
    """An ordered list of pair projectors on one register."""

    steps: tuple[PairProjector, ...]
    ancilla_count: int = 0

    def __post_init__(self):
        if type(self.ancilla_count) is not int or self.ancilla_count < 0:
            raise OutOfRange(f"ancilla_count must be an int >= 0, got {self.ancilla_count!r}")
        sizes = {p.n_qubits for p in self.steps}
        if len(sizes) > 1:
            raise BadIndices(f"projectors act on registers of different sizes: {sizes}")
        if self.steps and self.ancilla_count >= next(iter(sizes)):
            raise BadIndices("ancilla count must leave at least one system qubit")


def _pair_matrix(n_qubits: int, i: int, j: int, channel: PairChannel) -> np.ndarray:
    """The pair projector as a float matrix on the whole register.

    The singlet projector is (1 - SWAP)/2 and the triplet one (1 + SWAP)/2,
    where SWAP exchanges qubits i and j.
    """
    dim = 1 << n_qubits
    shift_i, shift_j = n_qubits - 1 - i, n_qubits - 1 - j
    x = np.arange(dim)
    differ = ((x >> shift_i) ^ (x >> shift_j)) & 1
    swap = np.eye(dim)[x ^ (differ << shift_i) ^ (differ << shift_j)]
    eye = np.eye(dim)
    return (eye - swap if channel is SINGLET else eye + swap) / 2


def pair_projector(n_qubits: int, i: int, j: int, channel: PairChannel) -> PairProjector:
    """Projector onto the singlet (rank 1) or triplet (rank 3) of qubits i, j."""
    return PairProjector((i, j), channel, n_qubits)


def apply_postselected(state: StateVector, p: PairProjector) -> tuple[StateVector, float]:
    """Project a normalized state and renormalize; returns the success probability."""
    labels = (1,) * p.n_qubits
    if state.labels != labels:
        raise MalformedArguments(f"state labels {state.labels} != {labels}")
    # complex amplitudes out, real ones in included
    projected = p.matrix @ np.asarray(state.amplitudes, dtype=np.complex128)
    prob = float(np.vdot(projected, projected).real)
    if prob <= _PROB_FLOOR:
        raise ZeroProbability(
            f"{p.channel.value} outcome on pair {p.pair} has probability 0"
        )
    return StateVector(state.labels, projected / math.sqrt(prob)), prob


def sequence_channel(
    seq: MeasurementSequence, in_dims: Sequence[int] | None = None
) -> LinearMapRep:
    """The single linear map a projector sequence composes to (exact entries).

    Later steps multiply on the left.  The result is a contraction
    (operator norm at most 1) but generally not a projector.  The map is
    square; in_dims, when given, must restate the register's qubit
    dimensions, so callers can assert the space they believe they act on.
    An empty sequence needs in_dims to fix the register, and every entry
    must be 2: the register holds qubits.
    """
    if seq.steps:
        dims = (2,) * seq.steps[0].n_qubits
    elif in_dims is None:
        raise MalformedArguments("an empty sequence needs in_dims to fix the register size")
    else:
        dims = tuple(in_dims)
        if any(d != 2 for d in dims):
            raise MalformedArguments(f"in_dims {dims} are not all qubit dimensions 2")
    if in_dims is not None and tuple(in_dims) != dims:
        raise MalformedArguments(f"in_dims {tuple(in_dims)} does not match register {dims}")
    n = len(dims)
    acc = np.full((1 << n, 1 << n), Fraction(0), dtype=object)
    np.fill_diagonal(acc, Fraction(1))
    for step in seq.steps:
        acc = step.rep.matrix @ acc
    labels = (1,) * n
    return LinearMapRep(labels, labels, acc)


# -- unitary approximation search -------------------------------------------


@dataclass(frozen=True)
class SearchReport:
    """Best postselection sequence found for a target unitary."""

    best_sequence: MeasurementSequence
    fidelity: float
    success_prob: float
    best_by_length: tuple[float, ...]


def default_ancilla_state(ancillas: int) -> StateVector:
    """Product of singlets on ancilla pairs (last qubit up when odd)."""
    vec = np.array([1.0 + 0j])
    singlet = np.array([0, 1, -1, 0], dtype=np.complex128) / math.sqrt(2)
    for _ in range(ancillas // 2):
        vec = np.kron(vec, singlet)
    if ancillas % 2:
        vec = np.kron(vec, np.array([1, 0], dtype=np.complex128))
    return StateVector((1,) * ancillas, vec)


def _sigma_max(maps: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a stack of 2x2 matrices.

    sigma_max^2 is the larger eigenvalue of A^H A = [[p, q], [q*, r]],
    (p + r)/2 + hypot((p - r)/2, |q|): a sum of two nonnegative terms, so
    nothing cancels.  Each matrix is first scaled by the power of two that
    brings its largest entry magnitude into [1/2, 1), which is exact and
    keeps p, q and r from underflowing or overflowing.
    """
    flat = np.ascontiguousarray(maps).reshape(-1, 4)  # rows a, b, c, d: float64 or complex128
    mag = np.abs(flat)
    top = np.maximum(np.maximum(mag[:, 0], mag[:, 1]), np.maximum(mag[:, 2], mag[:, 3]))
    _, exp = np.frexp(top)
    unit = np.ldexp(flat.view(np.float64), -exp[:, None]).view(flat.dtype)
    sq = (unit * unit.conj()).real
    p, r = sq[:, 0] + sq[:, 2], sq[:, 1] + sq[:, 3]  # squared column norms
    q = np.abs(unit[:, 0].conj() * unit[:, 1] + unit[:, 2].conj() * unit[:, 3])
    return np.ldexp(np.sqrt((p + r) / 2 + np.hypot((p - r) / 2, q)), exp)


def _map_fidelities(target: np.ndarray, induced: np.ndarray) -> np.ndarray:
    """Scale-invariant overlaps |tr(U^H A)| / (dim * sigma_max(A)) of a stack.

    Postselected maps are meaningful up to positive scale, so each induced
    map is compared after normalizing by its largest singular value; the
    result is 1 exactly when A is proportional to the target.  A 2x2 map
    takes sigma_max in closed form, a larger one from a batched SVD.
    """
    if induced.shape[1:] == (2, 2):
        top = _sigma_max(induced)
    else:
        top = np.linalg.svd(induced, compute_uv=False)[:, 0]
    overlap = np.abs(np.einsum("ij,bij->b", target.conj(), induced))
    live = top >= 1e-300
    fids = np.zeros(len(induced))
    fids[live] = overlap[live] / (target.shape[0] * top[live])
    return fids


def _serial_best(fids: np.ndarray, best: float) -> tuple[int, float]:
    """The scan `for c, f in enumerate(fids): if f > best + 1e-15: best = f`.

    Returns the last child the scan takes (-1 for none) and the best after
    it.  Only children above the starting best can be taken, so only they
    are scanned.
    """
    taken = -1
    for c in np.flatnonzero(fids > best + 1e-15).tolist():
        if fids[c] > best + 1e-15:
            taken, best = c, float(fids[c])
    return taken, best


def approximate_unitary_search(
    target: np.ndarray,
    ancillas: int,
    max_len: int,
    ancilla_state: StateVector | None = None,
    *,
    beam_width: int | None = None,
    node_budget: int = 200_000,
) -> SearchReport:
    """Search projector sequences whose induced system map approximates a unitary.

    The system register holds the target's qubits; ancillas are appended,
    prepared in ancilla_state (default: singlet pairs) and read back in the
    same state, so with the embedding E = I (x) |anc> a sequence M induces
    A = E^H M E on the system.  Breadth-first over sequences up to max_len
    (consecutive repeats of a projector are skipped as no-ops); when
    beam_width is set only the best beam_width prefixes per length are
    extended.  Fidelity is _map_fidelities; success_prob is ||M E||^2 / 2^k,
    the mean squared norm of M applied to basis system states with the
    prepared ancilla.

    Both only use the lift M E, so the search carries lifts (2^n x 2^k)
    instead of sequences' matrices.  A level is made and scored in blocks
    of parents, about _BLOCK_BYTES of children's lifts at a time: one
    stacked matmul makes a block's children, and sigma_max comes in closed
    form for a one-qubit target, from a batched SVD for a larger one.
    Children's lifts are kept only when they are the next frontier (an
    exhaustive level before the last); the best child and the beam are
    remade from their parents' lifts, which gives the same bits, since
    each entry of P L is one rounding of (L[r] +- L[s])/2.  Lifts are
    float64 when the ancilla amplitudes are real, complex128 otherwise.
    The node budget counts the root and every child, must be at least 1,
    and is checked before a level is computed.
    """
    target = np.asarray(target, dtype=np.complex128)
    if target.ndim != 2 or target.shape[0] != target.shape[1]:
        raise MalformedArguments(f"target must be square, got shape {target.shape}")
    k = (target.shape[0] - 1).bit_length()
    if target.shape[0] != 1 << k or k < 1:
        raise MalformedArguments(f"target dimension {target.shape[0]} is not 2^k, k >= 1")
    if not np.isfinite(target).all():
        raise MalformedArguments("target has non-finite entries")
    if np.max(np.abs(target.conj().T @ target - np.eye(1 << k))) > 1e-9:
        raise MalformedArguments("target is not unitary")
    # counts are plain ints: a bool or float one would run as a number
    if not (type(ancillas) is type(max_len) is int and ancillas >= 0 and max_len >= 0):
        raise OutOfRange(f"ancillas and max_len must be ints >= 0, got {ancillas!r} and {max_len!r}")
    if beam_width is not None and (type(beam_width) is not int or beam_width < 1):
        raise OutOfRange(f"beam_width must be an int >= 1, got {beam_width!r}")
    if type(node_budget) is not int or node_budget < 1:
        raise OutOfRange(f"node_budget must be an int >= 1, got {node_budget!r}")
    n = k + ancillas
    if n > MAX_QUBITS:
        raise OutOfRange(f"{n} qubits exceeds the desk-scale bound of {MAX_QUBITS}")

    if ancilla_state is None:
        ancilla_state = default_ancilla_state(ancillas)
    if ancilla_state.labels != (1,) * ancillas:
        raise MalformedArguments(f"ancilla state must be {ancillas} qubits")
    norm = ancilla_state.norm
    if not (math.isfinite(norm) and norm > 0):
        raise MalformedArguments(f"ancilla state must have a finite nonzero norm, got {norm}")
    anc = np.asarray(ancilla_state.amplitudes, dtype=np.complex128) / norm
    if not anc.imag.any():
        anc = anc.real  # then every lift is real: carry float64
    embed = np.kron(np.eye(1 << k), anc[:, None])  # (2^n, 2^k)
    embed_h = embed.conj().T

    ops = [
        pair_projector(n, i, j, ch)
        for i, j in itertools.combinations(range(n), 2)
        for ch in (SINGLET, TRIPLET)
    ]
    mats = np.array([p.matrix for p in ops], dtype=embed.dtype).reshape(len(ops), 1 << n, 1 << n)

    # Row c of seqs holds the indices into ops of frontier sequence c.  ops
    # is listed in (i, j, channel value) order, so comparing rows orders
    # the beam exactly as comparing the steps' (i, j, channel value) lists.
    lifts = embed[None]  # the lifts M E of the frontier, in frontier order
    seqs = np.zeros((1, 0), dtype=np.intp)
    last = np.array([-1])  # index in ops of each sequence's last step
    best_fid = float(_map_fidelities(target, embed_h @ embed[None])[0])
    best_seq, best_lift = seqs[0], embed
    best_by_length = [best_fid]
    nodes = 1
    block = max(1, _BLOCK_BYTES // (max(len(ops), 1) * embed.nbytes))  # parents at once
    for level in range(max_len):
        keep = np.arange(len(ops))[None, :] != last[:, None]
        size = np.count_nonzero(keep)
        nodes += size
        if nodes > node_budget:
            raise BudgetExceeded(f"search exceeded the node budget of {node_budget}")
        frontier = beam_width is None and level + 1 < max_len
        kids = np.empty((size, *embed.shape), embed.dtype) if frontier else None
        fids = np.empty(size)  # children in parent-then-op order
        done = 0
        for start in range(0, len(lifts), block):
            made = np.matmul(mats[None], lifts[start:start + block, None])
            made = made.reshape(-1, *embed.shape)
            mask = keep[start:start + block].ravel()
            induced = np.compress(mask, embed_h @ made, axis=0)
            end = done + len(induced)
            fids[done:end] = _map_fidelities(target, induced)
            if frontier:
                np.compress(mask, made, axis=0, out=kids[done:end])
            done = end
        parent, op = np.nonzero(keep)
        child, best_fid = _serial_best(fids, best_fid)
        if child >= 0:
            best_seq = np.append(seqs[parent[child]], op[child])
            best_lift = mats[op[child]] @ lifts[parent[child]]
        best_by_length.append(best_fid)
        if not size:
            break
        if beam_width is not None:
            seqs = np.concatenate((seqs[parent], op[:, None]), axis=1)
            order = np.lexsort((*seqs.T[::-1], -fids))[:beam_width]
            lifts = mats[op[order]] @ lifts[parent[order]]
            last, seqs = op[order], seqs[order]
        elif frontier:
            lifts, last, seqs = kids, op, np.concatenate((seqs[parent], op[:, None]), axis=1)

    steps = tuple(ops[o] for o in best_seq.tolist())
    return SearchReport(
        MeasurementSequence(steps, ancilla_count=ancillas),
        best_fid,
        float(np.sum(np.abs(best_lift) ** 2)) / (1 << k),
        tuple(best_by_length),
    )
