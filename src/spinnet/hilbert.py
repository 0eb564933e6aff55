"""Angular-momentum oracle: exact couplings, recouplings and Born-rule joins.

This module never rewrites a network.  It reads a network as a tensor
contraction of Clebsch-Gordan intertwiners over irreducible SU(2)
representations and computes outcome probabilities by the Born rule, so
it provides a check of the combinatorial evaluator from first principles:
its coefficients come from Racah's formulas, never from the evaluator's
closed forms.

Conventions: Condon-Shortley phases throughout; a label-n end carries the
spin-n/2 representation with basis index k = 0..n meaning m = n/2 - k
(descending m); each edge carries one copy of the invariant bilinear
pairing K[k, n-k] = (-1)^k between its two ends.

Networks are contracted in the spinor-polynomial basis of Bargmann (Rev.
Mod. Phys. 34, 829, 1962) and Penrose (1971), in which basis vector k of a
label-n end is rescaled by sqrt(C(n, k)).  There every Clebsch-Gordan and
3j tensor is one square root times an integer tensor, so a network
contracts to a tensor of Python ints times one global scale, and Born
weights are exact ``Fraction`` values.  ``Radical`` scalars (one signed
square root of a rational each) remain only in the public
``clebsch_gordan``, ``wigner_3j`` and ``wigner_6j`` and in the entries
``network_to_linear_map`` returns, which are sqrt(scale / C) times an
integer for C a product of binomials.
Floating point appears only in convenience converters.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    InvalidNetwork,
    InvalidPartition,
    MalformedArguments,
    NotAFreeEnd,
    NullState,
    TooLarge,
)
from .evaluator import default_cache
from .experiments import OutcomeDistribution
from .model import End, SpinNetwork, admissible_couplings, validate_network
from .radical import Radical


def _half_integer(x) -> Fraction:
    try:
        q = Fraction(x)
    except (TypeError, ValueError) as exc:
        raise MalformedArguments(f"{x!r} is not a number") from exc
    if q.denominator not in (1, 2):
        raise MalformedArguments(f"{x} is not integral or half-integral")
    return q


def _triangle_factor(a: Fraction, b: Fraction, c: Fraction) -> Fraction | None:
    """Racah's Delta^2: (a+b-c)!(a-b+c)!(-a+b+c)!/(a+b+c+1)!, None if no triangle."""
    if (a + b + c).denominator != 1:
        return None
    sides = (a + b - c, a - b + c, -a + b + c)
    if any(s < 0 for s in sides):
        return None
    num = math.prod(math.factorial(int(s)) for s in sides)
    return Fraction(num, math.factorial(int(a + b + c) + 1))


def clebsch_gordan(j1, m1, j2, m2, j, m) -> Radical:
    """Exact <j1 m1; j2 m2 | j m> in the Condon-Shortley convention.

    Zero whenever a selection rule fails (m != m1 + m2, triangle, or a
    nonexistent magnetic state); MalformedArguments for inputs that are
    not half-integral or have negative total spin.
    """
    j1, m1, j2, m2, j, m = (_half_integer(x) for x in (j1, m1, j2, m2, j, m))
    if j1 < 0 or j2 < 0 or j < 0:
        raise MalformedArguments("total spin cannot be negative")
    return _cg(j1, m1, j2, m2, j, m)


def _cg(j1, m1, j2, m2, j, m) -> Radical:
    zero = Radical(0)
    if m1 + m2 != m:
        return zero
    for jj, mm in ((j1, m1), (j2, m2), (j, m)):
        if abs(mm) > jj or (jj - mm).denominator != 1:
            return zero
    if _triangle_factor(j1, j2, j) is None:
        return zero
    a, b, c = int(2 * j1), int(2 * j2), int(2 * j)
    ka, kb, km = int(j1 - m1), int(j2 - m2), int(j - m)
    binomials = math.comb(a, ka) * math.comb(b, kb) * math.comb(c, km)
    return Radical.sqrt(_racah_prefactor(a, b, c) / binomials) * _racah_sum(a, b, c, ka, kb)


def _racah_prefactor(a: int, b: int, c: int) -> Fraction:
    """(c+1) Delta a! b! c!: Racah's prefactor for <a/2 m_a; b/2 m_b | c/2 M>
    without the factorials of the magnetic numbers."""
    delta = _triangle_factor(Fraction(a, 2), Fraction(b, 2), Fraction(c, 2))
    return (c + 1) * delta * math.factorial(a) * math.factorial(b) * math.factorial(c)


def _racah_sum(a: int, b: int, c: int, ka: int, kb: int) -> Fraction:
    """Racah's alternating sum for <a/2 m_a; b/2 m_b | c/2 M> at indices
    k_a, k_b; an admissible triple and k_M = k_a + k_b - (a+b-c)/2 in
    0..c are assumed."""
    f = math.factorial
    s, u = (a + b - c) // 2, (a - b + c) // 2
    total = Fraction(0)
    for t in range(max(0, ka - u, s - kb), min(s, ka, b - kb) + 1):
        den = f(t) * f(s - t) * f(ka - t) * f(b - kb - t) * f(u - ka + t) * f(kb - s + t)
        total += Fraction(-1 if t % 2 else 1, den)
    return total


def wigner_3j(j1, j2, j3, m1, m2, m3) -> Radical:
    """Exact Wigner 3j symbol (j1 j2 j3; m1 m2 m3)."""
    j1, j2, j3, m1, m2, m3 = (_half_integer(x) for x in (j1, j2, j3, m1, m2, m3))
    if m1 + m2 + m3 != 0:
        return Radical(0)
    cg = clebsch_gordan(j1, m1, j2, m2, j3, -m3)
    if cg.is_zero():
        return cg
    phase = int(j1 - j2 - m3)  # integral whenever the coefficient is nonzero
    return (Radical(-1 if phase % 2 else 1) * cg) / Radical.sqrt(2 * j3 + 1)


def wigner_6j(j1, j2, j3, j4, j5, j6) -> Radical:
    """Exact Wigner 6j symbol {j1 j2 j3; j4 j5 j6} by the Racah sum.

    Zero when any of the four triads (j1 j2 j3), (j1 j5 j6), (j4 j2 j6),
    (j4 j5 j3) violates the triangle or integrality condition.
    """
    js = tuple(_half_integer(x) for x in (j1, j2, j3, j4, j5, j6))
    if any(j < 0 for j in js):
        raise MalformedArguments("total spin cannot be negative")
    return _six_j(*js)


def _six_j(j1, j2, j3, j4, j5, j6) -> Radical:
    triads = ((j1, j2, j3), (j1, j5, j6), (j4, j2, j6), (j4, j5, j3))
    deltas = []
    for triad in triads:
        delta = _triangle_factor(*triad)
        if delta is None:
            return Radical(0)
        deltas.append(delta)
    a = [int(sum(t)) for t in triads]
    b = [int(j1 + j2 + j4 + j5), int(j2 + j3 + j5 + j6), int(j3 + j1 + j6 + j4)]
    total = Fraction(0)
    for t in range(max(a), min(b) + 1):
        den = math.prod(math.factorial(t - ai) for ai in a)
        den *= math.prod(math.factorial(bk - t) for bk in b)
        total += Fraction(math.factorial(t + 1), den) * (-1 if t % 2 else 1)
    return Radical.sqrt(math.prod(deltas)) * total


# -- network contraction in the Bargmann basis -------------------------------
#
# A tensor here is a pair (B, s): B an integer object array and s a
# positive rational scale, such that the standard-basis tensor is
# sqrt(s) * B[k_1, ..., k_m] / sqrt(C(n_1, k_1) ... C(n_m, k_m)).
# Contracting a standard-basis axis then means contracting the Bargmann
# axes through the metric 1/C(n, k), which is n!/(k!(n-k)!): the edge
# pairings fold it in, and the Born projection applies it to the axes it
# sums over.
#
# Every tensor conserves total magnetic number, so only entries that can
# be nonzero are multiplied:
# - An edge pairing is w_k at [k, n-k], k indexing the edge's side-0 end.
#   Applying it to an axis weights the axis by w and reverses it: (n+1)
#   products per entry of the other axes, not (n+1)^2.  Each pairing that
#   meets a vertex is applied to that vertex's tensor before contracting;
#   only a bare edge, both ends free, stays a tensor of its own.
# - The contraction is greedy by size: each step takes the pending tensor
#   whose product with the accumulated one has the fewest entries.  Sizes
#   are known before anything is allocated, so a step, an operand or a
#   final state larger than _MAX_ENTRIES is refused with TooLarge.
# - The Born projection reads each Clebsch-Gordan tensor on its band
#   k_M = k_a + k_b - (a+b-c)/2, from a copy of the state skewed so that
#   k_a + k_b is an axis.
# Cached arrays are read-only.

# Largest intermediates measured: 3,969 entries on the benchmark's Born
# pool and on the test corpus, 103,680 on its closed networks.
_MAX_ENTRIES = 1 << 20


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _bargmann_metric(n: int) -> np.ndarray:
    """k!(n-k)! for k = 0..n: the metric 1/C(n, k) of a label-n axis, times n!."""
    return default_cache().get_or(
        ("bargmann-metric", n),
        lambda: _frozen(np.array(
            [math.factorial(k) * math.factorial(n - k) for k in range(n + 1)], dtype=object
        )),
    )


def _racah_tensor(a: int, b: int, c: int) -> tuple[np.ndarray, Fraction]:
    """Bargmann form (T, r) of the CG tensor of an admissible triple.

    <a/2 m_a; b/2 m_b | c/2 M> * sqrt(C(a, k_a) C(b, k_b) C(c, k_M)) =
    sqrt(r) * T[k_a, k_b, k_M]: the binomials cancel the factorials of the
    magnetic numbers in Racah's formula, leaving the prefactor and the
    sum, which T holds over its common denominator.
    """
    s = (a + b - c) // 2
    sums = {
        (ka, kb, ka + kb - s): _racah_sum(a, b, c, ka, kb)
        for ka in range(a + 1)
        for kb in range(max(0, s - ka), min(b, c + s - ka) + 1)
    }
    lcd = math.lcm(*(q.denominator for q in sums.values()))
    arr = np.zeros((a + 1, b + 1, c + 1), dtype=object)
    for index, q in sums.items():
        arr[index] = q.numerator * (lcd // q.denominator)
    return arr, _racah_prefactor(a, b, c) / lcd**2


def _vertex_tensor(a: int, b: int, c: int) -> tuple[np.ndarray, Fraction]:
    """Bargmann form of the Wigner 3j tensor of a vertex, indexed by its ends' k.

    (a/2 b/2 c/2; m_a m_b m_c) is (-1)^(a/2 - b/2 - m_c) / sqrt(c + 1)
    times <a/2 m_a; b/2 m_b | c/2, -m_c>, and -m_c has index c - k_c.
    """

    def build() -> tuple[np.ndarray, Fraction]:
        t, r = _racah_tensor(a, b, c)
        phase = (a - b - c) // 2
        sign = np.array([-1 if (phase + k) % 2 else 1 for k in range(c + 1)], dtype=object)
        return _frozen(t[:, :, ::-1] * sign), r / (c + 1)

    return default_cache().get_or(("vertex-3j", a, b, c), build)


def _pairing(n: int, free: int) -> tuple[np.ndarray, Fraction]:
    """Bargmann form (w, s) of the pairing on a label-n edge with `free` free
    ends: the pairing is w_k at [k, n-k], and zero elsewhere.

    The metric of each end that meets a vertex is folded in, which leaves
    w_k = (-1)^k C(n, k)^(free - 1).  With one free end that is the
    standard pairing itself; an internal edge keeps integers by moving a
    1/n! into the scale.
    """

    def build() -> tuple[np.ndarray, Fraction]:
        weights = [
            (math.factorial(k) * math.factorial(n - k), 1, math.comb(n, k))[free]
            for k in range(n + 1)
        ]
        w = np.array([-x if k % 2 else x for k, x in enumerate(weights)], dtype=object)
        return _frozen(w), Fraction(1, math.factorial(n) ** 2) if free == 0 else Fraction(1)

    return default_cache().get_or(("pairing", n, free), build)


def _apply_pairing(arr: np.ndarray, axis: int, w: np.ndarray) -> np.ndarray:
    """Contract one axis of arr with the pairing w_k at [k, n-k]: the axis
    is weighted by w and then reversed, so index l of the result holds
    w_(n-l) arr[..., n-l, ...] and stands for the edge's other end."""
    shape = [1] * arr.ndim
    shape[axis] = len(w)
    return np.flip(arr * w.reshape(shape), axis)


def _refuse_above_bound(entries: int, what: str) -> None:
    if entries > _MAX_ENTRIES:
        raise TooLarge(f"{what} would have {entries} entries, more than {_MAX_ENTRIES}")


def _operands(net: SpinNetwork) -> tuple[list[tuple[np.ndarray, list]], Fraction]:
    """The network's tensors with every pairing that meets a vertex applied.

    An axis is keyed by the free end it stands for, or by its edge's id
    when the edge joins two vertex ends.  Per edge:
    - internal, between two vertices: side 0's vertex applies the pairing,
      and the two tensors share the edge's key;
    - a self-loop, both ends on one vertex: side 0's axis applies the
      pairing, then the two axes are traced out;
    - one free end: the vertex applies the pairing, and its axis becomes
      the free end;
    - both ends free: the dense (n+1)x(n+1) pairing is a tensor of its own;
    - label 0: the pairing is the 1x1 identity and is skipped.
    """
    tensors: list[tuple[np.ndarray, list]] = []
    scale = Fraction(1)
    for v in net.vertices:
        labels = [net.label(end) for end in v.ends]
        _refuse_above_bound(math.prod(n + 1 for n in labels), f"the tensor of vertex {v.id}")
        arr, s = _vertex_tensor(*labels)
        scale *= s
        keys: list = []
        for axis, (end, n) in enumerate(zip(v.ends, labels)):
            other = end.opposite()
            free = net.is_free(other)
            keys.append(other if free else end.edge)
            if free or end.side == 0:
                w, s = _pairing(n, int(free))
                scale *= s
                if n:
                    # w is indexed by the side-0 end; read from side 1, it reverses
                    arr = _apply_pairing(arr, axis, w if end.side == 0 else w[::-1])
        if len(set(keys)) < len(keys):
            i, j = (axis for axis, key in enumerate(keys) if keys.count(key) == 2)
            arr = np.trace(arr, axis1=i, axis2=j)
            keys = [key for key in keys if keys.count(key) == 1]
        tensors.append((arr, keys))
    for e in net.edges:
        ends = [End(e.id, 0), End(e.id, 1)]
        if all(map(net.is_free, ends)):
            w, _ = _pairing(e.label, 2)
            tensors.append((np.diag(w)[:, ::-1], ends))
    return tensors, scale


def _contract_network(net: SpinNetwork) -> tuple[np.ndarray, list[End], Fraction]:
    """Contract the network to the Bargmann form of its state.

    Returns (B, keys, scale) with keys = net.free_ends, the free ends
    labelling the axes of B in order.  The edge pairings are applied as
    weighted flips (see `_operands`), then the tensors are contracted one
    at a time into an accumulator, each step taking the pending tensor
    whose result has the fewest entries (the lowest index on a tie).
    Raises TooLarge, before allocating it, for a final state, an operand
    or a step of more than _MAX_ENTRIES entries.
    """
    free = list(net.free_ends)
    _refuse_above_bound(math.prod(net.label(end) + 1 for end in free), "the network state")
    tensors, scale = _operands(net)
    if not tensors:
        return np.array(1, dtype=object), [], scale
    acc, keys = tensors[0]
    pending = tensors[1:]
    while pending:
        sizes = [_product_size(acc, keys, arr, ks) for arr, ks in pending]
        pick = sizes.index(min(sizes))
        _refuse_above_bound(sizes[pick], "a contraction step")
        arr, ks = pending.pop(pick)
        shared = [k for k in ks if k in keys]
        acc = np.tensordot(
            acc, arr, ([keys.index(k) for k in shared], [ks.index(k) for k in shared])
        )
        keys = [k for k in keys if k not in shared] + [k for k in ks if k not in shared]
    assert set(keys) == set(free), "contraction lost track of free ends"
    return np.transpose(acc, [keys.index(end) for end in free]), free, scale


def _product_size(acc: np.ndarray, keys: list, arr: np.ndarray, ks: list) -> int:
    """Entries of the contraction of two keyed tensors over their shared keys."""
    shared = math.prod(arr.shape[i] for i, k in enumerate(ks) if k in keys)
    return acc.size // shared * (arr.size // shared)


def _outer_all(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """The outer product of integer vectors, as an object array (0-d if none)."""
    return functools.reduce(np.multiply.outer, vectors, np.array(1, dtype=object))


# -- Hilbert-space views ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class StateVector:
    """A vector in the tensor product of the labelled irreps."""

    labels: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dim = math.prod(n + 1 for n in self.labels)
        if self.amplitudes.shape != (dim,):
            raise MalformedArguments(
                f"amplitude shape {self.amplitudes.shape} does not match dimension {dim}"
            )

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True, eq=False)
class LinearMapRep:
    """A linear map between tensor products of irreps, with exact entries.

    matrix[row, col] is indexed row-major by the out ends and column-major
    by the in ends, in the orders given at construction.  Entries are
    exact scalars: ``Radical`` from ``network_to_linear_map``, ``Fraction``
    from the ``dynamics`` projectors.
    """

    in_labels: tuple[int, ...]
    out_labels: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        shape = (
            math.prod(n + 1 for n in self.out_labels),
            math.prod(n + 1 for n in self.in_labels),
        )
        if self.matrix.shape != shape:
            raise MalformedArguments(f"matrix shape {self.matrix.shape}, expected {shape}")

    def to_complex(self) -> np.ndarray:
        return np.vectorize(float, otypes=[np.complex128])(self.matrix)


def network_to_linear_map(
    net: SpinNetwork,
    in_ends: Sequence[End],
    out_ends: Sequence[End],
) -> LinearMapRep:
    """The intertwiner a network defines from its in ends to its out ends.

    The two sequences must partition the free ends.  Input axes are
    closed with the inverse pairing, so composing maps agrees with gluing
    networks; in particular a bare edge gives the identity map.
    """
    problems = validate_network(net)
    if problems:
        raise InvalidNetwork(problems)
    ins, outs = list(in_ends), list(out_ends)
    combined = outs + ins
    if len(set(combined)) != len(combined) or set(combined) != set(net.free_ends):
        raise InvalidPartition(
            "in_ends and out_ends must be disjoint and cover every free end"
        )
    acc, keys, scale = _contract_network(net)
    if combined:
        acc = np.transpose(acc, [keys.index(end) for end in combined])
    for in_end in ins:
        # axes sit as outs + pending ins; applying the pairing to the first
        # pending axis and moving it last preserves the in order.  The
        # standard pairing maps Bargmann forms to Bargmann forms, since
        # C(n, k) = C(n, n-k).
        w, _ = _pairing(net.label(in_end), 1)
        acc = np.moveaxis(_apply_pairing(acc, len(outs), w), len(outs), -1)
    binomials = _outer_all(
        [np.array([math.comb(n, k) for k in range(n + 1)], dtype=object)
         for n in (net.label(end) for end in combined)]
    )
    roots = {d: Radical.sqrt(scale / d) for d in set(binomials.flat)}
    entries = [roots[d] * x for x, d in zip(acc.flat, binomials.flat)]
    out_dim = math.prod(net.label(end) + 1 for end in outs)
    in_dim = math.prod(net.label(end) + 1 for end in ins)
    matrix = np.array(entries, dtype=object).reshape(out_dim, in_dim)
    return LinearMapRep(
        tuple(net.label(end) for end in ins),
        tuple(net.label(end) for end in outs),
        matrix,
    )


def intertwiner_residual(rep: LinearMapRep) -> float:
    """How far a map is from commuting with global rotations (0 = exact).

    Checks the total J_z and the two ladder operators: the residual is the
    largest entry of J_out @ M - M @ J_in over the three generators.
    """

    def generators(labels: tuple[int, ...]) -> list[np.ndarray]:
        dim = math.prod(n + 1 for n in labels)
        gens = [np.zeros((dim, dim), dtype=np.complex128) for _ in range(3)]
        for pos, n in enumerate(labels):
            j = n / 2.0
            jz = np.diag([j - k for k in range(n + 1)])
            jp = np.zeros((n + 1, n + 1))
            for k in range(1, n + 1):
                m = j - k
                jp[k - 1, k] = math.sqrt(j * (j + 1) - m * (m + 1))
            left = math.prod(nn + 1 for nn in labels[:pos])
            right = math.prod(nn + 1 for nn in labels[pos + 1 :])
            for i, op in enumerate((jz, jp, jp.conj().T)):
                gens[i] += np.kron(np.kron(np.eye(left), op), np.eye(right))
        return gens

    m = rep.to_complex()
    residual = 0.0
    for g_in, g_out in zip(generators(rep.in_labels), generators(rep.out_labels)):
        residual = max(residual, float(np.max(np.abs(g_out @ m - m @ g_in))))
    return residual


# -- Born-rule join ---------------------------------------------------------


def _cg_tensor(a: int, b: int, c: int) -> tuple[np.ndarray, Fraction]:
    """Bargmann form (band, r) of <a/2 m_a; b/2 m_b | c/2 M> on its band.

    The tensor T[k_a, k_b, k_M] of `_racah_tensor` can be nonzero only at
    k_b = k_M + s - k_a with s = (a+b-c)/2; band[k_a, k_M] holds that entry
    (0 where k_b falls outside 0..b).
    """

    def build() -> tuple[np.ndarray, Fraction]:
        t, r = _racah_tensor(a, b, c)
        s = (a + b - c) // 2
        band = np.zeros((a + 1, c + 1), dtype=object)
        for ka in range(a + 1):
            for km in range(max(0, ka - s), min(c, b + ka - s) + 1):
                band[ka, km] = t[ka, km + s - ka, km]
        return _frozen(band), r

    return default_cache().get_or(("cg-band", a, b, c), build)


def _skew(psi: np.ndarray) -> np.ndarray:
    """diag[k_a, k_a + k_b, rest] = psi[k_a, k_b, rest], zero elsewhere."""
    na, nb, rest = psi.shape
    diag = np.zeros((na, na + nb - 1, rest), dtype=object)
    for ka in range(na):
        diag[ka, ka : ka + nb] = psi[ka]
    return diag


def _project(diag: np.ndarray, a: int, b: int, c: int) -> tuple[np.ndarray, Fraction]:
    """The amplitudes [k_M, rest] of the state `_skew`ed into diag on
    channel c, and the scale r of the Clebsch-Gordan tensor.  Entry k_M
    sums band[k_a, k_M] * psi[k_a, k_M + s - k_a] over k_a, one band
    product."""
    band, r = _cg_tensor(a, b, c)
    s = (a + b - c) // 2
    return (band[:, :, None] * diag[:, s : s + c + 1]).sum(0), r


def born_join_distribution(net: SpinNetwork, end_a: End, end_b: End) -> OutcomeDistribution:
    """Born-rule distribution over the total spin of two free ends.

    The network state is projected onto each total-spin-c/2 subspace of
    the two ends while every other free end is summed over its magnetic
    states with uniform weight (an isotropic boundary).  The weights come
    out rational and normalize exactly.
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

    acc, keys, _scale = _contract_network(net)
    rest = [end for end in keys if end not in (end_a, end_b)]
    psi = np.transpose(acc, [keys.index(end) for end in [end_a, end_b] + rest])
    # the projection contracts the two joined axes and the squared norm
    # sums over the rest, each through its metric; the scale of the state
    # and the n! in each metric are common to all channels
    joined = _outer_all([_bargmann_metric(a), _bargmann_metric(b)])
    diag = _skew(psi.reshape(a + 1, b + 1, -1) * joined[:, :, None])
    rest_metric = _outer_all([_bargmann_metric(net.label(end)) for end in rest])

    weights: dict[int, Fraction] = {}
    for c in admissible_couplings(a, b):
        amp, r = _project(diag, a, b, c)
        total = _bargmann_metric(c).dot((amp * amp).dot(rest_metric.reshape(-1)))
        weights[c] = r * total / math.factorial(c)

    nonzero = {c: w for c, w in weights.items() if w}
    if not nonzero:
        raise NullState("the network state vanishes; no outcome has weight")
    grand = sum(nonzero.values())
    entries = {c: w / grand for c, w in sorted(nonzero.items())}
    return OutcomeDistribution(a, b, entries)
