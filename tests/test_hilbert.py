import functools
import hashlib
import itertools
import math
import random
from fractions import Fraction as F

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netgen import cycle_labelled_net, free_end_pairs, random_cubic_graph, theta_net
from spinnet import evaluator, hilbert
from spinnet.errors import (
    InvalidNetwork,
    InvalidPartition,
    MalformedArguments,
    NullState,
    TooLarge,
)
from spinnet.evaluator import evaluate_closed, theta_value
from spinnet.hilbert import (
    LinearMapRep,
    StateVector,
    _cg_tensor,
    _contract_network,
    _project,
    _racah_tensor,
    _skew,
    _vertex_tensor,
    born_join_distribution,
    clebsch_gordan,
    intertwiner_residual,
    network_to_linear_map,
    wigner_3j,
    wigner_6j,
)
from spinnet.model import Edge, End, SpinNetwork, Vertex, admissible_couplings
from spinnet.radical import Radical

half_integers = st.integers(min_value=0, max_value=6).map(lambda n: F(n, 2))


def spins_to(j):
    return [j - k for k in range(int(2 * j) + 1)]


def test_cg_examples():
    assert clebsch_gordan(F(1, 2), F(1, 2), F(1, 2), F(-1, 2), 0, 0) == Radical.sqrt(
        F(1, 2)
    )
    assert clebsch_gordan(F(1, 2), F(1, 2), F(1, 2), F(1, 2), 1, 0) == Radical(0)
    for j in (F(1, 2), 1, F(3, 2), 2):
        assert clebsch_gordan(j, j, j, j, 2 * j, 2 * j) == Radical(1)


def test_cg_rejects_malformed():
    with pytest.raises(MalformedArguments):
        clebsch_gordan(0.3, 0.3, 0, 0, 0.3, 0.3)
    with pytest.raises(MalformedArguments):
        clebsch_gordan(-1, 0, 1, 0, 1, 0)


@given(half_integers, half_integers)
@settings(deadline=None)
def test_cg_completeness(j1, j2):
    for m1 in spins_to(j1):
        for m2 in spins_to(j2):
            total = Radical(0)
            j = abs(j1 - j2)
            while j <= j1 + j2:
                c = clebsch_gordan(j1, m1, j2, m2, j, m1 + m2)
                total = total + c * c
                j += 1
            assert total == Radical(1)


@given(half_integers, half_integers)
@settings(deadline=None)
def test_cg_rows_orthogonal(j1, j2):
    # two distinct (J, M) rows of the same (j1, j2) block are orthogonal
    pairs = [(j, m) for j in spins_to(j1 + j2) if j >= abs(j1 - j2) for m in spins_to(j)]
    rng = random.Random(int(4 * j1 + 2 * j2))
    for (ja, ma), (jb, mb) in rng.sample(
        list(itertools.combinations(pairs, 2)), min(6, len(pairs) * (len(pairs) - 1) // 2)
    ):
        dot = Radical(0)
        for m1 in spins_to(j1):
            for m2 in spins_to(j2):
                dot = dot + clebsch_gordan(j1, m1, j2, m2, ja, ma) * clebsch_gordan(
                    j1, m1, j2, m2, jb, mb
                )
        assert dot == Radical(0)


def test_six_j_triad_violations_are_zero():
    assert wigner_6j(1, 1, 3, 1, 1, 1) == Radical(0)  # triangle fails
    assert wigner_6j(F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1, 2)) == Radical(0)


@pytest.mark.parametrize("position", range(6))
def test_six_j_refuses_a_negative_spin(position):
    spins = [1] * 6
    spins[position] = -1
    with pytest.raises(MalformedArguments, match="cannot be negative"):
        wigner_6j(*spins)


def test_six_j_column_permutations():
    args = (1, F(3, 2), F(1, 2), F(1, 2), 1, 1)
    j1, j2, j3, j4, j5, j6 = args
    reference = wigner_6j(*args)
    assert wigner_6j(j2, j1, j3, j5, j4, j6) == reference
    assert wigner_6j(j3, j2, j1, j6, j5, j4) == reference
    assert wigner_6j(j1, j5, j6, j4, j2, j3) == reference


def _recoupled_overlap(j1, j2, j3, j12, j23, j, m):
    """<(j1,(j2 j3) j23) j m | ((j1 j2) j12, j3) j m> by explicit CG sums."""
    total = Radical(0)
    for m1 in spins_to(j1):
        for m2 in spins_to(j2):
            for m3 in spins_to(j3):
                if m1 + m2 + m3 != m:
                    continue
                left = clebsch_gordan(j2, m2, j3, m3, j23, m2 + m3) * clebsch_gordan(
                    j1, m1, j23, m2 + m3, j, m
                )
                right = clebsch_gordan(j1, m1, j2, m2, j12, m1 + m2) * clebsch_gordan(
                    j12, m1 + m2, j3, m3, j, m
                )
                total = total + left * right
    return total


@pytest.mark.parametrize(
    "j1,j2,j3,j,j12,j23",
    [
        (F(1, 2), F(1, 2), F(1, 2), F(1, 2), 0, 0),
        (F(1, 2), F(1, 2), F(1, 2), F(1, 2), 0, 1),
        (F(1, 2), F(1, 2), F(1, 2), F(1, 2), 1, 1),
        (F(1, 2), F(1, 2), 1, 1, 1, F(1, 2)),
        (1, 1, 1, 1, 2, 1),
        (F(1, 2), 1, F(3, 2), 1, F(3, 2), F(3, 2)),
    ],
)
def test_six_j_matches_cg_contraction(j1, j2, j3, j, j12, j23):
    overlap = _recoupled_overlap(j1, j2, j3, j12, j23, j, j)
    phase = (-1) ** int(j1 + j2 + j3 + j)
    predicted = (
        Radical(phase)
        * Radical.sqrt((2 * j12 + 1) * (2 * j23 + 1))
        * wigner_6j(j1, j2, j12, j3, j, j23)
    )
    assert overlap == predicted


def test_recoupling_matrix_orthonormal_rows():
    j1 = j2 = j3 = 1
    for j in (0, 1, 2, 3):
        j12s = [x for x in spins_to(j1 + j2) if x >= abs(j1 - j2)]
        j23s = [x for x in spins_to(j2 + j3) if x >= abs(j2 - j3)]
        u = np.array(
            [
                [
                    float(
                        Radical.sqrt((2 * a + 1) * (2 * b + 1))
                        * wigner_6j(j1, j2, a, j3, j, b)
                    )
                    for b in j23s
                ]
                for a in j12s
            ]
        )
        gram = u @ u.T
        want = np.diag([1.0 if abs(j1 - j) <= a <= j1 + j else 0.0 for a in j12s])
        assert np.max(np.abs(gram - want)) < 1e-12


def test_against_sympy_tables():
    from sympy import Rational, S
    from sympy.physics.quantum.cg import CG
    from sympy.physics.wigner import wigner_6j as sympy_6j

    rng = random.Random(11)
    for _ in range(120):
        js = [F(rng.randint(0, 5), 2) for _ in range(6)]
        try:
            want = float(sympy_6j(*[Rational(x.numerator, x.denominator) for x in js]))
        except ValueError:
            want = 0.0
        assert float(wigner_6j(*js)) == pytest.approx(want, abs=1e-12)
    for _ in range(120):
        j1, j2 = F(rng.randint(0, 4), 2), F(rng.randint(0, 4), 2)
        m1 = rng.choice(spins_to(j1)) if j1 > 0 else F(0)
        m2 = rng.choice(spins_to(j2)) if j2 > 0 else F(0)
        j = F(rng.randint(0, 8), 2)
        want = CG(
            Rational(j1), Rational(m1), Rational(j2), Rational(m2),
            Rational(j), Rational(m1 + m2),
        ).doit()
        assert float(clebsch_gordan(j1, m1, j2, m2, j, m1 + m2)) == pytest.approx(
            float(want), abs=1e-12
        )


def test_three_j_against_sympy():
    from sympy import Rational
    from sympy.physics.wigner import wigner_3j as sympy_3j

    assert wigner_3j(1, 1, 1, 0, 0, 0) == Radical(0)  # odd column sum
    rng = random.Random(3)
    for _ in range(80):
        js = [F(rng.randint(0, 4), 2) for _ in range(3)]
        ms = [rng.choice(spins_to(j)) if j > 0 else F(0) for j in js]
        want = float(sympy_3j(*[Rational(x) for x in js + ms]))
        got = float(wigner_3j(*js, *ms))
        assert got == pytest.approx(want, abs=1e-12)


def test_bare_edge_is_identity():
    for n in range(6):
        net = SpinNetwork.from_spec({"e": n})
        rep = network_to_linear_map(net, [End("e", 0)], [End("e", 1)])
        assert rep.matrix.shape == (n + 1, n + 1)
        eye = np.eye(n + 1)
        assert np.max(np.abs(rep.to_complex() - eye)) == 0


def test_singlet_projection_row():
    net = SpinNetwork.from_spec(
        {"a": 1, "b": 1, "s": 0}, [("v", ("a", "b", "s"))]
    )
    rep = network_to_linear_map(net, [End("a", 1), End("b", 1)], [End("s", 1)])
    row = rep.to_complex().ravel()
    want = np.array([0, 1, -1, 0]) / math.sqrt(2)
    scale = row[1] / want[1]
    assert abs(abs(scale) - 1) < 1e-12
    assert np.max(np.abs(row - scale * want)) < 1e-12


def test_linear_map_rejects_bad_inputs():
    bad = SpinNetwork(
        (Edge("x", 1), Edge("y", 1), Edge("z", 1)),
        (Vertex("v", (End("x", 0), End("y", 0), End("z", 0))),),
    )
    with pytest.raises(InvalidNetwork):
        network_to_linear_map(bad, [End("x", 1)], [End("y", 1), End("z", 1)])
    net = SpinNetwork.from_spec({"a": 1, "b": 1})
    with pytest.raises(InvalidPartition):
        network_to_linear_map(net, [End("a", 0)], [End("a", 0)])
    with pytest.raises(InvalidPartition):
        network_to_linear_map(net, [End("a", 0)], [End("a", 1)])  # b missing


@pytest.mark.parametrize("build", [
    lambda: StateVector((1, 2), np.zeros(5)),
    lambda: StateVector((1,), np.zeros((2, 1))),
    lambda: LinearMapRep((1,), (2,), np.zeros((2, 3), dtype=object)),
    lambda: LinearMapRep((1, 1), (), np.zeros((1, 2), dtype=object)),
])
def test_a_state_or_map_refuses_a_shape_its_labels_do_not_fix(build):
    with pytest.raises(MalformedArguments, match="shape"):
        build()


def test_intertwiner_residual_on_fixtures():
    vee = SpinNetwork.from_spec({"a": 1, "b": 1, "t": 2}, [("v", ("a", "b", "t"))])
    rep = network_to_linear_map(vee, [End("a", 1), End("b", 1)], [End("t", 1)])
    assert intertwiner_residual(rep) < 1e-12
    chain = SpinNetwork.from_spec(
        {"a": 2, "b": 2, "m": 2, "c": 2, "r": 2},
        [("u", ("a", "b", "m")), ("v", ("m", "c", "r"))],
    )
    rep = network_to_linear_map(
        chain, [End("a", 1), End("b", 1), End("c", 1)], [End("r", 1)]
    )
    assert intertwiner_residual(rep) < 1e-12


def test_born_examples():
    singlet = SpinNetwork.from_spec({"a": 1, "b": 1, "s": 0}, [("v", ("a", "b", "s"))])
    assert born_join_distribution(singlet, End("a", 1), End("b", 1)).entries == {
        0: F(1)
    }
    triplet = SpinNetwork.from_spec({"a": 1, "b": 1, "t": 2}, [("v", ("a", "b", "t"))])
    assert born_join_distribution(triplet, End("a", 1), End("b", 1)).entries == {
        2: F(1)
    }
    pair = SpinNetwork.from_spec({"a": 3, "z": 0})
    assert born_join_distribution(pair, End("a", 0), End("z", 0)).entries == {3: F(1)}


def test_born_bare_pair_is_dimension_counting():
    pair = SpinNetwork.from_spec({"a": 1, "b": 1})
    dist = born_join_distribution(pair, End("a", 0), End("b", 0))
    assert dist.entries == {0: F(1, 4), 2: F(3, 4)}


def test_born_null_state():
    # an open tadpole component evaluates to the zero vector
    net = SpinNetwork.from_spec(
        {"l": 1, "c": 2, "x": 1, "y": 1}, [("v", ("l", "l", "c"))]
    )
    with pytest.raises(NullState):
        born_join_distribution(net, End("x", 0), End("y", 0))


@functools.cache
def _float_symbol(symbol, a: int, b: int, c: int) -> np.ndarray:
    """symbol(j_a, m_a, j_b, m_b, j_c, m_c) in floats, indexed [k_a, k_b, k_c]."""
    js = (F(a, 2), F(b, 2), F(c, 2))
    arr = np.zeros((a + 1, b + 1, c + 1))
    for ks in itertools.product(range(a + 1), range(b + 1), range(c + 1)):
        arr[ks] = float(symbol(*(x for j, k in zip(js, ks) for x in (j, j - k))))
    return arr


def _three_j(ja, ma, jb, mb, jc, mc):
    return wigner_3j(ja, jb, jc, ma, mb, mc)


def _standard_born(net, end_a, end_b):
    """Born weights from the definition, in floats: 3j tensors and the
    pairing (-1)^k in the standard basis, projected by CG coefficients."""
    axis: dict[End, int] = {}
    operands = []
    for v in net.vertices:
        operands += [_float_symbol(_three_j, *(net.label(e) for e in v.ends)),
                     [axis.setdefault(e, len(axis)) for e in v.ends]]
    for e in net.edges:
        n = e.label
        pairing = np.zeros((n + 1, n + 1))
        for k in range(n + 1):
            pairing[k, n - k] = (-1) ** k
        operands += [pairing, [axis.setdefault(End(e.id, s), len(axis)) for s in (0, 1)]]
    rest = [end for end in net.free_ends if end not in (end_a, end_b)]
    psi = np.einsum(*operands, [axis[end] for end in [end_a, end_b] + rest], optimize=True)
    a, b = net.label(end_a), net.label(end_b)
    psi = psi.reshape(a + 1, b + 1, -1)
    weights = {}
    for c in admissible_couplings(a, b):
        cg = _float_symbol(clebsch_gordan, a, b, c)
        weights[c] = float(np.sum(np.tensordot(cg, psi, ([0, 1], [0, 1])) ** 2))
    return weights


def test_born_sums_to_one_on_corpus(open_nets):
    """Every pair of free ends on every corpus network, against the
    standard-basis definition.  The pairs cover the three edge pairings
    of the Bargmann contraction (internal, one free end, both free) and
    label-0 ends."""
    seen = set()
    for net, end_a, end_b in free_end_pairs(open_nets):
        for e in net.edges:
            seen.add(f"edge with {sum(net.is_free(End(e.id, s)) for s in (0, 1))} free ends")
        for end in (end_a, end_b):
            seen.add("joined bare edge" if net.is_free(end.opposite()) else "joined vertex end")
            if net.label(end) == 0:
                seen.add("joined label-0 end")
        want = _standard_born(net, end_a, end_b)
        try:
            dist = born_join_distribution(net, end_a, end_b)
        except NullState:
            assert max(want.values()) < 1e-20
            continue
        assert sum(dist.entries.values()) == 1
        assert all(0 <= p <= 1 for p in dist.entries.values())
        total = sum(want.values())
        for c, w in want.items():
            assert float(dist.entries.get(c, 0)) == pytest.approx(w / total, abs=1e-9)
    assert seen == {
        "edge with 0 free ends", "edge with 1 free ends", "edge with 2 free ends",
        "joined bare edge", "joined vertex end", "joined label-0 end",
    }


def test_bargmann_tensors_match_public_symbols():
    for a, b in itertools.product(range(6), repeat=2):
        for c in admissible_couplings(a, b):
            band, r = _cg_tensor(a, b, c)
            three_j, s = _vertex_tensor(a, b, c)
            ja, jb, jc = F(a, 2), F(b, 2), F(c, 2)
            shift = (a + b - c) // 2
            for ka, kc in itertools.product(range(a + 1), range(c + 1)):
                if not 0 <= kc + shift - ka <= b:
                    assert band[ka, kc] == 0
            for ka, kb, kc in itertools.product(range(a + 1), range(b + 1), range(c + 1)):
                binomials = math.comb(a, ka) * math.comb(b, kb) * math.comb(c, kc)
                cg = band[ka, kc] if kb == kc + shift - ka else 0
                assert Radical.sqrt(r / binomials) * cg == clebsch_gordan(
                    ja, ja - ka, jb, jb - kb, jc, jc - kc
                )
                assert Radical.sqrt(s / binomials) * three_j[ka, kb, kc] == wigner_3j(
                    ja, jb, jc, ja - ka, jb - kb, jc - kc
                )


def test_cached_tensors_are_read_only(open_nets, fresh_cache):
    for net in open_nets[:20]:
        ends = net.free_ends
        try:
            born_join_distribution(net, ends[0], ends[1])
        except NullState:
            pass
        network_to_linear_map(net, ends[:1], ends[1:])
    arrays = [
        part
        for value in fresh_cache._data.values()
        for part in (value if isinstance(value, tuple) else (value,))
        if isinstance(part, np.ndarray)
    ]
    assert arrays
    assert any(key[0] == "operand" for key in fresh_cache._data)
    assert not any(arr.flags.writeable for arr in arrays)


def test_linear_map_does_not_alias_the_cache(fresh_cache):
    net = SpinNetwork.from_spec({"e": 2})
    ends = [End("e", 0), End("e", 1)]
    rep = network_to_linear_map(net, [], ends)
    before = rep.matrix.copy()
    rep.matrix[0] = Radical(7)
    again = network_to_linear_map(net, [], ends)
    assert list(again.matrix.ravel()) == list(before.ravel())


def test_born_path_needs_no_radicals_and_no_closed_forms(open_nets, no_radicals, monkeypatch, fresh_cache):
    """The check path stays exact in integers and independent of the
    evaluator: it builds no Radical and calls no theta or tet value."""

    def forbidden(*_args, **_kwargs):
        raise AssertionError("the Born path must not reach this")

    for name in ("theta_value", "tet_value", "_tet", "evaluate_closed"):
        monkeypatch.setattr(evaluator, name, forbidden)
    # the process cache starts empty, so every tensor is built under the patches
    answered = 0
    for net, end_a, end_b in free_end_pairs(open_nets[:40]):
        try:
            born_join_distribution(net, end_a, end_b)
        except NullState:
            continue
        answered += 1
    assert answered > 40


# -- the sparse kernels against the dense forms they replaced -----------------


def _dense_projection(psi, a, b, c):
    """Channel-c amplitudes [k_M, rest] by a tensordot over the whole CG tensor."""
    cg, r = _racah_tensor(a, b, c)
    return np.tensordot(cg, psi, ([0, 1], [0, 1])), r


def test_banded_projection_equals_dense_reference():
    rng = random.Random(17)
    for a, b in itertools.product(range(9), repeat=2):
        rest = rng.randint(1, 3)
        entries = [rng.randint(-99, 99) for _ in range((a + 1) * (b + 1) * rest)]
        psi = np.array(entries, dtype=object).reshape(a + 1, b + 1, rest)
        diag = _skew(psi)
        for c in admissible_couplings(a, b):
            amp, r = _project(diag, a, b, c)
            want, want_r = _dense_projection(psi, a, b, c)
            assert r == want_r
            assert amp.shape == want.shape and amp.tolist() == want.tolist()


def _dense_pairing(n, free):
    """The pairing of a label-n edge with `free` free ends as a dense
    matrix: (-1)^k C(n, k)^(free - 1) at [k, n-k], metric folded in."""
    arr = np.zeros((n + 1, n + 1), dtype=object)
    for k in range(n + 1):
        weight = (math.factorial(k) * math.factorial(n - k), 1, math.comb(n, k))[free]
        arr[k, n - k] = -weight if k % 2 else weight
    return arr, F(1, math.factorial(n) ** 2) if free == 0 else F(1)


def _reference_contraction(net):
    """Every vertex tensor and every dense edge pairing, contracted in
    turn with the first pending tensor that shares an axis."""
    tensors = []
    scale = F(1)
    for v in net.vertices:
        arr, s = _vertex_tensor(*(net.label(end) for end in v.ends))
        tensors.append((arr, list(v.ends)))
        scale *= s
    for e in net.edges:
        ends = [End(e.id, 0), End(e.id, 1)]
        arr, s = _dense_pairing(e.label, sum(map(net.is_free, ends)))
        tensors.append((arr, ends))
        scale *= s
    acc, keys = tensors[0]
    pending = tensors[1:]
    while pending:
        pick = next((i for i, (_, ks) in enumerate(pending) if any(k in keys for k in ks)), 0)
        arr, ks = pending.pop(pick)
        shared = [k for k in ks if k in keys]
        acc = np.tensordot(
            acc, arr, ([keys.index(k) for k in shared], [ks.index(k) for k in shared])
        )
        keys = [k for k in keys if k not in shared] + [k for k in ks if k not in shared]
    return acc, keys, scale


def _edge_kinds(net):
    kinds = set()
    for e in net.edges:
        owners = [net.attachment(End(e.id, side)) for side in (0, 1)]
        free = owners.count(None)
        kinds.add(("internal", "one free end", "bare")[free])
        if free == 0 and owners[0] == owners[1]:
            kinds.add("self-loop")
        if e.label == 0:
            kinds.add("label 0")
    return kinds


def test_contraction_equals_dense_reference(open_nets, fresh_cache):
    """Pairings applied as flips and the size-greedy order give exactly
    the state, the axis order (the free ends') and the scale of the dense,
    first-shared-axis contraction.  The corpus runs twice, so every cached
    operand is checked once as built and once as read back."""
    kinds = set()
    for net in open_nets:
        kinds |= _edge_kinds(net)
    # vertex ends read from side 1, whose operands reverse the pairing
    side_one = [end for net in open_nets for v in net.vertices for end in v.ends
                if end.side == 1 and net.is_free(end.opposite())]
    assert len(side_one) == 67
    assert kinds == {"internal", "self-loop", "one free end", "bare", "label 0"}
    for run in ("cold", "warm"):
        misses = fresh_cache.misses
        for net in open_nets:
            got, keys, scales = _contract_network(net)
            want, want_keys, want_scale = _reference_contraction(net)
            assert keys == list(net.free_ends)
            assert math.prod(scales, start=F(1)) == want_scale
            want = np.transpose(want, [want_keys.index(end) for end in keys])
            assert got.shape == want.shape and got.tolist() == want.tolist()
        assert (fresh_cache.misses > misses) == (run == "cold")


def test_a_vertex_tensor_above_the_bound_is_refused_before_its_lookup(monkeypatch, fresh_cache):
    # the state has 9 entries and vertex v's operand 16
    net = SpinNetwork.from_spec(
        {"a": 2, "b": 2, "c": 0, "l": 3}, [("v", ("c", "l", "l")), ("w", ("a", "b", "c"))]
    )
    monkeypatch.setattr(hilbert, "_MAX_ENTRIES", 15)
    with pytest.raises(TooLarge, match="tensor of vertex v"):
        born_join_distribution(net, End("a", 1), End("b", 1))
    assert len(fresh_cache) == 0


def test_born_answers_the_open_corpus_as_before(open_nets):
    # a digest of the distribution on every pair of free ends of the open
    # corpus, taken before vertex operands were cached and channel weights
    # kept in integers; no pair passes the size bound
    answers = []
    for net, end_a, end_b in free_end_pairs(open_nets):
        try:
            entries = born_join_distribution(net, end_a, end_b).entries
            answer = " ".join(f"{c}={p}" for c, p in entries.items())
        except NullState:
            answer = "null"
        answers.append(f"{end_a.edge}:{end_a.side} {end_b.edge}:{end_b.side} {answer}")
    assert len(answers) == 1307
    assert sum(a.endswith("null") for a in answers) == 193
    h = hashlib.sha256()
    for answer in answers:
        h.update(answer.encode() + b"\n")
    assert h.hexdigest() == "2781b30fe367dbbf877a7b3f2e6ad4b5f92addd214a5c8f0f505f782cd23a734"


def test_a_linear_map_with_every_operand_kind_is_as_before(open_nets, fresh_cache):
    """Corpus network 148 has a self-loop, internal edges and free ends
    read from either side: its map from e2:0 and j1:1 to u1:1 and j3:1,
    cold and warm, has the entries it had before operands were cached."""
    net = open_nets[148]
    ends = list(net.free_ends)
    assert ends == [End("e2", 0), End("j1", 1), End("u1", 1), End("j3", 1)]

    def root(q):
        return Radical.sqrt(abs(q)) * Radical(1 if q > 0 else -1)

    want = {
        (2, 0): root(F(-1, 80)), (3, 1): root(F(-3, 160)), (5, 0): root(F(1, 60)),
        (6, 1): root(F(1, 480)), (7, 2): root(F(-1, 80)), (8, 0): root(F(-1, 80)),
        (9, 1): root(F(1, 480)), (10, 2): root(F(1, 60)), (12, 1): root(F(-3, 160)),
        (13, 2): root(F(-1, 80)),
    }
    for _run in ("cold", "warm"):
        rep = network_to_linear_map(net, ends[:2], ends[2:])
        assert (rep.in_labels, rep.out_labels, rep.matrix.shape) == ((2, 0), (3, 3), (16, 3))
        got = {(r, c): x for (r, c), x in np.ndenumerate(rep.matrix) if not x.is_zero()}
        assert got == want


def _dodecahedron():
    return cycle_labelled_net(random.Random(1), nx.dodecahedral_graph())


def test_greedy_order_keeps_every_step_small(monkeypatch):
    """On the cycle-labelled dodecahedron the size-greedy order's largest
    step has 972 entries; taking the first tensor that shares an axis
    needs 419,904, and the one sharing the most axes 5,760.  Each step is
    checked against the bound before it is allocated."""
    net = _dodecahedron()
    want = _contract_network(net)
    monkeypatch.setattr(hilbert, "_MAX_ENTRIES", 972)
    got = _contract_network(net)
    assert (got[0].tolist(), got[1:]) == (want[0].tolist(), want[1:])
    monkeypatch.setattr(hilbert, "_MAX_ENTRIES", 971)
    with pytest.raises(TooLarge, match="contraction step"):
        _contract_network(net)


def test_born_refuses_a_state_above_the_bound(fresh_cache):
    """Four bare label-200 edges make a state of 201^8 entries: refused
    before any tensor is built."""
    net = SpinNetwork.from_spec({f"e{i}": 200 for i in range(4)})
    with pytest.raises(TooLarge, match="network state"):
        born_join_distribution(net, End("e0", 0), End("e1", 0))
    assert len(fresh_cache) == 0
    with pytest.raises(TooLarge):
        network_to_linear_map(net, [End("e0", 0)], [e for e in net.free_ends if e != End("e0", 0)])


# -- the Born-path contraction against the evaluator on closed networks -------


def _contraction_identity_holds(net):
    """value^2 = scale * B^2 * prod_v |theta(a_v, b_v, c_v)|, exactly: the
    contraction is the standard-basis network of 3j tensors, each of which
    is the evaluator's vertex normalised by its theta."""
    state, _, scales = _contract_network(net)
    scale = math.prod(scales, start=F(1))
    thetas = math.prod(
        abs(theta_value(*(net.label(end) for end in v.ends))) for v in net.vertices
    )
    return evaluate_closed(net) ** 2 == scale * state[()] ** 2 * thetas


def _planar_closed_nets():
    rng = random.Random(23)
    nets = [_dodecahedron()]
    for rungs in range(3, 9):
        for extra in (0, 1, 2):
            nets.append(cycle_labelled_net(rng, nx.circular_ladder_graph(rungs), extra))
    for n in (6, 8, 10, 12, 14):
        found = 0
        while found < 3:
            graph = random_cubic_graph(rng, n)
            if nx.check_planarity(graph)[0]:
                nets.append(cycle_labelled_net(rng, graph, found % 2))
                found += 1
    return nets


def test_evaluator_equals_contraction_on_planar_closed_nets():
    nets = _planar_closed_nets()
    assert len(nets) == 34
    for net in nets:
        assert _contraction_identity_holds(net)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: evaluate_closed is wrong on nonplanar networks",
)
def test_evaluator_equals_contraction_on_k33():
    net = cycle_labelled_net(random.Random(1), nx.complete_bipartite_graph(3, 3))
    assert _contraction_identity_holds(net)
