"""Postselected singlet/triplet dynamics: projector algebra and the search."""

from __future__ import annotations

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinnet import dynamics
from spinnet.dynamics import (
    SINGLET,
    TRIPLET,
    MeasurementSequence,
    PairProjector,
    SearchReport,
    _map_fidelities,
    _pair_projectors,
    _serial_best,
    _sigma_max,
    apply_postselected,
    approximate_unitary_search,
    default_ancilla_state,
    pair_projector,
    sequence_channel,
)
from spinnet.errors import (
    BadIndices,
    BudgetExceeded,
    MalformedArguments,
    OutOfRange,
    TooLarge,
    ZeroProbability,
)
from spinnet.hilbert import StateVector
from spinnet.radical import Radical

UP = np.array([1, 0], dtype=np.complex128)
DOWN = np.array([0, 1], dtype=np.complex128)
PLUS = np.array([1, 1], dtype=np.complex128) / math.sqrt(2)
SINGLET_VEC = np.array([0, 1, -1, 0], dtype=np.complex128) / math.sqrt(2)
X_GATE = np.array([[0, 1], [1, 0]], dtype=np.complex128)
H_GATE = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
T_GATE = np.diag([1, np.exp(1j * math.pi / 4)])

# Established by the exhaustive runs below and frozen; see the search tests.
X_PLUS_UP_FIDELITY = 0.535236766545937


def qubit_state(*amps: np.ndarray) -> StateVector:
    vec = np.array([1.0 + 0j])
    for a in amps:
        vec = np.kron(vec, a)
    return StateVector((1,) * len(amps), vec)


def eye_permutation_projector(n_qubits, i, j, channel):
    """A pair projector built one at a time, as (1 -+ SWAP)/2 with SWAP a
    row permutation of the identity: the reference for the package's
    stacked builder."""
    dim = 1 << n_qubits
    shift_i, shift_j = n_qubits - 1 - i, n_qubits - 1 - j
    x = np.arange(dim)
    differ = ((x >> shift_i) ^ (x >> shift_j)) & 1
    swap = np.eye(dim)[x ^ (differ << shift_i) ^ (differ << shift_j)]
    eye = np.eye(dim)
    return (eye - swap if channel is SINGLET else eye + swap) / 2


def kron_singlet_product(ancillas):
    """The default ancilla amplitudes by repeated np.kron."""
    vec = np.array([1.0 + 0j])
    for _ in range(ancillas // 2):
        vec = np.kron(vec, SINGLET_VEC)
    if ancillas % 2:
        vec = np.kron(vec, UP)
    return vec


# -- projector algebra --------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pair_projector_algebra_is_exact(n):
    eye = np.eye(1 << n, dtype=int).astype(object)
    for i, j in itertools.combinations(range(n), 2):
        sing = pair_projector(n, i, j, SINGLET).rep.matrix
        trip = pair_projector(n, i, j, TRIPLET).rep.matrix
        assert ((sing @ sing) == sing).all()
        assert ((trip @ trip) == trip).all()
        assert ((sing @ trip) == 0).all()
        assert ((sing + trip) == eye).all()
        assert sum(sing[d, d] for d in range(1 << n)) == 1 << (n - 2)
        assert sum(trip[d, d] for d in range(1 << n)) == 3 << (n - 2)


def test_dynamics_builds_no_radicals(no_radicals):
    # Projector entries are dyadic, so the exact side stays in Fraction.
    steps = (pair_projector(3, 0, 1, SINGLET), pair_projector(3, 1, 2, TRIPLET))
    for rep in (steps[0].rep, sequence_channel(MeasurementSequence(steps)),
                sequence_channel(MeasurementSequence(()), in_dims=(2, 2))):
        assert all(type(x) is Fraction for x in rep.matrix.flat)
    anc = StateVector((1, 1), np.kron(PLUS, UP))
    report = approximate_unitary_search(X_GATE, 2, max_len=2, ancilla_state=anc)
    assert report.best_sequence.steps  # the report built its projectors too


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_float_projectors_equal_exact_ones_bit_for_bit(n):
    for i, j in itertools.combinations(range(n), 2):
        for channel in (SINGLET, TRIPLET):
            floats = eye_permutation_projector(n, i, j, channel).astype(np.complex128)
            exact = pair_projector(n, i, j, channel).rep.to_complex()
            assert floats.tobytes() == exact.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_stacked_projectors_equal_the_eye_permutation_construction(n):
    pairs = list(itertools.combinations(range(n), 2))
    stack = _pair_projectors(n, pairs)
    assert stack.shape == (len(pairs), 2, 1 << n, 1 << n) and stack.dtype == np.float64
    assert stack.flags.c_contiguous
    for p, (i, j) in enumerate(pairs):
        for c, channel in enumerate((SINGLET, TRIPLET)):
            want = eye_permutation_projector(n, i, j, channel)
            assert stack[p, c].tobytes() == want.tobytes()
            assert pair_projector(n, i, j, channel).matrix.tobytes() == want.tobytes()
    if n == 1:
        assert stack.size == 0  # one qubit has no pairs


def test_pair_projector_embeds_by_kron_on_adjacent_pairs():
    four = pair_projector(2, 0, 1, SINGLET).rep.to_complex()
    low = pair_projector(3, 1, 2, SINGLET).rep.to_complex()
    high = pair_projector(3, 0, 1, SINGLET).rep.to_complex()
    assert np.allclose(low, np.kron(np.eye(2), four), atol=1e-12)
    assert np.allclose(high, np.kron(four, np.eye(2)), atol=1e-12)


def test_pair_projector_rejects_bad_indices():
    with pytest.raises(BadIndices):
        pair_projector(2, 1, 1, SINGLET)
    with pytest.raises(BadIndices):
        pair_projector(3, 2, 1, TRIPLET)
    with pytest.raises(BadIndices):
        pair_projector(2, 0, 2, SINGLET)
    with pytest.raises(BadIndices):
        pair_projector(2, -1, 0, SINGLET)
    # a projector built directly is checked as well
    for pair in ((1, 1), (2, 1), (0, 3), (0,), [0, 1]):
        with pytest.raises(BadIndices):
            PairProjector(pair, SINGLET, 3)
    assert PairProjector((0, 2), SINGLET, 3) == pair_projector(3, 0, 2, SINGLET)


@pytest.mark.parametrize("channel", ["singlet", "triplet", None, 0])
def test_a_pair_projector_refuses_a_channel_that_is_not_a_pair_channel(channel):
    # any such value would build the triplet projector, labelled as given
    with pytest.raises(MalformedArguments):
        pair_projector(2, 0, 1, channel)
    with pytest.raises(MalformedArguments):
        PairProjector((0, 1), channel, 2)


@pytest.mark.parametrize("n_qubits, i, j", [
    (3.0, 0, 1), (3, 0.0, 1), (3, 0, 1.0), (True, 0, 1), (2, False, True), (np.int64(3), 0, 1),
])
def test_a_pair_projector_refuses_an_index_that_is_not_an_int(n_qubits, i, j):
    # refused when built, not at the first .matrix
    with pytest.raises(BadIndices):
        pair_projector(n_qubits, i, j, SINGLET)
    with pytest.raises(BadIndices):
        PairProjector((i, j), SINGLET, n_qubits)


def test_a_pair_projector_past_the_qubit_bound_is_too_large(monkeypatch):
    # refused when built, before any dense 2^n x 2^n matrix exists: at
    # n = 16 the matrices would take about 96 GB
    n = dynamics.MAX_QUBITS
    assert pair_projector(n, 0, n - 1, SINGLET).matrix.shape == (1 << n, 1 << n)

    def forbidden(*_args):
        raise AssertionError("no matrix may be built past the bound")

    monkeypatch.setattr(dynamics, "_pair_projectors", forbidden)
    with pytest.raises(TooLarge, match="qubits"):
        pair_projector(16, 0, 1, SINGLET)
    with pytest.raises(TooLarge, match="qubits"):
        PairProjector((0, 1), TRIPLET, n + 1)


def test_a_pair_projector_is_a_value():
    p, q = pair_projector(2, 0, 1, SINGLET), pair_projector(2, 0, 1, SINGLET)
    assert p == q and hash(p) == hash(q)
    assert p != pair_projector(2, 0, 1, TRIPLET)
    assert (p.pair, p.channel, p.n_qubits) == ((0, 1), SINGLET, 2)
    assert MeasurementSequence((p,), 1) == MeasurementSequence((q,), 1)
    assert hash(MeasurementSequence((p,), 1)) == hash(MeasurementSequence((q,), 1))


def test_a_pair_projector_derives_a_read_only_float_matrix_once():
    p = pair_projector(3, 0, 2, TRIPLET)
    assert p.matrix is p.matrix and p.rep is p.rep
    assert p.matrix.dtype == np.float64
    assert p.matrix.tobytes() == eye_permutation_projector(3, 0, 2, TRIPLET).tobytes()
    with pytest.raises(ValueError):
        p.matrix[0, 0] = 2.0


def test_search_reports_compare_as_values():
    anc = StateVector((1, 1), np.kron(PLUS, UP))
    report = approximate_unitary_search(X_GATE, 2, max_len=2, ancilla_state=anc)
    assert report.best_sequence.steps  # a report with steps
    assert report == approximate_unitary_search(X_GATE, 2, max_len=2, ancilla_state=anc)
    hash(report.best_sequence)


def test_states_and_exact_maps_compare_by_identity():
    # they hold numpy arrays, whose == is elementwise, so equality is identity
    rep = pair_projector(2, 0, 1, SINGLET).rep
    other = pair_projector(2, 0, 1, SINGLET).rep
    state = qubit_state(UP, DOWN)
    for x, y in ((rep, other), (state, qubit_state(UP, DOWN))):
        assert x == x and x != y
        assert hash(x) == hash(x)


def test_measurement_sequence_rejects_mixed_registers():
    two = pair_projector(2, 0, 1, SINGLET)
    three = pair_projector(3, 0, 1, SINGLET)
    with pytest.raises(BadIndices):
        MeasurementSequence((two, three))
    with pytest.raises(BadIndices):
        MeasurementSequence((two,), ancilla_count=2)
    assert MeasurementSequence((three,), ancilla_count=2).steps == (three,)


@pytest.mark.parametrize("ancilla_count", [-1, 1.5, True, None, "1"])
def test_measurement_sequence_refuses_an_ancilla_count_that_is_not_an_int_at_least_0(ancilla_count):
    with pytest.raises(OutOfRange):
        MeasurementSequence((pair_projector(3, 0, 1, SINGLET),), ancilla_count=ancilla_count)
    with pytest.raises(OutOfRange):
        MeasurementSequence((), ancilla_count=ancilla_count)


# -- postselection ------------------------------------------------------------


def test_postselect_singlet_fixes_singlet():
    state = StateVector((1, 1), SINGLET_VEC)
    out, prob = apply_postselected(state, pair_projector(2, 0, 1, SINGLET))
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out.amplitudes, SINGLET_VEC, atol=1e-12)


def test_postselect_singlet_on_aligned_pair_is_impossible():
    with pytest.raises(ZeroProbability):
        apply_postselected(qubit_state(UP, UP), pair_projector(2, 0, 1, SINGLET))


def test_postselect_singlet_on_up_down_has_prob_half():
    out, prob = apply_postselected(
        qubit_state(UP, DOWN), pair_projector(2, 0, 1, SINGLET)
    )
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert out.norm == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out.amplitudes, SINGLET_VEC, atol=1e-12)


def test_postselect_triplet_keeps_aligned_pair():
    out, prob = apply_postselected(
        qubit_state(UP, UP), pair_projector(2, 0, 1, TRIPLET)
    )
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out.amplitudes, qubit_state(UP, UP).amplitudes, atol=1e-12)


def test_postselect_rejects_register_mismatch():
    with pytest.raises(MalformedArguments):
        apply_postselected(qubit_state(UP, UP, UP), pair_projector(2, 0, 1, SINGLET))


@given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=8, max_size=8))
def test_channel_probabilities_are_complete(raw):
    vec = np.array(raw[:4]) + 1j * np.array(raw[4:])
    norm = np.linalg.norm(vec)
    if norm < 1e-3:
        return
    vec = vec / norm
    probs = []
    for channel in (SINGLET, TRIPLET):
        projected = pair_projector(2, 0, 1, channel).rep.to_complex() @ vec
        probs.append(float(np.vdot(projected, projected).real))
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
    assert all(-1e-12 <= p <= 1 + 1e-12 for p in probs)


# -- sequence composition -----------------------------------------------------


def test_empty_sequence_needs_dims_and_gives_identity():
    seq = MeasurementSequence(())
    with pytest.raises(MalformedArguments):
        sequence_channel(seq)
    rep = sequence_channel(seq, in_dims=(2, 2))
    assert np.allclose(rep.to_complex(), np.eye(4), atol=1e-12)
    with pytest.raises(MalformedArguments):
        sequence_channel(MeasurementSequence((pair_projector(2, 0, 1, SINGLET),)),
                         in_dims=(2, 2, 2))


@pytest.mark.parametrize("in_dims", [(3,), (2, 3), (1, 2), (4,)])
def test_empty_sequence_refuses_non_qubit_dims(in_dims):
    with pytest.raises(MalformedArguments):
        sequence_channel(MeasurementSequence(()), in_dims=in_dims)


def test_single_step_sequence_is_that_projector():
    proj = pair_projector(3, 0, 2, TRIPLET)
    rep = sequence_channel(MeasurementSequence((proj,)))
    assert (rep.matrix == proj.rep.matrix).all()


@pytest.mark.parametrize(
    "ops",
    [
        [(0, 1, SINGLET), (1, 2, TRIPLET)],
        [(0, 1, TRIPLET), (0, 2, TRIPLET), (1, 2, SINGLET)],
        [(0, 2, SINGLET), (0, 1, SINGLET), (0, 2, SINGLET)],
    ],
)
def test_sequence_channel_matches_postselection_fold(ops):
    steps = tuple(pair_projector(3, i, j, ch) for i, j, ch in ops)
    mat = sequence_channel(MeasurementSequence(steps)).to_complex()
    assert np.linalg.svd(mat, compute_uv=False)[0] <= 1 + 1e-12
    for col in range(8):
        basis = np.zeros(8, dtype=np.complex128)
        basis[col] = 1.0
        state, scale = StateVector((1, 1, 1), basis), 1.0
        dead = False
        try:
            for step in steps:
                state, prob = apply_postselected(state, step)
                scale *= math.sqrt(prob)
        except ZeroProbability:
            dead = True
        if dead:
            assert np.linalg.norm(mat[:, col]) < 1e-10
        else:
            assert np.allclose(mat[:, col], scale * state.amplitudes, atol=1e-10)


# -- ancilla symmetry -----------------------------------------------------------

# Every pair projector is (I +- SWAP)/2, so a sequence M commutes with U^(x)n
# for every U in SU(2), and the map A = E^H M E it induces on the system
# through an ancilla state commutes with every rotation that fixes that state
# up to a phase (ROADMAP item 17).  Ancilla states as unnormalised integer
# vectors:
_SINGLET = (0, 1, -1, 0)
_UP = (1, 0)
_PLUS = (1, 1)


def _kron(*states):
    out = (1,)
    for state in states:
        out = tuple(x * y for x in out for y in state)
    return out


def _commutes_with_z(a):
    return a[0][1] == a[1][0] == 0


def _commutes_with_x(a):
    return a[0][0] == a[1][1] and a[0][1] == a[1][0]


# (ancilla state, the laws its map obeys): a singlet defines no direction,
# so its map commutes with Z and X and is a multiple of I; up defines the z
# axis, plus the x axis.  Plus with up fixes no rotation, so no law.
_ANCILLAS = {
    "singlet": (_SINGLET, (_commutes_with_z, _commutes_with_x)),
    "singlet, up": (_kron(_SINGLET, _UP), (_commutes_with_z,)),
    "up, up": (_kron(_UP, _UP), (_commutes_with_z,)),
    "plus, plus": (_kron(_PLUS, _PLUS), (_commutes_with_x,)),
}
_PAIR_PROJECTORS = {
    n: [pair_projector(n, i, j, ch) for i, j in itertools.combinations(range(n), 2) for ch in (SINGLET, TRIPLET)]
    for n in (3, 4)
}


@pytest.mark.parametrize("ancilla", sorted(_ANCILLAS))
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_an_ancilla_that_defines_no_direction_cannot_rotate(ancilla, data):
    # A[s, t] = sum anc[x] M[(s, x), (t, y)] anc[y] in exact Fractions, the
    # system qubit the most significant
    anc, laws = _ANCILLAS[ancilla]
    k = len(anc)
    steps = data.draw(st.lists(st.sampled_from(_PAIR_PROJECTORS[k.bit_length()]), min_size=1, max_size=6))
    m = sequence_channel(MeasurementSequence(tuple(steps))).matrix
    a = [
        [sum(anc[x] * m[s * k + x, t * k + y] * anc[y] for x in range(k) for y in range(k)) for t in (0, 1)]
        for s in (0, 1)
    ]
    for law in laws:
        assert law(a), (law.__name__, a)


# -- the search ---------------------------------------------------------------


def test_default_ancilla_state_is_singlet_product():
    assert np.allclose(default_ancilla_state(0).amplitudes, [1.0])
    assert np.allclose(default_ancilla_state(2).amplitudes, SINGLET_VEC, atol=1e-15)
    three = default_ancilla_state(3)
    assert three.labels == (1, 1, 1)
    assert np.allclose(three.amplitudes, np.kron(SINGLET_VEC, UP), atol=1e-15)
    assert three.norm == pytest.approx(1.0, abs=1e-12)
    for ancillas in range(7):
        state = default_ancilla_state(ancillas)
        assert state.amplitudes.tobytes() == kron_singlet_product(ancillas).tobytes()


@pytest.mark.parametrize("ancillas", [True, False, -1, 2.0, "2", None, np.int64(2)])
def test_default_ancilla_state_refuses_a_count_that_is_not_an_int_at_least_0(ancillas):
    # refused as the search refuses them: True would build one qubit, -1 a
    # state of the wrong size, and 2.0 would fail only inside numpy
    with pytest.raises(OutOfRange):
        default_ancilla_state(ancillas)


@pytest.mark.parametrize("ancillas", [0, 1, 2])
def test_search_identity_needs_no_steps(ancillas):
    report = approximate_unitary_search(np.eye(2), ancillas, max_len=2)
    assert report.fidelity == pytest.approx(1.0, abs=1e-12)
    assert report.best_sequence.steps == ()
    assert report.success_prob == pytest.approx(1.0, abs=1e-12)


def test_search_success_probability_is_at_most_one():
    # the default search (x, two singlet ancillas, length 4) keeps the empty
    # sequence, which succeeds with probability exactly 1; the float norm of
    # its lift rounds to 1.0000000000000002 unless bounded
    report = approximate_unitary_search(np.array([[0, 1], [1, 0]]), 2, 4)
    assert report.best_sequence.steps == ()
    assert report.success_prob == 1.0


def test_search_with_zero_length_reports_identity_fidelity():
    t_gate = np.diag([1, np.exp(1j * math.pi / 4)])
    report = approximate_unitary_search(t_gate, 0, max_len=0)
    assert report.best_sequence.steps == ()
    assert report.fidelity == pytest.approx(math.cos(math.pi / 8), abs=1e-12)
    assert report.best_by_length == (report.fidelity,)


def test_search_x_with_invariant_ancillas_is_stuck_at_zero():
    # Both singlet/triplet projectors commute with global rotations and
    # conserve total spin-z, so with a rotationally invariant ancilla the
    # induced single-qubit map is proportional to the identity and the X
    # fidelity |tr(X A)| / (2 sigma_max) is exactly 0 at every length.
    report = approximate_unitary_search(X_GATE, 2, max_len=4)
    assert report.fidelity == 0.0
    assert report.best_by_length == (0.0,) * 5
    assert report.best_sequence.steps == ()


def test_search_x_with_symmetry_breaking_ancilla_frozen_value():
    anc = StateVector((1, 1), np.kron(PLUS, UP))
    report = approximate_unitary_search(X_GATE, 2, max_len=4, ancilla_state=anc)
    assert report.fidelity == pytest.approx(X_PLUS_UP_FIDELITY, abs=1e-12)
    assert report.success_prob == pytest.approx(0.140625, abs=1e-12)
    shape = tuple((p.pair, p.channel) for p in report.best_sequence.steps)
    assert shape == (((0, 2), TRIPLET), ((0, 1), SINGLET), ((1, 2), TRIPLET))
    assert report.best_by_length == pytest.approx(
        (0.0, 0.5, 0.5, X_PLUS_UP_FIDELITY, X_PLUS_UP_FIDELITY), abs=1e-12
    )
    assert all(
        a <= b + 1e-15
        for a, b in zip(report.best_by_length, report.best_by_length[1:])
    )


def test_search_fidelity_monotone_in_ancilla_count():
    plus_states = {
        0: None,
        1: StateVector((1,), PLUS),
        2: StateVector((1, 1), np.kron(PLUS, PLUS)),
    }
    fids = [
        approximate_unitary_search(
            X_GATE, a, max_len=2, ancilla_state=state
        ).fidelity
        for a, state in plus_states.items()
    ]
    assert fids[0] == pytest.approx(0.0, abs=1e-12)
    assert fids[1] == pytest.approx(0.5, abs=1e-12)
    assert fids[2] == pytest.approx(0.5, abs=1e-12)
    assert fids[0] <= fids[1] + 1e-12 <= fids[2] + 2e-12


def test_search_beam_agrees_with_exhaustive_when_wide():
    anc = StateVector((1, 1), np.kron(PLUS, UP))
    full = approximate_unitary_search(X_GATE, 2, max_len=3, ancilla_state=anc)
    wide = approximate_unitary_search(
        X_GATE, 2, max_len=3, ancilla_state=anc, beam_width=200
    )
    narrow = approximate_unitary_search(
        X_GATE, 2, max_len=3, ancilla_state=anc, beam_width=1
    )
    assert wide.fidelity == pytest.approx(full.fidelity, abs=1e-12)
    assert narrow.fidelity <= full.fidelity + 1e-12


@pytest.mark.parametrize("node_budget", [0, -5])
def test_search_rejects_node_budget_below_one(node_budget):
    # The budget counts the root, so no search fits in less than 1 node.
    with pytest.raises(OutOfRange):
        approximate_unitary_search(X_GATE, 2, 0, node_budget=node_budget)
    assert approximate_unitary_search(X_GATE, 2, 0, node_budget=1).best_by_length == (0.0,)


def test_search_budget_is_enforced():
    with pytest.raises(BudgetExceeded):
        approximate_unitary_search(X_GATE, 2, max_len=2, node_budget=5)
    # 3 qubits have 6 projectors: 1 root + 6 children + 6 * 5 grandchildren.
    approximate_unitary_search(X_GATE, 2, max_len=2, node_budget=37)
    with pytest.raises(BudgetExceeded):
        approximate_unitary_search(X_GATE, 2, max_len=2, node_budget=36)


def naive_search(target, ancilla_state, max_len, beam_width=None):
    """The search one node at a time, on full projector products."""
    k = target.shape[0].bit_length() - 1
    n = k + len(ancilla_state.labels)
    embed = np.kron(np.eye(1 << k), ancilla_state.amplitudes[:, None])
    ops = [(i, j, ch) for i, j in itertools.combinations(range(n), 2) for ch in (SINGLET, TRIPLET)]
    mats = {op: pair_projector(n, *op).rep.to_complex() for op in ops}

    def fidelity(m):
        induced = embed.conj().T @ m @ embed
        top = np.linalg.svd(induced, compute_uv=False)[0]
        return 0.0 if top < 1e-300 else abs(np.trace(target.conj().T @ induced)) / ((1 << k) * top)

    frontier = [(fidelity(np.eye(1 << n)), (), np.eye(1 << n))]
    best_by_length = [frontier[0][0]]
    for _ in range(max_len):
        grown = []
        for _fid, seq, m in frontier:
            for op in ops:
                if not seq or seq[-1] != op:
                    child = mats[op] @ m
                    grown.append((fidelity(child), seq + (op,), child))
        best_by_length.append(max([best_by_length[-1]] + [fid for fid, _, _ in grown]))
        if beam_width is not None:
            grown.sort(key=lambda g: (-g[0], [(i, j, ch.value) for i, j, ch in g[1]]))
            grown = grown[:beam_width]
        frontier = grown
    return best_by_length


def traceless_unitary(rng, dim):
    """A random unitary with eigenvalues the dim-th roots of unity.

    A step on ancillas alone leaves the induced map proportional to the
    identity, so every sequence of such steps scores |tr U| / dim: distinct
    maps tie, and rounding picks which of them a beam keeps.  A traceless
    target puts that tie at 0, below every beam cut used here.
    """
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q @ np.diag(np.exp(2j * np.pi * np.arange(dim) / dim)) @ q.conj().T


def random_state(rng, qubits, real=False):
    vec = rng.normal(size=1 << qubits) + 0j
    if not real:
        vec += 1j * rng.normal(size=1 << qubits)
    return StateVector((1,) * qubits, vec / np.linalg.norm(vec))


NAIVE_CASES = (
    [(1, a, None, 3) for a in (1, 2, 3)]
    + [(1, a, w, 5) for a in (1, 2, 3) for w in (4, 16)]
    + [(1, a, 64, 4) for a in (1, 2, 3)]
    + [(2, 1, None, 3), (2, 2, 16, 3)]
)


def check_against_naive_search(system, ancillas, beam_width, max_len, real):
    rng = np.random.default_rng(1000 * system + 100 * ancillas + (beam_width or 0))
    target = traceless_unitary(rng, 1 << system)
    anc = random_state(rng, ancillas, real)
    report = approximate_unitary_search(
        target, ancillas, max_len, ancilla_state=anc, beam_width=beam_width
    )
    expected = naive_search(target, anc, max_len, beam_width)
    assert report.best_by_length == pytest.approx(expected, abs=1e-12)
    assert report.fidelity == pytest.approx(expected[-1], abs=1e-12)
    # The reported success belongs to the reported sequence.
    channel = sequence_channel(report.best_sequence, in_dims=(2,) * (system + ancillas))
    lift = channel.to_complex() @ np.kron(np.eye(1 << system), anc.amplitudes[:, None])
    assert report.success_prob == pytest.approx(
        np.sum(np.abs(lift) ** 2) / (1 << system), abs=1e-12
    )


@pytest.mark.parametrize("system, ancillas, beam_width, max_len", NAIVE_CASES)
def test_batched_search_matches_naive_search(system, ancillas, beam_width, max_len):
    check_against_naive_search(system, ancillas, beam_width, max_len, real=False)


@pytest.mark.parametrize("system, ancillas, beam_width, max_len", NAIVE_CASES)
def test_batched_real_search_matches_naive_search(system, ancillas, beam_width, max_len):
    # A real ancilla state runs the search in float64; the naive search is
    # complex128 either way.
    check_against_naive_search(system, ancillas, beam_width, max_len, real=True)


def whole_level_search(target, ancillas, max_len, ancilla_state=None, beam_width=None):
    """The search as it scored a whole level at once, kept as the reference.

    One stacked matmul makes every child of a level, a boolean mask drops
    consecutive repeats, and the masked copy of every child's lift is
    scored in one call.  It builds what it runs on its own: each projector
    from a permuted identity, the embedding and the default singlets by
    np.kron, and the beam by a lexsort over whole sequences.  Inputs are
    taken to be valid.
    """
    k = target.shape[0].bit_length() - 1
    n = k + ancillas
    if ancilla_state is None:
        ancilla_state = StateVector((1,) * ancillas, kron_singlet_product(ancillas))
    anc = np.asarray(ancilla_state.amplitudes, dtype=np.complex128) / ancilla_state.norm
    if not anc.imag.any():
        anc = anc.real
    embed = np.kron(np.eye(1 << k), anc[:, None])
    embed_h = embed.conj().T
    ops = [(i, j, ch) for i, j in itertools.combinations(range(n), 2) for ch in (SINGLET, TRIPLET)]
    mats = np.array(
        [eye_permutation_projector(n, i, j, ch) for i, j, ch in ops], dtype=embed.dtype
    ).reshape(len(ops), 1 << n, 1 << n)

    def score(lifts):
        return _map_fidelities(target, embed_h @ lifts)

    lifts = embed[None]
    seqs = np.zeros((1, 0), dtype=np.intp)
    last = np.array([-1])
    best_fid = float(score(lifts)[0])
    best_seq, best_lift = seqs[0], embed
    best_by_length = [best_fid]
    for _level in range(max_len):
        keep = np.arange(len(ops))[None, :] != last[:, None]
        parent, last = np.nonzero(keep)
        lifts = np.matmul(mats[None], lifts[:, None]).reshape(-1, *embed.shape)[keep.ravel()]
        seqs = np.column_stack((seqs[parent], last))
        fids = score(lifts)
        child, best_fid = _serial_best(fids, best_fid)
        if child >= 0:
            best_seq, best_lift = seqs[child], lifts[child].copy()
        if beam_width is not None:
            order = np.lexsort((*seqs.T[::-1], -fids))[:beam_width]
            lifts, last, seqs = lifts[order], last[order], seqs[order]
        best_by_length.append(best_fid)
        if not len(seqs):
            break

    steps = tuple(pair_projector(n, *ops[o]) for o in best_seq.tolist())
    return SearchReport(
        MeasurementSequence(steps, ancilla_count=ancillas),
        best_fid,
        min(1.0, float(np.sum(np.abs(best_lift) ** 2)) / (1 << k)),
        tuple(best_by_length),
    )


def exactness_cases():
    """(id, target, ancillas, max_len, ancilla state, beam width) for the reference."""
    cases = []
    for system, ancillas, beam_width, max_len in NAIVE_CASES:
        for real in (False, True):
            rng = np.random.default_rng(1000 * system + 100 * ancillas + (beam_width or 0))
            target = traceless_unitary(rng, 1 << system)
            anc = random_state(rng, ancillas, real)
            name = f"k{system}-a{ancillas}-w{beam_width}-L{max_len}-{'real' if real else 'complex'}"
            cases.append((name, target, ancillas, max_len, anc, beam_width))
    # The benchmark's dynamics-search requests: x, h and t in turn, default ancillas.
    pool = []
    for ancillas in (2, 3):
        exhaustive = (2, 3, 4) if ancillas == 2 else (1, 2, 3, 4)
        pool += [(ancillas, m, None) for m in exhaustive] + [(ancillas, m, 64) for m in (5, 6, 7, 8)]
    for index, (ancillas, max_len, beam) in enumerate(pool):
        name = "xht"[index % 3]
        target = {"x": X_GATE, "h": H_GATE, "t": T_GATE}[name]
        cases.append((f"{name}-a{ancillas}-w{beam}-L{max_len}", target, ancillas, max_len, None, beam))
    cnot = np.eye(4, dtype=np.complex128)[[0, 1, 3, 2]]
    cases.append(("cnot-a2-L2", cnot, 2, 2, None, None))
    # One qubit and no ancillas: no projectors, so the search stops after a level.
    cases.append(("t-a0-L3", T_GATE, 0, 3, None, None))
    cases.append(("h-a0-w4-L2", H_GATE, 0, 2, None, 4))
    return cases


EXACTNESS_CASES = exactness_cases()


@pytest.mark.parametrize("one_parent", [False, True], ids=["default-block", "one-parent"])
@pytest.mark.parametrize(
    "target, ancillas, max_len, anc, beam_width",
    [case[1:] for case in EXACTNESS_CASES],
    ids=[case[0] for case in EXACTNESS_CASES],
)
def test_blockwise_search_equals_whole_level_search(
    monkeypatch, target, ancillas, max_len, anc, beam_width, one_parent
):
    if one_parent:
        monkeypatch.setattr(dynamics, "_BLOCK_BYTES", 1)
    got = approximate_unitary_search(target, ancillas, max_len, anc, beam_width=beam_width)
    want = whole_level_search(target, ancillas, max_len, anc, beam_width)
    assert got.fidelity == want.fidelity
    assert got.success_prob == want.success_prob
    assert got.best_by_length == want.best_by_length
    assert got.best_sequence.ancilla_count == want.best_sequence.ancilla_count
    shape = [(p.pair, p.channel) for p in got.best_sequence.steps]
    assert shape == [(p.pair, p.channel) for p in want.best_sequence.steps]
    if ancillas == 0:
        assert len(got.best_by_length) == min(max_len, 1) + 1


def test_search_peak_memory_stays_small():
    # The benchmark's heaviest request: 17,568 children of 16 x 2 lifts.  A
    # level's children are made and scored in blocks, so no whole-level
    # array of them is built (about 9 MB when it was).
    approximate_unitary_search(H_GATE, 3, 4)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        approximate_unitary_search(H_GATE, 3, 4)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 3_000_000


def spy_dtypes(monkeypatch):
    """Record the dtype of every stack of induced maps the search scores."""
    seen = set()
    score = dynamics._map_fidelities

    def spy(target, induced):
        seen.add(induced.dtype)
        return score(target, induced)

    monkeypatch.setattr(dynamics, "_map_fidelities", spy)
    return seen


@pytest.mark.parametrize("ancillas, beam_width, max_len", [(2, None, 4), (3, 16, 6)])
def test_global_phase_takes_complex_path_with_same_answers(
    monkeypatch, ancillas, beam_width, max_len
):
    # The phase makes every amplitude complex but changes no induced map's
    # fidelity, so the complex128 path must agree with the float64 one.  A
    # generic real state keeps maps that are zero in exact arithmetic out of
    # the comparison: rounding decides how those score.
    rng = np.random.default_rng(5)
    target = traceless_unitary(rng, 2)
    real_anc = random_state(rng, ancillas, real=True)
    phased_anc = StateVector(real_anc.labels, real_anc.amplitudes * np.exp(1j * math.pi / 5))
    reports = {}
    for name, anc in (("real", real_anc), ("phased", phased_anc)):
        seen = spy_dtypes(monkeypatch)
        reports[name] = approximate_unitary_search(
            target, ancillas, max_len, ancilla_state=anc, beam_width=beam_width
        )
        assert seen == {np.dtype(np.float64) if name == "real" else np.dtype(np.complex128)}
    real, phased = reports["real"], reports["phased"]
    assert real.fidelity > 0.3  # the search found something
    assert phased.best_by_length == pytest.approx(real.best_by_length, abs=1e-12)
    assert phased.success_prob == pytest.approx(real.success_prob, abs=1e-12)


def test_named_ancilla_states_take_the_real_path(monkeypatch):
    seen = spy_dtypes(monkeypatch)
    approximate_unitary_search(X_GATE, 3, 2)
    approximate_unitary_search(X_GATE, 2, 2, ancilla_state=qubit_state(PLUS, UP))
    assert seen == {np.dtype(np.float64)}


def test_beam_breaks_exact_ties_by_sequence():
    # Here many sequences tie exactly, and which of them a beam of 3 keeps
    # decides the later lengths: the tie-break must match the naive search's.
    anc = qubit_state(UP, DOWN)
    report = approximate_unitary_search(H_GATE, 2, 4, ancilla_state=anc, beam_width=3)
    assert report.best_by_length == pytest.approx(naive_search(H_GATE, anc, 4, 3), abs=1e-12)


def test_zero_map_sequences_are_exactly_zero():
    # With singlet ancillas on qubits 1, 2, both orders of triplet(1, 2) and
    # singlet(0, 1) induce the zero map; triplet first even kills the lift.
    half = Radical.sqrt(Fraction(1, 2))
    embed = np.full((8, 2), Radical(0), dtype=object)
    for s in range(2):
        embed[4 * s + 1, s], embed[4 * s + 2, s] = half, -half
    trip, sing = pair_projector(3, 1, 2, TRIPLET), pair_projector(3, 0, 1, SINGLET)
    trip_first, sing_first = (
        sequence_channel(MeasurementSequence(steps, ancilla_count=2)).matrix @ embed
        for steps in ((trip, sing), (sing, trip))
    )
    assert (trip_first == Radical(0)).all()
    assert (embed.T @ sing_first == Radical(0)).all()
    assert not (sing_first == Radical(0)).all()


@pytest.mark.xfail(
    strict=True,
    reason="rounding leaves entries near 1e-17 in a zero induced map, and the "
    "1e-300 guard scores their direction; the h-target dynamics-search "
    "references freeze the resulting 0.7071",
)
def test_numerically_zero_induced_map_scores_zero():
    # With singlet ancillas every induced map is proportional to the identity
    # (see the X test above), so h, being traceless, has fidelity 0 at every
    # length; the zero maps above are scored by their rounding noise instead.
    report = approximate_unitary_search(H_GATE, 2, max_len=2)
    assert report.fidelity == 0.0


@pytest.mark.xfail(
    strict=True,
    reason="under the phase, a map that is zero in exact arithmetic keeps "
    "rounding noise, which the search scores (ROADMAP items 5 and 7)",
)
def test_ancilla_global_phase_leaves_the_search_unchanged():
    # 0.18631 for the real state, 0.68089 for the same state times e^(i pi/5)
    target = traceless_unitary(np.random.default_rng(5), 2)
    amps = np.kron(PLUS, SINGLET_VEC)
    state = StateVector((1, 1, 1), amps)
    phased = StateVector((1, 1, 1), amps * np.exp(1j * math.pi / 5))
    real = approximate_unitary_search(target, 3, max_len=2, ancilla_state=state)
    rotated = approximate_unitary_search(target, 3, max_len=2, ancilla_state=phased)
    assert rotated.fidelity == pytest.approx(real.fidelity, abs=1e-12)


def test_search_rejects_malformed_targets():
    with pytest.raises(MalformedArguments):
        approximate_unitary_search(np.ones((2, 3)), 0, 1)
    with pytest.raises(MalformedArguments):
        approximate_unitary_search(np.eye(3), 0, 1)
    with pytest.raises(MalformedArguments):
        approximate_unitary_search(np.eye(1), 0, 1)
    with pytest.raises(MalformedArguments):
        approximate_unitary_search(np.array([[1, 1], [0, 1]]), 0, 1)
    with pytest.raises(MalformedArguments):
        approximate_unitary_search(
            X_GATE, 2, 1, ancilla_state=StateVector((1,), UP)
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_search_rejects_non_finite_targets(bad):
    # nan > 1e-9 is false, so a NaN target would pass the unitarity check.
    with pytest.raises(MalformedArguments):
        approximate_unitary_search(np.array([[bad, 0], [0, 1]]), 0, 1)


@pytest.mark.parametrize("amps", [np.zeros(4), np.array([np.nan, 0, 0, 1])])
def test_search_rejects_zero_or_non_finite_ancilla_states(amps):
    with pytest.raises(MalformedArguments):
        approximate_unitary_search(
            X_GATE, 2, 1, ancilla_state=StateVector((1, 1), amps.astype(complex))
        )


@pytest.mark.parametrize("beam_width", [0, -1])
def test_search_rejects_beam_width_below_one(beam_width):
    with pytest.raises(OutOfRange):
        approximate_unitary_search(X_GATE, 2, 3, beam_width=beam_width)


@pytest.mark.parametrize("name, value", [
    ("ancillas", True), ("ancillas", 1.0), ("ancillas", "2"),
    ("max_len", True), ("max_len", 2.0), ("max_len", None),
    ("beam_width", True), ("beam_width", 2.5), ("beam_width", 4.0),
    ("node_budget", True), ("node_budget", 100.0), ("node_budget", None),
])
def test_search_refuses_a_count_that_is_not_an_int(monkeypatch, name, value):
    # refused before any state or projector is built
    def no_work(*_args, **_kwargs):
        raise AssertionError("a refused search must not start")

    monkeypatch.setattr(dynamics, "default_ancilla_state", no_work)
    monkeypatch.setattr(dynamics, "pair_projector", no_work)
    args = {"ancillas": 2, "max_len": 2, "beam_width": None, "node_budget": 1000}
    args[name] = value
    with pytest.raises(OutOfRange):
        approximate_unitary_search(X_GATE, args.pop("ancillas"), args.pop("max_len"), **args)


def test_the_search_builds_its_ops_through_the_pair_projector_binding(monkeypatch):
    # the benchmark's trace times dynamics.projector by wrapping this binding
    calls = []
    build = dynamics.pair_projector

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(dynamics, "pair_projector", counted)
    approximate_unitary_search(H_GATE, 3, 2, beam_width=4)
    assert len(calls) == 4 * 3  # every pair of 4 qubits, both channels


def test_search_rejects_out_of_range_sizes():
    with pytest.raises(OutOfRange):
        approximate_unitary_search(X_GATE, -1, 1)
    with pytest.raises(OutOfRange):
        approximate_unitary_search(X_GATE, 0, -1)
    with pytest.raises(OutOfRange):
        approximate_unitary_search(X_GATE, 6, 1)


# -- the numerics of a level ---------------------------------------------------


def two_by_two_stacks(rng, dtype):
    """Random, rank-1, zero and near-unitary 2x2 matrices of one dtype."""
    def draw(*shape):
        out = rng.normal(size=shape)
        return out + 1j * rng.normal(size=shape) if dtype is complex else out

    rank1 = draw(50, 2, 1) @ draw(50, 1, 2)
    unitary = np.linalg.qr(draw(50, 2, 2))[0]
    near = unitary + 1e-9 * draw(50, 2, 2)
    stacks = [draw(200, 2, 2), rank1, np.zeros((3, 2, 2)), unitary, near]
    return np.concatenate(stacks).astype(dtype)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("scale", [1.0, 1e-17, 1e-200, 1e200])
def test_closed_form_sigma_max_equals_svd(dtype, scale):
    maps = two_by_two_stacks(np.random.default_rng(7), dtype) * scale
    got = _sigma_max(maps)
    assert got.dtype == np.float64 and got.shape == (len(maps),)
    expected = np.linalg.svd(maps, compute_uv=False)[:, 0]
    zero = expected == 0
    assert (got[zero] == 0).all() and zero.sum() == 3
    assert np.all(np.abs(got[~zero] - expected[~zero]) <= 1e-15 * expected[~zero])


def serial_scan(fids, best):
    taken = -1
    for child, fid in enumerate(fids):
        if fid > best + 1e-15:
            taken, best = child, fid
    return taken, best


@given(
    st.lists(st.integers(0, 12), max_size=40),
    st.integers(0, 12),
)
def test_serial_best_matches_the_scan(steps, start):
    # Values a few 1e-16 apart make steps that the 1e-15 margin skips.
    fids = np.array([0.5 + 2.5e-16 * s for s in steps])
    best = 0.5 + 2.5e-16 * start
    child, got = _serial_best(fids, best)
    want_child, want = serial_scan(fids.tolist(), best)
    assert (child, got) == (want_child, want)
