"""Core state/operator arithmetic against explicit index-loop oracles."""

import itertools
import math

import numpy as np
import pytest

from gmesim import qcore
from gmesim.qcore import (
    ATOL,
    DensityOperator,
    InvariantError,
    PartyDims,
    ProjectiveMeasurement,
    PureState,
    apply_local_unitary,
    basis_ket,
    bell_basis,
    bell_pair,
    contract_party,
    fidelity_pure,
    ghz_state,
    ket,
    level_group_measurement,
    measure,
    mix,
    partial_trace,
    permute_parties,
    purity,
    relabel_subspace,
    state_projector_measurement,
    _hermitian_part,
    tensor,
    to_pure,
)

from helpers import (
    bell_vec,
    eig_min_hermitian_part,
    ghz_vec,
    loop_embed,
    loop_partial_trace,
    random_density,
    random_pure,
    random_unit_trace_hermitian,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


class TestPartyDims:
    def test_properties(self):
        d = PartyDims((2, 3, 2))
        assert d.n == 3
        assert d.total == 12

    def test_rejects_trivial_party(self):
        with pytest.raises(ValueError):
            PartyDims((2, 1))

    def test_rejects_oversized_system(self):
        with pytest.raises(ValueError):
            PartyDims((2,) * 13)  # 8192 > the 4096 cap

    @pytest.mark.parametrize("dims", [(2.7, 2), (2.0, 2), ("3", 2), (True, 2), "23"])
    def test_rejects_dims_that_are_not_integers(self, dims):
        with pytest.raises(ValueError, match=r"^local dimensions must be integers, got "):
            PartyDims(dims)

    def test_ket_refuses_float_dims_instead_of_truncating(self):
        with pytest.raises(ValueError, match=r"got \(2\.9, 3\)$"):
            ket(np.ones(6), (2.9, 3))

    def test_accepts_numpy_integers(self):
        assert PartyDims((np.int64(2), np.int32(3))).dims == (2, 3)

    def test_cap_is_read_when_each_instance_is_checked(self, monkeypatch):
        monkeypatch.setattr(qcore, "DIM_CAP", 4)
        assert PartyDims((2, 2)).total == 4
        with pytest.raises(ValueError, match=r"^total dimension 8 exceeds the cap 4$"):
            PartyDims((2, 2, 2))


class TestStates:
    def test_ket_normalizes_input(self):
        st = ket([1.0, 1.0], (2,))
        np.testing.assert_allclose(st.amplitudes, [1 / math.sqrt(2)] * 2, atol=1e-15)
        with pytest.raises(ValueError):
            ket([0.0, 0.0], (2,))  # nothing to normalize

    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError, match="state is not normalized"):
            PureState(PartyDims((2,)), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="state is not normalized"):
            PureState(PartyDims((2, 2)), 2.0 * bell_pair("phi-").amplitudes)
        with pytest.raises(TypeError):  # no field beyond dims and amplitudes
            PureState(PartyDims((2,)), np.array([1.0, 1.0]), True)

    def test_basis_ket(self):
        st = basis_ket((2, 3), (1, 2))
        assert st.amplitudes[1 * 3 + 2] == 1.0
        assert np.count_nonzero(st.amplitudes) == 1

    @pytest.mark.parametrize("kind", ["phi+", "phi-", "psi+", "psi-"])
    def test_bell_pairs(self, kind):
        np.testing.assert_allclose(bell_pair(kind).amplitudes, bell_vec(kind), atol=1e-15)

    def test_bell_basis_orthonormal(self):
        vs = bell_basis()
        gram = np.array([[np.vdot(a, b) for b in vs] for a in vs])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-15)

    def test_ghz(self):
        np.testing.assert_allclose(ghz_state(4).amplitudes, ghz_vec(4), atol=1e-15)

    def test_density_from_pure(self):
        rho = bell_pair("phi+").density()
        v = bell_vec("phi+")
        np.testing.assert_allclose(rho.matrix, np.outer(v, v.conj()), atol=1e-15)

    def test_density_operator_validation(self):
        dims = PartyDims((2,))
        with pytest.raises(ValueError):
            DensityOperator(dims, np.array([[0.5, 0.5], [0.1, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityOperator(dims, np.eye(2, dtype=complex))  # trace 2
        with pytest.raises(ValueError):
            DensityOperator(dims, np.diag([1.5, -0.5]).astype(complex))  # not PSD

    def test_density_operator_rejects_256_dim_non_psd(self):
        dims = PartyDims((4, 4, 4, 4))
        rng = np.random.default_rng(11)
        bad = random_unit_trace_hermitian(dims.dims, rng, -1e-6)
        low = eig_min_hermitian_part(bad)
        with pytest.raises(ValueError, match="positive semidefinite") as info:
            DensityOperator(dims, bad)
        message = str(info.value)
        assert "(4, 4, 4, 4)" in message
        assert float(message.split("minimum eigenvalue ")[1].split()[0]) == low

    def test_density_operator_errors_name_dims_and_residual(self):
        dims = PartyDims((2, 2))
        skew = np.eye(4, dtype=complex) / 4
        skew[0, 1] = 3e-6
        with pytest.raises(ValueError, match=r"dims \(2, 2\).*max \|rho - rho\^dagger\| = 3\.000e-06"):
            DensityOperator(dims, skew)
        with pytest.raises(ValueError, match=r"dims \(2, 2\).*trace is \(2\+0j\)"):
            DensityOperator(dims, np.eye(4, dtype=complex) / 2)
        with pytest.raises(ValueError, match=r"dims \(2, 2\).*minimum eigenvalue -0\.25 "):
            DensityOperator(dims, np.diag([0.75, 0.25, 0.25, -0.25]).astype(complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_non_finite_entries_rejected(self, bad):
        amps = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        amps[2] = bad
        with pytest.raises(ValueError, match=r"amplitude entry 2 is .*must be finite"):
            PureState(PartyDims((2, 2)), amps)
        mat = np.eye(2, dtype=complex) / 2
        mat[0, 1] = mat[1, 0] = bad
        with pytest.raises(ValueError, match=r"dims \(2,\): matrix entry \(0, 1\) is .*must be finite"):
            DensityOperator(PartyDims((2,)), mat)
        # a projector's tolerance checks all compare with ``>``, which NaN fails
        with pytest.raises(ValueError, match=r"projector 0 entry \(0, 0\) is .*must be finite"):
            ProjectiveMeasurement((0,), (np.full((2, 2), bad),))
        proj = np.diag([0.0, 1.0]).astype(complex)
        proj[1, 0] = bad
        with pytest.raises(ValueError, match=r"projector 1 entry \(1, 0\) is .*must be finite"):
            ProjectiveMeasurement((0,), (np.diag([1.0, 0.0]), proj))


def test_tensor_matches_kron():
    a = ket([0.6, 0.8], (2,))
    b = bell_pair("psi-")
    joined = tensor(a, b)
    assert joined.dims.dims == (2, 2, 2)
    np.testing.assert_allclose(
        joined.amplitudes, np.kron(a.amplitudes, b.amplitudes), atol=1e-15
    )
    rho = tensor(a.density(), b.density())
    np.testing.assert_allclose(
        rho.matrix, np.kron(a.density().matrix, b.density().matrix), atol=1e-15
    )


def test_mix_validates_weights():
    rho = bell_pair("phi+").density()
    with pytest.raises(ValueError):
        mix([(0.7, rho), (0.2, rho)])  # sums to 0.9
    mixed = mix([(0.5, rho), (0.5, basis_ket((2, 2), (0, 1)).density())])
    assert abs(np.trace(mixed.matrix) - 1.0) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_mix_takes_pure_terms_as_their_densities_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    dims = (2, 3, 4)
    pure = [PureState(PartyDims(dims), random_pure(dims, rng)) for _ in range(3)]
    dense = DensityOperator(PartyDims(dims), random_density(dims, rng))
    w = rng.dirichlet([1.0] * 4)
    terms = list(zip(w, pure + [dense]))
    want = mix([(wk, t.density() if isinstance(t, PureState) else t) for wk, t in terms])
    assert mix(terms).matrix.tobytes() == want.matrix.tobytes()


def test_mix_refuses_wrong_kind_terms():
    rho = bell_pair("phi+").density()
    for wrong in (rho.matrix, bell_pair("phi-").amplitudes, None):
        with pytest.raises(ValueError, match="mix expects DensityOperator or PureState terms"):
            mix([(0.5, wrong), (0.5, rho)])
    with pytest.raises(ValueError, match="same party structure"):
        mix([(0.5, rho), (0.5, basis_ket((4,), (1,)))])


class TestPartialTrace:
    def test_bell_reduction_is_maximally_mixed(self):
        rho = partial_trace(bell_pair("phi+").density(), {1})
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    @pytest.mark.parametrize("dims,keep", [
        ((2, 2, 2), [0]),
        ((2, 3, 2), [0, 2]),
        ((3, 2), [1]),
        ((2, 2, 3), [1, 2]),
    ])
    def test_matches_loop_oracle(self, dims, keep):
        rng = np.random.default_rng(101)
        mat = random_density(dims, rng)
        rho = DensityOperator(PartyDims(dims), mat)
        discard = [i for i in range(len(dims)) if i not in keep]
        got = partial_trace(rho, discard)
        want = loop_partial_trace(mat, dims, keep)
        np.testing.assert_allclose(got.matrix, want, atol=1e-12)


class TestMeasurement:
    def test_projectors_must_be_complete(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            ProjectiveMeasurement((0,), (p0,))  # misses |1><1|

    def test_projectors_must_be_orthogonal(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            ProjectiveMeasurement((0,), (p0, np.eye(2, dtype=complex)))

    def test_level_split_on_qutrit(self):
        st = ket([1 / math.sqrt(3)] * 3, (3,))
        outs = measure(st, level_group_measurement(0, 3, [[0], [1, 2]]))
        assert abs(outs[0].probability - 1 / 3) < 1e-12
        assert abs(outs[1].probability - 2 / 3) < 1e-12
        np.testing.assert_allclose(
            outs[1].post_state.amplitudes, [0, 1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12
        )

    def test_probabilities_sum_to_one_pure_and_mixed(self):
        rng = np.random.default_rng(7)
        st = PureState(PartyDims((2, 2)), random_pure((2, 2), rng))
        meas = state_projector_measurement(0, ket([0.6, 0.8], (2,)))
        for state in (st, st.density()):
            outs = measure(state, meas)
            assert abs(sum(o.probability for o in outs) - 1.0) < 1e-12

    def test_pure_and_density_agree(self):
        rng = np.random.default_rng(8)
        st = PureState(PartyDims((2, 3)), random_pure((2, 3), rng))
        meas = level_group_measurement(1, 3, [[0, 1], [2]])
        pure_outs = measure(st, meas)
        dens_outs = measure(st.density(), meas)
        for po, do in zip(pure_outs, dens_outs):
            assert abs(po.probability - do.probability) < 1e-12
            if po.post_state is not None:
                np.testing.assert_allclose(
                    do.post_state.matrix, po.post_state.density().matrix, atol=1e-10
                )

    def test_impossible_branch_is_pruned(self):
        outs = measure(basis_ket((2,), (0,)), state_projector_measurement(0, basis_ket((2,), (1,))))
        assert outs[0].probability == 0.0
        assert outs[0].post_state is None

    def test_measurement_collapse(self):
        """Measuring one half of phi+ collapses the other half."""
        outs = measure(
            bell_pair("phi+"), level_group_measurement(0, 2, [[0], [1]])
        )
        np.testing.assert_allclose(outs[0].post_state.amplitudes, [1, 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(outs[1].post_state.amplitudes, [0, 0, 0, 1], atol=1e-12)


class TestLocalOperations:
    def test_unitary_on_scattered_targets_matches_loop_embed(self):
        dims = (2, 2, 2)
        cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
        rng = np.random.default_rng(11)
        st = PureState(PartyDims(dims), random_pure(dims, rng))
        # control on party 2, target on party 0: order matters
        got = apply_local_unitary(st, cnot, (2, 0))
        want = loop_embed(cnot, (2, 0), dims) @ st.amplitudes
        np.testing.assert_allclose(got.amplitudes, want, atol=1e-12)

    def test_nonunitary_rejected(self):
        with pytest.raises(ValueError):
            apply_local_unitary(bell_pair("phi+"), np.diag([1.0, 0.5]), (0,))

    def test_relabel_qutrit_to_qubit(self):
        st = ket([0, 0.6, 0.8], (3,))
        out = relabel_subspace(st, 0, {1: 0, 2: 1}, 2)
        np.testing.assert_allclose(out.amplitudes, [0.6, 0.8], atol=1e-15)

    def test_relabel_rejects_lost_population(self):
        st = ket([0.6, 0.8, 0.0], (3,))
        with pytest.raises(ValueError):
            relabel_subspace(st, 0, {1: 0, 2: 1}, 2)

    def test_permute_round_trip(self):
        rng = np.random.default_rng(12)
        st = PureState(PartyDims((2, 3, 2)), random_pure((2, 3, 2), rng))
        fwd = permute_parties(st, (2, 0, 1))
        assert fwd.dims.dims == (2, 2, 3)
        back = permute_parties(fwd, (1, 2, 0))
        np.testing.assert_allclose(back.amplitudes, st.amplitudes, atol=1e-15)

    def test_permute_density_moves_each_entry_bit_for_bit(self):
        rng = np.random.default_rng(13)
        dims, order = (2, 3, 2), (2, 0, 1)
        rho = DensityOperator(PartyDims(dims), random_density(dims, rng))
        got = permute_parties(rho, order)
        assert got.dims.dims == (2, 2, 3)
        levels = list(itertools.product(*map(range, dims)))
        moved = [np.ravel_multi_index([lv[i] for i in order], got.dims.dims) for lv in levels]
        want = np.empty_like(rho.matrix)
        for r, row in enumerate(moved):
            for c, col in enumerate(moved):
                want[row, col] = rho.matrix[r, c]
        assert got.matrix.tobytes() == want.tobytes()
        assert permute_parties(got, (1, 2, 0)).matrix.tobytes() == rho.matrix.tobytes()

    def test_contract_party(self):
        st = tensor(ket([0.6, 0.8], (2,)), bell_pair("phi+"))
        out = contract_party(st, 0, np.array([0.6, 0.8]))
        np.testing.assert_allclose(out.amplitudes, bell_vec("phi+"), atol=1e-12)
        with pytest.raises(ValueError):
            contract_party(st, 0, np.array([0.8, -0.6]))  # orthogonal


class TestDiagnostics:
    def test_fidelity_pure_on_pure_and_mixed(self):
        target = bell_pair("phi+")
        assert abs(fidelity_pure(target, target) - 1.0) < 1e-12
        mixed = mix([(0.7, target.density()), (0.3, basis_ket((2, 2), (0, 1)).density())])
        assert abs(fidelity_pure(mixed, target) - 0.7) < 1e-12

    def test_purity(self):
        assert abs(purity(bell_pair("phi+").density()) - 1.0) < 1e-12
        maximally_mixed = DensityOperator(PartyDims((2,)), np.eye(2, dtype=complex) / 2)
        assert abs(purity(maximally_mixed) - 0.5) < 1e-12

    def test_to_pure_recovers_vector(self):
        st = ghz_state(3)
        rec = to_pure(st.density())
        assert abs(abs(rec.overlap(st)) ** 2 - 1.0) < 1e-10

    def test_to_pure_rejects_mixed(self):
        mixed = DensityOperator(PartyDims((2,)), np.eye(2, dtype=complex) / 2)
        with pytest.raises(ValueError):
            to_pure(mixed)


def test_measure_total_probability_invariant():
    # a projector set that is complete but fed a state from a mismatched space
    # cannot be constructed through the public API, so check the arithmetic
    # guard directly: probabilities of a valid measurement always sum to 1.
    rng = np.random.default_rng(13)
    for dims in [(2, 2), (3, 2), (2, 2, 2)]:
        st = PureState(PartyDims(dims), random_pure(dims, rng))
        meas = level_group_measurement(0, dims[0], [[0], list(range(1, dims[0]))])
        total = sum(o.probability for o in measure(st, meas))
        assert abs(total - 1.0) <= ATOL


def test_hadamard_then_measure_is_unbiased():
    st = apply_local_unitary(basis_ket((2,), (0,)), H, (0,))
    outs = measure(st, level_group_measurement(0, 2, [[0], [1]]))
    assert abs(outs[0].probability - 0.5) < 1e-12
    assert abs(outs[1].probability - 0.5) < 1e-12


@pytest.mark.parametrize("n", [1, 4, 27, 256])
def test_hermitian_part_equals_the_naive_expression_bit_for_bit(n):
    rng = np.random.default_rng(n)
    mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    mat.setflags(write=False)
    for scale in (2.0, 2.0 * 0.37):
        out = _hermitian_part(mat, scale)
        assert out.tobytes() == ((mat + mat.conj().T) / scale).tobytes()
        assert out.flags.c_contiguous and out.flags.writeable


@pytest.mark.parametrize("d", [2, 8, 64])
def test_phase_canonical_treats_each_row_of_a_stack_as_its_vector_bit_for_bit(d):
    """One phase rule: each row of a complex stack comes out as the row alone does,
    divided by its largest entry over that entry's scalar ``abs``, every zero +0.0."""
    rng = np.random.default_rng(d)
    rows = rng.normal(size=(500, d)) + 1j * rng.normal(size=(500, d))
    stack = qcore._phase_canonical(rows)
    assert stack.shape == rows.shape
    for row, got in zip(rows, stack):
        pivot = row[np.argmax(np.abs(row))]
        want = row / (pivot / abs(pivot)) + 0.0
        assert got.tobytes() == qcore._phase_canonical(row).tobytes() == want.tobytes()


def _message(call, *args) -> str:
    with pytest.raises(ValueError) as info:
        call(*args)
    return str(info.value)


@pytest.mark.parametrize("bad", ["length", "norm", "nan", "inf"])
def test_pure_rows_refuses_a_bad_row_with_the_pure_state_message(bad):
    """A stack is refused with exactly the message ``PureState`` gives its first bad row."""
    dims = PartyDims((2, 3))
    rng = np.random.default_rng(3)
    rows = np.array([random_pure(dims.dims, rng) for _ in range(5)])
    if bad == "length":  # unit rows, one entry short
        rows = rows[:, :5] / np.linalg.norm(rows[:, :5], axis=1)[:, None]
    elif bad == "norm":
        rows[3] *= 1.0 + 1e-6
    else:
        rows[[1, 3], 4] = math.nan if bad == "nan" else math.inf
    row = rows[0] if bad == "length" else rows[3 if bad == "norm" else 1]
    want = _message(PureState, dims, row)
    assert _message(qcore._pure_rows, dims, rows) == want


def test_pure_rows_states_view_one_frozen_copy_and_equal_pure_state():
    dims = PartyDims((2, 2, 2))
    rng = np.random.default_rng(8)
    rows = np.array([random_pure(dims.dims, rng) for _ in range(6)])
    states = qcore._pure_rows(dims, rows)
    assert len(states) == len(rows)
    frozen = states[0].amplitudes.base
    for state, row in zip(states, rows):
        want = PureState(dims, row)
        assert type(state) is PureState and state.dims == want.dims
        assert state.amplitudes.tobytes() == want.amplitudes.tobytes()
        assert state.amplitudes.shape == want.amplitudes.shape
        assert state.amplitudes.base is frozen and state.amplitudes.flags.c_contiguous
        assert not state.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0
    assert not np.shares_memory(frozen, rows)
    rows[0] = 0.0  # the states do not see a later write to the input
    assert states[0].amplitudes.tobytes() == PureState(dims, states[0].amplitudes).amplitudes.tobytes()
    assert qcore._pure_rows(dims, rows[:0]) == []
