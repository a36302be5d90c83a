"""The pairwise-fusion chain merge against its branch-by-branch oracle.

``merge_chain_to_ghz`` fuses the pairs one at a time into one stack of rows:
pair j is tensored on, party j's parity and |+>/|-> readout are measured on
every row, and the read-out qubit is contracted away.  The branches are then
sorted back to parity-major order, so the branch order, and with it the
branch a sampled run draws, is that of ``helpers.loop_merge_chain_to_ghz``,
which measures the 4**m joint vector and corrects one branch at a time.

For two pairs the fusion applies the same measurements and the same
contraction to the same four-qubit rows as the oracle, so every branch is
compared bit for bit.  From three pairs on, the parity of a later pair is
measured after the earlier readout and contraction, so sums run in another
order: patterns, corrections, branch order and the pruned set stay exact,
amplitudes and probabilities agree within ``FUSION_ATOL``.  Every branch is
also checked against the closed form of ``helpers.merge_branch_amplitudes``,
and the memory a 6-pair merge may take is bounded.

Each fusion step runs on the whole stack through ``qcore._measure_rows`` and
``qcore._contract_rows``, which ``measure`` and ``contract_party`` run on one
row: the outcome probabilities and contraction weights are stacked matmuls
whose items are the BLAS dots of ``np.vdot`` and ``np.linalg.norm``
(``qcore._row_dots``, ``qcore._row_norms``).
So for every chain length the merge equals, bit for bit,
``helpers.row_merge_chain_to_ghz``, which sends each row of each stage
through the public ``measure``, ``contract_party`` and ``apply_local_unitary``
on its own.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmesim import qcore
from gmesim.protocols import (
    _PARITY,
    _READOUT,
    _sample_merge,
    merge_chain_to_ghz,
    normalize_schmidt,
)
from gmesim.qcore import (
    ATOL,
    PartyDims,
    ProjectiveMeasurement,
    PureState,
    _measure_rows,
    _require_unit_rows,
    _row_dots,
    _row_norms,
    ket,
    measure,
)

from helpers import (
    loop_merge_chain_to_ghz,
    merge_branch_amplitudes,
    random_unitary,
    row_merge_chain_to_ghz,
)

#: A 6-pair merge peaks near 11 MiB; all 1,024 of its branches over the
#: 12-qubit joint space at once would hold about 224 MiB.
MERGE6_PEAK_MIB = 16

#: Largest gap from the oracle allowed from three pairs on, in amplitude and
#: in probability (the worst seen over 150 chains with b/a down to 1e-7 was
#: 4.4e-16 and 1.4e-16).
FUSION_ATOL = 1e-15


def rotated_pair(ratio, rng) -> PureState:
    """a|00> + b|11> with b/a = ``ratio``, under random complex local unitaries."""
    a, b = normalize_schmidt((1.0, ratio))
    local = np.kron(random_unitary(2, rng), random_unitary(2, rng))
    return ket(local @ np.array([a, 0, 0, b], dtype=complex), (2, 2))


@st.composite
def chains(draw, sizes=st.integers(2, 5)):
    m = draw(sizes)
    # b/a down to 1e-7: then a branch of conditional probability near b^2 is pruned
    exponents = draw(st.lists(st.floats(-7.0, 0.0), min_size=m, max_size=m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [rotated_pair(10.0**e, rng) for e in exponents]


def assert_same_merge(got, want, bitwise=False):
    """Equal branches, bit for bit for two pairs (or with ``bitwise``), within ``FUSION_ATOL`` beyond."""
    bitwise = bitwise or len(got.pair_coefficients) == 2
    assert len(got.branches) == len(want.branches)
    for g, w in zip(got.branches, want.branches):
        assert g.parity_pattern == w.parity_pattern
        assert g.sign_pattern == w.sign_pattern
        assert g.state.dims == w.state.dims
        assert g.corrections == w.corrections
        if bitwise:
            assert g.probability.hex() == w.probability.hex()
            assert g.state.amplitudes.tobytes() == w.state.amplitudes.tobytes()
        else:
            assert abs(g.probability - w.probability) <= FUSION_ATOL
            assert np.max(np.abs(g.state.amplitudes - w.state.amplitudes)) <= FUSION_ATOL
    assert got.pair_coefficients == want.pair_coefficients
    for (gu, gv), (wu, wv) in zip(got.alignments, want.alignments):
        assert gu.tobytes() == wu.tobytes()
        assert gv.tobytes() == wv.tobytes()


def assert_closed_form(result):
    """Each branch is alpha|0...0> + beta|1...1> with the prefix-xor law's weights."""
    for branch in result.branches:
        a0, a1, prob = merge_branch_amplitudes(result.pair_coefficients, branch.parity_pattern)
        norm = np.hypot(a0, a1)
        want = np.zeros(branch.state.dims.total, dtype=complex)
        want[0], want[-1] = a0 / norm, a1 / norm
        assert abs(branch.probability - prob) <= ATOL
        assert np.max(np.abs(branch.state.amplitudes - want)) <= ATOL


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(chains())
def test_every_branch_matches_the_loop_oracle(pairs):
    got = merge_chain_to_ghz(pairs)
    assert_same_merge(got, loop_merge_chain_to_ghz(pairs))
    assert_closed_form(got)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(chains(st.just(2)))
def test_two_pair_merge_is_the_loop_oracle_bit_for_bit(pairs):
    assert_same_merge(merge_chain_to_ghz(pairs), loop_merge_chain_to_ghz(pairs))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(chains())
def test_every_branch_is_the_per_row_oracle_bit_for_bit(pairs):
    assert_same_merge(merge_chain_to_ghz(pairs), row_merge_chain_to_ghz(pairs), bitwise=True)


@st.composite
def stacks(draw):
    """A complex stack of 1-512 rows of width 4-256, C-ordered or strided."""
    rows, width = draw(st.integers(1, 512)), draw(st.integers(4, 256))
    layout = draw(st.sampled_from(["C", "F", "every other row", "every third column", "3-d"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-150.0, 150.0))

    def block(*shape):
        return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))

    if layout == "F":
        return np.asfortranarray(block(rows, width))
    if layout == "every other row":
        return block(2 * rows, width)[::2]
    if layout == "every third column":
        return block(rows, 3 * width)[:, ::3]
    if layout == "3-d":  # (rows, outcomes, D), as a merge stage holds them
        return block(rows, 2, width)
    return block(rows, width)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(stacks())
def test_stacked_row_dots_and_norms_are_vdot_and_norm_bit_for_bit(stack):
    flat = stack.reshape(-1, stack.shape[-1])  # a view: each row keeps its strides
    dots = np.array([np.vdot(r, r).real for r in flat])
    norms = np.array([np.linalg.norm(r) for r in flat])
    assert _row_dots(stack).reshape(-1).tobytes() == dots.tobytes()
    assert _row_norms(stack).reshape(-1).tobytes() == norms.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 3),
    st.integers(1, 48),
    st.sampled_from(["parity", "readout"]),
    st.integers(0, 2**32 - 1),
)
def test_measure_rows_is_measure_per_row_bit_for_bit(j, n_rows, stage, seed):
    """The shared row kernel on a merge stage's dense rows, which the chain's
    Schmidt-form rows are not, gives each row's one-row ``measure`` outcomes:
    probabilities and states bit for bit, and the same pruned set."""
    dims = PartyDims((2,) * (j + 3))
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n_rows, dims.total)) + 1j * rng.normal(size=(n_rows, dims.total))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    targets, meas = ((j, j + 1), _PARITY) if stage == "parity" else ((j,), _READOUT)
    probs, live, out = _measure_rows(dims, rows, targets, meas.projectors)
    per_row = ProjectiveMeasurement(targets, meas.projectors)
    want_probs, want_live, want_rows = [], [], []
    for row in rows:
        outcomes = measure(PureState(dims, row), per_row)
        want_probs.append([outcome.probability for outcome in outcomes])
        want_live.append([outcome.post_state is not None for outcome in outcomes])
        want_rows += [o.post_state.amplitudes for o in outcomes if o.post_state is not None]
    assert probs.tobytes() == np.array(want_probs).tobytes()
    assert live.tolist() == want_live
    assert out.tobytes() == np.array(want_rows).tobytes()


def test_pruned_two_pair_branches_match_the_loop_oracle_bit_for_bit():
    # the anticorrelated parity has probability 2e-14, below the prune threshold
    rng = np.random.default_rng(5)
    pairs = [rotated_pair(1e-7, rng), rotated_pair(1e-7, rng)]
    got = merge_chain_to_ghz(pairs)
    assert {b.parity_pattern for b in got.branches} == {(0,)}
    assert_same_merge(got, loop_merge_chain_to_ghz(pairs))


def test_pruned_parity_branches_match_the_loop_oracle():
    # both anticorrelated parities have probability 2e-14, below the prune threshold
    rng = np.random.default_rng(11)
    pairs = [rotated_pair(1e-7, rng), rotated_pair(1e-7, rng), rotated_pair(0.5, rng)]
    got = merge_chain_to_ghz(pairs)
    assert {b.parity_pattern for b in got.branches} == {(0, 0), (0, 1)}
    assert_same_merge(got, loop_merge_chain_to_ghz(pairs))
    assert_closed_form(got)


def test_six_pair_merge_matches_the_loop_oracle():
    rng = np.random.default_rng(6)
    pairs = [rotated_pair(r, rng) for r in (0.3, 0.6, 1.0, 0.05, 0.8, 0.45)]
    got = merge_chain_to_ghz(pairs)
    assert len(got.branches) == 4**5
    assert_same_merge(got, loop_merge_chain_to_ghz(pairs))
    assert_closed_form(got)


def test_six_pair_merge_holds_one_block_of_sign_branches_at_a_time():
    """The fusion's widest stage, the last readout over 512 eight-qubit rows,
    with its projector stack, stays under ``MERGE6_PEAK_MIB``."""
    rng = np.random.default_rng(7)
    pairs = [rotated_pair(r, rng) for r in (0.9, 0.2, 0.7, 0.4, 1.0, 0.5)]
    tracemalloc.start()
    try:
        merge_chain_to_ghz(pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < MERGE6_PEAK_MIB * 2**20


def test_row_norm_check_raises_the_pure_state_message():
    dims = PartyDims((2, 2))
    rows = np.array([[1.0, 0, 0, 0], [0.5, 0.5, 0.5, 0.5]], dtype=complex)
    _require_unit_rows(rows, dims)
    rows[1] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match=r"state is not normalized \(norm=1\.000001"):
        _require_unit_rows(rows, dims)
    rows[1, 2] = np.nan
    with pytest.raises(ValueError, match=r"pure state on dims \(2, 2\): amplitude entry 2 is"):
        _require_unit_rows(rows, dims)


def test_merge_checks_its_stacks_without_building_a_state_per_row(monkeypatch):
    """The aligned pairs and the branches are checked as stacks (``qcore._pure_rows``):
    a 4-pair merge and a sampled one run ``PureState.__post_init__`` on no row."""
    rng = np.random.default_rng(4)
    pairs = [rotated_pair(r, rng) for r in (0.3, 0.6, 0.9, 0.45)]
    want = merge_chain_to_ghz(pairs)
    built, stacked = [], []
    pure_rows = qcore._pure_rows

    def counting(dims, rows):
        stacked.append(len(rows))
        return pure_rows(dims, rows)

    monkeypatch.setattr(PureState, "__post_init__", lambda self: built.append(self))
    monkeypatch.setattr("gmesim.protocols._pure_rows", counting)
    got = merge_chain_to_ghz(pairs)
    _sample_merge(np.random.default_rng(0), pairs)
    assert built == []
    assert stacked == [4, 4**3, 4, 1]  # aligned pairs, then branches, per merge
    assert_same_merge(got, want, bitwise=True)
