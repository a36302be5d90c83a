"""The stacked chain merge against its branch-by-branch oracle.

``merge_chain_to_ghz`` keeps the live branches of a stage as the rows of one
array and merges each parity branch's sign branches as one block.  These
tests compare every branch, bit for bit, with ``helpers.loop_merge_chain_to_ghz``,
which measures, contracts and corrects one branch at a time, and bound the
memory a 6-pair merge may take.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmesim.protocols import merge_chain_to_ghz, normalize_schmidt
from gmesim.qcore import PartyDims, PureState, _require_unit_rows, ket

from helpers import loop_merge_chain_to_ghz, random_unitary

#: A 6-pair merge peaks near 13 MiB; all 1,024 of its branches at once
#: would hold about 224 MiB.
MERGE6_PEAK_MIB = 16


def rotated_pair(ratio, rng) -> PureState:
    """a|00> + b|11> with b/a = ``ratio``, under random complex local unitaries."""
    a, b = normalize_schmidt((1.0, ratio))
    local = np.kron(random_unitary(2, rng), random_unitary(2, rng))
    return ket(local @ np.array([a, 0, 0, b], dtype=complex), (2, 2))


@st.composite
def chains(draw):
    m = draw(st.integers(2, 5))
    # b/a down to 1e-7: then a branch of conditional probability near b^2 is pruned
    exponents = draw(st.lists(st.floats(-7.0, 0.0), min_size=m, max_size=m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [rotated_pair(10.0**e, rng) for e in exponents]


def assert_same_merge(got, want):
    assert len(got.branches) == len(want.branches)
    for g, w in zip(got.branches, want.branches):
        assert g.parity_pattern == w.parity_pattern
        assert g.sign_pattern == w.sign_pattern
        assert g.probability.hex() == w.probability.hex()
        assert g.state.dims == w.state.dims
        assert g.state.amplitudes.tobytes() == w.state.amplitudes.tobytes()
        assert g.corrections == w.corrections
    assert got.pair_coefficients == want.pair_coefficients
    for (gu, gv), (wu, wv) in zip(got.alignments, want.alignments):
        assert gu.tobytes() == wu.tobytes()
        assert gv.tobytes() == wv.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(chains())
def test_every_branch_matches_the_loop_oracle(pairs):
    assert_same_merge(merge_chain_to_ghz(pairs), loop_merge_chain_to_ghz(pairs))


def test_pruned_parity_branches_match_the_loop_oracle():
    # both anticorrelated parities have probability 2e-14, below the prune threshold
    rng = np.random.default_rng(11)
    pairs = [rotated_pair(1e-7, rng), rotated_pair(1e-7, rng), rotated_pair(0.5, rng)]
    got = merge_chain_to_ghz(pairs)
    assert {b.parity_pattern for b in got.branches} == {(0, 0), (0, 1)}
    assert_same_merge(got, loop_merge_chain_to_ghz(pairs))


def test_six_pair_merge_matches_the_loop_oracle():
    rng = np.random.default_rng(6)
    pairs = [rotated_pair(r, rng) for r in (0.3, 0.6, 1.0, 0.05, 0.8, 0.45)]
    got = merge_chain_to_ghz(pairs)
    assert len(got.branches) == 4**5
    assert_same_merge(got, loop_merge_chain_to_ghz(pairs))


def test_six_pair_merge_holds_one_block_of_sign_branches_at_a_time():
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
