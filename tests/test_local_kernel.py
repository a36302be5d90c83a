"""The axis-local kernel behind measure, apply_local_unitary, local_filter and
contract_party.

Each property draws a random party structure (2-4 parties of local
dimension 2-4, at most 64 dimensions in all), an ordered tuple of distinct
target parties (unsorted and non-contiguous ones included) and a random
operator, and compares the fast kernel with ``helpers.loop_embed``, which
lifts the operator to the full space one matrix element at a time.  A stack
of pure-state rows must get, bit for bit, the arithmetic of one state at a
time, and ``contract_party`` that of ``np.tensordot``.

On a pure state, ``measure`` and ``contract_party`` are one-row calls of the
stacked row kernels ``qcore._measure_rows`` and ``qcore._contract_rows``, so
these dense random states pin those kernels' probabilities and contraction
weights bit for bit, and their probability-sum check.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmesim.distill import FilterPair, local_filter
from gmesim.qcore import (
    ATOL,
    PRUNE_ATOL,
    DensityOperator,
    InvariantError,
    PartyDims,
    ProjectiveMeasurement,
    PureState,
    _local_kernel,
    apply_local_unitary,
    contract_party,
    measure,
)

from helpers import loop_embed, random_density, random_pure, random_unitary

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def layouts(draw, max_targets=4):
    """(dims, targets, numpy seed) with distinct, arbitrarily ordered targets."""
    dims = tuple(
        draw(
            st.lists(st.integers(2, 4), min_size=2, max_size=4).filter(
                lambda ds: math.prod(ds) <= 64
            )
        )
    )
    k = draw(st.integers(1, min(max_targets, len(dims))))
    targets = tuple(draw(st.permutations(range(len(dims))))[:k])
    return dims, targets, draw(st.integers(0, 2**32 - 1))


def random_projectors(dim, rng):
    """A complete set of orthogonal projectors in a random basis."""
    basis = random_unitary(dim, rng)
    labels = rng.integers(0, rng.integers(1, dim + 1), size=dim)
    return tuple(
        basis[:, labels == g] @ basis[:, labels == g].conj().T for g in np.unique(labels)
    )


def random_state(dims, rng, pure):
    if pure:
        return PureState(PartyDims(dims), random_pure(dims, rng))
    return DensityOperator(PartyDims(dims), random_density(dims, rng))


def lifted(state, op, targets):
    """``op`` applied to ``state`` through the element-loop lift."""
    big = loop_embed(op, targets, state.dims.dims)
    if isinstance(state, PureState):
        return big @ state.amplitudes
    return big @ state.matrix @ big.conj().T


def assert_branch(prob, post, state, sub):
    """One (probability, post-state) branch against the lifted result ``sub``."""
    if isinstance(state, PureState):
        want = float(np.real(np.vdot(sub, sub)))
    else:
        want = float(np.real(np.trace(sub)))
    assert abs(prob - want) <= ATOL
    if want <= PRUNE_ATOL:
        assert post is None
        return
    if isinstance(state, PureState):
        np.testing.assert_allclose(post.amplitudes * math.sqrt(want), sub, atol=ATOL)
    else:
        np.testing.assert_allclose(post.matrix * want, (sub + sub.conj().T) / 2.0, atol=ATOL)


def target_dim(dims, targets):
    return math.prod(dims[t] for t in targets)


def state_bytes(state):
    return (state.amplitudes if isinstance(state, PureState) else state.matrix).tobytes()


@PROPERTY
@given(layouts(), st.booleans(), st.data())
def test_measure_matches_loop_embed(layout, pure, data):
    dims, targets, seed = layout
    rng = np.random.default_rng(seed)
    state = random_state(dims, rng, pure)
    projectors = random_projectors(target_dim(dims, targets), rng)
    measurement = ProjectiveMeasurement(targets, projectors)
    outcomes = measure(state, measurement)
    assert [o.outcome_index for o in outcomes] == list(range(len(projectors)))
    for out, proj in zip(outcomes, projectors):
        assert_branch(out.probability, out.post_state, state, lifted(state, proj, targets))

    # keeping some outcomes changes no probability and no kept post-state
    keep = data.draw(st.lists(st.integers(0, len(projectors) - 1), unique=True), label="keep")
    kept = measure(state, measurement, keep=keep)
    assert [o.outcome_index for o in kept] == list(range(len(projectors)))
    for part, full in zip(kept, outcomes):
        assert part.probability.hex() == full.probability.hex()
        if part.outcome_index in keep and full.post_state is not None:
            assert state_bytes(part.post_state) == state_bytes(full.post_state)
        else:
            assert part.post_state is None


@PROPERTY
@given(layouts(), st.booleans())
def test_apply_local_unitary_matches_loop_embed(layout, pure):
    dims, targets, seed = layout
    rng = np.random.default_rng(seed)
    state = random_state(dims, rng, pure)
    u = random_unitary(target_dim(dims, targets), rng)
    got = apply_local_unitary(state, u, targets)
    assert got.dims == state.dims
    want = lifted(state, u, targets)
    np.testing.assert_allclose(got.amplitudes if pure else got.matrix, want, atol=ATOL)


def one_state_kernel(psi, dims, targets, op):
    """``op`` on one state vector: targets to the front, one 2-D matmul, back."""
    n = len(dims)
    order = list(targets) + [i for i in range(n) if i not in targets]
    tdim = target_dim(dims, targets)
    front = psi.reshape(dims).transpose(order).reshape(tdim, -1)
    out = (op @ front).reshape([dims[i] for i in order])
    return out.transpose([order.index(i) for i in range(n)]).reshape(-1)


@PROPERTY
@given(layouts(), st.integers(1, 8))
def test_stacked_rows_match_one_state_at_a_time(layout, rows):
    dims, targets, seed = layout
    rng = np.random.default_rng(seed)
    pd = PartyDims(dims)
    stack = np.array([random_pure(dims, rng) for _ in range(rows)])
    d = target_dim(dims, targets)
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    front, apply = _local_kernel(pd, targets, stack)
    assert front.shape == (rows, d, pd.total // d)
    out = apply(op)
    assert out.shape == (rows, pd.total)
    for psi, got in zip(stack, out):
        assert got.tobytes() == one_state_kernel(psi, dims, targets, op).tobytes()
        np.testing.assert_allclose(got, lifted(PureState(pd, psi), op, targets), atol=ATOL)
    # the one-row calls of the public operations read the same kernel
    u = random_unitary(d, rng)
    for psi, got in zip(stack, apply(u)):
        assert apply_local_unitary(PureState(pd, psi), u, targets).amplitudes.tobytes() == (
            got.tobytes()
        )


@PROPERTY
@given(layouts())
def test_pure_measure_is_one_vdot_per_outcome_bit_for_bit(layout):
    """Each outcome of a pure state: ``np.vdot`` of the one-state kernel's
    image for the probability, the image over its root for the post-state."""
    dims, targets, seed = layout
    rng = np.random.default_rng(seed)
    state = random_state(dims, rng, pure=True)
    projectors = random_projectors(target_dim(dims, targets), rng)
    for out, proj in zip(measure(state, ProjectiveMeasurement(targets, projectors)), projectors):
        sub = one_state_kernel(state.amplitudes, dims, targets, proj)
        prob = float(np.real(np.vdot(sub, sub)))
        assert out.probability.hex() == min(max(prob, 0.0), 1.0).hex()
        if prob > PRUNE_ATOL:
            assert out.post_state.amplitudes.tobytes() == (sub / math.sqrt(prob)).tobytes()
        else:
            assert out.post_state is None


@PROPERTY
@given(layouts(max_targets=2), st.integers(1, 8))
def test_contract_party_matches_tensordot(layout, rows):
    dims, targets, seed = layout
    rng = np.random.default_rng(seed)
    pd = PartyDims(dims)
    stack = np.array([random_pure(dims, rng) for _ in range(rows)])
    d = target_dim(dims, targets)
    ref = rng.normal(size=d) + 1j * rng.normal(size=d)
    party = targets[0] if len(targets) == 1 else targets
    if len(targets) == len(dims):
        with pytest.raises(ValueError, match="cannot contract every party"):
            contract_party(PureState(pd, stack[0]), party, ref)
        return
    front, _ = _local_kernel(pd, targets, stack)
    contracted = ref.conj() @ front
    factors = ref.conj().reshape([dims[t] for t in targets])
    for psi, row in zip(stack, contracted):
        t = np.tensordot(factors, psi.reshape(dims), axes=(list(range(len(targets))), targets))
        assert row.tobytes() == t.reshape(-1).tobytes()
        got = contract_party(PureState(pd, psi), party, ref)
        assert got.dims.dims == tuple(dm for i, dm in enumerate(dims) if i not in targets)
        assert got.amplitudes.tobytes() == (t.reshape(-1) / float(np.linalg.norm(t))).tobytes()


@PROPERTY
@given(layouts(max_targets=1), st.booleans())
def test_local_filter_matches_loop_embed(layout, rank_one):
    # local_filter takes density operators; pure inputs enter as rank-one ones
    dims, (party,), seed = layout
    rng = np.random.default_rng(seed)
    rank = 1 if rank_one else None
    rho = DensityOperator(PartyDims(dims), random_density(dims, rng, rank=rank))
    d = dims[party]
    s = rng.uniform(0.0, 1.0, d)
    k0 = random_unitary(d, rng) @ np.diag(s)
    k1 = random_unitary(d, rng) @ np.diag(np.sqrt(1.0 - s * s))
    pair = FilterPair(k0, k1)
    branches = local_filter(rho, party, pair)
    assert len(branches) == 2
    for (prob, post), kraus in zip(branches, (pair.k0, pair.k1)):
        assert_branch(prob, post, rho, lifted(rho, kraus, (party,)))


@PROPERTY
@given(layouts(), st.booleans())
def test_bad_target_or_shape_is_refused(layout, pure):
    dims, targets, seed = layout
    rng = np.random.default_rng(seed)
    state = random_state(dims, rng, pure)
    d = target_dim(dims, targets)
    n = len(dims)
    # a party index past the last party
    outside = targets[:-1] + (n + int(rng.integers(0, 3)),)
    with pytest.raises(ValueError, match="out of range"):
        measure(state, ProjectiveMeasurement(outside, (np.eye(d, dtype=complex),)))
    with pytest.raises(ValueError, match="out of range"):
        apply_local_unitary(state, np.eye(d), outside)
    # an operator sized for one more level than the targets hold
    with pytest.raises(ValueError, match="shape"):
        measure(state, ProjectiveMeasurement(targets, (np.eye(d + 1, dtype=complex),)))
    with pytest.raises(ValueError, match="shape"):
        apply_local_unitary(state, random_unitary(d + 1, rng), targets)
    if not pure:
        with pytest.raises(ValueError, match="out of range"):
            local_filter(state, n, FilterPair(np.eye(2), np.zeros((2, 2))))
        wrong = dims[targets[0]] + 1
        with pytest.raises(ValueError, match="shape"):
            local_filter(state, targets[0], FilterPair(np.eye(wrong), np.zeros((wrong, wrong))))


def test_repeated_target_is_refused():
    state = PureState(PartyDims((2, 2)), random_pure((2, 2), np.random.default_rng(3)))
    with pytest.raises(ValueError, match="distinct"):
        apply_local_unitary(state, np.eye(4), (1, 1))


def test_bad_keep_index_is_refused():
    state = PureState(PartyDims((2, 3)), random_pure((2, 3), np.random.default_rng(5)))
    measurement = ProjectiveMeasurement((1,), tuple(np.diag(np.eye(3)[k]) for k in range(3)))
    for keep in ((3,), (0, -1)):
        with pytest.raises(ValueError, match=f"keep index {keep[-1]} out of range for 3 outcomes"):
            measure(state, measurement, keep=keep)
    with pytest.raises(ValueError, match=r"keep indices \(2, 0, 2\) must be distinct"):
        measure(state, measurement, keep=(2, 0, 2))


def test_probability_sum_error_names_dims_targets_and_residual(monkeypatch):
    # a projector set that misses |1><1| cannot pass ProjectiveMeasurement's
    # own validation, so switch that validation off for this one construction
    monkeypatch.setattr(ProjectiveMeasurement, "__post_init__", lambda self: None)
    incomplete = ProjectiveMeasurement((2, 0), (np.diag([1.0, 0, 0, 0, 0, 0]).astype(complex),))
    monkeypatch.undo()
    state = PureState(PartyDims((2, 4, 3)), random_pure((2, 4, 3), np.random.default_rng(4)))
    expected_total = sum(abs(state.tensor_view()[0, :, 0]) ** 2)
    # the sum covers every outcome, kept or not, of a pure or a density state
    for target, keep in itertools.product((state, state.density()), (None, (0,), ())):
        with pytest.raises(InvariantError) as info:
            measure(target, incomplete, keep=keep)
        message = str(info.value)
        assert "parties (2, 0)" in message
        assert "dims (2, 4, 3)" in message
        assert f"residual {expected_total - 1.0:.3e}" in message


def test_local_filter_sum_error_names_dims_party_and_residual(monkeypatch):
    # a filter without its K1 cannot pass FilterPair's own completeness check,
    # so switch that check off for this one construction
    monkeypatch.setattr(FilterPair, "__post_init__", lambda self: None)
    half = FilterPair(np.diag([1.0, 0.0]).astype(complex), np.zeros((2, 2), dtype=complex))
    monkeypatch.undo()
    state = PureState(PartyDims((3, 2)), random_pure((3, 2), np.random.default_rng(6)))
    expected_total = sum(abs(state.tensor_view()[:, 0]) ** 2)
    # a density is checked by the shared branch kernel, as a pure state's row is
    for target in (state, state.density()):
        with pytest.raises(InvariantError) as info:
            local_filter(target, 1, half)
        message = str(info.value)
        assert "parties (1,)" in message
        assert "dims (3, 2)" in message
        assert f"residual {expected_total - 1.0:.3e}" in message
