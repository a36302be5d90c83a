"""Purification pipeline: filters, twirling, and the two-copy recurrence.

The twirl conjugates by a cached stack of all 24 Clifford superoperators in
one product, and the recurrence round reads each target-pair outcome's
block of the joint state off the pair's own entries, by index.  Both are
compared bit for bit with ``helpers.loop_twirl_to_isotropic`` and
``helpers.loop_recurrence_round``, which form and apply each operator on its
own, the round on the full four-qubit joint state.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmesim import distill, qcore
from gmesim.distill import (
    DISTILLABLE_FIDELITY,
    FilterPair,
    distill_pipeline,
    identity_filter,
    isotropic_state,
    local_filter,
    procrustean_filter,
    recurrence_round,
    twirl_to_isotropic,
)
from gmesim.entanglement import Bipartition, negativity
from gmesim.protocols import build_prop1_example, run_prop1_step
from gmesim.qcore import (
    ATOL,
    DensityOperator,
    PartyDims,
    PureState,
    basis_ket,
    bell_pair,
    fidelity_pure,
    ket,
    mix,
)

from helpers import (
    loop_recurrence_round,
    loop_twirl_to_isotropic,
    random_density,
    random_pure,
    random_unitary,
    recurrence_accept_prob,
    recurrence_map,
)

CUT = Bipartition(frozenset({0}), 2)


def prop1_residual(p=0.5):
    """Kept branch of the single-step protocol; F = 2/3 at p = 1/2."""
    branches = run_prop1_step(build_prop1_example(p), basis_ket((2,), (0,)))
    return branches[0].pair_state


class TestFilters:
    def test_filter_pair_must_be_complete(self):
        k = np.diag([1.0, 0.5]).astype(complex)
        with pytest.raises(ValueError):
            FilterPair(k, k)  # k0^2 + k1^2 != 1
        # each entry of K0'K0 - 1 is 0.99e-9, inside ATOL, but its operator norm
        # is 1.98e-9, so on |-> the two probabilities would sum to 1 - 1.98e-9
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        k0 = h @ np.diag([1.0, math.sqrt(1.0 - 1.98e-9)]) @ h
        assert np.max(np.abs(k0.conj().T @ k0 - np.eye(2))) < ATOL
        with pytest.raises(ValueError, match=r"completeness relation.*operator norm 1\.980e-09"):
            FilterPair(k0, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="operator norm nan"):
            FilterPair(np.full((2, 2), math.nan), np.zeros((2, 2)))

    @pytest.mark.parametrize("seed", range(8))
    def test_accepted_filters_pass_the_probability_sum_check(self, seed):
        # residual -W' diag(eps) W has operator norm max(eps), just inside ATOL/2
        rng = np.random.default_rng(seed)
        s = rng.uniform(0.0, 0.9, 2)
        eps = np.array([0.499e-9, rng.uniform(0.0, 0.499e-9)])
        w = random_unitary(2, rng)
        k0 = random_unitary(2, rng) @ np.diag(s) @ w
        k1 = random_unitary(2, rng) @ np.diag(np.sqrt(1.0 - s * s - eps)) @ w
        pair = FilterPair(k0, k1)
        dims = (2, 3)
        states = [PureState(PartyDims(dims), random_pure(dims, rng))]
        states += [DensityOperator(PartyDims(dims), random_density(dims, rng, rank))
                   for rank in (1, 6)]
        for state in states:
            probs = [prob for prob, _ in local_filter(state, 0, pair)]
            assert abs(sum(probs) - 1.0) <= ATOL / 2 + 1e-15

    def test_identity_filter_is_trivial(self):
        f = identity_filter(2)
        branches = local_filter(bell_pair("phi+").density(), 0, f)
        assert abs(branches[0][0] - 1.0) < 1e-12

    @pytest.mark.parametrize("a,b", [(0.8, 0.6), (0.6, 0.8), (0.95, math.sqrt(1 - 0.95**2))])
    def test_procrustean_success_probability(self, a, b):
        st = ket([a, 0, 0, b], (2, 2))
        prob, out = local_filter(st.density(), 0, procrustean_filter(a, b))[0]
        assert abs(prob - 2 * min(a * a, b * b)) < 1e-12
        assert abs(fidelity_pure(out, bell_pair("phi+")) - 1.0) < 1e-12

    def test_filter_branch_probabilities_sum_to_one(self):
        rng = np.random.default_rng(41)
        rho = DensityOperator(PartyDims((2, 2)), random_density((2, 2), rng))
        branches = local_filter(rho, 1, procrustean_filter(0.7, math.sqrt(0.51)))
        assert abs(sum(p for p, _ in branches) - 1.0) < 1e-12

    def test_filtering_can_raise_negativity(self):
        """A one-sided filter strictly improves the kept single-step branch."""
        rho = prop1_residual()
        before = negativity(rho, CUT)
        k0 = np.diag([1.0, 0.55]).astype(complex)
        k1 = np.diag([0.0, math.sqrt(1 - 0.55**2)]).astype(complex)
        prob, kept = local_filter(rho, 0, FilterPair(k0, k1))[0]
        assert prob < 1.0
        assert negativity(kept, CUT) > before + 0.04


class TestTwirl:
    def test_preserves_target_fidelity_and_isotropizes(self):
        rng = np.random.default_rng(43)
        rho = DensityOperator(PartyDims((2, 2)), random_density((2, 2), rng))
        f = fidelity_pure(rho, bell_pair("phi+"))
        iso = twirl_to_isotropic(rho)
        assert abs(fidelity_pure(iso, bell_pair("phi+")) - f) < 1e-12
        np.testing.assert_allclose(iso.matrix, isotropic_state(f).matrix, atol=1e-12)

    def test_isotropic_is_fixed_point(self):
        iso = isotropic_state(0.8)
        np.testing.assert_allclose(twirl_to_isotropic(iso).matrix, iso.matrix, atol=1e-12)

    def test_isotropic_state_bounds(self):
        with pytest.raises(ValueError):
            isotropic_state(1.2)
        with pytest.raises(ValueError):
            isotropic_state(-0.1)


@st.composite
def pair_densities(draw):
    """Two-qubit densities: random of any rank, isotropic, diagonal, or zero-laden.

    A zero-laden density is a direct sum of random blocks on a random partition
    of the four basis states, and every zero entry gets a random sign in its
    real and its imaginary part: a gather keeps a -0.0 that a BLAS product
    would turn into +0.0.
    """
    kind = draw(st.sampled_from(["random", "isotropic", "diagonal", "zero-laden"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "isotropic":
        return isotropic_state(draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)))
    if kind == "random":
        rank = draw(st.integers(1, 4))
        return DensityOperator(PartyDims((2, 2)), random_density((2, 2), rng, rank))
    if kind == "diagonal":
        w = rng.random(4) * (rng.random(4) < 0.7)
        w[rng.integers(4)] += 0.5
        return DensityOperator(PartyDims((2, 2)), np.diag(w / w.sum()).astype(complex))
    labels = rng.integers(0, 3, size=4)
    mat = np.zeros((4, 4), dtype=complex)
    for label in np.unique(labels):
        block = np.flatnonzero(labels == label)
        sub = random_density((len(block),), rng, int(rng.integers(1, len(block) + 1)))
        mat[np.ix_(block, block)] = rng.random() * sub
    mat /= np.trace(mat).real
    zero = mat == 0
    signs = np.where(rng.random((2, 4, 4)) < 0.5, -0.0, 0.0)
    mat.real[zero], mat.imag[zero] = signs[0][zero], signs[1][zero]
    mat.imag[np.diag_indices(4)] = signs[1].diagonal()
    return DensityOperator(PartyDims((2, 2)), mat)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pair_densities())
def test_twirl_and_round_are_their_loop_oracles_bit_for_bit(rho):
    assert twirl_to_isotropic(rho).matrix.tobytes() == loop_twirl_to_isotropic(rho).matrix.tobytes()
    accept, post = recurrence_round(rho)
    want_accept, want_post = loop_recurrence_round(rho)
    assert accept.hex() == want_accept.hex()
    assert post.matrix.tobytes() == want_post.matrix.tobytes()


def test_rounds_redo_no_constant_work(monkeypatch):
    """After the first twirl no kron is formed; a round forms no kron, builds
    or runs no measurement and applies no unitary.  It validates three density
    operators: the two kept post-pairs and their mixture, the surviving pair
    (the 16 x 16 joint and its two post-states, five per round before, are
    never formed)."""
    rho = DensityOperator(PartyDims((2, 2)), random_density((2, 2), np.random.default_rng(3)))
    twirl_to_isotropic(rho)
    calls = {"kron": 0, "measurement": 0, "measure": 0, "unitary": 0, "density": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(np, "kron", counting("kron", np.kron))
    monkeypatch.setattr(
        qcore.ProjectiveMeasurement,
        "__post_init__",
        counting("measurement", qcore.ProjectiveMeasurement.__post_init__),
    )
    branches = counting("measure", qcore._local_branches)  # every measurement's kernel
    unitary = counting("unitary", qcore.apply_local_unitary)
    for module in (distill, qcore):
        monkeypatch.setattr(module, "_local_branches", branches)
        monkeypatch.setattr(module, "apply_local_unitary", unitary)
    monkeypatch.setattr(
        qcore.DensityOperator,
        "__post_init__",
        counting("density", qcore.DensityOperator.__post_init__),
    )
    twirl_to_isotropic(rho)
    assert calls == {"kron": 0, "measurement": 0, "measure": 0, "unitary": 0, "density": 1}
    for _ in range(3):
        recurrence_round(rho)
    assert calls == {"kron": 0, "measurement": 0, "measure": 0, "unitary": 0,
                     "density": 1 + 3 * 3}


@pytest.mark.parametrize("last", [0.0, -1e-16])
def test_round_with_a_pruned_outcome_mixes_one_term(monkeypatch, last):
    """On a diagonal pair whose entries x and x^3 never both hold weight,
    outcome 11 has probability zero, or below zero by a rounding-sized
    negative entry and clipped as ``measure`` clips it: it is pruned, and the
    surviving pair is outcome 00's alone, bit for bit the loop oracle's."""
    rho = DensityOperator(PartyDims((2, 2)), np.diag([0.6, 0.4, 0.0, last]).astype(complex))
    seen = []

    def recording(terms):
        seen.append(len(terms))
        return mix(terms)

    monkeypatch.setattr(distill, "mix", recording)
    accept, post = recurrence_round(rho)
    want_accept, want_post = loop_recurrence_round(rho)
    assert seen == [1]
    assert accept.hex() == want_accept.hex() and accept == 0.6**2 + 0.4**2
    assert post.matrix.tobytes() == want_post.matrix.tobytes()


def test_round_refuses_outcomes_that_miss_the_joint_diagonal(monkeypatch):
    """With every outcome's index map the identity, the four outcome blocks no
    longer tile the joint diagonal: each reads sum_x rho[x, x]^2, and the
    probabilities fail the target-pair readout's sum check with its message.
    The isotropic pair at F = 0.7 has diagonal (0.4, 0.1, 0.1, 0.4), so they
    sum to 4 * 0.34."""
    monkeypatch.setattr(distill, "_XOR", np.zeros((4, 4), dtype=int) + np.arange(4))
    rho = isotropic_state(0.7)
    with pytest.raises(qcore.InvariantError, match=(
        r"^measurement on parties \(2, 3\) of dims \(2, 2, 2, 2\): probabilities sum to "
        r"1\.3599999999999994, residual 3\.600e-01 exceeds 1e-09$"
    )):
        recurrence_round(rho)


def test_round_sums_each_outcome_in_the_joint_traces_order():
    """Each outcome's probability is summed as ``np.trace`` sums the 16-entry
    joint diagonal with that outcome's four entries at 4x + k and zeros
    elsewhere, which is not the pairwise order ``np.sum`` gives four complex
    terms."""
    rng = np.random.default_rng(17)
    xor = np.arange(4) ^ np.arange(4)[:, None]
    orders_differ = 0
    for _ in range(300):
        rho = DensityOperator(PartyDims((2, 2)), random_density((2, 2), rng))
        terms = rho.matrix.diagonal() * rho.matrix.diagonal()[xor]  # [k, x]
        pads = np.zeros((4, 16), dtype=complex)
        pads[np.arange(4)[:, None], 4 * np.arange(4) + np.arange(4)[:, None]] = terms
        traced = [float(np.real(np.trace(np.diag(pad)))) for pad in pads]
        orders_differ += any(float(np.sum(t).real) != p for t, p in zip(terms, traced))
        assert recurrence_round(rho)[0].hex() == (traced[0] + traced[3]).hex()
    assert orders_differ > 100


def test_cached_cliffords_and_superoperators_are_read_only():
    members = distill._single_qubit_cliffords()
    assert isinstance(members, tuple) and len(members) == 24
    assert distill._single_qubit_cliffords() is members
    bigs, adjs = distill._twirl_superoperators()
    assert bigs.shape == adjs.shape == (24, 4, 4)
    assert adjs.tobytes() == bigs.conj().transpose(0, 2, 1).tobytes()
    for array in (members[0], bigs, adjs):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 2.0


class TestRecurrence:
    @pytest.mark.parametrize("f", [0.55, 0.6, 2 / 3, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95])
    def test_matches_closed_form(self, f):
        prob, out = recurrence_round(isotropic_state(f))
        assert abs(prob - recurrence_accept_prob(f)) < 1e-12
        assert abs(fidelity_pure(out, bell_pair("phi+")) - recurrence_map(f)) < 1e-12

    def test_fixed_points(self):
        _, out = recurrence_round(isotropic_state(1.0))
        assert abs(fidelity_pure(out, bell_pair("phi+")) - 1.0) < 1e-12
        _, out = recurrence_round(isotropic_state(0.5))
        assert abs(fidelity_pure(out, bell_pair("phi+")) - 0.5) < 1e-12

    def test_improves_above_threshold(self):
        for f in (0.55, 0.7, 0.9):
            _, out = recurrence_round(isotropic_state(f))
            assert fidelity_pure(out, bell_pair("phi+")) > f


class TestPipeline:
    def test_rejects_bad_round_count(self):
        with pytest.raises(ValueError):
            distill_pipeline(isotropic_state(0.7), 0)

    def test_trajectory_strictly_increases(self):
        result = distill_pipeline(prop1_residual(), 3)
        assert result.status == "ok"
        fids = result.fidelities
        assert len(fids) == 4  # initial + three rounds
        assert all(b > a for a, b in zip(fids, fids[1:]))
        probs = [q for _, q in result.trajectory]
        assert all(b < a for a, b in zip(probs, probs[1:]))

    def test_not_distillable_below_threshold(self):
        result = distill_pipeline(isotropic_state(0.3), 2)
        assert result.status == "not_distillable"
        assert result.fidelities[0] <= DISTILLABLE_FIDELITY

    def test_pure_nonmaximal_is_filtered_to_unit_fidelity(self):
        st = ket([0.8, 0, 0, 0.6], (2, 2))
        result = distill_pipeline(st.density(), 1)
        assert result.filtered
        assert abs(result.filter_probability - 2 * 0.36) < 1e-9
        assert abs(result.fidelities[0] - 1.0) < 1e-9

    def test_separable_input_reports_not_distillable(self):
        rho = mix([
            (0.5, basis_ket((2, 2), (0, 0)).density()),
            (0.5, basis_ket((2, 2), (1, 1)).density()),
        ])
        assert distill_pipeline(rho, 2).status == "not_distillable"
