"""Protocol runners: builders, pair merging, teleportation, Monte Carlo."""

import math

import numpy as np
import pytest

from gmesim import protocols, qcore
from gmesim.entanglement import Bipartition, certify_gme_pure, negativity
from gmesim.protocols import (
    MergeResult,
    ProtocolConfig,
    ProtocolReport,
    StepRecord,
    analytic_Pn,
    build_prop1_example,
    build_prop1_general,
    build_prop2_state,
    build_prop3_state,
    build_sigma,
    build_sigma_prime,
    distribute_via_teleportation,
    merge_chain_to_ghz,
    monte_carlo,
    normalize_schmidt,
    run_prop1_step,
    run_prop2,
    run_prop3,
    run_sigma_adaptive,
    sigma_scan,
    teleport,
)
from gmesim.qcore import (
    PartyDims,
    PureState,
    basis_ket,
    bell_pair,
    fidelity_pure,
    ghz_state,
    ket,
    permute_parties,
)

from helpers import (
    bell_vec,
    ghz_vec,
    kron_all,
    loop_negativity,
    loop_sigma_scan,
    merge_branch_amplitudes,
    random_pure,
)

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)


def proj(vec):
    v = np.asarray(vec, dtype=complex)
    return np.outer(v, v.conj())


class TestConfig:
    def test_defaults(self):
        cfg = ProtocolConfig()
        assert cfg.p == 0.5
        assert cfg.shots == 100_000
        assert cfg.coeffs_or_uniform(3) == pytest.approx((1 / math.sqrt(3),) * 3)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7])
    def test_p_range(self, p):
        with pytest.raises(ValueError):
            ProtocolConfig(p=p)

    def test_weights_must_be_three_positive_normalized(self):
        with pytest.raises(ValueError):
            ProtocolConfig(weights=(0.5, 0.5))
        with pytest.raises(ValueError):
            ProtocolConfig(weights=(0.5, 0.5, 0.1))
        with pytest.raises(ValueError):
            ProtocolConfig(weights=(1.2, -0.1, -0.1))

    def test_schmidt_coeffs_checked(self):
        with pytest.raises(ValueError):
            ProtocolConfig(schmidt_coeffs=(0.5, 0.5))  # squares sum to 1/2
        with pytest.raises(ValueError):
            ProtocolConfig(schmidt_coeffs=(-0.8, 0.6))
        cfg = ProtocolConfig(schmidt_coeffs=(0.8, 0.6))
        with pytest.raises(ValueError):
            cfg.coeffs_or_uniform(3)  # wrong arity for a three-level protocol

    def test_counts(self):
        with pytest.raises(ValueError):
            ProtocolConfig(shots=0)
        with pytest.raises(ValueError):
            ProtocolConfig(max_copies=0)

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            ProtocolConfig(seed=-1)
        assert ProtocolConfig(seed=0).seed == 0

    def test_normalize_schmidt(self):
        out = normalize_schmidt((1.0, 1.0, 1.0))
        assert out == pytest.approx((1 / math.sqrt(3),) * 3)
        assert sum(c * c for c in normalize_schmidt((0.3, 0.9))) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            normalize_schmidt((1.0, 0.0))

    def test_step_record_validation(self):
        with pytest.raises(ValueError):
            StepRecord(1, "A", "m", 0, 1.5, False)
        with pytest.raises(ValueError):
            StepRecord(1, "A", "m", 0, 0.0, True)

    def test_report_success_requires_state(self):
        with pytest.raises(ValueError):
            ProtocolReport("prop1", ProtocolConfig(), (), 1, True)


class TestBuilders:
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_prop1_example_matrix(self, p):
        """The mixture is p * (phi+ (x) |0>) + (1-p) * (|1> (x) phi-)."""
        term1 = proj(kron_all([bell_vec("phi+"), E0]))
        term2 = proj(kron_all([E1, bell_vec("phi-")]))
        rho = build_prop1_example(p)
        np.testing.assert_allclose(rho.matrix, p * term1 + (1 - p) * term2, atol=1e-12)

    def test_prop1_general_rejects_product_pair(self):
        zero = basis_ket((2,), (0,))
        product = ket([1.0, 0.0, 0.0, 0.0], (2, 2))
        with pytest.raises(ValueError, match="entangled"):
            build_prop1_general(product, zero, zero, bell_pair("phi-"), 0.5)
        with pytest.raises(ValueError):
            build_prop1_general(bell_pair("phi+"), zero, zero, product, 0.5)
        with pytest.raises(ValueError):
            build_prop1_example(1.0)

    def test_prop2_matrix(self):
        c = (0.2, 0.5, math.sqrt(1 - 0.04 - 0.25))
        psi = np.zeros(9, dtype=complex)
        psi[0], psi[4], psi[8] = c
        zero3 = np.array([1, 0, 0], dtype=complex)
        want = 0.3 * proj(kron_all([psi, zero3])) + 0.7 * proj(kron_all([zero3, psi]))
        np.testing.assert_allclose(build_prop2_state(c, 0.3).matrix, want, atol=1e-12)

    def test_prop2_validation(self):
        with pytest.raises(ValueError):
            build_prop2_state((0.5, 0.5, 0.5), 0.5)  # squares sum to 3/4
        with pytest.raises(ValueError):
            build_prop2_state((1 / math.sqrt(3),) * 3, 0.0)

    def test_sigma_amplitude_placement(self):
        """A's flag level tags the B-C pair and C's tags the A-B pair."""
        p = 0.3
        s = 1 / math.sqrt(2)
        bc = np.zeros(18, dtype=complex)
        bc[12], bc[16] = s, s  # (2,0,0) and (2,1,1) for dims (3,2,3)
        ab = np.zeros(18, dtype=complex)
        ab[2], ab[11] = s, s  # (0,0,2) and (1,1,2)
        want = p * proj(bc) + (1 - p) * proj(ab)
        np.testing.assert_allclose(build_sigma(p).matrix, want, atol=1e-12)

    def test_sigma_prime_rejects_maximal_and_product(self):
        with pytest.raises(ValueError, match="build_sigma"):
            build_sigma_prime(bell_pair("phi+"), 0.5)
        with pytest.raises(ValueError, match="entangled"):
            build_sigma_prime(ket([1, 0, 0, 0], (2, 2)), 0.5)
        rho = build_sigma_prime(ket([0.8, 0, 0, 0.6], (2, 2)), 0.5)
        assert rho.dims.dims == (3, 2, 3)

    def test_prop3_matrix(self):
        c = (0.5, 0.5, 0.5, 0.5)
        w = (0.2, 0.3, 0.5)
        psi = np.zeros(16, dtype=complex)
        for i, ci in enumerate(c):
            psi[i * 4 + i] = ci
        zero4 = np.zeros(4, dtype=complex)
        zero4[0] = 1.0
        one4 = np.zeros(4, dtype=complex)
        one4[1] = 1.0
        want = (
            w[0] * proj(kron_all([psi, zero4, zero4]))
            + w[1] * proj(kron_all([zero4, psi, one4]))
            + w[2] * proj(kron_all([one4, one4, psi]))
        )
        np.testing.assert_allclose(build_prop3_state(c, w).matrix, want, atol=1e-12)

    def test_prop3_validation(self):
        good_c = (0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            build_prop3_state((0.5, 0.5, 0.5), (1 / 3,) * 3)
        with pytest.raises(ValueError):
            build_prop3_state(good_c, (0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            build_prop3_state(good_c, (1.0, -0.5, 0.5))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_prop1_example(0.3),
            lambda: build_prop2_state((0.2, 0.5, math.sqrt(1 - 0.04 - 0.25)), 0.3),
            lambda: build_sigma(0.3),
            lambda: build_sigma_prime(ket([0.8, 0, 0, 0.6], (2, 2)), 0.3),
            lambda: build_prop3_state((0.4, 0.5, 0.6, math.sqrt(1 - 0.77)), (0.2, 0.3, 0.5)),
        ],
        ids=["prop1", "prop2", "sigma", "sigma_prime", "prop3"],
    )
    def test_pure_terms_mix_like_their_densities_bit_for_bit(self, monkeypatch, build):
        direct = build()

        def mix_of_densities(terms):
            assert all(isinstance(term, PureState) for _, term in terms)
            return qcore.mix([(w, term.density()) for w, term in terms])

        monkeypatch.setattr(protocols, "mix", mix_of_densities)
        assert build().matrix.tobytes() == direct.matrix.tobytes()


class TestSingleStep:
    """The one-measurement protocol on the three-qubit mixture."""

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_branch_probabilities(self, p):
        branches = run_prop1_step(build_prop1_example(p), basis_ket((2,), (0,)))
        assert branches[0].probability == pytest.approx((1 + p) / 2, abs=1e-12)
        assert branches[1].probability == pytest.approx((1 - p) / 2, abs=1e-12)

    def test_kept_branch_is_entangled_and_matches_loop_negativity(self):
        branches = run_prop1_step(build_prop1_example(0.5), basis_ket((2,), (0,)))
        kept = branches[0]
        assert kept.entangled
        assert kept.negativity == pytest.approx((math.sqrt(5) - 1) / 6, abs=1e-12)
        assert kept.negativity == pytest.approx(
            loop_negativity(kept.pair_state.matrix, (2, 2), {0}), abs=1e-12
        )
        # the kept mixture is 2/3 phi+ plus 1/3 |10><10|
        assert fidelity_pure(kept.pair_state, bell_pair("phi+")) == pytest.approx(2 / 3)

    def test_rejected_branch_is_separable(self):
        branches = run_prop1_step(build_prop1_example(0.5), basis_ket((2,), (0,)))
        lost = branches[1]
        assert not lost.entangled
        assert lost.negativity == pytest.approx(0.0, abs=1e-12)
        assert fidelity_pure(lost.pair_state, ket([0, 0, 0, 1], (2, 2))) == pytest.approx(1.0)

    def test_rejects_a_state_that_is_not_three_party(self):
        with pytest.raises(ValueError, match="three-party"):
            run_prop1_step(bell_pair("phi+").density(), basis_ket((2,), (0,)))


class TestMerge:
    def test_two_uniform_pairs_give_uniform_ghz_on_every_branch(self):
        result = merge_chain_to_ghz([bell_pair("phi+"), bell_pair("phi+")])
        assert isinstance(result, MergeResult)
        assert len(result.branches) == 4
        target = ghz_state(3)
        for branch in result.branches:
            assert branch.probability == pytest.approx(0.25, abs=1e-12)
            assert fidelity_pure(branch.state, target) == pytest.approx(1.0, abs=1e-12)
        assert sum(b.probability for b in result.branches) == pytest.approx(1.0)

    def test_corrections_are_recorded_per_branch(self):
        result = merge_chain_to_ghz([bell_pair("phi+"), bell_pair("phi+")])
        by_outcome = {
            (b.parity_pattern, b.sign_pattern): b.corrections for b in result.branches
        }
        assert by_outcome[((0,), (0,))] == ()
        assert by_outcome[((0,), (1,))] == ("Z@0",)
        assert by_outcome[((1,), (0,))] == ("X@1", "X@2")
        assert by_outcome[((1,), (1,))] == ("X@1", "X@2", "Z@0")

    @pytest.mark.parametrize("n_pairs,n_branches", [(2, 4), (3, 16), (4, 64)])
    def test_branch_count(self, n_pairs, n_branches):
        result = merge_chain_to_ghz([bell_pair("phi+")] * n_pairs)
        assert len(result.branches) == n_branches
        assert sum(b.probability for b in result.branches) == pytest.approx(1.0)

    @staticmethod
    def assert_prefix_xor_oracle(coeffs):
        """Merge a|00> + b|11> pairs; every branch follows the parity prefix."""
        pairs = [ket([a, 0, 0, b], (2, 2)) for a, b in coeffs]
        result = merge_chain_to_ghz(pairs)
        # alignment sorts each pair's coefficients into descending order
        expected_coeffs = [tuple(sorted(ab, reverse=True)) for ab in coeffs]
        for got, want in zip(result.pair_coefficients, expected_coeffs):
            assert got == pytest.approx(want, abs=1e-12)
        assert len(result.branches) == 4 ** (len(coeffs) - 1)
        for branch in result.branches:
            a0, a1, prob = merge_branch_amplitudes(
                result.pair_coefficients, branch.parity_pattern
            )
            assert branch.probability == pytest.approx(prob, abs=1e-12)
            norm = math.sqrt(a0 * a0 + a1 * a1)
            want = np.zeros(2 ** (len(coeffs) + 1), dtype=complex)
            want[0], want[-1] = a0 / norm, a1 / norm
            np.testing.assert_allclose(branch.state.amplitudes, want, atol=1e-9)

    def test_nonuniform_pairs_match_prefix_xor_oracle(self):
        """Branch amplitudes and probabilities follow the parity prefix."""
        self.assert_prefix_xor_oracle(
            [(0.9, math.sqrt(1 - 0.81)), (0.7, math.sqrt(0.51)), (0.6, 0.8)]
        )

    def test_five_unequal_pairs_match_prefix_xor_oracle_on_all_256_branches(self):
        raw = [(0.9, 0.3), (0.8, 0.5), (0.4, 0.7), (0.95, 0.2), (0.6, 0.55)]
        self.assert_prefix_xor_oracle([normalize_schmidt(ab) for ab in raw])

    def test_seven_pairs_are_refused_by_the_dimension_cap_before_measuring(self, monkeypatch):
        def no_measure(*args):
            raise AssertionError("merge measured before checking the dimension cap")

        monkeypatch.setattr(protocols, "measure", no_measure)
        monkeypatch.setattr(protocols, "_local_kernel", no_measure)
        with pytest.raises(ValueError, match="exceeds the cap"):
            merge_chain_to_ghz([bell_pair("phi+")] * 7)

    def test_swapped_coefficients_are_realigned(self):
        result = merge_chain_to_ghz([ket([0.6, 0, 0, 0.8], (2, 2)), bell_pair("phi+")])
        assert result.pair_coefficients[0] == pytest.approx((0.8, 0.6), abs=1e-12)

    def test_rejects_short_chains_and_product_pairs(self):
        with pytest.raises(ValueError):
            merge_chain_to_ghz([bell_pair("phi+")])
        with pytest.raises(ValueError, match="product"):
            merge_chain_to_ghz([bell_pair("phi+"), ket([1, 0, 0, 0], (2, 2))])


class TestTeleport:
    def test_all_four_outcomes_reproduce_the_input(self):
        rng = np.random.default_rng(7)
        state = PureState(PartyDims((2, 2, 2)), random_pure((2, 2, 2), rng))
        for outcome in range(4):
            out = teleport(state, 1, bell_pair("phi+"), outcome=outcome)
            assert abs(out.overlap(state)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_branch_agreement_check_runs(self):
        rng = np.random.default_rng(8)
        state = PureState(PartyDims((2, 3, 2)), random_pure((2, 3, 2), rng))
        out = teleport(state, 2, bell_pair("phi+"))
        assert out.dims.dims == (2, 3, 2)
        assert abs(out.overlap(state)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_qutrit_neighbor_does_not_confuse_the_slot(self):
        rng = np.random.default_rng(9)
        state = PureState(PartyDims((2, 3, 2)), random_pure((2, 3, 2), rng))
        out = teleport(state, 0, bell_pair("phi+"), outcome=3)
        assert abs(out.overlap(state)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_rejects_partially_entangled_resource(self):
        with pytest.raises(ValueError, match="merge_chain_to_ghz"):
            teleport(ghz_state(3), 0, ket([0.8, 0, 0, 0.6], (2, 2)))
        with pytest.raises(ValueError):
            teleport(ghz_state(3), 0, bell_pair("psi-"))

    def test_rejects_bad_input_party(self):
        with pytest.raises(ValueError):
            teleport(ghz_state(3), 5, bell_pair("phi+"))
        qutrit_mid = PureState(PartyDims((2, 3)), random_pure((2, 3), np.random.default_rng(0)))
        with pytest.raises(ValueError):
            teleport(qutrit_mid, 1, bell_pair("phi+"))

    def test_distribute_all_outcome_combinations(self):
        ghz = ghz_state(3)
        transfers = [(0, bell_pair("phi+")), (2, bell_pair("phi+"))]
        for i in range(4):
            for j in range(4):
                out = distribute_via_teleportation(ghz, transfers, outcomes=[i, j])
                assert abs(out.overlap(ghz)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_distribute_outcome_arity(self):
        with pytest.raises(ValueError):
            distribute_via_teleportation(
                ghz_state(3), [(0, bell_pair("phi+"))], outcomes=[0, 1]
            )


class TestActivationRunners:
    def test_prop2_postselected_defaults(self):
        report = run_prop2(ProtocolConfig(), postselect_success=True)
        assert report.success and report.copies_consumed == 2
        assert report.analytic_success_prob == pytest.approx(1 / 9, abs=1e-12)
        meas = [s for s in report.steps if s.measurement.startswith("split")]
        assert [s.probability for s in meas] == pytest.approx([1 / 3, 1 / 3], abs=1e-12)
        assert fidelity_pure(report.final_state, ghz_state(3)) == pytest.approx(1.0, abs=1e-9)
        assert certify_gme_pure(report.final_state)[0]

    def test_prop2_analytic_tracks_schmidt_block(self):
        coeffs = normalize_schmidt((0.6, 0.5, 0.4))
        cfg = ProtocolConfig(p=0.3, schmidt_coeffs=coeffs)
        block = coeffs[1] ** 2 + coeffs[2] ** 2
        report = run_prop2(cfg, postselect_success=True)
        assert report.analytic_success_prob == pytest.approx(
            0.7 * block * 0.3 * block, abs=1e-12
        )
        assert certify_gme_pure(report.final_state)[0]

    def test_prop2_sampled_is_deterministic(self):
        cfg = ProtocolConfig(seed=11)
        a = run_prop2(cfg)
        b = run_prop2(cfg)
        assert a.success == b.success
        assert [(s.outcome_index, s.probability) for s in a.steps] == [
            (s.outcome_index, s.probability) for s in b.steps
        ]

    def test_prop2_measured_step_product_equals_analytic(self):
        report = run_prop2(ProtocolConfig(p=0.37), postselect_success=True)
        meas = [s for s in report.steps if s.measurement.startswith("split")]
        prod = math.prod(s.probability for s in meas)
        assert prod == pytest.approx(report.analytic_success_prob, abs=1e-12)

    def test_prop3_postselected_defaults(self):
        report = run_prop3(ProtocolConfig(), postselect_success=True)
        assert report.success and report.copies_consumed == 3
        assert report.analytic_success_prob == pytest.approx(1 / 216, abs=1e-12)
        assert len(report.steps) == 7  # six measurements plus the merge record
        assert fidelity_pure(report.final_state, ghz_state(4)) == pytest.approx(1.0, abs=1e-9)
        assert certify_gme_pure(report.final_state)[0]

    def test_prop3_measured_step_product_equals_analytic(self):
        cfg = ProtocolConfig(p=0.5, weights=(0.5, 0.3, 0.2))
        report = run_prop3(cfg, postselect_success=True)
        meas = [s for s in report.steps if s.measurement.startswith("split")]
        prod = math.prod(s.probability for s in meas)
        assert prod == pytest.approx(report.analytic_success_prob, abs=1e-12)
        assert report.analytic_success_prob == pytest.approx(0.5 * 0.3 * 0.2 / 8, abs=1e-12)

    def test_prop3_failure_reports_partial_steps(self):
        # seed chosen so the sampled path rejects before the third copy
        for seed in range(40):
            report = run_prop3(ProtocolConfig(seed=seed))
            if not report.success:
                assert report.final_state is None
                assert not report.steps[-1].accepted
                assert report.copies_consumed <= 3
                return
        pytest.fail("every seed in range produced a success; distribution is suspect")


def sigma_runs_over_both_first_branches(**fields):
    """Seeded sigma runs, from seed 0 up, until A's split has drawn both outcomes."""
    runs, firsts = [], set()
    for seed in range(40):
        report = run_sigma_adaptive(ProtocolConfig(seed=seed, **fields))
        runs.append(report)
        firsts.add(report.steps[0].outcome_index)
        if firsts == {0, 1}:
            return runs
    pytest.fail("forty seeds drew only one first outcome; the split is suspect")


class TestAdaptiveRunner:
    def test_first_copy_always_yields_a_pair(self):
        for report in sigma_runs_over_both_first_branches(p=0.3):
            first = report.steps[0]
            assert first.probability == pytest.approx((0.7, 0.3)[first.outcome_index], abs=1e-12)
            assert first.accepted

    def test_success_builds_uniform_ghz_via_teleportation(self):
        report = run_sigma_adaptive(ProtocolConfig(p=0.5, seed=3))
        assert report.success
        assert fidelity_pure(report.final_state, ghz_state(3)) == pytest.approx(1.0, abs=1e-9)
        assert report.steps[-1].measurement.startswith("teleport")
        assert certify_gme_pure(report.final_state)[0]

    def test_analytic_matches_repeat_law(self):
        # the repeat copies hunt for B-C (rate p) after A-B, and for A-B (1 - p) after B-C
        for report in sigma_runs_over_both_first_branches(p=0.3, max_copies=8):
            rate = (0.3, 0.7)[report.steps[0].outcome_index]
            assert report.analytic_success_prob == pytest.approx(analytic_Pn(rate, 7), abs=1e-12)

    def test_single_copy_budget_cannot_finish(self):
        report = run_sigma_adaptive(ProtocolConfig(max_copies=1))
        assert not report.success
        assert report.copies_consumed == 1
        assert report.final_state is None
        assert report.analytic_success_prob == pytest.approx(0.0, abs=1e-12)

    def test_partially_entangled_family_goes_through_the_merge(self):
        # both merged pairs share the (0.8, 0.6) profile: a correlated parity
        # (merge outcome 0 or 1) leaves 0.64|000> + 0.36|111>, renormalized,
        # and an anticorrelated one the uniform GHZ state; seeds 1 and 0 draw one each
        for seed, correlated in ((1, True), (0, False)):
            cfg = ProtocolConfig(p=0.5, schmidt_coeffs=(0.8, 0.6), max_copies=21, seed=seed)
            report = run_sigma_adaptive(cfg)
            assert report.success
            merge = report.steps[-1]
            assert merge.measurement.startswith("pair merge")
            assert (merge.outcome_index < 2) == correlated
            assert certify_gme_pure(report.final_state)[0]
            want = 0.5 / (0.64**2 + 0.36**2) if correlated else 1.0
            assert fidelity_pure(report.final_state, ghz_state(3)) == pytest.approx(want, abs=1e-12)


def test_analytic_pn_values_and_validation():
    assert analytic_Pn(0.3, 0) == 0.0
    assert analytic_Pn(0.3, 5) == pytest.approx(1 - 0.7**5, abs=1e-15)
    with pytest.raises(ValueError):
        analytic_Pn(0.0, 3)
    with pytest.raises(ValueError):
        analytic_Pn(0.3, -1)


class TestMonteCarlo:
    def test_prop1_exact_probability(self):
        cfg = ProtocolConfig(p=0.3, shots=20_000, seed=1)
        summary = monte_carlo("prop1", cfg)
        assert summary.exact_success_prob == pytest.approx(0.65, abs=1e-12)
        assert summary.mean_copies_consumed == 1.0
        assert abs(summary.success_rate - 0.65) < 0.01

    def test_prop2_exact_probability(self):
        summary = monte_carlo("prop2", ProtocolConfig(shots=30_000))
        assert summary.exact_success_prob == pytest.approx(1 / 9, abs=1e-12)
        assert len(summary.branches) == 3
        assert sum(b.probability for b in summary.branches) == pytest.approx(1.0)
        assert abs(summary.success_rate - 1 / 9) < 0.01

    def test_prop3_exact_probability(self):
        summary = monte_carlo("prop3", ProtocolConfig(shots=30_000))
        assert summary.exact_success_prob == pytest.approx(1 / 216, abs=1e-12)
        assert len(summary.branches) == 7  # six rejection leaves plus full success
        assert abs(summary.success_rate - 1 / 216) < 0.01

    def test_sigma_tree_follows_the_repeat_law_on_each_first_branch(self):
        summary = monte_carlo("sigma", ProtocolConfig(p=0.4, max_copies=6, shots=10_000))
        for name, first, rate in (("AB-first", 0.6, 0.4), ("BC-first", 0.4, 0.6)):
            leaves = [b for b in summary.branches if b.label.split(",")[0] == name]
            assert len(leaves) == 6  # five success depths plus exhaustion
            assert sum(b.probability for b in leaves) == pytest.approx(first, abs=1e-12)
            won = sum(b.probability for b in leaves if b.success) / first
            assert won == pytest.approx(analytic_Pn(rate, 5), abs=1e-12)

    def test_sigma_tree_mixes_both_first_branches(self):
        summary = monte_carlo("sigma", ProtocolConfig(p=0.4, max_copies=4, shots=10_000))
        labels = {b.label.split(",")[0] for b in summary.branches}
        assert labels == {"AB-first", "BC-first"}
        exact = 0.6 * analytic_Pn(0.4, 3) + 0.4 * analytic_Pn(0.6, 3)
        assert summary.exact_success_prob == pytest.approx(exact, abs=1e-12)

    def test_deterministic_given_seed(self):
        cfg = ProtocolConfig(p=0.5, shots=5_000, seed=77)
        a = monte_carlo("prop2", cfg)
        b = monte_carlo("prop2", cfg)
        assert a == b

    def test_unknown_protocol(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            monte_carlo("prop9", ProtocolConfig())


class TestScan:
    def test_shape_and_exact_columns(self):
        rows = sigma_scan([0.3, 0.5], n_max=4, shots=2_000, seed=9)
        assert len(rows) == 2 * 5
        for row in rows:
            assert row.analytic == pytest.approx(analytic_Pn(row.p, row.n) if row.n else 0.0)
            if row.n == 0:
                assert row.empirical == 0.0 and row.analytic == 0.0

    def test_accuracy_at_moderate_shots(self):
        rows = sigma_scan([0.3, 0.5, 0.7], n_max=8, shots=50_000, seed=42)
        assert max(row.abs_error for row in rows) < 0.01

    @pytest.mark.parametrize("seed", [0, 4, 9, 2029167940])
    def test_one_pass_tally_matches_the_per_n_oracle_bit_for_bit(self, seed):
        # low rates send many draws past n_max, high ones end most at copy 1
        p_list = [0.05, 0.5, 0.95]
        for n_max in (0, 1, 2, 7, 25):
            for shots in (1, 2, 3, 17, 1_000):
                new = sigma_scan(p_list, n_max, shots, seed)
                old = loop_sigma_scan(p_list, n_max, shots, seed)
                assert len(new) == len(old) == 3 * (n_max + 1)
                for a, b in zip(new, old):
                    assert np.array([a.p, a.n, a.analytic, a.empirical]).tobytes() == np.array(
                        [b.p, b.n, b.analytic, b.empirical]
                    ).tobytes()

    def test_deterministic(self):
        a = sigma_scan([0.5], 3, 1_000, seed=4)
        b = sigma_scan([0.5], 3, 1_000, seed=4)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            sigma_scan([], 3, 100, seed=0)
        with pytest.raises(ValueError):
            sigma_scan([0.5], -1, 100, seed=0)
        with pytest.raises(ValueError):
            sigma_scan([0.5], 3, 0, seed=0)


def test_sigma_scan_forms_no_state_or_measurement(monkeypatch):
    """Each rate is summed off the sigma terms' diagonal by the helper ``postselect_levels``
    uses: no density operator and no projective measurement is built."""
    constructed, summed = [], []
    for kind in (qcore.DensityOperator, qcore.ProjectiveMeasurement):
        monkeypatch.setattr(kind, "__post_init__", lambda self: constructed.append(self))
    diagonal = qcore._diagonal_probabilities

    def recorded(*args):
        summed.append(args)
        return diagonal(*args)

    monkeypatch.setattr(protocols, "_diagonal_probabilities", recorded)
    sigma_scan([0.3, 0.7], n_max=2, shots=10, seed=0)
    assert constructed == []
    assert len(summed) == 2


def test_sigma_scan_builds_no_pure_state(monkeypatch):
    """The phi+ sigma terms' states are built once, at import: a 4-rate scan builds
    none, where rebuilding them per rate would build 12 (the pair and two terms)."""
    built = []
    monkeypatch.setattr(qcore.PureState, "__post_init__", lambda self: built.append(self))
    rows = sigma_scan([0.1, 0.35, 0.6, 0.85], n_max=2, shots=10, seed=0)
    assert built == []
    assert len(rows) == 12


def test_sampled_sigma_run_reaches_ghz_without_conditioning():
    """End-to-end sampled run; the seed fixes the whole trajectory."""
    report = run_sigma_adaptive(ProtocolConfig(p=0.5, seed=123))
    assert report.copies_consumed >= 2
    if report.success:
        assert fidelity_pure(report.final_state, ghz_state(3)) == pytest.approx(1.0, abs=1e-9)


def test_permuted_pair_feeds_teleportation_in_the_adaptive_runner():
    """The A-B pair enters sender-first; a swapped copy must behave the same."""
    pair = bell_pair("phi+")
    assert abs(permute_parties(pair, (1, 0)).overlap(pair)) ** 2 == pytest.approx(1.0)


def test_protocol_invariant_errors_name_the_operation_sizes_and_residual(monkeypatch):
    """Each sum or agreement check reports what failed, how big it was and by how much."""
    measure = protocols.measure

    def halved(*args, **kwargs):
        return [qcore.MeasurementOutcome(o.outcome_index, o.probability / 2, o.post_state)
                for o in measure(*args, **kwargs)]

    measure_rows = protocols._measure_rows  # the qcore row kernel, as the merge calls it

    def halved_rows(*args):
        probs, live, rows = measure_rows(*args)
        return probs / 2, live, rows

    monkeypatch.setattr(protocols, "measure", halved)
    monkeypatch.setattr(protocols, "_measure_rows", halved_rows)
    with pytest.raises(qcore.InvariantError,
                       match=r"merge of 2 pairs: 4 branch probabilities sum to 0\.2499.*, "
                             r"residual -7\.500e-01 exceeds 1e-09"):
        merge_chain_to_ghz([bell_pair("phi+"), bell_pair("phi+")])
    with pytest.raises(qcore.InvariantError,
                       match=r"teleportation of party 1 of dims \(2, 2, 2\): Bell outcome 0 "
                             r"of 4 has probability 0\.124.*, expected 1/4, residual -1\.250e-01"):
        teleport(ghz_state(3), 1, bell_pair("phi+"))
    monkeypatch.undo()

    # no correction at all: branches 1-3 carry a Z, an X or both on the receiver
    monkeypatch.setattr(protocols, "_BELL_CORRECTIONS", (np.eye(2, dtype=complex),) * 4)
    with pytest.raises(qcore.InvariantError,
                       match=r"teleportation of party 1 of dims \(2, 2, 2\): after correction, "
                             r"Bell branch 1 of 4 has fidelity 0\.0 with branch 0, "
                             r"residual 1\.000e\+00 exceeds 1e-09"):
        teleport(ghz_state(3), 1, bell_pair("phi+"))

    leaves = [("a", 0.5, True, 1), ("b", 0.25, False, 1)]
    with pytest.raises(qcore.InvariantError,
                       match=r"sampling the prop2 tree: 2 leaf probabilities sum to 0\.75, "
                             r"residual -2\.500e-01 exceeds 1e-09"):
        protocols.sample_leaves("prop2", leaves, 10, 0)
