"""The sigma and prop1 descriptions and the one CLI wrapper against their oracles.

``run_sigma_adaptive`` and ``monte_carlo`` sum A's and C's splits off the
sigma terms' diagonal, and the runner postselects each pair it keeps on
those terms, never forming the sigma mixture; ``cli.main`` writes every
subcommand's artifact.  The oracles in ``helpers`` are the forms in which
each caller did that work itself: the sigma ones build the dense mixture and
measure it.  Everything is compared bit for bit: steps, final amplitudes,
certificates and generator state, or stdout, stderr and exit code.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from gmesim import cli, protocols
from gmesim.protocols import (
    ProtocolConfig,
    build_sigma,
    monte_carlo,
    normalize_schmidt,
    run_sigma_adaptive,
    sample_leaves,
)
from gmesim.qcore import PartyDims, PureState, mix

from helpers import loop_prop1_tree, loop_run_sigma_adaptive, loop_sigma_tree, oracle_main

SEEDS = range(30)
SIGMA_PAIRS = {
    "maximal": None,
    "maximal-within-atol": normalize_schmidt([1.0, 1.0 + 1e-10]),
    "unequal": normalize_schmidt([1.0, 0.6]),
}


def sigma_configs():
    for name, coeffs in SIGMA_PAIRS.items():
        for max_copies in (1, 2, 21):
            config = ProtocolConfig(p=0.35, schmidt_coeffs=coeffs, max_copies=max_copies)
            yield pytest.param(config, id=f"{name}-max{max_copies}")


def assert_same_report(got, want):
    assert got.steps == want.steps
    assert (got.copies_consumed, got.success) == (want.copies_consumed, want.success)
    assert got.analytic_success_prob == want.analytic_success_prob
    if want.final_state is None:
        assert got.final_state is None and got.certificates is None
        return
    assert got.final_state.dims == want.final_state.dims
    assert got.final_state.amplitudes.tobytes() == want.final_state.amplitudes.tobytes()
    assert got.certificates == want.certificates


class TestSigmaRunner:
    @pytest.mark.parametrize("config", list(sigma_configs()))
    def test_matches_the_oracle_bit_for_bit_with_the_same_generator_state(self, config):
        firsts = set()
        for seed in SEEDS:
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = run_sigma_adaptive(config, rng)
            assert_same_report(got, loop_run_sigma_adaptive(config, oracle_rng))
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            firsts.add(got.steps[0].outcome_index)
        assert firsts == {0, 1}  # the seeds reach both first branches

    def test_config_seeded_runs_match_the_oracle(self):
        for seed in SEEDS:
            config = ProtocolConfig(p=0.6, schmidt_coeffs=SIGMA_PAIRS["unequal"], seed=seed)
            assert_same_report(run_sigma_adaptive(config), loop_run_sigma_adaptive(config))

    def test_sigma_state_is_the_former_explicit_placement_bit_for_bit(self):
        dims = PartyDims((3, 2, 3))
        bc, ab = np.zeros(18, dtype=complex), np.zeros(18, dtype=complex)
        bc[12] = bc[16] = ab[2] = ab[11] = 1.0 / math.sqrt(2.0)
        for p in (0.1, 0.35, 0.5, 0.9):
            want = mix([(p, PureState(dims, bc)), (1.0 - p, PureState(dims, ab))])
            assert build_sigma(p).matrix.tobytes() == want.matrix.tobytes()


class TestTrees:
    @pytest.mark.parametrize("config", list(sigma_configs()))
    def test_sigma_monte_carlo_matches_the_oracle_tree(self, config):
        for seed in SEEDS[:5]:
            want = sample_leaves("sigma", loop_sigma_tree(config), 3000, seed)
            assert monte_carlo("sigma", replace(config, shots=3000, seed=seed)) == want

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.77])
    def test_prop1_monte_carlo_matches_the_oracle_tree(self, p):
        for seed in SEEDS:
            config = ProtocolConfig(p=p, shots=500, seed=seed)
            want = sample_leaves("prop1", loop_prop1_tree(config), 500, seed)
            assert monte_carlo("prop1", config) == want

    @pytest.mark.parametrize("protocol", ["prop1", "sigma", "prop2"])
    def test_shots_are_checked_once_by_the_sampler(self, protocol):
        leaves = protocols._TREES[protocol](ProtocolConfig())
        with pytest.raises(ValueError, match="shots must be a positive integer"):
            sample_leaves(protocol, leaves, 0, 42)


# every subcommand, --out, CSV and JSON, environment seeds and exit-2 errors
CLI_CASES = [
    ("prop1 --seed 3", {}),
    ("prop1 --pair-ab 1,2 --ref-a 0 --p 0.3 --charlie-outcome 1 --rounds 1", {}),
    ("prop2 --shots 3000 --seed 11", {}),
    ("prop2 --p 0.3 --schmidt 1,2,3 --no-mc --out {out}", {}),
    ("prop3 --shots 2000 --weights 1,2,3 --schmidt 1,1,2,2", {}),
    ("prop3 --no-mc --timestamp 2020-01-01T00:00:00Z", {}),
    ("sigma-scan --p-list 0.2,0.6 --n-max 4 --shots 500", {}),
    ("sigma-scan --p-list 0.5 --n-max 0 --shots 10 --out {out}", {}),
    ("sigma-scan --p-list 0.5 --n-max 3 --shots 100 --format json", {"GME_SEED": "9"}),
    ("certify --builtin prop1 --p 0.7", {"SOURCE_DATE_EPOCH": "86400"}),
    ("certify --builtin merged-ghz3 --out {out}", {}),
    ("certify --builtin ghz4", {}),
    ("svetlichny", {}),
    ("svetlichny --builtin phi+", {}),
    ("svetlichny --angles 0,0,0,0,0,0 --builtin merged-ghz3", {}),
    ("prop2 --p 0", {}),
    ("prop3 --weights 1,2", {}),
    ("sigma-scan --p-list ,", {"GME_SEED": "x"}),
    ("prop1 --ref-a 1 --pair-ab 1,2,3", {"SOURCE_DATE_EPOCH": "soon"}),
    ("prop1", {"GME_SEED": "x", "SOURCE_DATE_EPOCH": "soon"}),
    ("certify", {}),
    ("certify --builtin no-such-state", {}),
    ("certify --builtin ghz3 --out {missing}", {}),
    ("svetlichny --angles 0,1,2,3,4", {}),
]


@pytest.mark.parametrize("argv,env", CLI_CASES, ids=[a for a, _ in CLI_CASES])
def test_main_matches_the_handler_oracles(argv, env, monkeypatch, capsys, tmp_path):
    for name in ("GME_SEED", "SOURCE_DATE_EPOCH"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    runs = []
    for entry in (cli.main, oracle_main):
        out = tmp_path / f"{entry.__name__}.out"
        args = argv.format(out=out, missing=tmp_path / "no-dir" / "x.json").split()
        code = entry(args)
        captured = capsys.readouterr()
        runs.append((code, captured.out, captured.err, out.read_bytes() if out.exists() else None))
    assert runs[0] == runs[1]
    assert runs[0][0] == (2 if runs[0][2] else 0)
