"""prop2/prop3 copy chains: one measurement per copy step, same results.

``copy_chain`` builds the mixture's terms once and postselects each copy once
(``qcore.postselect_levels``), which reads the copy's qubit pair off the one
term its postselection keeps; the run (``replay_chain``) and the exact branch
tree (``chain_leaves``) are read off the chain.  These tests pin the number
of term builds, measurements, kernel calls, density operators, ``eigh`` calls
and relabels of one CLI op and of one chain (none of the last three), and
compare runs and trees with the measure-as-you-go oracles in ``helpers``,
which measure the dense mixture of the hand-placed
``loop_prop2_terms``/``loop_prop3_terms``, diagonalize each reduced pair and
merge with ``loop_merge_chain_to_ghz``.  Steps and trees agree bit for bit.
The merge's one Kraus product per fused pair sums in another order than the
oracle's measurements, and its pairs are read off their terms where the
oracle diagonalizes, so its probability, its final state and that state's
negativities agree within ``FUSION_ATOL``.
The sigma runner postselects its pairs on the sigma terms the same way, and
its tree sums its splits off their diagonal: neither forms a density operator.
"""

import numpy as np
import pytest

from gmesim import cli, protocols, qcore
from gmesim.protocols import (
    ProtocolConfig,
    chain_leaves,
    copy_chain,
    monte_carlo,
    normalize_schmidt,
    replay_chain,
    run_prop2,
    run_prop3,
    sample_leaves,
)

from helpers import (
    assert_same_run,
    bits,
    loop_prop2_tree,
    loop_prop3_tree,
    loop_run_prop2,
    loop_run_prop3,
)

ORACLES = {
    "prop2": (loop_run_prop2, loop_prop2_tree),
    "prop3": (loop_run_prop3, loop_prop3_tree),
}
SEEDS = range(30)
#: Sampled runs per seed, each drawing on from where the last one stopped
#: (fewer for prop3, whose oracle rebuilds the 256-dim state every run).
SAMPLED_RUNS = {"prop2": 8, "prop3": 2}


#: Row-dot passes of one prop2 (m = 2) and prop3 (m = 3) fusion: one per fused
#: pair, over the images of its one Kraus product (see ``merge_chain_to_ghz``).
FUSION_STAGES = {"prop2": 1, "prop3": 2}


@pytest.mark.parametrize("protocol", ["prop2", "prop3"])
def test_cli_op_builds_the_terms_once_and_measures_only_the_merge(monkeypatch, capsys, protocol):
    """The copies are postselected on the terms; the tree adds no measurement.

    The merge measures its branches as stacks, so ``measure`` is never called;
    each fusion stage is one Kraus product with one row-dot pass, and the
    axis-local kernel never runs, not for the stages and not for the
    corrections of the one branch the run draws, which move and negate
    amplitudes by index.
    """
    calls = {"build": 0, "measure": 0, "kernel": 0, "stage": 0}
    build, measure, kernel = protocols._chain_terms, protocols.measure, qcore._local_kernel
    row_dots = protocols._row_dots
    sample_merge, drawn = protocols._sample_merge, []

    def recording_sample_merge(*args):
        drawn.append(sample_merge(*args))
        return drawn[-1]

    def counting_build(*args, **kwargs):
        calls["build"] += 1
        return build(*args, **kwargs)

    def counting_measure(*args, **kwargs):
        calls["measure"] += 1
        return measure(*args, **kwargs)

    def counting_kernel(*args, **kwargs):
        calls["kernel"] += 1
        return kernel(*args, **kwargs)

    def counting_row_dots(*args):
        calls["stage"] += 1
        return row_dots(*args)

    monkeypatch.setattr(protocols, "_chain_terms", counting_build)
    monkeypatch.setattr(protocols, "measure", counting_measure)
    monkeypatch.setattr(protocols, "_sample_merge", recording_sample_merge)
    monkeypatch.setattr(qcore, "_local_kernel", counting_kernel)
    monkeypatch.setattr(protocols, "_row_dots", counting_row_dots)
    assert cli.main([protocol, "--seed", "3", "--shots", "200"]) == 0
    assert capsys.readouterr().out
    assert len(drawn) == 1
    assert calls == {"build": 1, "measure": 0, "kernel": 0, "stage": FUSION_STAGES[protocol]}


def count_calls(monkeypatch) -> dict:
    """Count from now on the ``DensityOperator`` builds, the ``np.linalg.eigh`` calls
    (``to_pure`` diagonalizes with it) and the ``relabel_subspace`` calls."""
    counts = {"DensityOperator": 0, "eigh": 0, "relabel_subspace": 0}

    def counting(name, call):
        def counted(*args, **kwargs):
            counts[name] += 1
            return call(*args, **kwargs)
        return counted

    validate = qcore.DensityOperator.__post_init__
    monkeypatch.setattr(qcore.DensityOperator, "__post_init__",
                        counting("DensityOperator", validate))
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    relabel = counting("relabel_subspace", qcore.relabel_subspace)
    for module in (qcore, protocols):
        monkeypatch.setattr(module, "relabel_subspace", relabel, raising=False)
    return counts


NONE_FORMED = {"DensityOperator": 0, "eigh": 0, "relabel_subspace": 0}


@pytest.mark.parametrize("protocol", ["prop2", "prop3"])
def test_cli_op_forms_no_density_operator_eigh_or_relabel(monkeypatch, capsys, protocol):
    """No mixture, no post-state and no pair becomes a density operator; no pair
    is diagonalized or relabeled: each is read off its term by index."""
    counts = count_calls(monkeypatch)
    assert cli.main([protocol, "--seed", "3", "--shots", "200"]) == 0
    assert capsys.readouterr().out
    assert counts == NONE_FORMED


@pytest.mark.parametrize("protocol", ["prop2", "prop3"])
def test_copy_chain_runs_no_measure_density_operator_eigh_or_relabel(monkeypatch, protocol):
    calls = []
    measure = qcore.measure

    def counting_measure(*args, **kwargs):
        calls.append(args)
        return measure(*args, **kwargs)

    for module in (qcore, protocols):
        monkeypatch.setattr(module, "measure", counting_measure)
    counts = count_calls(monkeypatch)
    chain = copy_chain(protocol, random_config(protocol, 0))
    assert all(pair is not None for pair in chain.pairs)
    assert calls == []
    assert counts == NONE_FORMED


#: (config, the last step's text): both first branches of the teleport route,
#: the merge route and a run that exhausts its copies
SIGMA_RUNS = [
    (ProtocolConfig(p=0.35, seed=2), "teleport GHZ legs to A and C through both pairs"),
    (ProtocolConfig(p=0.35, seed=1), "teleport GHZ legs to A and C through both pairs"),
    (ProtocolConfig(schmidt_coeffs=normalize_schmidt([1.0, 0.6]), seed=1),
     "pair merge: parity then +/- readout at B"),
    (ProtocolConfig(max_copies=1, seed=1), "split {levels 0,1} vs {flag level 2} on A"),
]


@pytest.mark.parametrize("config,last", SIGMA_RUNS)
def test_sigma_run_forms_no_density_operator(monkeypatch, config, last):
    """Each kept pair is read off the one sigma term its postselection keeps: no
    density operator on the (3, 2, 3) space, no post-state, no pair reduction."""
    counts = count_calls(monkeypatch)
    report = protocols.run_sigma_adaptive(config)
    assert report.steps[-1].measurement == last
    assert counts["DensityOperator"] == 0


def test_sigma_tree_forms_no_density_operator(monkeypatch):
    counts = count_calls(monkeypatch)
    for coeffs in (None, normalize_schmidt([1.0, 0.6])):
        monte_carlo("sigma", ProtocolConfig(schmidt_coeffs=coeffs, shots=100))
    assert counts["DensityOperator"] == 0


def random_config(protocol: str, seed: int) -> ProtocolConfig:
    rng = np.random.default_rng(1000 + seed)
    n = 3 if protocol == "prop2" else 4
    return ProtocolConfig(
        p=float(rng.uniform(0.1, 0.9)),
        weights=tuple(float(w) for w in rng.dirichlet([2.0, 2.0, 2.0])),
        schmidt_coeffs=normalize_schmidt(rng.uniform(0.2, 1.5, n)),
        shots=500,
        seed=seed,
    )


@pytest.mark.parametrize("protocol", sorted(ORACLES))
@pytest.mark.parametrize("seed", SEEDS)
def test_chain_matches_the_measure_as_you_go_oracles(protocol, seed):
    loop_run, loop_tree = ORACLES[protocol]
    config = random_config(protocol, seed)
    chain = copy_chain(protocol, config)

    # postselected: the merge branch is the only draw
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    new = replay_chain(chain, new_rng, postselect_success=True)
    assert new.success
    assert_same_run(new, loop_run(config, old_rng, postselect_success=True), exact=False)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state

    # sampled: one shared generator per side across consecutive runs
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(SAMPLED_RUNS[protocol]):
        assert_same_run(replay_chain(chain, new_rng), loop_run(config, old_rng), exact=False)
        assert new_rng.bit_generator.state == old_rng.bit_generator.state

    assert bits(chain_leaves(chain)) == bits(loop_tree(config))


@pytest.mark.parametrize("runner", [run_prop2, run_prop3])
def test_public_runners_and_monte_carlo_read_one_chain(runner):
    protocol = runner.__name__.removeprefix("run_")
    config = random_config(protocol, 0)
    chain = copy_chain(protocol, config)
    for postselect in (False, True):
        assert_same_run(runner(config, postselect_success=postselect),
                        replay_chain(chain, postselect_success=postselect))
    assert monte_carlo(protocol, config) == sample_leaves(
        protocol, chain_leaves(chain), config.shots, config.seed
    )


def test_chain_keeps_only_the_pairs():
    chain = copy_chain("prop3", ProtocolConfig())
    assert [len(copy) for copy in chain.steps] == [2, 2, 2]
    assert all(len(probs) == 3 for copy in chain.steps for probs in copy)
    assert [pair.dims.dims for pair in chain.pairs] == [(2, 2)] * 3


def test_pruned_accepting_branch_is_a_domain_error():
    # the entangled block carries 2e-14 of the weight: copy one's accepting
    # branch is pruned, so a forced acceptance has no pair to merge
    config = ProtocolConfig(schmidt_coeffs=normalize_schmidt([1.0, 1e-7, 1e-7]))
    chain = copy_chain("prop2", config)
    assert chain.pairs[0] is None
    with pytest.raises(ValueError, match="copy 1 has probability at or below"):
        replay_chain(chain, postselect_success=True)
    # the tree needs no pair, and sampled runs reject as before
    assert bits(chain_leaves(chain)) == bits(loop_prop2_tree(config))
    assert_same_run(replay_chain(chain), loop_run_prop2(config))


def test_unknown_family_is_refused():
    with pytest.raises(ValueError, match="no copy chain for protocol .sigma.; expected prop2 or prop3"):
        copy_chain("sigma", ProtocolConfig())
