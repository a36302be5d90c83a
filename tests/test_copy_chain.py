"""prop2/prop3 copy chains: one measurement per copy step, same results.

``copy_chain`` builds the mixture's terms once and postselects each copy once
(``qcore.postselect_levels``); the run (``replay_chain``) and the exact branch
tree (``chain_leaves``) are read off it.  These tests pin the number of term
builds, measurements, kernel calls and density operators of one CLI op and of
one chain, and compare runs and trees bit for bit with the measure-as-you-go
oracles in ``helpers``, which measure the dense mixture of the hand-placed
``loop_prop2_terms``/``loop_prop3_terms`` and merge with
``loop_merge_chain_to_ghz``.  The one exception is prop3's three-pair merge,
whose fused sums run in another order than the oracle's: its probability, its
final state and that state's negativities agree within ``FUSION_ATOL``.
"""

import dataclasses

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

from helpers import loop_prop2_tree, loop_prop3_tree, loop_run_prop2, loop_run_prop3

ORACLES = {
    "prop2": (loop_run_prop2, loop_prop2_tree),
    "prop3": (loop_run_prop3, loop_prop3_tree),
}
SEEDS = range(30)
#: Sampled runs per seed, each drawing on from where the last one stopped
#: (fewer for prop3, whose oracle rebuilds the 256-dim state every run).
SAMPLED_RUNS = {"prop2": 8, "prop3": 2}


#: Kernel calls of one prop2 (m = 2) and prop3 (m = 3) fusion: per fused pair
#: one each for the parity, the sign readout and the contraction (see
#: ``merge_chain_to_ghz``).  A sampled run then corrects the drawn branch
#: only, one call per correction it lists.
FUSION_KERNELS = {"prop2": 3 * 1, "prop3": 3 * 2}


@pytest.mark.parametrize("protocol", ["prop2", "prop3"])
def test_cli_op_builds_the_terms_once_and_measures_only_the_merge(monkeypatch, capsys, protocol):
    """The copies are postselected on the terms; the tree adds no measurement.

    The merge measures its branches as stacks, so ``measure`` is never called;
    the axis-local kernel runs a fixed number of times per fusion and once per
    correction of the one branch the run draws.
    """
    calls = {"build": 0, "measure": 0, "kernel": 0}
    build, measure, kernel = protocols._chain_terms, protocols.measure, qcore._local_kernel
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

    monkeypatch.setattr(protocols, "_chain_terms", counting_build)
    monkeypatch.setattr(protocols, "measure", counting_measure)
    monkeypatch.setattr(protocols, "_sample_merge", recording_sample_merge)
    for module in (qcore, protocols):
        monkeypatch.setattr(module, "_local_kernel", counting_kernel)
    assert cli.main([protocol, "--seed", "3", "--shots", "200"]) == 0
    assert capsys.readouterr().out
    ((_, branch),) = drawn
    kernels = FUSION_KERNELS[protocol] + len(branch.corrections)
    assert calls == {"build": 1, "measure": 0, "kernel": kernels}


def count_density_sizes(monkeypatch) -> list[int]:
    """Record the dimension of every ``DensityOperator`` built from now on."""
    sizes = []
    validate = qcore.DensityOperator.__post_init__

    def counting_validate(self):
        sizes.append(self.dims.total)
        validate(self)

    monkeypatch.setattr(qcore.DensityOperator, "__post_init__", counting_validate)
    return sizes


#: One reduced two-party density operator per copy: two qutrits or two ququarts.
PAIR_SIZES = {"prop2": [9] * 2, "prop3": [16] * 3}


@pytest.mark.parametrize("protocol", sorted(PAIR_SIZES))
def test_cli_op_forms_only_the_density_operators_it_reads(monkeypatch, capsys, protocol):
    """No mixture, no post-state and no rejected branch becomes a density operator."""
    sizes = count_density_sizes(monkeypatch)
    assert cli.main([protocol, "--seed", "3", "--shots", "200"]) == 0
    assert capsys.readouterr().out
    assert sizes == PAIR_SIZES[protocol]


@pytest.mark.parametrize("protocol", sorted(PAIR_SIZES))
def test_copy_chain_calls_no_measure_and_forms_only_the_pairs(monkeypatch, protocol):
    calls = []
    measure = qcore.measure

    def counting_measure(*args, **kwargs):
        calls.append(args)
        return measure(*args, **kwargs)

    for module in (qcore, protocols):
        monkeypatch.setattr(module, "measure", counting_measure)
    sizes = count_density_sizes(monkeypatch)
    chain = copy_chain(protocol, random_config(protocol, 0))
    assert all(pair is not None for pair in chain.pairs)
    assert calls == []
    assert sizes == PAIR_SIZES[protocol]


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


def bits(obj):
    """``obj`` with every float replaced by its exact hex form (keeps -0.0)."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (tuple, list)):
        return type(obj)(bits(x) for x in obj)
    return obj


#: Largest gap allowed between a run's merge output and the oracle's, for
#: three pairs on: the fused merge sums in another order than the oracle's
#: joint-vector merge (see ``tests/test_merge_stack.py``).
FUSION_ATOL = 1e-15


def assert_same_run(new, old, exact=True):
    """Equal runs, bit for bit; unless ``exact``, the merge step's probability,
    the final state and its negativities within ``FUSION_ATOL``."""
    new_steps, old_steps = list(new.steps), list(old.steps)
    if not exact and old.success:
        merge, old_merge = new_steps.pop(), old_steps.pop()
        assert abs(merge.probability - old_merge.probability) <= FUSION_ATOL
        assert dataclasses.replace(merge, probability=old_merge.probability) == old_merge
    assert bits([dataclasses.astuple(s) for s in new_steps]) == bits(
        [dataclasses.astuple(s) for s in old_steps]
    )
    assert new.copies_consumed == old.copies_consumed
    assert new.success == old.success
    assert bits(new.analytic_success_prob) == bits(old.analytic_success_prob)
    if old.final_state is None:
        assert new.final_state is None
    elif exact:
        assert new.final_state.amplitudes.tobytes() == old.final_state.amplitudes.tobytes()
        assert new.certificates == old.certificates
    else:
        gap = np.max(np.abs(new.final_state.amplitudes - old.final_state.amplitudes))
        assert gap <= FUSION_ATOL
        assert new.certificates.n_parties == old.certificates.n_parties
        for g, w in zip(new.certificates.records, old.certificates.records, strict=True):
            assert (g.cut, g.schmidt_rank) == (w.cut, w.schmidt_rank)
            assert abs(g.negativity - w.negativity) <= FUSION_ATOL


@pytest.mark.parametrize("protocol", sorted(ORACLES))
@pytest.mark.parametrize("seed", SEEDS)
def test_chain_matches_the_measure_as_you_go_oracles(protocol, seed):
    loop_run, loop_tree = ORACLES[protocol]
    config = random_config(protocol, seed)
    chain = copy_chain(protocol, config)

    # postselected: the merge branch is the only draw
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    exact = protocol == "prop2"  # prop3 merges three pairs
    new = replay_chain(chain, new_rng, postselect_success=True)
    assert new.success
    assert_same_run(new, loop_run(config, old_rng, postselect_success=True), exact)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state

    # sampled: one shared generator per side across consecutive runs
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(SAMPLED_RUNS[protocol]):
        assert_same_run(replay_chain(chain, new_rng), loop_run(config, old_rng), exact)
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
