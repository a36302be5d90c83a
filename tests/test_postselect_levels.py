"""``qcore.postselect_levels`` against the dense measure-then-trace path.

The function postselects a mixture of pure terms without forming the mixture
and reads the kept parties off the one term left on the accepted levels.  Its
probabilities must equal, bit for bit, those of ``measure`` on ``mix(terms)``
(``helpers.loop_postselect_levels``); its state must agree within
``PAIR_ATOL`` with that oracle's ``partial_trace``, ``to_pure`` and
``relabel_subspace``, on inputs where one term survives.  It must refuse bad
input with the messages of ``mix``, ``level_group_measurement`` and
``measure``, and refuse a state that is not one term's: a state spread over
two terms, a term that leaves a discarded party at more than one level, and a
leg with weight outside the level map.  No D x D array is ever formed.
"""

import math
import tracemalloc

import numpy as np
import pytest

from gmesim.protocols import _chain_terms, normalize_schmidt
from gmesim.qcore import (
    InvariantError,
    PartyDims,
    PureState,
    basis_ket,
    ket,
    level_group_measurement,
    measure,
    mix,
    partial_trace,
    postselect_levels,
    tensor,
)

from helpers import loop_postselect_levels, random_pure

#: Largest gap allowed between an amplitude read off the surviving term and the
#: oracle's, the top eigenvector of the reduced density operator.
PAIR_ATOL = 1e-15
QUBITS = {0: 0, 1: 1}


def random_vector(total, rng) -> np.ndarray:
    """Real, complex, or complex with most entries zero."""
    kind = int(rng.integers(3))
    vec = rng.normal(size=total) + (1j * rng.normal(size=total) if kind else 0.0)
    if kind == 2:
        vec[rng.random(total) < 0.6] = 0.0
        vec[int(rng.integers(total))] = 1.0
    return vec


def random_steps(dims, rng) -> list:
    """1-3 steps, each a random party splitting a shuffled level list into groups."""
    steps = []
    for _ in range(int(rng.integers(1, 4))):
        party = int(rng.integers(len(dims)))
        d = dims[party]
        cuts = np.sort(rng.choice(np.arange(1, d), size=int(rng.integers(0, d)), replace=False))
        groups = [[int(lv) for lv in g] for g in np.split(rng.permutation(d), cuts)]
        steps.append((party, groups, int(rng.integers(len(groups)))))
    return steps


def one_term_input(rng) -> tuple:
    """Random (terms, steps, discard, levels) on 3 or 4 parties, two of them kept, where
    at most one term holds amplitude on the accepted levels.

    That term sits at one level on each discarded party, and on each kept leg
    wider than a qubit at the two levels ``levels`` maps; the other 0-2 terms
    are random with their amplitudes on the accepted levels set to zero.
    """
    n = int(rng.integers(3, 5))
    dims = tuple(int(d) for d in rng.integers(2, 5, size=n))
    discard = [int(i) for i in rng.choice(n, size=n - 2, replace=False)]
    steps = random_steps(dims, rng)
    accepted = [set(range(d)) for d in dims]
    for party, groups, accept in steps:
        accepted[party] &= set(groups[accept])
    wide = [d for i, d in enumerate(dims) if i not in discard and d > 2]
    sources = rng.choice(min(wide, default=2), size=2, replace=False)
    levels = {int(a): int(b) for a, b in zip(sources, rng.permutation(2))}
    allowed = []
    for i, d in enumerate(dims):
        if i in discard:
            allowed.append([int(rng.choice(sorted(accepted[i]) or [0]))])
        else:
            allowed.append(list(levels) if d > 2 else [0, 1])
    on = np.zeros(dims, dtype=bool)
    on[np.ix_(*allowed)] = True
    total = math.prod(dims)
    vectors = [np.where(on.ravel(), rng.normal(size=total) + 1j * rng.normal(size=total), 0.0)]
    support = np.zeros(dims, dtype=bool)
    support[np.ix_(*[sorted(a) for a in accepted])] = True
    for _ in range(int(rng.integers(3))):
        vec = np.where(support.ravel(), 0.0, random_vector(total, rng))
        if np.linalg.norm(vec) > 1e-3:
            vectors.insert(int(rng.integers(len(vectors) + 1)), vec)
    weights = rng.dirichlet(np.ones(len(vectors)))
    terms = [(float(w), PureState(PartyDims(dims), v / np.linalg.norm(v)))
             for w, v in zip(weights, vectors)]
    return terms, steps, discard, levels


def assert_agrees(new, old):
    """Probabilities bit for bit; the state's amplitudes within ``PAIR_ATOL``."""
    assert [[p.hex() for p in probs] for probs in new[0]] == [
        [p.hex() for p in probs] for probs in old[0]
    ]
    if old[1] is None:
        assert new[1] is None
    else:
        assert new[1].dims == old[1].dims
        assert np.max(np.abs(new[1].amplitudes - old[1].amplitudes)) <= PAIR_ATOL


@pytest.mark.parametrize("seed", range(30))
def test_matches_measure_trace_and_diagonalize_when_one_term_survives(seed):
    rng = np.random.default_rng(seed)
    for _ in range(10):
        terms, steps, discard, levels = one_term_input(rng)
        assert_agrees(postselect_levels(terms, steps, discard, levels),
                      loop_postselect_levels(terms, steps, discard, levels))


def test_pruned_accept_stops_and_returns_no_state():
    # party 0 never leaves level 0, so accepting level 1 is pruned; the
    # step after it is not taken
    qutrit = PureState(PartyDims((3,)), random_pure((3,), np.random.default_rng(0)))
    terms = [(1.0, tensor(basis_ket((2,), (0,)), qutrit))]
    steps = [(1, [[0, 1], [2]], 0), (0, [[0], [1]], 1), (1, [[0], [1], [2]], 0)]
    probs, state = postselect_levels(terms, steps, [0], QUBITS)
    assert state is None
    assert len(probs) == 2 and probs[1] == (1.0, 0.0)
    assert_agrees((probs, state), loop_postselect_levels(terms, steps, [0], QUBITS))


def error_message(call, *args) -> str:
    with pytest.raises(ValueError) as info:
        call(*args)
    return str(info.value)


def test_refusals_match_mix_and_the_measurement():
    rng = np.random.default_rng(3)
    a, b = (PureState(PartyDims((2, 3)), random_pure((2, 3), rng)) for _ in range(2))
    split = [(0, [[0], [1]], 1)]
    for terms in (
        [],
        [(0.5, a), (0.0, b), (0.5, a)],  # a weight that is not positive
        [(0.5, a), (0.4, b)],  # weights that do not sum to one
        [(0.5, a), (0.5, "b")],
        [(0.5, a), (0.5, PureState(PartyDims((3, 2)), b.amplitudes))],  # mixed dims
    ):
        assert error_message(postselect_levels, terms, split, [1], QUBITS) == error_message(
            mix, terms)

    terms = [(0.5, a), (0.5, b)]
    rho = mix(terms)
    assert error_message(postselect_levels, terms, [(2, [[0], [1]], 0)], [1], QUBITS) == (
        error_message(measure, rho, level_group_measurement(2, 2, [[0], [1]])))
    for groups in ([[0], [0, 1]], [[0], [1, 2]], [[0]]):
        assert error_message(postselect_levels, terms, [(0, groups, 0)], [1], QUBITS) == (
            error_message(level_group_measurement, 0, 2, groups))
    for discard in ([2], [], [0, 1]):
        assert error_message(postselect_levels, terms, split, discard, QUBITS) == error_message(
            partial_trace, rho, discard)
    with pytest.raises(ValueError, match="accept index 2 out of range for 2 outcomes"):
        postselect_levels(terms, [(0, [[0], [1]], 2)], [1], QUBITS)
    with pytest.raises(ValueError, match="postselect_levels expects PureState terms"):
        postselect_levels([(0.5, rho), (0.5, b)], split, [1], QUBITS)


def test_a_state_spread_over_two_terms_is_refused():
    # both terms hold amplitude where party 0 sits at level 1
    rng = np.random.default_rng(5)
    terms = [(0.5, PureState(PartyDims((2, 3)), random_pure((2, 3), rng))) for _ in range(2)]
    with pytest.raises(ValueError, match=r"^the accepted state is spread over 2 terms; "
                                         r"one is required$"):
        postselect_levels(terms, [(0, [[0], [1]], 1)], [1], QUBITS)


def test_a_term_entangled_with_a_discarded_party_is_refused():
    # phi+ across the kept qubit and the discarded one: no single level to drop
    terms = [(1.0, ket([1.0, 0.0, 0.0, 1.0], (2, 2)))]
    with pytest.raises(ValueError, match=r"^discarded party 1 is not at one level in the "
                                         r"accepted term$"):
        postselect_levels(terms, [(0, [[0, 1]], 0)], [1], QUBITS)
    # at one level the party drops out, even where the other terms leave it elsewhere
    terms = [(0.5, ket([0.6, 0.0, 0.8, 0.0], (2, 2))), (0.5, basis_ket((2, 2), (1, 1)))]
    _, state = postselect_levels(terms, [(1, [[0], [1]], 0)], [1], QUBITS)
    assert state.dims.dims == (2,)
    np.testing.assert_array_equal(state.amplitudes, [0.6, 0.8])


def test_weight_outside_the_level_map_is_refused_above_the_prune_threshold():
    qubit0 = basis_ket((2,), (0,))
    terms = [(1.0, tensor(ket([0.6, 0.8, 0.0], (3,)), qubit0))]
    with pytest.raises(ValueError, match=r"^population 0\.36\d* outside the relabeled "
                                         r"subspace on party 0$"):
        postselect_levels(terms, [(1, [[0], [1]], 0)], [1], {1: 0, 2: 1})
    # relabel_subspace's rule: weight at or below the threshold is dropped (and,
    # unlike relabel_subspace, the rest renormalized)
    terms = [(1.0, tensor(ket([1e-7, 0.6, 0.8], (3,)), qubit0))]
    _, state = postselect_levels(terms, [(1, [[0], [1]], 0)], [1], {1: 0, 2: 1})
    np.testing.assert_allclose(state.amplitudes, [0.6, 0.8], rtol=0, atol=PAIR_ATOL)


def test_probability_sum_error_names_party_dims_and_residual():
    state = PureState(PartyDims((2, 3)), random_pure((2, 3), np.random.default_rng(4)))
    object.__setattr__(state, "amplitudes", 1.01 * state.amplitudes)  # norm^2 = 1.0201
    with pytest.raises(InvariantError, match=r"measurement on parties \(1,\) of dims \(2, 3\): "
                                             r"probabilities sum to 1\.020.*, residual 2\.010e-02"):
        postselect_levels([(1.0, state)], [(1, [[0], [1, 2]], 1)], [0], QUBITS)


def test_five_party_copy_forms_no_full_matrix():
    """One copy of the n = 5 chain: D = 3125, so a D x D array alone is 149 MiB.

    The pair is read off the 500 amplitudes of the one term left on parties D
    and E's top levels {3, 4}; the peak stays within a tenth of one D x D array.
    """
    terms = _chain_terms(normalize_schmidt([1.0] * 5), [0.25] * 4)
    total = terms[0][1].dims.total
    split = [[0], [1], [2], [3, 4]]
    tracemalloc.start()
    try:
        probs, pair = postselect_levels(terms, [(3, split, 3), (4, split, 3)], [0, 1, 2],
                                        {3: 0, 4: 1})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pair.dims.dims == (2, 2)
    np.testing.assert_allclose(pair.amplitudes, [0.5**0.5, 0, 0, 0.5**0.5], atol=1e-15)
    # two of the four terms hold the pair on party D, 2/5 of it on levels 3, 4
    assert probs[0][3] == pytest.approx(2 * 0.25 * 2 / 5)
    assert peak < total * total * 16 / 10
