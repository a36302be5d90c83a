"""``qcore.postselect_levels`` against the dense measure-then-trace path.

The function postselects a mixture of pure terms without forming the mixture;
its probabilities and reduced state must equal, bit for bit, those of
``measure`` on ``mix(terms)`` followed by ``partial_trace``
(``helpers.loop_postselect_levels``), and it must refuse bad input with the
messages of ``mix``, ``level_group_measurement`` and ``measure``.  It traces
the accepted block as it is, so no D x D array is ever formed.
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
    level_group_measurement,
    measure,
    mix,
    partial_trace,
    postselect_levels,
    tensor,
)

from helpers import loop_postselect_levels, random_pure


def random_terms(dims, rng) -> list:
    """1-3 normalized terms: real, complex, or complex with most entries zero."""
    total = math.prod(dims)
    terms = []
    for kind in rng.integers(3, size=int(rng.integers(1, 4))):
        vec = rng.normal(size=total) + (1j * rng.normal(size=total) if kind else 0.0)
        if kind == 2:
            vec[rng.random(total) < 0.6] = 0.0
            vec[int(rng.integers(total))] = 1.0
        terms.append(PureState(PartyDims(dims), vec / np.linalg.norm(vec)))
    weights = rng.dirichlet(np.ones(len(terms)))
    return [(float(w), term) for w, term in zip(weights, terms)]


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


def assert_bitwise(new, old):
    assert [[p.hex() for p in probs] for probs in new[0]] == [
        [p.hex() for p in probs] for probs in old[0]
    ]
    if old[1] is None:
        assert new[1] is None
    else:
        assert new[1].dims == old[1].dims
        assert new[1].matrix.tobytes() == old[1].matrix.tobytes()


@pytest.mark.parametrize("seed", range(30))
def test_matches_measure_then_partial_trace_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(2, 5, size=n))
        discard = [int(i) for i in rng.choice(n, size=int(rng.integers(1, n)), replace=False)]
        terms, steps = random_terms(dims, rng), random_steps(dims, rng)
        assert_bitwise(postselect_levels(terms, steps, discard),
                       loop_postselect_levels(terms, steps, discard))


def test_pruned_accept_stops_and_returns_no_state():
    # party 0 never leaves level 0, so accepting level 1 is pruned; the
    # step after it is not taken
    qutrit = PureState(PartyDims((3,)), random_pure((3,), np.random.default_rng(0)))
    terms = [(1.0, tensor(basis_ket((2,), (0,)), qutrit))]
    steps = [(1, [[0, 1], [2]], 0), (0, [[0], [1]], 1), (1, [[0], [1], [2]], 0)]
    probs, state = postselect_levels(terms, steps, [0])
    assert state is None
    assert len(probs) == 2 and probs[1] == (1.0, 0.0)
    assert_bitwise((probs, state), loop_postselect_levels(terms, steps, [0]))


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
        assert error_message(postselect_levels, terms, split, [1]) == error_message(mix, terms)

    terms = [(0.5, a), (0.5, b)]
    rho = mix(terms)
    assert error_message(postselect_levels, terms, [(2, [[0], [1]], 0)], [1]) == error_message(
        measure, rho, level_group_measurement(2, 2, [[0], [1]]))
    for groups in ([[0], [0, 1]], [[0], [1, 2]], [[0]]):
        assert error_message(postselect_levels, terms, [(0, groups, 0)], [1]) == error_message(
            level_group_measurement, 0, 2, groups)
    for discard in ([2], [], [0, 1]):
        assert error_message(postselect_levels, terms, split, discard) == error_message(
            partial_trace, rho, discard)
    with pytest.raises(ValueError, match="accept index 2 out of range for 2 outcomes"):
        postselect_levels(terms, [(0, [[0], [1]], 2)], [1])
    with pytest.raises(ValueError, match="postselect_levels expects PureState terms"):
        postselect_levels([(0.5, rho), (0.5, b)], split, [1])


def test_probability_sum_error_names_party_dims_and_residual():
    state = PureState(PartyDims((2, 3)), random_pure((2, 3), np.random.default_rng(4)))
    object.__setattr__(state, "amplitudes", 1.01 * state.amplitudes)  # norm^2 = 1.0201
    with pytest.raises(InvariantError, match=r"measurement on parties \(1,\) of dims \(2, 3\): "
                                             r"probabilities sum to 1\.020.*, residual 2\.010e-02"):
        postselect_levels([(1.0, state)], [(1, [[0], [1, 2]], 1)], [0])


def test_five_party_copy_forms_no_full_matrix():
    """One copy of the n = 5 chain: D = 3125, so a D x D array alone is 149 MiB.

    The accepted block (parties D and E on their top levels {3, 4}) is 500 x
    500, about 3.8 MiB; the peak stays within a tenth of one D x D array.
    """
    terms = _chain_terms(normalize_schmidt([1.0] * 5), [0.25] * 4)
    total = terms[0][1].dims.total
    split = [[0], [1], [2], [3, 4]]
    tracemalloc.start()
    try:
        probs, pair = postselect_levels(terms, [(3, split, 3), (4, split, 3)], [0, 1, 2])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pair.dims.dims == (5, 5)
    # two of the four terms hold the pair on party D, 2/5 of it on levels 3, 4
    assert probs[0][3] == pytest.approx(2 * 0.25 * 2 / 5)
    assert peak < total * total * 16 / 10
