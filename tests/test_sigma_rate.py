"""The sigma splits against the measurements they stand for.

``protocols._sigma_split`` sums A's or C's split off the diagonal of the
sigma terms, through the helper ``qcore.postselect_levels`` reads its splits
with, and never builds the state or the measurement; the runner, the tree and
``sigma_scan`` read every split probability from it, the scan through
``_sigma_rate``.  Each probability must be the one ``measure`` reports on
``build_sigma(p)`` or ``build_sigma_prime``, bit for bit, for both outcomes of
both splits, at seeded rates across (0, 1) and at the ends: the smallest
subnormal p, whose rate rounds to zero, and the double just below 1.  The
scan's rate, C's entangled block on ``build_sigma(p)``, is pinned on its own.
"""

import math

import numpy as np
import pytest

from gmesim import protocols
from gmesim.protocols import build_sigma, build_sigma_prime, sigma_scan
from gmesim.qcore import ket, level_group_measurement, measure, mix

from helpers import loop_sigma_scan

SPLITS = [level_group_measurement(party, 3, [[0, 1], [2]]) for party in (0, 2)]
SEEDED = np.random.default_rng(20261020).uniform(0.0, 1.0, 1000).tolist()
ENDS = [5e-324, float(np.nextafter(1.0, 0.0)), 1e-300, 0.5, 1 / 3]
SIGMA_PRIME_PAIR = ket([0.8, 0.0, 0.0, 0.6], (2, 2))
#: pair coefficients of the runner's two shared-pair choices, and the builder of each state
STATES = {
    "sigma": ((2**-0.5, 2**-0.5), build_sigma),
    "sigma-prime": ((0.8, 0.6), lambda p: build_sigma_prime(SIGMA_PRIME_PAIR, p)),
}


def measured(case: str, p: float) -> tuple[float, ...]:
    """The probabilities ``measure`` gives: the scan's rate, or both splits' outcomes."""
    if case == "rate":
        return (measure(build_sigma(p), SPLITS[1], keep=())[0].probability,)
    rho = STATES[case][1](p)
    return tuple(out.probability for split in SPLITS for out in measure(rho, split, keep=()))


def summed(case: str, p: float) -> tuple[float, ...]:
    """The same probabilities summed off the terms the runner and the tree choose."""
    if case == "rate":
        return (protocols._sigma_rate(p),)
    terms = protocols._sigma_terms(protocols._sigma_pair(STATES[case][0])[0], p)
    return tuple(prob for party in (0, 2) for prob in protocols._sigma_split(terms, party))


def bits(values) -> list[str]:
    return [float.hex(v) + ("-" if math.copysign(1.0, v) < 0 else "+") for v in values]


CASES = ["rate", *STATES]


@pytest.mark.parametrize("case", CASES)
def test_seeded_rates_equal_the_measured_probability_bit_for_bit(case):
    got = [bits(summed(case, p)) for p in SEEDED]
    assert got == [bits(measured(case, p)) for p in SEEDED]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("p", ENDS, ids=repr)
def test_end_rates_equal_the_measured_probability_bit_for_bit(case, p):
    assert bits(summed(case, p)) == bits(measured(case, p))


def test_the_smallest_subnormal_p_measures_to_a_zero_rate():
    assert protocols._sigma_rate(5e-324) == measured("rate", 5e-324)[0] == 0.0


@pytest.mark.parametrize("case", sorted(STATES))
def test_the_chosen_pair_mixes_to_the_builders_state_bit_for_bit(case):
    coeffs, build = STATES[case]
    pair, maximal = protocols._sigma_pair(coeffs)
    assert maximal == (case == "sigma")
    for p in SEEDED[:20] + ENDS:
        assert mix(protocols._sigma_terms(pair, p)).matrix.tobytes() == build(p).matrix.tobytes()


def test_scan_rows_equal_the_measured_rate_oracle():
    p_list = SEEDED[:6] + ENDS[1:]
    key = [(r.p, r.n, r.analytic, r.empirical) for r in sigma_scan(p_list, 4, 1000, 3)]
    assert key == [(r.p, r.n, r.analytic, r.empirical)
                   for r in loop_sigma_scan(p_list, 4, 1000, 3)]
