"""``sigma_scan``'s per-copy rate against the measurement it stands for.

``protocols._sigma_rate`` sums C's split off the diagonal of the sigma
terms, through the helper ``qcore.postselect_levels`` reads its splits
with, and never builds the state or the measurement.  Its rate must be the
outcome probability ``measure`` reports on ``build_sigma(p)`` for C's
entangled block, bit for bit, at seeded rates across (0, 1) and at the
ends: the smallest subnormal p, whose rate rounds to zero, and the double
just below 1.
"""

import math

import numpy as np
import pytest

from gmesim import protocols
from gmesim.protocols import build_sigma, sigma_scan
from gmesim.qcore import level_group_measurement, measure

from helpers import loop_sigma_scan

C_SPLIT = level_group_measurement(2, 3, [[0, 1], [2]])
SEEDED = np.random.default_rng(20261020).uniform(0.0, 1.0, 1000).tolist()
ENDS = [5e-324, float(np.nextafter(1.0, 0.0)), 1e-300, 0.5, 1 / 3]


def measured_rate(p: float) -> float:
    return measure(build_sigma(p), C_SPLIT, keep=())[0].probability


def bits(value: float) -> str:
    return float.hex(value) + ("-" if math.copysign(1.0, value) < 0 else "+")


def test_seeded_rates_equal_the_measured_probability_bit_for_bit():
    got = [bits(protocols._sigma_rate(p)) for p in SEEDED]
    assert got == [bits(measured_rate(p)) for p in SEEDED]


@pytest.mark.parametrize("p", ENDS, ids=repr)
def test_end_rates_equal_the_measured_probability_bit_for_bit(p):
    assert bits(protocols._sigma_rate(p)) == bits(measured_rate(p))


def test_the_smallest_subnormal_p_measures_to_a_zero_rate():
    assert protocols._sigma_rate(5e-324) == measured_rate(5e-324) == 0.0


def test_scan_rows_equal_the_measured_rate_oracle():
    p_list = SEEDED[:6] + ENDS[1:]
    key = [(r.p, r.n, r.analytic, r.empirical) for r in sigma_scan(p_list, 4, 1000, 3)]
    assert key == [(r.p, r.n, r.analytic, r.empirical)
                   for r in loop_sigma_scan(p_list, 4, 1000, 3)]
