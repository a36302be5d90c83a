"""Monte Carlo shots counted against cumulative thresholds.

``protocols.sample_leaves`` and ``protocols.sigma_scan`` never form one
outcome per shot: they draw the uniform or exponential stream NumPy's
``Generator.choice`` and ``Generator.geometric`` would draw and count it
against one nondecreasing threshold sequence.  These tests pin that the counts
and the generator state after the draws are NumPy's own, bit for bit, against
``helpers.loop_sample_leaves`` and ``helpers.loop_sigma_scan``, which call
those samplers; if a NumPy release changes either algorithm they fail instead
of letting the artifacts drift.  Random draws almost never land on a
threshold, so streams scripted through an MT19937 key put draws exactly on
them, where the strictness of each comparison, the order of each running sum
and the ``log1p`` in use show.
"""

import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmesim import protocols
from gmesim.protocols import _count_below, _repeat_arrivals, sample_leaves, sigma_scan

from helpers import loop_sample_leaves, loop_sigma_scan

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

BOUNDARY = 0.3333333333333333  # NumPy's search/inversion switch, as a double
EDGE_RATES = (
    float(np.nextafter(BOUNDARY, 0.0)),
    BOUNDARY,
    float(np.nextafter(BOUNDARY, 1.0)),
    1e-300,
    1e-320,
    1.0 - 1e-12,
    1.0,
)
SHOTS = st.sampled_from([1, 7, 100_000])
N_MAX = st.sampled_from([0, 1, 20])
SEEDS = st.integers(0, 2**32)


@contextlib.contextmanager
def recorded_generators(make=np.random.default_rng):
    """Every generator ``np.random.default_rng`` makes inside the block, in order.

    ``make`` builds each one in its place from the same arguments.
    """
    made = []

    def record(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", record)
        yield made


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value.tobytes() if isinstance(value, np.ndarray) else value


def states(generators) -> list:
    """Bit-generator states, comparable with == (MT19937 keeps an array key)."""
    return [_plain(g.bit_generator.state) for g in generators]


def summary_key(summary) -> tuple:
    branches = tuple(
        (b.label, b.probability.hex(), b.frequency.hex(), b.success, b.copies)
        for b in summary.branches
    )
    return (summary.protocol, summary.shots, summary.seed, branches,
            summary.success_rate.hex(), summary.exact_success_prob.hex(),
            summary.mean_copies_consumed.hex())


def rows_key(rows) -> list:
    return [(r.p.hex(), r.n, r.analytic.hex(), r.empirical.hex()) for r in rows]


def leaves_of(probs) -> list:
    return [(f"leaf{k}", float(p), k % 2 == 0, k + 1) for k, p in enumerate(probs)]


# zeros are frequent, and positive weights span many binades
weights = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-300, 1.0), st.floats(0.0, 1.0)),
    min_size=2, max_size=8,
).filter(lambda ws: math.fsum(ws) > 0.0)


@PROPERTY
@given(weights, SHOTS, SEEDS)
def test_sample_leaves_counts_and_generator_state_are_choice_bincounts(ws, shots, seed):
    leaves = leaves_of(np.array(ws) / math.fsum(ws))
    with recorded_generators() as made_new:
        new = sample_leaves("prop3", leaves, shots, seed)
    with recorded_generators() as made_old:
        old = loop_sample_leaves("prop3", leaves, shots, seed)
    assert summary_key(new) == summary_key(old)
    assert len(made_new) == len(made_old) == 1
    assert states(made_new) == states(made_old)


rates_p = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).filter(lambda p: p >= 1e-323)


@PROPERTY
@given(st.lists(rates_p, min_size=1, max_size=3), N_MAX, SHOTS, SEEDS)
def test_sigma_scan_rows_and_generator_states_are_geometric_tallies(p_list, n_max, shots, seed):
    with recorded_generators() as made_new:
        new = sigma_scan(p_list, n_max, shots, seed)
    with recorded_generators() as made_old:
        old = loop_sigma_scan(p_list, n_max, shots, seed)
    assert rows_key(new) == rows_key(old)
    assert len(made_new) == len(made_old) == len(p_list)
    assert states(made_new) == states(made_old)


@pytest.mark.parametrize("rate", EDGE_RATES, ids=repr)
@pytest.mark.parametrize("n_max", [0, 1, 20])
def test_edge_rates_count_what_geometric_draws(rate, n_max):
    new_rng, old_rng = np.random.default_rng(2029), np.random.default_rng(2029)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # E / -log1p(-p) overflows quietly at 1e-320
        arrivals = _repeat_arrivals(new_rng, rate, n_max, 100_000)
    trials = old_rng.geometric(rate, 100_000)
    assert arrivals == [int(np.count_nonzero(trials <= n)) for n in range(n_max + 1)]
    assert states([new_rng]) == states([old_rng])


def test_edge_rates_sit_on_both_sides_of_the_switch():
    assert EDGE_RATES[0] < protocols._GEOMETRIC_SEARCH_MIN_RATE == EDGE_RATES[1]


# p = 0.33333333333333337 measures to the switch rate itself, its neighbours
# to the doubles on either side
EDGE_P = [0.3333333333333333, 0.33333333333333337, 0.3333333333333334, 1e-300, 1e-320,
          1.0 - 1e-12]


@pytest.mark.parametrize("n_max", [0, 1, 20])
def test_sigma_scan_at_edge_rates_matches_the_oracle_without_warnings(n_max):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        new = sigma_scan(EDGE_P, n_max, 100_000, 11)
    assert rows_key(new) == rows_key(loop_sigma_scan(EDGE_P, n_max, 100_000, 11))


def test_count_below_is_strict_and_counts_ties_once():
    draws = np.array([0.5, 0.0, 1.0, 0.5])
    thresholds = [0.0, 0.5, 0.5, np.nextafter(0.5, 1.0), 2.0, 3.0]
    assert _count_below(draws, thresholds) == [0, 1, 1, 3, 4, 4]


# Draws that land exactly on a threshold.  An MT19937 whose key words are set
# (position 0, so no twist runs first) emits chosen 32-bit words; a uniform is
# (a * 2**26 + b) / 2**53 from the next two words shifted right by 5 and 6.


def _untemper(y: int) -> int:
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    t = y
    for _ in range(5):
        t = y ^ ((t << 7) & 0x9D2C5680)
    t &= 0xFFFFFFFF
    u = t
    for _ in range(3):
        u = t ^ (u >> 11)
    return u


def scripted(words) -> np.random.Generator:
    """A generator whose next 32-bit outputs are ``words``."""
    bits = np.random.MT19937(0)
    state = bits.state
    key = state["state"]["key"].copy()
    key[: len(words)] = [_untemper(w) for w in words]
    state["state"] = {"key": key, "pos": 0}
    bits.state = state
    return np.random.Generator(bits)


def uniform_words(uniforms) -> list:
    words = []
    for u in uniforms:
        m = int(u * 2**53)
        words += [(m >> 26) << 5, (m & (2**26 - 1)) << 6]
    return words


def on_and_beside(values) -> list:
    """``values`` and their neighbours that a uniform draw can take exactly."""
    near = {0.0}
    for v in values:
        near |= {float(v), float(np.nextafter(v, 0.0)), float(np.nextafter(v, 1.0))}
    return sorted(u for u in near if 0.0 <= u < 1.0 and (u * 2**53).is_integer())


def test_scripted_generator_emits_the_chosen_uniforms():
    uniforms = [0.0, 0.25, 0.75, float(np.nextafter(0.75, 0.0))]
    rng = scripted(uniform_words(uniforms))
    assert [rng.random() for _ in uniforms] == uniforms


@pytest.mark.parametrize("rate", [BOUNDARY, 0.45, 0.5, 0.6, 0.7, 0.9, 1.0 - 1e-12, 1.0])
def test_uniforms_on_the_running_sums_count_as_numpy_geometric(rate):
    sums, term, total = [], rate, rate
    for _ in range(20):  # NumPy's order: prod *= q; sum += prod
        sums.append(total)
        term *= 1.0 - rate
        total += term
    uniforms = on_and_beside(sums)
    words = uniform_words(uniforms)
    new_rng, old_rng = scripted(words), scripted(words)
    arrivals = _repeat_arrivals(new_rng, rate, 20, len(uniforms))
    trials = old_rng.geometric(rate, len(uniforms))
    assert arrivals == [int(np.count_nonzero(trials <= n)) for n in range(21)]
    assert states([new_rng]) == states([old_rng])


def test_an_exponential_draw_of_zero_ends_at_copy_zero_as_in_numpy():
    # the first 64-bit output is 8: ziggurat index 1 with ri = 0, so E = 0.0
    words = [0, 8, 0x9E3779B9, 0x7F4A7C15, 0x2545F491, 0x4F6CDD1D]
    new_rng, old_rng = scripted(words), scripted(words)
    arrivals = _repeat_arrivals(new_rng, 0.1, 3, 3)
    trials = old_rng.geometric(0.1, 3)
    assert trials[0] == 0
    assert arrivals == [int(np.count_nonzero(trials <= n)) for n in range(4)]
    assert states([new_rng]) == states([old_rng])


def test_an_exponential_draw_on_the_first_copy_boundary_uses_libm_log1p():
    # E / -log1p(-p) is exactly 1.0 with C's log1p, which NumPy's geometric
    # calls, and one ulp above 1.0 with a log1p one ulp smaller (as NumPy's
    # SIMD ufunc returns for this rate on AVX-512 hosts)
    rate, bits = 0.26586617117430494, 17567679089834727520
    words = [bits >> 32, bits & 0xFFFFFFFF]
    new_rng, old_rng = scripted(words), scripted(words)
    arrivals = _repeat_arrivals(new_rng, rate, 2, 1)
    assert old_rng.geometric(rate, 1).tolist() == [1]
    assert arrivals == [0, 1, 1]
    assert states([new_rng]) == states([old_rng])


@pytest.mark.parametrize("probs", [
    [0.1] * 10,  # the cumulative sum ends at 0.9999999999999999 before renormalizing
    [0.25, 0.0, 0.5, 0.25],
    [0.1, 0.2, 0.3, 0.4],
    [1 / 3, 1 / 3, 1 / 3],
    [0.0, 0.7, 0.0, 0.1, 0.2, 0.0],
    [0.05, 0.15, 0.1, 0.2, 0.1, 0.25, 0.15],
])
def test_uniforms_on_the_cdf_count_as_numpy_choice(probs):
    probs = np.array(probs)
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    uniforms = on_and_beside(cdf)
    leaves = leaves_of(probs)
    with recorded_generators(lambda seed: scripted(uniform_words(uniforms))) as made:
        new = sample_leaves("prop3", leaves, len(uniforms), 0)
        old = loop_sample_leaves("prop3", leaves, len(uniforms), 0)
    assert summary_key(new) == summary_key(old)
    assert states(made[:1]) == states(made[1:])


class GuardedGenerator(np.random.Generator):
    def choice(self, *args, **kwargs):
        raise AssertionError("Generator.choice was called")

    def geometric(self, *args, **kwargs):
        raise AssertionError("Generator.geometric was called")


def test_neither_sampler_calls_choice_or_geometric(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: GuardedGenerator(np.random.PCG64(seed)))
    leaves = leaves_of([0.25, 0.0, 0.75])
    with pytest.raises(AssertionError, match="choice"):
        np.random.default_rng(0).choice(2)
    summary = sample_leaves("prop2", leaves, 1_000, 3)
    assert sum(b.frequency for b in summary.branches) == 1.0
    rows = sigma_scan([0.1, 0.7], 5, 1_000, 3)  # one rate on each side of the switch
    assert [r.n for r in rows] == list(range(6)) * 2


@pytest.mark.parametrize("value", [math.nan, -0.5])
def test_sample_leaves_refuses_a_nan_or_negative_leaf_by_index(value):
    leaves = leaves_of([1.0 - (0.0 if math.isnan(value) else value), value])
    with pytest.raises(ValueError, match=rf"^sampling the prop2 tree: leaf 1 has probability "
                                         rf"{value!r}$"):
        sample_leaves("prop2", leaves, 10, 0)


@pytest.mark.parametrize("rate", [0.0, -0.25, np.nextafter(1.0, 2.0), math.nan])
def test_sigma_scan_refuses_a_rate_outside_the_unit_interval_before_drawing(monkeypatch, rate):
    # a stand-in rate: the diagonal sums are clipped to [0, 1] and must add up to one
    monkeypatch.setattr(protocols, "_sigma_rate", lambda p: float(rate))
    with recorded_generators() as made, pytest.raises(
        ValueError, match=rf"^p=0\.5 gives a per-copy rate {float(rate)!r} outside \(0, 1\]$"
    ):
        sigma_scan([0.5], 3, 100, 0)
    assert made == []


def test_a_rate_that_measures_to_zero_is_refused_by_name():
    with pytest.raises(ValueError, match=r"^p=5e-324 gives a per-copy rate 0\.0 outside"):
        sigma_scan([5e-324], 1, 3, 1)


@pytest.mark.parametrize("call", [
    lambda: sigma_scan([0.5], 3, 100, -1),
    lambda: sample_leaves("prop2", leaves_of([0.5, 0.5]), 10, seed=-1),
])
def test_negative_seeds_are_refused_with_the_config_message(call):
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        call()
