"""The prop2/prop3 mixtures from one chain rule, and their input checks.

``protocols._chain_terms`` derives every term of the n-party chain mixture
from n = len(coeffs); ``helpers.loop_prop2_terms``/``loop_prop3_terms`` place
each pair and flag level by hand.  The two must agree bit for bit, and the
builders keep their error messages.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmesim.protocols import (
    ProtocolConfig,
    _chain_terms,
    build_prop2_state,
    build_prop3_state,
    normalize_schmidt,
)
from gmesim.qcore import mix

from helpers import loop_prop2_terms, loop_prop3_terms

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

positive = st.floats(1e-3, 10.0, allow_nan=False, allow_infinity=False)


def assert_same_terms(new, old):
    assert len(new) == len(old)
    for (w_new, term_new), (w_old, term_old) in zip(new, old):
        assert w_new.hex() == w_old.hex()
        assert term_new.dims == term_old.dims
        assert term_new.amplitudes.tobytes() == term_old.amplitudes.tobytes()


@PROPERTY
@given(st.lists(positive, min_size=3, max_size=3), st.floats(1e-6, 1.0 - 1e-6))
def test_prop2_terms_match_the_hand_placed_oracle(raw, p):
    coeffs = normalize_schmidt(raw)
    old = loop_prop2_terms(coeffs, p)
    assert_same_terms(_chain_terms(coeffs, (p, 1.0 - p)), old)
    assert build_prop2_state(coeffs, p).matrix.tobytes() == mix(old).matrix.tobytes()


@PROPERTY
@given(st.lists(positive, min_size=4, max_size=4), st.lists(positive, min_size=3, max_size=3))
def test_prop3_terms_match_the_hand_placed_oracle(raw, raw_weights):
    coeffs = normalize_schmidt(raw)
    weights = tuple(w / sum(raw_weights) for w in raw_weights)
    old = loop_prop3_terms(coeffs, weights)
    assert_same_terms(_chain_terms(coeffs, weights), old)
    assert build_prop3_state(coeffs, weights).matrix.tobytes() == mix(old).matrix.tobytes()


UNIFORM3 = (1.0 / math.sqrt(3.0),) * 3
UNIFORM4 = (0.5,) * 4
THIRDS = (1.0 / 3.0,) * 3

#: (builder, oracle, arguments, message): every message the builders raised
#: before they shared the chain rule, raised by the oracle too.
BUILDER_ERRORS = [
    (build_prop2_state, loop_prop2_terms, (UNIFORM3, 0.0), "p must lie strictly inside (0, 1)"),
    (build_prop2_state, loop_prop2_terms, (UNIFORM3, 1.0), "p must lie strictly inside (0, 1)"),
    (build_prop2_state, loop_prop2_terms, (UNIFORM4, 0.5),
     "three positive Schmidt coefficients are required"),
    (build_prop2_state, loop_prop2_terms, ((0.8, -0.36, 0.48), 0.5),
     "three positive Schmidt coefficients are required"),
    (build_prop2_state, loop_prop2_terms, ((0.5, 0.5, 0.5), 0.5),
     "squared Schmidt coefficients must sum to 1"),
    (build_prop3_state, loop_prop3_terms, (UNIFORM3, THIRDS),
     "four positive Schmidt coefficients are required"),
    (build_prop3_state, loop_prop3_terms, ((0.5, 0.5, 0.5, 0.0), THIRDS),
     "four positive Schmidt coefficients are required"),
    (build_prop3_state, loop_prop3_terms, ((0.5, 0.5, 0.5, 0.6), THIRDS),
     "squared Schmidt coefficients must sum to 1"),
    (build_prop3_state, loop_prop3_terms, (UNIFORM4, (0.5, 0.5)),
     "three positive weights are required"),
    (build_prop3_state, loop_prop3_terms, (UNIFORM4, (1.0, -0.5, 0.5)),
     "three positive weights are required"),
    (build_prop3_state, loop_prop3_terms, (UNIFORM4, (0.5, 0.5, 0.5)), "weights must sum to 1"),
]


@pytest.mark.parametrize("build, oracle, args, message", BUILDER_ERRORS)
def test_builder_messages_are_pinned(build, oracle, args, message):
    for func in (build, oracle):
        with pytest.raises(ValueError) as info:
            func(*args)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "build, args, message",
    [
        (build_prop2_state, ((math.nan, 0.6, 0.8), 0.5),
         "Schmidt coefficients must be finite, got (nan, 0.6, 0.8)"),
        (build_prop3_state, ((0.5, 0.5, math.inf, 0.5), THIRDS),
         "Schmidt coefficients must be finite, got (0.5, 0.5, inf, 0.5)"),
        (build_prop3_state, (UNIFORM4, (math.nan, 0.5, 0.5)),
         "weights must be finite, got (nan, 0.5, 0.5)"),
    ],
)
def test_builders_refuse_non_finite_inputs(build, args, message):
    with pytest.raises(ValueError) as info:
        build(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_config_and_normalize_schmidt_refuse_non_finite_values(bad):
    with pytest.raises(ValueError, match="^weights must be finite"):
        ProtocolConfig(weights=(bad, 0.5, 0.5))
    with pytest.raises(ValueError, match="^Schmidt coefficients must be finite"):
        ProtocolConfig(schmidt_coeffs=(bad, 0.5, 0.5))
    with pytest.raises(ValueError, match="^Schmidt coefficients must be finite"):
        normalize_schmidt([bad, 1.0, 1.0])


@pytest.mark.parametrize("size", [1e-200, 1e200])
def test_normalize_schmidt_refuses_squares_that_leave_the_float_range(size):
    with pytest.raises(ValueError, match="too small or too large to normalize"):
        normalize_schmidt([size] * 3)
