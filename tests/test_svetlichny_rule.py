"""The n-party Svetlichny functional from one sign rule.

``entanglement.svetlichny_value`` sums the correlators of all 2**n setting
choices, each signed by its count t of primed settings (+1 when t mod 4 is 0
or 1, else -1).  For three qubits it must reproduce
``helpers.loop_svetlichny_value``, the eight correlators written out, bit for
bit; for n qubits it must meet the GHZ-class closed forms and the bounds
2**(n-1) (bi-local) and 2**(n-1)*sqrt(2) (quantum).
"""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmesim.cli import main
from gmesim.entanglement import equatorial_observable, ghz_optimal_settings, svetlichny_value
from gmesim.protocols import (
    _CHAIN_FAMILIES,
    ProtocolConfig,
    copy_chain,
    merge_chain_to_ghz,
    normalize_schmidt,
)
from gmesim.qcore import ATOL, PartyDims, PureState, basis_ket, ghz_state, ket

from helpers import loop_svetlichny_value, merge_branch_amplitudes

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
angles6 = st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=6, max_size=6)


def ghz_angles(n: int) -> list[float]:
    """(0, pi/2) for every party but the last, (-pi/4, pi/4) for the last."""
    return [0.0, math.pi / 2] * (n - 1) + [-math.pi / 4, math.pi / 4]


def observables(angles) -> list[np.ndarray]:
    return [equatorial_observable(a) for a in angles]


def sign(t: int) -> float:
    return 1.0 if t % 4 < 2 else -1.0


def assert_same_bits(state, angles):
    settings_ = observables(angles)
    assert svetlichny_value(state, settings_).hex() == loop_svetlichny_value(state, settings_).hex()


@PROPERTY
@given(st.lists(unit, min_size=16, max_size=16), angles6)
def test_three_qubits_match_the_written_out_terms_bit_for_bit(parts, angles):
    amps = np.array(parts[:8]) + 1j * np.array(parts[8:])
    norm = np.linalg.norm(amps)
    if norm < 1e-3:
        amps, norm = np.eye(8, dtype=complex)[0], 1.0
    assert_same_bits(PureState(PartyDims((2, 2, 2)), amps / norm), angles)


@PROPERTY
@given(st.tuples(*[st.integers(0, 1)] * 3), angles6)
def test_product_basis_states_match_the_written_out_terms_bit_for_bit(levels, angles):
    assert_same_bits(basis_ket((2, 2, 2), levels), angles)


@pytest.mark.parametrize("n", range(2, 7))
def test_ghz_reaches_the_quantum_maximum(n):
    value = svetlichny_value(ghz_state(n), observables(ghz_angles(n)))
    assert abs(value - 2 ** (n - 1) * math.sqrt(2.0)) <= ATOL


@pytest.mark.parametrize("n", range(2, 6))
def test_ghz_class_states_meet_the_closed_form(n):
    """E(x) = 2 Re(conj(alpha) beta e^{-i sum phi}) on alpha|0...0> + beta|1...1>."""
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
        norm = math.hypot(abs(alpha), abs(beta))
        alpha, beta = alpha / norm, beta / norm
        amps = np.zeros(2**n, dtype=complex)
        amps[0], amps[-1] = alpha, beta
        angles = rng.uniform(-math.pi, math.pi, 2 * n)
        want = 0.0
        for choice in itertools.product((0, 1), repeat=n):
            phase = sum(angles[2 * i + c] for i, c in enumerate(choice))
            corr = 2.0 * (alpha.conjugate() * beta * cmath.exp(-1j * phase)).real
            want += sign(sum(choice)) * corr
        value = svetlichny_value(PureState(PartyDims((2,) * n), amps), observables(angles))
        assert abs(value - want) <= ATOL


def prop3_merged_branches(coeffs):
    config = ProtocolConfig(schmidt_coeffs=None if coeffs is None else normalize_schmidt(coeffs))
    chain = copy_chain("prop3", config)
    return merge_chain_to_ghz([chain.pairs[k] for k in _CHAIN_FAMILIES["prop3"].merge_order])


def test_uniform_prop3_merged_branches_exceed_the_bilocal_bound():
    merged = prop3_merged_branches(None)
    assert len(merged.branches) == 16
    for branch in merged.branches:
        value = svetlichny_value(branch.state, observables(ghz_angles(4)))
        assert abs(value - 8.0 * math.sqrt(2.0)) <= ATOL
        assert value > 8.0


def test_skewed_prop3_merged_branches_meet_their_closed_forms():
    """8*sqrt(2)*sin(2 theta) per branch: only some branches beat the bound of 8."""
    merged = prop3_merged_branches((0.2, 0.3, 0.5, 0.787))
    values = []
    for branch in merged.branches:
        a0, a1, _ = merge_branch_amplitudes(merged.pair_coefficients, branch.parity_pattern)
        sin_2theta = 2.0 * a0 * a1 / (a0 * a0 + a1 * a1)
        value = svetlichny_value(branch.state, observables(ghz_angles(4)))
        assert abs(value - 8.0 * math.sqrt(2.0) * sin_2theta) <= ATOL
        values.append(value)
    assert min(values) < 8.0 < max(values)


def test_eight_qubits_evaluate():
    value = svetlichny_value(ghz_state(8), observables(ghz_angles(8)))
    assert abs(value - 128.0 * math.sqrt(2.0)) <= ATOL


def test_nine_qubits_are_refused_before_any_operator_is_formed(monkeypatch):
    state = ghz_state(9)
    settings_ = observables(ghz_angles(9))

    def no_kron(*args, **kwargs):
        raise AssertionError("an operator was formed")

    monkeypatch.setattr(np, "kron", no_kron)
    with pytest.raises(ValueError, match="2 to 8 qubits"):
        svetlichny_value(state, settings_)


def test_non_qubit_parties_are_refused():
    state = ket([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], (3, 3))
    with pytest.raises(ValueError, match="qubits"):
        svetlichny_value(state, observables(ghz_angles(2)))


@pytest.mark.parametrize("n", [2, 4, 5])
def test_wrong_settings_count_names_n(n):
    with pytest.raises(ValueError, match=f"n = {n}"):
        svetlichny_value(ghz_state(n), ghz_optimal_settings())


def test_cli_keeps_its_three_qubit_contract(capsys):
    assert main(["svetlichny", "--builtin", "ghz4", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gmesim: error: the functional is defined for three qubits\n"
