"""Corrections and relabels that only move or negate amplitudes, applied by index.

``teleport`` applies its Bell outcome's Pauli to the receiver by swapping and
negating its levels, ``relabel_subspace`` gathers source levels into target
levels, and the recurrence round reads each target-pair outcome k of the
bilateral CNOT off the pair's entries at x ^ k.  Each is pinned here against
the 0/±1 matrix it stands for: ``helpers.loop_teleport`` (I, Z, X or ZX
through ``apply_local_unitary``) byte for byte;
``helpers.isometry_relabel_subspace`` (the isometry contracted by
``np.tensordot``) by value, since a zero amplitude may carry the other sign
there; and ``distill._XOR`` against CNOT (x) CNOT and the readout.  The chain
merge's X and Z fixes are pinned by ``tests/test_merge_stack.py`` and the
copy-chain oracles.
"""

import numpy as np
import pytest

from gmesim import distill
from gmesim.protocols import teleport
from gmesim.qcore import PartyDims, PureState, bell_pair, ket, relabel_subspace

from helpers import isometry_relabel_subspace, loop_embed, loop_teleport

PHI = bell_pair("phi+")


def outcome(fn, *args):
    """The bytes and dims of a call's state, or its exception type and message."""
    try:
        state = fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)
    return state.dims.dims, state.amplitudes.tobytes()


def random_state(rng, dims, zeros=0.3) -> PureState:
    """A random state with about ``zeros`` of its amplitudes exactly zero, some as -0.0."""
    d = int(np.prod(dims))
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    amps[rng.random(d) < zeros] = 0.0
    if not amps.any():
        amps[rng.integers(d)] = 1.0
    amps /= np.linalg.norm(amps)
    parts = amps.view(float)
    parts[(parts == 0.0) & (rng.random(2 * d) < 0.5)] = -0.0
    return PureState(PartyDims(tuple(dims)), amps)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_teleport_is_the_matrix_correction_byte_for_byte(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(40):
        dims = [int(d) for d in rng.integers(2, 4, n)]
        party = int(rng.integers(n))
        dims[party] = 2
        state = random_state(rng, dims)
        for k in (None, 0, 1, 2, 3):
            got = outcome(teleport, state, party, PHI, k)
            assert got == outcome(loop_teleport, state, party, PHI, k)
            assert got[0] == tuple(dims)


@pytest.mark.parametrize("args", [
    (ket([0.6, 0.8], (2,)), 0, PHI, 4),
    (ket([0.6, 0.8], (2,)), 1, PHI, None),
    (ket([0.6, 0.0, 0.8], (3,)), 0, PHI, None),
    (ket([0.6, 0.8], (2,)), 0, ket([0.6, 0, 0, 0.8], (2, 2)), 0),
    (ket([0.6, 0.8], (2,)), 0, ket([0.6, 0.8], (2,)), 0),
], ids=["outcome", "party", "qutrit", "partial-resource", "one-qubit-resource"])
def test_teleport_refusals_are_the_matrix_forms(args):
    got = outcome(teleport, *args)
    assert got[0] == "ValueError" and got == outcome(loop_teleport, *args)


def test_relabel_is_the_isometry_by_value():
    rng = np.random.default_rng(7)
    compared = differing_signs = 0
    for _ in range(3000):
        n = int(rng.integers(1, 4))
        dims = [int(d) for d in rng.integers(2, 5, n)]
        party, new_dim = int(rng.integers(n)), int(rng.integers(2, 6))
        count = int(rng.integers(1, min(dims[party], new_dim) + 1))
        sources = rng.permutation(dims[party])[:count].tolist()
        basis_map = dict(zip(sources, rng.permutation(new_dim)[:count].tolist()))
        state = random_state(rng, dims)
        # clear the unmapped levels, or leave population below the prune threshold
        amps = np.moveaxis(state.amplitudes.reshape(dims).copy(), party, 0)
        unmapped = [lv for lv in range(dims[party]) if lv not in basis_map]
        amps[unmapped] *= 0.0 if rng.random() < 0.5 else 1e-7
        if not amps.any():
            continue
        state = PureState(PartyDims(tuple(dims)), np.moveaxis(amps, 0, party).reshape(-1)
                          / np.linalg.norm(amps))
        got = outcome(relabel_subspace, state, party, basis_map, new_dim)
        want = outcome(isometry_relabel_subspace, state, party, basis_map, new_dim)
        assert got[0] == want[0]
        if got[0] == "ValueError":  # population left above the prune threshold
            assert got == want
            continue
        assert np.array_equal(np.frombuffer(got[1], complex), np.frombuffer(want[1], complex))
        compared += 1
        differing_signs += got != want
    # the signs of zeros are all that may differ, and the states above reach them
    assert compared > 2000 and differing_signs


QUTRIT = ket([0.0, 0.6, 0.8], (3,))


@pytest.mark.parametrize("args", [
    (bell_pair("phi+").density(), 0, {0: 0}, 2),
    (QUTRIT, 1, {1: 0, 2: 1}, 2),
    (QUTRIT, 0, {1: 0, 2: 1}, 1),
    (QUTRIT, 0, {1: 0, 2: 1}, 2.5),
    (QUTRIT, 0, {3: 0, 2: 1}, 2),
    (QUTRIT, 0, {1: 0, 2: 2}, 2),
    (QUTRIT, 0, {1: 1, 2: 1}, 2),
    (QUTRIT, 0, {1: 0}, 2),
    (QUTRIT, 0, {}, 2),
], ids=["density", "party", "small-dim", "float-dim", "source", "target", "injective",
        "lost-population", "empty-map"])
def test_relabel_refusals_are_the_isometry_forms(args):
    got = outcome(relabel_subspace, *args)
    assert got[0] == "ValueError" and got == outcome(isometry_relabel_subspace, *args)


def test_bilateral_perm_is_cnot_on_both_sides():
    """Outcome k of the target-pair readout after CNOT (x) CNOT keeps joint
    row 4x + k, which the gate fills from row 4x + (x ^ k) of the two copies."""
    cnot = np.eye(4)[[0, 1, 3, 2]]
    dims = (2, 2, 2, 2)  # A1 B1 A2 B2
    gate = loop_embed(cnot, (1, 3), dims) @ loop_embed(cnot, (0, 2), dims)
    for k in range(4):
        readout = loop_embed(np.diag(np.eye(4)[k]), (2, 3), dims)
        rows, cols = np.nonzero(readout @ gate)
        assert rows.tolist() == [4 * x + k for x in range(4)]
        assert cols.tolist() == [4 * x + int(distill._XOR[k, x]) for x in range(4)]
        assert np.array_equal((readout @ gate)[rows, cols], np.ones(4))
