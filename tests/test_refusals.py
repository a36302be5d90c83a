"""Argument checks of the public constructors and operations, one row each.

Each row is (callable, arguments, exception, message pattern): the call must
raise that exception with a message matching the pattern.  Most of these
refusals are reached by no other test.
"""

import numpy as np
import pytest

from gmesim.distill import (
    FilterPair,
    distill_pipeline,
    procrustean_filter,
    recurrence_round,
    twirl_to_isotropic,
)
from gmesim.entanglement import (
    Bipartition,
    enumerate_bipartitions,
    ghz_optimal_settings,
    negativity,
    partial_transpose,
    schmidt,
    svetlichny_value,
)
from gmesim.protocols import (
    build_prop1_general,
    build_sigma_prime,
    merge_chain_to_ghz,
    teleport,
)
from gmesim.qcore import (
    DensityOperator,
    PartyDims,
    ProjectiveMeasurement,
    PureState,
    basis_ket,
    bell_pair,
    contract_party,
    fidelity_pure,
    ghz_state,
    ket,
    permute_parties,
    relabel_subspace,
    state_projector_measurement,
    tensor,
)

PHI = bell_pair("phi+")
GHZ3 = ghz_state(3)
QUBIT0 = basis_ket((2,), (0,))
QUTRIT = ket([0.6, 0.8, 0.0], (3,))
EYE2 = np.eye(2, dtype=complex)
CUT3 = Bipartition(frozenset({0}), 3)


def settings_with(index, setting):
    """GHZ-optimal three-qubit settings with entry ``index`` replaced."""
    out = list(ghz_optimal_settings())
    out[index] = setting
    return out


REFUSALS = [
    # qcore value types
    ("PureState wrong length", PureState, (PartyDims((2, 2)), np.ones(3) / np.sqrt(3)),
     ValueError, r"amplitude vector has length 3, expected 4"),
    ("DensityOperator wrong shape", DensityOperator, (PartyDims((2,)), np.eye(3) / 3),
     ValueError, r"matrix has shape \(3, 3\), expected \(2, 2\)"),
    ("measurement repeated target", ProjectiveMeasurement, ((0, 0), (np.eye(4),)),
     ValueError, r"target parties must be distinct"),
    ("measurement without projectors", ProjectiveMeasurement, ((0,), ()),
     ValueError, r"at least one projector is required"),
    ("measurement unequal sizes", ProjectiveMeasurement, ((0,), (EYE2, np.zeros((3, 3)))),
     ValueError, r"projectors must be square and equally sized"),
    ("measurement non-Hermitian", ProjectiveMeasurement, ((0,), (np.array([[1, 1], [0, 0]]),)),
     ValueError, r"projector 0 is not Hermitian"),
    ("measurement non-idempotent", ProjectiveMeasurement, ((0,), (EYE2 / 2,)),
     ValueError, r"projector 0 is not idempotent"),
    # qcore constructors
    ("basis_ket level count", basis_ket, ((2, 2), (0,)),
     ValueError, r"one level per party is required"),
    ("basis_ket level range", basis_ket, ((2, 3), (1, 3)),
     ValueError, r"level 3 outside local dimension 3"),
    ("bell_pair unknown kind", bell_pair, ("chi+",), ValueError, r"unknown Bell state 'chi\+'"),
    ("ghz_state one party", ghz_state, (1,),
     ValueError, r"a GHZ-type state needs at least two parties"),
    ("reference on two parties", state_projector_measurement, (0, PHI),
     ValueError, r"reference state must live on a single party"),
    # qcore operations
    ("tensor mixed kinds", tensor, (PHI, PHI.density()),
     ValueError, r"tensor requires two states of the same kind"),
    ("contract_party density", contract_party, (PHI.density(), 0, [1.0, 0.0]),
     ValueError, r"contract_party operates on pure states"),
    ("contract_party reference size", contract_party, (PHI, 0, [1.0, 0.0, 0.0]),
     ValueError, r"reference vector does not match the party dimension"),
    ("overlap dims", PHI.overlap, (GHZ3,), ValueError, r"dimension mismatch"),
    ("fidelity_pure dims", fidelity_pure, (PHI.density(), GHZ3),
     ValueError, r"dimension mismatch between state and target"),
    ("relabel density", relabel_subspace, (QUTRIT.density(), 0, {1: 0, 2: 1}, 2),
     ValueError, r"relabel_subspace operates on pure states"),
    ("relabel party range", relabel_subspace, (QUTRIT, 1, {1: 0, 2: 1}, 2),
     ValueError, r"party index out of range"),
    ("relabel new dimension", relabel_subspace, (QUTRIT, 0, {1: 0}, 1),
     ValueError, r"new dimension must be >= 2"),
    ("relabel not injective", relabel_subspace, (QUTRIT, 0, {0: 0, 1: 0}, 2),
     ValueError, r"basis map must be injective"),
    ("relabel source level", relabel_subspace, (QUTRIT, 0, {3: 0, 1: 1}, 2),
     ValueError, r"source level 3 outside dimension 3"),
    ("relabel target level", relabel_subspace, (QUTRIT, 0, {0: 0, 1: 2}, 2),
     ValueError, r"target level 2 outside dimension 2"),
    ("permute non-permutation", permute_parties, (GHZ3, (0, 0, 2)),
     ValueError, r"order must be a permutation of 0\.\.2"),
    # entanglement
    ("Bipartition one party", Bipartition, (frozenset({0}), 1),
     ValueError, r"a bipartition needs at least two parties"),
    ("Bipartition party range", Bipartition, (frozenset({3}), 3),
     ValueError, r"party index out of range"),
    ("enumerate one party", enumerate_bipartitions, (1,), ValueError, r"need at least two parties"),
    ("schmidt cut", schmidt, (PHI, CUT3),
     ValueError, r"cut does not match the number of parties"),
    ("partial_transpose cut", partial_transpose, (PHI.density(), CUT3),
     ValueError, r"cut does not match the number of parties"),
    ("negativity cut", negativity, (PHI.density(), CUT3),
     ValueError, r"cut does not match the number of parties"),
    ("svetlichny not 2x2", svetlichny_value, (GHZ3, settings_with(2, np.eye(3))),
     ValueError, r"setting B must be a 2x2 matrix"),
    ("svetlichny non-Hermitian", svetlichny_value,
     (GHZ3, settings_with(1, np.array([[0, 1], [0, 0]]))),
     ValueError, r"setting A' is not Hermitian"),
    ("svetlichny square", svetlichny_value, (GHZ3, settings_with(5, np.diag([2.0, -2.0]))),
     ValueError, r"setting C' does not square to the identity"),
    # distill
    ("FilterPair shapes", FilterPair, (EYE2, np.zeros((3, 3))),
     ValueError, r"filter operators must be square and equally sized"),
    ("procrustean coefficient", procrustean_filter, (0.0, 1.0),
     ValueError, r"Schmidt coefficients must be positive"),
    ("twirl three qubits", twirl_to_isotropic, (GHZ3.density(),),
     ValueError, r"the twirl is defined for two qubits"),
    ("recurrence three qubits", recurrence_round, (GHZ3.density(),),
     ValueError, r"the recurrence round is defined for two-qubit pairs"),
    ("pipeline three qubits", distill_pipeline, (GHZ3.density(), 1),
     ValueError, r"the pipeline is defined for two-qubit pairs"),
    # protocols
    ("prop1 pair dims", build_prop1_general, (GHZ3, QUBIT0, QUBIT0, PHI, 0.5),
     ValueError, r"the entangled inputs must be two-qubit states"),
    ("prop1 reference dims", build_prop1_general, (PHI, QUTRIT, QUBIT0, PHI, 0.5),
     ValueError, r"the single-party inputs must be qubits"),
    ("sigma' pair dims", build_sigma_prime, (GHZ3, 0.5),
     ValueError, r"the shared pair must be a two-qubit state"),
    ("merge pair dims", merge_chain_to_ghz, ([PHI, GHZ3],),
     ValueError, r"pair 1 is not a two-qubit pure state"),
    ("teleport resource dims", teleport, (GHZ3, 0, GHZ3),
     ValueError, r"the resource must be a two-qubit pure state"),
]


@pytest.mark.parametrize(
    "call,args,error,pattern", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS]
)
def test_refused_with_a_named_error(call, args, error, pattern):
    with pytest.raises(error, match=pattern):
        call(*args)
