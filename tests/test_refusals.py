"""Argument checks of the public constructors and operations, one row each.

Each row is (callable, arguments, exception, message pattern): the call must
raise that exception with a message matching the pattern.  Most of these
refusals are reached by no other test.  Every count, seed and index argument
goes through one integer rule, ``qcore._integer``: a float, a bool or a
numeric string is refused by name, and a NumPy integer is taken as an int.
Every real argument goes through one real rule, ``qcore._real``: a bool, a
numeric string or None is refused by name, and a NumPy float or integer is
taken as a float.
"""

import re
import warnings

import numpy as np
import pytest

from gmesim import qcore
from gmesim.cli import resolve_seed

from gmesim.distill import (
    FilterPair,
    distill_pipeline,
    isotropic_state,
    procrustean_filter,
    recurrence_round,
    twirl_to_isotropic,
)
from gmesim.entanglement import (
    Bipartition,
    SchmidtData,
    enumerate_bipartitions,
    ghz_optimal_settings,
    negativity,
    partial_transpose,
    schmidt,
    svetlichny_value,
)
from gmesim.protocols import (
    ProtocolConfig,
    analytic_Pn,
    build_prop1_general,
    build_prop2_state,
    build_prop3_state,
    build_sigma,
    build_sigma_prime,
    merge_chain_to_ghz,
    normalize_schmidt,
    run_sigma_adaptive,
    sample_leaves,
    sigma_scan,
    teleport,
)
from gmesim.qcore import (
    DensityOperator,
    PartyDims,
    ProjectiveMeasurement,
    PureState,
    apply_local_unitary,
    basis_ket,
    bell_pair,
    contract_party,
    fidelity_pure,
    ghz_state,
    ket,
    level_group_measurement,
    measure,
    mix,
    partial_trace,
    permute_parties,
    postselect_levels,
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
Z_BASIS = ProjectiveMeasurement((0,), tuple(np.diag(row) for row in EYE2))
LEAVES = [("a", 0.5, True, 1), ("b", 0.5, False, 1)]
TERMS = [(1.0, tensor(QUTRIT, QUBIT0))]  # dims (3, 2)
SPLIT = [[0], [1, 2]]
PARTIAL = ket([0.6, 0.0, 0.0, 0.8], (2, 2))  # entangled, not maximally
UNIFORM3 = (1.0 / np.sqrt(3.0),) * 3
THIRDS = (1.0 / 3.0,) * 3


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
     ValueError, r"level 3 out of range for 3 levels"),
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
     ValueError, r"source level 3 out of range for 3 levels"),
    ("relabel target level", relabel_subspace, (QUTRIT, 0, {0: 0, 1: 2}, 2),
     ValueError, r"target level 2 out of range for 2 levels"),
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
    # counts and indices out of their range
    ("config max_copies", ProtocolConfig, (0.5,) + ((1 / 3,) * 3, None, 10, 42, 0),
     ValueError, r"^max_copies must be a positive integer, got 0$"),
    ("sigma_scan n_max", sigma_scan, ([0.5], -1, 10, 0),
     ValueError, r"^n_max must be a non-negative integer, got -1$"),
    ("analytic_Pn n", analytic_Pn, (0.5, -1),
     ValueError, r"^n must be a non-negative integer, got -1$"),
    ("pipeline rounds", distill_pipeline, (PHI.density(), 0),
     ValueError, r"^rounds must be a positive integer, got 0$"),
    ("teleport outcome -1", teleport, (GHZ3, 0, PHI, -1),
     ValueError, r"^outcome -1 out of range for 4 Bell outcomes$"),
    ("teleport outcome 4", teleport, (GHZ3, 0, PHI, 4),
     ValueError, r"^outcome 4 out of range for 4 Bell outcomes$"),
    ("teleport input party", teleport, (GHZ3, 3, PHI),
     ValueError, r"^input party 3 out of range for 3 parties$"),
    ("measurement negative target", ProjectiveMeasurement, ((-1,), (EYE2,)),
     ValueError, r"^target party must be a non-negative integer, got -1$"),
    ("partial_trace discard range", partial_trace, (PHI.density(), [2]),
     ValueError, r"^discard index 2 out of range for 2 parties$"),
    ("level group range", level_group_measurement, (0, 3, [[0], [1, 3]]),
     ValueError, r"^level 3 out of range for 3 levels$"),
    # real arguments: the forms of the real rule
    ("config p range", ProtocolConfig, (0.0,),
     ValueError, r"^p must lie strictly inside \(0, 1\)$"),
    ("p under a flag's name", qcore._probability, (2.0, "--p"),
     ValueError, r"^--p must lie strictly inside \(0, 1\)$"),
    ("config complex p", ProtocolConfig, (0.5 + 0j,),
     ValueError, r"^p must be a real number, got \(0\.5\+0j\)$"),
    ("analytic_Pn huge p", analytic_Pn, (10**400, 2),
     ValueError, r"^p is an integer too large for a float$"),
    ("config weights count", ProtocolConfig, (0.5, (0.5, 0.5)),
     ValueError, r"^three positive weights are required$"),
    ("config weights sum", ProtocolConfig, (0.5, (0.5, 0.5, 0.5)),
     ValueError, r"^weights must sum to 1$"),
    ("sigma' product pair", build_sigma_prime, (ket([1.0, 0.0, 0.0, 0.0], (2, 2)), 0.5),
     ValueError, r"^the shared pair must be entangled \(Schmidt rank 2\), got a product state$"),
    ("sigma run product pair", run_sigma_adaptive, (ProtocolConfig(schmidt_coeffs=(1.0, 1e-12)),),
     ValueError, r"^the shared pair must be entangled \(Schmidt rank 2\), got a product state$"),
    ("sigma_scan non-finite p", sigma_scan, ([float("nan")], 2, 10, 0),
     ValueError, r"^p_list must be finite, got \(nan,\)$"),
    ("mix weights sum", mix, ([(0.7, PHI), (0.5, PHI)],),
     ValueError, r"^mixture weights must sum to 1$"),
    ("mix zero terms", mix, ([],), ValueError, r"^mixture weights must sum to 1$"),
    ("mix huge weight", mix, ([(10**400, PHI)],),
     ValueError, r"^mixture weights\[0\] is an integer too large for a float$"),
    ("SchmidtData string coefficients", SchmidtData, (("0.8", "0.6"), 2),
     ValueError, r"^Schmidt coefficients\[0\] must be a real number, got '0\.8'$"),
    ("SchmidtData bool coefficients", SchmidtData, ((True, False), 1),
     ValueError, r"^Schmidt coefficients\[0\] must be a real number, got True$"),
    ("SchmidtData NaN coefficient", SchmidtData, ((float("nan"),), 1),
     ValueError, r"^Schmidt coefficients must be finite, got \(nan,\)$"),
    ("SchmidtData rank above the coefficients", SchmidtData, ((1.0,), 7),
     ValueError, r"^Schmidt rank 7 exceeds the 1 coefficients$"),
    ("SchmidtData negative rank", SchmidtData, ((1.0,), -1),
     ValueError, r"^Schmidt rank must be a non-negative integer, got -1$"),
]

#: (label, name in the message, call with the argument set to x), for every
#: integer argument the rule checks.
INTEGER_ARGUMENTS = [
    ("config shots", "shots", lambda x: ProtocolConfig(shots=x)),
    ("config max_copies", "max_copies", lambda x: ProtocolConfig(max_copies=x)),
    ("config seed", "seed", lambda x: ProtocolConfig(seed=x)),
    ("sample_leaves shots", "shots", lambda x: sample_leaves("prop2", LEAVES, x, 0)),
    ("sample_leaves seed", "seed", lambda x: sample_leaves("prop2", LEAVES, 10, x)),
    ("sigma_scan n_max", "n_max", lambda x: sigma_scan([0.5], x, 10, 0)),
    ("sigma_scan shots", "shots", lambda x: sigma_scan([0.5], 2, x, 0)),
    ("sigma_scan seed", "seed", lambda x: sigma_scan([0.5], 2, 10, x)),
    ("analytic_Pn n", "n", lambda x: analytic_Pn(0.5, x)),
    ("teleport input party", "input party", lambda x: teleport(GHZ3, x, PHI)),
    ("teleport outcome", "outcome", lambda x: teleport(GHZ3, 0, PHI, outcome=x)),
    ("pipeline rounds", "rounds", lambda x: distill_pipeline(PHI.density(), x)),
    ("measure keep", "keep index", lambda x: measure(PHI, Z_BASIS, keep=(x,))),
    ("postselect party", "party index", lambda x: postselect_levels(TERMS, [(x, SPLIT, 0)], [1])),
    ("postselect accept", "accept index",
     lambda x: postselect_levels(TERMS, [(0, SPLIT, x)], [1])),
    ("postselect level", "level", lambda x: postselect_levels(TERMS, [(0, [[0], [1, x]], 0)], [1])),
    ("projector target", "target party", lambda x: ProjectiveMeasurement((x,), (EYE2,))),
    ("basis_ket level", "level", lambda x: basis_ket((2, 3), (0, x))),
    ("ghz_state n_parties", "n_parties", ghz_state),
    ("level group dim", "dim", lambda x: level_group_measurement(0, x, [[0], [1]])),
    ("level group", "level", lambda x: level_group_measurement(0, 3, [[0], [1, x]])),
    ("partial_trace discard", "discard index", lambda x: partial_trace(PHI.density(), [x])),
    ("unitary target", "party index", lambda x: apply_local_unitary(PHI, EYE2, (x,))),
    ("relabel party", "party index", lambda x: relabel_subspace(QUTRIT, x, {1: 0, 2: 1}, 2)),
    ("relabel new dimension", "new dimension",
     lambda x: relabel_subspace(QUTRIT, 0, {1: 0, 2: 1}, x)),
    ("relabel source level", "source level", lambda x: relabel_subspace(QUTRIT, 0, {x: 0}, 2)),
    ("relabel target level", "target level", lambda x: relabel_subspace(QUTRIT, 0, {1: x}, 2)),
    ("permute order", "order entry", lambda x: permute_parties(PHI, (x, 0))),
    ("Bipartition party", "party index", lambda x: Bipartition(frozenset({x}), 3)),
    ("Bipartition n_parties", "n_parties", lambda x: Bipartition(frozenset({0}), x)),
    ("enumerate n_parties", "n_parties", enumerate_bipartitions),
    ("SchmidtData rank", "Schmidt rank", lambda x: SchmidtData((1.0,), x)),
    ("resolve_seed", "--seed", resolve_seed),
]
NOT_INTEGERS = [2.7, True, "3"]
INTEGER_ROWS = [
    pytest.param(name, call, bad, id=f"{label} {bad!r}")
    for label, name, call in INTEGER_ARGUMENTS for bad in NOT_INTEGERS
    if not (call is resolve_seed and isinstance(bad, str))  # the seed's text is parsed first
]


@pytest.mark.parametrize(
    "call,args,error,pattern", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS]
)
def test_refused_with_a_named_error(call, args, error, pattern):
    with pytest.raises(error, match=pattern):
        call(*args)


@pytest.mark.parametrize("name,call,bad", INTEGER_ROWS)
def test_an_integer_argument_refuses_what_int_would_coerce(name, call, bad):
    pattern = f"^{re.escape(name)} must be an integer, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=pattern):
        call(bad)


#: (label, call with an integer argument of the given kind): a NumPy integer
#: gives what the same Python int gives.
NUMPY_INTEGER_CALLS = [
    ("config", lambda k: ProtocolConfig(shots=k(3), max_copies=k(2), seed=k(5))),
    ("sample_leaves", lambda k: sample_leaves("prop2", LEAVES, k(10), k(5))),
    ("sigma_scan", lambda k: sigma_scan([0.5], k(2), k(10), k(5))),
    ("teleport", lambda k: teleport(GHZ3, k(1), PHI, outcome=k(2)).amplitudes.tolist()),
    ("pipeline", lambda k: distill_pipeline(PHI.density(), k(2))),
    ("measure keep",
     lambda k: [o.post_state is None for o in measure(PHI, Z_BASIS, keep=(k(1),))]),
    ("postselect",
     lambda k: postselect_levels(TERMS, [(k(0), SPLIT, k(0))], [k(1)])[1].matrix.tolist()),
    ("basis_ket", lambda k: basis_ket((2, 3), (k(1), k(2))).amplitudes.tolist()),
    ("relabel", lambda k: relabel_subspace(QUTRIT, k(0), {k(1): k(0), k(0): k(1)}, k(2)).dims),
    ("permute", lambda k: permute_parties(GHZ3, (k(2), k(0), k(1))).dims),
    ("Bipartition", lambda k: Bipartition(frozenset({k(2)}), k(3))),
    ("enumerate", lambda k: enumerate_bipartitions(k(3))),
    ("SchmidtData", lambda k: SchmidtData((0.8, 0.6), k(2))),
    ("resolve_seed", lambda k: resolve_seed(k(7))),
]


def _types(value) -> list:
    """The types of an integer result and of the fields of a dataclass result."""
    fields = getattr(value, "__dataclass_fields__", None)
    return [type(getattr(value, f)) for f in fields] if fields else [type(value)]


@pytest.mark.parametrize("call", [row[1] for row in NUMPY_INTEGER_CALLS],
                         ids=[row[0] for row in NUMPY_INTEGER_CALLS])
def test_numpy_integers_are_taken_as_ints(call):
    want, got = call(int), call(np.int64)
    assert got == want
    assert _types(got) == _types(want)


#: (label, name in the message, call with the argument set to x), for every
#: real argument the rule checks; a sequence is checked entry by entry, and
#: its entry i is named ``name[i]``.
REAL_ARGUMENTS = [
    ("config p", "p", lambda x: ProtocolConfig(p=x)),
    ("config weight", "weights[0]", lambda x: ProtocolConfig(weights=(x, 0.5, 0.5))),
    ("config Schmidt", "Schmidt coefficients[0]",
     lambda x: ProtocolConfig(schmidt_coeffs=(x, 0.6))),
    ("normalize_schmidt", "Schmidt coefficients[0]", lambda x: normalize_schmidt([x, 1.0])),
    ("prop1 p", "p", lambda x: build_prop1_general(PHI, QUBIT0, QUBIT0, PHI, x)),
    ("prop2 p", "p", lambda x: build_prop2_state(UNIFORM3, x)),
    ("prop2 Schmidt", "Schmidt coefficients[1]",
     lambda x: build_prop2_state((0.6, x, 0.8), 0.5)),
    ("prop3 Schmidt", "Schmidt coefficients[3]",
     lambda x: build_prop3_state((0.5, 0.5, 0.5, x), THIRDS)),
    ("prop3 weight", "weights[2]", lambda x: build_prop3_state((0.5,) * 4, (0.5, 0.5, x))),
    ("sigma p", "p", build_sigma),
    ("sigma' p", "p", lambda x: build_sigma_prime(PARTIAL, x)),
    ("analytic_Pn p", "p", lambda x: analytic_Pn(x, 2)),
    ("sigma_scan p", "p_list[0]", lambda x: sigma_scan([x], 2, 10, 0)),
    ("mix weight", "mixture weights[0]", lambda x: mix([(x, PHI)])),
    ("postselect weight", "mixture weights[0]",
     lambda x: postselect_levels([(x, TERMS[0][1])], [(0, SPLIT, 0)], [1])),
    ("procrustean a", "Schmidt coefficients[0]", lambda x: procrustean_filter(x, 0.5)),
    ("procrustean b", "Schmidt coefficients[1]", lambda x: procrustean_filter(0.5, x)),
    ("isotropic fidelity", "fidelity", isotropic_state),
    ("SchmidtData coefficient", "Schmidt coefficients[0]", lambda x: SchmidtData((x,), 1)),
]
#: (label, name in the message, call with the sequence set to x)
SEQUENCE_ARGUMENTS = [
    ("config weights", "weights", lambda x: ProtocolConfig(weights=x)),
    ("config Schmidt", "Schmidt coefficients", lambda x: ProtocolConfig(schmidt_coeffs=x)),
    ("normalize_schmidt", "Schmidt coefficients", normalize_schmidt),
    ("prop2 Schmidt", "Schmidt coefficients", lambda x: build_prop2_state(x, 0.5)),
    ("prop3 Schmidt", "Schmidt coefficients", lambda x: build_prop3_state(x, THIRDS)),
    ("prop3 weights", "weights", lambda x: build_prop3_state((0.5,) * 4, x)),
    ("sigma_scan p_list", "p_list", lambda x: sigma_scan(x, 2, 10, 0)),
    ("SchmidtData", "Schmidt coefficients", lambda x: SchmidtData(x, 1)),
]
NOT_REALS = [True, "0.5", None]
REAL_ROWS = [
    pytest.param(f"{name} must be a real number", call, bad, id=f"{label} {bad!r}")
    for label, name, call in REAL_ARGUMENTS for bad in NOT_REALS
] + [
    pytest.param(f"{name} must be a sequence of real numbers", call, bad,
                 id=f"{label} sequence {bad!r}")
    for label, name, call in SEQUENCE_ARGUMENTS for bad in NOT_REALS
    if not (label == "config Schmidt" and bad is None)  # None asks for uniform coefficients
]


@pytest.mark.parametrize("message,call,bad", REAL_ROWS)
def test_a_real_argument_refuses_what_float_would_coerce(message, call, bad):
    pattern = f"^{re.escape(message)}, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=pattern):
        call(bad)


#: (label, kind of the Python value, call with real arguments of that kind):
#: a NumPy float or integer gives what the same Python number gives, a float.
NUMPY_REAL_CALLS = [
    ("config", float, lambda k: ProtocolConfig(
        p=k(0.25), weights=(k(0.5), k(0.25), k(0.25)), schmidt_coeffs=(k(0.6), k(0.8)))),
    ("analytic_Pn", float, lambda k: analytic_Pn(k(0.5), 3)),
    ("rule float", float, lambda k: qcore._real(k(0.5), "x")),
    ("rule integer", int, lambda k: qcore._real(k(3), "x")),
    ("rule sequence", int, lambda k: qcore._reals([k(3), k(4)], "x")[1]),
]
NUMPY_KINDS = {float: np.float64, int: np.int64}


@pytest.mark.parametrize("kind,call", [row[1:] for row in NUMPY_REAL_CALLS],
                         ids=[row[0] for row in NUMPY_REAL_CALLS])
def test_numpy_reals_are_taken_as_floats(kind, call):
    want, got = call(kind), call(NUMPY_KINDS[kind])
    assert got == want
    assert _types(got) == _types(want)


@pytest.mark.parametrize("run", [
    lambda terms: mix(terms),
    lambda terms: postselect_levels(terms, [(0, [[0], [1]], 0)], [1]),
], ids=["mix", "postselect_levels"])
def test_nan_mixture_weights_are_refused_before_any_array(run):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^mixture weights must be finite, got \(nan, 0\.5\)$"):
            run([(float("nan"), PHI), (0.5, PHI)])
