"""Simulation toolkit for activating genuine multipartite entanglement.

The package simulates LOCC protocols that consume copies of biseparable
multiparty states one at a time and, with some probability, leave a genuinely
multipartite entangled state behind.  ``qcore`` provides the dense
state-vector / density-operator arithmetic, ``entanglement`` the certificates
(negativity per bipartition, Schmidt ranks, a tripartite nonlocality
functional), ``protocols`` the activation protocols themselves, and
``distill`` a recurrence-style purification pipeline for the noisy pairs the
protocols produce.  ``cli`` wraps everything into reproducible command-line
reports.
"""

__version__ = "0.1.0"

from .distill import (
    FilterPair,
    PipelineResult,
    distill_pipeline,
    identity_filter,
    isotropic_state,
    local_filter,
    procrustean_filter,
    recurrence_round,
    twirl_to_isotropic,
)
from .entanglement import (
    Bipartition,
    BipartitionReport,
    CutRecord,
    SchmidtData,
    SVETLICHNY_CLASSICAL_BOUND,
    SVETLICHNY_QUANTUM_BOUND,
    certify_entangled_all_cuts,
    certify_gme_pure,
    enumerate_bipartitions,
    equatorial_observable,
    ghz_optimal_settings,
    negativity,
    partial_transpose,
    schmidt,
    svetlichny_value,
)
from .protocols import (
    CopyChain,
    MergeBranch,
    MergeResult,
    MonteCarloSummary,
    ProtocolConfig,
    ProtocolReport,
    StepRecord,
    analytic_Pn,
    build_prop1_example,
    build_prop1_general,
    build_prop2_state,
    build_prop3_state,
    build_sigma,
    build_sigma_prime,
    chain_leaves,
    copy_chain,
    distribute_via_teleportation,
    merge_chain_to_ghz,
    monte_carlo,
    normalize_schmidt,
    replay_chain,
    run_prop1_step,
    run_prop2,
    run_prop3,
    run_sigma_adaptive,
    sample_leaves,
    sigma_scan,
    teleport,
)
from .qcore import (
    DensityOperator,
    InvariantError,
    MeasurementOutcome,
    PartyDims,
    ProjectiveMeasurement,
    PureState,
    apply_local_unitary,
    basis_ket,
    bell_basis,
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
    purity,
    relabel_subspace,
    state_projector_measurement,
    tensor,
    to_pure,
)

__all__ = [
    "__version__",
    # qcore (postselect_levels takes a level map and returns a qubit PureState or None)
    "PartyDims", "PureState", "DensityOperator", "ProjectiveMeasurement",
    "MeasurementOutcome", "InvariantError", "ket", "basis_ket", "bell_pair",
    "bell_basis", "ghz_state", "tensor", "mix", "measure", "partial_trace",
    "apply_local_unitary", "relabel_subspace", "permute_parties",
    "contract_party", "level_group_measurement", "state_projector_measurement",
    "fidelity_pure", "purity", "to_pure", "postselect_levels",
    # entanglement
    "Bipartition", "BipartitionReport", "CutRecord", "SchmidtData",
    "enumerate_bipartitions", "schmidt", "negativity", "partial_transpose",
    "certify_entangled_all_cuts", "certify_gme_pure", "equatorial_observable",
    "ghz_optimal_settings", "svetlichny_value",
    "SVETLICHNY_CLASSICAL_BOUND", "SVETLICHNY_QUANTUM_BOUND",
    # distill
    "FilterPair", "PipelineResult", "identity_filter", "procrustean_filter",
    "local_filter", "twirl_to_isotropic", "isotropic_state",
    "recurrence_round", "distill_pipeline",
    # protocols
    "ProtocolConfig", "ProtocolReport", "StepRecord", "MergeBranch",
    "MergeResult", "MonteCarloSummary", "normalize_schmidt",
    "build_prop1_general", "build_prop1_example", "build_prop2_state",
    "build_sigma", "build_sigma_prime", "build_prop3_state", "run_prop1_step",
    "run_prop2", "run_prop3", "run_sigma_adaptive", "merge_chain_to_ghz",
    "teleport", "distribute_via_teleportation", "monte_carlo", "analytic_Pn",
    "sigma_scan", "CopyChain", "copy_chain", "replay_chain", "chain_leaves",
    "sample_leaves",
]
