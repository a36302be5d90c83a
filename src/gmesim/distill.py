"""Two-qubit entanglement distillation building blocks.

The pipeline offered here is deliberately concrete: an optional local filter
(the Procrustean trick on the dominant eigenvector), an exact twirl to the
isotropic family, and then repeated two-to-one recurrence rounds read off the
pair's own entries by index.  Everything is exact dense arithmetic; acceptance
probabilities come out of the simulation, not a formula.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .qcore import (
    ATOL,
    PRUNE_ATOL,
    DensityOperator,
    PartyDims,
    _frozen_array,
    _hermitian_part,
    _integer,
    _local_branches,
    _real,
    _reals,
    _require_probability_sum,
    apply_local_unitary,
    bell_pair,
    fidelity_pure,
    mix,
)

_PHI_PLUS = bell_pair("phi+")
_PHI_PROJ = np.outer(_PHI_PLUS.amplitudes, _PHI_PLUS.amplitudes.conj())

# Bell fidelity must exceed this threshold for the recurrence map to improve.
DISTILLABLE_FIDELITY = 0.5


@dataclass(frozen=True)
class FilterPair:
    """A two-outcome local filter {K0, K1} on one qubit, with K0'K0 + K1'K1 = 1."""

    k0: np.ndarray
    k1: np.ndarray

    def __post_init__(self):
        k0 = np.array(self.k0, dtype=complex)
        k1 = np.array(self.k1, dtype=complex)
        k0.setflags(write=False)
        k1.setflags(write=False)
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "k1", k1)
        if k0.shape != k1.shape or k0.shape[0] != k0.shape[1]:
            raise ValueError("filter operators must be square and equally sized")
        # every state's two outcome probabilities then sum to one within the
        # residual's operator norm; the other half of ATOL covers their rounding
        residual = k0.conj().T @ k0 + k1.conj().T @ k1 - np.eye(k0.shape[0])
        norm = float(np.max(np.abs(np.linalg.eigvalsh(residual))))
        if not norm <= ATOL / 2:
            raise ValueError(
                "filter operators must satisfy the completeness relation: K0'K0 + K1'K1 - 1 "
                f"has operator norm {norm:.3e}, above {ATOL / 2:g}"
            )


def identity_filter(dim: int = 2) -> FilterPair:
    return FilterPair(np.eye(dim, dtype=complex), np.zeros((dim, dim), dtype=complex))


def procrustean_filter(a: float, b: float) -> FilterPair:
    """Filter that balances a two-term Schmidt state a|00> + b|11> to Bell form.

    Applied to the first qubit, the success operator diag(b, a)/max(a, b)
    equalizes the two Schmidt coefficients; the known success probability on
    the pure input is 2*min(a^2, b^2).
    """
    a, b = _reals((a, b), "Schmidt coefficients", positive=True)
    m = max(a, b)
    k0 = np.diag([b / m, a / m]).astype(complex)
    k1 = np.diag(
        [math.sqrt(max(0.0, 1.0 - (b / m) ** 2)), math.sqrt(max(0.0, 1.0 - (a / m) ** 2))]
    ).astype(complex)
    return FilterPair(k0, k1)


def local_filter(
    rho: DensityOperator, party: int, filter_pair: FilterPair
) -> list[tuple[float, DensityOperator | None]]:
    """Apply a local filter to one party; returns (probability, post state) per branch.

    Branch probabilities sum to one by the completeness relation.  A branch of
    negligible probability carries ``None`` as its state.
    """
    return _local_branches(rho, (filter_pair.k0, filter_pair.k1), (party,))


# ---------------------------------------------------------------------------
# twirl
# ---------------------------------------------------------------------------


@functools.cache
def _single_qubit_cliffords() -> tuple[np.ndarray, ...]:
    """The 24 single-qubit Clifford rotations, canonicalized up to phase, read-only."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    s = np.diag([1.0, 1.0j]).astype(complex)

    def canon(u: np.ndarray) -> tuple:
        flat = u.reshape(-1)
        pivot = int(np.argmax(np.abs(flat) > 1e-8))
        u = u * (abs(flat[pivot]) / flat[pivot])
        return tuple(np.round(u.reshape(-1), 8))

    group: dict[tuple, np.ndarray] = {}
    frontier = [np.eye(2, dtype=complex)]
    group[canon(frontier[0])] = frontier[0]
    while frontier:
        nxt = []
        for u in frontier:
            for g in (h, s):
                v = g @ u
                key = canon(v)
                if key not in group:
                    group[key] = v
                    nxt.append(v)
        frontier = nxt
    members = tuple(map(_frozen_array, group.values()))
    if len(members) != 24:  # pragma: no cover - structural sanity
        raise AssertionError(f"expected 24 Clifford rotations, found {len(members)}")
    return members


@functools.cache
def _twirl_superoperators() -> tuple[np.ndarray, np.ndarray]:
    """The read-only (24, 4, 4) stack of U (x) conj(U), and its adjoints as a view."""
    bigs = _frozen_array([np.kron(u, u.conj()) for u in _single_qubit_cliffords()])
    return bigs, _frozen_array(bigs.conj()).transpose(0, 2, 1)


def twirl_to_isotropic(rho: DensityOperator) -> DensityOperator:
    """Project a two-qubit state onto the isotropic family.

    Realized as the exact convex average of the 24 U (x) conj(U) conjugations
    over the single-qubit Clifford group (one stacked product), which reproduces
    the full continuous twirl.  The Bell-state fidelity <phi+|rho|phi+> is preserved.
    """
    if rho.dims.dims != (2, 2):
        raise ValueError("the twirl is defined for two qubits")
    bigs, adjs = _twirl_superoperators()
    acc = (bigs @ rho.matrix @ adjs).sum(axis=0)  # term by term, in group order
    acc /= len(bigs)
    return DensityOperator(rho.dims, _hermitian_part(acc, 2.0))


def isotropic_state(fidelity: float) -> DensityOperator:
    """F|phi+><phi+| + (1-F) (1 - |phi+><phi+|)/3."""
    f = _real(fidelity, "fidelity")
    if not 0.0 <= f <= 1.0:
        raise ValueError("fidelity must lie in [0, 1]")
    mat = f * _PHI_PROJ + (1.0 - f) * (np.eye(4) - _PHI_PROJ) / 3.0
    return DensityOperator(PartyDims((2, 2)), mat)


# ---------------------------------------------------------------------------
# recurrence
# ---------------------------------------------------------------------------

# CNOT(A1 -> A2) (x) CNOT(B1 -> B2) on copies A1 B1 and A2 B2 XORs the source
# pair's bits x into the target pair's, which reads k where it held x ^ k.
_XOR = np.arange(4) ^ np.arange(4)[:, None]  # row k maps x to x ^ k
_JOINT_DIMS = PartyDims((2,) * 4)  # A1 B1 A2 B2, as the readout's sum check names them


def recurrence_round(rho: DensityOperator) -> tuple[float, DensityOperator]:
    """One two-to-one recurrence round, simulated exactly on the pair's entries.

    Two copies of ``rho`` are combined; each side applies a CNOT from its
    source-pair qubit onto its target-pair qubit, the target pair is measured
    in the computational basis, and only equal outcomes are kept.  Returns
    the acceptance probability and the renormalized surviving pair.  Outcome
    k leaves the source pair in ``M_k[x, x'] = rho[x, x'] rho[x^k, x'^k]``,
    of probability ``tr M_k``: the measured 16 x 16 joint's entries, bit for
    bit, read off the pair by index, so no joint or post-state is formed.
    """
    if rho.dims.dims != (2, 2):
        raise ValueError("the recurrence round is defined for two-qubit pairs")
    blocks = rho.matrix * rho.matrix[_XOR[:, :, None], _XOR[:, None, :]]  # M_k, k = 0..3
    # np.trace's order on the joint diagonal, where outcome k's entries share partial sum k
    diag = blocks.diagonal(0, 1, 2).real
    raw = (((diag[:, 0] + diag[:, 1]) + diag[:, 2]) + diag[:, 3]).tolist()
    probs = [min(max(prob, 0.0), 1.0) for prob in raw]
    _require_probability_sum(probs, (2, 3), _JOINT_DIMS)
    accept = probs[0] + probs[3]  # equal measurement results: 00 and 11
    if accept <= ATOL:
        raise ValueError("recurrence round accepted with negligible probability")
    return accept, mix([
        (probs[k] / accept, DensityOperator(rho.dims, _hermitian_part(blocks[k], 2.0 * raw[k])))
        for k in (0, 3) if raw[k] > PRUNE_ATOL
    ])


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of ``distill_pipeline``.

    ``trajectory`` holds (Bell fidelity, cumulative acceptance probability)
    after the filter stage and then after each recurrence round.  ``status``
    is ``"ok"`` or ``"not_distillable"`` (fidelity stuck at or below 1/2
    even after filtering).
    """

    status: str
    trajectory: tuple[tuple[float, float], ...]
    filtered: bool
    filter_probability: float

    @property
    def fidelities(self) -> tuple[float, ...]:
        return tuple(f for f, _ in self.trajectory)


def _schmidt_align(rho: DensityOperator) -> DensityOperator:
    """Rotate so the dominant eigenvector is diagonal in the computational basis."""
    vals, vecs = np.linalg.eigh(rho.matrix)
    dom = vecs[:, -1].reshape(2, 2)
    u, _, vh = np.linalg.svd(dom)
    rho = apply_local_unitary(rho, u.conj().T, (0,))
    return apply_local_unitary(rho, vh.conj(), (1,))


def distill_pipeline(rho: DensityOperator, rounds: int) -> PipelineResult:
    """Filter, twirl, then iterate recurrence rounds on a two-qubit state.

    The filter stage aligns the dominant eigenvector to Schmidt form and
    applies the Procrustean balancing filter whenever that raises the Bell
    fidelity; its first branch is taken as success.  If the post-filter
    fidelity does not exceed 1/2 the state is reported as not distillable by
    this pipeline.  Each round twirls to the isotropic family first, so the
    fidelity trajectory is monotone nondecreasing above the threshold.
    """
    if rho.dims.dims != (2, 2):
        raise ValueError("the pipeline is defined for two-qubit pairs")
    rounds = _integer(rounds, "rounds", 1)

    state = _schmidt_align(rho)
    filtered = False
    filter_prob = 1.0
    vals, vecs = np.linalg.eigh(state.matrix)
    dom = np.abs(np.diag(vecs[:, -1].reshape(2, 2)))
    a, b = float(max(dom)), float(min(dom))
    if b > 1e-6 and a - b > 1e-9:
        prob, post = local_filter(state, 0, procrustean_filter(a, b))[0]
        if post is not None and fidelity_pure(post, _PHI_PLUS) > fidelity_pure(state, _PHI_PLUS):
            state, filtered, filter_prob = post, True, prob

    fidelity = fidelity_pure(state, _PHI_PLUS)
    trajectory = [(fidelity, filter_prob)]
    if fidelity <= DISTILLABLE_FIDELITY:
        return PipelineResult("not_distillable", tuple(trajectory), filtered, filter_prob)

    cumulative = filter_prob
    for _ in range(rounds):
        state = twirl_to_isotropic(state)
        accept, state = recurrence_round(state)
        cumulative *= accept
        trajectory.append((fidelity_pure(state, _PHI_PLUS), cumulative))
    return PipelineResult("ok", tuple(trajectory), filtered, filter_prob)
