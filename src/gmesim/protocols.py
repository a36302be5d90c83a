"""LOCC protocols that turn biseparable multiparty states into GME states.

Each protocol consumes identically prepared copies of a mixed state one at a
time; parties may measure locally and broadcast outcomes, but no joint
operation ever touches two copies at once.  The runners below simulate single
stochastic executions step by step, while ``monte_carlo`` replays the exact
branch distribution of a protocol many times to expose its success statistics.

For ``prop2`` and ``prop3`` the runner and the exact tree read one copy chain
(``copy_chain``): the pure terms of the family's mixture are built once and
each copy is measured once along its accepting path by
``qcore.postselect_levels``, which forms no density operator and reads the
copy's qubit pair off the one term left.  ``replay_chain`` turns the chain
into a run and ``chain_leaves`` into the branch tree, so neither repeats a
measurement.  Sigma reads its copies the same way: its runner, its tree and
``sigma_scan`` sum A's and C's splits off the sigma terms' diagonal
(``_sigma_split``), and the runner reads each pair it keeps off its term.
The prop1 tree reads C's outcome probabilities without forming a post-state.

``prop2`` and ``prop3`` are the n = 3 and n = 4 instances of one chain rule:
n parties of dimension n; term k (weight w_k, k = 0..n-2) puts sum_i a_i |ii>
on parties k, k+1, the parties left of k at flag level k-1 and those right
of k+1 at level k.  Measuring parties split {0}, ..., {n-3}, {n-2, n-1} and
keep the top block; the success law is prod_k w_k (a_{n-2}^2 + a_{n-1}^2)^(n-1).

Protocol families (the names are the tool's protocol identifiers, also used
as CLI subcommands):

* ``prop1``   - three qubits, one projective step leaves two parties entangled;
* ``prop2``   - three qutrits, two copies, measured pairs merged into a
  GHZ-class state;
* ``sigma``   - qutrit/qubit/qutrit family where one copy always yields a Bell
  pair and an adaptive repeat phase hunts for the complementary pair;
* ``prop3``   - four ququarts, three copies, three merged pairs.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .entanglement import (
    Bipartition,
    BipartitionReport,
    ENTANGLED_NEG_ATOL,
    certify_gme_pure,
    negativity,
    schmidt,
)
from .qcore import (
    ATOL,
    PARTY_LETTERS,
    PRUNE_ATOL,
    DensityOperator,
    InvariantError,
    PartyDims,
    ProjectiveMeasurement,
    PureState,
    _BELL_SIGNS,
    _diagonal_probabilities,
    _integer,
    _mixture_terms,
    _phase_canonical,
    _probability,
    _pure_rows,
    _reals,
    _require_probability_sum,
    _require_unit_rows,
    _row_dots,
    _unit_sum,
    basis_ket,
    bell_basis,
    bell_pair,
    contract_party,
    ghz_state,
    ket,
    measure,
    mix,
    partial_trace,
    permute_parties,
    postselect_levels,
    state_projector_measurement,
    tensor,
)

_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
_MINUS = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)

#: Parity projectors on a pair of qubits held by one party: correlated
#: (|00><00| + |11><11|) versus anticorrelated (|01><01| + |10><10|).
PARITY_CORRELATED = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
PARITY_ANTI = np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex)

#: The merge's Kraus operators K(p, s) = (<s| x 1) Pi_p stacked by outcome 2p + s,
#: as one (8, 4) matrix: a party's parity p of its two qubits, then the |+>/|->
#: readout s of the first, which leaves with it.
_KRAUS = np.vstack([np.kron(ref.conj(), np.eye(2)) @ proj
                    for proj in (PARITY_CORRELATED, PARITY_ANTI) for ref in (_PLUS, _MINUS)])


#: Most shots one call draws, one 8-byte draw each (about 800 MB); more are refused up front.
MAX_SHOTS = 10**8


def _shots(value, name: str = "shots") -> int:
    """``value`` as a positive shot count of at most ``MAX_SHOTS``, refused by ``name``."""
    if (shots := _integer(value, name, 1)) > MAX_SHOTS:
        raise ValueError(f"{name} {shots} would take {8 * shots:,} bytes of draws "
                         f"(8 per shot); at most {MAX_SHOTS:,} shots are allowed")
    return shots


def normalize_schmidt(coeffs) -> tuple[float, ...]:
    """Rescale positive coefficients so their squares sum to one."""
    vals = _reals(coeffs, "Schmidt coefficients", positive=True)
    norm = math.sqrt(sum(v * v for v in vals))
    if not 0.0 < norm < math.inf:  # the squares underflow to 0 or overflow
        raise ValueError(f"Schmidt coefficients {vals!r} are too small or too large to normalize")
    return tuple(v / norm for v in vals)


# ---------------------------------------------------------------------------
# configuration and report types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolConfig:
    """Shared knobs for the protocol runners and the Monte Carlo driver.

    ``schmidt_coeffs`` defaults to the uniform choice appropriate for each
    protocol when left as None.  ``shots`` and ``seed`` are the Monte Carlo
    draw count and seed; ``seed`` also seeds a runner called without a
    generator.
    """

    p: float = 0.5
    weights: tuple[float, float, float] = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    schmidt_coeffs: tuple[float, ...] | None = None
    shots: int = 100_000
    seed: int = 42
    max_copies: int = 21

    def __post_init__(self):
        object.__setattr__(self, "p", _probability(self.p))
        object.__setattr__(self, "weights", _unit_sum(self.weights, "weights", 3))
        if self.schmidt_coeffs is not None:
            coeffs = _unit_sum(self.schmidt_coeffs, "Schmidt coefficients", squared=True)
            object.__setattr__(self, "schmidt_coeffs", coeffs)
        object.__setattr__(self, "shots", _shots(self.shots))
        for name, low in (("max_copies", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, low))

    def coeffs_or_uniform(self, n: int) -> tuple[float, ...]:
        if self.schmidt_coeffs is None:
            return (1.0 / math.sqrt(n),) * n
        if len(self.schmidt_coeffs) != n:
            raise ValueError(
                f"this protocol expects {n} Schmidt coefficients, "
                f"got {len(self.schmidt_coeffs)}"
            )
        return self.schmidt_coeffs


@dataclass(frozen=True)
class StepRecord:
    """One local measurement event inside a protocol run."""

    copy_index: int
    acting_party: str
    measurement: str
    outcome_index: int
    probability: float
    accepted: bool

    def __post_init__(self):
        if not (-ATOL <= self.probability <= 1.0 + ATOL):
            raise ValueError("step probability outside [0, 1]")
        if self.accepted and self.probability <= 0.0:
            raise ValueError("an accepted step cannot have zero probability")


@dataclass(frozen=True)
class ProtocolReport:
    """Full record of one protocol execution."""

    protocol: str
    config: ProtocolConfig
    steps: tuple[StepRecord, ...]
    copies_consumed: int
    success: bool
    analytic_success_prob: float | None = None
    final_state: PureState | None = None
    certificates: BipartitionReport | None = None

    def __post_init__(self):
        if self.success and (self.final_state is None or self.certificates is None):
            raise ValueError("a successful run must carry a final state and certificates")


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _require_entangled_pair(state: PureState, name: str) -> tuple[float, ...]:
    data = schmidt(state, Bipartition(frozenset({0}), 2))
    if data.rank < 2:
        raise ValueError(f"{name} must be entangled (Schmidt rank 2), got a product state")
    return data.coefficients


def build_prop1_general(
    pair_ab: PureState, ref_c: PureState, ref_a: PureState, pair_bc: PureState, p: float
) -> DensityOperator:
    """Three-qubit rank-2 mixture of two one-sided entangled terms.

    Term one places the entangled ``pair_ab`` on parties A, B with C in the
    pure ``ref_c``; term two places ``pair_bc`` on B, C with A in ``ref_a``.
    Each term is separable in one cut, yet for p strictly inside (0, 1) the
    mixture is entangled in every bipartition.
    """
    p = _probability(p)
    if pair_ab.dims.dims != (2, 2) or pair_bc.dims.dims != (2, 2):
        raise ValueError("the entangled inputs must be two-qubit states")
    if ref_c.dims.dims != (2,) or ref_a.dims.dims != (2,):
        raise ValueError("the single-party inputs must be qubits")
    _require_entangled_pair(pair_ab, "the A-B input")
    _require_entangled_pair(pair_bc, "the B-C input")
    return mix([(p, tensor(pair_ab, ref_c)), (1.0 - p, tensor(ref_a, pair_bc))])


def build_prop1_example(p: float = 0.5) -> DensityOperator:
    """The standard instance: phi+ on A,B with C at |0>; phi- on B,C with A at |1>."""
    return build_prop1_general(
        bell_pair("phi+"),
        basis_ket((2,), (0,)),
        basis_ket((2,), (1,)),
        bell_pair("phi-"),
        p,
    )


def _chain_terms(schmidt_coeffs, weights) -> list[tuple[float, PureState]]:
    """The (weight, pure term) pairs of the n-party chain mixture, n = ``len(schmidt_coeffs)``.

    Term k (weight ``weights[k]``, k = 0..n-2) puts sum_i a_i |ii> on parties
    k and k+1 of n parties of dimension n; the parties left of k sit at flag
    level k-1 and those right of k+1 at flag level k.
    """
    n = len(schmidt_coeffs)
    dims = PartyDims((n,) * n)
    terms = []
    for k, weight in enumerate(weights):
        levels = [k - 1] * k + [0, 0] + [k] * (n - k - 2)
        amps = np.zeros(dims.total, dtype=complex)
        for i, a in enumerate(schmidt_coeffs):
            levels[k] = levels[k + 1] = i
            amps[np.ravel_multi_index(levels, dims.dims)] = a
        terms.append((weight, PureState(dims, amps)))
    return terms


def build_prop2_state(schmidt_coeffs, p: float) -> DensityOperator:
    """Three-qutrit mixture: correlated A-B pair with C at |0>, or mirrored.

    ``schmidt_coeffs`` are the three positive coefficients of the shared
    two-qutrit state sum_i a_i |ii>.
    """
    p = _probability(p)
    coeffs = _unit_sum(schmidt_coeffs, "Schmidt coefficients", 3, squared=True)
    return mix(_chain_terms(coeffs, (p, 1.0 - p)))


def build_sigma(p: float) -> DensityOperator:
    """Qutrit/qubit/qutrit mixture whose first measurement always pays off.

    With probability p, A sits at its flag level |2> while B-C share a Bell
    pair (embedded in levels 0, 1 of C); with probability 1-p, A-B share the
    Bell pair while C sits at its flag level.
    """
    return mix(_sigma_terms(bell_pair("phi+"), _probability(p)))


def build_sigma_prime(shared_pair: PureState, p: float) -> DensityOperator:
    """Variant of ``build_sigma`` with a partially entangled shared pair.

    ``shared_pair`` must be an entangled, non-maximal two-qubit state; for the
    maximally entangled case use ``build_sigma``, whose output feeds the
    teleportation route directly.
    """
    p = _probability(p)
    if shared_pair.dims.dims != (2, 2):
        raise ValueError("the shared pair must be a two-qubit state")
    coeffs = _require_entangled_pair(shared_pair, "the shared pair")
    if abs(coeffs[0] - coeffs[1]) <= ATOL:
        raise ValueError("the shared pair is maximally entangled; use build_sigma for that case")
    return mix(_sigma_terms(shared_pair, p))


def _sigma_terms(shared_pair: PureState, p: float) -> list[tuple[float, PureState]]:
    """The two-qubit pair on B-C (A at its flag level), weight p, and on A-B (C flagged)."""
    dims = PartyDims((3, 2, 3))
    bc, ab = np.zeros((2, 3, 2, 3), dtype=complex)
    bc[2, :, :2] = ab[:2, :, 2] = shared_pair.tensor_view()
    return [(p, PureState(dims, bc.ravel())), (1.0 - p, PureState(dims, ab.ravel()))]


def _sigma_pair(coeffs) -> tuple[PureState, bool]:
    """The sigma terms' shared pair for ``coeffs``, True when maximal within ``ATOL``."""
    maximal = abs(coeffs[0] - coeffs[1]) <= ATOL
    pair = bell_pair("phi+") if maximal else ket([coeffs[0], 0.0, 0.0, coeffs[1]], (2, 2))
    _require_entangled_pair(pair, "the shared pair")
    return pair, maximal


def build_prop3_state(schmidt_coeffs, weights) -> DensityOperator:
    """Four-ququart rank-3 mixture, each term separable in a different cut.

    Term one entangles A-B (C, D at flag levels |0>), term two entangles B-C
    (A at |0>, D at |1>), term three entangles C-D (A, B at |1>).
    ``schmidt_coeffs`` are the four coefficients of sum_i a_i |ii>;
    ``weights`` are the three positive mixture weights.
    """
    coeffs = _unit_sum(schmidt_coeffs, "Schmidt coefficients", 4, squared=True)
    return mix(_chain_terms(coeffs, _unit_sum(weights, "weights", 3)))


# ---------------------------------------------------------------------------
# single-step protocol (prop1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Prop1Branch:
    """One outcome of the single projective step, restricted to the kept pair."""

    outcome_index: int
    probability: float
    pair_state: DensityOperator | None
    negativity: float | None
    entangled: bool | None


def run_prop1_step(rho: DensityOperator, reference: PureState) -> list[Prop1Branch]:
    """Party C measures {|r><r|, 1-|r><r|} against its reference state; A-B is kept.

    Each branch reports the reduced A-B state together with its negativity
    certificate.
    """
    if rho.dims.n != 3:
        raise ValueError("this step runs on three-party states")
    outcomes = measure(rho, state_projector_measurement(2, reference))
    cut = Bipartition(frozenset({0}), 2)
    branches = []
    for out in outcomes:
        if out.post_state is None:
            branches.append(
                Prop1Branch(out.outcome_index, out.probability, None, None, None)
            )
            continue
        pair = partial_trace(out.post_state, {2})
        neg = negativity(pair, cut)
        branches.append(
            Prop1Branch(out.outcome_index, out.probability, pair, neg, neg > ENTANGLED_NEG_ATOL)
        )
    return branches


# ---------------------------------------------------------------------------
# pair merging
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MergeBranch:
    """One branch of the chain merge.

    ``parity_pattern`` holds one outcome per internal party (0 = correlated,
    1 = anticorrelated); ``sign_pattern`` likewise for the |+>/|-> readout of
    the qubit each internal party gives up.  ``corrections`` lists the local
    Pauli fixes already applied to ``state``.
    """

    parity_pattern: tuple[int, ...]
    sign_pattern: tuple[int, ...]
    probability: float
    state: PureState
    corrections: tuple[str, ...]


@dataclass(frozen=True)
class MergeResult:
    branches: tuple[MergeBranch, ...]
    pair_coefficients: tuple[tuple[float, float], ...]
    alignments: tuple[tuple[np.ndarray, np.ndarray], ...]


def _fuse_chain(pairs):
    """``merge_chain_to_ghz`` short of the corrections, its branches sorted parity-major."""
    pairs = list(pairs)
    if len(pairs) < 2:
        raise ValueError("merging needs at least two pairs in the chain")
    for j, pair in enumerate(pairs):
        if not isinstance(pair, PureState) or pair.dims.dims != (2, 2):
            raise ValueError(f"pair {j} is not a two-qubit pure state")
    u, svals, vh = np.linalg.svd(np.array([pair.tensor_view() for pair in pairs]))
    if (svals[:, 1] <= ATOL).any():
        raise ValueError("merging needs entangled pairs, got a product state")
    aligned = _pure_rows(PartyDims((2, 2)), (svals[:, :, None] * np.eye(2)).reshape(-1, 4))
    coeffs = tuple(map(tuple, svals.tolist()))
    alignments = tuple(zip(u.conj().swapaxes(1, 2), vh.conj()))

    m = len(pairs)
    # the 2m-qubit joint space is never formed; its cap bounds 4**(m-1) branches
    PartyDims((2,) * (2 * m))

    records, rows = [((), 1.0)], aligned[0].amplitudes[None]
    for j in range(1, m):
        dims = PartyDims((2,) * (j + 3))
        rows = (rows[:, :, None] * aligned[j].amplitudes).reshape(len(rows), dims.total)
        _require_unit_rows(rows, dims)
        # one product gives each row's four images, (rows, parity, sign, D / 2)
        front = rows.reshape(len(rows), 2**j, 4, 2).transpose(2, 0, 1, 3).reshape(4, -1)
        subs = (_KRAUS @ front).reshape(4, 2, len(rows), 2**j, 2).transpose(2, 0, 3, 1, 4)
        subs = subs.reshape(len(rows), 2, 2, -1)
        raw = _row_dots(subs)
        parity = raw.sum(axis=2)
        kept = parity > PRUNE_ATOL  # a parity is pruned first, then a sign given it
        signs = np.divide(raw, parity[..., None], out=np.zeros_like(raw), where=kept[..., None])
        index = (kept[..., None] & (signs > PRUNE_ATOL)).nonzero()
        parity, signs = np.clip(parity, 0.0, 1.0), np.clip(signs, 0.0, 1.0)
        _require_probability_sum(parity, (j, j + 1), dims)
        _require_probability_sum(signs[kept], (j,), dims)
        records = [(records[b][0] + (p, s), records[b][1] * x * y) for b, p, s, x, y in
                   zip(*(a.tolist() for a in index + (parity[index[:2]], signs[index])))]
        rows = subs[index]
        rows /= np.sqrt(raw[index])[:, None]
        dims = PartyDims((2,) * (j + 2))
        _require_unit_rows(rows, dims)

    order = sorted(range(len(records)), key=lambda b: (records[b][0][0::2], records[b][0][1::2]))
    records = [records[b] for b in order]
    total = sum(prob for _, prob in records)
    if abs(total - 1.0) > ATOL:
        raise InvariantError(
            f"merge of {m} pairs: {len(records)} branch probabilities sum to {total!r}, "
            f"residual {total - 1.0:.3e} exceeds {ATOL:g}"
        )
    return coeffs, alignments, dims, records, rows[order]


def _finish_branches(dims: PartyDims, records, rows: np.ndarray) -> list[MergeBranch]:
    """Correct fused rows by index (X fixes: one gather flipping each row's corrected
    qubit bits; Z@0: the half with qubit 0 at 1 negated), phase-fix them
    (``_phase_canonical``) and check the stack once (``_pure_rows``)."""
    m = dims.n - 1
    flips = np.cumsum([pattern[0::2] for pattern, _ in records], axis=1) % 2 == 1
    odd = np.array([sum(pattern[1::2]) % 2 == 1 for pattern, _ in records])
    fixes = [(f"X@{t}", flips[:, min(t, m - 1) - 1]) for t in range(1, m + 1)] + [("Z@0", odd)]
    applied = np.stack([mask for _, mask in fixes], axis=1)
    flipped = applied[:, :-1] @ (1 << np.arange(m - 1, -1, -1))  # qubit t is index bit m - t
    rows = np.take_along_axis(rows, np.arange(dims.total) ^ flipped[:, None], axis=1)
    rows[odd, dims.total // 2:] = -rows[odd, dims.total // 2:]
    states = _pure_rows(dims, _phase_canonical(rows))
    return [MergeBranch(pattern[0::2], pattern[1::2], prob, state,
                        tuple(name for (name, _), on in zip(fixes, row) if on))
            for (pattern, prob), state, row in zip(records, states, applied.tolist())]


def merge_chain_to_ghz(pairs) -> MergeResult:
    """Fuse a chain of two-qubit pairs into one (m+1)-party GHZ-class state.

    ``pairs[j]`` links party j to party j+1; every internal party holds one
    qubit of each neighboring pair.  Each pair is first rotated into Schmidt
    form a|00> + b|11| (alignment unitaries are returned).  Every internal
    party then measures the parity of its two qubits, reads its first qubit
    out in the |+>/|-> basis, and that qubit is dropped; the recorded Pauli
    corrections leave each branch as alpha|0...0> + beta|1...1>.  For pairs
    with equal coefficients every branch lands on the uniform GHZ state.

    The pairs are fused one at a time into one stack of rows, the live
    branches so far, so the 4**m joint vector is never formed: pair j is
    tensored onto every row, and one product by the four Kraus operators
    K(p, s) = (<s|_j x 1) Pi_p (``_KRAUS``) measures the parity p of party j's
    qubits j, j+1, reads qubit j out as s and drops it.  The images' squared
    norms are the joint probabilities of (p, s); the parity's sum and the
    sign's given the parity are each checked to sum to one per row and pruned
    at ``PRUNE_ATOL``, as separate measurements would be.  X and Z corrections
    follow, moving and negating amplitudes by index.  One batched SVD aligns
    the pairs, and the aligned pairs and the branches are each checked as one
    stack, by ``qcore._pure_rows``.  The branches are sorted from fusion order
    (parity 1, sign 1, parity 2, ...) to parity-major order, so branch
    indices, and the branch a sampled run draws, are those of a merge over the
    joint vector; amplitudes and probabilities agree with it to rounding.
    """
    coeffs, alignments, dims, records, rows = _fuse_chain(pairs)
    return MergeResult(tuple(_finish_branches(dims, records, rows)), coeffs, alignments)


# ---------------------------------------------------------------------------
# teleportation
# ---------------------------------------------------------------------------

def teleport(
    state: PureState, input_party: int, resource: PureState, outcome: int | None = None
) -> PureState:
    """Teleport one qubit of ``state`` through a maximally entangled resource.

    ``resource`` must be the two-qubit phi+ state, ordered (sender half,
    receiver half); partially entangled resources are rejected, since exact
    relocation then fails; route those through ``merge_chain_to_ghz`` instead.
    The receiver's qubit takes over the teleported party's slot, so the
    output has the same party structure as the input.  With ``outcome=None``
    all four correction branches are computed and checked to agree; an
    explicit ``outcome`` selects a single branch.  Its Pauli is applied by
    index: X swaps the receiver's two levels and Z negates its level 1.
    """
    n = state.dims.n
    input_party = _integer(input_party, "input party", stop=n, of="parties")
    if state.dims.dims[input_party] != 2:
        raise ValueError("only qubit parties can be teleported")
    if not isinstance(resource, PureState) or resource.dims.dims != (2, 2):
        raise ValueError("the resource must be a two-qubit pure state")
    if abs(resource.overlap(bell_pair("phi+"))) ** 2 < 1.0 - ATOL:
        raise ValueError(
            "the resource is not maximally entangled; exact teleportation needs phi+ "
            "(for partially entangled pairs use merge_chain_to_ghz)"
        )

    joint = tensor(state, resource)  # parties 0..n-1, sender half n, receiver n+1
    basis = bell_basis()
    meas = ProjectiveMeasurement(
        (input_party, n), tuple(np.outer(v, v.conj()) for v in basis)
    )
    outs = measure(joint, meas)
    chosen = range(4)
    if outcome is not None:
        chosen = [_integer(outcome, "outcome", stop=4, of="Bell outcomes")]
    where = f"teleportation of party {input_party} of dims {state.dims.dims}"
    results = []
    for k in chosen:
        out = outs[k]
        if out.post_state is None or abs(out.probability - 0.25) > ATOL:
            raise InvariantError(
                f"{where}: Bell outcome {k} of 4 has probability {out.probability!r}, "
                f"expected 1/4, residual {out.probability - 0.25:.3e} exceeds {ATOL:g}"
            )
        correlated, sign = list(_BELL_SIGNS.values())[k]  # bell_basis order: I, Z, X, ZX
        levels = out.post_state.amplitudes.reshape(-1, 2)[:, ::1 if correlated else -1] * (1, sign)
        post = contract_party(PureState(joint.dims, levels.reshape(-1)), (input_party, n), basis[k])
        # the receiver's qubit is the last axis; move it into the vacated slot
        t = np.moveaxis(post.tensor_view(), -1, input_party)
        results.append(PureState(state.dims, _phase_canonical(t.reshape(-1))))
    for k, r in zip(chosen[1:], results[1:]):
        fid = abs(r.overlap(results[0])) ** 2
        if fid < 1.0 - ATOL:
            raise InvariantError(
                f"{where}: after correction, Bell branch {k} of {len(results)} has fidelity "
                f"{fid!r} with branch 0, residual {1.0 - fid:.3e} exceeds {ATOL:g}"
            )
    return results[0]


def distribute_via_teleportation(state: PureState, transfers, outcomes=None) -> PureState:
    """Send several qubits of a locally prepared state through Bell pairs.

    ``transfers`` lists (party index, resource pair) in the order the sends
    happen; ``outcomes`` optionally fixes the Bell outcome of each send.
    """
    transfers = list(transfers)
    if outcomes is None:
        outcomes = [None] * len(transfers)
    if len(outcomes) != len(transfers):
        raise ValueError("one outcome per transfer is required")
    current = state
    for (party, resource), out in zip(transfers, outcomes):
        current = teleport(current, party, resource, outcome=out)
    return current


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def _sample_index(rng: np.random.Generator, probabilities) -> int:
    u = float(rng.random())
    acc = 0.0
    last_live = 0
    for index, prob in enumerate(probabilities):
        if prob > 0.0:
            last_live = index
        acc += prob
        if u < acc:
            return index
    return last_live


def _sample_merge(rng: np.random.Generator, pairs) -> tuple[int, MergeBranch]:
    """Draw one branch of ``merge_chain_to_ghz`` by its probability; only it is finished."""
    _, _, dims, records, rows = _fuse_chain(pairs)
    probs = np.array([prob for _, prob in records])
    bidx = int(rng.choice(len(records), p=probs / probs.sum()))
    return bidx, _finish_branches(dims, records[bidx:bidx + 1], rows[bidx:bidx + 1])[0]


# ---------------------------------------------------------------------------
# copy chains (prop2, prop3)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ChainFamily:
    """Plan of a family whose fresh copies are measured one after another.

    The n = ``len(copies) + 1`` parties mix ``_chain_terms(coeffs, weights(config))``.
    On each copy the listed parties measure the chain split in turn; one term
    is left, and its pair's top block maps onto a qubit.  ``law``
    gives the success probability from the weights and a_{n-2}^2 + a_{n-1}^2
    in the family's own evaluation order.  ``merge_order`` lists the copies
    whose pairs form the chain A-B, B-C, ... that ``merger`` merges.
    """

    weights: Callable[[ProtocolConfig], tuple[float, ...]]
    copies: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # (parties, traced)
    merge_order: tuple[int, ...]
    measurement: str  # step text, completed by the party letter
    label: str  # a step's name in the branch tree, from {party} and {copy}
    merger: str
    merge_text: str
    law: Callable[[tuple[float, ...], float], float]


_CHAIN_FAMILIES = {
    "prop2": _ChainFamily(
        weights=lambda config: (config.p, 1.0 - config.p),
        copies=(((2,), (0,)), ((0,), (2,))),  # B-C pair, then A-B pair
        merge_order=(1, 0),
        measurement="split {flag level 0} vs {levels 1,2} on ", label="copy{copy}",
        merger="B", merge_text="pair merge: parity then +/- readout at B",
        law=lambda w, block: w[1] * block * w[0] * block,
    ),
    "prop3": _ChainFamily(
        weights=lambda config: config.weights,
        copies=(((2, 3), (0, 1)), ((0, 1), (2, 3)), ((1, 2), (0, 3))),  # C-D, A-B, B-C
        merge_order=(1, 2, 0),
        measurement="split {0} / {1} / {2,3} on ", label="{party}{copy}",
        merger="BC", merge_text="chain merge: parity then +/- readout at B and C",
        law=lambda w, block: w[0] * w[1] * w[2] * block**3,
    ),
}


@dataclass(frozen=True)
class CopyChain:
    """The copies of a prop2 or prop3 execution, each measured once.

    ``steps[k]`` holds the outcome probabilities of each measurement on copy
    k+1 along its accepting path, bit for bit those of measuring the family's
    density operator, and ``pairs[k]`` the qubit pair it leaves, read off the
    one term left (see ``qcore.postselect_levels``).  Every step accepts its
    last outcome, the top block.
    After a pruned accepting branch (probability at or below ``PRUNE_ATOL``)
    the copy's later steps are absent and its pair is None.
    """

    protocol: str
    config: ProtocolConfig
    analytic_success_prob: float
    steps: tuple[tuple[tuple[float, ...], ...], ...]
    pairs: tuple[PureState | None, ...]


def _pruned(chain: CopyChain, copy_index: int) -> ValueError:
    return ValueError(
        f"{chain.protocol}: an accepting branch of copy {copy_index} has probability at "
        f"or below {PRUNE_ATOL:g}, so the copy leaves no pair"
    )


def copy_chain(protocol: str, config: ProtocolConfig) -> CopyChain:
    """Build the terms of ``protocol`` once and postselect each copy once.

    Each copy is measured along its accepting path only, by
    ``postselect_levels`` on the mixture's pure terms, so no density operator
    is formed; ``replay_chain`` (one run) and ``chain_leaves`` (the
    exact branch tree Monte Carlo samples) both read the result.
    """
    if protocol not in _CHAIN_FAMILIES:
        raise ValueError(f"no copy chain for protocol {protocol!r}; expected prop2 or prop3")
    family = _CHAIN_FAMILIES[protocol]
    n = len(family.copies) + 1
    split = [[level] for level in range(n - 2)] + [[n - 2, n - 1]]
    top, relabel = len(split) - 1, {n - 2: 0, n - 1: 1}  # keep the last group
    coeffs, weights = config.coeffs_or_uniform(n), family.weights(config)
    terms = _chain_terms(coeffs, weights)
    analytic = family.law(weights, coeffs[n - 2] ** 2 + coeffs[n - 1] ** 2)
    steps, pairs = zip(*(postselect_levels(terms, [(party, split, top) for party in parties],
                                           traced, relabel) for parties, traced in family.copies))
    return CopyChain(protocol, config, analytic, steps, pairs)


def replay_chain(
    chain: CopyChain, rng: np.random.Generator | None = None, postselect_success: bool = False
) -> ProtocolReport:
    """One execution of a copy chain's protocol (see ``run_prop2``, ``run_prop3``).

    Each step reached takes one draw from ``rng`` (seeded from the chain's
    config when None) unless ``postselect_success`` forces acceptance; a
    successful run then draws its merge branch.
    """
    family = _CHAIN_FAMILIES[chain.protocol]
    config = chain.config
    rng = np.random.default_rng(config.seed) if rng is None else rng
    steps: list[StepRecord] = []
    for k, (parties, _) in enumerate(family.copies):
        # a forced acceptance would record a probability that may have underflowed to 0
        if postselect_success and chain.pairs[k] is None:
            raise _pruned(chain, k + 1)
        for party, probs in zip(parties, chain.steps[k]):
            top = len(probs) - 1
            idx = top if postselect_success else _sample_index(rng, probs)
            steps.append(
                StepRecord(k + 1, PARTY_LETTERS[party], family.measurement + PARTY_LETTERS[party],
                           idx, probs[idx], idx == top)
            )
            if idx != top:
                return ProtocolReport(
                    chain.protocol, config, tuple(steps), k + 1, False, chain.analytic_success_prob
                )
        if chain.pairs[k] is None:
            raise _pruned(chain, k + 1)

    copies = len(family.copies)
    bidx, branch = _sample_merge(rng, [chain.pairs[k] for k in family.merge_order])
    steps.append(StepRecord(copies, family.merger, family.merge_text, bidx, branch.probability, True))
    _, certificates = certify_gme_pure(branch.state)
    return ProtocolReport(
        chain.protocol, config, tuple(steps), copies, True, chain.analytic_success_prob,
        branch.state, certificates,
    )


def chain_leaves(chain: CopyChain) -> list[tuple[str, float, bool, int]]:
    """Exact branch tree of a copy chain as (label, probability, success, copies).

    Each accepting-path step ends one rejecting leaf; the last leaf is the
    success.  Probabilities are products of the recorded step probabilities.
    """
    family = _CHAIN_FAMILIES[chain.protocol]
    leaves, path, prefix_prob = [], [], 1.0
    for k, (parties, _) in enumerate(family.copies):
        if len(chain.steps[k]) < len(parties):
            raise _pruned(chain, k + 1)
        for party, probs in zip(parties, chain.steps[k]):
            accept = probs[-1]
            label = family.label.format(party=PARTY_LETTERS[party], copy=k + 1)
            leaves.append((",".join(path + [f"reject@{label}"]), prefix_prob * (1.0 - accept),
                           False, k + 1))
            path.append(f"accept@{label}")
            prefix_prob *= accept
    leaves.append((",".join(path), prefix_prob, True, len(family.copies)))
    return leaves


def run_prop2(
    config: ProtocolConfig, rng: np.random.Generator | None = None, postselect_success: bool = False
) -> ProtocolReport:
    """Two-copy activation on three qutrits.

    Copy one: C measures {|0><0|, 1-|0><0|} and the second outcome leaves B-C
    in a pure entangled pair (A factors out).  Copy two: the mirrored step by
    A leaves an A-B pair.  Both pairs are relabeled onto qubits and merged at
    B into a three-party GHZ-class state.  With ``postselect_success`` the
    accepting branches are forced (their true probabilities are still
    recorded); otherwise outcomes are sampled.
    """
    return replay_chain(copy_chain("prop2", config), rng, postselect_success)


def run_prop3(
    config: ProtocolConfig, rng: np.random.Generator | None = None, postselect_success: bool = False
) -> ProtocolReport:
    """Three-copy activation on four ququarts.

    Each copy is interrogated by two parties with the three-outcome split
    {|0>}, {|1>}, {levels 2,3}; only double top-block outcomes are kept.
    Copy one leaves a C-D pair, copy two an A-B pair, copy three a B-C pair.
    The three pairs, relabeled onto qubits, are merged along the chain
    A-B-C-D into a four-party GHZ-class state.
    """
    return replay_chain(copy_chain("prop3", config), rng, postselect_success)


def analytic_Pn(p: float, n: int) -> float:
    """Probability that n repeat copies yield at least one success at rate p."""
    return 1.0 - (1.0 - _probability(p)) ** _integer(n, "n", 0)


_SIGMA_SPLIT = [[0, 1], [2]]  # entangled block versus the flag level
_SIGMA_LEVELS = {0: 0, 1: 1}  # the qutrit leg's entangled block onto a qubit
#: The states of ``build_sigma``'s two terms, built once: only their weights depend on p
_PHI_SIGMA_STATES = [term for _, term in _sigma_terms(bell_pair("phi+"), 0.5)]
#: A's and C's split as masks over the indices of the sigma states' (3, 2, 3) space
_SIGMA_MASKS = {party: [np.isin(np.indices((3, 2, 3))[party].ravel(), group)
                        for group in _SIGMA_SPLIT] for party in (0, 2)}


def _sigma_split(terms, party: int) -> tuple[float, float]:
    """``party``'s split probabilities on the mixture of the sigma ``terms``, bit for bit
    ``measure``'s, summed off their diagonal as ``postselect_levels`` sums them."""
    dims, terms = _mixture_terms(terms)
    diag = sum(w * (term.amplitudes * term.amplitudes.conj()) for w, term in terms)
    return _diagonal_probabilities(diag, _SIGMA_MASKS[party], (party,), dims)[1]


def run_sigma_adaptive(
    config: ProtocolConfig, rng: np.random.Generator | None = None
) -> ProtocolReport:
    """Adaptive multi-copy runner for the sigma family.

    Copy one: A splits {levels 0,1} vs {flag 2}; either outcome leaves a
    maximally entangled pair (A-B or B-C), so the first copy always succeeds.
    Later copies: C performs the analogous split and keeps only the branch
    holding the pair that is still missing; each repeat copy succeeds with a
    fixed rate, so the chance of completing within n repeats is 1-(1-q)^n.
    On success, B either teleports two legs of a locally prepared GHZ state
    through the two pairs (maximal case) or merges the pairs directly.
    """
    pair, maximal = _sigma_pair(config.coeffs_or_uniform(2))
    terms = _sigma_terms(pair, config.p)
    rng = np.random.default_rng(config.seed) if rng is None else rng
    steps: list[StepRecord] = []

    first, rates = _sigma_split(terms, 0), _sigma_split(terms, 2)
    f = _sample_index(rng, first)
    steps.append(
        StepRecord(1, "A", "split {levels 0,1} vs {flag level 2} on A", f, first[f], True)
    )
    # A's outcome f leaves A-B (f = 0) or B-C (f = 1) holding a pair, and C
    # keeps its own outcome f, the branch holding the other pair
    analytic = 1.0 - (1.0 - rates[f]) ** (config.max_copies - 1)
    for copies in range(2, config.max_copies + 1):
        idx = _sample_index(rng, rates)
        steps.append(
            StepRecord(copies, "C", "split {levels 0,1} vs {flag level 2} on C", idx,
                       rates[idx], idx == f)
        )
        if idx == f:
            break
    else:
        return ProtocolReport("sigma", config, tuple(steps), config.max_copies, False, analytic)

    # A's outcome f traces out C (f = 0) or A (f = 1), and C's outcome f the other party
    pairs = [postselect_levels(terms, [(party, _SIGMA_SPLIT, f)], {traced}, _SIGMA_LEVELS)[1]
             for party, traced in ((0, 2 - 2 * f), (2, 2 * f))]
    pair_ab, pair_bc = pairs if f == 0 else pairs[::-1]
    if maximal:
        local = ghz_state(3)
        final = distribute_via_teleportation(
            local,
            [(0, permute_parties(pair_ab, (1, 0))), (2, pair_bc)],
        )
        steps.append(
            StepRecord(copies, "B", "teleport GHZ legs to A and C through both pairs",
                       0, 1.0, True)
        )
    else:
        bidx, branch = _sample_merge(rng, [pair_ab, pair_bc])
        final = branch.state
        steps.append(
            StepRecord(copies, "B", "pair merge: parity then +/- readout at B", bidx,
                       branch.probability, True)
        )
    _, certificates = certify_gme_pure(final)
    return ProtocolReport(
        "sigma", config, tuple(steps), copies, True, analytic, final, certificates
    )


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchStat:
    label: str
    probability: float
    frequency: float
    success: bool
    copies: int


@dataclass(frozen=True)
class MonteCarloSummary:
    """Empirical protocol statistics against the exact branch distribution."""

    protocol: str
    shots: int
    seed: int
    branches: tuple[BranchStat, ...]
    success_rate: float
    exact_success_prob: float
    mean_copies_consumed: float


def _prop1_tree(config: ProtocolConfig):
    charlie = state_projector_measurement(2, basis_ket((2,), (0,)))
    kept, separable = measure(build_prop1_example(config.p), charlie, keep=())
    return [
        ("charlie=0 (pair kept)", kept.probability, True, 1),
        ("charlie=1 (separable)", separable.probability, False, 1),
    ]


def _sigma_tree(config: ProtocolConfig):
    terms = _sigma_terms(_sigma_pair(config.coeffs_or_uniform(2))[0], config.p)
    first, rates = _sigma_split(terms, 0), _sigma_split(terms, 2)
    repeats = config.max_copies - 1
    leaves = []
    for f in (0, 1):
        pf = first[f] / sum(first)
        q = rates[f]
        name = "AB-first" if f == 0 else "BC-first"
        for k in range(1, repeats + 1):
            leaves.append(
                (f"{name},success@copy{k + 1}", pf * (1.0 - q) ** (k - 1) * q, True, k + 1)
            )
        leaves.append((f"{name},exhausted", pf * (1.0 - q) ** repeats, False, config.max_copies))
    return leaves


_TREES = {
    "prop1": _prop1_tree,
    "prop2": lambda config: chain_leaves(copy_chain("prop2", config)),
    "prop3": lambda config: chain_leaves(copy_chain("prop3", config)),
    "sigma": _sigma_tree,
}


def _count_below(draws: np.ndarray, thresholds) -> list[int]:
    """How many ``draws`` lie below each of the nondecreasing ``thresholds``.

    One comparison pass per new threshold value, and none once every draw is
    counted; no per-draw outcome is ever formed.
    """
    below = np.empty(draws.shape, dtype=bool)
    counts, count, last = [], 0, None
    for t in thresholds:
        if t != last and count < draws.size:
            count = int(np.count_nonzero(np.less(draws, t, out=below)))
            last = t
        counts.append(count)
    return counts


def sample_leaves(protocol: str, leaves, shots: int, seed: int) -> MonteCarloSummary:
    """Draw ``shots`` seeded samples from an exact branch tree and summarize.

    ``leaves`` lists (label, probability, success, copies consumed) tuples,
    as ``chain_leaves`` returns them; the probabilities must sum to one.
    The counts are those of ``rng.choice(len(leaves), shots, p=...)`` bit for
    bit: that draw inverts the normalized cumulative sum ``cdf`` at one
    uniform per shot, so a shot lands at leaf k or before exactly when its
    uniform lies below ``cdf[k]``.
    """
    shots, seed = _shots(shots), _integer(seed, "seed", 0)
    probs = np.array([p for _, p, _, _ in leaves], dtype=float)
    total = probs.sum()
    if abs(total - 1.0) > ATOL:
        raise InvariantError(
            f"sampling the {protocol} tree: {len(leaves)} leaf probabilities sum to "
            f"{float(total)!r}, residual {total - 1.0:.3e} exceeds {ATOL:g}"
        )
    bad = np.flatnonzero(~(probs >= 0.0))  # NaN passes the sum check above
    if bad.size:
        raise ValueError(
            f"sampling the {protocol} tree: leaf {bad[0]} has probability "
            f"{float(probs[bad[0]])!r}"
        )
    rng = np.random.default_rng(seed)
    cdf = (probs / total).cumsum()
    cdf /= cdf[-1]
    counts = np.diff(_count_below(rng.random(shots), cdf), prepend=0)
    stats = tuple(
        BranchStat(label, float(prob), float(c) / shots, success, copies)
        for (label, prob, success, copies), c in zip(leaves, counts)
    )
    success_rate = float(sum(s.frequency for s in stats if s.success))
    exact = float(sum(s.probability for s in stats if s.success))
    mean_copies = float(sum(s.frequency * s.copies for s in stats))
    return MonteCarloSummary(protocol, shots, seed, stats, success_rate, exact, mean_copies)


def monte_carlo(protocol: str, config: ProtocolConfig) -> MonteCarloSummary:
    """Sample a protocol's exact branch distribution and summarize frequencies.

    The per-branch probabilities are computed once from the simulated
    arithmetic (prop2 and prop3 read the copy chain ``run_prop2`` and
    ``run_prop3`` replay, sigma the splits ``run_sigma_adaptive`` draws on);
    ``sample_leaves`` then draws ``config.shots`` shots from that distribution
    with one generator seeded by ``config.seed``, so results are deterministic
    given the config and independent of evaluation order.
    """
    if protocol not in _TREES:
        raise ValueError(
            f"unknown protocol {protocol!r}; expected one of {sorted(_TREES)}"
        )
    return sample_leaves(protocol, _TREES[protocol](config), config.shots, config.seed)


@dataclass(frozen=True)
class ScanRow:
    """One row of the repeat-phase success-law scan."""

    p: float
    n: int
    analytic: float
    empirical: float

    @property
    def abs_error(self) -> float:
        return abs(self.analytic - self.empirical)


#: ``Generator.geometric`` searches running sums from this rate up and
#: inverts one exponential draw below it (NumPy's own constant).
_GEOMETRIC_SEARCH_MIN_RATE = 0.333333333333333333333333


def _repeat_arrivals(rng: np.random.Generator, rate: float, n_max: int, shots: int) -> list[int]:
    """How many of ``shots`` repeat trials at ``rate`` succeed within n copies, n = 0..n_max.

    The counts are those of ``rng.geometric(rate, shots)`` bit for bit, read
    off the draws NumPy turns into trial numbers.  From
    ``_GEOMETRIC_SEARCH_MIN_RATE`` up a trial takes one uniform u and ends at
    the first n whose running sum p + pq + ... (summed in NumPy's order)
    reaches u; below it a trial ends at ceil(E / -log1p(-p)) for one standard
    exponential E, so within n copies exactly when E / -log1p(-p) <= n.
    """
    if rate >= _GEOMETRIC_SEARCH_MIN_RATE:
        draws = rng.random(shots)
        limits = [-math.inf]  # no trial ends at copy 0
        reach = term = rate
        q = 1.0 - rate
        for _ in range(n_max):
            limits.append(reach)
            term *= q
            reach += term
    else:
        draws = rng.standard_exponential(shots)
        with np.errstate(over="ignore"):  # E / -log1p(-p) is +inf for a subnormal p
            draws /= -math.log1p(-rate)
        limits = range(n_max + 1)
    # a draw is at most limits[n] exactly when it lies below the next double up
    return _count_below(draws, np.nextafter(np.array(limits, dtype=float), np.inf))


def _sigma_rate(p: float) -> float:
    """The probability of C's accepting split on ``build_sigma(p)``, bit for bit, summed
    off the sigma terms' diagonal as ``postselect_levels`` sums it: no state is formed."""
    p = _probability(p)
    return _sigma_split(zip((p, 1.0 - p), _PHI_SIGMA_STATES), 2)[0]


def sigma_scan(p_list, n_max: int, shots: int, seed: int) -> list[ScanRow]:
    """Empirical versus analytic success law of the adaptive repeat phase.

    For each rate p and each repeat budget n the empirical column estimates,
    from ``shots`` seeded samples, the probability that C's accepting branch
    arrives within n repeat copies; the per-copy rate is summed off the sigma
    terms' diagonal, not taken from the formula it is being tested against.
    Row n=0 has no repeat copies, hence probability zero.
    """
    p_list = _reals(p_list, "p_list")
    if not p_list:
        raise ValueError("at least one value of p is required")
    n_max, shots = _integer(n_max, "n_max", 0), _shots(shots)
    children = np.random.SeedSequence(_integer(seed, "seed", 0)).spawn(len(p_list))
    rows = []
    for p, child in zip(p_list, children):
        rate = _sigma_rate(p)
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"p={p!r} gives a per-copy rate {rate!r} outside (0, 1]")
        arrivals = _repeat_arrivals(np.random.default_rng(child), rate, n_max, shots)
        for n in range(n_max + 1):
            empirical = float(arrivals[n]) / shots
            rows.append(ScanRow(p, n, 1.0 - (1.0 - p) ** n, empirical))
    return rows
