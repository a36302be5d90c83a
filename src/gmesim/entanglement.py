"""Entanglement certificates across bipartitions of a multiparty system.

Pure states are certified through Schmidt rank (genuinely multiparty
entangled iff the rank is at least 2 across every bipartition).  Mixed states
are certified through negativity of the partial transpose, which is a
sufficient witness of entanglement in a cut.  The n-party Svetlichny
functional (2 <= n <= 8 qubits, bi-local bound 2**(n-1), quantum maximum
2**(n-1)*sqrt(2)) signs each correlator by its count t of primed settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product
from operator import add

import numpy as np

from .qcore import (
    ATOL,
    PARTY_LETTERS,
    DensityOperator,
    InvariantError,
    PartyDims,
    PureState,
    _hermitian_part,
    _integer,
    _reals,
)

#: Negativity above this threshold counts as a certified entangled cut.
ENTANGLED_NEG_ATOL = 1e-9

#: Schmidt coefficients above this threshold count toward the rank.
SCHMIDT_RANK_ATOL = 1e-9

#: Bi-local hidden-variable bound of the functional for three parties, 2**(n-1).
SVETLICHNY_CLASSICAL_BOUND = 4.0

#: Three-party quantum maximum, 2**(n-1)*sqrt(2), reached by GHZ at optimal settings.
SVETLICHNY_QUANTUM_BOUND = 4.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class Bipartition:
    """A cut of the parties into ``left`` versus the rest.

    Canonical form keeps the highest-index party out of ``left``; the
    constructor flips a non-canonical ``left`` to its complement, which names
    the same cut.
    """

    left: frozenset[int]
    n_parties: int

    def __post_init__(self):
        n = _integer(self.n_parties, "n_parties")
        object.__setattr__(self, "n_parties", n)
        if n < 2:
            raise ValueError("a bipartition needs at least two parties")
        left = frozenset(_integer(i, "party index", stop=n) for i in self.left)
        if n - 1 in left:
            left = frozenset(range(n)) - left
        object.__setattr__(self, "left", left)
        if not left or len(left) == n:
            raise ValueError("both sides of a bipartition must be nonempty")

    @property
    def right(self) -> frozenset[int]:
        return frozenset(range(self.n_parties)) - self.left

    @property
    def label(self) -> str:
        lhs = "".join(PARTY_LETTERS[i] for i in sorted(self.left))
        rhs = "".join(PARTY_LETTERS[i] for i in sorted(self.right))
        return f"{lhs}|{rhs}"


def enumerate_bipartitions(n_parties: int) -> list[Bipartition]:
    """All 2**(n-1) - 1 distinct cuts, in deterministic (size, lexicographic) order."""
    n = _integer(n_parties, "n_parties")
    if n < 2:
        raise ValueError("need at least two parties")
    cuts = []
    for size in range(1, n):
        for left in combinations(range(n - 1), size):
            cuts.append(Bipartition(frozenset(left), n))
    return cuts


@dataclass(frozen=True)
class SchmidtData:
    """Schmidt coefficients (descending) and the induced rank."""

    coefficients: tuple[float, ...]
    rank: int

    def __post_init__(self):
        coeffs = _reals(self.coefficients, "Schmidt coefficients")
        object.__setattr__(self, "coefficients", coeffs)
        rank = _integer(self.rank, "Schmidt rank", 0)
        if rank > len(coeffs):
            raise ValueError(f"Schmidt rank {rank} exceeds the {len(coeffs)} coefficients")
        object.__setattr__(self, "rank", rank)
        if any(c < -ATOL for c in coeffs):
            raise ValueError("Schmidt coefficients must be nonnegative")
        if list(coeffs) != sorted(coeffs, reverse=True):
            raise ValueError("Schmidt coefficients must be sorted descending")
        if abs(sum(c * c for c in coeffs) - 1.0) > 1e-8:
            raise ValueError("squared Schmidt coefficients must sum to 1")


@dataclass(frozen=True)
class CutRecord:
    """Certificate entries for one bipartition."""

    cut: Bipartition
    negativity: float
    schmidt_rank: int | None = None


@dataclass(frozen=True)
class BipartitionReport:
    """Certificates for every bipartition of a state, exactly once each."""

    n_parties: int
    records: tuple[CutRecord, ...]

    def __post_init__(self):
        expected = {c.label for c in enumerate_bipartitions(self.n_parties)}
        got = [r.cut.label for r in self.records]
        if sorted(got) != sorted(expected) or len(set(got)) != len(got):
            raise ValueError("records must cover every bipartition exactly once")

    @property
    def all_cuts_entangled(self) -> bool:
        return all(r.negativity > ENTANGLED_NEG_ATOL for r in self.records)

    @property
    def min_negativity(self) -> float:
        return min(r.negativity for r in self.records)

    @property
    def is_gme(self) -> bool:
        """Schmidt rank at least 2 across every cut (False for negativity-only records)."""
        return all(r.schmidt_rank is not None and r.schmidt_rank >= 2 for r in self.records)

    def record(self, label: str) -> CutRecord:
        for r in self.records:
            if r.cut.label == label:
                return r
        raise KeyError(label)


def schmidt(state: PureState, cut: Bipartition) -> SchmidtData:
    """Schmidt decomposition of a pure state across a cut."""
    if not isinstance(state, PureState):
        raise ValueError(f"schmidt operates on pure states, got {type(state).__name__}")
    if cut.n_parties != state.dims.n:
        raise ValueError("cut does not match the number of parties")
    left = sorted(cut.left)
    right = sorted(cut.right)
    t = state.tensor_view().transpose(left + right)
    dl = math.prod(state.dims.dims[i] for i in left)
    dr = math.prod(state.dims.dims[i] for i in right)
    svals = np.linalg.svd(t.reshape(dl, dr), compute_uv=False)
    coeffs = tuple(float(s) for s in svals)
    rank = int(np.sum(svals > SCHMIDT_RANK_ATOL))
    return SchmidtData(coeffs, rank)


def partial_transpose(rho: DensityOperator, cut: Bipartition) -> np.ndarray:
    """Matrix of the partial transpose over the left side of the cut."""
    if cut.n_parties != rho.dims.n:
        raise ValueError("cut does not match the number of parties")
    n = rho.dims.n
    t = rho.tensor_view()
    axes = list(range(2 * n))
    for i in cut.left:
        axes[i], axes[n + i] = axes[n + i], axes[i]
    out = t.transpose(axes)
    return out.reshape(rho.dims.total, rho.dims.total)


def _nonzero_pairs(rho: DensityOperator) -> tuple[np.ndarray, np.ndarray]:
    """The (row, column) indices of ``rho``'s nonzero entries."""
    return np.divmod(np.flatnonzero(rho.matrix != 0), rho.dims.total)


def _left_parts(dims: PartyDims, cut: Bipartition) -> np.ndarray:
    """For each flat index, what the digits of the parties left of the cut add to it."""
    digits = np.unravel_index(np.arange(dims.total), dims.dims)
    return np.ravel_multi_index(
        tuple(digit if i in cut.left else 0 for i, digit in enumerate(digits)), dims.dims
    )


def _live_block(rho: DensityOperator, cut: Bipartition, rows, cols) -> np.ndarray:
    """The partial transpose on its rows and columns that hold a nonzero entry.

    Row a and column b of the partial transpose hold ``rho``'s entry at row
    ``a - left[a] + left[b]`` and column ``b - left[b] + left[a]``, where
    ``left[x]`` is the part of index x the transposed digits make up; the
    same map sends ``rho``'s nonzero (row, column) pairs to the partial
    transpose's.  The live rows come out ascending.
    """
    left = _left_parts(rho.dims, cut)
    shift = left[cols] - left[rows]
    live = np.zeros(rho.dims.total, dtype=bool)
    live[rows + shift] = True
    live[cols - shift] = True
    idx = np.flatnonzero(live)
    on, off = left[idx], idx - left[idx]
    return rho.matrix[off[:, None] + on, on[:, None] + off]


def negativity(rho: DensityOperator, cut: Bipartition) -> float:
    """Sum of |negative eigenvalues| of the partial transpose across a cut.

    Zero for states separable (more precisely, PPT) in the cut; positive
    values certify entanglement.  The value does not depend on which side of
    the cut is transposed.

    Only the support of the partial transpose (the rows and columns holding a
    nonzero entry) is diagonalized, so the cost scales with the support, not
    with the full dimension.  This is exact: a zero row and column adds only
    the eigenvalue 0, which never enters the sum.  The support is gathered
    from ``rho``'s nonzero entries, so no D x D partial transpose is formed.
    Raises ``InvariantError`` when the kept block's eigenvalues miss
    ``Re tr rho`` by more than ``ATOL``.
    """
    return _negativity(rho, cut, _nonzero_pairs(rho))


def _negativity(rho: DensityOperator, cut: Bipartition, pairs) -> float:
    """``negativity`` given ``_nonzero_pairs(rho)``."""
    if cut.n_parties != rho.dims.n:
        raise ValueError("cut does not match the number of parties")
    vals = np.linalg.eigvalsh(_hermitian_part(_live_block(rho, cut, *pairs), 2.0))
    residual = float(np.sum(vals)) - float(np.trace(rho.matrix).real)
    if abs(residual) > ATOL:
        raise InvariantError(
            f"negativity across {cut.label} of dims {rho.dims.dims}: the eigenvalues of "
            f"the kept {len(vals)} of {rho.dims.total} rows miss Re tr rho by "
            f"residual {residual:.3e}, which exceeds {ATOL:g}"
        )
    return float(-np.sum(vals[vals < 0.0])) + 0.0  # avoid IEEE -0.0


def _negativity_from_schmidt(coeffs) -> float:
    s = sum(coeffs)
    return max(0.0, (s * s - 1.0) / 2.0)


def certify_entangled_all_cuts(rho: DensityOperator) -> BipartitionReport:
    """Negativity certificate for every bipartition of a density operator."""
    pairs = _nonzero_pairs(rho)  # once for all cuts
    records = tuple(
        CutRecord(cut, _negativity(rho, cut, pairs)) for cut in enumerate_bipartitions(rho.dims.n)
    )
    return BipartitionReport(rho.dims.n, records)


def certify_gme_pure(state: PureState) -> tuple[bool, BipartitionReport]:
    """Genuine multipartite entanglement certificate for a pure state.

    A pure state is genuinely multiparty entangled iff its Schmidt rank is at
    least 2 across every bipartition.  The per-cut negativity is derived from
    the Schmidt coefficients, for which it has a closed form.
    """
    records = []
    for cut in enumerate_bipartitions(state.dims.n):
        data = schmidt(state, cut)
        records.append(
            CutRecord(cut, _negativity_from_schmidt(data.coefficients), data.rank)
        )
    report = BipartitionReport(state.dims.n, tuple(records))
    return report.is_gme, report


# ---------------------------------------------------------------------------
# n-party nonlocality functional
# ---------------------------------------------------------------------------

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)

#: Equatorial angles of (A, A', B, B', C, C') that push GHZ to the quantum maximum.
_GHZ_OPTIMAL_ANGLES = (0.0, math.pi / 2, 0.0, math.pi / 2, -math.pi / 4, math.pi / 4)


def equatorial_observable(angle: float) -> np.ndarray:
    """cos(angle)*sigma_x + sin(angle)*sigma_y, a +-1-valued qubit observable."""
    return math.cos(angle) * _SX + math.sin(angle) * _SY


def ghz_optimal_settings() -> tuple[np.ndarray, ...]:
    """Settings (A, A', B, B', C, C') that push GHZ to the quantum maximum."""
    return tuple(equatorial_observable(a) for a in _GHZ_OPTIMAL_ANGLES)


def _check_observable(obs: np.ndarray, name: str) -> np.ndarray:
    obs = np.asarray(obs, dtype=complex)
    if obs.shape != (2, 2):
        raise ValueError(f"setting {name} must be a 2x2 matrix")
    if np.max(np.abs(obs - obs.conj().T)) > ATOL:
        raise ValueError(f"setting {name} is not Hermitian")
    if abs(np.trace(obs)) > ATOL:
        raise ValueError(f"setting {name} is not traceless")
    if np.max(np.abs(obs @ obs - np.eye(2))) > ATOL:
        raise ValueError(f"setting {name} does not square to the identity")
    return obs


def svetlichny_value(state: PureState, settings) -> float:
    """Value of the n-party Svetlichny functional on an n-qubit pure state.

    ``settings`` lists 2n dichotomic observables (A, A', B, B', ...), two per
    party.  The correlator of each of the 2**n setting choices enters with
    sqrt(2)*cos(pi/4*(2t-1)) for t primed settings: +1 when t mod 4 is 0 or
    1, else -1.  Values above 2**(n-1) (``SVETLICHNY_CLASSICAL_BOUND`` for
    n = 3) rule out any bi-local hidden-variable model; quantum states cannot
    exceed 2**(n-1)*sqrt(2) (``SVETLICHNY_QUANTUM_BOUND``).  The cost grows
    about x8 per qubit, so n outside 2..8 is refused before any operator is
    formed.
    """
    if not isinstance(state, PureState):
        raise ValueError(f"svetlichny_value operates on pure states, got {type(state).__name__}")
    dims = state.dims.dims
    n = len(dims)
    if any(d != 2 for d in dims) or not 2 <= n <= 8:
        raise ValueError(f"the functional is defined for 2 to 8 qubits, got dims {dims}")
    if len(settings) != 2 * n:
        raise ValueError(f"{2 * n} settings are required for n = {n}, got {len(settings)}")
    names = [PARTY_LETTERS[i // 2] + "'" * (i % 2) for i in range(2 * n)]
    obs = [_check_observable(o, name) for o, name in zip(settings, names)]
    psi = state.amplitudes
    terms = []
    for choice in product((0, 1), repeat=n):
        op = reduce(np.kron, (obs[2 * i + c] for i, c in enumerate(choice)))
        corr = float(np.real(np.vdot(psi, op @ psi)))
        terms.append(corr if sum(choice) % 4 < 2 else -corr)
    return reduce(add, terms)  # left to right from the first term: a -0.0 keeps its sign
