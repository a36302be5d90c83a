"""Dense state-vector and density-operator arithmetic on multiparty systems.

A system is a tensor product of finite-dimensional parties.  Party 0 is the
most significant index: the amplitude for basis label ``(i0, i1, ..., ik)``
sits at flat index ``i0*d1*...*dk + i1*d2*...*dk + ... + ik``, which is the
ordering produced by chained ``numpy.kron``.

States are dense and immutable: each operation returns new values and never
mutates its inputs, so values can be shared freely between threads.  One
operation, ``postselect_levels``, works on a mixture's pure terms instead of
its density operator: it reads the mixture's diagonal and the block of the
terms on the accepted levels, so the mixture is never formed or validated
(only that block enters the partial trace, and no D x D array is formed).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Tolerance for structural invariants (normalization, hermiticity, ...).
ATOL = 1e-9

#: Outcomes with probability at or below this threshold are pruned to null.
PRUNE_ATOL = 1e-12

#: Default cap on the total Hilbert-space dimension, enforced at construction.
DIM_CAP = 4096

#: From this many rows on, the checks of ``DensityOperator`` read only
#: the rows and columns that hold a nonzero entry.  Below it, finding them
#: costs about what factoring the whole matrix does (one BLAS thread on a
#: 2-core Xeon, a quarter of the rows live: 17 us whole against 24 us on the
#: support at 16 rows, 99 us against 36 us at 64 rows).
_SUPPORT_ROWS = 64

#: Letters used for party labels in reports ("A|BC" style).
PARTY_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


class InvariantError(RuntimeError):
    """An internal consistency check failed.

    This signals a defect in the library (or numerically impossible input
    slipping past validation), not a bad argument from the caller.
    """


def _frozen_array(data) -> np.ndarray:
    out = np.array(data, dtype=complex)
    out.setflags(write=False)
    return out


def _require_finite(values: np.ndarray, what: str) -> None:
    """Reject NaN and infinite entries, naming the first one found.

    Every tolerance comparison is False for NaN, so the later checks would
    let such an entry through; this runs before any of them.
    """
    if np.isfinite(values).all():
        return
    index = tuple(int(i) for i in np.argwhere(~np.isfinite(values))[0])
    label = index[0] if len(index) == 1 else index
    raise ValueError(f"{what} entry {label} is {complex(values[index])!r}; entries must be finite")


def _hermitian_part(mat: np.ndarray, scale: float) -> np.ndarray:
    """``(mat + mat^dagger) / scale``, bit for bit, as a new C-ordered array.

    Summing in place on a contiguous copy of the adjoint avoids the strided
    reads of ``mat.conj().T``.
    """
    out = np.conj(mat.T, order="C")
    out += mat
    out /= scale
    return out


def _phase_canonical(vecs: np.ndarray) -> np.ndarray:
    """A vector, or each row of a ``(B, D)`` stack, divided by the phase of its
    largest-magnitude entry, which becomes real and positive to keep reported
    states stable; every zero comes out +0.0, whatever the phase's signs.
    ``np.hypot`` gives a complex scalar's ``abs`` bit for bit, as ``np.abs`` on
    a complex array does not, so a row's phase is its vector's."""
    pivots = np.take_along_axis(vecs, np.abs(vecs).argmax(axis=-1)[..., None], axis=-1)
    return vecs / (pivots / np.hypot(pivots.real, pivots.imag)) + 0.0


def _min_eigenvalue(mat: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of ``mat``.

    Only the failure path of the PSD check in ``DensityOperator`` calls this.
    """
    return float(np.linalg.eigvalsh(_hermitian_part(mat, 2.0))[0])


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


def _integer(
    value, name: str, low: int | None = None, stop: int | None = None, of: str = ""
) -> int:
    """``value`` as an int: the one rule for every count, seed and index argument.

    Python and NumPy integers pass; bools, floats, strings and anything else
    are refused, where ``int()`` would read True as 1, truncate 2.7 to 2 and
    parse "3".  A count is at least ``low`` (0 or 1).  An index lies in
    ``range(stop)``; its refusal names ``stop`` and what it counts, ``of``,
    when that is given.  Every refusal is a ValueError naming ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        sign = ("non-negative", "positive")[low]
        raise ValueError(f"{name} must be a {sign} integer, got {value}")
    if stop is not None and not 0 <= value < stop:
        detail = f" {value} out of range for {stop} {of}" if of else " out of range"
        raise ValueError(name + detail)
    return value


def _real(value, name: str) -> float:
    """``value`` as a float: the one rule for every real argument.

    Python and NumPy integers and floats pass, NaN and infinities included; a
    bool, string, None, complex value or too large an integer is refused by name.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is an integer too large for a float") from None


def _reals(values, name: str, count: int | None = None, positive: bool = False) -> tuple:
    """Finite floats, entry i named ``name[i]``; with ``positive``, ``count`` positive ones."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise ValueError(f"{name} must be a sequence of real numbers, got {values!r}")
    vals = tuple(_real(v, f"{name}[{i}]") for i, v in enumerate(values))
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"{name} must be finite, got {vals!r}")
    if positive and (count not in (None, len(vals)) or any(v <= 0 for v in vals)):
        many = {3: "three", 4: "four"}.get(count, count)
        message = f"{many} positive {name} are required" if count else f"{name} must be positive"
        raise ValueError(message)
    return vals


def _probability(p, name: str = "p") -> float:
    """``p`` strictly inside (0, 1)."""
    p = _real(p, name)
    if not 0.0 < p < 1.0:
        raise ValueError(f"{name} must lie strictly inside (0, 1)")
    return p


def _unit_sum(values, name: str, count: int | None = None, squared: bool = False) -> tuple:
    """Positive values whose sum, or sum of squares, is 1 within ``ATOL``."""
    vals = _reals(values, name, count, positive=True)
    if abs(sum(v * v if squared else v for v in vals) - 1.0) > ATOL:
        raise ValueError(f"{'squared ' if squared else ''}{name} must sum to 1")
    return vals


@dataclass(frozen=True)
class PartyDims:
    """Ordered local dimensions of the parties.

    The total dimension is bounded by ``DIM_CAP``, read when each instance is
    checked.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        try:
            dims = tuple(_integer(d, "local dimension") for d in self.dims)
        except ValueError:
            raise ValueError(f"local dimensions must be integers, got {self.dims!r}") from None
        object.__setattr__(self, "dims", dims)
        if len(dims) == 0:
            raise ValueError("at least one party is required")
        if any(d < 2 for d in dims):
            raise ValueError(f"every local dimension must be >= 2, got {dims}")
        if math.prod(dims) > DIM_CAP:
            raise ValueError(
                f"total dimension {math.prod(dims)} exceeds the cap {DIM_CAP}"
            )

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        return math.prod(self.dims)


def _as_party_dims(dims) -> PartyDims:
    if isinstance(dims, PartyDims):
        return dims
    return PartyDims(tuple(dims))


@dataclass(frozen=True)
class PureState:
    """Unit vector over ``dims``: norm 1 within ``ATOL``; ``ket`` normalizes raw amplitudes.
    States checked as one stack by ``_pure_rows`` view the rows of one frozen array."""

    dims: PartyDims
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", _as_party_dims(self.dims))
        amps = _frozen_array(self.amplitudes).reshape(-1)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if amps.size != self.dims.total:
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected {self.dims.total}"
            )
        norm = self.norm()
        if not math.isfinite(norm):  # a NaN or infinite amplitude, or overflow
            _require_finite(amps, f"pure state on dims {self.dims.dims}: amplitude")
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"state is not normalized (norm={norm!r})")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def tensor_view(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per party."""
        return self.amplitudes.reshape(self.dims.dims)

    def density(self) -> DensityOperator:
        return DensityOperator(self.dims, np.outer(self.amplitudes, self.amplitudes.conj()))

    def overlap(self, other: PureState) -> complex:
        if self.dims != other.dims:
            raise ValueError("dimension mismatch")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class DensityOperator:
    """Trace-one positive-semidefinite operator over ``dims``.

    Every construction checks finiteness, Hermiticity, unit trace and PSD.
    The PSD test is a Cholesky factorization of ``H + ATOL*I`` with
    ``H = (rho + rho^dagger)/2``: it succeeds when the smallest eigenvalue of
    ``H`` exceeds ``-ATOL`` up to roundoff (about 3e-14 at 256 dimensions).
    From 64 rows on, when rho's diagonal holds a zero, every check reads only
    the rows and columns of rho that hold a nonzero entry, and the factor
    only those of ``H``: the rest of ``H + ATOL*I`` is ``ATOL*I``, so a
    sparse state pays for its support, not its dimension.  Only when the
    factorization fails does a full ``eigvalsh`` decide, so a matrix is
    rejected exactly when its smallest eigenvalue is below ``-ATOL``.  The
    checks record those live rows (every row when they read the whole matrix),
    and ``negativity`` reads the nonzero entries off the block on them, found
    once per density and cached; the matrix is read-only, so threads share them.
    """

    dims: PartyDims
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", _as_party_dims(self.dims))
        mat = _frozen_array(self.matrix)
        object.__setattr__(self, "matrix", mat)
        d = self.dims.total
        if mat.shape != (d, d):
            raise ValueError(f"matrix has shape {mat.shape}, expected {(d, d)}")
        where = f"density operator on dims {self.dims.dims}"
        # off the rows and columns that hold a nonzero entry all entries are zero
        block, live = mat, np.arange(d)
        if d >= _SUPPORT_ROWS and not mat.diagonal().all():
            nonzero = np.ascontiguousarray(mat).view(float) != 0  # re, im side by side
            live = np.flatnonzero(nonzero.any(1) | nonzero.any(0).reshape(d, 2).any(1))
            block = mat.take(live, 0).take(live, 1)
        object.__setattr__(self, "_live", live)  # private: no field, so no eq or repr
        adj = np.conj(block.T, order="C")
        with np.errstate(invalid="ignore"):  # a NaN or infinite entry makes herm NaN or inf
            herm = float(np.abs(block - adj).max(initial=0.0))
        if not herm <= ATOL:
            _require_finite(mat, f"{where}: matrix")
            raise ValueError(
                f"{where}: matrix is not Hermitian, max |rho - rho^dagger| = {herm:.3e} "
                f"exceeds {ATOL:g}"
            )
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > ATOL:
            raise ValueError(f"{where}: trace is {tr!r}, expected 1 within {ATOL:g}")
        # 2*(H + ATOL*I), built in place on the adjoint temporary; the exact
        # factor of two does not change definiteness.  The sum is exactly
        # Hermitian, so a zero column is a zero row too, and each such row
        # and column adds only the pivot 2*ATOL: the factor runs on the rest.
        # Only a row with a zero diagonal entry can be zero.
        adj += block
        if d >= _SUPPORT_ROWS and not adj.diagonal().all():
            live = np.flatnonzero(adj.any(0))
            adj = adj.take(live, 0).take(live, 1)
        adj.flat[:: len(adj) + 1] += 2.0 * ATOL
        try:
            np.linalg.cholesky(adj)
        except np.linalg.LinAlgError:
            low = _min_eigenvalue(mat)
            if low < -ATOL:
                raise ValueError(
                    f"{where}: matrix is not positive semidefinite, minimum eigenvalue "
                    f"{low!r} is below {-ATOL:g}"
                ) from None

    def tensor_view(self) -> np.ndarray:
        """Matrix reshaped to row axes then column axes, one per party."""
        return self.matrix.reshape(self.dims.dims * 2)

    @cached_property
    def _nonzero_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, column) indices of the nonzero entries, row-major, read off the live rows."""
        live = self._live  # every nonzero entry lies on these rows and columns
        rows, cols = np.nonzero(self.matrix[live[:, None], live] != 0)  # a bool mask, not complex
        return live[rows], live[cols]


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """Complete set of orthogonal projectors on the joint space of some parties."""

    target_parties: tuple[int, ...]
    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        targets = tuple(_integer(t, "target party", low=0) for t in self.target_parties)
        object.__setattr__(self, "target_parties", targets)
        if len(set(targets)) != len(targets):
            raise ValueError("target parties must be distinct")
        if not self.projectors:
            raise ValueError("at least one projector is required")
        projs = tuple(_frozen_array(p) for p in self.projectors)
        object.__setattr__(self, "projectors", projs)
        d = projs[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for i, p in enumerate(projs):
            if p.shape != (d, d):
                raise ValueError("projectors must be square and equally sized")
            _require_finite(p, f"projector {i}")
            if np.max(np.abs(p - p.conj().T)) > ATOL:
                raise ValueError(f"projector {i} is not Hermitian")
            if np.max(np.abs(p @ p - p)) > ATOL:
                raise ValueError(f"projector {i} is not idempotent")
            total += p
        for i in range(len(projs)):
            for j in range(i + 1, len(projs)):
                if np.max(np.abs(projs[i] @ projs[j])) > ATOL:
                    raise ValueError(f"projectors {i} and {j} are not orthogonal")
        if np.max(np.abs(total - np.eye(d))) > ATOL:
            raise ValueError("projectors do not sum to the identity")

    @property
    def n_outcomes(self) -> int:
        return len(self.projectors)


@dataclass(frozen=True)
class MeasurementOutcome:
    """One branch of a projective measurement.

    ``post_state`` is None when the branch probability is at or below the
    prune threshold, and when ``measure`` was not asked to keep the outcome.
    """

    outcome_index: int
    probability: float
    post_state: PureState | DensityOperator | None

    def __post_init__(self):
        if not (-ATOL <= self.probability <= 1.0 + ATOL):
            raise ValueError(f"probability {self.probability!r} outside [0, 1]")


State = PureState | DensityOperator


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------


def ket(amplitudes, dims) -> PureState:
    """Build a normalized pure state from an amplitude sequence."""
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    norm = np.linalg.norm(amps)
    if norm <= PRUNE_ATOL:
        raise ValueError("cannot normalize an (almost) zero vector")
    return PureState(_as_party_dims(dims), amps / norm)


def basis_ket(dims, levels) -> PureState:
    """Computational basis state |levels[0], levels[1], ...>."""
    pd = _as_party_dims(dims)
    levels = tuple(levels)
    if len(levels) != pd.n:
        raise ValueError("one level per party is required")
    levels = tuple(_integer(lv, "level", stop=d, of="levels") for lv, d in zip(levels, pd.dims))
    amps = np.zeros(pd.total, dtype=complex)
    amps[int(np.ravel_multi_index(levels, pd.dims))] = 1.0
    return PureState(pd, amps)


_BELL_SIGNS = {"phi+": (1, 1), "phi-": (1, -1), "psi+": (0, 1), "psi-": (0, -1)}


def bell_pair(kind: str = "phi+") -> PureState:
    """One of the four two-qubit Bell states."""
    if kind not in _BELL_SIGNS:
        raise ValueError(f"unknown Bell state {kind!r}")
    correlated, sign = _BELL_SIGNS[kind]
    amps = np.zeros(4, dtype=complex)
    if correlated:
        amps[0], amps[3] = 1.0, sign
    else:
        amps[1], amps[2] = 1.0, sign
    return PureState(PartyDims((2, 2)), amps / np.sqrt(2.0))


def bell_basis() -> list[np.ndarray]:
    """The four Bell vectors in the order phi+, phi-, psi+, psi-."""
    return [bell_pair(k).amplitudes.copy() for k in ("phi+", "phi-", "psi+", "psi-")]


def ghz_state(n_parties: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on ``n_parties`` qubits."""
    if _integer(n_parties, "n_parties") < 2:
        raise ValueError("a GHZ-type state needs at least two parties")
    pd = PartyDims((2,) * n_parties)
    amps = np.zeros(pd.total, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return PureState(pd, amps)


def _level_groups(dim: int, groups) -> list[list[int]]:
    """Check that ``groups`` partition the levels 0..dim-1; return them as ints."""
    seen: set[int] = set()
    out = []
    for group in groups:
        levels = []
        for lv in group:
            lv = _integer(lv, "level", stop=dim, of="levels")
            if lv in seen:
                raise ValueError(f"level {lv} appears in more than one group")
            seen.add(lv)
            levels.append(lv)
        out.append(levels)
    if len(seen) != dim:
        raise ValueError("groups must cover every basis level exactly once")
    return out


def level_group_measurement(target_party: int, dim: int, groups) -> ProjectiveMeasurement:
    """Projective measurement whose outcomes are groups of basis levels.

    Example: ``level_group_measurement(2, 3, [[0], [1, 2]])`` measures party 2
    of a qutrit with projectors |0><0| and |1><1| + |2><2|.
    """
    projectors = []
    for levels in _level_groups(_integer(dim, "dim", 1), groups):
        p = np.zeros((dim, dim), dtype=complex)
        p[levels, levels] = 1.0
        projectors.append(p)
    return ProjectiveMeasurement((target_party,), tuple(projectors))


def state_projector_measurement(target_party: int, reference: PureState) -> ProjectiveMeasurement:
    """Two-outcome measurement {|r><r|, 1 - |r><r|} on a single party."""
    if reference.dims.n != 1:
        raise ValueError("reference state must live on a single party")
    v = reference.amplitudes
    p0 = np.outer(v, v.conj())
    return ProjectiveMeasurement((target_party,), (p0, np.eye(v.size, dtype=complex) - p0))


# ---------------------------------------------------------------------------
# axis-local kernel
# ---------------------------------------------------------------------------


def _local_kernel(
    dims: PartyDims, targets, data: np.ndarray, density: bool = False
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Prepare states over ``dims`` for operators supported on the listed parties.

    ``data`` is a ``(B, D)`` stack of pure-state rows, or with ``density`` one
    density matrix.  Returns ``(front, apply)``: ``front`` is a stack with the
    target axes moved to the front, shape ``(B, tdim, rdim)``; ``apply(op)``
    gives the rows ``(op x 1) psi_b``, or the matrix ``(op x 1) rho (op x
    1)^dagger``, in the system's own party order.  The operator's factor order
    matches the order in which ``targets`` are listed, which need not be
    sorted or contiguous.

    The target axes are transposed to the front once per call; each operator
    then costs one batched matmul over the joint target index (a second one
    for the column axes of a density operator) and the inverse transpose, and
    each row gets exactly the arithmetic of a one-row call.  No operator on
    the full space is ever formed.
    """
    n = dims.n
    targets = tuple(_integer(t, "party index", stop=n, of="parties") for t in targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"target parties {targets} must be distinct")
    tdim = math.prod(dims.dims[t] for t in targets)
    rdim = dims.total // tdim
    order = list(targets) + [i for i in range(n) if i not in targets]
    back = [order.index(i) for i in range(n)]
    shape = [dims.dims[i] for i in order]
    if density:
        front = data.reshape(dims.dims * 2).transpose(order + [n + i for i in order])
        front = front.reshape(tdim, rdim * dims.total)
        back += [n + i for i in back]
        shape += shape
    else:
        rows = data.shape[0]
        front = data.reshape([rows, *dims.dims]).transpose([0] + [1 + i for i in order])
        front = front.reshape(rows, tdim, rdim)

    def apply(op: np.ndarray) -> np.ndarray:
        if op.shape != (tdim, tdim):
            raise ValueError(
                f"operator has shape {op.shape}, expected {(tdim, tdim)} for parties {targets}"
            )
        out = np.matmul(op, front)
        if not density:
            out = out.reshape([rows, *shape]).transpose([0] + [1 + i for i in back])
            return out.reshape(rows, dims.total)
        out = np.matmul(op.conj(), out.reshape(tdim * rdim, tdim, rdim))
        return out.reshape(shape).transpose(back).reshape(dims.total, dims.total)

    return front, apply


def _row_dots(rows: np.ndarray) -> np.ndarray:
    """``np.vdot(r, r).real`` per row ``r``, bit for bit: each matmul item is that BLAS dot."""
    return np.matmul(rows.conj()[..., None, :], rows[..., :, None])[..., 0, 0].real


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(r)`` per row ``r``, bit for bit: the root of its two real BLAS dots."""
    re, im = rows.real[..., None, :], rows.imag[..., None, :]
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


def _require_unit_rows(rows: np.ndarray, dims: PartyDims) -> None:
    """``PureState``'s length and norm checks on each row of a stack, with its messages."""
    failing = ~(np.abs(_row_norms(rows) - 1.0) <= ATOL) | (rows.shape[1] != dims.total)
    for i in failing.nonzero()[0]:
        PureState(dims, rows[i])


def _pure_rows(dims: PartyDims, rows) -> list[PureState]:
    """A ``PureState`` per row of a ``(B, D)`` stack, checked in one stacked pass as
    ``PureState`` checks it, with its messages; each views a row of one frozen copy."""
    rows = _frozen_array(np.ascontiguousarray(rows))
    _require_unit_rows(rows, dims)
    states = [object.__new__(PureState) for _ in rows]
    for state, row in zip(states, rows):
        state.__dict__.update(dims=dims, amplitudes=row)
    return states


def _require_unitary(u: np.ndarray) -> None:
    if np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) > ATOL:
        raise ValueError("operator is not unitary within tolerance")


def _require_probability_sum(probabilities, targets, dims: PartyDims) -> None:
    """Refuse outcome probabilities, or a row of a ``(B, K)`` stack of them, not summing to one."""
    for row in np.atleast_2d(probabilities).tolist():
        total = sum(row)
        if abs(total - 1.0) > ATOL:
            raise InvariantError(
                f"measurement on parties {targets} of dims {dims.dims}: probabilities "
                f"sum to {total!r}, residual {total - 1.0:.3e} exceeds {ATOL:g}"
            )


def _diagonal_probabilities(diag, masks, targets, dims: PartyDims) -> tuple[list, tuple]:
    """The masked sums of a mixture's diagonal and those clipped to [0, 1], summing to one."""
    raw = [float(np.real(np.sum(np.where(mask, diag, 0)))) for mask in masks]
    probs = tuple(min(max(prob, 0.0), 1.0) for prob in raw)
    _require_probability_sum(probs, targets, dims)
    return raw, probs


def _measure_rows(dims: PartyDims, rows: np.ndarray, targets, operators):
    """Each operator of a local instrument on every row of a ``(B, D)`` stack: the
    images' squared norms (``np.vdot``'s BLAS dot) clipped to [0, 1], each row
    summing to one; the mask of those above the prune threshold; and those
    images renormalized, unvalidated."""
    apply = _local_kernel(dims, targets, rows)[1]
    subs = [apply(op) for op in operators]
    del apply  # frees the kernel's transposed copy of the rows
    subs = np.stack(subs, axis=1)  # (rows, operators, D)
    raw = _row_dots(subs)
    probs = np.minimum(np.maximum(raw, 0.0), 1.0)
    _require_probability_sum(probs, tuple(targets), dims)
    live = raw > PRUNE_ATOL
    out = subs[live]
    out /= np.sqrt(raw[live])[:, None]
    return probs, live, out


def _contract_rows(dims: PartyDims, rows: np.ndarray, targets, bras: np.ndarray) -> np.ndarray:
    """``<bras[b]|_targets |rows[b]>`` for each row b of a ``(B, D)`` stack, unvalidated,
    renormalized by ``np.linalg.norm``'s BLAS dots; a negligible weight is refused."""
    front = _local_kernel(dims, targets, rows)[0]
    if bras.shape[-1] != front.shape[1]:
        raise ValueError("reference vector does not match the party dimension")
    out = np.matmul(bras[:, None], front)[:, 0]
    weights = _row_norms(out)
    if (weights <= PRUNE_ATOL).any():
        raise ValueError("state has (almost) no overlap with the reference vector")
    out /= weights[:, None]
    return out


def _local_branches(
    state: State, operators, targets, keep=None
) -> list[tuple[float, State | None]]:
    """Apply each operator of a local instrument; one (probability, state) each.

    The post-state is renormalized (and, for a density operator, symmetrized)
    and is None when the probability is at or below the prune threshold, or
    when ``keep`` (a collection of operator indices; None keeps all) omits
    the operator.  Probabilities are clipped to [0, 1] and must sum to one
    (a pure state is one row of ``_measure_rows``, which checks that itself).
    """
    formed = range(len(operators)) if keep is None else keep
    if isinstance(state, PureState):
        probs, live, rows = _measure_rows(state.dims, state.amplitudes[None], targets, operators)
        posts = dict(zip(live[0].nonzero()[0].tolist(), rows))
        return [(prob, PureState(state.dims, posts[i]) if i in posts and i in formed else None)
                for i, prob in enumerate(probs[0].tolist())]
    _, apply = _local_kernel(state.dims, targets, state.matrix, density=True)
    branches: list[tuple[float, State | None]] = []
    for i, op in enumerate(operators):
        sub = apply(op)
        prob = float(np.real(np.trace(sub)))
        post = None
        if i in formed and prob > PRUNE_ATOL:
            post = DensityOperator(state.dims, _hermitian_part(sub, 2.0 * prob))
        branches.append((min(max(prob, 0.0), 1.0), post))
    _require_probability_sum([prob for prob, _ in branches], tuple(targets), state.dims)
    return branches


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def tensor(left: State, right: State) -> State:
    """Tensor product; both operands must be the same kind of state."""
    if isinstance(left, PureState) and isinstance(right, PureState):
        dims = PartyDims(left.dims.dims + right.dims.dims)
        amps = np.kron(left.amplitudes, right.amplitudes)
        return PureState(dims, amps)
    if isinstance(left, DensityOperator) and isinstance(right, DensityOperator):
        dims = PartyDims(left.dims.dims + right.dims.dims)
        return DensityOperator(dims, np.kron(left.matrix, right.matrix))
    raise ValueError("tensor requires two states of the same kind")


def _mixture_terms(terms) -> tuple[PartyDims, list]:
    """Check the (weight, term) pairs of a convex mixture; return (dims, terms).

    Weights must be positive and sum to one within tolerance, and every term
    is a DensityOperator or a PureState on the same parties.  No check reads
    an amplitude or a matrix entry: each term was validated when it was built.
    """
    terms = list(terms)  # zero terms have no weights to sum to 1
    _unit_sum([w for w, _ in terms], "mixture weights")
    if not all(isinstance(term, (DensityOperator, PureState)) for _, term in terms):
        raise ValueError("mix expects DensityOperator or PureState terms")
    dims = terms[0][1].dims
    for _, term in terms:
        if term.dims != dims:
            raise ValueError("all mixture terms must share the same party structure")
    return dims, terms


def mix(terms) -> DensityOperator:
    """Convex mixture of density operators and pure states.

    ``terms`` is a sequence of (weight, DensityOperator or PureState);
    weights must be positive and sum to one within tolerance.  A pure term
    adds ``w * outer(psi, psi*)`` straight into the sum, so only the mixture
    itself is validated as a density operator.
    """
    dims, terms = _mixture_terms(terms)
    acc = np.zeros((dims.total, dims.total), dtype=complex)
    for w, term in terms:
        if isinstance(term, DensityOperator):
            acc += w * term.matrix
        else:
            acc += w * np.outer(term.amplitudes, term.amplitudes.conj())
    return DensityOperator(dims, acc)


def _traced_parties(n: int, discard) -> list[int]:
    """Sorted distinct parties to trace out of ``n``; some must remain."""
    discard = sorted({_integer(i, "discard index", stop=n, of="parties") for i in discard})
    if not discard:
        raise ValueError("nothing to trace out")
    if len(discard) == n:
        raise ValueError("cannot trace out every party")
    return discard


def _trace_out(matrix, dims: PartyDims, discard: list[int], levels=None) -> DensityOperator:
    """The validated reduction of a D x D ``matrix`` over ``dims`` (see ``partial_trace``),
    or with ``levels`` (sorted, per party) of its block on their product only."""
    n = dims.n
    keep = [i for i in range(n) if i not in discard]
    shape = dims.dims if levels is None else tuple(len(lv) for lv in levels)
    row = list(range(n))
    col = [i if i in discard else n + i for i in range(n)]
    reduced = np.einsum(matrix.reshape(shape * 2), row + col, keep + [n + i for i in keep])
    new_dims = PartyDims(tuple(dims.dims[i] for i in keep))
    if levels is not None:  # place the traced block on the kept parties' levels
        reduced, block = np.zeros(new_dims.dims * 2, dtype=complex), reduced
        reduced[np.ix_(*[levels[i] for i in keep] * 2)] = block
    return DensityOperator(new_dims, reduced.reshape(new_dims.total, new_dims.total))


def partial_trace(rho: DensityOperator, discard) -> DensityOperator:
    """Trace out the listed parties, keeping the remaining ones in order."""
    return _trace_out(rho.matrix, rho.dims, _traced_parties(rho.dims.n, discard))


def postselect_levels(
    terms, steps, discard
) -> tuple[tuple[tuple[float, ...], ...], DensityOperator | None]:
    """Postselect a mixture of pure terms on level groups, then trace out ``discard``.

    ``terms`` are the (weight, PureState) terms of a mixture, checked as
    ``mix`` checks them.  Each step ``(party, groups, accept)`` measures the
    level groups ``groups`` of one party (as ``level_group_measurement``
    does) and keeps outcome ``accept``.  Returns a tuple with each step's
    outcome probabilities, clipped to [0, 1], along the accepting path, and
    the accepted state with the ``discard`` parties traced out.  When an
    accepted outcome has probability at or below the prune threshold the
    later steps are skipped and the state is None.

    The results are bit for bit those of ``measure(..., keep=(accept,))`` on
    ``mix(terms)``, step after step, followed by ``partial_trace``, but the
    mixture is never formed: the probabilities are sums over its diagonal,
    built in O(r*D), and the accepted state is the block of the terms on the
    levels every step accepted, traced without padding it to D x D.  Only the
    reduced state is validated as a density operator.
    """
    dims, terms = _mixture_terms(terms)
    if not all(isinstance(term, PureState) for _, term in terms):
        raise ValueError("postselect_levels expects PureState terms")
    discard = _traced_parties(dims.n, discard)
    levels = np.indices(dims.dims).reshape(dims.n, dims.total)  # party level at each index
    plan = []
    for party, groups, accept in steps:
        party = _integer(party, "party index", stop=dims.n, of="parties")
        groups = _level_groups(dims.dims[party], groups)
        accept = _integer(accept, "accept index", stop=len(groups), of="outcomes")
        table = np.empty(dims.dims[party], dtype=np.intp)  # the group of each level
        for g, group in enumerate(groups):
            table[group] = g
        plan.append((party, table[levels[party]] == np.arange(len(groups))[:, None], accept))

    # the elementwise operations mix performs on its diagonal, in term order
    diag = np.zeros(dims.total, dtype=complex)
    for w, term in terms:
        diag += w * (term.amplitudes * term.amplitudes.conj())
    path, scales = [], []
    support = np.ones(dims.total, dtype=bool)
    for party, masks, accept in plan:
        raw, probs = _diagonal_probabilities(diag, masks, (party,), dims)
        path.append(probs)
        if raw[accept] <= PRUNE_ATOL:
            return tuple(path), None
        scales.append(2.0 * raw[accept])
        diag = _hermitian_part(np.where(masks[accept], diag, 0), scales[-1])
        support &= masks[accept]

    kept = np.flatnonzero(support)  # the product of each party's accepted levels
    sets = [np.flatnonzero(np.bincount(lv[kept], minlength=d)) for lv, d in zip(levels, dims.dims)]
    block = np.zeros((kept.size, kept.size), dtype=complex)
    for w, term in terms:
        amps = term.amplitudes[kept]
        block += w * np.outer(amps, amps.conj())
    # each step's symmetrize-and-renormalize acts entrywise, so on the block alone
    for scale in scales:
        block = _hermitian_part(block, scale)
    return tuple(path), _trace_out(block, dims, discard, sets)


def measure(
    state: State, measurement: ProjectiveMeasurement, keep=None
) -> list[MeasurementOutcome]:
    """Apply a projective measurement and return every outcome branch.

    Returns one ``MeasurementOutcome`` per projector, with renormalized
    post-measurement states.  ``keep`` lists the outcome indices whose
    post-state the caller reads; the other outcomes still report their
    probability but carry ``post_state=None``, so their states are never
    formed.  None (the default) keeps every outcome.  Branches with
    probability <= the prune threshold carry ``post_state=None`` too.  The
    probabilities must sum to one within tolerance or an ``InvariantError``
    is raised.
    """
    if keep is not None:
        n = measurement.n_outcomes
        keep = tuple(_integer(k, "keep index", stop=n, of="outcomes") for k in keep)
        if len(set(keep)) != len(keep):
            raise ValueError(f"keep indices {keep} must be distinct")
    branches = _local_branches(state, measurement.projectors, measurement.target_parties, keep)
    return [MeasurementOutcome(i, prob, post) for i, (prob, post) in enumerate(branches)]


def apply_local_unitary(state: State, unitary, target_parties) -> State:
    """Apply a unitary supported on the listed parties."""
    u = np.asarray(unitary, dtype=complex)
    _require_unitary(u)
    if isinstance(state, PureState):
        _, apply = _local_kernel(state.dims, target_parties, state.amplitudes[None])
        return PureState(state.dims, apply(u)[0])
    _, apply = _local_kernel(state.dims, target_parties, state.matrix, density=True)
    return DensityOperator(state.dims, apply(u))


def relabel_subspace(state: PureState, party: int, basis_map: dict, new_dim: int) -> PureState:
    """Rename basis levels of one party of a pure state and shrink (or grow) its dimension.

    ``basis_map`` maps old levels to new levels and must be injective; any
    population outside its domain must be negligible (below the prune
    threshold), otherwise the relabeling would lose weight.  Each source
    level's amplitudes are gathered into its target level; the other target
    levels stay zero.
    """
    if not isinstance(state, PureState):
        raise ValueError("relabel_subspace operates on pure states")
    party = _integer(party, "party index", stop=state.dims.n)
    old_dim = state.dims.dims[party]
    new_dim = _integer(new_dim, "new dimension")
    if new_dim < 2:
        raise ValueError("new dimension must be >= 2")
    items = [(_integer(a, "source level", stop=old_dim, of="levels"),
              _integer(b, "target level", stop=new_dim, of="levels")) for a, b in basis_map.items()]
    sources, targets = [a for a, _ in items], [b for _, b in items]
    if len(set(targets)) != len(targets):
        raise ValueError("basis map must be injective")
    unmapped = [lv for lv in range(old_dim) if lv not in sources]

    new_dims = PartyDims(state.dims.dims[:party] + (new_dim,) + state.dims.dims[party + 1:])
    t = state.tensor_view()
    if unmapped:
        lost = float(np.sum(np.abs(np.take(t, unmapped, axis=party)) ** 2))
        if lost > PRUNE_ATOL:
            raise ValueError(
                f"population {lost!r} outside the relabeled subspace on party {party}"
            )
    out = np.zeros(new_dims.dims, dtype=complex)
    np.moveaxis(out, party, 0)[targets] = np.moveaxis(t, party, 0)[sources]
    return PureState(new_dims, out.reshape(-1))


def permute_parties(state: State, order) -> State:
    """Reorder parties so that output party ``i`` is input party ``order[i]``."""
    order = [_integer(i, "order entry") for i in order]
    n = state.dims.n
    if sorted(order) != list(range(n)):
        raise ValueError(f"order must be a permutation of 0..{n - 1}")
    new_dims = PartyDims(tuple(state.dims.dims[i] for i in order))
    if isinstance(state, PureState):
        t = state.tensor_view().transpose(order)
        return PureState(new_dims, t.reshape(-1))
    t = state.tensor_view().transpose(order + [n + i for i in order])
    return DensityOperator(new_dims, t.reshape(new_dims.total, new_dims.total))


def contract_party(state: PureState, party, reference) -> PureState:
    """Project one party onto a reference vector and drop that party.

    ``party`` may also be a tuple of parties, projected jointly onto a
    reference whose factor order is the order they are listed in.  The
    inner-product contraction <reference|_party |state> renormalizes the
    remainder; it fails if the overlap is negligible.
    """
    if not isinstance(state, PureState):
        raise ValueError("contract_party operates on pure states")
    parties = (party,) if np.ndim(party) == 0 else tuple(party)
    if state.dims.n <= len(parties):
        raise ValueError("cannot contract every party")
    bra = np.asarray(reference, dtype=complex).reshape(1, -1).conj()
    new_dims = PartyDims(tuple(d for i, d in enumerate(state.dims.dims) if i not in parties))
    return PureState(new_dims, _contract_rows(state.dims, state.amplitudes[None], parties, bra)[0])


def fidelity_pure(rho: State, target: PureState) -> float:
    """Fidelity <target| rho |target> against a pure target state."""
    if rho.dims != target.dims:
        raise ValueError("dimension mismatch between state and target")
    if isinstance(rho, PureState):
        return float(abs(np.vdot(target.amplitudes, rho.amplitudes)) ** 2)
    val = float(np.real(np.vdot(target.amplitudes, rho.matrix @ target.amplitudes)))
    return min(max(val, 0.0), 1.0)


def purity(rho: DensityOperator) -> float:
    """trace(rho^2), equal to 1 exactly for pure states."""
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))


def to_pure(rho: DensityOperator) -> PureState:
    """Extract the state vector from a (numerically) rank-one density operator.

    Its top eigenvalue must be at least 1 - 1e-8.  The dominant eigenvector
    is phase-canonicalized so that its largest amplitude is real and
    positive, which keeps downstream reports stable.
    """
    vals, vecs = np.linalg.eigh(rho.matrix)
    top = float(vals[-1])
    if top < 1.0 - 1e-8:
        raise ValueError(f"density operator is not pure (top eigenvalue {top!r})")
    vec = _phase_canonical(vecs[:, -1])
    return PureState(rho.dims, vec / np.linalg.norm(vec))
