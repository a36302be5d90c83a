"""Independent oracles the test suite checks the package against.

Everything here is deliberately written the slow, obvious way -- explicit
index loops, no code shared with the package -- so the fast implementations
have something honest to disagree with.  ``loop_postselect_levels`` and the
protocol oracles at the end are the exception: they call the package's
kernels and builders, but none of the postselection or copy-chain code they
are compared with.  ``loop_merge_chain_to_ghz`` is the chain merge in its
branch-by-branch form: it calls ``measure``, ``contract_party`` and
``apply_local_unitary`` once per branch and step, where the package fuses a
stack of branches with one Kraus product per pair; ``row_merge_chain_to_ghz``
makes the same calls one row at a time in the package's own fusion order.  ``dense_negativity`` is the package's
former negativity: it diagonalizes the whole partial transpose, where the
package diagonalizes only its support; ``masked_negativity`` forms the whole
partial transpose and cuts it down to its nonzero rows and columns, where the
package gathers that block from the state's nonzero entries.  ``loop_run_sigma_adaptive``,
``loop_sigma_tree`` and ``loop_prop1_tree`` are the sigma runner and the
sigma/prop1 trees with their own state builds and measurements, and
``oracle_main`` runs the command-line handlers that each wrote their own
manifest and artifact, parsed by ``loop_build_parser``, which declares every
flag of every subcommand by hand where the package builds its parser from one
table; all of them call the package's other code.
``loop_prop2_terms`` and ``loop_prop3_terms`` place each pair and flag level
of the prop2/prop3 mixtures by hand, where the package derives every term
from one chain rule; the prop2/prop3 run and tree oracles mix them.
``loop_svetlichny_value`` is the three-qubit nonlocality functional with its
eight correlators written out, where the package derives the signs of all
2**n correlators from one rule.  ``oracle_load_state_file`` reads a state
file with ``json.load`` and ``state_from_payload`` alone, where the package
reads plain-number pair arrays from the file's bytes.  ``loop_sample_leaves``
and ``loop_sigma_scan`` draw every shot's outcome with NumPy's own
``Generator.choice`` and ``Generator.geometric``, where the package counts
the underlying uniform or exponential draws against cumulative thresholds.
``loop_twirl_to_isotropic`` forms each Clifford's U (x) conj(U) and conjugates
by it on its own, where the package conjugates by a cached stack of all 24 in
one product; ``loop_recurrence_round`` applies each side's CNOT through
``apply_local_unitary`` and builds its target-pair measurement per call, where
the package gathers the joint matrix by the bilateral CNOT's permutation.
``loop_teleport`` applies each Bell outcome's Pauli as a 2x2 matrix through
``apply_local_unitary`` and ``isometry_relabel_subspace`` contracts a 0/1
isometry, where the package moves and negates amplitudes by index.
``loop_render_json`` and ``loop_render_compact`` are the canonical JSON
renderer as one ``isinstance`` chain, where the package dispatches on the
exact type first; ``oracle_main`` writes its artifacts with them.
"""

import argparse
import itertools
import json
import math
import sys

import numpy as np

from gmesim import __version__
from gmesim.cli import (
    _BUILTIN_NAMES,
    DEFAULT_SHOTS,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_USAGE,
    SCHEMA_VERSION,
    _load_input_state,
    _parse_floats,
    _parse_schmidt,
    _parse_weights,
    certificate_payload,
    format_float,
    mc_payload,
    resolve_seed,
    resolve_timestamp,
    run_report_payload,
    state_from_payload,
)
from gmesim.distill import _single_qubit_cliffords, distill_pipeline
from gmesim.entanglement import (
    SVETLICHNY_CLASSICAL_BOUND,
    SVETLICHNY_QUANTUM_BOUND,
    _check_observable,
    certify_entangled_all_cuts,
    certify_gme_pure,
    equatorial_observable,
    partial_transpose,
)
from gmesim.protocols import (
    _MINUS,
    _PLUS,
    PARITY_ANTI,
    PARITY_CORRELATED,
    BranchStat,
    MergeBranch,
    MergeResult,
    MonteCarloSummary,
    ProtocolConfig,
    ProtocolReport,
    ScanRow,
    StepRecord,
    _sample_merge,
    analytic_Pn,
    build_prop1_example,
    build_prop1_general,
    build_sigma,
    build_sigma_prime,
    chain_leaves,
    copy_chain,
    distribute_via_teleportation,
    normalize_schmidt,
    replay_chain,
    run_prop1_step,
    sample_leaves,
    sigma_scan,
)
from gmesim.protocols import _sample_index as _sample_probabilities
from gmesim.qcore import (
    ATOL,
    PRUNE_ATOL,
    DensityOperator,
    InvariantError,
    MeasurementOutcome,
    PartyDims,
    ProjectiveMeasurement,
    PureState,
    _SUPPORT_ROWS,
    _hermitian_part,
    _integer,
    _min_eigenvalue,
    _phase_canonical,
    _require_finite,
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
    relabel_subspace,
    state_projector_measurement,
    tensor,
    to_pure,
)

# ---------------------------------------------------------------------------
# canonical JSON text, one isinstance chain per value


def _loop_is_scalar(obj) -> bool:
    return obj is None or isinstance(obj, (bool, str, int, float, np.integer))


def loop_render(obj, indent: int) -> str:
    """``cli._render``: the text of ``obj`` nested ``indent`` spaces deep."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, float):
        value = float(obj)
        if not math.isfinite(value):
            raise ValueError("cannot serialize non-finite numbers")
        if value == 0.0 and math.copysign(1.0, value) < 0:
            return "-0.0"  # JSON reads "-0" as the integer 0
        return format(value, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            return "[]"
        if all(_loop_is_scalar(i) for i in items):
            return "[" + ", ".join(loop_render(i, 0) for i in items) + "]"
        inner = ",\n".join(pad + "  " + loop_render(i, indent + 2) for i in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": " + loop_render(v, indent + 2)
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__} values")


def loop_render_json(obj) -> str:
    return loop_render(obj, 0) + "\n"


def loop_render_compact(obj) -> str:
    """The one-line form of the csv manifest."""
    if isinstance(obj, dict):
        return "{" + ",".join(
            json.dumps(str(k)) + ":" + loop_render_compact(v) for k, v in obj.items()
        ) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(loop_render_compact(i) for i in obj) + "]"
    return loop_render(obj, 0)


def loop_csv_artifact(manifest: dict, rows: list) -> str:
    """``cli._artifact(manifest, {"rows": rows}, "csv")``."""
    lines = ["# manifest: " + loop_render_compact(manifest), ",".join(rows[0])]
    lines += [",".join(loop_render(value, 0) for value in row.values()) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# linear algebra by loops


def kron_all(mats):
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def bell_vec(kind: str) -> np.ndarray:
    s = 1.0 / math.sqrt(2.0)
    table = {
        "phi+": [s, 0.0, 0.0, s],
        "phi-": [s, 0.0, 0.0, -s],
        "psi+": [0.0, s, s, 0.0],
        "psi-": [0.0, s, -s, 0.0],
    }
    return np.array(table[kind], dtype=complex)


def ghz_vec(n: int) -> np.ndarray:
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1.0 / math.sqrt(2.0)
    return v


# ---------------------------------------------------------------------------
# element-loop density-operator arithmetic
# ---------------------------------------------------------------------------


def loop_partial_trace(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out everything not in ``keep``, one matrix element at a time."""
    n = len(dims)
    keep = sorted(keep)
    drop = [i for i in range(n) if i not in keep]
    keep_dims = [dims[i] for i in keep]
    drop_dims = [dims[i] for i in drop]
    dk = int(np.prod(keep_dims)) if keep else 1

    def flat(levels):
        idx = 0
        for i in range(n):
            idx = idx * dims[i] + levels[i]
        return idx

    out = np.zeros((dk, dk), dtype=complex)
    for rk, row_levels in enumerate(itertools.product(*[range(d) for d in keep_dims])):
        for ck, col_levels in enumerate(itertools.product(*[range(d) for d in keep_dims])):
            acc = 0.0 + 0.0j
            for t in itertools.product(*[range(d) for d in drop_dims]):
                row = [0] * n
                col = [0] * n
                for i, v in zip(keep, row_levels):
                    row[i] = v
                for i, v in zip(keep, col_levels):
                    col[i] = v
                for i, v in zip(drop, t):
                    row[i] = v
                    col[i] = v
                acc += rho[flat(row), flat(col)]
            out[rk, ck] = acc
    return out


def loop_partial_transpose(rho: np.ndarray, dims, transposed) -> np.ndarray:
    """Transpose the listed parties by explicit index bookkeeping."""
    n = len(dims)
    d = int(np.prod(dims))

    def levels(idx):
        out = []
        for dim in reversed(dims):
            out.append(idx % dim)
            idx //= dim
        return list(reversed(out))

    def flat(lv):
        idx = 0
        for i in range(n):
            idx = idx * dims[i] + lv[i]
        return idx

    out = np.zeros((d, d), dtype=complex)
    for r in range(d):
        for c in range(d):
            row = levels(r)
            col = levels(c)
            for t in transposed:
                row[t], col[t] = col[t], row[t]
            out[flat(row), flat(col)] = rho[r, c]
    return out


def loop_negativity(rho: np.ndarray, dims, left) -> float:
    pt = loop_partial_transpose(rho, dims, sorted(left))
    vals = np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)
    return float(sum(-v for v in vals if v < 0.0))


def dense_negativity(rho: DensityOperator, cut) -> float:
    """Negativity from ``eigvalsh`` of the full partial transpose, zero rows and all."""
    pt = partial_transpose(rho, cut)
    vals = np.linalg.eigvalsh(_hermitian_part(pt, 2.0))
    return float(-np.sum(vals[vals < 0.0])) + 0.0  # avoid IEEE -0.0


def masked_negativity(rho: DensityOperator, cut) -> float:
    """Negativity from the full partial transpose, cut down to its nonzero rows and columns."""
    pt = partial_transpose(rho, cut)
    nonzero = pt != 0
    live = nonzero.any(0) | nonzero.any(1)
    if not live.all():
        idx = np.flatnonzero(live)
        pt = pt[np.ix_(idx, idx)]
    vals = np.linalg.eigvalsh(_hermitian_part(pt, 2.0))
    return float(-np.sum(vals[vals < 0.0])) + 0.0  # avoid IEEE -0.0


def loop_embed(op: np.ndarray, targets, dims) -> np.ndarray:
    """Lift an operator on ``targets`` to the full space, element by element."""
    n = len(dims)
    d = int(np.prod(dims))
    t_dims = [dims[t] for t in targets]

    def levels(idx, ds):
        out = []
        for dim in reversed(ds):
            out.append(idx % dim)
            idx //= dim
        return list(reversed(out))

    def flat(lv, ds):
        idx = 0
        for i in range(len(ds)):
            idx = idx * ds[i] + lv[i]
        return idx

    out = np.zeros((d, d), dtype=complex)
    for r in range(d):
        rl = levels(r, dims)
        for c in range(d):
            cl = levels(c, dims)
            for i in range(n):
                if i not in targets and rl[i] != cl[i]:
                    break
            else:
                tr = flat([rl[t] for t in targets], t_dims)
                tc = flat([cl[t] for t in targets], t_dims)
                out[r, c] = op[tr, tc]
    return out


def loop_svetlichny_value(state: PureState, settings) -> float:
    """The three-qubit functional with its eight correlators written out."""
    if state.dims.dims != (2, 2, 2):
        raise ValueError("the functional is defined for three qubits")
    if len(settings) != 6:
        raise ValueError("six settings are required: A, A', B, B', C, C'")
    names = ("A", "A'", "B", "B'", "C", "C'")
    a0, a1, b0, b1, c0, c1 = (
        _check_observable(o, n) for o, n in zip(settings, names)
    )
    psi = state.amplitudes

    def corr(x, y, z) -> float:
        op = np.kron(np.kron(x, y), z)
        return float(np.real(np.vdot(psi, op @ psi)))

    value = (
        corr(a0, b0, c0)
        + corr(a0, b0, c1)
        + corr(a0, b1, c0)
        - corr(a0, b1, c1)
        + corr(a1, b0, c0)
        - corr(a1, b0, c1)
        - corr(a1, b1, c0)
        - corr(a1, b1, c1)
    )
    return value


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def recurrence_map(f: float) -> float:
    """Post-selected fidelity of one two-copy purification round."""
    e = (1.0 - f) / 3.0
    return (f * f + e * e) / (f * f + 2.0 * f * e + 5.0 * e * e)


def recurrence_accept_prob(f: float) -> float:
    e = (1.0 - f) / 3.0
    return f * f + 2.0 * f * e + 5.0 * e * e


def merge_branch_amplitudes(coeff_pairs, parity_pattern):
    """Unnormalized GHZ-component amplitudes of one merge parity branch.

    ``coeff_pairs`` lists (a_j, b_j) per pair in chain order; the prefix-xor
    of the parity outcomes says which coefficient each pair contributes.
    Returns (alpha0, alpha1, branch_probability_per_sign_outcome).
    """
    d = [0]
    for o in parity_pattern:
        d.append(d[-1] ^ o)
    alpha0 = 1.0
    alpha1 = 1.0
    for (a, b), dj in zip(coeff_pairs, d):
        alpha0 *= b if dj else a
        alpha1 *= a if dj else b
    signs = 2 ** len(parity_pattern)
    return alpha0, alpha1, (alpha0**2 + alpha1**2) / signs


# ---------------------------------------------------------------------------
# random test states
# ---------------------------------------------------------------------------


def random_pure(dims, rng) -> np.ndarray:
    d = int(np.prod(dims))
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_density(dims, rng, rank=None) -> np.ndarray:
    d = int(np.prod(dims))
    rank = d if rank is None else rank
    rho = np.zeros((d, d), dtype=complex)
    w = rng.random(rank)
    w /= w.sum()
    for k in range(rank):
        v = random_pure(dims, rng)
        rho += w[k] * np.outer(v, v.conj())
    return rho


def random_unitary(dim, rng) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian matrix, phases fixed."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unit_trace_hermitian(dims, rng, lambda_min: float, multiplicity: int = 1) -> np.ndarray:
    """Hermitian unit-trace matrix whose smallest eigenvalue is ``lambda_min``.

    ``multiplicity`` eigenvalues equal ``lambda_min``; the rest are positive,
    well above it, and make the trace one.  The eigenbasis is a random
    unitary, so no entry is special.
    """
    d = int(np.prod(dims))
    u = random_unitary(d, rng)
    rest = rng.random(d - multiplicity) + 0.5
    rest *= (1.0 - multiplicity * lambda_min) / rest.sum()
    spectrum = np.concatenate([np.full(multiplicity, lambda_min), rest])
    h = (u * spectrum) @ u.conj().T
    return (h + h.conj().T) / 2.0


# ---------------------------------------------------------------------------
# validation oracles
# ---------------------------------------------------------------------------


def eig_min_hermitian_part(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of (M + M^dagger)/2, from the full spectrum."""
    m = np.asarray(matrix, dtype=complex)
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])


def eig_psd_accepts(matrix: np.ndarray, atol: float) -> bool:
    """The PSD verdict of a full eigendecomposition: lambda_min >= -atol."""
    return eig_min_hermitian_part(matrix) >= -atol


def dense_density_checks(dims, matrix: np.ndarray) -> None:
    """``DensityOperator``'s checks on the whole D x D matrix, raising what it raises.

    Finiteness and the Hermiticity residual read every entry here; from
    ``_SUPPORT_ROWS`` rows on, when the diagonal holds a zero, the library
    reads only the rows and columns that hold a nonzero entry.
    """
    mat = np.array(matrix, dtype=complex)
    d = mat.shape[0]
    where = f"density operator on dims {tuple(dims)}"
    _require_finite(mat, f"{where}: matrix")
    adj = np.conj(mat.T, order="C")
    herm = float(np.max(np.abs(mat - adj)))
    if herm > ATOL:
        raise ValueError(
            f"{where}: matrix is not Hermitian, max |rho - rho^dagger| = {herm:.3e} "
            f"exceeds {ATOL:g}"
        )
    tr = complex(np.trace(mat))
    if abs(tr - 1.0) > ATOL:
        raise ValueError(f"{where}: trace is {tr!r}, expected 1 within {ATOL:g}")
    adj += mat
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


# ---------------------------------------------------------------------------
# state-file oracles: the per-item forms of the cli's pair conversions


def loop_pairs_to_array(pairs, expected: int, what: str) -> np.ndarray:
    if not isinstance(pairs, list) or len(pairs) != expected:
        raise ValueError(f"{what} must be a list of {expected} [re, im] pairs")
    out = np.empty(expected, dtype=complex)
    for i, pair in enumerate(pairs):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"{what}[{i}] is not an [re, im] pair")
        out[i] = complex(float(pair[0]), float(pair[1]))
    return out


def loop_complex_pairs(values) -> list[list[float]]:
    flat = np.asarray(values, dtype=complex).reshape(-1)
    return [[float(v.real), float(v.imag)] for v in flat]


def oracle_load_state_file(path):
    """The state file through ``json.load``, every pair through ``state_from_payload``."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return state_from_payload(data)


# ---------------------------------------------------------------------------
# distillation oracles: one conjugation, one operator, one measurement at a time
# ---------------------------------------------------------------------------

_LOOP_CNOT = np.zeros((4, 4), dtype=complex)
_LOOP_CNOT[0, 0] = _LOOP_CNOT[1, 1] = _LOOP_CNOT[2, 3] = _LOOP_CNOT[3, 2] = 1.0


def loop_twirl_to_isotropic(rho: DensityOperator) -> DensityOperator:
    """``distill.twirl_to_isotropic`` with one kron and two 4x4 products per Clifford."""
    if rho.dims.dims != (2, 2):
        raise ValueError("the twirl is defined for two qubits")
    cliffords = _single_qubit_cliffords()
    acc = np.zeros((4, 4), dtype=complex)
    for u in cliffords:
        big = np.kron(u, u.conj())
        acc += big @ rho.matrix @ big.conj().T
    acc /= len(cliffords)
    return DensityOperator(rho.dims, _hermitian_part(acc, 2.0))


def loop_recurrence_round(rho: DensityOperator) -> tuple[float, DensityOperator]:
    """``distill.recurrence_round`` with each side's CNOT applied as a unitary
    and the target-pair measurement built for the call."""
    if rho.dims.dims != (2, 2):
        raise ValueError("the recurrence round is defined for two-qubit pairs")
    joint = tensor(rho, rho)  # parties: A1 B1 A2 B2
    joint = apply_local_unitary(joint, _LOOP_CNOT, (0, 2))
    joint = apply_local_unitary(joint, _LOOP_CNOT, (1, 3))
    projs = []
    for k in range(4):
        v = np.zeros(4, dtype=complex)
        v[k] = 1.0
        projs.append(np.outer(v, v.conj()))
    outcomes = measure(joint, ProjectiveMeasurement((2, 3), tuple(projs)), keep=(0, 3))
    kept = [outcomes[0], outcomes[3]]  # equal measurement results: 00 and 11
    accept = sum(o.probability for o in kept)
    if accept <= ATOL:
        raise ValueError("recurrence round accepted with negligible probability")
    post = mix(
        [(o.probability / accept, o.post_state) for o in kept if o.post_state is not None]
    )
    return accept, partial_trace(post, (2, 3))


# ---------------------------------------------------------------------------
# protocol oracles
def loop_postselect_levels(terms, steps, discard):
    """``qcore.postselect_levels`` the dense way: mix, measure step by step, trace."""
    state = mix(terms)
    path = []
    for party, groups, accept in steps:
        meas = level_group_measurement(party, state.dims.dims[party], groups)
        outs = measure(state, meas, keep=(accept,))
        path.append(tuple(out.probability for out in outs))
        state = outs[accept].post_state
        if state is None:
            return tuple(path), None
    return tuple(path), partial_trace(state, discard)


# ---------------------------------------------------------------------------
# The prop2/prop3 runners and exact branch trees in their measure-as-you-go
# form: each builds its own state and measures every copy itself, sharing
# nothing with the package's copy chain (only its kernels and builders).


def _sample_index(rng: np.random.Generator, outcomes: list[MeasurementOutcome]) -> int:
    u = float(rng.random())
    acc = 0.0
    last_live = 0
    for out in outcomes:
        if out.probability > 0.0:
            last_live = out.outcome_index
        acc += out.probability
        if u < acc:
            return out.outcome_index
    return last_live


_QUTRIT_SPLIT = [[0], [1, 2]]  # flag level versus the entangled block
_QUQUART_SPLIT = [[0], [1], [2, 3]]


def _two_party_schmidt_state(coeffs, dim: int) -> PureState:
    amps = np.zeros(dim * dim, dtype=complex)
    for i, c in enumerate(coeffs):
        amps[i * dim + i] = c
    return PureState((dim, dim), amps)


def loop_prop2_terms(schmidt_coeffs, p: float):
    """The prop2 mixture's two terms, each pair and flag placed by hand."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    coeffs = tuple(float(c) for c in schmidt_coeffs)
    if len(coeffs) != 3 or any(c <= 0 for c in coeffs):
        raise ValueError("three positive Schmidt coefficients are required")
    if abs(sum(c * c for c in coeffs) - 1.0) > ATOL:
        raise ValueError("squared Schmidt coefficients must sum to 1")
    psi = _two_party_schmidt_state(coeffs, 3)
    zero = basis_ket((3,), (0,))
    return [(p, tensor(psi, zero)), (1.0 - p, tensor(zero, psi))]


def loop_prop3_terms(schmidt_coeffs, weights):
    """The prop3 mixture's three terms, each pair and flag placed by hand."""
    coeffs = tuple(float(c) for c in schmidt_coeffs)
    if len(coeffs) != 4 or any(c <= 0 for c in coeffs):
        raise ValueError("four positive Schmidt coefficients are required")
    if abs(sum(c * c for c in coeffs) - 1.0) > ATOL:
        raise ValueError("squared Schmidt coefficients must sum to 1")
    w = tuple(float(x) for x in weights)
    if len(w) != 3 or any(x <= 0 for x in w):
        raise ValueError("three positive weights are required")
    if abs(sum(w) - 1.0) > ATOL:
        raise ValueError("weights must sum to 1")
    psi = _two_party_schmidt_state(coeffs, 4)
    zero = basis_ket((4,), (0,))
    one = basis_ket((4,), (1,))
    return [
        (w[0], tensor(tensor(psi, zero), zero)),
        (w[1], tensor(tensor(zero, psi), one)),
        (w[2], tensor(tensor(one, one), psi)),
    ]


def _prop2_pair(post: DensityOperator, traced_party: int) -> PureState:
    pair = to_pure(partial_trace(post, {traced_party}))
    pair = relabel_subspace(pair, 0, {1: 0, 2: 1}, 2)
    return relabel_subspace(pair, 1, {1: 0, 2: 1}, 2)


def loop_run_prop2(
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
    coeffs = config.coeffs_or_uniform(3)
    rho = mix(loop_prop2_terms(coeffs, config.p))
    rng = np.random.default_rng(config.seed) if rng is None else rng
    block = coeffs[1] ** 2 + coeffs[2] ** 2
    analytic = (1.0 - config.p) * block * config.p * block
    steps: list[StepRecord] = []

    outs_c = measure(rho, level_group_measurement(2, 3, _QUTRIT_SPLIT))
    idx = 1 if postselect_success else _sample_index(rng, outs_c)
    steps.append(
        StepRecord(1, "C", "split {flag level 0} vs {levels 1,2} on C", idx,
                   outs_c[idx].probability, idx == 1)
    )
    if idx != 1:
        return ProtocolReport("prop2", config, tuple(steps), 1, False, analytic)
    pair_bc = _prop2_pair(outs_c[1].post_state, 0)

    outs_a = measure(rho, level_group_measurement(0, 3, _QUTRIT_SPLIT))
    idx = 1 if postselect_success else _sample_index(rng, outs_a)
    steps.append(
        StepRecord(2, "A", "split {flag level 0} vs {levels 1,2} on A", idx,
                   outs_a[idx].probability, idx == 1)
    )
    if idx != 1:
        return ProtocolReport("prop2", config, tuple(steps), 2, False, analytic)
    pair_ab = _prop2_pair(outs_a[1].post_state, 2)

    merged = loop_merge_chain_to_ghz([pair_ab, pair_bc])
    probs = np.array([b.probability for b in merged.branches])
    bidx = int(rng.choice(len(merged.branches), p=probs / probs.sum()))
    branch = merged.branches[bidx]
    steps.append(
        StepRecord(2, "B", "pair merge: parity then +/- readout at B", bidx,
                   branch.probability, True)
    )
    final = branch.state
    _, certificates = certify_gme_pure(final)
    return ProtocolReport("prop2", config, tuple(steps), 2, True, analytic, final, certificates)


def _prop3_pair(post: DensityOperator, traced: tuple[int, int]) -> PureState:
    pair = to_pure(partial_trace(post, set(traced)))
    pair = relabel_subspace(pair, 0, {2: 0, 3: 1}, 2)
    return relabel_subspace(pair, 1, {2: 0, 3: 1}, 2)


def loop_run_prop3(
    config: ProtocolConfig, rng: np.random.Generator | None = None, postselect_success: bool = False
) -> ProtocolReport:
    """Three-copy activation on four ququarts.

    Each copy is interrogated by two parties with the three-outcome split
    {|0>}, {|1>}, {levels 2,3}; only double top-block outcomes are kept.
    Copy one leaves a C-D pair, copy two an A-B pair, copy three a B-C pair.
    The three pairs, relabeled onto qubits, are merged along the chain
    A-B-C-D into a four-party GHZ-class state.
    """
    coeffs = config.coeffs_or_uniform(4)
    rho = mix(loop_prop3_terms(coeffs, config.weights))
    rng = np.random.default_rng(config.seed) if rng is None else rng
    block = coeffs[2] ** 2 + coeffs[3] ** 2
    w = config.weights
    analytic = w[0] * w[1] * w[2] * block**3
    steps: list[StepRecord] = []

    plan = [  # copy index, (first measuring party, second), parties traced out
        (1, (2, 3), (0, 1)),
        (2, (0, 1), (2, 3)),
        (3, (1, 2), (0, 3)),
    ]
    letters = "ABCD"
    pairs: dict[int, PureState] = {}
    for copy_index, (first, second), traced in plan:
        state: DensityOperator | None = rho
        for party in (first, second):
            outs = measure(state, level_group_measurement(party, 4, _QUQUART_SPLIT))
            idx = 2 if postselect_success else _sample_index(rng, outs)
            steps.append(
                StepRecord(copy_index, letters[party],
                           "split {0} / {1} / {2,3} on " + letters[party], idx,
                           outs[idx].probability, idx == 2)
            )
            if idx != 2:
                return ProtocolReport(
                    "prop3", config, tuple(steps), copy_index, False, analytic
                )
            state = outs[2].post_state
        pairs[copy_index] = _prop3_pair(state, traced)

    merged = loop_merge_chain_to_ghz([pairs[2], pairs[3], pairs[1]])  # A-B, B-C, C-D
    probs = np.array([b.probability for b in merged.branches])
    bidx = int(rng.choice(len(merged.branches), p=probs / probs.sum()))
    branch = merged.branches[bidx]
    steps.append(
        StepRecord(3, "BC", "chain merge: parity then +/- readout at B and C", bidx,
                   branch.probability, True)
    )
    final = branch.state
    _, certificates = certify_gme_pure(final)
    return ProtocolReport(
        "prop3", config, tuple(steps), 3, True, analytic, final, certificates
    )


def loop_prop2_tree(config: ProtocolConfig):
    coeffs = config.coeffs_or_uniform(3)
    rho = mix(loop_prop2_terms(coeffs, config.p))
    q1 = measure(rho, level_group_measurement(2, 3, _QUTRIT_SPLIT))[1].probability
    q2 = measure(rho, level_group_measurement(0, 3, _QUTRIT_SPLIT))[1].probability
    return [
        ("reject@copy1", 1.0 - q1, False, 1),
        ("accept@copy1,reject@copy2", q1 * (1.0 - q2), False, 2),
        ("accept@copy1,accept@copy2", q1 * q2, True, 2),
    ]


def loop_prop3_tree(config: ProtocolConfig):
    coeffs = config.coeffs_or_uniform(4)
    rho = mix(loop_prop3_terms(coeffs, config.weights))
    plan = [(1, (2, 3)), (2, (0, 1)), (3, (1, 2))]
    letters = "ABCD"
    leaves = []
    prefix_prob = 1.0
    state: DensityOperator = rho
    path = []
    for copy_index, parties in plan:
        for party in parties:
            outs = measure(state, level_group_measurement(party, 4, _QUQUART_SPLIT))
            accept = outs[2].probability
            reject = 1.0 - accept
            label = ",".join(path + [f"reject@{letters[party]}{copy_index}"])
            leaves.append((label, prefix_prob * reject, False, copy_index))
            path.append(f"accept@{letters[party]}{copy_index}")
            prefix_prob *= accept
            state = outs[2].post_state
        state = rho  # next copy is fresh
    leaves.append((",".join(path), prefix_prob, True, 3))
    return leaves


def loop_sigma_scan(p_list, n_max: int, shots: int, seed: int) -> list[ScanRow]:
    """``sigma_scan`` with one pass over the draws per repeat budget n."""
    children = np.random.SeedSequence(int(seed)).spawn(len(p_list))
    rows = []
    for p, child in zip(p_list, children):
        rho = build_sigma(p)
        rate = measure(rho, level_group_measurement(2, 3, [[0, 1], [2]]))[0].probability
        trials = np.random.default_rng(child).geometric(rate, size=int(shots))
        for n in range(n_max + 1):
            empirical = 0.0 if n == 0 else float(np.mean(trials <= n))
            rows.append(ScanRow(p, n, analytic_Pn(p, n), empirical))
    return rows


def loop_sample_leaves(protocol: str, leaves, shots: int, seed: int) -> MonteCarloSummary:
    """``sample_leaves`` with one ``rng.choice`` outcome per shot, tallied by ``bincount``."""
    if shots < 1:
        raise ValueError("shots must be a positive integer")
    probs = np.array([p for _, p, _, _ in leaves], dtype=float)
    total = probs.sum()
    if abs(total - 1.0) > ATOL:
        raise InvariantError(
            f"sampling the {protocol} tree: {len(leaves)} leaf probabilities sum to "
            f"{float(total)!r}, residual {total - 1.0:.3e} exceeds {ATOL:g}"
        )
    rng = np.random.default_rng(seed)
    draws = rng.choice(len(leaves), size=shots, p=probs / total)
    counts = np.bincount(draws, minlength=len(leaves))
    stats = tuple(
        BranchStat(label, float(prob), float(c) / shots, success, copies)
        for (label, prob, success, copies), c in zip(leaves, counts)
    )
    success_rate = float(sum(s.frequency for s in stats if s.success))
    exact = float(sum(s.probability for s in stats if s.success))
    mean_copies = float(sum(s.frequency * s.copies for s in stats))
    return MonteCarloSummary(protocol, shots, seed, stats, success_rate, exact, mean_copies)


_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_LOOP_BELL_CORRECTIONS = (np.eye(2, dtype=complex), _Z, _X, _Z @ _X)


def loop_teleport(
    state: PureState, input_party: int, resource: PureState, outcome: int | None = None
) -> PureState:
    """``protocols.teleport`` with each Bell outcome's Pauli applied as a 2x2
    matrix through ``apply_local_unitary``."""
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
    joint = tensor(state, resource)
    basis = bell_basis()
    outs = measure(joint, ProjectiveMeasurement(
        (input_party, n), tuple(np.outer(v, v.conj()) for v in basis)))
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
        post = apply_local_unitary(out.post_state, _LOOP_BELL_CORRECTIONS[k], (n + 1,))
        post = contract_party(post, (input_party, n), basis[k])
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


def isometry_relabel_subspace(state: PureState, party: int, basis_map: dict,
                              new_dim: int) -> PureState:
    """``qcore.relabel_subspace`` as a 0/1 isometry contracted by ``np.tensordot``."""
    if not isinstance(state, PureState):
        raise ValueError("relabel_subspace operates on pure states")
    party = _integer(party, "party index", stop=state.dims.n)
    old_dim = state.dims.dims[party]
    new_dim = _integer(new_dim, "new dimension")
    if new_dim < 2:
        raise ValueError("new dimension must be >= 2")
    items = [(_integer(a, "source level", stop=old_dim, of="levels"),
              _integer(b, "target level", stop=new_dim, of="levels")) for a, b in basis_map.items()]
    if len({b for _, b in items}) != len(items):
        raise ValueError("basis map must be injective")
    mapped = {a for a, _ in items}
    unmapped = [lv for lv in range(old_dim) if lv not in mapped]
    isometry = np.zeros((new_dim, old_dim), dtype=complex)
    for a, b in items:
        isometry[b, a] = 1.0
    new_dims = PartyDims(
        tuple(new_dim if i == party else d for i, d in enumerate(state.dims.dims))
    )
    t = state.tensor_view()
    if unmapped:
        lost = float(np.sum(np.abs(np.take(t, unmapped, axis=party)) ** 2))
        if lost > PRUNE_ATOL:
            raise ValueError(
                f"population {lost!r} outside the relabeled subspace on party {party}"
            )
    out = np.moveaxis(np.tensordot(isometry, t, axes=([1], [party])), 0, party)
    return PureState(new_dims, out.reshape(-1))


def _canonical_phase(state: PureState) -> PureState:
    amps = _phase_canonical(state.amplitudes)
    return PureState(state.dims, amps)


def _schmidt_align_pair(pair: PureState) -> tuple[PureState, tuple[float, float], tuple]:
    """One pair's own SVD: its Schmidt form a|00> + b|11>, (a, b) and the alignment unitaries."""
    u, svals, vh = np.linalg.svd(pair.tensor_view())
    a, b = float(svals[0]), float(svals[1])
    if b <= ATOL:
        raise ValueError("merging needs entangled pairs, got a product state")
    aligned = PureState(PartyDims((2, 2)), np.diag([a, b]).reshape(-1))
    return aligned, (a, b), (u.conj().T, vh.conj())


#: The merge's measurements on one party, placed on its qubits by each caller: the
#: parity of its two qubits, then the |+>/|-> readout of the first.
PARITY = ProjectiveMeasurement((0, 1), (PARITY_CORRELATED, PARITY_ANTI))
READOUT = ProjectiveMeasurement((0,), tuple(np.outer(v, v.conj()) for v in (_PLUS, _MINUS)))


def loop_merge_chain_to_ghz(pairs) -> MergeResult:
    """``protocols.merge_chain_to_ghz`` one branch and one step at a time."""
    pairs = list(pairs)
    if len(pairs) < 2:
        raise ValueError("merging needs at least two pairs in the chain")
    aligned, coeffs, alignments = [], [], []
    for j, pair in enumerate(pairs):
        if not isinstance(pair, PureState) or pair.dims.dims != (2, 2):
            raise ValueError(f"pair {j} is not a two-qubit pure state")
        st, ab, uv = _schmidt_align_pair(pair)
        aligned.append(st)
        coeffs.append(ab)
        alignments.append(uv)

    m = len(pairs)
    joint = aligned[0]
    for st in aligned[1:]:
        joint = tensor(joint, st)

    # stage 1: parity measurements at every internal party
    parity_meas = [ProjectiveMeasurement((2 * i - 1, 2 * i), PARITY.projectors)
                   for i in range(1, m)]
    stage1: list[tuple[tuple[int, ...], float, PureState]] = [((), 1.0, joint)]
    for meas in parity_meas:
        nxt = []
        for pattern, prob, state in stage1:
            for out in measure(state, meas):
                if out.post_state is None:
                    continue
                nxt.append((pattern + (out.outcome_index,), prob * out.probability, out.post_state))
        stage1 = nxt

    # stage 2: |+>/|-> readout of each internal party's first qubit
    sign_meas = [ProjectiveMeasurement((2 * i - 1,), READOUT.projectors) for i in range(1, m)]
    branches = []
    for parity_pattern, parity_prob, state in stage1:
        stage2: list[tuple[tuple[int, ...], float, PureState]] = [((), parity_prob, state)]
        for meas in sign_meas:
            nxt = []
            for pattern, prob, st in stage2:
                for out in measure(st, meas):
                    if out.post_state is None:
                        continue
                    nxt.append(
                        (pattern + (out.outcome_index,), prob * out.probability, out.post_state)
                    )
            stage2 = nxt

        # parity prefix decides which parties need a bit flip
        flips = [0]
        for o in parity_pattern:
            flips.append(flips[-1] ^ o)

        for sign_pattern, prob, st in stage2:
            # drop the measured qubits (descending axis order keeps indices valid)
            for i in range(m - 1, 0, -1):
                vec = _MINUS if sign_pattern[i - 1] else _PLUS
                st = contract_party(st, 2 * i - 1, vec)
            corrections = []
            for t in range(1, m + 1):
                if flips[min(t, m - 1)]:
                    st = apply_local_unitary(st, _X, (t,))
                    corrections.append(f"X@{t}")
            if sum(sign_pattern) % 2 == 1:
                st = apply_local_unitary(st, _Z, (0,))
                corrections.append("Z@0")
            branches.append(
                MergeBranch(
                    parity_pattern,
                    sign_pattern,
                    prob,
                    _canonical_phase(st),
                    tuple(corrections),
                )
            )

    total = sum(b.probability for b in branches)
    if abs(total - 1.0) > ATOL:
        raise InvariantError(
            f"merge of {m} pairs: {len(branches)} branch probabilities sum to {total!r}, "
            f"residual {total - 1.0:.3e} exceeds {ATOL:g}"
        )
    return MergeResult(tuple(branches), tuple(coeffs), tuple(alignments))


def row_merge_chain_to_ghz(pairs) -> MergeResult:
    """``protocols.merge_chain_to_ghz`` in its fusion order, one row and one call at a time.

    Each live row of a fusion stage is a ``PureState``: pair j is tensored on
    with ``tensor``, party j's parity and |+>/|-> readout are two ``measure``
    calls, the read-out qubit goes with ``contract_party``, and once the
    branches are sorted parity-major each one is corrected by
    ``apply_local_unitary`` and phase-fixed on its own.
    """
    aligned, coeffs, alignments = [], [], []
    for pair in pairs:
        st, ab, uv = _schmidt_align_pair(pair)
        aligned.append(st)
        coeffs.append(ab)
        alignments.append(uv)
    m = len(pairs)
    rows = [((), 1.0, aligned[0])]
    for j in range(1, m):
        fused = []
        for pattern, prob, state in rows:
            state = tensor(state, aligned[j])
            for out in measure(state, ProjectiveMeasurement((j, j + 1), PARITY.projectors)):
                if out.post_state is None:
                    continue
                for sign in measure(out.post_state, ProjectiveMeasurement((j,), READOUT.projectors)):
                    if sign.post_state is None:
                        continue
                    ref = _MINUS if sign.outcome_index else _PLUS
                    fused.append((
                        pattern + (out.outcome_index, sign.outcome_index),
                        prob * out.probability * sign.probability,
                        contract_party(sign.post_state, j, ref),
                    ))
        rows = fused

    branches = []
    for pattern, prob, st in sorted(rows, key=lambda row: (row[0][0::2], row[0][1::2])):
        parity_pattern, sign_pattern = pattern[0::2], pattern[1::2]
        flips = [0]
        for o in parity_pattern:
            flips.append(flips[-1] ^ o)
        corrections = []
        for t in range(1, m + 1):
            if flips[min(t, m - 1)]:
                st = apply_local_unitary(st, _X, (t,))
                corrections.append(f"X@{t}")
        if sum(sign_pattern) % 2 == 1:
            st = apply_local_unitary(st, _Z, (0,))
            corrections.append("Z@0")
        branches.append(
            MergeBranch(parity_pattern, sign_pattern, prob, _canonical_phase(st), tuple(corrections))
        )
    return MergeResult(tuple(branches), tuple(coeffs), tuple(alignments))


# ---------------------------------------------------------------------------
# The sigma runner and the sigma/prop1 branch trees as they were written
# before they shared one description: each builds its state and measures its
# own splits.  Only the package's builders, kernels, sampler and merge are
# called.


def _oracle_sigma_state(config: ProtocolConfig) -> tuple[DensityOperator, bool]:
    coeffs = config.coeffs_or_uniform(2)
    maximal = abs(coeffs[0] - coeffs[1]) <= ATOL
    if maximal:
        return build_sigma(config.p), True
    return build_sigma_prime(ket([coeffs[0], 0.0, 0.0, coeffs[1]], (2, 2)), config.p), False


_SIGMA_SPLIT = [[0, 1], [2]]  # entangled block versus the flag level


def _oracle_sigma_pair(post: DensityOperator, traced: int) -> PureState:
    """Reduce a sigma-family branch to its two-qubit pair, qutrit leg relabeled."""
    pair = to_pure(partial_trace(post, {traced}))
    # exactly one leg of the kept pair is a qutrit; squeeze it onto a qubit
    for axis in (0, 1):
        if pair.dims.dims[axis] == 3:
            pair = relabel_subspace(pair, axis, {0: 0, 1: 1}, 2)
    return pair


def loop_run_sigma_adaptive(
    config: ProtocolConfig, rng: np.random.Generator | None = None
) -> ProtocolReport:
    """``protocols.run_sigma_adaptive`` measuring A's split, then C's, itself."""
    rho, maximal = _oracle_sigma_state(config)
    rng = np.random.default_rng(config.seed) if rng is None else rng
    steps: list[StepRecord] = []

    outs_a = measure(rho, level_group_measurement(0, 3, _SIGMA_SPLIT))
    first = _sample_probabilities(rng, [out.probability for out in outs_a])
    steps.append(
        StepRecord(1, "A", "split {levels 0,1} vs {flag level 2} on A", first,
                   outs_a[first].probability, True)
    )
    if first == 0:
        have = "AB"
        pair_first = _oracle_sigma_pair(outs_a[0].post_state, 2)
        repeat_accept = 0  # C keeps the branch where B-C hold the pair
    else:
        have = "BC"
        pair_first = _oracle_sigma_pair(outs_a[1].post_state, 0)
        repeat_accept = 1

    outs_c = measure(rho, level_group_measurement(2, 3, _SIGMA_SPLIT))
    rates = [out.probability for out in outs_c]
    rate = rates[repeat_accept]
    analytic = 1.0 - (1.0 - rate) ** (config.max_copies - 1)

    pair_second = None
    copies = 1
    for _ in range(config.max_copies - 1):
        copies += 1
        idx = _sample_probabilities(rng, rates)
        accepted = idx == repeat_accept
        steps.append(
            StepRecord(copies, "C", "split {levels 0,1} vs {flag level 2} on C", idx,
                       outs_c[idx].probability, accepted)
        )
        if accepted:
            traced = 0 if repeat_accept == 0 else 2
            pair_second = _oracle_sigma_pair(outs_c[idx].post_state, traced)
            break
    if pair_second is None:
        return ProtocolReport("sigma", config, tuple(steps), copies, False, analytic)

    pair_ab = pair_first if have == "AB" else pair_second
    pair_bc = pair_first if have == "BC" else pair_second
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


def loop_prop1_tree(config: ProtocolConfig):
    rho = build_prop1_example(config.p)
    outs = measure(rho, state_projector_measurement(2, basis_ket((2,), (0,))))
    return [
        ("charlie=0 (pair kept)", outs[0].probability, True, 1),
        ("charlie=1 (separable)", outs[1].probability, False, 1),
    ]


def loop_sigma_tree(config: ProtocolConfig):
    rho, _ = _oracle_sigma_state(config)
    outs_a = measure(rho, level_group_measurement(0, 3, _SIGMA_SPLIT))
    outs_c = measure(rho, level_group_measurement(2, 3, _SIGMA_SPLIT))
    total_first = outs_a[0].probability + outs_a[1].probability
    repeats = config.max_copies - 1
    leaves = []
    for f in (0, 1):
        pf = outs_a[f].probability / total_first
        q = outs_c[0].probability if f == 0 else outs_c[1].probability
        name = "AB-first" if f == 0 else "BC-first"
        for k in range(1, repeats + 1):
            leaves.append(
                (f"{name},success@copy{k + 1}", pf * (1.0 - q) ** (k - 1) * q, True, k + 1)
            )
        leaves.append((f"{name},exhausted", pf * (1.0 - q) ** repeats, False, config.max_copies))
    return leaves


# ---------------------------------------------------------------------------
# The command-line handlers as they were written before ``cli.main`` took
# over the seed, timestamp, manifest and output: each resolves its own seed
# and timestamp, builds its manifest and writes its artifact.  They call the
# harness's parsing, payload and state-loading helpers.


def make_manifest(subcommand: str, config: dict, seed: int, timestamp: str) -> dict:
    return {
        "subcommand": subcommand,
        "config": config,
        "seed": int(seed),
        "version": __version__,
        "timestamp": timestamp,
    }


def envelope(manifest: dict, payload: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "manifest": manifest, "payload": payload}


def emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _flag_p(value) -> float:
    """``--p`` as the CLI checks it before a builder sees it."""
    p = float(value)
    if not 0.0 < p < 1.0:
        raise ValueError("--p must lie strictly inside (0, 1)")
    return p


def oracle_cmd_prop1(args) -> int:
    seed = resolve_seed(args.seed)
    timestamp = resolve_timestamp(args.timestamp)
    p = float(args.p)
    rounds = int(args.rounds)
    custom = any(x is not None for x in (args.pair_ab, args.pair_bc, args.ref_a, args.ref_c))
    if custom:
        ab = _parse_schmidt(args.pair_ab, 2, "--pair-ab") or normalize_schmidt([1.0, 1.0])
        bc = _parse_schmidt(args.pair_bc, 2, "--pair-bc") or normalize_schmidt([1.0, 1.0])
        ref_a = int(args.ref_a) if args.ref_a is not None else 1
        ref_c = int(args.ref_c) if args.ref_c is not None else 0
        if ref_a not in (0, 1) or ref_c not in (0, 1):
            raise ValueError("--ref-a / --ref-c must be 0 or 1")
        rho = build_prop1_general(
            ket([ab[0], 0.0, 0.0, ab[1]], (2, 2)),
            basis_ket((2,), (ref_c,)),
            basis_ket((2,), (ref_a,)),
            ket([bc[0], 0.0, 0.0, bc[1]], (2, 2)),
            _flag_p(p),
        )
        family: dict | str = {
            "pair_ab": list(ab), "pair_bc": list(bc), "ref_a": ref_a, "ref_c": ref_c,
        }
        reference = basis_ket((2,), (ref_c,))
    else:
        rho = build_prop1_example(_flag_p(p))
        family = "standard"
        reference = basis_ket((2,), (0,))

    branches = run_prop1_step(rho, reference)
    selected = int(args.charlie_outcome) if args.charlie_outcome is not None else 0
    if selected not in (0, 1):
        raise ValueError("--charlie-outcome must be 0 or 1")

    phi_plus = bell_pair("phi+")
    branch_payload = []
    for br in branches:
        entry: dict = {
            "outcome": int(br.outcome_index),
            "probability": float(br.probability),
            "negativity": None if br.negativity is None else float(br.negativity),
            "entangled": br.entangled,
            "fidelity_phi_plus": (
                None if br.pair_state is None else float(fidelity_pure(br.pair_state, phi_plus))
            ),
        }
        branch_payload.append(entry)

    chosen = branches[selected]
    if chosen.pair_state is None:
        distill_block: dict = {"status": "no_support"}
    else:
        pipe = distill_pipeline(chosen.pair_state, rounds)
        distill_block = {
            "status": pipe.status,
            "filtered": pipe.filtered,
            "filter_probability": float(pipe.filter_probability),
            "trajectory": [[float(f), float(q)] for f, q in pipe.trajectory],
        }

    config = {
        "p": p,
        "rounds": rounds,
        "charlie_outcome": selected,
        "family": family,
    }
    payload = {
        "branches": branch_payload,
        "selected_outcome": selected,
        "selected_separable": (chosen.entangled is not None) and (not chosen.entangled),
        "distillation": distill_block,
    }
    manifest = make_manifest("prop1", config, seed, timestamp)
    emit(loop_render_json(envelope(manifest, payload)), args.out)
    return EXIT_OK


def _run_activation(args, protocol: str) -> int:
    seed = resolve_seed(args.seed)
    timestamp = resolve_timestamp(args.timestamp)
    shots = int(args.shots)
    want_mc = not args.no_mc
    if protocol == "prop2":
        coeffs = _parse_schmidt(args.schmidt, 3)
        config_obj = ProtocolConfig(
            p=_flag_p(args.p), schmidt_coeffs=coeffs, shots=shots, seed=seed
        )
        config = {
            "p": config_obj.p,
            "schmidt": list(config_obj.coeffs_or_uniform(3)),
            "shots": shots,
            "mc": want_mc,
        }
    else:
        coeffs = _parse_schmidt(args.schmidt, 4)
        weights = _parse_weights(args.weights)
        config_obj = ProtocolConfig(
            weights=weights, schmidt_coeffs=coeffs, shots=shots, seed=seed
        )
        config = {
            "weights": list(weights),
            "schmidt": list(config_obj.coeffs_or_uniform(4)),
            "shots": shots,
            "mc": want_mc,
        }
    # one copy chain feeds both the postselected run and the exact tree
    chain = copy_chain(protocol, config_obj)
    payload = {"run": run_report_payload(replay_chain(chain, postselect_success=True))}
    payload["monte_carlo"] = (
        mc_payload(sample_leaves(protocol, chain_leaves(chain), shots, seed))
        if want_mc else None
    )
    manifest = make_manifest(protocol, config, seed, timestamp)
    emit(loop_render_json(envelope(manifest, payload)), args.out)
    return EXIT_OK


def oracle_cmd_prop2(args) -> int:
    return _run_activation(args, "prop2")


def oracle_cmd_prop3(args) -> int:
    return _run_activation(args, "prop3")


def oracle_cmd_sigma_scan(args) -> int:
    seed = resolve_seed(args.seed)
    timestamp = resolve_timestamp(args.timestamp)
    p_list = _parse_floats(args.p_list, "--p-list")
    n_max = int(args.n_max)
    shots = int(args.shots)
    rows = sigma_scan(p_list, n_max, shots, seed)
    config = {"p_list": p_list, "n_max": n_max, "shots": shots, "format": args.format}
    manifest = make_manifest("sigma-scan", config, seed, timestamp)
    if args.format == "json":
        payload = {
            "rows": [
                {
                    "p": float(r.p),
                    "n": int(r.n),
                    "analytic": float(r.analytic),
                    "empirical": float(r.empirical),
                    "abs_error": float(r.abs_error),
                }
                for r in rows
            ]
        }
        emit(loop_render_json(envelope(manifest, payload)), args.out)
        return EXIT_OK
    lines = ["# manifest: " + loop_render_compact(manifest)]
    lines.append("p,n,analytic,empirical,abs_error")
    for r in rows:
        lines.append(
            ",".join(
                (
                    format_float(r.p),
                    str(int(r.n)),
                    format_float(r.analytic),
                    format_float(r.empirical),
                    format_float(r.abs_error),
                )
            )
        )
    emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def oracle_cmd_certify(args) -> int:
    seed = resolve_seed(args.seed)
    timestamp = resolve_timestamp(args.timestamp)
    state, source = _load_input_state(args)
    if isinstance(state, PureState):
        is_gme, report = certify_gme_pure(state)
    else:
        is_gme, report = None, certify_entangled_all_cuts(state)
    config = {
        "source": source,
        "dims": [int(d) for d in state.dims.dims],
        "state_kind": "pure" if isinstance(state, PureState) else "density",
    }
    payload = certificate_payload(report, is_gme)
    manifest = make_manifest("certify", config, seed, timestamp)
    emit(loop_render_json(envelope(manifest, payload)), args.out)
    return EXIT_OK


_GHZ_ANGLES = (0.0, math.pi / 2, 0.0, math.pi / 2, -math.pi / 4, math.pi / 4)


def oracle_cmd_svetlichny(args) -> int:
    seed = resolve_seed(args.seed)
    timestamp = resolve_timestamp(args.timestamp)
    state, source = _load_input_state(args, default_builtin="ghz3")
    if not isinstance(state, PureState):
        raise ValueError("the nonlocality functional needs a pure three-qubit state")
    if args.angles is not None:
        angles = _parse_floats(args.angles, "--angles")
        if len(angles) != 6:
            raise ValueError("--angles expects six values: A, A', B, B', C, C'")
        settings_source = "custom"
    else:
        angles = list(_GHZ_ANGLES)
        settings_source = "default"
    settings = [equatorial_observable(a) for a in angles]
    value = loop_svetlichny_value(state, settings)
    config = {
        "source": source,
        "angles": [float(a) for a in angles],
        "settings_source": settings_source,
    }
    payload = {
        "value": float(value),
        "classical_bound": float(SVETLICHNY_CLASSICAL_BOUND),
        "quantum_bound": float(SVETLICHNY_QUANTUM_BOUND),
        "exceeds_classical": bool(value > SVETLICHNY_CLASSICAL_BOUND),
        "within_quantum": bool(value <= SVETLICHNY_QUANTUM_BOUND + 1e-9),
    }
    manifest = make_manifest("svetlichny", config, seed, timestamp)
    emit(loop_render_json(envelope(manifest, payload)), args.out)
    return EXIT_OK


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None,
                     help="RNG seed (default: GME_SEED env var, else 42)")
    sub.add_argument("--timestamp", default=None,
                     help="manifest timestamp (default: fixed epoch, or SOURCE_DATE_EPOCH)")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


def loop_build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmesim",
        description="Protocols and certificates for activating genuine "
                    "multipartite entanglement from biseparable states.",
    )
    parser.add_argument("--version", action="version", version=f"gmesim {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p1 = sub.add_parser("prop1", help="single-step three-qubit protocol plus distillation")
    p1.add_argument("--p", type=float, default=0.5, help="mixture weight (default 0.5)")
    p1.add_argument("--rounds", type=int, default=3, help="distillation rounds (default 3)")
    p1.add_argument("--charlie-outcome", type=int, default=None, choices=(0, 1),
                    help="report this branch (default 0, the entangled one)")
    p1.add_argument("--pair-ab", default=None,
                    help="Schmidt coefficients a,b of a custom A-B pair")
    p1.add_argument("--pair-bc", default=None,
                    help="Schmidt coefficients a,b of a custom B-C pair")
    p1.add_argument("--ref-a", type=int, default=None, choices=(0, 1),
                    help="custom basis level for party A's reference")
    p1.add_argument("--ref-c", type=int, default=None, choices=(0, 1),
                    help="custom basis level for party C's reference")
    _add_common(p1)

    p2 = sub.add_parser("prop2", help="two-copy three-qutrit activation")
    p2.add_argument("--p", type=float, default=0.5, help="mixture weight (default 0.5)")
    p2.add_argument("--schmidt", default=None,
                    help="three Schmidt coefficients (normalized; default uniform)")
    p2.add_argument("--shots", type=int, default=DEFAULT_SHOTS,
                    help=f"Monte Carlo shots (default {DEFAULT_SHOTS})")
    p2.add_argument("--no-mc", action="store_true", help="skip the Monte Carlo block")
    _add_common(p2)

    p3 = sub.add_parser("prop3", help="three-copy four-ququart activation")
    p3.add_argument("--weights", default=None,
                    help="three mixture weights (normalized; default uniform)")
    p3.add_argument("--schmidt", default=None,
                    help="four Schmidt coefficients (normalized; default uniform)")
    p3.add_argument("--shots", type=int, default=DEFAULT_SHOTS,
                    help=f"Monte Carlo shots (default {DEFAULT_SHOTS})")
    p3.add_argument("--no-mc", action="store_true", help="skip the Monte Carlo block")
    _add_common(p3)

    scan = sub.add_parser("sigma-scan", help="success-law table for the adaptive protocol")
    scan.add_argument("--p-list", default="0.1,0.3,0.5,0.7",
                      help="comma-separated per-copy rates (default 0.1,0.3,0.5,0.7)")
    scan.add_argument("--n-max", type=int, default=20, help="largest repeat budget (default 20)")
    scan.add_argument("--shots", type=int, default=DEFAULT_SHOTS,
                      help=f"samples per rate (default {DEFAULT_SHOTS})")
    scan.add_argument("--format", choices=("csv", "json"), default="csv",
                      help="output format (default csv)")
    _add_common(scan)

    cert = sub.add_parser("certify", help="negativity/Schmidt certificates for every cut")
    cert.add_argument("--state-file", default=None, help="JSON state file to certify")
    cert.add_argument("--builtin", default=None,
                      help=f"builtin state name ({', '.join(_BUILTIN_NAMES)})")
    cert.add_argument("--p", type=float, default=0.5,
                      help="mixture weight for parametrized builtins (default 0.5)")
    cert.add_argument("--schmidt", default=None,
                      help="Schmidt coefficients for parametrized builtins")
    cert.add_argument("--weights", default=None, help="weights for the prop3 builtin")
    _add_common(cert)

    svet = sub.add_parser("svetlichny", help="tripartite nonlocality functional")
    svet.add_argument("--state-file", default=None, help="JSON state file (pure, three qubits)")
    svet.add_argument("--builtin", default=None,
                      help="builtin state name (default ghz3)")
    svet.add_argument("--angles", default=None,
                      help="six equatorial angles A,A',B,B',C,C' (default: optimal)")
    _add_common(svet)

    return parser


def oracle_main(argv) -> int:
    """``cli.main`` dispatching to the handlers above."""
    args = loop_build_parser().parse_args(argv)
    handler = globals()["oracle_cmd_" + args.subcommand.replace("-", "_")]
    try:
        return handler(args)
    except InvariantError as exc:
        print(f"gmesim: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, OSError) as exc:
        print(f"gmesim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # no exit codes beyond 0/2/3
        print(f"gmesim: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
