"""Independent oracles the test suite checks the package against.

Everything here is deliberately written the slow, obvious way -- explicit
index loops, no code shared with the package -- so the fast implementations
have something honest to disagree with.
"""

import itertools
import math

import numpy as np


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
