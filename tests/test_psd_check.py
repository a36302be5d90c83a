"""The PSD check of ``DensityOperator``: shifted Cholesky, eigvalsh on failure.

The property draws Hermitian unit-trace matrices over 1-4 parties of local
dimension 2-4 (up to 256 dimensions) with the smallest eigenvalue planted
on either side of ``-ATOL``, and compares accept/reject with the verdict of
a full eigendecomposition (``helpers.eig_psd_accepts``).  Matrices whose
computed smallest eigenvalue lies within ``BOUNDARY_BAND`` of ``-ATOL`` are
skipped: there the factorization's roundoff (about 3e-14 at 256
dimensions) may legitimately decide either way.  A second property plants
such a matrix on random rows and columns of a zero matrix of 64 to 256
dimensions, where the factorization runs on the nonzero rows and columns
alone.  A third draws 64-256-row matrices, sparse and dense, with a planted
fault (a non-finite entry, a non-Hermitian entry whose transposed partner is
zero or cancels it in rho + rho^dagger, an off trace, or nothing beyond the
planted eigenvalue), in C or Fortran order: the checks that read only the
rows and columns holding a nonzero entry must give the verdict and the
message of the same checks over the whole matrix
(``helpers.dense_density_checks``), and factor the same matrix bit for bit.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gmesim import qcore
from gmesim.cli import load_state_file, save_state_file
from gmesim.protocols import ProtocolConfig, build_prop3_state, run_prop3
from gmesim.qcore import ATOL, DensityOperator, PartyDims

from helpers import (
    dense_density_checks,
    eig_min_hermitian_part,
    eig_psd_accepts,
    random_unit_trace_hermitian,
)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

BOUNDARY_BAND = 1e-12


def accepts(dims, matrix) -> bool:
    try:
        DensityOperator(PartyDims(dims), matrix)
    except ValueError as exc:
        assert "positive semidefinite" in str(exc), exc
        return False
    return True


@pytest.mark.parametrize("lambda_min", [-10 * ATOL, -2 * ATOL, 0.0, ATOL])
@PROPERTY
@given(
    dims=st.lists(st.integers(2, 4), min_size=1, max_size=4),
    multiplicity=st.integers(1, 255),
    seed=st.integers(0, 2**32 - 1),
)
@example(dims=[4, 4, 4, 4], multiplicity=1, seed=0)
@example(dims=[4, 4, 4, 4], multiplicity=200, seed=1)
def test_psd_verdict_matches_eigvalsh_oracle(lambda_min, dims, multiplicity, seed):
    """``multiplicity`` copies of the planted eigenvalue (at most d - 1)."""
    d = int(np.prod(dims))
    multiplicity = 1 + (multiplicity - 1) % (d - 1)
    rng = np.random.default_rng(seed)
    matrix = random_unit_trace_hermitian(dims, rng, lambda_min, multiplicity)
    assume(abs(eig_min_hermitian_part(matrix) + ATOL) > BOUNDARY_BAND)
    assert accepts(dims, matrix) == eig_psd_accepts(matrix, ATOL)


@pytest.mark.parametrize("lambda_min", [-10 * ATOL, -2 * ATOL, 0.0, ATOL])
@PROPERTY
@given(
    dims=st.sampled_from([(4, 4, 4), (2,) * 6, (3, 3, 3, 3), (4, 4, 4, 4)]),
    size=st.integers(2, 256),
    multiplicity=st.integers(1, 255),
    seed=st.integers(0, 2**32 - 1),
)
@example(dims=(4, 4, 4, 4), size=11, multiplicity=1, seed=0)
@example(dims=(4, 4, 4), size=7, multiplicity=6, seed=1)
def test_psd_verdict_on_a_zero_padded_matrix_matches_eigvalsh_oracle(
    lambda_min, dims, size, multiplicity, seed
):
    """A planted ``size``-dim matrix (at most d) on random rows of a d-dim zero matrix.

    Every d is at least ``qcore._SUPPORT_ROWS``, so the factorization runs on
    the planted rows.
    """
    d = int(np.prod(dims))
    size = 2 + (size - 2) % (d - 1)
    multiplicity = 1 + (multiplicity - 1) % (size - 1)
    rng = np.random.default_rng(seed)
    support = rng.choice(d, size=size, replace=False)
    matrix = np.zeros((d, d), dtype=complex)
    matrix[np.ix_(support, support)] = random_unit_trace_hermitian(
        (size,), rng, lambda_min, multiplicity
    )
    assume(abs(eig_min_hermitian_part(matrix) + ATOL) > BOUNDARY_BAND)
    assert accepts(dims, matrix) == eig_psd_accepts(matrix, ATOL)


def verdict(check, dims, matrix):
    """``check``'s ValueError message (None if it accepts) and what it factors."""
    factored = []
    cholesky = np.linalg.cholesky

    def recording(a, *args, **kwargs):
        factored.append((a.shape, a.tobytes()))
        return cholesky(a, *args, **kwargs)

    with mock.patch.object(np.linalg, "cholesky", recording):
        try:
            check(dims, matrix)
        except ValueError as exc:
            return str(exc), factored
    return None, factored


FAULTS = ("none", "nan", "inf", "one-sided", "cancelling", "trace")


@pytest.mark.parametrize("lambda_min", [-10 * ATOL, -ATOL, 0.0, ATOL])
@PROPERTY
@given(
    dims=st.sampled_from([(4, 4, 4), (3, 3, 3, 3), (2,) * 7, (4, 4, 4, 4)]),
    size=st.integers(2, 256),
    dense=st.booleans(),
    fault=st.sampled_from(FAULTS),
    scale=st.floats(-12, -6),
    seed=st.integers(0, 2**32 - 1),
    fortran=st.booleans(),
)
@example(dims=(4, 4, 4, 4), size=11, dense=False, fault="one-sided", scale=-8.5, seed=0,
         fortran=False)
@example(dims=(4, 4, 4), size=64, dense=True, fault="nan", scale=-9, seed=1, fortran=False)
@example(dims=(4, 4, 4), size=5, dense=False, fault="cancelling", scale=-10, seed=2,
         fortran=True)
def test_support_checks_match_the_dense_oracle(
    lambda_min, dims, size, dense, fault, scale, seed, fortran
):
    """``scale`` sets the planted fault's size: 10**scale off the trace or off Hermitian."""
    d = int(np.prod(dims))
    size = d if dense else 2 + (size - 2) % (d - 2)  # a sparse one leaves a row out
    rng = np.random.default_rng(seed)
    support = rng.choice(d, size=size, replace=False)
    matrix = np.zeros((d, d), dtype=complex)
    matrix[np.ix_(support, support)] = random_unit_trace_hermitian(
        (size,), rng, lambda_min, 1 + int(rng.integers(size - 1))
    )
    i, j = (int(k) for k in rng.choice(support, size=2, replace=False))
    if fault in ("nan", "inf"):
        matrix[i if dense else int(rng.integers(d)), j] = (
            np.nan if fault == "nan" else complex(0, -np.inf))
    elif fault in ("one-sided", "cancelling"):
        if not dense:
            j = int(rng.choice(np.setdiff1d(np.arange(d), support)))
        # one-sided: rho_ji is zero; cancelling: rho_ij + conj(rho_ji) is
        # zero, so row j of rho + rho^dagger stays zero when j is off the support
        matrix[i, j] = 10.0**scale * (1j if fault == "cancelling" else 1)
        matrix[j, i] = matrix[i, j] if fault == "cancelling" else 0.0
    elif fault == "trace":
        matrix[i, i] += 10.0**scale
    given = np.asfortranarray(matrix) if fortran else matrix
    assert verdict(DensityOperator, dims, given) == verdict(dense_density_checks, dims, matrix)


@pytest.mark.parametrize("coupling, accepted", [(1e-4, False), (1e-5, True)])
def test_a_zero_diagonal_row_that_holds_an_entry_is_factored(coupling, accepted):
    """|0><0| coupled to a zero row by x: the smallest eigenvalue is about -x**2."""
    matrix = np.zeros((64, 64), dtype=complex)
    matrix[0, 0] = 1.0
    matrix[0, 2] = matrix[2, 0] = coupling
    assert accepts((4, 4, 4), matrix) == accepted == eig_psd_accepts(matrix, ATOL)


@pytest.fixture
def psd_paths(monkeypatch):
    """Count Cholesky factorizations and eigvalsh fallbacks in the PSD check."""
    counts = {"cholesky": 0, "fallback": 0}
    cholesky, fallback = np.linalg.cholesky, qcore._min_eigenvalue

    def counting_cholesky(a, *args, **kwargs):
        counts["cholesky"] += 1
        return cholesky(a, *args, **kwargs)

    def counting_fallback(mat):
        counts["fallback"] += 1
        return fallback(mat)

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    monkeypatch.setattr(qcore, "_min_eigenvalue", counting_fallback)
    return counts


@pytest.fixture
def factored_shapes(psd_paths, monkeypatch):
    """The shape of each matrix the counted factorizations see, in order."""
    shapes = []
    cholesky = np.linalg.cholesky

    def recording_cholesky(a, *args, **kwargs):
        shapes.append(a.shape)
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", recording_cholesky)
    return shapes


def test_eigvalsh_decides_when_the_factorization_fails(psd_paths):
    # lambda_min = -ATOL exactly: the shifted matrix is singular, so the
    # factorization fails, and eigvalsh accepts the matrix.
    DensityOperator(PartyDims((2,)), np.diag([1.0 + ATOL, -ATOL]).astype(complex))
    assert psd_paths == {"cholesky": 1, "fallback": 1}
    with pytest.raises(ValueError):
        DensityOperator(PartyDims((2,)), np.diag([1.5, -0.5]).astype(complex))
    assert psd_paths == {"cholesky": 2, "fallback": 2}


def test_valid_prop3_intermediates_never_fall_back(psd_paths):
    """One state build; the run reads its pairs off the terms and forms no density operator."""
    build_prop3_state((0.5, 0.5, 0.5, 0.5), (0.2, 0.3, 0.5))
    report = run_prop3(ProtocolConfig(), postselect_success=True)
    assert report.success
    assert psd_paths["cholesky"] == 1
    assert psd_paths["fallback"] == 0


def test_a_sparse_state_file_factors_only_its_nonzero_rows(tmp_path, psd_paths, factored_shapes):
    """The benchmark's prop3 density: 47 nonzero entries on 11 of 256 rows."""
    state = build_prop3_state((0.5, 0.5, 0.5, 0.5), (0.2, 0.3, 0.5))
    path = tmp_path / "prop3.json"
    save_state_file(str(path), state)
    mat = state.matrix
    assert np.count_nonzero(mat) == 47
    assert len(np.flatnonzero(mat.any(0) | mat.any(1))) == 11
    psd_paths.update(cholesky=0, fallback=0)
    factored_shapes.clear()
    assert np.array_equal(load_state_file(str(path)).matrix, mat)
    assert psd_paths == {"cholesky": 1, "fallback": 0}
    assert factored_shapes == [(11, 11)]


def test_a_matrix_below_the_support_size_is_factored_whole(factored_shapes):
    DensityOperator(PartyDims((2, 2)), np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))
    assert factored_shapes == [(4, 4)]
