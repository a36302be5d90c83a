"""Certificates: bipartitions, Schmidt data, negativity, nonlocality value."""

import math

import numpy as np
import pytest

from gmesim import entanglement
from gmesim.cli import main
from gmesim.entanglement import (
    ENTANGLED_NEG_ATOL,
    Bipartition,
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
from gmesim.protocols import (
    build_prop1_example,
    build_prop2_state,
    build_prop3_state,
    build_sigma,
    normalize_schmidt,
)
from gmesim.qcore import (
    DensityOperator,
    InvariantError,
    PartyDims,
    PureState,
    basis_ket,
    bell_pair,
    ghz_state,
    ket,
    mix,
    tensor,
)

from helpers import (
    dense_negativity,
    loop_negativity,
    loop_partial_transpose,
    masked_negativity,
    random_density,
    random_pure,
)


class TestBipartition:
    def test_canonical_side_excludes_last_party(self):
        cut = Bipartition(frozenset({2}), 3)  # complement of {0, 1}
        assert cut.left == frozenset({0, 1})
        assert cut.right == frozenset({2})

    def test_label(self):
        assert Bipartition(frozenset({0}), 3).label == "A|BC"
        assert Bipartition(frozenset({0, 2}), 4).label == "AC|BD"

    def test_rejects_improper_splits(self):
        with pytest.raises(ValueError):
            Bipartition(frozenset(), 3)
        with pytest.raises(ValueError):
            Bipartition(frozenset({0, 1, 2}), 3)

    @pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 7), (5, 15)])
    def test_enumeration_count(self, n, count):
        cuts = enumerate_bipartitions(n)
        assert len(cuts) == count
        assert len(set(cuts)) == count

    def test_enumeration_order_three_parties(self):
        assert [c.label for c in enumerate_bipartitions(3)] == ["A|BC", "B|AC", "AB|C"]


class TestSchmidt:
    def test_bell_pair(self):
        data = schmidt(bell_pair("phi+"), Bipartition(frozenset({0}), 2))
        np.testing.assert_allclose(data.coefficients[:2], [1 / math.sqrt(2)] * 2, atol=1e-12)
        assert data.rank == 2

    def test_product_state(self):
        st = tensor(ket([0.6, 0.8], (2,)), ket([1, 1], (2,)))
        assert schmidt(st, Bipartition(frozenset({0}), 2)).rank == 1

    def test_ghz_middle_cut(self):
        data = schmidt(ghz_state(4), Bipartition(frozenset({0, 1}), 4))
        assert data.rank == 2

    def test_asymmetric_coefficients(self):
        st = ket([0.8, 0, 0, 0.6], (2, 2))
        data = schmidt(st, Bipartition(frozenset({0}), 2))
        np.testing.assert_allclose(data.coefficients, [0.8, 0.6], atol=1e-12)

    def test_rejects_a_density_operator_by_name(self):
        with pytest.raises(ValueError, match=r"^schmidt operates on pure states, "
                                             r"got DensityOperator$"):
            schmidt(ghz_state(3).density(), Bipartition(frozenset({0}), 3))


class TestNegativity:
    def test_partial_transpose_matches_loop_oracle(self):
        rng = np.random.default_rng(23)
        for dims, left in [((2, 2), {0}), ((2, 3), {1}), ((2, 2, 2), {0, 2}), ((3, 2, 2), {1})]:
            mat = random_density(dims, rng)
            rho = DensityOperator(PartyDims(dims), mat)
            got = partial_transpose(rho, Bipartition(frozenset(left), len(dims)))
            # the certificate transposes one fixed side; the oracle value is
            # basis-independent so compare both orientations
            want_left = loop_partial_transpose(mat, dims, sorted(left))
            want_right = loop_partial_transpose(
                mat, dims, sorted(set(range(len(dims))) - set(left))
            )
            assert (
                np.allclose(got, want_left, atol=1e-12)
                or np.allclose(got, want_right, atol=1e-12)
            )

    def test_bell_value(self):
        neg = negativity(bell_pair("phi+").density(), Bipartition(frozenset({0}), 2))
        assert abs(neg - 0.5) < 1e-12

    def test_separable_is_zero(self):
        rho = mix([
            (0.4, basis_ket((2, 2), (0, 0)).density()),
            (0.6, basis_ket((2, 2), (1, 1)).density()),
        ])
        neg = negativity(rho, Bipartition(frozenset({0}), 2))
        assert neg == 0.0 and math.copysign(1.0, neg) == 1.0

    @pytest.mark.parametrize("w", [0.1, 0.3, 1 / 3, 0.5, 0.8, 1.0])
    def test_werner_family_closed_form(self, w):
        """negativity of w|phi+><phi+| + (1-w) I/4 is max(0, (3w-1)/4)."""
        rho = DensityOperator(
            PartyDims((2, 2)),
            w * bell_pair("phi+").density().matrix + (1 - w) * np.eye(4) / 4,
        )
        neg = negativity(rho, Bipartition(frozenset({0}), 2))
        assert abs(neg - max(0.0, (3 * w - 1) / 4)) < 1e-12

    def test_pure_states_match_schmidt_formula(self):
        rng = np.random.default_rng(29)
        cut = Bipartition(frozenset({0}), 2)
        for _ in range(5):
            st = PureState(PartyDims((2, 3)), random_pure((2, 3), rng))
            data = schmidt(st, cut)
            s = sum(data.coefficients)
            want = (s * s - 1.0) / 2.0
            assert abs(negativity(st.density(), cut) - want) < 1e-10

    def test_matches_loop_negativity_on_random_mixed(self):
        rng = np.random.default_rng(31)
        mat = random_density((2, 2, 2), rng, rank=3)
        rho = DensityOperator(PartyDims((2, 2, 2)), mat)
        for cut in enumerate_bipartitions(3):
            assert abs(
                negativity(rho, cut) - loop_negativity(mat, (2, 2, 2), sorted(cut.left))
            ) < 1e-10


def _sparse_density(dims, rng, size: int) -> np.ndarray:
    """Full-rank density on ``size`` random basis states, zero elsewhere."""
    d = math.prod(dims)
    support = rng.choice(d, size=size, replace=False)
    mat = np.zeros((d, d), dtype=complex)
    mat[np.ix_(support, support)] = random_density((size,), rng)
    return mat


def _builder_state(name: str) -> DensityOperator:
    return {
        "prop1": lambda: build_prop1_example(0.7),
        "prop2": lambda: build_prop2_state(normalize_schmidt([1.0, 1.3, 0.8]), 0.3),
        "prop3": lambda: build_prop3_state(
            normalize_schmidt([0.7, 1.1, 0.9, 1.3]), (0.3, 0.3, 0.4)
        ),
        "sigma": lambda: build_sigma(0.5),
    }[name]()


def _record_eigvalsh(monkeypatch) -> list:
    """Record the shape of each matrix ``gmesim.entanglement`` diagonalizes."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(mat):
        shapes.append(mat.shape)
        return eigvalsh(mat)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return shapes


class TestSupportNegativity:
    """Negativity diagonalizes only the support of the partial transpose."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (3, 3, 3), (2, 3, 4)])
    def test_full_support_is_bit_identical_to_dense_oracle(self, dims):
        rng = np.random.default_rng(41)
        for _ in range(3):
            rho = DensityOperator(PartyDims(dims), random_density(dims, rng))
            for cut in enumerate_bipartitions(len(dims)):
                assert negativity(rho, cut) == dense_negativity(rho, cut)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (2, 3, 4)])
    def test_sparse_support_matches_loop_oracle(self, dims):
        rng = np.random.default_rng(43)
        d = math.prod(dims)
        for _ in range(6):
            mat = _sparse_density(dims, rng, int(rng.integers(2, d // 3 + 1)))
            rho = DensityOperator(PartyDims(dims), mat)
            for cut in enumerate_bipartitions(len(dims)):
                want = loop_negativity(mat, dims, sorted(cut.left))
                assert abs(negativity(rho, cut) - want) < 1e-12

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (2, 3, 4)])
    def test_sparse_support_is_bit_identical_to_masked_oracle(self, dims):
        rng = np.random.default_rng(53)
        d = math.prod(dims)
        for _ in range(6):
            mat = _sparse_density(dims, rng, int(rng.integers(1, d // 3 + 1)))
            rho = DensityOperator(PartyDims(dims), mat)
            report = certify_entangled_all_cuts(rho)
            for rec in report.records:
                want = masked_negativity(rho, rec.cut)
                assert rec.negativity == want
                assert negativity(rho, rec.cut) == want

    def test_an_entry_without_its_mirror_keeps_its_column_live(self, monkeypatch):
        """Hermitian within ATOL only: rho[i, j] = 1e-12 while rho[j, i] = 0."""
        dims = (2, 3, 4)
        rng = np.random.default_rng(61)
        mat = _sparse_density(dims, rng, 5)
        i = int(np.flatnonzero(mat.any(0))[0])
        j = int(np.flatnonzero(~mat.any(0))[0])
        mat[i, j] = 1e-12
        rho = DensityOperator(PartyDims(dims), mat)
        shapes = _record_eigvalsh(monkeypatch)
        for cut in enumerate_bipartitions(3):
            assert negativity(rho, cut) == masked_negativity(rho, cut)
        assert shapes[0::2] == shapes[1::2]

    @pytest.mark.parametrize("name", ["prop1", "prop2", "prop3", "sigma"])
    def test_builder_states_are_bit_identical_to_masked_oracle(self, name):
        rho = _builder_state(name)
        for rec in certify_entangled_all_cuts(rho).records:
            assert rec.negativity == masked_negativity(rho, rec.cut)

    def test_sparse_256_dim_certificate_forms_no_partial_transpose(self, monkeypatch):
        dims = (4, 4, 4, 4)
        mat = _sparse_density(dims, np.random.default_rng(59), 11)
        rho = DensityOperator(PartyDims(dims), mat)
        want = [masked_negativity(rho, cut) for cut in enumerate_bipartitions(4)]

        def refuse(*args):
            raise AssertionError("partial_transpose called")

        monkeypatch.setattr(entanglement, "partial_transpose", refuse)
        assert [r.negativity for r in certify_entangled_all_cuts(rho).records] == want

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 2), (2, 2, 2, 2)])
    def test_full_support_certificate_forms_no_partial_transpose(self, monkeypatch, dims):
        """With no zero entry the gathered block is the whole partial transpose, bit for bit."""
        rho = DensityOperator(PartyDims(dims), random_density(dims, np.random.default_rng(71)))
        assert (rho.matrix != 0).all()
        want = [dense_negativity(rho, cut) for cut in enumerate_bipartitions(len(dims))]

        def refuse(*args):
            raise AssertionError("partial_transpose called")

        monkeypatch.setattr(entanglement, "partial_transpose", refuse)
        assert [r.negativity for r in certify_entangled_all_cuts(rho).records] == want

    @pytest.mark.parametrize("name", ["prop1", "prop2", "prop3", "sigma"])
    def test_builder_states_match_dense_oracle(self, name):
        rho = _builder_state(name)
        report = certify_entangled_all_cuts(rho)
        dense = {r.cut.label: dense_negativity(rho, r.cut) for r in report.records}
        assert report.all_cuts_entangled == all(
            v > ENTANGLED_NEG_ATOL for v in dense.values()
        )
        for rec in report.records:
            assert abs(rec.negativity - dense[rec.cut.label]) < 1e-12

    def test_certify_prop3_diagonalizes_small_blocks(self, monkeypatch, capsys):
        shapes = _record_eigvalsh(monkeypatch)
        assert main(["certify", "--builtin", "prop3", "--seed", "1"]) == 0
        capsys.readouterr()
        assert len(shapes) == len(enumerate_bipartitions(4))
        assert max(rows for rows, _ in shapes) <= 64

    def test_full_support_diagonalizes_whole_matrix(self, monkeypatch):
        dims = (4, 4, 4, 4)
        rho = DensityOperator(
            PartyDims(dims), random_density(dims, np.random.default_rng(47))
        )
        shapes = _record_eigvalsh(monkeypatch)
        negativity(rho, Bipartition(frozenset({0, 1}), 4))
        assert shapes == [(256, 256)]

    def test_eigenvalues_off_the_trace_raise(self, monkeypatch):
        rho = ghz_state(3).density()
        cut = Bipartition(frozenset({0}), 3)
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda mat: eigvalsh(mat) + 1e-11)
        assert abs(negativity(rho, cut) - 0.5) < 1e-9
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda mat: eigvalsh(mat) + 1e-6)
        with pytest.raises(InvariantError, match=(
            r"A\|BC of dims \(2, 2, 2\).* kept 4 of 8 rows .*residual 4\.000e-06"
        )):
            negativity(rho, cut)


class TestCertificates:
    def test_sigma_exact_cut_values(self):
        """The flagged Bell-pair mixture at p=1/2: cuts (1/4, 1/2, 1/4)."""
        report = certify_entangled_all_cuts(build_sigma(0.5))
        vals = {r.cut.label: r.negativity for r in report.records}
        assert abs(vals["A|BC"] - 0.25) < 1e-9
        assert abs(vals["B|AC"] - 0.50) < 1e-9
        assert abs(vals["AB|C"] - 0.25) < 1e-9
        assert report.all_cuts_entangled
        assert abs(report.min_negativity - 0.25) < 1e-9
        assert not report.is_gme  # negativity records carry no Schmidt rank

    def test_gme_pure_ghz(self):
        is_gme, report = certify_gme_pure(ghz_state(3))
        assert is_gme and report.is_gme
        assert all(r.schmidt_rank == 2 for r in report.records)

    def test_gme_pure_rejects_one_sided_product(self):
        st = tensor(basis_ket((2,), (0,)), bell_pair("phi+"))
        is_gme, report = certify_gme_pure(st)
        assert not is_gme and not report.is_gme
        assert report.record("A|BC").schmidt_rank == 1
        assert report.record("B|AC").schmidt_rank == 2

    def test_w_state_is_gme(self):
        w = ket([0, 1, 1, 0, 1, 0, 0, 0], (2, 2, 2))
        is_gme, _ = certify_gme_pure(w)
        assert is_gme

    def test_report_lookup_raises_on_bad_label(self):
        _, report = certify_gme_pure(ghz_state(3))
        with pytest.raises(KeyError):
            report.record("A|BD")


class TestSvetlichny:
    def test_ghz_at_optimal_settings_hits_quantum_bound(self):
        value = svetlichny_value(ghz_state(3), ghz_optimal_settings())
        assert abs(value - SVETLICHNY_QUANTUM_BOUND) < 1e-9
        assert value > SVETLICHNY_CLASSICAL_BOUND

    def test_product_state_stays_classical(self):
        value = svetlichny_value(basis_ket((2, 2, 2), (0, 0, 0)), ghz_optimal_settings())
        assert abs(value) <= SVETLICHNY_CLASSICAL_BOUND + 1e-9

    def test_random_equatorial_settings_never_beat_quantum_bound(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            settings = [equatorial_observable(a) for a in rng.uniform(0, 2 * math.pi, 6)]
            st = PureState(PartyDims((2, 2, 2)), random_pure((2, 2, 2), rng))
            assert abs(svetlichny_value(st, settings)) <= SVETLICHNY_QUANTUM_BOUND + 1e-9

    def test_rejects_wrong_party_count(self):
        with pytest.raises(ValueError):
            svetlichny_value(ghz_state(4), ghz_optimal_settings())

    def test_rejects_a_density_operator_by_name(self):
        with pytest.raises(ValueError, match=r"^svetlichny_value operates on pure states, "
                                             r"got DensityOperator$"):
            svetlichny_value(ghz_state(3).density(), ghz_optimal_settings())

    def test_rejects_bad_settings(self):
        settings = list(ghz_optimal_settings())
        settings[3] = np.diag([1.0, 0.5])  # not an involution
        with pytest.raises(ValueError):
            svetlichny_value(ghz_state(3), settings)
        with pytest.raises(ValueError):
            svetlichny_value(ghz_state(3), settings[:4])

    def test_equatorial_observable_shape(self):
        obs = equatorial_observable(0.7)
        np.testing.assert_allclose(obs, obs.conj().T, atol=1e-15)
        np.testing.assert_allclose(obs @ obs, np.eye(2), atol=1e-15)
