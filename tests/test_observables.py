import tracemalloc

import numpy as np
import pytest

from qmeasure import (
    DensityOperator,
    DimensionMismatch,
    NotDensityOperator,
    NotHermitian,
    NotNormalized,
    NotOrthonormal,
    Observable,
    PureState,
    QMeasureError,
    ValidationError,
    basis_vector,
    dag,
    embed_observable,
    kron,
    observable_from_matrix,
    partial_trace,
    probabilities,
    random_state_vector,
    random_unitary,
    uniform_superposition,
)
from qmeasure import tolerances as tol
from conftest import random_density
from reference import classify_outcomes, luders_update, projectors, purify, spectral_sum, von_neumann_entropy


class TestObservableFromMatrix:
    def test_pauli_z_terms(self, pauli_z):
        assert np.array_equal(spectral_sum(pauli_z, (-1.0, 1.0)), np.diag([1.0, -1.0]))  # ascending eigenvalues
        assert pauli_z.sizes == (1, 1)
        assert np.allclose(projectors(pauli_z), [np.diag([0.0, 1.0]), np.diag([1.0, 0.0])])

    def test_degenerate_diagonal(self, degenerate_observable):
        obs = degenerate_observable
        assert np.allclose(spectral_sum(obs, (2.0, 5.0)), np.diag([2.0, 2.0, 5.0]), rtol=0, atol=1e-15)
        assert obs.sizes == (2, 1)
        assert abs(np.trace(projectors(obs)[0]) - 2.0) < 1e-12  # rank-2 projector
        assert abs(np.trace(projectors(obs)[1]) - 1.0) < 1e-12

    def test_recovers_ranks_and_reconstructs(self):
        rng = np.random.default_rng(7)
        u = random_unitary(4, rng)
        h = u @ np.diag([1.0, 1.0, 3.0, 7.0]).astype(complex) @ dag(u)
        obs = observable_from_matrix(h)
        ranks = tuple(int(round(np.trace(p).real)) for p in projectors(obs))
        assert ranks == obs.sizes == (2, 1, 1)
        assert np.linalg.norm(spectral_sum(obs, (1.0, 3.0, 7.0)) - h) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            observable_from_matrix(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_invariants_enforced_on_direct_construction(self):
        # two equal columns: the eigenspaces overlap and the basis is not unitary
        with pytest.raises(NotOrthonormal, match="columns 0 and 1"):
            Observable(np.array([[1, 1], [0, 0]], dtype=complex), (1, 1))
        with pytest.raises(NotOrthonormal, match="columns 0 and 0"):  # a NaN entry fails the check
            Observable(np.array([[np.nan, 0], [0, 1]], dtype=complex), (1, 1))
        # the terms must split the columns exactly
        for sizes in ((1,), (2, 1), (2, 0)):
            with pytest.raises(ValidationError, match="term sizes"):
                Observable(np.eye(2), sizes)
        with pytest.raises(ValidationError, match="no spectral terms"):
            Observable(np.eye(2), ())
        with pytest.raises(DimensionMismatch, match="not square"):
            Observable(np.eye(3, 2), (1, 1))


class TestStates:
    def test_pure_state_requires_unit_norm(self):
        with pytest.raises(NotNormalized):
            PureState(np.array([1.0, 1.0], dtype=complex))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(np.nan, 0.0)])
    def test_pure_state_rejects_a_non_finite_entry(self, entry):
        # The norm of such a vector is NaN or infinite, never within NORMALIZATION of 1.
        with pytest.raises(NotNormalized):
            PureState(np.array([entry, 0.0], dtype=complex))

    def test_density_operator_validation(self):
        with pytest.raises(NotDensityOperator):
            DensityOperator(np.diag([0.7, 0.7]).astype(complex))  # trace 1.4
        with pytest.raises(NotDensityOperator):
            DensityOperator(np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue
        DensityOperator(np.diag([0.3, 0.7]).astype(complex))

    def test_density_operator_stores_its_hermitian_part(self):
        rho = random_density(3, np.random.default_rng(71))
        skew = np.array([[0, 1, 2], [-1, 0, 1j], [-2, 1j, 0]], dtype=complex)
        m = rho + 1e-12 * skew  # anti-Hermitian part within HERMITICITY
        assert not np.array_equal(m, dag(m))
        stored = DensityOperator(m).matrix
        assert np.array_equal(stored, dag(stored))
        assert np.max(np.abs(stored - rho)) < 1e-15

    def test_eigenspaces_are_column_groups_of_one_read_only_basis(self, degenerate_observable):
        obs = degenerate_observable
        assert obs.basis.shape == (3, 3) and not obs.basis.flags.writeable
        assert obs.columns == (slice(0, 2), slice(2, 3))
        given = np.eye(3, dtype=complex)
        copy = Observable(given, (2, 1))
        given[0, 0] = 7.0  # the caller's array stays writeable
        assert copy.basis[0, 0] == 1.0

    def test_outcome_index_and_indicator_are_built_once_and_read_only(self, degenerate_observable):
        obs = degenerate_observable
        for build, expected in (
            (lambda: obs.outcome_index, np.diag([0.0, 0.0, 1.0])),
            (lambda: obs.indicator, np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),
        ):
            first = build()
            assert build() is first and not first.flags.writeable
            assert np.max(np.abs(first - expected)) < 1e-15
            with pytest.raises(ValueError):
                first[0, 0] = 7.0

    def test_density_operator_leaves_its_input_writeable(self):
        rho = random_density(3, np.random.default_rng(72))
        stored = DensityOperator(rho).matrix
        assert rho.flags.writeable and not stored.flags.writeable and not np.shares_memory(rho, stored)

    def test_arrays_are_frozen(self, pauli_z, plus_state):
        with pytest.raises(ValueError):
            plus_state.vector[0] = 0.0
        with pytest.raises(ValueError):
            pauli_z.basis[0, 0] = 5.0


class TestProbabilities:
    def test_eigenstate(self, pauli_z):
        zero = PureState(basis_vector(2, 0))
        assert np.allclose(probabilities(pauli_z, zero), [0.0, 1.0])

    def test_balanced_superposition(self, pauli_z, plus_state):
        assert np.allclose(probabilities(pauli_z, plus_state), [0.5, 0.5])

    def test_unbalanced_superposition(self, pauli_z):
        psi = PureState(np.array([np.sqrt(0.3), np.sqrt(0.7)], dtype=complex))
        # ascending eigenvalue order: p(-1) = 0.7 comes first
        assert np.allclose(probabilities(pauli_z, psi), [0.7, 0.3], atol=1e-14)

    def test_sums_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            dim = int(rng.integers(2, 7))
            obs = observable_from_matrix(
                (lambda z: (z + dag(z)) / 2)(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            )
            p = probabilities(obs, PureState(random_state_vector(dim, rng)))
            assert abs(p.sum() - 1.0) < 1e-10
            assert np.all(p > -1e-12) and np.all(p < 1 + 1e-12)

    def test_dimension_mismatch(self, pauli_z):
        with pytest.raises(DimensionMismatch):
            probabilities(pauli_z, uniform_superposition(3))

    def test_rejects_a_mixed_state(self, pauli_z):
        with pytest.raises(QMeasureError, match="expected a PureState, got DensityOperator"):
            probabilities(pauli_z, DensityOperator(np.eye(2, dtype=complex) / 2))


class TestClassifyOutcomes:
    def test_eigenstate(self, pauli_z):
        detectable, null = classify_outcomes(pauli_z, PureState(basis_vector(2, 0)))
        assert detectable == (1,)  # a = +1
        assert null == (0,)  # a = -1

    def test_superposition(self, pauli_z, plus_state):
        detectable, null = classify_outcomes(pauli_z, plus_state)
        assert detectable == (0, 1) and null == ()

    def test_subspace_supported_state(self):
        rng = np.random.default_rng(9)
        u = random_unitary(4, rng)
        obs = observable_from_matrix(u @ np.diag([1.0, 1.0, 2.0, 3.0]).astype(complex) @ dag(u))
        # support the state on the degenerate eigenspace only
        v = projectors(obs)[0] @ (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        psi = PureState(v / np.linalg.norm(v))
        # direct probability computation agrees with the classification
        expected = [k for k, p in enumerate(projectors(obs)) if np.vdot(psi.vector, p @ psi.vector).real > 1e-12]
        detectable, null = classify_outcomes(obs, psi)
        assert list(detectable) == expected == [0]
        assert null == (1, 2)


class TestLudersUpdate:
    def test_fixed_point_on_diagonal_state(self, pauli_z):
        rho = DensityOperator(np.diag([0.3, 0.7]).astype(complex))
        assert np.allclose(luders_update(pauli_z, rho).matrix, rho.matrix, atol=1e-12)

    def test_decoheres_balanced_superposition(self, pauli_z, plus_state):
        out = luders_update(pauli_z, plus_state)
        assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_matches_projector_sandwich(self, pauli_z):
        rng = np.random.default_rng(10)
        rho = random_density(2, rng)
        out = luders_update(pauli_z, DensityOperator(rho))
        expected = np.zeros((2, 2), dtype=complex)  # explicit sandwich oracle
        for p in projectors(pauli_z):
            expected += p @ rho @ p
        assert np.allclose(out.matrix, expected, atol=1e-13)
        assert np.allclose(out.matrix, np.diag(np.diag(rho)), atol=1e-13)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        obs = observable_from_matrix(np.diag([1.0, 2.0, 2.0, 4.0]).astype(complex))
        rho = DensityOperator(random_density(4, rng))
        once = luders_update(obs, rho)
        twice = luders_update(obs, once)
        assert np.linalg.norm(once.matrix - twice.matrix) < 1e-10

    def test_commutes_with_observable(self, pauli_z):
        rho = luders_update(pauli_z, uniform_superposition(2))
        a = np.diag([1.0, -1.0])
        assert np.linalg.norm(a @ rho.matrix - rho.matrix @ a) < 1e-10

    def test_never_decreases_entropy(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            dim = int(rng.integers(2, 6))
            obs = observable_from_matrix(
                (lambda z: (z + dag(z)) / 2)(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            )
            rho = DensityOperator(random_density(dim, rng))
            assert von_neumann_entropy(luders_update(obs, rho)) >= von_neumann_entropy(rho) - 1e-9


class TestPurify:
    def test_pure_input(self):
        vec, dims = purify(DensityOperator(np.diag([1.0, 0.0]).astype(complex)))
        assert dims == (2, 2)
        assert np.allclose(vec, kron(basis_vector(2, 0), basis_vector(2, 0)))

    def test_maximally_mixed_qubit(self):
        vec, dims = purify(DensityOperator(np.eye(2, dtype=complex) / 2))
        marginal = partial_trace(np.outer(vec, vec.conj()), dims, keep=0)
        assert np.allclose(marginal, np.eye(2) / 2, atol=1e-12)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12

    def test_trace_back_random(self):
        rho = random_density(3, np.random.default_rng(13))
        vec, dims = purify(DensityOperator(rho))
        marginal = partial_trace(np.outer(vec, vec.conj()), dims, keep=0)
        assert np.linalg.norm(marginal - rho) < 1e-10

    def test_rejects_invalid_input(self):
        with pytest.raises(NotDensityOperator):
            purify(np.diag([0.9, 0.9]).astype(complex))


class TestEmbedObservable:
    def test_first_factor(self, pauli_z):
        lifted = embed_observable(pauli_z, (2, 3), 0)
        assert lifted.dim == 6
        assert lifted.n_outcomes == pauli_z.n_outcomes and lifted.sizes == (3, 3)
        for p, p0 in zip(projectors(lifted), projectors(pauli_z)):
            assert np.allclose(p, kron(p0, np.eye(3)))

    def test_middle_factor(self, pauli_z):
        lifted = embed_observable(pauli_z, (3, 2, 2), 1)
        assert lifted.dim == 12
        z = np.diag([1.0, -1.0])
        assert np.allclose(spectral_sum(lifted, (-1.0, 1.0)), kron(kron(np.eye(3), z), np.eye(2)))

    def test_dimension_mismatch(self, pauli_z):
        with pytest.raises(DimensionMismatch):
            embed_observable(pauli_z, (3, 3), 0)


class TestPairwiseOrthogonality:
    # Two unit columns whose overlap is 1.1e-9: each column passes on its own,
    # and only the pairwise entry of V†V rejects the basis.
    E = 1.1e-9
    V = np.array([[1.0, E], [0.0, np.sqrt(1.0 - E**2)]], dtype=complex)

    def test_overlap_hides_below_every_other_tolerance(self):
        gram = dag(self.V) @ self.V
        assert np.max(np.abs(np.diagonal(gram) - 1.0)) < 1e-15
        assert abs(gram[0, 1]) > tol.ORTHONORMALITY

    def test_overlapping_projectors_are_rejected(self):
        with pytest.raises(NotOrthonormal, match="columns 0 and 1 are not orthonormal"):
            Observable(self.V, (1, 1))

    def test_first_failing_pair_is_named(self):
        # term 0 is exact and orthogonal to the rest; the overlap sits in columns (1, 2)
        v = np.eye(3, dtype=complex)
        v[1:, 1:] = self.V
        with pytest.raises(NotOrthonormal, match="columns 1 and 2 are not orthonormal"):
            Observable(v, (1, 1, 1))
        # inside one degenerate term the columns must be orthonormal too
        with pytest.raises(NotOrthonormal, match="columns 1 and 2 are not orthonormal"):
            Observable(v, (1, 2))

    def test_validation_holds_one_operator_at_a_time(self):
        # d = 128 with 16 eigenvalues of multiplicity 8. With its input, construction
        # and the basis check V†V peak at 4.0 d × d arrays; forming and checking the
        # 16 projectors peaked at 38.6.
        u = random_unitary(128, np.random.default_rng(90))
        values = np.repeat(np.arange(16, dtype=float), 8)
        h = (u * values) @ dag(u)
        tracemalloc.start()
        try:
            obs = observable_from_matrix((h + dag(h)) / 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert obs.n_outcomes == 16
        assert peak < 5 * obs.basis.nbytes
