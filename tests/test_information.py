import math
from types import SimpleNamespace

import numpy as np
import pytest

from qmeasure import (
    DensityOperator,
    DimensionMismatch,
    NonRepeatableInput,
    NotADistribution,
    NotNormalized,
    PureState,
    Scenario,
    basis_vector,
    embed_observable,
    evolve,
    kron,
    lifted_incompatibility_entropy,
    make_ideal_transformers,
    make_repeatable_transformers,
    observable_from_matrix,
    partial_trace,
    probabilities,
    random_state_vector,
    read_pointer_tripartite,
    run_pipeline,
    schmidt_decompose,
    shannon_entropy,
)
from qmeasure import pipeline as pipeline_module
from qmeasure import tolerances as tol
from conftest import bell_vector, random_density, random_hermitian
from reference import (
    commutator_norm,
    entanglement_of_pure_state,
    post_reading_state,
    reduced_states,
    verify_entanglement_as_incompatibility,
    verify_incompatibility_transfer,
    von_neumann_entropy,
)

# -sum p log2 p for p = (0.3, 0.7), frozen from a 30-digit evaluation
# of the formula: 0.881290899230692618...
H_03_07 = 0.8812908992306926


class TestShannonEntropy:
    def test_point_mass(self):
        assert shannon_entropy([1.0]) == 0.0

    def test_balanced(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)

    def test_unbalanced(self):
        assert shannon_entropy([0.3, 0.7]) == pytest.approx(H_03_07, abs=1e-12)

    def test_skips_null_entries(self):
        assert shannon_entropy([0.3, 0.7, 0.0, 1e-15]) == pytest.approx(H_03_07, abs=1e-12)

    def test_rejects_bad_distributions(self):
        with pytest.raises(NotADistribution):
            shannon_entropy([0.5, 0.6])
        with pytest.raises(NotADistribution):
            shannon_entropy([1.1, -0.1])

    @pytest.mark.parametrize("p", [[np.nan, 0.5, 0.5], [np.nan, 1.0], [np.inf, 0.5], [np.inf, -np.inf, 1.0]])
    def test_rejects_a_non_finite_entry(self, p):
        # The entropy would drop a NaN with the null entries and give 1.0 or 0.0.
        with pytest.raises(NotADistribution):
            shannon_entropy(p)


class TestVonNeumannEntropy:
    def test_pure_projector(self):
        assert von_neumann_entropy(DensityOperator(np.diag([1.0, 0.0]).astype(complex))) < 1e-12

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(np.eye(2, dtype=complex) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_reduces_to_shannon(self):
        assert von_neumann_entropy(np.diag([0.3, 0.7]).astype(complex)) == pytest.approx(H_03_07, abs=1e-12)

    def test_basis_independent(self):
        rng = np.random.default_rng(71)
        rho = random_density(4, rng)
        base = von_neumann_entropy(rho)
        w = np.linalg.eigvalsh(rho)
        assert base == pytest.approx(shannon_entropy(np.clip(w, 0, None)), abs=1e-10)


class TestEntanglement:
    def test_product_state(self):
        rng = np.random.default_rng(72)
        psi = kron(random_state_vector(2, rng), random_state_vector(3, rng))
        assert entanglement_of_pure_state(psi, (2, 3)) < 1e-10

    def test_bell_state(self):
        assert entanglement_of_pure_state(bell_vector(), (2, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_unbalanced_measurement_output(self, pauli_z):
        ts = make_ideal_transformers(pauli_z)
        psi = PureState(np.array([np.sqrt(0.3), np.sqrt(0.7)], dtype=complex))
        final = evolve(ts, psi)
        assert entanglement_of_pure_state(final, (2, 2)) == pytest.approx(H_03_07, abs=1e-9)


def ideal_run_entropies(obs, psi: PureState) -> tuple[dict[str, float], float]:
    """The entropy block of the pipeline's report on an ideal measurement, and its ledger's lhs 2 S1."""
    report = run_pipeline(Scenario(psi, make_ideal_transformers(obs)))
    return report.entropies, next(v.lhs for v in report.verdicts if v.label == "entropy_ledger")


class TestMutualInformation:
    def test_pure_product(self):
        # psi is an eigenvector of the observable, so the final vector is a product
        obs = observable_from_matrix(random_hermitian(2, np.random.default_rng(73)))
        entropies, mutual = ideal_run_entropies(obs, PureState(obs.basis[:, 0]))
        assert abs(mutual) < 1e-9
        assert entropies["s1"] < 1e-9

    def test_bell_state(self, pauli_z, plus_state):
        # an ideal Pauli-Z measurement of |+> ends in the Bell-type vector (|01> + |10>)/√2
        final = evolve(make_ideal_transformers(pauli_z), plus_state)
        assert np.allclose(final, np.array([0, 1, 1, 0]) / np.sqrt(2))
        entropies, mutual = ideal_run_entropies(pauli_z, plus_state)
        assert mutual == pytest.approx(2.0, abs=1e-12)
        assert entropies["s1"] == pytest.approx(1.0, abs=1e-12)
        assert entropies["shannon_pk"] == pytest.approx(1.0, abs=1e-12)
        # S2 = S1 and S12 = 0, which the report leaves out, on the dense final vector
        object_marginal, pointer_marginal = reduced_states(final, (2, 2))
        assert abs(von_neumann_entropy(object_marginal) - entropies["s1"]) < 1e-12
        assert abs(von_neumann_entropy(pointer_marginal) - entropies["s1"]) < 1e-12
        assert abs(von_neumann_entropy(np.outer(final, final.conj()))) < 1e-12

    def test_rejects_a_density_operator_or_matrix_naming_its_shape(self):
        # A pure density matrix flattens to a unit vector, so only the shape check stops it.
        bell = np.outer(bell_vector(), bell_vector().conj())
        for state, shape in ((bell, r"\(4, 4\)"), (DensityOperator(bell), r"\(\)")):
            with pytest.raises(DimensionMismatch, match=rf"shape {shape}"):
                schmidt_decompose(state, (2, 2))


class TestIncompatibilityEntropy:
    def test_eigenstate(self, pauli_z):
        assert abs(lifted_incompatibility_entropy(pauli_z, basis_vector(2, 0))) < 1e-12

    def test_balanced_coherence(self, pauli_z, plus_state):
        assert lifted_incompatibility_entropy(pauli_z, plus_state.vector) == pytest.approx(1.0, abs=1e-12)

    def test_unbalanced_coherence(self, pauli_z):
        psi = PureState(np.array([np.sqrt(0.3), np.sqrt(0.7)], dtype=complex))
        assert lifted_incompatibility_entropy(pauli_z, psi.vector) == pytest.approx(H_03_07, abs=1e-9)

    def test_equals_shannon_for_pure_states(self):
        rng = np.random.default_rng(74)
        for _ in range(5):
            obs = observable_from_matrix(random_hermitian(4, rng))
            psi = PureState(random_state_vector(4, rng))
            expected = shannon_entropy(np.clip(probabilities(obs, psi), 0, None))
            assert lifted_incompatibility_entropy(obs, psi.vector) == pytest.approx(expected, abs=1e-9)

    def test_nonnegative_and_zero_iff_compatible(self):
        rng = np.random.default_rng(75)
        for _ in range(10):
            h = random_hermitian(3, rng)
            obs = observable_from_matrix(h)
            eigenvector = PureState(np.linalg.eigh(h)[1][:, int(rng.integers(3))])
            for psi in (PureState(random_state_vector(3, rng)), eigenvector):
                gain = lifted_incompatibility_entropy(obs, psi.vector)
                assert gain >= -1e-9
                assert (commutator_norm(obs, psi) < 1e-8) == (gain < 1e-9)
        diag_obs = observable_from_matrix(np.diag([1.0, 2.0, 3.0]).astype(complex))
        assert abs(lifted_incompatibility_entropy(diag_obs, basis_vector(3, 1))) < 1e-12

    def test_rejects_a_vector_whose_norm_is_off_by_5e_10(self, pauli_z, plus_state):
        # Its weights sum to 1 + 1e-9, which shannon_entropy's DISTRIBUTION_SUM lets through.
        with pytest.raises(NotNormalized):
            lifted_incompatibility_entropy(pauli_z, plus_state.vector * (1 + 5e-10))


class TestCommutatorNorm:
    def test_diagonal_pair(self):
        obs = observable_from_matrix(np.diag([1.0, 2.0]).astype(complex))
        rho = DensityOperator(np.diag([0.4, 0.6]).astype(complex))
        assert commutator_norm(obs, rho) < 1e-14

    def test_z_with_plus_projector(self, pauli_z, plus_state):
        # Z's outcome index is N = |0><0| (outcome 1 is the eigenvalue +1), and [N, |+><+|] = (|0><+| - |+><0|)/√2
        # = (|0><1| - |1><0|)/2 has Frobenius norm sqrt(1/2), half that of [Z, |+><+|] = 2[N, |+><+|]
        assert commutator_norm(pauli_z, plus_state) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_vanishes_on_final_object_state(self):
        rng = np.random.default_rng(76)
        obs = observable_from_matrix(random_hermitian(4, rng))
        ts = make_repeatable_transformers(obs, 3)
        psi = PureState(random_state_vector(4, rng))
        rho1, rho2 = reduced_states(evolve(ts, psi), ts.composite_dims)
        assert commutator_norm(obs, rho1) < 1e-10
        assert commutator_norm(ts.pointer_observable, rho2) < 1e-10


class TestIdentityVerifiers:
    def test_balanced_case(self, pauli_z, plus_state):
        ts = make_ideal_transformers(pauli_z)
        final_identity = verify_entanglement_as_incompatibility(ts, plus_state)
        assert final_identity.passed
        assert final_identity.lhs == pytest.approx(1.0, abs=1e-12)
        assert final_identity.rhs == pytest.approx(1.0, abs=1e-12)
        transfer = verify_incompatibility_transfer(ts, plus_state)
        assert transfer.passed and transfer.lhs == pytest.approx(1.0, abs=1e-12)

    def test_eigenstate_case(self, pauli_z):
        ts = make_ideal_transformers(pauli_z)
        zero = PureState(basis_vector(2, 0))
        assert verify_entanglement_as_incompatibility(ts, zero).lhs < 1e-12
        assert verify_incompatibility_transfer(ts, zero).passed

    def test_random_instances(self):
        rng = np.random.default_rng(77)
        for seed in range(10):
            obs = observable_from_matrix(random_hermitian(int(rng.integers(2, 6)), rng))
            ts = make_repeatable_transformers(obs, seed)
            psi = PureState(random_state_vector(obs.dim, rng))
            assert verify_entanglement_as_incompatibility(ts, psi).deviation < 1e-9
            assert verify_incompatibility_transfer(ts, psi).deviation < 1e-9

    @pytest.mark.parametrize(
        "e_offset, h_offset",
        [(1.2, 0.6), (0.6, -0.6), (0.6, 1.2)],
        ids=["entanglement_vs_lifted", "entanglement_vs_born", "lifted_vs_born"],
    )
    def test_final_identity_fails_on_each_pairwise_gap_alone(self, e_offset, h_offset):
        # E and H(p) sit at these multiples of THEOREM from the lifted value H: one of the three
        # pairwise gaps is 1.2 THEOREM, the other two 0.6 THEOREM, so only that gap can fail the check.
        obs = observable_from_matrix(random_hermitian(5, np.random.default_rng(78)))
        ts = make_repeatable_transformers(obs, 78)
        final = evolve(ts, PureState(random_state_vector(obs.dim, np.random.default_rng(79))))
        h = lifted_incompatibility_entropy(obs, final)
        entanglement, h_born = h + e_offset * tol.THEOREM, h + h_offset * tol.THEOREM
        run = SimpleNamespace(s1=entanglement, h_born=h_born, obs=obs, final=final)
        check = next(c for c in pipeline_module.CHECKS if c.label == "entanglement_incompatibility_final")
        lhs, rhs, deviation, _ = check.fn(run)
        assert (lhs, rhs) == (entanglement, h)
        assert deviation > tol.THEOREM


class TestPointerReading:
    def test_bell_type_becomes_ghz_type(self, pauli_z, plus_state):
        ts = make_ideal_transformers(pauli_z)
        final = evolve(ts, plus_state)
        tri, dims = read_pointer_tripartite(final, ts)
        assert dims == (2, 2, 2)
        rho = np.outer(tri, tri.conj())
        for factor in range(3):
            marginal = partial_trace(rho, dims, keep=factor)
            assert von_neumann_entropy((marginal + marginal.conj().T) / 2) == pytest.approx(1.0, abs=1e-9)

    def test_single_term_is_product(self, pauli_z):
        ts = make_ideal_transformers(pauli_z)
        final = evolve(ts, PureState(basis_vector(2, 0)))
        tri, dims = read_pointer_tripartite(final, ts)
        assert dims == (2, 2, 1)
        assert abs(np.linalg.norm(tri) - 1.0) < 1e-12
        rho1 = partial_trace(np.outer(tri, tri.conj()), dims, keep=0)
        assert von_neumann_entropy((rho1 + rho1.conj().T) / 2) < 1e-9

    def test_marginals_carry_outcome_entropy(self):
        rng = np.random.default_rng(78)
        obs = observable_from_matrix(random_hermitian(4, rng))
        ts = make_repeatable_transformers(obs, 6)
        psi = PureState(random_state_vector(4, rng))
        final = evolve(ts, psi)
        tri, dims = read_pointer_tripartite(final, ts)
        h = shannon_entropy(np.clip(probabilities(obs, psi), 0, None))
        rho = np.outer(tri, tri.conj())
        for factor in range(3):
            marginal = partial_trace(rho, dims, keep=factor)
            s = von_neumann_entropy((marginal + marginal.conj().T) / 2)
            assert s == pytest.approx(h, abs=1e-9)

    def test_rejects_pointer_coherence(self, pauli_z):
        ts = make_ideal_transformers(pauli_z)
        # conditional object states overlap, so the pointer marginal keeps
        # coherence between the two readings: no definite-value form exists
        plus2 = (basis_vector(2, 0) + basis_vector(2, 1)) / np.sqrt(2)
        vec = (kron(basis_vector(2, 0), basis_vector(2, 0)) + kron(basis_vector(2, 1), plus2)) / np.sqrt(2)
        with pytest.raises(NonRepeatableInput):
            read_pointer_tripartite(vec, ts)

    def test_rejects_a_vector_with_a_nan_entry(self, pauli_z, plus_state):
        # A NaN spreads over one row and one column of the pointer marginal, so its coherence is NaN.
        ts = make_ideal_transformers(pauli_z)
        final = evolve(ts, plus_state).copy()
        final[0] = np.nan
        with pytest.raises(NonRepeatableInput):
            read_pointer_tripartite(final, ts)

    def test_accepts_degenerate_but_aligned_input(self):
        # measuring X on a basis state: degenerate Schmidt coefficients whose
        # raw eigenbasis is oblique, yet a pointer-definite form exists
        x_obs = observable_from_matrix(np.array([[0, 1], [1, 0]], dtype=complex))
        ts = make_ideal_transformers(x_obs)
        final = evolve(ts, PureState(basis_vector(2, 0)))
        tri, dims = read_pointer_tripartite(final, ts)
        assert dims == (2, 2, 2)
        rho = np.outer(tri, tri.conj())
        for factor in range(3):
            marginal = partial_trace(rho, dims, keep=factor)
            assert von_neumann_entropy((marginal + marginal.conj().T) / 2) == pytest.approx(1.0, abs=1e-9)


class TestPostReadingState:
    def test_ghz_type_input(self, pauli_z, plus_state):
        ts = make_ideal_transformers(pauli_z)
        final = evolve(ts, plus_state)
        tri, dims = read_pointer_tripartite(final, ts)
        rho12 = post_reading_state(tri, dims)
        # the two branches |0,e1> and |1,e0> survive with weight 1/2 each
        expected = np.zeros((4, 4), dtype=complex)
        for obj, ptr in ((0, 1), (1, 0)):
            v = kron(basis_vector(2, obj), basis_vector(2, ptr))
            expected += 0.5 * np.outer(v, v.conj())
        assert np.allclose(rho12.matrix, expected, atol=1e-12)

    def test_single_term_stays_pure(self, pauli_z):
        ts = make_ideal_transformers(pauli_z)
        final = evolve(ts, PureState(basis_vector(2, 0)))
        tri, dims = read_pointer_tripartite(final, ts)
        rho12 = post_reading_state(tri, dims)
        assert von_neumann_entropy(rho12) < 1e-9

    def test_matches_explicit_schmidt_sum(self):
        rng = np.random.default_rng(79)
        obs = observable_from_matrix(random_hermitian(3, rng))
        ts = make_repeatable_transformers(obs, 11)
        psi = PureState(random_state_vector(3, rng))
        final = evolve(ts, psi)
        tri, dims = read_pointer_tripartite(final, ts)
        rho12 = post_reading_state(tri, dims)
        sf = schmidt_decompose(final, ts.composite_dims)
        expected = np.zeros_like(rho12.matrix)
        for c, left, right in zip(sf.coefficients, sf.lefts.T, sf.rights.T):
            pair = kron(left, right)
            expected += c**2 * np.outer(pair, pair.conj())
        assert np.linalg.norm(rho12.matrix - expected) < 1e-10

    def test_commutators_vanish_after_reading(self):
        rng = np.random.default_rng(80)
        obs = observable_from_matrix(random_hermitian(3, rng))
        ts = make_repeatable_transformers(obs, 12)
        psi = PureState(random_state_vector(3, rng))
        tri, dims = read_pointer_tripartite(evolve(ts, psi), ts)
        rho12 = post_reading_state(tri, dims)
        pair_dims = (dims[0], dims[1])
        assert commutator_norm(embed_observable(obs, pair_dims, 0), rho12) < 1e-10
        assert commutator_norm(embed_observable(ts.pointer_observable, pair_dims, 1), rho12) < 1e-10
        # the same amount of incompatibility reappears against the reader
        h = shannon_entropy(np.clip(probabilities(obs, psi), 0, None))
        lifted = embed_observable(obs, dims, 0)
        assert lifted_incompatibility_entropy(lifted, tri) == pytest.approx(h, abs=1e-9)


class TestEntropyIsNeverNegative:
    def test_point_mass_is_positive_zero(self):
        assert math.copysign(1.0, shannon_entropy([1.0])) == 1.0

    def test_weight_rounded_above_one_gives_zero(self):
        # -p log2 p is about -3e-16 for p one ulp above 1
        assert math.copysign(1.0, shannon_entropy([1.0 + 2.0**-52])) == 1.0
        assert shannon_entropy([1.0 + 2.0**-52]) == 0.0

    def test_pure_state_entropies_are_positive_zero(self, pauli_z):
        entropies, mutual = ideal_run_entropies(pauli_z, PureState(basis_vector(2, 1)))
        for value in (*entropies.values(), mutual):
            assert math.copysign(1.0, value) == 1.0
