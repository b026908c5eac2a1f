import numpy as np
import pytest

from qmeasure import (
    DimensionMismatch,
    InvalidTransformers,
    NullOutcome,
    PureState,
    StateTransformerSet,
    basis_vector,
    dag,
    evolve,
    kron,
    make_ideal_transformers,
    make_repeatable_transformers,
    observable_from_matrix,
    probabilities,
    random_state_vector,
    random_unitary,
    repeat_measurement_check,
    repeatability_violation,
    uniform_superposition,
)
from qmeasure import tolerances as tol
from qmeasure.instruments import probability_gap
from conftest import random_hermitian
from reference import (
    completed_unitary,
    projectors,
    transformer_stack,
    verify_conditional_states,
    verify_probability_reproducibility,
)


def random_observable(dim: int, rng: np.random.Generator):
    return observable_from_matrix(random_hermitian(dim, rng))


def transformer_sum(ts, psi):
    # Reference for the final vector, one kron per outcome.
    n = ts.n_outcomes
    out = np.zeros(ts.observable.dim * n, dtype=complex)
    for k, a in enumerate(transformer_stack(ts)):
        out += kron(a @ psi.vector, basis_vector(n, k))
    return out


class TestTransformerFamilies:
    def test_ideal_z(self, pauli_z):
        ts = make_ideal_transformers(pauli_z)
        stack = transformer_stack(ts)
        assert np.allclose(stack[0], np.diag([0.0, 1.0]))
        assert np.allclose(stack[1], np.diag([1.0, 0.0]))
        assert ts.blocks is pauli_z.basis
        assert repeatability_violation(ts) < 1e-12

    def test_ideal_degenerate_ranks(self, degenerate_observable):
        stack = transformer_stack(make_ideal_transformers(degenerate_observable))
        assert np.linalg.matrix_rank(stack[0]) == 2
        assert np.linalg.matrix_rank(stack[1]) == 1

    def test_random_family_is_phase_on_rank_one_eigenspaces(self, pauli_z):
        ts = make_repeatable_transformers(pauli_z, seed=3)
        for a, p in zip(transformer_stack(ts), projectors(pauli_z)):
            assert np.allclose(np.abs(a), p.real, atol=1e-12)  # unitary on a ray is a phase
            assert np.linalg.norm(dag(a) @ a - p) < 1e-12

    def test_random_family_degenerate(self, degenerate_observable):
        for seed in range(5):
            a = transformer_stack(make_repeatable_transformers(degenerate_observable, seed))[0]
            assert np.linalg.matrix_rank(a, tol=1e-10) == 2
            p = projectors(degenerate_observable)[0]
            assert np.linalg.norm(a - p @ a) < 1e-10

    def test_random_family_deterministic(self, degenerate_observable):
        first = make_repeatable_transformers(degenerate_observable, 17)
        second = make_repeatable_transformers(degenerate_observable, 17)
        assert np.array_equal(first.blocks, second.blocks)

    def test_invariants_across_seeds(self):
        rng = np.random.default_rng(20)
        for seed in range(8):
            obs = random_observable(int(rng.integers(2, 6)), rng)
            stack = transformer_stack(make_repeatable_transformers(obs, seed))
            total = sum(dag(a) @ a for a in stack)
            assert np.linalg.norm(total - np.eye(obs.dim)) < 1e-9
            for a, p in zip(stack, projectors(obs)):
                assert np.linalg.norm(dag(a) @ a - p) < 1e-9

    def test_construction_rejects_bad_families(self, pauli_z):
        with pytest.raises(InvalidTransformers, match="1 transformers for 2 spectral terms"):
            StateTransformerSet.from_transformers((np.eye(2, dtype=complex),), pauli_z)
        with pytest.raises(InvalidTransformers, match="A_0 acts off eigenspace 0"):
            # the identity is not zero off either eigenspace
            StateTransformerSet.from_transformers((np.eye(2, dtype=complex), np.eye(2, dtype=complex)), pauli_z)
        with pytest.raises(DimensionMismatch, match="transformer 1 has shape"):
            StateTransformerSet.from_transformers((projectors(pauli_z)[0], np.eye(3, dtype=complex)), pauli_z)

    def test_family_is_one_read_only_stack_that_its_inputs_cannot_change(self, pauli_z):
        # B = [B_0 | B_1] side by side: one read-only d × d matrix for the whole family
        expected = np.array(pauli_z.basis)
        for given in (expected.copy(), expected.tolist()):
            ts = StateTransformerSet(given, pauli_z)
            assert ts.blocks.shape == (2, 2) and not ts.blocks.flags.writeable
            given[0][1] = 5.0  # the caller's arrays stay writeable
            assert np.array_equal(ts.blocks, expected)


class TestBlocks:
    """The family as B_k = A_k V_k: the check B_k†B_k = 1 and the dense input it comes from."""

    def test_blocks_of_the_wrong_shape_are_rejected(self, degenerate_observable):
        with pytest.raises(DimensionMismatch, match=r"blocks of shape \(3, 2\)"):
            StateTransformerSet(np.eye(3, 2, dtype=complex), degenerate_observable)

    def test_a_block_that_is_not_an_isometry_is_rejected(self, degenerate_observable):
        b = np.array(degenerate_observable.basis)
        b[:, 2] *= 1.0 + 1e3 * tol.TRANSFORMER  # B_1†B_1 = 1 + 2e-6
        with pytest.raises(InvalidTransformers, match="A_1†A_1 deviates from its projector"):
            StateTransformerSet(b, degenerate_observable)
        b = np.array(degenerate_observable.basis)
        b[:, 1] += 1e3 * tol.TRANSFORMER * b[:, 0]  # the two columns of B_0 overlap
        with pytest.raises(InvalidTransformers, match="A_0†A_0 deviates from its projector"):
            StateTransformerSet(b, degenerate_observable)

    def test_completeness_follows_from_the_blocks(self, pauli_z):
        # B_0 = B_1 = e_0 (so A_k = |0><v_k|): the blocks of different terms need not be
        # orthogonal, and sum_k A_k†A_k = V (B_0†B_0 ⊕ B_1†B_1) V† = 1 all the same.
        ts = StateTransformerSet(np.array([[1, 1], [0, 0]], dtype=complex), pauli_z)
        total = sum(dag(a) @ a for a in transformer_stack(ts))
        assert np.linalg.norm(total - np.eye(2)) < 1e-15

    def test_an_off_eigenspace_component_is_rejected_at_construction(self):
        rng = np.random.default_rng(27)
        obs = observable_with_multiplicities((2, 1, 2), rng)
        stack = transformer_stack(make_repeatable_transformers(obs, 4))
        # a component of norm 1e3 × TRANSFORMER that acts on eigenspace 2
        leak = 1e3 * tol.TRANSFORMER * np.outer(random_state_vector(5, rng), obs.basis[:, 4].conj())
        with pytest.raises(InvalidTransformers, match="A_1 acts off eigenspace 1"):
            StateTransformerSet.from_transformers((stack[0], stack[1] + leak, stack[2]), obs)

    def test_dense_transformers_give_the_blocks(self):
        rng = np.random.default_rng(28)
        obs = observable_with_multiplicities((1, 3, 2), rng)
        ts = make_repeatable_transformers(obs, 6)
        again = StateTransformerSet.from_transformers(tuple(transformer_stack(ts)), obs)
        assert np.max(np.abs(again.blocks - ts.blocks)) < 1e-14

    def test_seeded_family_draws_one_unitary_per_term_in_term_order(self):
        rng = np.random.default_rng(29)
        obs = observable_with_multiplicities((2, 1, 3), rng)
        draws = np.random.default_rng(11)
        expected = np.hstack([obs.basis[:, cols] @ random_unitary(r, draws) for cols, r in zip(obs.columns, obs.sizes)])
        assert np.array_equal(make_repeatable_transformers(obs, 11).blocks, expected)


def observable_with_multiplicities(multiplicities, rng: np.random.Generator):
    """Observable whose k-th eigenvalue has the k-th multiplicity, in a seeded random basis."""
    values = np.repeat(0.7 * np.arange(len(multiplicities)) - 1.0, multiplicities)
    u = random_unitary(values.size, rng)
    return observable_from_matrix(u @ np.diag(values) @ dag(u))


class TestFamilyFromOneEigendecomposition:
    """The seeded family takes its eigenspace bases from the observable's one eigendecomposition."""

    MULTIPLICITIES = ((1, 1), (2, 1), (1, 3, 1), (2, 2, 1, 1), (1, 1, 1, 1, 2), (3, 1, 2, 1, 1, 2))

    def observables(self):
        rng = np.random.default_rng(81)
        return [observable_with_multiplicities(m, rng) for m in self.MULTIPLICITIES]

    def test_one_eigh_for_every_outcome_count(self, monkeypatch):
        # from the matrix to the family: the eigh of observable_from_matrix, and none for the family
        eigh = np.linalg.eigh
        for multiplicities, obs in zip(self.MULTIPLICITIES, self.observables()):
            calls = []
            monkeypatch.setattr(np.linalg, "eigh", lambda m, *args: calls.append(m.shape) or eigh(m, *args))
            again = observable_from_matrix(obs.matrix())
            make_repeatable_transformers(again, seed=5)
            monkeypatch.undo()
            assert again.n_outcomes == obs.n_outcomes == len(multiplicities)
            assert calls == [(obs.dim, obs.dim)], multiplicities

    def test_family_is_repeatable_and_seeded(self):
        for obs in self.observables():
            for seed in range(3):
                ts = make_repeatable_transformers(obs, seed)
                for a, p in zip(transformer_stack(ts), projectors(obs)):
                    assert np.linalg.norm(dag(a) @ a - p) <= tol.TRANSFORMER
                    assert np.linalg.norm(p @ a - a) <= tol.REPEATABILITY
                assert np.array_equal(ts.blocks, make_repeatable_transformers(obs, seed).blocks)


class TestIsRepeatable:
    def test_swap_family_violation(self, swap_transformers):
        violation = repeatability_violation(swap_transformers)
        assert violation > tol.REPEATABILITY
        # hand oracle: P_0 A_0 = 0, so the violation is |A_0|_F = 1
        assert abs(violation - 1.0) < 1e-12

    def test_generated_families_pass(self, degenerate_observable):
        for seed in range(5):
            violation = repeatability_violation(make_repeatable_transformers(degenerate_observable, seed))
            assert violation < 1e-10


class TestDilate:
    def test_ideal_z_controlled_shift(self, pauli_z):
        unitary = completed_unitary(make_ideal_transformers(pauli_z))
        # ascending term order: a=-1 writes pointer 0, a=+1 writes pointer 1
        assert np.allclose(unitary @ kron(basis_vector(2, 0), basis_vector(2, 0)),
                           kron(basis_vector(2, 0), basis_vector(2, 1)))
        assert np.allclose(unitary @ kron(basis_vector(2, 1), basis_vector(2, 0)),
                           kron(basis_vector(2, 1), basis_vector(2, 0)))

    def test_model_metadata(self, pauli_z):
        ts = make_ideal_transformers(pauli_z)
        assert ts.composite_dims == (2, 2)
        assert ts.pointer_observable.eigenvalues == (0.0, 1.0)

    def test_models_with_the_same_outcome_count_share_one_pointer(self, pauli_z, degenerate_observable):
        first = make_ideal_transformers(pauli_z)
        second = make_repeatable_transformers(degenerate_observable, 3)
        assert first.composite_dims[1] == second.composite_dims[1] == 2
        assert second.pointer_observable is first.pointer_observable

    def test_the_shared_pointer_cannot_be_changed(self, pauli_z):
        ts = make_ideal_transformers(pauli_z)
        pointer = ts.pointer_observable
        before = pointer.basis.copy()
        with pytest.raises(ValueError):
            pointer.basis[0, 0] = 5.0
        with pytest.raises(ValueError):
            pointer.indicator[1, 1] = 5.0
        with pytest.raises(ValueError):
            ts.blocks[0, 0] = 5.0
        with pytest.raises(AttributeError):
            ts.pointer_observable = observable_from_matrix(np.diag([5.0, 7.0]))
        again = make_ideal_transformers(pauli_z)
        assert again.pointer_observable is pointer and pointer.eigenvalues == (0.0, 1.0)
        assert np.array_equal(pointer.basis, before)

    def test_unitarity(self):
        rng = np.random.default_rng(22)
        for seed in range(5):
            obs = random_observable(int(rng.integers(2, 6)), rng)
            ts = make_repeatable_transformers(obs, seed)
            unitary, dim = completed_unitary(ts), int(np.prod(ts.composite_dims))
            assert np.linalg.norm(dag(unitary) @ unitary - np.eye(dim)) < 1e-9

    def test_evolve_matches_transformer_sum(self):
        rng = np.random.default_rng(23)
        obs = random_observable(3, rng)
        ts = make_repeatable_transformers(obs, 9)
        for _ in range(20):
            psi = PureState(random_state_vector(3, rng))
            assert np.linalg.norm(evolve(ts, psi) - transformer_sum(ts, psi)) < 1e-10


class TestEvolve:
    def test_eigenstate_is_product(self, pauli_z):
        final = evolve(make_ideal_transformers(pauli_z), PureState(basis_vector(2, 0)))
        assert np.allclose(final, kron(basis_vector(2, 0), basis_vector(2, 1)))

    def test_balanced_superposition_is_maximally_entangled(self, pauli_z, plus_state):
        final = evolve(make_ideal_transformers(pauli_z), plus_state)
        expected = (kron(basis_vector(2, 0), basis_vector(2, 1))
                    + kron(basis_vector(2, 1), basis_vector(2, 0))) / np.sqrt(2)
        assert np.allclose(final, expected)

    def test_normalized(self, degenerate_observable):
        final = evolve(make_repeatable_transformers(degenerate_observable, 2), uniform_superposition(3))
        assert abs(np.linalg.norm(final) - 1.0) < 1e-10

    def test_rejects_a_state_of_another_dimension(self, degenerate_observable):
        with pytest.raises(DimensionMismatch, match="state dim 2 != object dim 3"):
            evolve(make_ideal_transformers(degenerate_observable), uniform_superposition(2))


class TestProbabilityReproducibility:
    def test_eigenstate(self, pauli_z):
        ts = make_ideal_transformers(pauli_z)
        assert verify_probability_reproducibility(ts, PureState(basis_vector(2, 0))) < 1e-12

    def test_random_instances(self):
        rng = np.random.default_rng(24)
        for seed in range(5):
            obs = random_observable(int(rng.integers(2, 6)), rng)
            ts = make_repeatable_transformers(obs, seed)
            psi = PureState(random_state_vector(obs.dim, rng))
            assert verify_probability_reproducibility(ts, psi) < 1e-10

    def test_corrupted_unitary_is_flagged(self, degenerate_observable):
        ts, psi = make_repeatable_transformers(degenerate_observable, 7), uniform_superposition(3)
        corrupted = np.array(evolve(ts, psi))  # drop its largest amplitude and renormalise
        corrupted[int(np.argmax(np.abs(corrupted)))] = 0.0
        born = probabilities(degenerate_observable, psi)
        assert probability_gap(ts, born, corrupted / np.linalg.norm(corrupted)) > 1e-6


class TestConditionalStates:
    def test_hand_computed_case(self, pauli_z, plus_state):
        ts = make_ideal_transformers(pauli_z)
        # outcome a=+1 on |+>: both routes give the matrix |0><0| / 2
        a1 = transformer_stack(ts)[1]
        direct = a1 @ np.outer(plus_state.vector, np.conj(plus_state.vector)) @ dag(a1)
        assert np.allclose(direct, np.diag([0.5, 0.0]))
        assert verify_conditional_states(ts, plus_state) < 1e-12

    def test_null_outcome_contributes_zero(self, pauli_z):
        ts = make_ideal_transformers(pauli_z)
        assert verify_conditional_states(ts, PureState(basis_vector(2, 0))) < 1e-12

    def test_random_instances(self):
        rng = np.random.default_rng(25)
        for seed in range(5):
            obs = random_observable(int(rng.integers(2, 6)), rng)
            ts = make_repeatable_transformers(obs, seed)
            psi = PureState(random_state_vector(obs.dim, rng))
            assert verify_conditional_states(ts, psi) < 1e-10


class TestRepeatMeasurementCheck:
    def test_ideal_z_on_plus(self, pauli_z, plus_state):
        ts = make_ideal_transformers(pauli_z)
        born = probabilities(pauli_z, plus_state)
        assert repeat_measurement_check(ts, plus_state, born) == pytest.approx(1.0, abs=1e-12)

    def test_random_repeatable_instances(self):
        rng = np.random.default_rng(26)
        for seed in range(5):
            obs = random_observable(int(rng.integers(2, 6)), rng)
            ts = make_repeatable_transformers(obs, seed)
            psi = PureState(random_state_vector(obs.dim, rng))
            assert repeat_measurement_check(ts, psi, probabilities(obs, psi)) >= 1.0 - 1e-10

    def test_born_vector_must_have_one_entry_per_outcome(self, pauli_z, plus_state):
        ts = make_ideal_transformers(pauli_z)
        for born in (np.array([1.0]), np.array([0.5, 0.5, 0.0])):
            with pytest.raises(DimensionMismatch, match=f"{born.size} probabilities for 2 outcomes"):
                repeat_measurement_check(ts, plus_state, born)

    def test_swap_family_never_confirms(self, swap_transformers, plus_state):
        born = probabilities(swap_transformers.observable, plus_state)
        assert repeat_measurement_check(swap_transformers, plus_state, born) == pytest.approx(0.0, abs=1e-12)

    def test_textbook_collapse_is_confirmed(self, pauli_z, plus_state):
        # Each outcome leaves (1/√2) e_k, which a repetition finds in term k again with certainty.
        ts = make_ideal_transformers(pauli_z)
        assert repeat_measurement_check(ts, plus_state, np.array([0.5, 0.5])) == 1.0

    def test_null_outcome(self, pauli_z):
        # In ascending term order a = -1 is term 0, and e_0 has no component there: A_0 e_0 = 0.
        ts = make_ideal_transformers(pauli_z)
        with pytest.raises(NullOutcome, match="outcome 0 has probability 0.0"):
            repeat_measurement_check(ts, PureState(basis_vector(2, 0)), np.array([0.5, 0.5]))

    def test_state_of_the_wrong_dimension(self, pauli_z):
        ts = make_ideal_transformers(pauli_z)
        with pytest.raises(DimensionMismatch, match="state dim 3 != observable dim 2"):
            repeat_measurement_check(ts, uniform_superposition(3), np.array([0.5, 0.5]))

    def test_matches_the_dense_ratio_of_each_outcome(self):
        # A_k = U P_k: repeating after outcome k finds term k with probability |P_k A_k psi|² / |A_k psi|².
        rng = np.random.default_rng(21)
        obs = random_observable(4, rng)
        ts = StateTransformerSet(random_unitary(4, rng) @ obs.basis, obs)
        psi = PureState(random_state_vector(4, rng))
        images = [a @ psi.vector for a in transformer_stack(ts)]
        dense = min(np.linalg.norm(p @ v) ** 2 / np.linalg.norm(v) ** 2 for p, v in zip(projectors(obs), images))
        assert dense < 0.9
        assert repeat_measurement_check(ts, psi, probabilities(obs, psi)) == pytest.approx(dense, abs=1e-14)
