import numpy as np
import pytest

from qmeasure import (
    NoDefiniteValue,
    NotNormalized,
    PureState,
    basis_vector,
    dag,
    evolve,
    kron,
    make_ideal_transformers,
    make_repeatable_transformers,
    observable_from_matrix,
    random_state_vector,
    reconstruct,
    schmidt_decompose,
    uniform_superposition,
    verify_definite_values,
)
from conftest import bell_vector, random_hermitian
from reference import classify_outcomes, index_matrix, reduced_states


def random_bipartite(d1, d2, rng):
    return random_state_vector(d1 * d2, rng)


def twin_matrix(vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The twin observable sum_t a_t |x_t><x_t| over the columns x_t of ``vectors``."""
    return (vectors * values) @ dag(vectors)


class TestSchmidtDecompose:
    def test_product_vector(self):
        rng = np.random.default_rng(61)
        v = random_state_vector(3, rng)
        w = random_state_vector(4, rng)
        sf = schmidt_decompose(kron(v, w), (3, 4))
        assert sf.coefficients.size == 1
        assert sf.coefficients[0] == pytest.approx(1.0, abs=1e-12)

    def test_bell_state(self):
        sf = schmidt_decompose(bell_vector(), (2, 2))
        assert np.allclose(sf.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_coefficients_match_independent_eigensolve(self):
        # Oracle: form the reduced matrix with explicit loops, then use an
        # eigensolve on that independently assembled 3x3 matrix.
        rng = np.random.default_rng(62)
        psi = random_bipartite(3, 4, rng)
        reduced = np.zeros((3, 3), dtype=complex)
        for i in range(3):
            for ip in range(3):
                for j in range(4):
                    reduced[i, ip] += psi[i * 4 + j] * np.conj(psi[ip * 4 + j])
        expected = np.sort(np.linalg.eigvalsh(reduced))[::-1]
        sf = schmidt_decompose(psi, (3, 4))
        assert np.allclose(sf.coefficients**2, expected[: sf.coefficients.size], atol=1e-12)

    def test_vector_families_are_orthonormal(self):
        rng = np.random.default_rng(63)
        psi = random_bipartite(4, 5, rng)
        sf = schmidt_decompose(psi, (4, 5))
        for vectors in (sf.lefts, sf.rights):
            gram = np.array([[np.vdot(a, b) for b in vectors.T] for a in vectors.T])
            assert np.allclose(gram, np.eye(vectors.shape[1]), atol=1e-9)

    def test_phase_convention(self):
        rng = np.random.default_rng(64)
        psi = random_bipartite(3, 3, rng)
        sf = schmidt_decompose(psi, (3, 3))
        for left in sf.lefts.T:
            pivot = left[np.abs(left) > 1e-8][0]
            assert abs(pivot.imag) < 1e-12 and pivot.real > 0

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            schmidt_decompose(np.ones(4, dtype=complex), (2, 2))


class TestReconstruct:
    def test_round_trip_random(self):
        rng = np.random.default_rng(65)
        for d1 in range(2, 6):
            for d2 in range(2, 7):
                psi = random_bipartite(d1, d2, rng)
                sf = schmidt_decompose(psi, (d1, d2))
                overlap = abs(np.vdot(psi, reconstruct(sf)))
                assert overlap > 1.0 - 1e-9

    def test_single_term_is_exact_product(self):
        v = basis_vector(2, 1)
        w = np.array([0.6, 0.8], dtype=complex)
        sf = schmidt_decompose(kron(v, w), (2, 2))
        rec = reconstruct(sf)
        assert np.allclose(rec, kron(v, w) * np.sign(np.vdot(kron(v, w), rec).real), atol=1e-12)

    def test_bell_up_to_phase(self):
        sf = schmidt_decompose(bell_vector(), (2, 2))
        overlap = abs(np.vdot(bell_vector(), reconstruct(sf)))
        assert overlap == pytest.approx(1.0, abs=1e-12)


class TestReducedStates:
    def test_product_vector(self):
        rng = np.random.default_rng(66)
        v = random_state_vector(2, rng)
        w = random_state_vector(3, rng)
        rho1, rho2 = reduced_states(kron(v, w), (2, 3))
        assert np.allclose(rho1.matrix, np.outer(v, v.conj()), atol=1e-12)
        assert np.allclose(rho2.matrix, np.outer(w, w.conj()), atol=1e-12)

    def test_bell_state(self):
        rho1, rho2 = reduced_states(bell_vector(), (2, 2))
        assert np.allclose(rho1.matrix, np.eye(2) / 2, atol=1e-12)
        assert np.allclose(rho2.matrix, np.eye(2) / 2, atol=1e-12)

    def test_first_marginal_matches_own_schmidt_form(self):
        rng = np.random.default_rng(67)
        psi = random_bipartite(3, 4, rng)
        sf = schmidt_decompose(psi, (3, 4))
        expected = np.zeros((3, 3), dtype=complex)
        for c, left in zip(sf.coefficients, sf.lefts.T):
            expected += c**2 * np.outer(left, left.conj())
        rho1, _ = reduced_states(psi, (3, 4))
        assert np.linalg.norm(rho1.matrix - expected) < 1e-9

    def test_marginal_spectra_agree(self):
        rng = np.random.default_rng(68)
        for _ in range(5):
            psi = random_bipartite(3, 5, rng)
            rho1, rho2 = reduced_states(psi, (3, 5))
            w1 = np.sort(np.linalg.eigvalsh(rho1.matrix))[::-1]
            w2 = np.sort(np.linalg.eigvalsh(rho2.matrix))[::-1]
            keep = w1 > 1e-12
            assert np.allclose(w1[keep], w2[: keep.sum()], atol=1e-9)


class TestDefiniteValues:
    def test_ideal_z_on_plus(self, pauli_z, plus_state):
        ts = make_ideal_transformers(pauli_z)
        final = evolve(ts, plus_state)
        sf = schmidt_decompose(final, (2, 2))
        report = verify_definite_values(sf, pauli_z, ts.pointer_observable)
        assert report.max_left_violation < 1e-12
        assert report.max_right_violation < 1e-12
        pointer_values = np.diag(index_matrix(ts.pointer_observable)).real
        pairs = {((-1.0, 1.0)[k], pointer_values[k]) for k in report.outcomes}  # Z's eigenvalues, ascending
        assert pairs == {(1.0, 1.0), (-1.0, 0.0)}

    def test_random_repeatable_pipeline(self):
        rng = np.random.default_rng(69)
        obs = observable_from_matrix(random_hermitian(4, rng))
        ts = make_repeatable_transformers(obs, 8)
        psi = PureState(random_state_vector(4, rng))
        final = evolve(ts, psi)
        sf = schmidt_decompose(final, ts.composite_dims)
        report = verify_definite_values(sf, obs, ts.pointer_observable)
        assert max(report.max_left_violation, report.max_right_violation) < 1e-9
        terms = report.outcomes.tolist()
        assert len(terms) == len(set(terms))  # bijection
        for array in (report.outcomes, sf.lefts, sf.rights, report.schmidt_form.lefts, report.schmidt_form.rights):
            assert not array.flags.writeable
        detectable, _ = classify_outcomes(obs, psi)
        assert sf.coefficients.size == len(detectable)
        assert sorted(terms) == list(detectable)

    def test_swap_family_has_no_definite_values(self, swap_transformers, plus_state):
        final = evolve(swap_transformers, plus_state)
        sf = schmidt_decompose(final, (2, 2))
        with pytest.raises(NoDefiniteValue):
            verify_definite_values(sf, swap_transformers.observable, swap_transformers.pointer_observable)

    def test_degenerate_group_is_rotated_into_alignment(self):
        # measuring X on a basis state gives marginal I/2, whose numerically
        # chosen eigenbasis is oblique to the X eigenvectors; the matching
        # must rotate the degenerate pair instead of rejecting it
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        x_obs = observable_from_matrix(x)
        ts = make_ideal_transformers(x_obs)
        final = evolve(ts, PureState(basis_vector(2, 0)))
        sf = schmidt_decompose(final, (2, 2))
        report = verify_definite_values(sf, x_obs, ts.pointer_observable)
        aligned = report.schmidt_form
        assert max(report.max_left_violation, report.max_right_violation) < 1e-9
        assert sorted(report.outcomes.tolist()) == [0, 1]
        assert np.allclose(aligned.coefficients, [np.sqrt(0.5)] * 2, atol=1e-12)
        # the aligned form still reconstructs the original vector
        rebuilt = sum(
            c * kron(l, r)
            for c, l, r in zip(aligned.coefficients, aligned.lefts.T, aligned.rights.T)
        )
        assert abs(abs(np.vdot(final, rebuilt)) - 1.0) < 1e-12
        a = np.array([-1.0, 1.0])[report.outcomes]
        assert np.allclose(twin_matrix(aligned.lefts, a), x, atol=1e-9)


class TestTwinObservables:
    def test_ideal_z_recovers_z(self, pauli_z, plus_state):
        ts = make_ideal_transformers(pauli_z)
        final = evolve(ts, plus_state)
        sf = schmidt_decompose(final, (2, 2))
        report = verify_definite_values(sf, pauli_z, ts.pointer_observable)
        a = np.array([-1.0, 1.0])[report.outcomes]
        assert np.allclose(twin_matrix(report.schmidt_form.lefts, a), np.diag([1.0, -1.0]), atol=1e-12)

    def test_degenerate_observable_gets_rank_one_terms(self, degenerate_observable):
        ts = make_ideal_transformers(degenerate_observable)
        psi = uniform_superposition(3)
        final = evolve(ts, psi)
        sf = schmidt_decompose(final, ts.composite_dims)
        report = verify_definite_values(sf, degenerate_observable, ts.pointer_observable)
        lefts, a = report.schmidt_form.lefts, np.array([2.0, 5.0])[report.outcomes]
        assert lefts.shape == (3, 2)  # one rank-one term per Schmidt term
        assert sorted(a) == [2.0, 5.0]
        # diagonal in the Schmidt vectors
        a_mat = twin_matrix(lefts, a)
        for value, left in zip(a, lefts.T):
            assert np.linalg.norm(a_mat @ left - value * left) < 1e-9

    def test_commutes_with_first_marginal(self, degenerate_observable):
        ts = make_repeatable_transformers(degenerate_observable, 4)
        psi = uniform_superposition(3)
        final = evolve(ts, psi)
        sf = schmidt_decompose(final, ts.composite_dims)
        report = verify_definite_values(sf, degenerate_observable, ts.pointer_observable)
        a = np.array([2.0, 5.0])[report.outcomes]
        rho1, _ = reduced_states(final, ts.composite_dims)
        a_mat = twin_matrix(report.schmidt_form.lefts, a)
        assert np.linalg.norm(a_mat @ rho1.matrix - rho1.matrix @ a_mat) < 1e-10
