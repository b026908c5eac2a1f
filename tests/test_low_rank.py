"""The dilation's isometry and the post-reading factor against the dense D×D routes they replace.

``evolve`` applies the transformer stack as the dilation's D×d isometry
|v> -> sum_k A_k|v> ⊗ e_k, and every commutator norm comes from the QR factorisation of a matrix W
with state W W†: the D×K post-reading factor, psi as d×1, and the final vector's matrix M and Mᵀ
for its two marginals. The observable acts on the first factor of W's rows; for the pointer of the
post-reading factor the rows are read pointer first, a permutation that keeps the norm. The
references complete the D×D unitary and build the dense states.
"""

import tracemalloc

import numpy as np
import pytest

from qmeasure import (
    NotADistribution,
    NotDensityOperator,
    NotOrthonormal,
    PureState,
    basis_vector,
    check_orthonormal_columns,
    dag,
    evolve,
    frob,
    generate_random_instance,
    kron,
    low_rank_commutator_norm,
    observable_from_matrix,
    random_state_vector,
    read_pointer_tripartite,
    run_pipeline,
)
from qmeasure import pipeline as pipeline_module
from conftest import random_hermitian
from reference import commutator_norm, completed_unitary, lifted_commutator_norm, post_reading_state, reduced_states

# Set before the tests were run. The QR route and the dense route round
# differently; both stay within a few ulps of the size of the commutator's terms.
RELATIVE_TOL = 1e-12
SEEDED = [(s, 6, 4) for s in range(40)] + [(s, 16, 6) for s in range(10)]


def factor_first(w: np.ndarray, dims: tuple[int, int], factor: int) -> np.ndarray:
    """The rows of W, indexed (factor 0, factor 1), reordered so that ``factor`` comes first."""
    return np.moveaxis(w.reshape(*dims, -1), factor, 0).reshape(w.shape)


def dense_commutator(obs, w: np.ndarray, dims: tuple[int, int], factor: int) -> float:
    """||[obs ⊗ 1, rho_12]||_F from the D×D post-reading state."""
    rho12 = post_reading_state(w.reshape(-1), (*dims, w.shape[1]))
    return lifted_commutator_norm(obs, rho12, dims, factor)


def term_scale(obs, w: np.ndarray) -> float:
    """||X||_F ||W W†||_F, the size of the terms of [X, W W†]; ||W W†||_F = ||W†W||_F."""
    return frob(obs.matrix()) * frob(dag(w) @ w)


def seeded_reading(seed: int, d1_max: int, outcomes_max: int):
    scenario = generate_random_instance(seed, d1_max, outcomes_max)
    ts = scenario.transformers
    tri, (d1, d2, d3) = read_pointer_tripartite(evolve(ts, scenario.initial_state), ts)
    return scenario, ts, tri.reshape(d1 * d2, d3)


class TestLowRankCommutator:
    def test_matches_the_dense_route_on_random_noncommuting_cases(self):
        rng = np.random.default_rng(600)
        for case in range(240):
            dims = tuple(int(x) for x in rng.integers(2, 6, size=2))
            total = dims[0] * dims[1]
            k = int(rng.integers(1, total + 1))  # K > D/2 makes [W, XW] wider than tall
            w = rng.standard_normal((total, k)) + 1j * rng.standard_normal((total, k))
            w /= frob(w)
            factor = case % 2
            obs = observable_from_matrix(random_hermitian(dims[factor], rng))
            dense = dense_commutator(obs, w, dims, factor)
            assert dense > 1e-3 * term_scale(obs, w), case  # the pair does not commute
            low_rank = low_rank_commutator_norm(obs, factor_first(w, dims, factor))
            assert abs(low_rank - dense) <= RELATIVE_TOL * dense, case

    @pytest.mark.parametrize("seed,d1_max,outcomes_max", SEEDED)
    def test_matches_the_dense_route_on_seeded_readings(self, seed, d1_max, outcomes_max):
        scenario, ts, w = seeded_reading(seed, d1_max, outcomes_max)
        dims = ts.composite_dims
        # The measured observables commute with rho_12: both routes return rounding noise.
        for obs, factor in ((scenario.observable, 0), (ts.pointer_observable, 1)):
            low_rank = low_rank_commutator_norm(obs, factor_first(w, dims, factor))
            gap = abs(low_rank - dense_commutator(obs, w, dims, factor))
            assert gap <= RELATIVE_TOL * term_scale(obs, w)
        # An unrelated object observable does not commute with it.
        other = observable_from_matrix(random_hermitian(dims[0], np.random.default_rng(seed)))
        dense = dense_commutator(other, w, dims, 0)
        assert abs(low_rank_commutator_norm(other, w) - dense) <= RELATIVE_TOL * dense
        # The pipeline's other inputs: psi as d×1 for [A, psi psi†], and the final vector's d×n matrix M
        # for rho_1 = M M† and its transpose for rho_2 = Mᵀ (Mᵀ)†, against the dense d×d and n×n routes.
        psi = scenario.initial_state
        final = evolve(ts, psi)
        m = final.reshape(dims)
        rho1, rho2 = reduced_states(final, dims)
        for obs, w, state in (
            (scenario.observable, psi.vector[:, None], psi),
            (scenario.observable, m, rho1),
            (ts.pointer_observable, m.T, rho2),
        ):
            low_rank = low_rank_commutator_norm(obs, w)
            assert abs(low_rank - commutator_norm(obs, state)) <= RELATIVE_TOL * term_scale(obs, w)

    def test_pipeline_checks_the_reading_as_a_state_before_its_commutators(self):
        # W†W is the conjugate of the reader marginal, whose spectrum pointer_reading_marginals checks as a
        # distribution before pointer_reading_commutators runs; a failure there ends the run.
        scenario = generate_random_instance(4, 6, 4)
        run = pipeline_module._Run(scenario)
        tri, dims3 = run.reading
        run.__dict__["reading"] = (1.1 * tri, dims3)  # trace 1.21
        with pytest.raises(NotDensityOperator):
            post_reading_state(1.1 * tri, dims3)
        with pytest.raises(NotADistribution):
            pipeline_module._pointer_reading_marginals(run)


class TestIsometryRoute:
    @pytest.mark.parametrize("seed", range(12))
    def test_evolve_matches_the_completed_unitary(self, seed):
        scenario = generate_random_instance(seed, 8, 4)
        ts = scenario.transformers
        psi = scenario.initial_state
        for vector in (psi.vector, random_state_vector(psi.dim, np.random.default_rng(seed))):
            state = PureState(vector)
            expected = completed_unitary(ts) @ kron(state.vector, basis_vector(ts.n_outcomes, 0))
            assert frob(evolve(ts, state) - expected) < 1e-14

    @pytest.mark.parametrize("seed", range(12))
    def test_completed_unitary_is_unitary_and_keeps_the_isometry(self, seed):
        ts = generate_random_instance(seed, 8, 4).transformers
        d, n = ts.composite_dims
        u = completed_unitary(ts)
        assert frob(dag(u) @ u - np.eye(u.shape[0])) < 1e-9
        # the image of |i> ⊗ e_0, at composite index i * n, is what evolve gives for |i>
        images = np.column_stack([evolve(ts, PureState(basis_vector(d, i))) for i in range(d)])
        assert frob(u[:, ::n] - images) < 1e-14

    def test_orthonormality_check_names_the_first_failing_pair(self):
        m = np.eye(4, 3, dtype=complex)
        m[:, 2] += 1e-3 * m[:, 0]  # pair (0, 2) fails
        with pytest.raises(NotOrthonormal, match="columns 0 and 2"):
            check_orthonormal_columns(m)
        m[:, 1] *= 1.01  # pair (1, 1) fails, and i = 1 comes before i = 2
        with pytest.raises(NotOrthonormal, match="columns 1 and 1"):
            check_orthonormal_columns(m)
        check_orthonormal_columns(np.eye(4, 3, dtype=complex))


def test_seed_0_at_d1_max_128_stays_within_1_9_mib():
    # d = 110 with 11 outcomes (D = 1210). A D×D unitary alone takes 22 MiB;
    # the dense route peaks at 114 MiB here. The factor route peaks at 1.5 MiB
    # with the instrument as an eigenbasis and its blocks (the bound is that
    # plus 25 %), at 4.7 MiB with the
    # K×d×d projector and transformer stacks, at 6.8 MiB with a D×d isometry
    # copied from the transformer stack, and at 14 MiB when the K d×d products
    # of each per-outcome loop were stacked.
    scenario = generate_random_instance(0, 128, 16)
    assert (scenario.observable.dim, scenario.observable.n_outcomes) == (110, 11)
    tracemalloc.start()
    try:
        report = run_pipeline(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.error is None and report.overall_pass
    assert peak < 1.9 * 2**20


def test_seed_0_at_d1_max_256_peaks_below_one_k_by_d_by_d_stack():
    # d = 218 with 16 outcomes. One K×d×d complex stack takes 16·K·d² B = 11.6 MiB;
    # the run peaked at 24.2 MiB with its projector and transformer stacks, and
    # peaks at 5.7 MiB with two d × d matrices in their place.
    scenario = generate_random_instance(0, 256, 24)
    d, k = scenario.observable.dim, scenario.observable.n_outcomes
    assert (d, k) == (218, 16)
    tracemalloc.start()
    try:
        report = run_pipeline(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.error is None and report.overall_pass
    assert peak < 16 * k * d**2
