"""Factor kernels against the dense lifted operators they replace.

Each kernel acts on one tensor factor, or on a component set, without
forming a product-space operator. The references below build that operator
explicitly (``kron``, ``embed_observable``, ``luders_update``,
``partial_trace`` of an outer product) and must agree with the kernel.
"""

from functools import reduce

import numpy as np
import pytest

from qmeasure import (
    DensityOperator,
    DimensionMismatch,
    PureState,
    apply_on_factor,
    dilate,
    embed_observable,
    evolve,
    generate_random_instance,
    incompatibility_entropy,
    kron,
    lifted_incompatibility_entropy,
    luders_update,
    partial_trace,
    pure_marginal,
    random_state_vector,
    read_pointer_tripartite,
    von_neumann_entropy,
)
from qmeasure.information import _gram_entropy
from conftest import random_hermitian

# Set before the tests were run: a few roundings of O(1) entries.
KERNEL_TOL = 1e-13
# Entropies pass through two eigensolvers of different sizes.
ENTROPY_TOL = 1e-12

TRI_DIMS = (3, 4, 2)


def lifted(op: np.ndarray, dims: tuple[int, ...], factor: int) -> np.ndarray:
    factors = [np.eye(d, dtype=complex) for d in dims]
    factors[factor] = op
    return reduce(kron, factors)


def dense_incompatibility(obs, vector: np.ndarray, dims: tuple[int, ...]) -> float:
    """Lüders-update entropy of the dense lifted observable, minus the pure-state term."""
    state = PureState(vector)
    after = luders_update(embed_observable(obs, dims, 0), state)
    return von_neumann_entropy(after) - von_neumann_entropy(DensityOperator.from_pure(state))


class TestApplyOnFactor:
    @pytest.mark.parametrize("factor", [0, 1, 2])
    def test_matches_kron_on_each_factor(self, factor):
        rng = np.random.default_rng(300 + factor)
        op = random_hermitian(TRI_DIMS[factor], rng) + 1j * random_hermitian(TRI_DIMS[factor], rng)
        v = random_state_vector(int(np.prod(TRI_DIMS)), rng)
        expected = lifted(op, TRI_DIMS, factor) @ v
        assert np.linalg.norm(apply_on_factor(op, v, TRI_DIMS, factor) - expected) < KERNEL_TOL

    def test_acts_on_every_column_of_a_matrix(self):
        rng = np.random.default_rng(303)
        op = random_hermitian(4, rng)
        m = rng.standard_normal((24, 5)) + 1j * rng.standard_normal((24, 5))
        expected = lifted(op, TRI_DIMS, 1) @ m
        assert np.linalg.norm(apply_on_factor(op, m, TRI_DIMS, 1) - expected) < KERNEL_TOL

    @pytest.mark.parametrize(
        "op_dim, dims, factor",
        [
            (3, TRI_DIMS, 3),  # no such factor
            (3, TRI_DIMS, -1),
            (4, TRI_DIMS, 0),  # operator does not fit the factor
            (3, (3, 4, 3), 0),  # dims do not factor the vector
        ],
    )
    def test_bad_factor_or_dims(self, op_dim, dims, factor):
        with pytest.raises(DimensionMismatch):
            apply_on_factor(np.eye(op_dim), np.ones(24), dims, factor)


class TestPureMarginal:
    @pytest.mark.parametrize("keep", [0, 1, 2, (0, 1), (0, 2), (1, 2)])
    def test_matches_partial_trace_of_outer(self, keep):
        v = random_state_vector(24, np.random.default_rng(310)) * 0.7  # unnormalised on purpose
        expected = partial_trace(np.outer(v, np.conj(v)), TRI_DIMS, keep)
        assert np.linalg.norm(pure_marginal(v, TRI_DIMS, keep) - expected) < KERNEL_TOL

    @pytest.mark.parametrize("dims, keep", [((3, 4, 3), 0), (TRI_DIMS, 3), (TRI_DIMS, (1, 1))])
    def test_bad_structure_or_keep(self, dims, keep):
        with pytest.raises(DimensionMismatch):
            pure_marginal(np.ones(24), dims, keep)


class TestGramRoute:
    @pytest.mark.parametrize("seed", range(50))
    def test_matches_dense_luders_in_final_and_tripartite_vectors(self, seed):
        scenario = generate_random_instance(seed, 6, 4)
        obs, psi = scenario.observable, scenario.initial_state
        model = dilate(scenario.build_transformers())
        final = evolve(model, psi)
        tri, dims3 = read_pointer_tripartite(final, model)

        dims = model.composite_dims
        assert abs(lifted_incompatibility_entropy(obs, final, dims, 0) - dense_incompatibility(obs, final, dims)) < ENTROPY_TOL
        assert abs(lifted_incompatibility_entropy(obs, tri, dims3, 0) - dense_incompatibility(obs, tri, dims3)) < ENTROPY_TOL
        initial = von_neumann_entropy(luders_update(obs, psi)) - von_neumann_entropy(DensityOperator.from_pure(psi))
        assert abs(incompatibility_entropy(obs, psi) - initial) < ENTROPY_TOL

    def test_takes_the_spectrum_of_a_non_diagonal_gram_matrix(self):
        # Two non-orthogonal components with weights 0.6 and 0.4, at 60 degrees.
        u = np.array([1.0, 0.0, 0.0], dtype=complex)
        w = np.array([0.5, np.sqrt(3) / 2, 0.0], dtype=complex)
        components = np.column_stack([np.sqrt(0.6) * u, np.sqrt(0.4) * w])
        gram = np.conj(components).T @ components
        assert abs(gram[0, 1]) > 0.2

        dense = von_neumann_entropy(components @ np.conj(components).T)
        weights_only = -sum(p * np.log2(p) for p in (0.6, 0.4))
        assert abs(_gram_entropy(components) - dense) < ENTROPY_TOL
        assert abs(_gram_entropy(components) - weights_only) > 0.1
