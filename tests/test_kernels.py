"""Factor kernels against the dense lifted operators they replace.

Each kernel acts on the first tensor factor, or on a component set, without
forming a product-space operator. ``reference.apply_on_factor``, which acts
on any one factor, is checked here too, since the tests build on it. The
references below build the product-space operator explicitly (``kron``,
``embed_observable``, ``luders_update``, ``partial_trace`` of an outer
product, ``eigvalsh`` of the whole outer product) and must agree with the
kernel.
"""

import sys
from collections import Counter
from functools import reduce

import numpy as np
import pytest

import qmeasure

from qmeasure import (
    DensityOperator,
    DimensionMismatch,
    PureState,
    evolve,
    generate_random_instance,
    kron,
    lifted_incompatibility_entropy,
    low_rank_commutator_norm,
    make_ideal_transformers,
    observable_from_matrix,
    partial_trace,
    random_state_vector,
    random_unitary,
    read_pointer_tripartite,
    run_pipeline,
    schmidt_decompose,
    shannon_entropy,
    verify_definite_values,
)
from conftest import random_hermitian
from reference import (
    apply_on_factor,
    dense_incompatibility,
    luders_update,
    projectors,
    pure_marginal,
    reduced_states,
    von_neumann_entropy,
)

# Set before the tests were run: a few roundings of O(1) entries.
KERNEL_TOL = 1e-13
# Entropies pass through two eigensolvers of different sizes.
ENTROPY_TOL = 1e-12

TRI_DIMS = (3, 4, 2)


def lifted(op: np.ndarray, dims: tuple[int, ...], factor: int) -> np.ndarray:
    factors = [np.eye(d, dtype=complex) for d in dims]
    factors[factor] = op
    return reduce(kron, factors)


def dense_entropy(m: np.ndarray) -> float:
    """Entropy in bits of the eigvalsh spectrum of a dense matrix, weights below 1e-12 dropped."""
    w = np.linalg.eigvalsh(m)
    w = w[w > 1e-12]
    return float(-np.sum(w * np.log2(w)))


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


class TestStackedApplyOnFactor:
    """Operators of a (K, d_f, d_f) stack one at a time against the lifted operators; the stack itself is rejected."""

    @pytest.mark.parametrize("factor", [0, 1, 2])
    @pytest.mark.parametrize("shape", [(24,), (24, 5)])
    def test_matches_the_loop_and_the_lifted_operators(self, factor, shape):
        rng = np.random.default_rng(330 + factor)
        d = TRI_DIMS[factor]
        stack = np.array([random_hermitian(d, rng) + 1j * random_hermitian(d, rng) for _ in range(4)])
        vec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for op in stack:
            out = apply_on_factor(op, vec, TRI_DIMS, factor)
            assert out.shape == shape
            assert np.linalg.norm(out - lifted(op, TRI_DIMS, factor) @ vec) < KERNEL_TOL
        with pytest.raises(DimensionMismatch):
            apply_on_factor(stack, vec, TRI_DIMS, factor)

    @pytest.mark.parametrize("op_shape", [(4, 4, 4), (4, 3, 4), (2, 4, 3, 3), (3,), (4, 3, 3)])
    def test_rejects_a_stack_of_the_wrong_shape_or_a_4d_operator(self, op_shape):
        # factor 0 of TRI_DIMS has dimension 3
        with pytest.raises(DimensionMismatch):
            apply_on_factor(np.zeros(op_shape), np.ones(24), TRI_DIMS, 0)


class TestKernelCounts:
    def test_kernel_calls_per_run_do_not_grow_with_the_outcome_count(self, monkeypatch):
        # Each sum over outcomes is one stacked product, so a run with 6 outcomes
        # makes as many kernel calls as one with 2.
        counts = Counter()
        namespaces = [m for name, m in sys.modules.items() if name == "qmeasure" or name.startswith("qmeasure.")]
        for name in ("low_rank_commutator_norm", "read_pointer_tripartite"):
            original = getattr(qmeasure, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module in namespaces:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, spy)

        per_run = {}
        for seed, n in ((3, 2), (4, 6)):
            scenario = generate_random_instance(seed, 16, 6)
            assert scenario.observable.n_outcomes == n
            counts.clear()
            report = run_pipeline(scenario)
            assert report.overall_pass and not report.not_applicable
            per_run[n] = dict(counts)
        assert per_run[2]["low_rank_commutator_norm"] > 0 and per_run[2]["read_pointer_tripartite"] > 0
        assert per_run[2] == per_run[6]


class TestFirstFactorKernels:
    @pytest.mark.parametrize("rows", [7, 10, 1])
    def test_reject_a_row_count_that_the_observable_does_not_divide(self, rows):
        # rows × 3 entries always reshape to (3, -1), so only the row count shows the mismatch.
        obs = observable_from_matrix(random_hermitian(3, np.random.default_rng(340)))
        w = np.ones((rows, 3), dtype=complex) / np.sqrt(3 * rows)
        with pytest.raises(DimensionMismatch, match="not the first factor"):
            low_rank_commutator_norm(obs, w)
        with pytest.raises(DimensionMismatch, match="not the first factor"):
            lifted_incompatibility_entropy(obs, w[:, 0] * np.sqrt(3))

    def test_act_on_the_first_factor_of_a_tripartite_vector(self):
        # The object factor first, then two others read as one: the same as the dense route on factor 0.
        rng = np.random.default_rng(341)
        obs = observable_from_matrix(random_hermitian(TRI_DIMS[0], rng))
        v = random_state_vector(int(np.prod(TRI_DIMS)), rng)
        rho = np.outer(v, np.conj(v))
        x = lifted(obs.matrix(), TRI_DIMS, 0)
        assert abs(low_rank_commutator_norm(obs, v[:, None]) - np.linalg.norm(x @ rho - rho @ x)) < KERNEL_TOL
        assert abs(lifted_incompatibility_entropy(obs, v) - dense_incompatibility(obs, v, TRI_DIMS)) < ENTROPY_TOL


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


class TestBranchWeightRoute:
    """The incompatibility entropy from the branch weights ||V_k† v||² against the dense Lüders update."""

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_dense_luders_in_final_and_tripartite_vectors(self, seed):
        scenario = generate_random_instance(seed, 6, 4)
        obs, psi = scenario.observable, scenario.initial_state
        ts = scenario.transformers
        final = evolve(ts, psi)
        tri, dims3 = read_pointer_tripartite(final, ts)

        dims = ts.composite_dims
        assert abs(lifted_incompatibility_entropy(obs, final) - dense_incompatibility(obs, final, dims)) < ENTROPY_TOL
        assert abs(lifted_incompatibility_entropy(obs, tri) - dense_incompatibility(obs, tri, dims3)) < ENTROPY_TOL
        pure = DensityOperator(np.outer(psi.vector, np.conj(psi.vector)))
        initial = von_neumann_entropy(luders_update(obs, psi)) - von_neumann_entropy(pure)
        assert abs(lifted_incompatibility_entropy(obs, psi.vector) - initial) < ENTROPY_TOL


class TestBipartiteRoute:
    """Analyses of the final vector from its reshaped matrix, against |Ψ><Ψ| and partial_trace."""

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_the_outer_product_route(self, seed):
        scenario = generate_random_instance(seed, 6, 4)
        ts = scenario.transformers
        final = evolve(ts, scenario.initial_state)
        dims = ts.composite_dims
        rho = np.outer(final, np.conj(final))
        rho1, rho2 = partial_trace(rho, dims, 0), partial_trace(rho, dims, 1)

        s1 = run_pipeline(scenario).entropies["s1"]  # H of the squared Schmidt coefficients
        dense_s1, dense_s2, dense_s12 = dense_entropy(rho1), dense_entropy(rho2), dense_entropy(rho)
        assert abs(s1 - dense_s1) < ENTROPY_TOL
        assert abs(s1 - dense_s2) < ENTROPY_TOL  # both marginals of a pure vector share their spectrum
        assert abs(dense_s12) < ENTROPY_TOL  # the pure vector itself
        assert abs(dense_s1 + dense_s2 - dense_s12 - 2.0 * s1) < ENTROPY_TOL  # the mutual information

        marginals = reduced_states(final, dims)
        assert np.linalg.norm(marginals[0].matrix - rho1) < KERNEL_TOL
        assert np.linalg.norm(marginals[1].matrix - rho2) < KERNEL_TOL

        weights = np.sort(np.linalg.eigvalsh(rho1))[::-1]
        expected = np.sqrt(weights[weights > 1e-12])
        coefficients = schmidt_decompose(final, dims).coefficients
        assert coefficients.shape == expected.shape
        assert np.max(np.abs(coefficients - expected)) < KERNEL_TOL

    def test_takes_the_spectrum_of_a_non_diagonal_gram_matrix(self):
        # Two non-orthogonal components with weights 0.6 and 0.4, at 60 degrees, as the columns of a
        # 3 × 2 matrix M: the Schmidt form takes the spectrum of the 2 × 2 Gram matrix M†M.
        u = np.array([1.0, 0.0, 0.0], dtype=complex)
        w = np.array([0.5, np.sqrt(3) / 2, 0.0], dtype=complex)
        components = np.column_stack([np.sqrt(0.6) * u, np.sqrt(0.4) * w])
        gram = np.conj(components).T @ components
        assert abs(gram[0, 1]) > 0.2

        dense = von_neumann_entropy(components @ np.conj(components).T)
        weights_only = -sum(p * np.log2(p) for p in (0.6, 0.4))
        from_gram = shannon_entropy(schmidt_decompose(components.reshape(-1), (3, 2)).coefficients ** 2)
        assert abs(from_gram - dense) < ENTROPY_TOL
        assert abs(from_gram - weights_only) > 0.1

    @pytest.mark.parametrize("n", [2, 3])
    def test_degenerate_split_matches_the_joint_kron_projectors(self, n):
        # Equal Born weights give one degenerate Schmidt group; the eigenbasis of
        # the marginal I/n is oblique to the rotated observable, so the group is split.
        u = random_unitary(n, np.random.default_rng(320 + n))
        obs = observable_from_matrix(u @ np.diag(np.arange(1.0, n + 1)) @ np.conj(u).T)
        ts = make_ideal_transformers(obs)
        final = evolve(ts, PureState(u @ np.full(n, 1 / np.sqrt(n))))
        sf = schmidt_decompose(final, ts.composite_dims)
        report = verify_definite_values(sf, obs, ts.pointer_observable)
        assert report.schmidt_form is not sf

        aligned = report.schmidt_form
        for c, left, right, k in zip(aligned.coefficients, aligned.lefts.T, aligned.rights.T, report.outcomes):
            joint = kron(projectors(obs)[k], projectors(ts.pointer_observable)[k])
            assert np.linalg.norm(c * kron(left, right) - joint @ final) < KERNEL_TOL
