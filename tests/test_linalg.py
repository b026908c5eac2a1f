import numpy as np
import pytest

from qmeasure import (
    DimensionMismatch,
    generate_random_instance,
    NotHermitian,
    NotOrthonormal,
    basis_vector,
    complete_isometry,
    dag,
    frob,
    hermitian_eig,
    kron,
    partial_trace,
    random_unitary,
)
from qmeasure import tolerances as tol
from conftest import bell_vector, random_hermitian
from reference import partial_inner, pure_marginal, transformer_stack


def kron_by_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Independent four-index reference for the Kronecker product.
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        got = kron(np.diag([1.0, 2.0]), np.eye(2))
        assert np.allclose(got, np.diag([1.0, 1.0, 2.0, 2.0]))

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.allclose(kron(a, b), kron_by_loops(a, b), atol=1e-14)

    def test_associative(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            a, b, c = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in (2, 3, 2))
            left, right = kron(kron(a, b), c), kron(a, kron(b, c))
            assert np.allclose(left, right, rtol=1e-14, atol=1e-14)


class TestHermitianEig:
    def test_diagonal_matrix(self):
        w, v = hermitian_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(w, [1.0, 2.0, 3.0])
        # eigenvectors are the standard basis, permuted to ascending order
        assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])

    def test_pauli_x(self):
        w, _ = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction_5x5(self):
        h = random_hermitian(5, np.random.default_rng(21))
        w, v = hermitian_eig(h)
        assert np.linalg.norm(v @ np.diag(w) @ dag(v) - h) < 1e-9

    def test_reconstruction_property_dims_2_to_16(self):
        rng = np.random.default_rng(22)
        for dim in range(2, 17):
            h = random_hermitian(dim, rng)
            w, v = hermitian_eig(h)
            bound = 1e-9 * max(1.0, np.linalg.norm(h))
            assert np.linalg.norm(v @ np.diag(w) @ dag(v) - h) < bound
            assert np.linalg.norm(dag(v) @ v - np.eye(dim)) < 1e-9
            assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(31)
        rho = np.diag([0.25, 0.75]).astype(complex)
        u = random_unitary(3, rng)
        sigma = u @ np.diag([0.5, 0.3, 0.2]).astype(complex) @ dag(u)
        assert np.allclose(partial_trace(kron(rho, sigma), (2, 3), keep=0), rho, atol=1e-12)
        assert np.allclose(partial_trace(kron(rho, sigma), (2, 3), keep=1), sigma, atol=1e-12)

    def test_bell_marginal(self):
        rho = np.outer(bell_vector(), bell_vector().conj())
        assert np.allclose(partial_trace(rho, (2, 2), keep=0), np.eye(2) / 2, atol=1e-14)

    def test_matches_loop_reference(self):
        # Explicit four-index sum over a random 3x4 bipartite pure state.
        rng = np.random.default_rng(32)
        psi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        expected = np.zeros((3, 3), dtype=complex)
        for i in range(3):
            for ip in range(3):
                for j in range(4):
                    expected[i, ip] += psi[i * 4 + j] * np.conj(psi[ip * 4 + j])
        assert np.allclose(partial_trace(rho, (3, 4), keep=0), expected, atol=1e-13)

    def test_preserves_trace(self):
        rng = np.random.default_rng(33)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        reduced = partial_trace(m, (2, 3), keep=1)
        assert abs(np.trace(reduced) - np.trace(m)) < 1e-12

    def test_keep_pair_of_factors(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        sigma = np.diag([0.2, 0.8]).astype(complex)
        tau = np.diag([0.9, 0.1]).astype(complex)
        full = kron(kron(rho, sigma), tau)
        assert np.allclose(partial_trace(full, (2, 2, 2), keep=(0, 1)), kron(rho, sigma), atol=1e-13)

    def test_dimension_errors(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(4), (2, 3), keep=0)
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(4), (4,), keep=0)
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(4), (2, 2), keep=2)


def _complex(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestKernelsAgreeWithNumpy:
    """The small-matrix kernels against the numpy and library routes they replace."""

    def test_frob_is_numpy_norm_bit_for_bit(self):
        rng = np.random.default_rng(61)
        base = _complex(rng, 7, 9)
        cases = [base, base.T, base[::2, 1::3], base.real, base.real.T, base.imag[1::2, ::-1], base[3], base[:, 4]]
        cases += [_complex(rng, 3, 4, 5).swapaxes(0, 2), np.zeros((2, 2), dtype=complex), np.arange(6.0)]
        # integer and bool input is cast to float first, as np.linalg.norm does: no overflow, no logical dot
        cases += [np.arange(-3, 7).reshape(2, 5).T, np.array([2**40, 3 * 2**40]), np.array([True, True, False])]
        for x in cases:
            assert frob(x) == float(np.linalg.norm(x)), x.shape
            assert isinstance(frob(x), float)

    def test_pure_marginal_is_the_partial_trace_of_the_outer_product(self):
        rng = np.random.default_rng(62)
        dims = (3, 4, 2)
        vec = _complex(rng, 24)
        rho = np.outer(vec, np.conj(vec))
        for keep in (0, 1, 2, (0, 1), (0, 2), (1, 2)):
            expected = partial_trace(rho, dims, keep=keep)
            assert np.max(np.abs(pure_marginal(vec, dims, keep) - expected)) < 1e-13, keep


class TestPartialInner:
    def test_product_extraction(self):
        v = np.array([0.6, 0.8j, 0.0], dtype=complex)
        psi = kron(basis_vector(2, 0), v)
        assert np.allclose(partial_inner(basis_vector(2, 0), psi, (2, 3)), v)

    def test_orthogonality(self):
        v = np.array([0.6, 0.8j, 0.0], dtype=complex)
        psi = kron(basis_vector(2, 0), v)
        assert np.allclose(partial_inner(basis_vector(2, 1), psi, (2, 3)), np.zeros(3))

    def test_matches_full_inner_products(self):
        rng = np.random.default_rng(41)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        got = partial_inner(a, psi, (3, 4))
        for j in range(4):
            full = np.vdot(kron(a, basis_vector(4, j)), psi)
            assert abs(got[j] - full) < 1e-13

    def test_antilinear_in_left_argument(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        alpha, beta = 0.3 - 1.1j, -0.7 + 0.2j
        combined = partial_inner(alpha * a + beta * b, psi, (3, 2))
        split = np.conj(alpha) * partial_inner(a, psi, (3, 2)) + np.conj(beta) * partial_inner(b, psi, (3, 2))
        assert np.allclose(combined, split, atol=1e-13)

    def test_dimension_error(self):
        with pytest.raises(DimensionMismatch):
            partial_inner(np.ones(2), np.ones(5), (2, 2))


def complete_isometry_by_loops(columns, dim: int) -> np.ndarray:
    # Reference sweep: modified Gram-Schmidt over the standard basis, one
    # accepted vector at a time, twice per candidate.
    basis = [np.asarray(c, dtype=complex) for c in columns]
    for index in range(dim):
        if len(basis) == dim:
            break
        v = basis_vector(dim, index)
        for _ in range(2):
            for b in basis:
                v = v - b * np.vdot(b, v)
        residual = np.linalg.norm(v)
        if residual < tol.GS_SKIP:
            continue
        basis.append(v / residual)
    return np.column_stack(basis)


def dilation_images(seed: int) -> tuple[list[np.ndarray], int]:
    # The columns of the transformer family's isometry: the image of each |i> ⊗ e_0.
    ts = generate_random_instance(seed, 6, 4).transformers
    d, n = ts.observable.dim, ts.n_outcomes
    stack = transformer_stack(ts)
    return [np.stack([a[:, i] for a in stack], axis=1).reshape(-1) for i in range(d)], d * n


class TestCompleteIsometry:
    def test_full_basis_gives_identity(self):
        cols = [basis_vector(3, i) for i in range(3)]
        assert np.allclose(complete_isometry(cols, 3), np.eye(3))

    def test_single_vector_forced_completion(self):
        u = complete_isometry([basis_vector(2, 1)], 2)
        assert np.allclose(u[:, 0], basis_vector(2, 1))
        assert np.allclose(u[:, 1], basis_vector(2, 0))
        assert np.linalg.norm(dag(u) @ u - np.eye(2)) < 1e-10

    def test_random_isometry_completion_is_unitary(self):
        base = random_unitary(8, np.random.default_rng(51))
        cols = [base[:, k] for k in range(3)]
        u = complete_isometry(cols, 8)
        assert np.linalg.norm(dag(u) @ u - np.eye(8)) < 1e-9
        for k in range(3):
            assert np.allclose(u[:, k], cols[k])

    def test_deterministic(self):
        base = random_unitary(6, np.random.default_rng(52))
        cols = [base[:, k] for k in range(2)]
        assert np.array_equal(complete_isometry(cols, 6), complete_isometry(cols, 6))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(NotOrthonormal):
            complete_isometry([np.array([1.0, 1.0], dtype=complex)], 2)
        with pytest.raises(NotOrthonormal):
            complete_isometry([basis_vector(2, 0), np.array([1.0, 1e-3], dtype=complex)], 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_loop_sweep(self, seed):
        # The block projection sums in another order than the loop, so
        # completion columns agree to a tolerance fixed from double precision.
        if seed < 4:
            cols, dim = dilation_images(seed)  # many candidates are skipped
        else:
            dim = 3 * seed
            base = random_unitary(dim, np.random.default_rng(seed))
            cols = [base[:, k] for k in range(seed - 3)]
        u, reference = complete_isometry(cols, dim), complete_isometry_by_loops(cols, dim)
        assert np.array_equal(u[:, : len(cols)], np.column_stack(cols))
        assert np.max(np.abs(u - reference)) < 1e-12
