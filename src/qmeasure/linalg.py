"""Dense complex linear algebra for small quantum systems.

Everything operates on plain numpy arrays of complex dtype. Factor
dimensions are small (tens), but composite spaces are their products and
reach thousands after a pointer reading. Operators that act on one factor
are therefore applied to that factor of a vector (``apply_on_factor``), and
marginals of pure vectors are taken from the reshaped vector
(``pure_marginal``), so no product-space operator is built. All functions
are pure; nothing mutates its arguments.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, NotHermitian, NotNormalized, NotOrthonormal

# An ordered list of subsystem dimensions annotating a composite vector or
# matrix: (d1, d2) for bipartite objects, (d1, d2, d3) for tripartite ones.
TensorStructure = tuple[int, ...]


def dag(m: np.ndarray) -> np.ndarray:
    """Hermitian adjoint."""
    return np.conj(m).T


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m†)/2, which removes rounding asymmetry."""
    return (m + dag(m)) / 2.0


def check_unit_norm(v: np.ndarray) -> tuple[np.ndarray, float]:
    """Flatten to a complex vector and check that its norm is 1 within NORMALIZATION.

    Returns the vector and its norm, so that a caller can rescale by it.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > tol.NORMALIZATION:
        raise NotNormalized(f"vector norm {norm} is not 1 within {tol.NORMALIZATION}")
    return v, norm


def frozen_array(a: np.ndarray) -> np.ndarray:
    """Complex copy with the writeable flag cleared."""
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def frob(m: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(m))


def is_hermitian(m: np.ndarray, tolerance: float = tol.HERMITICITY) -> bool:
    m = np.asarray(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and frob(m - dag(m)) <= tolerance


def is_unitary(m: np.ndarray, tolerance: float = tol.UNITARITY) -> bool:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return frob(dag(m) @ m - np.eye(m.shape[0])) <= tolerance


def is_projector(m: np.ndarray, tolerance: float = tol.ORTHONORMALITY) -> bool:
    m = np.asarray(m)
    return is_hermitian(m, tolerance) and frob(m @ m - m) <= tolerance


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, (a ⊗ b)[i*rb+k, j*cb+l] = a[i,j] b[k,l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def basis_vector(dim: int, index: int) -> np.ndarray:
    """Standard basis vector e_index in C^dim."""
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def _check_structure(total_dim: int, structure: Sequence[int], min_factors: int = 2) -> TensorStructure:
    dims = tuple(int(d) for d in structure)
    if len(dims) < min_factors or any(d <= 0 for d in dims):
        raise DimensionMismatch(f"tensor structure {dims} needs >= {min_factors} positive factors")
    if int(np.prod(dims)) != total_dim:
        raise DimensionMismatch(f"tensor structure {dims} does not factor dimension {total_dim}")
    return dims


def hermitian_eig(m: np.ndarray, tolerance: float = tol.HERMITICITY) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with real eigenvalues in ascending
    order and orthonormal eigenvectors as the columns of the second array,
    so that m @ V == V @ diag(w).
    """
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m, tolerance):
        raise NotHermitian(f"matrix deviates from its adjoint by more than {tolerance}")
    w, v = np.linalg.eigh(hermitize(m))
    return w, v


def _kept_factors(dims: TensorStructure, keep: int | Sequence[int]) -> tuple[int, ...]:
    """Ascending factor indices named by ``keep`` (one index or a collection)."""
    if isinstance(keep, (int, np.integer)):
        kept = (int(keep),)
    else:
        kept = tuple(int(k) for k in keep)
    if not kept or len(set(kept)) != len(kept) or any(k < 0 or k >= len(dims) for k in kept):
        raise DimensionMismatch(f"keep={kept} is not a set of factor indices for {dims}")
    return tuple(sorted(kept))


def partial_trace(m: np.ndarray, structure: Sequence[int], keep: int | Sequence[int]) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``.

    ``m`` is a square matrix on the full product space described by
    ``structure``; ``keep`` is a factor index or an ascending collection of
    factor indices. The result lives on the kept factors in their original
    order, and has the same trace as ``m``.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"partial trace needs a square matrix, got shape {m.shape}")
    dims = _check_structure(m.shape[0], structure)
    kept = _kept_factors(dims, keep)

    t = m.reshape(dims + dims)
    n_factors = len(dims)
    for axis in sorted(set(range(n_factors)) - set(kept), reverse=True):
        # bra-side partner of ket axis `axis` sits half the axes further right
        t = np.trace(t, axis1=axis, axis2=axis + t.ndim // 2)
    d_kept = int(np.prod([dims[k] for k in kept]))
    return t.reshape(d_kept, d_kept)


def apply_on_factor(op: np.ndarray, vec: np.ndarray, structure: Sequence[int], factor: int) -> np.ndarray:
    """(1 ⊗ .. ⊗ op ⊗ .. ⊗ 1) @ vec, with op acting on one tensor factor only.

    ``vec`` is a vector on the product space described by ``structure``, or
    a matrix whose columns are such vectors. The lifted operator is never
    formed: op is contracted with the factor's axis of the reshaped array.
    """
    vec = np.asarray(vec, dtype=complex)
    op = np.asarray(op, dtype=complex)
    dims = _check_structure(vec.shape[0], structure, min_factors=1)
    if not 0 <= factor < len(dims) or op.shape != (dims[factor], dims[factor]):
        raise DimensionMismatch(f"operator of shape {op.shape} does not act on factor {factor} of {dims}")
    t = vec.reshape(dims + vec.shape[1:])
    t = np.moveaxis(np.tensordot(op, t, axes=([1], [factor])), 0, factor)
    return t.reshape(vec.shape)


def pure_marginal(vec: np.ndarray, structure: Sequence[int], keep: int | Sequence[int]) -> np.ndarray:
    """Tr_rest |vec><vec| as M M†, where M is vec reshaped to (kept factors, the rest).

    Equals ``partial_trace(outer(vec, conj(vec)), structure, keep)`` for
    any vector, normalised or not, without forming the outer product.
    """
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    dims = _check_structure(vec.size, structure)
    kept = _kept_factors(dims, keep)
    d_kept = int(np.prod([dims[k] for k in kept]))
    m = np.moveaxis(vec.reshape(dims), kept, tuple(range(len(kept)))).reshape(d_kept, -1)
    return m @ dag(m)


def partial_inner(a: np.ndarray, psi: np.ndarray, structure: Sequence[int]) -> np.ndarray:
    """Partial scalar product <a| psi over the first tensor factor.

    result[j] = sum_i conj(a[i]) psi[i*d2 + j], a vector on the second factor.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    dims = _check_structure(psi.size, structure)
    if len(dims) != 2:
        raise DimensionMismatch(f"partial inner product is bipartite, got structure {dims}")
    a = np.asarray(a, dtype=complex).reshape(-1)
    if a.size != dims[0]:
        raise DimensionMismatch(f"left vector has dim {a.size}, first factor has dim {dims[0]}")
    return np.conj(a) @ psi.reshape(dims)


def complete_isometry(columns: Sequence[np.ndarray], dim: int) -> np.ndarray:
    """Extend orthonormal columns to a full dim x dim unitary.

    The completion is deterministic: remaining columns come from
    Gram-Schmidt over the standard basis vectors taken in index order,
    skipping any whose orthogonal residual has norm below the skip
    tolerance. The input columns appear first, in the given order.
    """
    cols = [np.asarray(c, dtype=complex).reshape(-1) for c in columns]
    if len(cols) > dim or any(c.size != dim for c in cols):
        raise DimensionMismatch(f"{len(cols)} columns of dims {[c.size for c in cols]} do not fit dim {dim}")
    for i, ci in enumerate(cols):
        for j in range(i + 1):
            expected = 1.0 if i == j else 0.0
            if abs(np.vdot(cols[j], ci) - expected) > tol.ORTHONORMALITY:
                raise NotOrthonormal(f"columns {j} and {i} are not orthonormal within {tol.ORTHONORMALITY}")

    # Accepted vectors are the rows of `rows`, and their conjugates the rows
    # of `conj_rows`, so that projecting onto the first m of them reads two
    # contiguous row blocks and copies nothing.
    rows = np.zeros((dim, dim), dtype=complex)
    conj_rows = np.zeros((dim, dim), dtype=complex)
    m = len(cols)
    rows[:m] = np.reshape(cols, (m, dim))
    conj_rows[:m] = np.conj(rows[:m])
    for index in range(dim):
        if m == dim:
            break
        v = basis_vector(dim, index)
        for _ in range(2):  # second pass keeps the completion orthogonal to ~1e-15
            v -= (conj_rows[:m] @ v) @ rows[:m]
        residual = np.linalg.norm(v)
        if residual < tol.GS_SKIP:
            continue
        rows[m] = v / residual
        conj_rows[m] = np.conj(rows[m])
        m += 1
    if m != dim:
        raise NotOrthonormal("standard basis sweep could not complete the isometry")
    return rows.T.copy()


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-like random unitary from a QR-orthonormalized complex Gaussian."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-like random unit vector in C^dim."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


__all__ = [
    "TensorStructure",
    "dag",
    "frob",
    "kron",
    "basis_vector",
    "is_hermitian",
    "is_unitary",
    "is_projector",
    "hermitian_eig",
    "partial_trace",
    "apply_on_factor",
    "pure_marginal",
    "partial_inner",
    "complete_isometry",
    "random_unitary",
    "random_state_vector",
]
