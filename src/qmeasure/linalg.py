"""Dense complex linear algebra for small quantum systems.

Everything operates on plain numpy arrays of complex dtype. Factor
dimensions are small (tens), but composite spaces are their products and
reach thousands after a pointer reading. The kernels that apply a
one-factor operator act on the first factor of a vector read as
d × rest, and a marginal of a pure vector is taken from the vector
reshaped to a matrix, so no product-space operator is built;
``partial_trace`` of an outer product is the dense route. Every check
reads its tolerance from ``tolerances``. All functions are pure; nothing
mutates its arguments.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, NotHermitian, NotNormalized, NotOrthonormal

# An ordered list of subsystem dimensions annotating a composite vector or
# matrix: (d1, d2) for bipartite objects, (d1, d2, d3) for tripartite ones.
TensorStructure = tuple[int, ...]


def dag(m: np.ndarray) -> np.ndarray:
    """Hermitian adjoint of a matrix, or of each matrix in a stack."""
    return np.conj(m).swapaxes(-1, -2)


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m†)/2, which removes rounding asymmetry."""
    return (m + dag(m)) / 2.0


def check_unit_norm(v: np.ndarray) -> tuple[np.ndarray, float]:
    """Flatten to a complex vector and check that its norm is 1 within NORMALIZATION.

    Returns the vector and its norm, so that a caller can rescale by it.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm = frob(v)
    if not abs(norm - 1.0) <= tol.NORMALIZATION:  # NaN fails
        raise NotNormalized(f"vector norm {norm} is not 1 within {tol.NORMALIZATION}")
    return v, norm


def frozen_array(a: np.ndarray) -> np.ndarray:
    """Read-only complex array: ``a`` itself if it is one that owns its data, else a frozen copy."""
    if isinstance(a, np.ndarray) and a.dtype == complex and a.flags.owndata and not a.flags.writeable:
        return a
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def frob(m: np.ndarray) -> float:
    """Frobenius norm, by the formula of np.linalg.norm (so with the same bits), without its dispatch."""
    x = np.asarray(m).ravel(order="K")
    if x.dtype.kind not in "fc":
        x = x.astype(float)
    if x.dtype.kind == "c":
        return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    return math.sqrt(x.dot(x))


def is_hermitian(m: np.ndarray) -> bool:
    m = np.asarray(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and frob(m - dag(m)) <= tol.HERMITICITY


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, (a ⊗ b)[i*rb+k, j*cb+l] = a[i,j] b[k,l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def basis_vector(dim: int, index: int) -> np.ndarray:
    """Standard basis vector e_index in C^dim."""
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def _check_structure(total_dim: int, structure: Sequence[int]) -> TensorStructure:
    dims = tuple(map(int, structure))
    if len(dims) < 2 or min(dims) <= 0:
        raise DimensionMismatch(f"tensor structure {dims} needs >= 2 positive factors")
    if math.prod(dims) != total_dim:
        raise DimensionMismatch(f"tensor structure {dims} does not factor dimension {total_dim}")
    return dims


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with real eigenvalues in ascending
    order and orthonormal eigenvectors as the columns of the second array,
    so that m @ V == V @ diag(w).
    """
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m):
        raise NotHermitian(f"matrix deviates from its adjoint by more than {tol.HERMITICITY}")
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
    d_kept = math.prod(dims[k] for k in kept)
    return t.reshape(d_kept, d_kept)


def check_orthonormal_columns(m: np.ndarray) -> None:
    """Raise NotOrthonormal unless |<m_j|m_i> - delta_ij| <= ORTHONORMALITY, naming the first failing j <= i."""
    bad = ~(np.abs(m.T @ np.conj(m) - np.eye(m.shape[1])) <= tol.ORTHONORMALITY)  # NaN fails
    failing = np.argwhere(np.tril(bad)) if bad.any() else ()
    if len(failing):
        i, j = failing[0]
        raise NotOrthonormal(f"columns {j} and {i} are not orthonormal within {tol.ORTHONORMALITY}")


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
    rows = np.zeros((dim, dim), dtype=complex)  # the accepted vectors
    m = len(cols)
    rows[:m] = np.reshape(cols, (m, dim))
    check_orthonormal_columns(rows[:m].T)
    for index in range(dim):
        if m == dim:
            break
        v = basis_vector(dim, index)
        for _ in range(2):  # second pass keeps the completion orthogonal to ~1e-15
            v -= np.conj(rows[:m] @ np.conj(v)) @ rows[:m]
        residual = frob(v)
        if residual >= tol.GS_SKIP:
            rows[m] = v / residual
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
    return v / frob(v)


__all__ = [
    "TensorStructure",
    "dag",
    "frob",
    "kron",
    "basis_vector",
    "is_hermitian",
    "hermitian_eig",
    "partial_trace",
    "check_orthonormal_columns",
    "complete_isometry",
    "random_unitary",
    "random_state_vector",
]
