"""Schmidt canonical form of bipartite pure vectors and the definite values of its terms.

The decomposition is the SVD of M, the vector as d1 x d2: the singular
values are the coefficients, the left singular vectors the left vectors,
and each right vector is the normalised partial scalar product of its
left vector with the vector. The SVD resolves its vectors to about
eps/|c_j - c_k|, the eigenvectors of M†M only to eps/|c_j² - c_k²|, far
worse between two small coefficients (Wedin, BIT 12, 1972); both cost
O(d1 n²) for the final vector, d2 = n <= d1. A phase convention keeps
golden tests stable: the first component of each left vector above the
pivot tolerance is made real and positive, with the compensating phase
absorbed into the matching right vector.

For degenerate Schmidt coefficients the individual vectors are basis
dependent (the form is not unique there); only basis-independent facts
should be asserted about them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple
from collections.abc import Sequence

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, NoDefiniteValue
from .linalg import check_unit_norm, dag, frob, frozen_array, hermitian_eig, read_only
from .observables import Observable


@dataclass(frozen=True)
class SchmidtForm:
    """Biorthogonal expansion sum_t c_t (l_t ⊗ r_t), c_t descending, kept as the matrices of M = L diag(c) Rᵀ.

    ``lefts`` (d1 × r) and ``rights`` (d2 × r) hold the vectors l_t and r_t as read-only columns.
    """

    coefficients: np.ndarray
    lefts: np.ndarray
    rights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", read_only(np.array(self.coefficients, dtype=float)))
        object.__setattr__(self, "lefts", frozen_array(self.lefts))
        object.__setattr__(self, "rights", frozen_array(self.rights))


class DefiniteValueReport(NamedTuple):
    max_left_violation: float
    max_right_violation: float
    # read-only: the outcome k_t of each term of the re-based form
    outcomes: np.ndarray
    # the input form re-based on the outcome index
    schmidt_form: "SchmidtForm"


def schmidt_decompose(psi: np.ndarray, structure: Sequence[int]) -> SchmidtForm:
    """Schmidt canonical form of a normalized bipartite vector."""
    shape = np.shape(psi)
    dims = tuple(int(d) for d in structure)
    if len(dims) != 2 or shape != (dims[0] * dims[1],):
        raise DimensionMismatch(f"Schmidt decomposition needs a vector on a bipartite {dims}, got shape {shape}")
    m = check_unit_norm(psi)[0].reshape(dims)

    lefts, coefficients, _ = np.linalg.svd(m, full_matrices=False)  # coefficients descending
    terms = np.count_nonzero(coefficients**2 > tol.SCHMIDT_CUTOFF)
    lefts = lefts[:, :terms]
    lefts = lefts * np.conj(_pivot_phases(lefts))
    rights = dag(lefts) @ m  # row s is (<left_s| ⊗ 1)|psi>
    rights = rights / np.array([frob(r) for r in rights])[:, None]
    return SchmidtForm(coefficients[:terms], lefts, rights.T)


def reconstruct(sf: SchmidtForm) -> np.ndarray:
    """Explicit inverse of the decomposition: sum_k c_k (left_k ⊗ right_k), as the matrix (L·c) Rᵀ."""
    return ((sf.lefts * sf.coefficients) @ sf.rights.T).reshape(-1)


def _pivot_phases(columns: np.ndarray) -> np.ndarray:
    """Unit phase of the first component of each column above PHASE_PIVOT (1 where there is none)."""
    above = np.abs(columns) > tol.PHASE_PIVOT
    pivots = columns[np.argmax(above, axis=0), np.arange(columns.shape[1])]
    pivots = np.where(above.any(axis=0), pivots, 1.0)
    return pivots / np.abs(pivots)


def verify_definite_values(
    sf: SchmidtForm,
    object_obs: Observable,
    pointer_obs: Observable,
) -> DefiniteValueReport:
    """Match every Schmidt term to the joint spectral term it predicts with certainty.

    A term (left_t, right_t) fits outcome k when P_k leaves left_t fixed
    and Q_k leaves right_t fixed, both within the definite-value tolerance
    (equivalently, when both expectation values are 1). Both sides must
    fit the same outcome index, and no outcome may be claimed twice.

    Equal or nearly equal coefficients leave the form non-unique, and the
    SVD mixes their vectors by about eps/|c_j - c_k|, so the form is re-based
    on the outcome index N = sum_k k P_k first: with L, R the vectors as
    columns and c the coefficients, the left vectors become L u_s for the
    eigenvectors u_s of L† N L, and each weight and (normalised) right vector
    come from w_s = R (c ∘ conj(u_s)), i.e. <L u_s| ⊗ 1 applied to the vector. Term s
    is fitted to the outcome rint(λ_s) alone; the integer spacing of N keeps
    that rounding safe. Terms keep the order of the input term each
    overlaps most, so an aligned form comes back in its own order. Where
    span(L) is invariant under N the left residuals are small by
    construction, and the right residuals test the pairing. The report
    carries the re-based form; inputs without an aligned form, i.e. from
    non-repeatable instruments, raise NoDefiniteValue.
    """
    if object_obs.n_outcomes != pointer_obs.n_outcomes:
        raise DimensionMismatch("object and pointer observables have different outcome counts")
    n_outcomes = object_obs.n_outcomes

    coeffs = object_obs.adjoint @ sf.lefts  # L† N L = (V†L)† diag(term of each column) (V†L)
    indices, u = hermitian_eig(dag(coeffs) @ (object_obs.terms[:, None] * coeffs))
    order = np.argsort(np.argmax(np.abs(u), axis=0), kind="stable")
    indices, u = indices[order], u[:, order]
    lefts = sf.lefts @ u
    phases = _pivot_phases(lefts)
    lefts = lefts * np.conj(phases)
    rights = sf.rights @ (sf.coefficients[:, None] * np.conj(u)) * phases  # column s is w_s
    weights = np.sqrt(np.vecdot(rights, rights, axis=0).real)
    rights = rights / weights

    outcomes = np.rint(indices).astype(int)
    fitted = outcomes % n_outcomes  # a term outside 0..K-1 fails below whatever it is fitted to
    inside = outcomes == fitted
    left_residuals = _off_eigenspace(object_obs, lefts, fitted)
    right_residuals = _off_eigenspace(pointer_obs, rights, fitted)
    failing = (~inside | (np.maximum(left_residuals, right_residuals) >= tol.DEFINITE_VALUE)).nonzero()[0]
    if failing.size:
        t = failing[0]
        if not inside[t]:
            raise NoDefiniteValue(f"Schmidt term {t} has outcome index {indices[t]:.3g} outside 0..{n_outcomes - 1}")
        raise NoDefiniteValue(f"Schmidt term {t} fits no joint spectral term within {tol.DEFINITE_VALUE}")
    if len(set(outcomes.tolist())) != outcomes.size:
        raise NoDefiniteValue("spectral term claimed by two Schmidt terms")

    aligned = SchmidtForm(weights, lefts, rights)
    return DefiniteValueReport(float(left_residuals.max()), float(right_residuals.max()), read_only(outcomes), aligned)


def _off_eigenspace(obs: Observable, vectors: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    """|P_k x - x| for each column x of ``vectors`` and its outcome k: the norm of V† x off the rows of term k."""
    off = (obs.adjoint @ vectors) * (obs.indicator[:, outcomes] == 0)
    return np.sqrt(np.vecdot(off, off, axis=0).real)


__all__ = [
    "SchmidtForm",
    "DefiniteValueReport",
    "schmidt_decompose",
    "reconstruct",
    "verify_definite_values",
]
