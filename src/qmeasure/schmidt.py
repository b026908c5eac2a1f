"""Schmidt canonical form of bipartite pure vectors and twin observables.

The decomposition is built from the eigendecomposition of the first
marginal rather than a general SVD: left vectors are eigenvectors of
M M†, with M the vector reshaped to d1 x d2, and right vectors are partial
scalar products of those with the full vector. A deterministic phase
convention makes the output stable enough for golden tests: the first
component of each left vector above the pivot tolerance is rotated to the
positive real axis, with the compensating phase absorbed into the
matching right vector.

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
from .linalg import check_unit_norm, dag, frob, frozen_array, hermitian_eig, pure_marginal
from .observables import DensityOperator, Observable


@dataclass(frozen=True)
class SchmidtForm:
    """Biorthogonal expansion sum_k c_k (left_k ⊗ right_k), c_k descending."""

    coefficients: np.ndarray
    left_vectors: tuple[np.ndarray, ...]
    right_vectors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        coeffs = np.array(self.coefficients, dtype=float)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "left_vectors", tuple(frozen_array(v) for v in self.left_vectors))
        object.__setattr__(self, "right_vectors", tuple(frozen_array(v) for v in self.right_vectors))

    @property
    def n_terms(self) -> int:
        return self.coefficients.size


class OutcomePairing(NamedTuple):
    """One Schmidt term matched to a joint spectral term of both observables."""

    term_index: int
    object_eigenvalue: float
    pointer_eigenvalue: float


class DefiniteValueReport(NamedTuple):
    max_left_violation: float
    max_right_violation: float
    assignment: tuple[OutcomePairing, ...]
    # the input form re-based on the outcome index
    schmidt_form: "SchmidtForm"


@dataclass(frozen=True)
class TwinObservables:
    """Subsystem observables diagonal in the two Schmidt bases.

    Both are spectral lists of rank-one terms; they are complete on the
    ranges of the respective marginals but not necessarily on the full
    factor spaces, so they are kept as plain term lists rather than
    Observable instances.
    """

    object_terms: tuple[tuple[float, np.ndarray], ...]
    pointer_terms: tuple[tuple[float, np.ndarray], ...]

    def object_matrix(self) -> np.ndarray:
        return sum(a * p for a, p in self.object_terms)

    def pointer_matrix(self) -> np.ndarray:
        return sum(b * q for b, q in self.pointer_terms)


def schmidt_decompose(psi: np.ndarray, structure: Sequence[int]) -> SchmidtForm:
    """Schmidt canonical form of a normalized bipartite vector."""
    psi, _ = check_unit_norm(psi)
    dims = tuple(int(d) for d in structure)
    if len(dims) != 2:
        raise DimensionMismatch(f"Schmidt decomposition is bipartite, got structure {dims}")

    weights, vectors = hermitian_eig(pure_marginal(psi, dims, keep=0))
    order = np.argsort(-weights, kind="stable")
    order = order[weights[order] > tol.SCHMIDT_CUTOFF]
    lefts = vectors[:, order]
    lefts = lefts * np.conj(_pivot_phases(lefts))
    rights = dag(lefts) @ psi.reshape(dims)  # row s is (<left_s| ⊗ 1)|psi>
    return SchmidtForm(
        coefficients=np.sqrt(weights[order]),
        left_vectors=tuple(lefts.T),
        right_vectors=tuple(r / frob(r) for r in rights),
    )


def reconstruct(sf: SchmidtForm) -> np.ndarray:
    """Explicit inverse of the decomposition: sum_k c_k (left_k ⊗ right_k), as the matrix (L·c) Rᵀ."""
    lefts, rights = np.column_stack(sf.left_vectors), np.column_stack(sf.right_vectors)
    return ((lefts * sf.coefficients) @ rights.T).reshape(-1)


def reduced_states(psi: np.ndarray, structure: Sequence[int]) -> tuple[DensityOperator, DensityOperator]:
    """Both subsystem states of a normalized bipartite vector."""
    psi, _ = check_unit_norm(psi)
    dims = tuple(int(d) for d in structure)
    if len(dims) != 2:
        raise DimensionMismatch(f"reduced states need a bipartite structure, got {dims}")
    return tuple(DensityOperator(pure_marginal(psi, dims, keep=k)) for k in (0, 1))


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
    (equivalently, when both expectation values are 1). The assignment must
    use the same outcome index on both sides and be a bijection.

    Equal or nearly equal coefficients leave the form non-unique, and eigh
    mixes their vectors by about eps/gap, so the whole form is re-based on
    the outcome index N = sum_k k P_k first: with L, R the vectors as
    columns and c the coefficients, the left vectors become L u_s for the
    eigenvectors u_s of L† N L, and each right vector and weight come from
    w_s = R (c ∘ conj(u_s)), i.e. <L u_s| ⊗ 1 applied to the vector. Term s
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

    lefts = np.column_stack(sf.left_vectors)
    rights = np.column_stack(sf.right_vectors)
    indices, u = hermitian_eig(dag(lefts) @ object_obs.outcome_index() @ lefts)
    order = np.argsort(np.argmax(np.abs(u), axis=0), kind="stable")
    indices, u = indices[order], u[:, order]
    lefts = lefts @ u
    phases = _pivot_phases(lefts)
    lefts = lefts * np.conj(phases)
    rights = rights @ (sf.coefficients[:, None] * np.conj(u)) * phases  # column s is w_s

    fits = []
    for t, (left, right) in enumerate(zip(lefts.T, rights.T)):
        weight = frob(right)
        right = right / weight
        k = int(np.rint(indices[t]))
        if not 0 <= k < n_outcomes:
            raise NoDefiniteValue(f"Schmidt term {t} has outcome index {indices[t]:.3g} outside 0..{n_outcomes - 1}")
        lv = frob(object_obs.projectors[k] @ left - left)
        rv = frob(pointer_obs.projectors[k] @ right - right)
        if max(lv, rv) >= tol.DEFINITE_VALUE:
            raise NoDefiniteValue(f"Schmidt term {t} fits no joint spectral term within {tol.DEFINITE_VALUE}")
        fits.append((weight, left, right, k, lv, rv))
    weights, new_lefts, new_rights, outcomes, left_residuals, right_residuals = zip(*fits)
    if len(set(outcomes)) != len(outcomes):
        raise NoDefiniteValue("spectral term claimed by two Schmidt terms")

    assignment = tuple(OutcomePairing(k, object_obs.terms[k][0], pointer_obs.terms[k][0]) for k in outcomes)
    aligned = SchmidtForm(np.array(weights), new_lefts, new_rights)
    return DefiniteValueReport(max(left_residuals), max(right_residuals), assignment, aligned)


def twin_observables(sf: SchmidtForm, assignment: Sequence[OutcomePairing]) -> TwinObservables:
    """Eigenvalue-weighted rank-one sums over the Schmidt vectors."""
    if len(assignment) != sf.n_terms:
        raise DimensionMismatch(f"assignment covers {len(assignment)} of {sf.n_terms} Schmidt terms")
    object_terms = []
    pointer_terms = []
    for pairing, left, right in zip(assignment, sf.left_vectors, sf.right_vectors):
        object_terms.append((pairing.object_eigenvalue, np.outer(left, np.conj(left))))
        pointer_terms.append((pairing.pointer_eigenvalue, np.outer(right, np.conj(right))))
    return TwinObservables(tuple(object_terms), tuple(pointer_terms))


__all__ = [
    "SchmidtForm",
    "OutcomePairing",
    "DefiniteValueReport",
    "TwinObservables",
    "schmidt_decompose",
    "reconstruct",
    "reduced_states",
    "verify_definite_values",
    "twin_observables",
]
