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
from .linalg import apply_on_factor, check_unit_norm, frozen_array, hermitian_eig, hermitize, kron, partial_inner, pure_marginal
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
    # the input form, or an equivalent one whose degenerate-coefficient
    # groups were rotated into spectral alignment
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
    order = [int(i) for i in np.argsort(-weights, kind="stable") if weights[i] > tol.SCHMIDT_CUTOFF]

    coefficients = []
    lefts = []
    rights = []
    for i in order:
        left = vectors[:, i] * np.conj(_pivot_phase(vectors[:, i]))
        right = partial_inner(left, psi, dims)
        right = right / np.linalg.norm(right)
        coefficients.append(float(np.sqrt(weights[i])))
        lefts.append(left)
        rights.append(right)
    return SchmidtForm(
        coefficients=np.array(coefficients),
        left_vectors=tuple(lefts),
        right_vectors=tuple(rights),
    )


def reconstruct(sf: SchmidtForm) -> np.ndarray:
    """Explicit inverse of the decomposition: sum_k c_k (left_k ⊗ right_k)."""
    terms = [c * kron(l, r) for c, l, r in zip(sf.coefficients, sf.left_vectors, sf.right_vectors)]
    return np.sum(terms, axis=0)


def reduced_states(psi: np.ndarray, structure: Sequence[int]) -> tuple[DensityOperator, DensityOperator]:
    """Both subsystem states of a normalized bipartite vector."""
    psi, _ = check_unit_norm(psi)
    dims = tuple(int(d) for d in structure)
    if len(dims) != 2:
        raise DimensionMismatch(f"reduced states need a bipartite structure, got {dims}")
    return tuple(DensityOperator(hermitize(pure_marginal(psi, dims, keep=k))) for k in (0, 1))


def _joint_residuals(object_obs: Observable, pointer_obs: Observable, left, right, k):
    lv = float(np.linalg.norm(object_obs.terms[k][1] @ left - left))
    rv = float(np.linalg.norm(pointer_obs.terms[k][1] @ right - right))
    return lv, rv


def _pivot_phase(left: np.ndarray) -> complex:
    """Unit phase of the first component of left above PHASE_PIVOT (1 if there is none)."""
    candidates = np.nonzero(np.abs(left) > tol.PHASE_PIVOT)[0]
    if candidates.size:
        return left[candidates[0]] / abs(left[candidates[0]])
    return 1.0


def _split_degenerate_group(
    sf: SchmidtForm,
    group: list[int],
    free_outcomes: list[int],
    object_obs: Observable,
    pointer_obs: Observable,
) -> list[tuple[float, np.ndarray, np.ndarray, int]]:
    """Rotate one equal-coefficient group into spectral alignment.

    The group component chi = sum_t c_t (left_t ⊗ right_t) is split with
    the joint projectors P_k ⊗ Q_k, P_k and Q_k each applied to its own
    factor. When the definite-value structure really holds, each nonzero
    projection is a product vector, the pieces reassemble chi, and their
    weights equal the shared coefficient; any shortfall means there is no
    aligned form and is reported as NoDefiniteValue.
    """
    d1, d2 = sf.left_vectors[0].size, sf.right_vectors[0].size
    chi = np.zeros(d1 * d2, dtype=complex)
    for t in group:
        chi += sf.coefficients[t] * kron(sf.left_vectors[t], sf.right_vectors[t])

    pieces: list[tuple[float, np.ndarray, np.ndarray, int]] = []
    recombined = np.zeros_like(chi)
    for k in free_outcomes:
        u = apply_on_factor(pointer_obs.terms[k][1], chi, (d1, d2), 1)
        u = apply_on_factor(object_obs.terms[k][1], u, (d1, d2), 0)
        weight = float(np.linalg.norm(u))
        if weight**2 <= tol.SCHMIDT_CUTOFF:
            continue
        m = u.reshape(d1, d2)
        column = int(np.argmax(np.linalg.norm(m, axis=0)))
        left = m[:, column] / np.linalg.norm(m[:, column])
        right = np.conj(left) @ m
        right = right / np.linalg.norm(right)
        if np.linalg.norm(u - weight * kron(left, right)) >= tol.DEFINITE_VALUE:
            raise NoDefiniteValue(f"projection onto outcome {k} is not a product vector")
        phase = _pivot_phase(left)
        left, right = left * np.conj(phase), right * phase
        pieces.append((weight, left, right, k))
        recombined += weight * kron(left, right)

    if len(pieces) != len(group):
        raise NoDefiniteValue(
            f"degenerate coefficient group of size {len(group)} splits into {len(pieces)} spectral terms"
        )
    if np.linalg.norm(chi - recombined) >= tol.DEFINITE_VALUE:
        raise NoDefiniteValue("degenerate coefficient group has weight outside the joint spectral terms")
    return pieces


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

    Equal Schmidt coefficients make the decomposition non-unique, so a
    numerically chosen basis may sit obliquely to the spectral projectors
    even though an aligned form exists. Terms that fail the direct match
    are therefore regrouped by coefficient and split with the joint
    projectors P_k ⊗ Q_k; the report carries the (possibly rotated)
    equivalent form. Inputs without any aligned form, i.e. from
    non-repeatable instruments, raise NoDefiniteValue.
    """
    if object_obs.n_outcomes != pointer_obs.n_outcomes:
        raise DimensionMismatch("object and pointer observables have different outcome counts")
    n_outcomes = object_obs.n_outcomes

    matches: list[tuple[float, float, int] | None] = []
    for t in range(sf.n_terms):
        best = None
        for k in range(n_outcomes):
            lv, rv = _joint_residuals(object_obs, pointer_obs, sf.left_vectors[t], sf.right_vectors[t], k)
            if best is None or max(lv, rv) < max(best[0], best[1]):
                best = (lv, rv, k)
        matches.append(best if max(best[0], best[1]) < tol.DEFINITE_VALUE else None)

    claimed = [m[2] for m in matches if m is not None]
    if None not in matches and len(set(claimed)) == sf.n_terms:
        aligned = sf
        final = [
            (float(sf.coefficients[t]), sf.left_vectors[t], sf.right_vectors[t],
             matches[t][2], matches[t][0], matches[t][1])
            for t in range(sf.n_terms)
        ]
    else:
        # group consecutive equal coefficients and re-split the failing groups
        groups: list[list[int]] = [[0]]
        for t in range(1, sf.n_terms):
            if sf.coefficients[t - 1] - sf.coefficients[t] <= tol.DEGENERACY_GAP:
                groups[-1].append(t)
            else:
                groups.append([t])
        healthy = [g for g in groups if all(matches[t] is not None for t in g)
                   and len({matches[t][2] for t in g}) == len(g)]
        taken = {matches[t][2] for g in healthy for t in g}
        if len(taken) != sum(len(g) for g in healthy):
            raise NoDefiniteValue("spectral term claimed by two non-degenerate Schmidt terms")
        free = [k for k in range(n_outcomes) if k not in taken]

        final = []
        for group in groups:
            if group in healthy:
                for t in group:
                    lv, rv, k = matches[t]
                    final.append((sf.coefficients[t], sf.left_vectors[t], sf.right_vectors[t], k, lv, rv))
                continue
            if len(group) == 1:
                t = group[0]
                raise NoDefiniteValue(
                    f"Schmidt term {t} fits no joint spectral term within {tol.DEFINITE_VALUE}"
                )
            for weight, left, right, k in _split_degenerate_group(sf, group, free, object_obs, pointer_obs):
                free.remove(k)
                lv, rv = _joint_residuals(object_obs, pointer_obs, left, right, k)
                final.append((weight, left, right, k, lv, rv))
        aligned = SchmidtForm(
            coefficients=np.array([entry[0] for entry in final]),
            left_vectors=tuple(entry[1] for entry in final),
            right_vectors=tuple(entry[2] for entry in final),
        )

    outcome_indices = [entry[3] for entry in final]
    if len(set(outcome_indices)) != len(outcome_indices):
        raise NoDefiniteValue("spectral term claimed by two Schmidt terms")
    assignment = tuple(
        OutcomePairing(
            term_index=k,
            object_eigenvalue=object_obs.terms[k][0],
            pointer_eigenvalue=pointer_obs.terms[k][0],
        )
        for (_, _, _, k, _, _) in final
    )
    max_left = max(entry[4] for entry in final)
    max_right = max(entry[5] for entry in final)
    return DefiniteValueReport(max_left, max_right, assignment, aligned)


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
