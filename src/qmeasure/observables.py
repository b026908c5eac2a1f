"""Discrete observables in spectral form, pure states and density operators.

An observable is stored as its spectral family: an ordered list of
(eigenvalue, projector) pairs with distinct eigenvalues, mutually
orthogonal projectors and a complete resolution of the identity.
Constructors produced by this module order terms by ascending eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from collections.abc import Sequence

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, NotDensityOperator, ValidationError
from .linalg import (
    check_unit_norm,
    dag,
    frob,
    frozen_array,
    hermitian_eig,
    hermitize,
    kron,
)


@dataclass(frozen=True)
class Observable:
    """Spectral family {(a_k, P_k)} of a discrete Hermitian observable."""

    terms: tuple[tuple[float, np.ndarray], ...]
    dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", int(self.dim))
        if not self.terms:
            raise ValidationError("observable has no spectral terms")
        for _, p in self.terms:
            if np.shape(p) != (self.dim, self.dim):
                raise DimensionMismatch(f"projector shape {np.shape(p)} does not match dim {self.dim}")
        stack = frozen_array([p for _, p in self.terms])
        object.__setattr__(self, "terms", tuple((float(a), p) for (a, _), p in zip(self.terms, stack)))
        object.__setattr__(self, "_projectors", stack)
        validate_observable(self)

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(a for a, _ in self.terms)

    @property
    def projectors(self) -> np.ndarray:
        """The projectors in term order, stored once as one read-only (K, dim, dim) stack that the terms view."""
        return self._projectors

    @property
    def n_outcomes(self) -> int:
        return len(self.terms)

    def matrix(self) -> np.ndarray:
        """The Hermitian matrix sum_k a_k P_k, built once and read-only."""
        return self._weighted_sum("_matrix", self.eigenvalues)

    def outcome_index(self) -> np.ndarray:
        """N = sum_k k P_k, which is k on the k-th eigenspace; built once and read-only."""
        return self._weighted_sum("_outcome_index", range(self.n_outcomes))

    def _weighted_sum(self, name: str, weights) -> np.ndarray:
        out = self.__dict__.get(name)
        if out is None:
            out = np.zeros((self.dim, self.dim), dtype=complex)
            for w, p in zip(weights, self._projectors):
                out += w * p
            out.setflags(write=False)
            object.__setattr__(self, name, out)
        return out


def validate_observable(obs: Observable) -> None:
    """Check every spectral-family invariant, raising ValidationError."""
    values = sorted(obs.eigenvalues)
    for lo, hi in zip(values, values[1:]):
        if hi - lo <= tol.DEGENERACY_GAP:
            raise ValidationError(f"eigenvalues {lo} and {hi} are not separated beyond {tol.DEGENERACY_GAP}")
    # Hermitian idempotents within ORTHONORMALITY that sum to 1 within it can
    # still overlap by more than it, so the pairs are checked too, one operator
    # at a time. The earlier projectors passed, so they are mutually orthogonal
    # and |S P_i|^2, with S their running sum, is the sum of the |P_j P_i|^2:
    # only when it exceeds the tolerance are the pairs formed, to find the first that fails.
    stack = obs.projectors
    total = np.zeros((obs.dim, obs.dim), dtype=complex)
    for i, p in enumerate(stack):
        if not frob(p - dag(p)) <= tol.ORTHONORMALITY:
            raise ValidationError(f"projector {i} violates hermiticity within {tol.ORTHONORMALITY}")
        if frob(p @ p - p) > tol.ORTHONORMALITY:
            raise ValidationError(f"projector {i} violates idempotence within {tol.ORTHONORMALITY}")
        if frob(total @ p) > tol.ORTHONORMALITY:
            for j in range(i):
                if frob(stack[j] @ p) > tol.ORTHONORMALITY:
                    raise ValidationError(f"projectors {j} and {i} violate orthogonality within {tol.ORTHONORMALITY}")
        total += p
    if frob(total - np.eye(obs.dim)) > tol.ORTHONORMALITY:
        raise ValidationError(f"spectral family violates completeness within {tol.ORTHONORMALITY}")


@dataclass(frozen=True)
class PureState:
    """Unit vector in C^dim."""

    vector: np.ndarray

    def __post_init__(self) -> None:
        v, _ = check_unit_norm(self.vector)
        object.__setattr__(self, "vector", frozen_array(v))

    @property
    def dim(self) -> int:
        return self.vector.size

    def projector(self) -> np.ndarray:
        return np.outer(self.vector, np.conj(self.vector))


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace matrix.

    The given matrix must be Hermitian within HERMITICITY; its Hermitian part
    is what is stored and diagonalised.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NotDensityOperator(f"expected a square matrix, got shape {m.shape}")
        adjoint = dag(m)
        if not frob(m - adjoint) <= tol.HERMITICITY:
            raise NotDensityOperator(f"matrix violates hermiticity within {tol.HERMITICITY}")
        trace = complex(m.trace())
        if abs(trace - 1.0) > tol.HERMITICITY:
            raise NotDensityOperator(f"trace {trace} is not 1 within {tol.HERMITICITY}")
        m = (m + adjoint) / 2.0  # the Hermitian part, a new array that nothing else holds
        spectrum = np.linalg.eigvalsh(m)
        if spectrum[0] < tol.ENTROPY_NEG_FLOOR:
            raise NotDensityOperator(f"smallest eigenvalue {float(spectrum[0])} is below {tol.ENTROPY_NEG_FLOOR}")
        m.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_spectrum", spectrum)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues, as found by the positivity check."""
        return self._spectrum


def observable_from_matrix(h: np.ndarray) -> Observable:
    """Spectral form of a Hermitian matrix.

    Eigenvalues closer than the degeneracy gap are merged into one
    (degenerate) spectral term whose eigenvalue is the cluster mean and
    whose projector spans the clustered eigenvectors. Terms come out in
    ascending eigenvalue order.
    """
    h = np.asarray(h, dtype=complex)
    w, v = hermitian_eig(h)  # raises NotHermitian

    clusters: list[list[int]] = [[0]]
    for i in range(1, w.size):
        if w[i] - w[clusters[-1][-1]] <= tol.DEGENERACY_GAP:
            clusters[-1].append(i)
        else:
            clusters.append([i])

    terms = []
    for cluster in clusters:
        eigenvalue = float(np.mean(w[cluster]))
        block = v[:, cluster]
        projector = block @ dag(block)
        terms.append((eigenvalue, hermitize(projector)))
    return Observable(tuple(terms), h.shape[0])


def embed_observable(obs: Observable, structure: Sequence[int], factor: int) -> Observable:
    """Lift an observable acting on one tensor factor to the product space."""
    dims = tuple(int(d) for d in structure)
    if factor < 0 or factor >= len(dims) or dims[factor] != obs.dim:
        raise DimensionMismatch(f"observable of dim {obs.dim} does not sit at factor {factor} of {dims}")
    terms = []
    for a, p in obs.terms:
        factors = [np.eye(d, dtype=complex) for d in dims]
        factors[factor] = p
        terms.append((a, reduce(kron, factors)))
    return Observable(tuple(terms), int(np.prod(dims)))


def check_dims(obs: Observable, state: PureState) -> None:
    """Raise unless the state is a PureState on the observable's space."""
    if not isinstance(state, PureState):
        raise ValidationError(f"expected a PureState, got {type(state).__name__}")
    if obs.dim != state.dim:
        raise DimensionMismatch(f"observable dim {obs.dim} != state dim {state.dim}")


def probabilities(obs: Observable, state: PureState) -> np.ndarray:
    """Outcome probabilities <psi|P_k|psi> in term order."""
    check_dims(obs, state)
    v = state.vector
    return np.array([float(np.real(np.vdot(v, p @ v))) for _, p in obs.terms])


def uniform_superposition(dim: int) -> PureState:
    """Equal-weight superposition of all basis vectors."""
    return PureState(np.full(dim, 1.0 / np.sqrt(dim), dtype=complex))


__all__ = [
    "Observable",
    "PureState",
    "DensityOperator",
    "validate_observable",
    "observable_from_matrix",
    "embed_observable",
    "probabilities",
    "uniform_superposition",
]
