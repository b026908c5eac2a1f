"""Discrete observables in spectral form, pure states and density operators.

An observable is stored as its eigenbasis: a unitary V whose columns come
in one group V_k per distinct eigenvalue a_k, so that P_k = V_k V_k† is read
as V_k (V_k† x) and never formed. It is validated by V†V = 1, which for a
square V also makes sum_k P_k = 1, and by the eigenvalue-gap rule.
Constructors produced by this module order terms by ascending eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from collections.abc import Sequence

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, NotDensityOperator, ValidationError
from .linalg import (
    check_orthonormal_columns,
    check_unit_norm,
    dag,
    frozen_array,
    hermitian_eig,
    hermitize,
    is_hermitian,
    kron,
)


@dataclass(frozen=True)
class Observable:
    """Observable sum_k a_k V_k V_k†: the first ``sizes[0]`` columns of ``basis`` span eigenspace 0, and so on."""

    eigenvalues: tuple[float, ...]
    basis: np.ndarray
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigenvalues", tuple(float(a) for a in self.eigenvalues))
        object.__setattr__(self, "sizes", tuple(int(r) for r in self.sizes))
        object.__setattr__(self, "basis", frozen_array(self.basis))
        validate_observable(self)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def columns(self) -> tuple[slice, ...]:
        """The slice of basis columns that spans each eigenspace, in term order."""
        ends = np.cumsum(self.sizes).tolist()
        return tuple(slice(end - r, end) for end, r in zip(ends, self.sizes))

    @cached_property
    def indicator(self) -> np.ndarray:
        """Read-only dim × K matrix, 1 where basis column a lies in eigenspace k: X @ indicator sums X by term."""
        out = np.repeat(np.eye(self.n_outcomes), self.sizes, axis=0)
        out.setflags(write=False)
        return out

    @cached_property
    def adjoint(self) -> np.ndarray:
        """V†, the read-only view dag(basis), formed once: every V† x of the checks takes it."""
        out = dag(self.basis)
        out.setflags(write=False)
        return out

    @cached_property
    def _matrix(self) -> np.ndarray:
        out = hermitize((self.basis * np.repeat(self.eigenvalues, self.sizes)) @ self.adjoint)
        out.setflags(write=False)
        return out

    def matrix(self) -> np.ndarray:
        """The Hermitian matrix V diag(a) V†, built once and read-only."""
        return self._matrix


def validate_observable(obs: Observable) -> None:
    """Check the eigenbasis and eigenvalue invariants, raising ValidationError or NotOrthonormal."""
    if not obs.eigenvalues:
        raise ValidationError("observable has no spectral terms")
    if obs.basis.ndim != 2 or obs.basis.shape[0] != obs.basis.shape[1]:
        raise DimensionMismatch(f"eigenbasis of shape {obs.basis.shape} is not square")
    if len(obs.sizes) != obs.n_outcomes or min(obs.sizes) < 1 or sum(obs.sizes) != obs.dim:
        raise ValidationError(f"term sizes {obs.sizes} do not split {obs.dim} columns into {obs.n_outcomes} terms")
    if not all(map(math.isfinite, obs.eigenvalues)):
        raise ValidationError(f"eigenvalues {obs.eigenvalues} are not all finite")
    values = sorted(obs.eigenvalues)
    for lo, hi in zip(values, values[1:]):
        if hi - lo <= tol.DEGENERACY_GAP:
            raise ValidationError(f"eigenvalues {lo} and {hi} are not separated beyond {tol.DEGENERACY_GAP}")
    check_orthonormal_columns(obs.basis)  # a square V with V†V = 1 also has V V† = sum_k P_k = 1


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


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace matrix.

    The given matrix must be Hermitian within HERMITICITY; its Hermitian part
    is what is stored and diagonalised.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if not is_hermitian(m):
            raise NotDensityOperator(f"matrix of shape {m.shape} is not square and Hermitian within {tol.HERMITICITY}")
        trace = complex(m.trace())
        if abs(trace - 1.0) > tol.HERMITICITY:
            raise NotDensityOperator(f"trace {trace} is not 1 within {tol.HERMITICITY}")
        m = hermitize(m)  # a new array that nothing else holds
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
    whose eigenspace is spanned by the clustered eigenvectors. Terms come
    out in ascending eigenvalue order, and the eigenvectors of eigh are the
    basis as they are.
    """
    h = np.asarray(h, dtype=complex)
    w, v = hermitian_eig(h)  # raises NotHermitian
    # a term starts at 0 and wherever an eigenvalue lies more than the gap above the one before it
    bounds = [0, *((w[1:] - w[:-1] > tol.DEGENERACY_GAP).nonzero()[0] + 1).tolist(), w.size]
    starts, sizes = bounds[:-1], np.diff(bounds)
    v.setflags(write=False)
    return Observable(tuple((np.add.reduceat(w, starts) / sizes).tolist()), v, tuple(sizes.tolist()))


def embed_observable(obs: Observable, structure: Sequence[int], factor: int) -> Observable:
    """Lift an observable acting on one tensor factor to the product space."""
    dims = tuple(int(d) for d in structure)
    if factor < 0 or factor >= len(dims) or dims[factor] != obs.dim:
        raise DimensionMismatch(f"observable of dim {obs.dim} does not sit at factor {factor} of {dims}")
    left, right = math.prod(dims[:factor]), math.prod(dims[factor + 1 :])
    lifted = kron(kron(np.eye(left), obs.basis), np.eye(right))
    terms = np.tile(np.repeat(obs.indicator @ np.arange(obs.n_outcomes), right), left)  # term of each column
    return Observable(
        obs.eigenvalues,
        lifted[:, np.argsort(terms, kind="stable")],
        tuple(r * left * right for r in obs.sizes),
    )


def check_dims(obs: Observable, state: PureState) -> None:
    """Raise unless the state is a PureState on the observable's space."""
    if not isinstance(state, PureState):
        raise ValidationError(f"expected a PureState, got {type(state).__name__}")
    if obs.dim != state.dim:
        raise DimensionMismatch(f"observable dim {obs.dim} != state dim {state.dim}")


def probabilities(obs: Observable, state: PureState) -> np.ndarray:
    """Outcome probabilities <psi|P_k|psi> = |V_k† psi|^2 in term order."""
    check_dims(obs, state)
    c = obs.adjoint @ state.vector
    return (c.real**2 + c.imag**2) @ obs.indicator


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
