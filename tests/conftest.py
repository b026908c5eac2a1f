"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from qmeasure import (
    Observable,
    PureState,
    StateTransformerSet,
    observable_from_matrix,
    uniform_superposition,
)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + np.conj(z).T) / 2.0


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = z @ np.conj(z).T
    return rho / np.trace(rho).real


def bell_vector() -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return v


@pytest.fixture
def pauli_z() -> Observable:
    return observable_from_matrix(np.diag([1.0, -1.0]).astype(complex))


@pytest.fixture
def plus_state() -> PureState:
    return uniform_superposition(2)


@pytest.fixture
def swap_transformers(pauli_z) -> StateTransformerSet:
    # Valid PVM family for Z that swaps the eigenspaces: in ascending term
    # order (a=-1 first), A_0 = |0><1| and A_1 = |1><0|.
    a0 = np.array([[0, 1], [0, 0]], dtype=complex)
    a1 = np.array([[0, 0], [1, 0]], dtype=complex)
    return StateTransformerSet.from_transformers((a0, a1), pauli_z)


@pytest.fixture
def degenerate_observable() -> Observable:
    return observable_from_matrix(np.diag([2.0, 2.0, 5.0]).astype(complex))
