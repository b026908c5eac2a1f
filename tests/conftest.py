"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from qmeasure import (
    Observable,
    PureState,
    Scenario,
    StateTransformerSet,
    dag,
    make_repeatable_transformers,
    observable_from_matrix,
    random_state_vector,
    random_unitary,
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


def three_level_document(seed: int, small: tuple[float, float]) -> dict:
    """An ideal measurement of V diag(0, 1, 2) V†, V a seeded Haar unitary, on V √p with p = (*small, 1 - sum(small))."""
    v = random_unitary(3, np.random.default_rng(seed))
    p = np.array([*small, 1.0 - sum(small)])

    def pairs(a: np.ndarray) -> list:
        return np.stack([a.real, a.imag], -1).tolist()

    return {
        "object_dim": 3,
        "observable": {"matrix": pairs((v * np.arange(3.0)) @ dag(v))},
        "initial_state": {"amplitudes": pairs(v @ np.sqrt(p))},
        "instrument": {"kind": "ideal"},
    }


def small_weight_scenario(seed: int) -> Scenario:
    """A repeatable measurement at d = 3..12 whose Born weights are drawn log-uniformly over 1e-9 .. 1, then normalised.

    The eigenbasis is Haar, the term sizes are random, and the eigenvalue gaps are drawn over 0.1 .. 1.
    """
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(3, 13))
    n_outcomes = int(rng.integers(2, dim + 1))
    sizes = np.ones(n_outcomes, dtype=int)
    np.add.at(sizes, rng.integers(0, n_outcomes, dim - n_outcomes), 1)
    eigenvalues = np.cumsum(10 ** rng.uniform(-1.0, 0.0, n_outcomes))
    weights = 10 ** rng.uniform(-9.0, 0.0, n_outcomes)
    weights /= weights.sum()
    obs = Observable(tuple(eigenvalues.tolist()), random_unitary(dim, rng), tuple(sizes.tolist()))
    coordinates = np.concatenate([np.sqrt(p) * random_state_vector(int(r), rng) for p, r in zip(weights, sizes)])
    return Scenario(PureState(obs.basis @ coordinates), make_repeatable_transformers(obs, seed))


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
