"""State transformers, repeatability, and the measurement evolution they define.

A measurement of an observable is described in two equivalent ways:

* a family of state transformers (Kraus operators) A_k, one per spectral
  term, with sum_k A_k†A_k = 1 and A_k†A_k = P_k (projector-valued
  measure);
* a unitary evolution on object ⊗ pointer that writes the outcome into an
  orthonormal pointer basis.

The pointer starts in e_0, so all that any check reads of the unitary is
its restriction to object ⊗ e_0, |v> -> sum_k A_k|v> ⊗ e_k: the
transformer stack read in another index order. ``StateTransformerSet`` is
therefore the one instrument object, and ``evolve`` applies it as that
evolution. ``probability_gap`` and ``conditional_state_gap`` measure, for
a given final vector, how far the pointer reproduces the predicted
probabilities and the transformers' conditional states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, InvalidTransformers, NullOutcome
from .linalg import (
    apply_on_factor,
    basis_vector,
    dag,
    frob,
    frozen_array,
    random_unitary,
)
from .observables import Observable, PureState


@dataclass(frozen=True)
class StateTransformerSet:
    """Outcome-labelled transformers {A_k}, aligned with observable terms.

    The family is stored once, as one read-only (K, dim, dim) stack in term order.
    """

    transformers: np.ndarray
    observable: Observable

    def __post_init__(self) -> None:
        obs = self.observable
        if len(self.transformers) != obs.n_outcomes:
            raise InvalidTransformers(f"{len(self.transformers)} transformers for {obs.n_outcomes} spectral terms")
        for k, a in enumerate(self.transformers):
            if np.shape(a) != (obs.dim, obs.dim):
                raise DimensionMismatch(f"transformer {k} has shape {np.shape(a)}, expected {(obs.dim, obs.dim)}")
        ops = frozen_array(self.transformers)
        object.__setattr__(self, "transformers", ops)
        total = np.zeros((obs.dim, obs.dim), dtype=complex)
        for k, (a, p) in enumerate(zip(ops, obs.projectors)):
            gram = dag(a) @ a
            if frob(gram - p) > tol.TRANSFORMER:
                raise InvalidTransformers(f"A_{k}†A_{k} deviates from its projector beyond {tol.TRANSFORMER}")
            total += gram
        if frob(total - np.eye(obs.dim)) > tol.TRANSFORMER:
            raise InvalidTransformers(f"sum A_k†A_k deviates from identity beyond {tol.TRANSFORMER}")

    @property
    def n_outcomes(self) -> int:
        return len(self.transformers)

    @property
    def pointer_observable(self) -> Observable:
        """The pointer observable sum_k k |e_k><e_k|: pointer term k records outcome k."""
        return _pointer(self.n_outcomes)

    @property
    def composite_dims(self) -> tuple[int, int]:
        """(object dim, pointer dim) of the object ⊗ pointer space the family evolves into."""
        return (self.observable.dim, self.n_outcomes)


def make_ideal_transformers(obs: Observable) -> StateTransformerSet:
    """Ideal measurement: each transformer is the spectral projector itself."""
    return StateTransformerSet(obs.projectors, obs)


def make_repeatable_transformers(obs: Observable, seed: int) -> StateTransformerSet:
    """Seeded random repeatable family A_k = W_k P_k.

    W_k acts as a random unitary inside the k-th eigenspace and as zero on
    its complement, so A_k†A_k = P_k exactly and P_k A_k = A_k. The same
    seed always yields the same family. The eigenvectors of the outcome
    index N = sum_k k P_k whose eigenvalue rounds to k span eigenspace k.
    """
    rng = np.random.default_rng(seed)
    indices, basis = np.linalg.eigh(obs.outcome_index())
    ops = np.empty((obs.n_outcomes, obs.dim, obs.dim), dtype=complex)
    for k in range(obs.n_outcomes):
        inside = basis[:, np.rint(indices) == k]
        u = random_unitary(inside.shape[1], rng)
        ops[k] = inside @ u @ dag(inside)
    ops.setflags(write=False)
    return StateTransformerSet(ops, obs)


def repeatability_violation(ts: StateTransformerSet) -> float:
    """Worst Frobenius violation of the repeatability condition A_k = P_k A_k over the outcomes."""
    return max(frob(a - p @ a) for a, p in zip(ts.transformers, ts.observable.projectors))


def post_state(ts: StateTransformerSet, psi: PureState, k: int) -> PureState:
    """Normalized state after outcome k: A_k|psi> / sqrt(p_k)."""
    if psi.dim != ts.observable.dim:
        raise DimensionMismatch(f"state dim {psi.dim} != observable dim {ts.observable.dim}")
    v = ts.transformers[k] @ psi.vector
    p = float(np.real(np.vdot(v, v)))
    if p <= tol.DETECTABILITY:
        raise NullOutcome(f"outcome {k} has probability {p} <= {tol.DETECTABILITY}")
    return PureState(v / np.sqrt(p))


@lru_cache(maxsize=32)
def _pointer(n: int) -> Observable:
    """Observable sum_k k |e_k><e_k| of an n-dim pointer, shared as it is immutable."""
    return Observable(tuple((float(k), np.diag(basis_vector(n, k))) for k in range(n)), n)


def evolve(ts: StateTransformerSet, psi: PureState) -> np.ndarray:
    """Final bipartite vector U (psi ⊗ e_0) = sum_k A_k|psi> ⊗ e_k, at index j·n + k.

    The pointer has one dimension per outcome and starts in e_0. The
    vector's norm is <psi| sum_k A_k†A_k |psi>, which the family's
    constructor already holds to 1; the unitary's action off object ⊗ e_0
    never affects a measurement.
    """
    if psi.dim != ts.observable.dim:
        raise DimensionMismatch(f"state dim {psi.dim} != object dim {ts.observable.dim}")
    return (ts.transformers @ psi.vector).T.reshape(-1)


def probability_gap(ts: StateTransformerSet, born: np.ndarray, final: np.ndarray) -> float:
    """Worst |p_k - <final|1 ⊗ Q_k|final>| over the outcomes, for a given final vector."""
    components = apply_on_factor(ts.pointer_observable.projectors, final, ts.composite_dims, 1)
    read = np.real(components @ np.conj(final))
    return float(np.max(np.abs(born - read)))


def conditional_state_gap(ts: StateTransformerSet, psi: PureState, final: np.ndarray) -> float:
    """Worst gap between the two conditional-state routes, for a given final vector |Psi>."""
    dims = ts.composite_dims
    # Tr_2 of (1 ⊗ Q_k)|Psi><Psi|(1 ⊗ Q_k) is M_k M_k†, with M_k the vector (1 ⊗ Q_k)|Psi> reshaped to d x n
    components = apply_on_factor(ts.pointer_observable.projectors, final, dims, 1).reshape(-1, *dims)
    rho = psi.projector()
    worst = 0.0
    for a, m in zip(ts.transformers, components):
        worst = max(worst, frob(a @ rho @ dag(a) - m @ dag(m)))
    return worst


def repeat_measurement_check(ts: StateTransformerSet, psi: PureState, born: np.ndarray) -> float:
    """Smallest conditional probability of confirming an outcome on repetition.

    For every outcome detectable under the Born vector ``born``: apply the
    transformer, then measure the observable again on the post-measurement
    state and take the probability of the eigenvalue certified by the
    pointer reading, which is term k again because pointer term k records
    outcome k. Repeatable families give 1 for every outcome.
    """
    if len(born) != ts.n_outcomes:
        raise DimensionMismatch(f"{len(born)} probabilities for {ts.n_outcomes} outcomes")
    smallest = 1.0
    for k, (_, p) in enumerate(ts.observable.terms):
        if born[k] <= tol.DETECTABILITY:
            continue
        after = post_state(ts, psi, k).vector
        smallest = min(smallest, float(np.real(np.vdot(after, p @ after))))
    return smallest


__all__ = [
    "StateTransformerSet",
    "make_ideal_transformers",
    "make_repeatable_transformers",
    "repeatability_violation",
    "post_state",
    "evolve",
    "repeat_measurement_check",
]
