"""State transformers, repeatability, and the dilated measurement evolution.

A measurement of an observable is described in two equivalent ways:

* a family of state transformers (Kraus operators) A_k, one per spectral
  term, with sum_k A_k†A_k = 1 and A_k†A_k = P_k (projector-valued
  measure);
* a unitary evolution on object ⊗ pointer that writes the outcome into an
  orthonormal pointer basis.

``dilate`` turns the first description into the second; the verify_*
helpers check that the two descriptions agree and that predicted
probabilities are reproduced on the pointer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, InvalidTransformers, NotOrthonormal, NullOutcome
from .linalg import (
    apply_on_factor,
    basis_vector,
    complete_isometry,
    dag,
    frob,
    frozen_array,
    kron,
    pure_marginal,
    random_unitary,
)
from .observables import Observable, PureState, probabilities


@dataclass(frozen=True)
class StateTransformerSet:
    """Outcome-labelled transformers {A_k}, aligned with observable terms."""

    transformers: tuple[np.ndarray, ...]
    observable: Observable

    def __post_init__(self) -> None:
        ops = tuple(frozen_array(a) for a in self.transformers)
        object.__setattr__(self, "transformers", ops)
        obs = self.observable
        if len(ops) != obs.n_outcomes:
            raise InvalidTransformers(f"{len(ops)} transformers for {obs.n_outcomes} spectral terms")
        for k, a in enumerate(ops):
            if a.shape != (obs.dim, obs.dim):
                raise DimensionMismatch(f"transformer {k} has shape {a.shape}, expected {(obs.dim, obs.dim)}")
            gram = dag(a) @ a
            if frob(gram - obs.terms[k][1]) > tol.TRANSFORMER:
                raise InvalidTransformers(f"A_{k}†A_{k} deviates from its projector beyond {tol.TRANSFORMER}")
        total = sum(dag(a) @ a for a in ops)
        if frob(total - np.eye(obs.dim)) > tol.TRANSFORMER:
            raise InvalidTransformers(f"sum A_k†A_k deviates from identity beyond {tol.TRANSFORMER}")

    @property
    def n_outcomes(self) -> int:
        return len(self.transformers)


@dataclass(frozen=True)
class MeasurementModel:
    """Dilated instrument: pointer space, initial pointer state, unitary, pointer observable.

    Outcome k (term index of the measured observable) is read as pointer
    term k. No invariants are enforced at construction so that tests can build
    deliberately corrupted instruments; ``dilate`` always returns a valid one.
    """

    observable: Observable
    object_dim: int
    pointer_dim: int
    pointer_initial: PureState
    unitary: np.ndarray
    pointer_observable: Observable

    def __post_init__(self) -> None:
        object.__setattr__(self, "unitary", frozen_array(self.unitary))

    @property
    def composite_dims(self) -> tuple[int, int]:
        return (self.object_dim, self.pointer_dim)


def make_ideal_transformers(obs: Observable) -> StateTransformerSet:
    """Ideal measurement: each transformer is the spectral projector itself."""
    return StateTransformerSet(tuple(p.copy() for p in obs.projectors), obs)


def make_repeatable_transformers(obs: Observable, seed: int) -> StateTransformerSet:
    """Seeded random repeatable family A_k = W_k P_k.

    W_k acts as a random unitary inside the k-th eigenspace and as zero on
    its complement, so A_k†A_k = P_k exactly and P_k A_k = A_k. The same
    seed always yields the same family.
    """
    rng = np.random.default_rng(seed)
    ops = []
    for _, p in obs.terms:
        w, v = np.linalg.eigh(p)
        inside = v[:, w > 0.5]  # orthonormal basis of the eigenspace
        u = random_unitary(inside.shape[1], rng)
        ops.append(inside @ u @ dag(inside))
    return StateTransformerSet(tuple(ops), obs)


def is_repeatable(ts: StateTransformerSet) -> tuple[bool, float]:
    """Check the repeatability condition A_k = P_k A_k for every outcome.

    Returns (flag, worst Frobenius violation).
    """
    worst = 0.0
    for a, (_, p) in zip(ts.transformers, ts.observable.terms):
        worst = max(worst, frob(a - p @ a))
    return worst < tol.REPEATABILITY, worst


def post_state(ts: StateTransformerSet, psi: PureState, k: int) -> PureState:
    """Normalized state after outcome k: A_k|psi> / sqrt(p_k)."""
    if psi.dim != ts.observable.dim:
        raise DimensionMismatch(f"state dim {psi.dim} != observable dim {ts.observable.dim}")
    v = ts.transformers[k] @ psi.vector
    p = float(np.real(np.vdot(v, v)))
    if p <= tol.DETECTABILITY:
        raise NullOutcome(f"outcome {k} has probability {p} <= {tol.DETECTABILITY}")
    return PureState(v / np.sqrt(p))


def dilate(ts: StateTransformerSet) -> MeasurementModel:
    """Build a unitary instrument realizing the transformer family.

    The pointer space has one dimension per outcome, starts in the first
    pointer basis vector, and the pointer observable has eigenvalue k on
    basis vector k. On the subspace object ⊗ e_0 the unitary acts as
    |v> ⊗ e_0 -> sum_k (A_k|v>) ⊗ e_k; the action elsewhere is a
    deterministic isometry completion and never affects measurements.
    """
    obs = ts.observable
    d = obs.dim
    n = ts.n_outcomes
    total = d * n

    images = []
    for i in range(d):
        img = np.zeros((d, n), dtype=complex)
        for k, a in enumerate(ts.transformers):
            img[:, k] = a[:, i]
        images.append(img.reshape(total))
    try:
        packed = complete_isometry(images, total)
    except NotOrthonormal as exc:
        raise InvalidTransformers(f"transformer family does not dilate to a unitary: {exc}") from exc

    # column i of `packed` is the image of |i> ⊗ e_0, which lives at
    # composite index i*n; completion columns fill the remaining slots in
    # lexicographic order.
    slots = [i * n for i in range(d)] + [i * n + m for i in range(d) for m in range(1, n)]
    unitary = np.zeros((total, total), dtype=complex)
    for j, slot in enumerate(slots):
        unitary[:, slot] = packed[:, j]

    pointer_terms = tuple(
        (float(k), np.outer(basis_vector(n, k), np.conj(basis_vector(n, k)))) for k in range(n)
    )
    return MeasurementModel(
        observable=obs,
        object_dim=d,
        pointer_dim=n,
        pointer_initial=PureState(basis_vector(n, 0)),
        unitary=unitary,
        pointer_observable=Observable(pointer_terms, n),
    )


def evolve(model: MeasurementModel, psi: PureState) -> np.ndarray:
    """Final bipartite vector U (psi ⊗ pointer_initial)."""
    if psi.dim != model.object_dim:
        raise DimensionMismatch(f"state dim {psi.dim} != object dim {model.object_dim}")
    if model.pointer_initial.dim != model.pointer_dim:
        raise DimensionMismatch("pointer initial state does not match pointer dim")
    return model.unitary @ kron(psi.vector, model.pointer_initial.vector)


def verify_probability_reproducibility(model: MeasurementModel, psi: PureState) -> float:
    """Worst gap between Born probabilities and pointer-readout probabilities."""
    return probability_gap(model, probabilities(model.observable, psi), evolve(model, psi))


def probability_gap(model: MeasurementModel, born: np.ndarray, final: np.ndarray) -> float:
    """Worst |p_k - <final|1 ⊗ Q_k|final>| over the outcomes, for a given final vector."""
    worst = 0.0
    for k, q in enumerate(model.pointer_observable.projectors):
        read = float(np.real(np.vdot(final, apply_on_factor(q, final, model.composite_dims, 1))))
        worst = max(worst, abs(born[k] - read))
    return worst


def verify_conditional_states(model: MeasurementModel, ts: StateTransformerSet, psi: PureState) -> float:
    """Worst gap between the two conditional-state routes.

    For every outcome k the unnormalized object state after reading the
    pointer, Tr_2(Q_k |Psi><Psi| Q_k), must equal A_k |psi><psi| A_k†.
    """
    return conditional_state_gap(model, ts, psi, evolve(model, psi))


def conditional_state_gap(
    model: MeasurementModel, ts: StateTransformerSet, psi: PureState, final: np.ndarray
) -> float:
    """Worst gap between the two conditional-state routes, for a given final vector |Psi>."""
    if model.object_dim != ts.observable.dim:
        raise DimensionMismatch("model and transformer family disagree on the object dimension")
    dims = model.composite_dims
    worst = 0.0
    for k, q in enumerate(model.pointer_observable.projectors):
        a = ts.transformers[k]
        direct = a @ psi.projector() @ dag(a)
        # Tr_2 of (1 ⊗ Q_k)|Psi><Psi|(1 ⊗ Q_k) is the marginal of the pure vector (1 ⊗ Q_k)|Psi>
        via_pointer = pure_marginal(apply_on_factor(q, final, dims, 1), dims, keep=0)
        worst = max(worst, frob(direct - via_pointer))
    return worst


def repeat_measurement_check(model: MeasurementModel, ts: StateTransformerSet, psi: PureState) -> float:
    """Smallest conditional probability of confirming an outcome on repetition.

    For every detectable outcome: apply the transformer, then measure the
    observable again on the post-measurement state and take the probability
    of the eigenvalue certified by the pointer reading, which is term k
    again because pointer term k records outcome k. Repeatable families give
    1 for every outcome.
    """
    if model.object_dim != ts.observable.dim:
        raise DimensionMismatch("model and transformer family disagree on the object dimension")
    born = probabilities(ts.observable, psi)
    smallest = 1.0
    for k in range(ts.n_outcomes):
        if born[k] <= tol.DETECTABILITY:
            continue
        after = post_state(ts, psi, k)
        repeated = probabilities(ts.observable, after)
        smallest = min(smallest, float(repeated[k]))
    return smallest


__all__ = [
    "StateTransformerSet",
    "MeasurementModel",
    "make_ideal_transformers",
    "make_repeatable_transformers",
    "is_repeatable",
    "post_state",
    "dilate",
    "evolve",
    "verify_probability_reproducibility",
    "verify_conditional_states",
    "repeat_measurement_check",
]
