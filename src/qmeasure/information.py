"""Entropy functionals, incompatibility entropy, and identity verifiers.

All entropies are in bits (base-2 logarithms). The incompatibility (or
coherence) entropy of an observable in a state is the entropy increase
under the projective Lüders update; it vanishes exactly when observable
and state commute. The two verify_* functions check, through disjoint
numeric routes, that for repeatable instruments this quantity equals the
entanglement of the final object-pointer vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, NonRepeatableInput, NotADistribution
from .linalg import basis_vector, check_unit_norm, frob, hermitize, kron, partial_trace
from .instruments import MeasurementModel, StateTransformerSet, evolve
from .observables import (
    DensityOperator,
    Observable,
    PureState,
    State,
    check_dims,
    density_matrix,
    embed_observable,
    luders_update,
    probabilities,
)
from .schmidt import schmidt_decompose


@dataclass(frozen=True)
class EntropyReport:
    """Entropy bookkeeping of a bipartite state, in bits.

    The last three fields are only defined for pure input states and stay
    None for mixed ones.
    """

    s1: float
    s2: float
    s12: float
    mutual_information: float
    entanglement: float | None
    quasi_classical: float | None
    shannon_pk: float | None


@dataclass(frozen=True)
class Verdict:
    """Outcome of one numeric identity check."""

    label: str
    lhs: float
    rhs: float
    deviation: float
    tolerance: float
    passed: bool

    @classmethod
    def from_deviation(cls, label: str, lhs: float, rhs: float, deviation: float, tolerance: float) -> "Verdict":
        return cls(label, float(lhs), float(rhs), float(deviation), float(tolerance), bool(deviation <= tolerance))


def shannon_entropy(p: Sequence[float]) -> float:
    """Shannon entropy -sum p log2 p with 0 log 0 = 0."""
    arr = np.asarray(p, dtype=float)
    if arr.size and float(arr.min()) < -tol.DISTRIBUTION_NEG:
        raise NotADistribution(f"negative entry {arr.min()} below -{tol.DISTRIBUTION_NEG}")
    total = float(arr.sum())
    if abs(total - 1.0) > tol.DISTRIBUTION_SUM:
        raise NotADistribution(f"entries sum to {total}, not 1 within {tol.DISTRIBUTION_SUM}")
    kept = arr[arr > tol.ENTROPY_CUTOFF]
    return float(-np.sum(kept * np.log2(kept)))


def von_neumann_entropy(rho: DensityOperator | np.ndarray) -> float:
    """Entropy of the eigenvalue spectrum, negatives clamped to zero."""
    if not isinstance(rho, DensityOperator):
        rho = DensityOperator(np.asarray(rho, dtype=complex))  # raises NotDensityOperator
    values = np.clip(rho.eigenvalues(), 0.0, None)
    return shannon_entropy(values)


def entanglement_of_pure_state(psi: np.ndarray, structure: Sequence[int]) -> float:
    """Entropy of the first marginal of a normalized bipartite vector."""
    psi, norm = check_unit_norm(psi)
    psi = psi / norm
    dims = tuple(int(d) for d in structure)
    if len(dims) != 2:
        raise DimensionMismatch(f"entanglement needs a bipartite structure, got {dims}")
    rho1 = partial_trace(np.outer(psi, np.conj(psi)), dims, keep=0)
    return von_neumann_entropy(hermitize(rho1))


def mutual_information(state: np.ndarray | DensityOperator, structure: Sequence[int]) -> EntropyReport:
    """Full entropy report for a bipartite pure vector or density operator."""
    dims = tuple(int(d) for d in structure)
    if len(dims) != 2:
        raise DimensionMismatch(f"mutual information needs a bipartite structure, got {dims}")

    pure_vector: np.ndarray | None = None
    if isinstance(state, DensityOperator):
        rho = state.matrix
    else:
        arr = np.asarray(state, dtype=complex)
        if arr.ndim == 1:
            arr, norm = check_unit_norm(arr)
            pure_vector = arr / norm
            rho = np.outer(pure_vector, np.conj(pure_vector))
        else:
            rho = DensityOperator(arr).matrix
    if rho.shape[0] != int(np.prod(dims)):
        raise DimensionMismatch(f"state dim {rho.shape[0]} does not match structure {dims}")

    s1 = von_neumann_entropy(hermitize(partial_trace(rho, dims, keep=0)))
    s2 = von_neumann_entropy(hermitize(partial_trace(rho, dims, keep=1)))
    s12 = von_neumann_entropy(hermitize(rho))
    info = s1 + s2 - s12

    entanglement = quasi_classical = shannon_pk = None
    if pure_vector is not None:
        entanglement = entanglement_of_pure_state(pure_vector, dims)
        quasi_classical = s1
        sf = schmidt_decompose(pure_vector, dims)
        shannon_pk = shannon_entropy(sf.coefficients**2)
    return EntropyReport(s1, s2, s12, info, entanglement, quasi_classical, shannon_pk)


def incompatibility_entropy(obs: Observable, state: State) -> float:
    """Entropy increase under the projective update of the observable.

    Zero exactly when the observable commutes with the state; for a pure
    state it equals the Shannon entropy of the outcome probabilities.
    """
    if isinstance(state, PureState):
        before = DensityOperator.from_pure(state)
    else:
        before = state
    after = luders_update(obs, state)
    return von_neumann_entropy(after) - von_neumann_entropy(before)


def commutator_norm(obs: Observable, state: State) -> float:
    """Frobenius norm of [A, rho]."""
    check_dims(obs, state)
    a = obs.matrix()
    rho = density_matrix(state)
    return frob(a @ rho - rho @ a)


def verify_entanglement_as_incompatibility(
    model: MeasurementModel,
    ts: StateTransformerSet,
    psi: PureState,
) -> Verdict:
    """Entanglement of the final vector vs incompatibility entropy in it.

    Three disjoint routes must agree: the marginal entropy of the evolved
    vector, the incompatibility entropy of the lifted observable in the
    evolved vector, and the Shannon entropy of the Born probabilities.
    """
    final = evolve(model, psi)
    dims = model.composite_dims
    lhs, rhs, deviation = final_state_identity(
        entanglement_of_pure_state(final, dims),
        embed_observable(ts.observable, dims, factor=0),
        final,
        shannon_entropy(np.clip(probabilities(ts.observable, psi), 0.0, None)),
    )
    return Verdict.from_deviation("entanglement_incompatibility_final", lhs, rhs, deviation, tol.THEOREM)


def final_state_identity(
    entanglement: float, lifted: Observable, final: np.ndarray, h_born: float
) -> tuple[float, float, float]:
    """(entanglement, incompatibility entropy of ``lifted`` in ``final``, worst pairwise gap incl. H(p))."""
    rhs = incompatibility_entropy(lifted, PureState(final))
    deviation = max(abs(entanglement - rhs), abs(entanglement - h_born), abs(rhs - h_born))
    return entanglement, rhs, deviation


def verify_incompatibility_transfer(
    ts: StateTransformerSet,
    psi: PureState,
    model: MeasurementModel,
) -> Verdict:
    """Incompatibility entropy in the initial state vs final entanglement."""
    final = evolve(model, psi)
    lhs, rhs, deviation = transfer_identity(
        ts.observable, psi, entanglement_of_pure_state(final, model.composite_dims)
    )
    return Verdict.from_deviation("entanglement_incompatibility_initial", lhs, rhs, deviation, tol.THEOREM)


def transfer_identity(obs: Observable, psi: PureState, entanglement: float) -> tuple[float, float, float]:
    """(incompatibility entropy of obs in the initial state, final entanglement, their gap)."""
    lhs = incompatibility_entropy(obs, psi)
    return lhs, entanglement, abs(lhs - entanglement)


def read_pointer_tripartite(
    final: np.ndarray,
    model: MeasurementModel,
) -> tuple[np.ndarray, tuple[int, int, int]]:
    """Ideal pointer reading of the final vector, as a tripartite vector.

    A second pointer with one dimension per detectable outcome records the
    reading: the result is sum_k (Q_k-component of final) ⊗ e_k over the
    detectable pointer outcomes, in term order. The input must admit a
    Schmidt form with definite pointer values; equivalently (and free of
    any basis choice inside degenerate coefficient groups) its pointer
    marginal must be left unchanged by the projective update of the
    pointer observable. Anything else is rejected.
    """
    final = np.asarray(final, dtype=complex).reshape(-1)
    dims = model.composite_dims
    if final.size != dims[0] * dims[1]:
        raise DimensionMismatch(f"vector of dim {final.size} does not match {dims}")

    rho2 = partial_trace(np.outer(final, np.conj(final)), dims, keep=1)
    updated = sum(q @ rho2 @ q for q in model.pointer_observable.projectors)
    damage = frob(rho2 - updated)
    if damage >= tol.DEFINITE_VALUE:
        raise NonRepeatableInput(
            f"pointer marginal has coherence {damage:.3e} across pointer outcomes"
        )

    eye = np.eye(dims[0], dtype=complex)
    components = []
    for q in model.pointer_observable.projectors:
        v = kron(eye, q) @ final
        if float(np.real(np.vdot(v, v))) > tol.DETECTABILITY:
            components.append(v)
    d3 = len(components)
    tri = np.zeros(final.size * d3, dtype=complex)
    for j, v in enumerate(components):
        tri += kron(v, basis_vector(d3, j))
    return tri, (dims[0], dims[1], d3)


def post_reading_state(tri: np.ndarray, structure: Sequence[int]) -> DensityOperator:
    """Joint object-pointer state after the reading: trace over the reader."""
    tri = np.asarray(tri, dtype=complex).reshape(-1)
    dims = tuple(int(d) for d in structure)
    if len(dims) != 3:
        raise DimensionMismatch(f"post-reading state needs a tripartite structure, got {dims}")
    rho = partial_trace(np.outer(tri, np.conj(tri)), dims, keep=(0, 1))
    return DensityOperator(hermitize(rho))


__all__ = [
    "EntropyReport",
    "Verdict",
    "shannon_entropy",
    "von_neumann_entropy",
    "entanglement_of_pure_state",
    "mutual_information",
    "incompatibility_entropy",
    "commutator_norm",
    "verify_entanglement_as_incompatibility",
    "verify_incompatibility_transfer",
    "read_pointer_tripartite",
    "post_reading_state",
]
