"""Entropy functionals, incompatibility entropy, and the ideal pointer reading.

All entropies are in bits (base-2 logarithms). The incompatibility (or
coherence) entropy of an observable in a state is the entropy increase
under the projective Lüders update; it vanishes exactly when observable
and state commute. ``final_state_identity`` and ``transfer_identity``
compare, through disjoint numeric routes, this quantity with the
entanglement of the final object-pointer vector, which it equals for
repeatable instruments; the pipeline's checks read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, NonRepeatableInput, NotADistribution
from .linalg import apply_on_factor, check_unit_norm, dag, frob, pure_marginal
from .instruments import StateTransformerSet
from .observables import DensityOperator, Observable, PureState, check_dims

# Not used here. It stays importable from this module because bench/selftest.py
# checks that tracing restores this name in this namespace.
from .observables import embed_observable  # noqa: F401


@dataclass(frozen=True)
class EntropyReport:
    """Entropy bookkeeping of a bipartite pure vector, in bits."""

    s1: float
    s2: float
    s12: float
    mutual_information: float
    entanglement: float
    quasi_classical: float
    shannon_pk: float


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
    # a weight rounded above 1 gives a term of about -1e-16, and one weight of 1 gives -0.0
    return max(0.0, float(-np.sum(kept * np.log2(kept))))


def von_neumann_entropy(rho: DensityOperator | np.ndarray) -> float:
    """Entropy of the eigenvalue spectrum, negatives clamped to zero."""
    if not isinstance(rho, DensityOperator):
        rho = DensityOperator(np.asarray(rho, dtype=complex))  # raises NotDensityOperator
    return shannon_entropy(np.maximum(rho.eigenvalues(), 0.0))


def mutual_information(state: np.ndarray, structure: Sequence[int]) -> EntropyReport:
    """Full entropy report for a bipartite pure vector, read from its reshaped matrix.

    S1 and S2 come from its two marginals, S12 from its 1 x 1 Gram matrix <v|v>.
    """
    dims = tuple(int(d) for d in structure)
    if len(dims) != 2:
        raise DimensionMismatch(f"mutual information needs a bipartite structure, got {dims}")
    shape = np.shape(state.matrix if isinstance(state, DensityOperator) else state)
    if len(shape) != 1:
        raise DimensionMismatch(f"mutual information needs a pure vector, got an input of shape {shape}")
    v, norm = check_unit_norm(state)
    v = v / norm  # pure_marginal raises DimensionMismatch if dims do not factor v
    s1, s2 = (von_neumann_entropy(pure_marginal(v, dims, keep=k)) for k in (0, 1))
    s12 = _gram_entropy(v[:, None])
    # The squared Schmidt coefficients are the spectrum of either marginal, so the
    # entanglement, the quasi-classical information and their Shannon entropy are all S1.
    return EntropyReport(s1, s2, s12, s1 + s2 - s12, s1, s1, s1)


def incompatibility_entropy(obs: Observable, state: PureState) -> float:
    """Entropy increase under the projective update of the observable.

    Zero exactly when the state is an eigenvector of the observable, and
    equal to the Shannon entropy of the outcome probabilities. It takes the
    Gram-matrix route of ``lifted_incompatibility_entropy``.
    """
    check_dims(obs, state)
    return lifted_incompatibility_entropy(obs, state.vector, (obs.dim,), 0)


def lifted_incompatibility_entropy(
    obs: Observable, vector: np.ndarray, structure: Sequence[int], factor: int
) -> float:
    """Incompatibility entropy of obs ⊗ 1, with obs on one tensor factor, in a pure vector.

    The Lüders update of |v><v| is sum_k |v_k><v_k| with v_k = (P_k ⊗ 1) v,
    and |v><v| itself is the one-component case. This costs O(D K) for a
    D-dimensional vector, where the update itself costs O(D^3).
    """
    v = np.asarray(vector, dtype=complex).reshape(-1)
    components = apply_on_factor(obs.projectors, v, structure, factor)  # row k is v_k
    return _gram_entropy(components.T) - _gram_entropy(v[:, None])


def _gram_entropy(components: np.ndarray) -> float:
    """Entropy of sum_k |v_k><v_k| over the columns v_k, from their K x K Gram matrix.

    M M† and G = M† M have the same nonzero spectrum, so G_jk = <v_j|v_k>
    is checked as a density operator and its eigenvalues give the entropy.
    They equal the weights <v_k|v_k> only when the columns are orthogonal,
    so on an update's components this is a second route to H(p), not a
    restatement of it. vecdot conjugates its first argument as it goes, so
    no conjugate copy of the components is made.
    """
    return von_neumann_entropy(np.vecdot(components.T[:, None], components.T[None, :]))


def commutator_norm(obs: Observable, state: PureState | DensityOperator) -> float:
    """Frobenius norm of [A, rho]."""
    if obs.dim != state.dim:
        raise DimensionMismatch(f"observable dim {obs.dim} != state dim {state.dim}")
    a = obs.matrix()
    rho = state.projector() if isinstance(state, PureState) else state.matrix
    return frob(a @ rho - rho @ a)


def final_state_identity(
    entanglement: float, obs: Observable, final: np.ndarray, structure: Sequence[int], h_born: float
) -> tuple[float, float, float]:
    """(entanglement, incompatibility entropy of obs ⊗ 1 in ``final``, worst pairwise gap incl. H(p))."""
    rhs = lifted_incompatibility_entropy(obs, final, structure, 0)
    deviation = max(abs(entanglement - rhs), abs(entanglement - h_born), abs(rhs - h_born))
    return entanglement, rhs, deviation


def transfer_identity(obs: Observable, psi: PureState, entanglement: float) -> tuple[float, float, float]:
    """(incompatibility entropy of obs in the initial state, final entanglement, their gap)."""
    lhs = incompatibility_entropy(obs, psi)
    return lhs, entanglement, abs(lhs - entanglement)


def read_pointer_tripartite(final: np.ndarray, ts: StateTransformerSet) -> tuple[np.ndarray, tuple[int, int, int]]:
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
    dims = ts.composite_dims
    if final.size != dims[0] * dims[1]:
        raise DimensionMismatch(f"vector of dim {final.size} does not match {dims}")

    components = apply_on_factor(ts.pointer_observable.projectors, final, dims, 1)  # row k is (1 ⊗ Q_k) final
    # The update sum_k Q_k rho2 Q_k is the pointer marginal of the components taken together.
    rows = components.reshape(-1, dims[1])
    damage = frob(pure_marginal(final, dims, keep=1) - rows.T @ np.conj(rows))
    if damage >= tol.DEFINITE_VALUE:
        raise NonRepeatableInput(f"pointer marginal has coherence {damage:.3e} across pointer outcomes")

    detectable = components[np.linalg.norm(components, axis=1) ** 2 > tol.DETECTABILITY]
    # tri[i * d3 + j] = detectable[j][i], i.e. sum_j detectable[j] ⊗ e_j
    return detectable.T.reshape(-1), (dims[0], dims[1], len(detectable))


def low_rank_commutator_norm(obs: Observable, w: np.ndarray, structure: Sequence[int], factor: int) -> float:
    """Frobenius norm of [X, W W†] for X = obs ⊗ 1, with obs on one tensor factor, from the D×K matrix W.

    With Q R = [W, XW] and R = [R_W R_Y], [X, W W†] = Q (R_Y R_W† - R_W R_Y†) Q†,
    and Q's orthonormal columns drop out of the norm. This costs O(D K²).
    The trace formula for the same norm loses about 1e-8 to cancellation.
    """
    k = w.shape[1]
    r = np.linalg.qr(np.hstack([w, apply_on_factor(obs.matrix(), w, structure, factor)]), mode="r")
    m = r[:, k:] @ dag(r[:, :k])
    return frob(m - dag(m))


__all__ = [
    "EntropyReport",
    "Verdict",
    "shannon_entropy",
    "von_neumann_entropy",
    "mutual_information",
    "incompatibility_entropy",
    "lifted_incompatibility_entropy",
    "commutator_norm",
    "read_pointer_tripartite",
    "low_rank_commutator_norm",
]
