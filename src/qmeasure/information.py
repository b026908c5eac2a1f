"""Entropy functionals, incompatibility entropy, and the ideal pointer reading.

All entropies are in bits (base-2 logarithms). The incompatibility (or
coherence) entropy of an observable in a state is the entropy increase
under the projective Lüders update; it vanishes exactly when observable
and state commute. In a pure vector it is the entropy of the branch
weights, and for repeatable instruments it equals the entanglement of the
final object-pointer vector. That entanglement, S1, is H of the squared
Schmidt coefficients: both marginals of a pure vector have them as
spectrum, so S2 = S1, S12 = 0 and the mutual information is 2 S1, and a
report carries only S1 and H(p).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, NonRepeatableInput, NotADistribution
from .linalg import check_unit_norm, dag, frob
from .instruments import StateTransformerSet
from .observables import Observable

# Not used here. It stays importable from this module because bench/selftest.py
# checks that tracing restores this name in this namespace.
from .observables import embed_observable  # noqa: F401


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
    if not abs(total - 1.0) <= tol.DISTRIBUTION_SUM:  # a NaN entry makes the sum NaN, and fails
        raise NotADistribution(f"entries sum to {total}, not 1 within {tol.DISTRIBUTION_SUM}")
    kept = arr[arr > tol.ENTROPY_CUTOFF]
    # a weight rounded above 1 gives a term of about -1e-16, and one weight of 1 gives -0.0
    return max(0.0, float(-(kept * np.log2(kept)).sum()))


def _first_factor(obs: Observable, w: np.ndarray) -> np.ndarray:
    """``w`` as obs.dim × rest: its rows split as (first factor, the other factors), those joined to its columns."""
    if w.shape[0] % obs.dim:
        raise DimensionMismatch(f"observable of dim {obs.dim} is not the first factor of {w.shape[0]} rows")
    return w.reshape(obs.dim, -1)


def lifted_incompatibility_entropy(obs: Observable, vector: np.ndarray) -> float:
    """Incompatibility entropy of obs ⊗ 1, with obs on the first tensor factor, in a unit vector.

    The Lüders update of |v><v| is sum_k |v_k><v_k| with v_k = (P_k ⊗ 1) v, and P_j P_k = 0 makes
    the branches v_k orthogonal: the update's spectrum is their weights ||v_k||² = sum_{a in k} ||c_a||²,
    where c = V† v with v read as d × rest, and |v><v| itself has entropy 0. ``validate_observable``
    holds the overlaps V_j†V_k within ORTHONORMALITY when obs is built. This costs O(d D) and forms
    no d × d product; the update costs O(D^3).
    """
    v, _ = check_unit_norm(vector)
    c = obs.adjoint @ _first_factor(obs, v)
    return shannon_entropy(np.vecdot(c, c).real @ obs.indicator)


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

    # Q_k = |e_k><e_k|: the update sum_k Q_k rho2 Q_k is diag(rho2), and (1 ⊗ Q_k) final is column k of the
    # d × n matrix M of final, whose pointer marginal is rho2 = Mᵀ M̄
    columns = final.reshape(dims)
    rho2 = columns.T @ np.conj(columns)
    damage = frob(rho2 - np.diag(np.diagonal(rho2)))
    if not damage < tol.DEFINITE_VALUE:  # NaN fails
        raise NonRepeatableInput(f"pointer marginal has coherence {damage:.3e} across pointer outcomes")

    detectable = (np.vecdot(columns, columns, axis=0).real > tol.DETECTABILITY).nonzero()[0]
    # tri[i, j, l] = columns[i, j] for j the l-th detectable outcome, i.e. sum_l (1 ⊗ Q_l) final ⊗ e_l
    tri = np.zeros((*dims, detectable.size), dtype=complex)
    tri[:, detectable, np.arange(detectable.size)] = columns[:, detectable]
    return tri.reshape(-1), (dims[0], dims[1], detectable.size)


def low_rank_commutator_norm(obs: Observable, w: np.ndarray) -> float:
    """Frobenius norm of [X, W W†] for X = obs ⊗ 1, with obs on the first tensor factor, from the D×K matrix W.

    With Q R = [W, XW] and R = [R_W R_Y], [X, W W†] = Q (R_Y R_W† - R_W R_Y†) Q†,
    and Q's orthonormal columns drop out of the norm. This costs O(D K min(D, K)).
    The trace formula for the same norm loses about 1e-8 to cancellation.
    """
    k = w.shape[1]
    xw = (obs.matrix() @ _first_factor(obs, w)).reshape(w.shape)
    r = np.linalg.qr(np.concatenate([w, xw], axis=1), mode="r")
    m = r[:, k:] @ dag(r[:, :k])
    return frob(m - dag(m))


__all__ = [
    "Verdict",
    "shannon_entropy",
    "lifted_incompatibility_entropy",
    "read_pointer_tripartite",
    "low_rank_commutator_norm",
]
