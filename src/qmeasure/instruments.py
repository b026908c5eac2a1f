"""State transformers, repeatability, and the measurement evolution they define.

A measurement is a family of state transformers (Kraus operators) A_k, one
per spectral term, with A_k†A_k = P_k. That makes A_k vanish off eigenspace
k, so A_k = B_k V_k† with V_k the observable's basis columns of eigenspace k
and B_k = A_k V_k a d × r_k block: the family is one d × d matrix
B = [B_0 | ... | B_{K-1}], checked as B_k†B_k = 1. Completeness,
sum_k A_k†A_k = V (⊕_k B_k†B_k) V† = 1, follows.

The unitary evolution on object ⊗ pointer that writes the outcome into an
orthonormal pointer basis starts the pointer in e_0, so all that any check
reads of it is |v> -> sum_k A_k|v> ⊗ e_k, which ``evolve`` applies.
``probability_gap`` and ``conditional_state_gap`` measure, for a given
final vector, how far the pointer reproduces the predicted probabilities
and the transformers' conditional states.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, InvalidTransformers, NullOutcome
from .linalg import dag, frob, frozen_array, random_unitary, read_only
from .observables import Observable, PureState


@dataclass(frozen=True)
class StateTransformerSet:
    """Outcome-labelled transformers A_k = B_k V_k†, as the read-only d × d matrix B of the blocks B_k."""

    blocks: np.ndarray
    observable: Observable

    def __post_init__(self) -> None:
        obs = self.observable
        b = frozen_array(self.blocks)
        if b.shape != (obs.dim, obs.dim):
            raise DimensionMismatch(f"transformer blocks of shape {b.shape}, expected {(obs.dim, obs.dim)}")
        object.__setattr__(self, "blocks", b)
        # |A_k†A_k - P_k| = |B_k†B_k - 1|: the diagonal blocks of B†B - 1, summed block by block
        ind = obs.indicator
        off = (dag(b) @ b - np.eye(obs.dim)) * (ind @ ind.T)
        failing = (~(np.sqrt(np.vecdot(off, off, axis=0).real @ ind) <= tol.TRANSFORMER)).nonzero()[0]
        if failing.size:
            k = failing[0]
            raise InvalidTransformers(f"A_{k}†A_{k} deviates from its projector beyond {tol.TRANSFORMER}")

    @classmethod
    def from_transformers(cls, transformers: Sequence[np.ndarray], obs: Observable) -> StateTransformerSet:
        """The dense transformers A_k, in term order, as B_k = A_k V_k.

        Each needs |A_k - B_k V_k†| <= TRANSFORMER, taken as |A_k V| outside the columns of term k.
        """
        if len(transformers) != obs.n_outcomes:
            raise InvalidTransformers(f"{len(transformers)} transformers for {obs.n_outcomes} spectral terms")
        b = np.empty((obs.dim, obs.dim), dtype=complex)
        for k, (a, cols) in enumerate(zip(transformers, obs.columns)):
            if np.shape(a) != (obs.dim, obs.dim):
                raise DimensionMismatch(f"transformer {k} has shape {np.shape(a)}, expected {(obs.dim, obs.dim)}")
            # An entry of A_k is at most |A_k|_2, within TRANSFORMER of |B_k|_2 = 1 on a family the checks
            # below accept: an entry past 2 never passes them, and is rejected before a product overflows.
            largest = float(np.abs(a).max())
            if not largest <= 2.0:
                raise InvalidTransformers(f"A_{k} has an entry of modulus {largest:.3g}, beyond 2")
            image = a @ obs.basis
            b[:, cols] = image[:, cols]
            if frob(image * (obs.indicator[:, k] == 0)) > tol.TRANSFORMER:
                raise InvalidTransformers(f"A_{k} acts off eigenspace {k} beyond {tol.TRANSFORMER}")
        return cls(read_only(b), obs)

    @property
    def n_outcomes(self) -> int:
        return self.observable.n_outcomes

    @property
    def pointer_observable(self) -> Observable:
        """The pointer observable sum_k k |e_k><e_k|: pointer term k records outcome k."""
        return _pointer(self.n_outcomes)

    @property
    def composite_dims(self) -> tuple[int, int]:
        """(object dim, pointer dim) of the object ⊗ pointer space the family evolves into."""
        return (self.observable.dim, self.n_outcomes)


def make_ideal_transformers(obs: Observable) -> StateTransformerSet:
    """Ideal measurement: each transformer is the spectral projector itself, so B = V."""
    return StateTransformerSet(obs.basis, obs)


def make_repeatable_transformers(obs: Observable, seed: int) -> StateTransformerSet:
    """Seeded random repeatable family B_k = V_k U_k, so A_k = V_k U_k V_k† and P_k A_k = A_k.

    U_k is a random r_k × r_k unitary, drawn in term order. The same seed always yields the same family.
    """
    rng = np.random.default_rng(seed)
    b = np.empty((obs.dim, obs.dim), dtype=complex)
    for r, cols in zip(obs.sizes, obs.columns):
        b[:, cols] = obs.basis[:, cols] @ random_unitary(r, rng)
    return StateTransformerSet(read_only(b), obs)


def repeatability_violation(ts: StateTransformerSet) -> float:
    """Worst Frobenius violation of A_k = P_k A_k over the outcomes, as |B_k - V_k (V_k† B_k)|."""
    obs, ind = ts.observable, ts.observable.indicator
    residual = ts.blocks - obs.basis @ ((obs.adjoint @ ts.blocks) * (ind @ ind.T))
    return float(np.sqrt((np.vecdot(residual, residual, axis=0).real @ ind).max()))


@lru_cache(maxsize=32)
def _pointer(n: int) -> Observable:
    """Observable sum_k k |e_k><e_k| of an n-dim pointer, shared as it is immutable; its basis is the identity."""
    return Observable(np.eye(n), (1,) * n)


def evolve(ts: StateTransformerSet, psi: PureState) -> np.ndarray:
    """Final bipartite vector U (psi ⊗ e_0) = sum_k A_k|psi> ⊗ e_k, at index j·n + k.

    Column k of its d × n matrix is A_k psi = B_k c_k with c = V† psi: the
    columns of B scaled by c, summed within each term. The pointer has one
    dimension per outcome. The vector's norm is <psi| sum_k A_k†A_k |psi> = 1.
    """
    obs = ts.observable
    if psi.dim != obs.dim:
        raise DimensionMismatch(f"state dim {psi.dim} != object dim {obs.dim}")
    return ((ts.blocks * (obs.adjoint @ psi.vector)) @ obs.indicator).reshape(-1)


def probability_gap(ts: StateTransformerSet, born: np.ndarray, final: np.ndarray) -> float:
    """Worst |p_k - <final|1 ⊗ Q_k|final>|: with Q_k = |e_k><e_k|, column k of final as d × n, squared."""
    columns = final.reshape(ts.composite_dims)
    read = np.vecdot(columns, columns, axis=0).real
    return float(np.abs(born - read).max())


def conditional_state_gap(ts: StateTransformerSet, psi: PureState, final: np.ndarray) -> float:
    """Worst |A_k|psi><psi|A_k† - Tr_2((1 ⊗ Q_k)|Psi><Psi|(1 ⊗ Q_k))| over the outcomes, for a given final vector.

    Both sides are rank one: v v† with v = A_k psi, column k of B (diag(V† psi) indicator), which is
    evolve's product in another order, and m m† with m column k of |Psi> as d × n. With Q R = [v, m],
    |v v† - m m†| = |r_v r_v† - r_m r_m†|, so one batched QR of the K pairs gives every norm; the
    trace formula loses about 1e-8 to cancellation.
    """
    obs = ts.observable
    if psi.dim != obs.dim:
        raise DimensionMismatch(f"state dim {psi.dim} != observable dim {obs.dim}")
    images = ts.blocks @ ((obs.adjoint @ psi.vector)[:, None] * obs.indicator)
    r = np.linalg.qr(np.stack([images.T, final.reshape(ts.composite_dims).T], axis=-1), mode="r")
    rv, rm = r[..., 0], r[..., 1]
    gap = (rv[:, :, None] * np.conj(rv[:, None, :]) - rm[:, :, None] * np.conj(rm[:, None, :])).reshape(-1, 4)
    return float(np.sqrt(np.vecdot(gap, gap).real.max()))


def repeat_measurement_check(ts: StateTransformerSet, final: np.ndarray, born: np.ndarray) -> float:
    """Smallest conditional probability of confirming an outcome on repetition, capped at 1.

    Column k of the final vector read as d × n is A_k psi, the object state that pointer term k left
    behind. For each outcome k detectable under the Born vector ``born``, the observable is measured
    again on it, and term k must come out: with a = V† A_k psi, that has probability
    sum_{a in k} |a|² / |A_k psi|². Repeatable families give 1 for every outcome.
    """
    if len(born) != ts.n_outcomes:
        raise DimensionMismatch(f"{len(born)} probabilities for {ts.n_outcomes} outcomes")
    d, n = ts.composite_dims
    if np.size(final) != d * n:
        raise DimensionMismatch(f"final vector of size {np.size(final)}, expected {d}·{n}")
    images = np.reshape(final, (d, n))
    again = ts.observable.adjoint @ images
    weights = np.vecdot(images, images, axis=0).real
    confirmed = np.vecdot(again, again * ts.observable.indicator, axis=0).real
    detectable = (np.asarray(born) > tol.DETECTABILITY).nonzero()[0]
    null = detectable[~(weights[detectable] > tol.DETECTABILITY)]
    if null.size:
        raise NullOutcome(f"outcome {null[0]} has probability {weights[null[0]]} <= {tol.DETECTABILITY}")
    return float((confirmed[detectable] / weights[detectable]).min(initial=1.0))


__all__ = [
    "StateTransformerSet",
    "make_ideal_transformers",
    "make_repeatable_transformers",
    "repeatability_violation",
    "evolve",
    "repeat_measurement_check",
]
