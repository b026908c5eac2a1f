"""Reference routes for the tests: dense forms and one-call wrappers of pipeline checks.

The pipeline never runs these. ``projectors`` and ``transformer_stack`` give
the dense (K, d, d) forms of an observable's spectral family and of a
transformer family, which the library stores only as an eigenbasis and its
blocks. The dense references (``luders_update``, ``reduced_states``,
``commutator_norm``, ``post_reading_state``, ``lifted_commutator_norm``,
``purify``, ``completed_unitary``) form the d×d and D×D operators that the
library's kernels avoid, so a kernel test still compares two routes. ``partial_inner`` is the one-vector form of the product
``dag(L) @ psi.reshape(d1, d2)`` that ``schmidt_decompose`` takes. The
``verify_*`` wrappers evolve with the transformer family themselves and then
call the same comparison a ``pipeline.CHECKS`` entry reads, so acceptance tests can
check one identity at a time. ``entanglement_of_pure_state`` and
``classify_outcomes`` read one field of ``mutual_information`` and of
``probabilities``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from qmeasure import (
    DensityOperator,
    DimensionMismatch,
    Observable,
    PureState,
    StateTransformerSet,
    Verdict,
    apply_on_factor,
    basis_vector,
    complete_isometry,
    dag,
    evolve,
    frob,
    hermitian_eig,
    kron,
    probabilities,
    pure_marginal,
    shannon_entropy,
    von_neumann_entropy,
)
from qmeasure import tolerances as tol
from qmeasure.information import final_state_identity, transfer_identity
from qmeasure.instruments import conditional_state_gap, probability_gap
from qmeasure.linalg import check_unit_norm


def projectors(obs: Observable) -> np.ndarray:
    """The spectral projectors P_k = V_k V_k† in term order, as one (K, d, d) stack."""
    return np.array([obs.basis[:, cols] @ dag(obs.basis[:, cols]) for cols in obs.columns])


def transformer_stack(ts: StateTransformerSet) -> np.ndarray:
    """The dense transformers A_k = B_k V_k† in term order, as one (K, d, d) stack."""
    obs = ts.observable
    return np.array([ts.blocks[:, cols] @ dag(obs.basis[:, cols]) for cols in obs.columns])


def classify_outcomes(obs: Observable, state: PureState) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split term indices into detectable (positive probability) and null."""
    p = probabilities(obs, state)
    detectable = tuple(int(k) for k in range(p.size) if p[k] > tol.DETECTABILITY)
    null = tuple(int(k) for k in range(p.size) if p[k] <= tol.DETECTABILITY)
    return detectable, null


def luders_update(obs: Observable, state: PureState | DensityOperator) -> DensityOperator:
    """Projective (Lüders) state update sum_k P_k rho P_k over all terms."""
    rho = _dense_state(obs, state)
    out = np.zeros_like(rho)
    for p in projectors(obs):
        out += p @ rho @ p
    return DensityOperator(out)


def commutator_norm(obs: Observable, state: PureState | DensityOperator) -> float:
    """Frobenius norm of [A, rho], with both as d×d matrices."""
    a, rho = obs.matrix(), _dense_state(obs, state)
    return frob(a @ rho - rho @ a)


def _dense_state(obs: Observable, state: PureState | DensityOperator) -> np.ndarray:
    """The d×d matrix of a state on the observable's space: |psi><psi| for a pure one."""
    if obs.dim != state.dim:
        raise DimensionMismatch(f"observable dim {obs.dim} != state dim {state.dim}")
    return np.outer(state.vector, np.conj(state.vector)) if isinstance(state, PureState) else state.matrix


def reduced_states(psi: np.ndarray, structure: Sequence[int]) -> tuple[DensityOperator, DensityOperator]:
    """Both subsystem states of a normalized bipartite vector."""
    psi, _ = check_unit_norm(psi)
    dims = tuple(int(d) for d in structure)
    if len(dims) != 2:
        raise DimensionMismatch(f"reduced states need a bipartite structure, got {dims}")
    return tuple(DensityOperator(pure_marginal(psi, dims, keep=k)) for k in (0, 1))


def purify(rho: DensityOperator | np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
    """Pure bipartite vector whose first marginal is the given state.

    Built as sum_i sqrt(l_i) v_i ⊗ e_i over the eigenpairs of rho with
    eigenvalue at least the detectability cutoff; the ancilla keeps the
    full dimension of rho.
    """
    if not isinstance(rho, DensityOperator):
        rho = DensityOperator(np.asarray(rho, dtype=complex))  # raises NotDensityOperator
    d = rho.dim
    w, v = hermitian_eig(rho.matrix)
    vec = np.zeros(d * d, dtype=complex)
    ancilla = 0
    for i in range(d):
        if w[i] < tol.DETECTABILITY:
            continue
        vec += np.sqrt(w[i]) * kron(v[:, i], basis_vector(d, ancilla))
        ancilla += 1
    return vec, (d, d)


def entanglement_of_pure_state(psi: np.ndarray, structure: Sequence[int]) -> float:
    """Entropy of the first marginal of a normalized bipartite vector."""
    psi, norm = check_unit_norm(psi)
    dims = tuple(int(d) for d in structure)
    if len(dims) != 2:
        raise DimensionMismatch(f"entanglement needs a bipartite structure, got {dims}")
    return von_neumann_entropy(pure_marginal(psi / norm, dims, keep=0))


def partial_inner(a: np.ndarray, psi: np.ndarray, structure: Sequence[int]) -> np.ndarray:
    """Partial scalar product <a| psi over the first tensor factor.

    result[j] = sum_i conj(a[i]) psi[i*d2 + j], a vector on the second factor.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    dims = tuple(int(d) for d in structure)
    if len(dims) != 2 or dims[0] * dims[1] != psi.size:
        raise DimensionMismatch(f"structure {dims} is not a bipartite factoring of dimension {psi.size}")
    a = np.asarray(a, dtype=complex).reshape(-1)
    if a.size != dims[0]:
        raise DimensionMismatch(f"left vector has dim {a.size}, first factor has dim {dims[0]}")
    return np.conj(a) @ psi.reshape(dims)


def lifted_commutator_norm(obs: Observable, rho: DensityOperator, structure: Sequence[int], factor: int) -> float:
    """Frobenius norm of [obs ⊗ 1, rho], with obs on one tensor factor of rho's space.

    (obs ⊗ 1) rho is formed on that factor alone. Both operators are
    Hermitian, so rho (obs ⊗ 1) is its adjoint.
    """
    left = apply_on_factor(obs.matrix(), rho.matrix, structure, factor)
    return frob(left - dag(left))


def post_reading_state(tri: np.ndarray, structure: Sequence[int]) -> DensityOperator:
    """Joint object-pointer state after the reading: trace over the reader."""
    tri = np.asarray(tri, dtype=complex).reshape(-1)
    dims = tuple(int(d) for d in structure)
    if len(dims) != 3:
        raise DimensionMismatch(f"post-reading state needs a tripartite structure, got {dims}")
    return DensityOperator(pure_marginal(tri, dims, keep=(0, 1)))


def completed_unitary(ts: StateTransformerSet) -> np.ndarray:
    """A D×D unitary whose restriction to object ⊗ e_0 is the family's isometry.

    The isometry |v> -> sum_k A_k|v> ⊗ e_k is the D×d matrix whose row j·n + k
    is row j of A_k, so its column i is the image of |i>. That column goes to
    the slot of |i> ⊗ e_0, and the completion's columns fill the rest in order.
    """
    d, n = ts.composite_dims
    isometry = transformer_stack(ts).swapaxes(0, 1).reshape(d * n, d)
    slots = np.arange(d * n).reshape(d, n)
    order = np.argsort(np.concatenate([slots[:, 0], slots[:, 1:].reshape(-1)]))
    return complete_isometry(list(isometry.T), d * n)[:, order]


def verify_probability_reproducibility(ts: StateTransformerSet, psi: PureState) -> float:
    """Worst gap between Born probabilities and pointer-readout probabilities."""
    return probability_gap(ts, probabilities(ts.observable, psi), evolve(ts, psi))


def verify_conditional_states(ts: StateTransformerSet, psi: PureState) -> float:
    """Worst gap between the two conditional-state routes.

    For every outcome k the unnormalized object state after reading the
    pointer, Tr_2(Q_k |Psi><Psi| Q_k), must equal A_k |psi><psi| A_k†.
    """
    return conditional_state_gap(ts, psi, evolve(ts, psi))


def verify_entanglement_as_incompatibility(ts: StateTransformerSet, psi: PureState) -> Verdict:
    """Entanglement of the final vector vs incompatibility entropy in it.

    Three disjoint routes must agree: the marginal entropy of the evolved
    vector, the incompatibility entropy of the lifted observable in the
    evolved vector, and the Shannon entropy of the Born probabilities.
    """
    final = evolve(ts, psi)
    dims = ts.composite_dims
    lhs, rhs, deviation = final_state_identity(
        entanglement_of_pure_state(final, dims),
        ts.observable,
        final,
        dims,
        shannon_entropy(np.clip(probabilities(ts.observable, psi), 0.0, None)),
    )
    return Verdict.from_deviation("entanglement_incompatibility_final", lhs, rhs, deviation, tol.THEOREM)


def verify_incompatibility_transfer(ts: StateTransformerSet, psi: PureState) -> Verdict:
    """Incompatibility entropy in the initial state vs final entanglement."""
    final = evolve(ts, psi)
    lhs, rhs, deviation = transfer_identity(ts.observable, psi, entanglement_of_pure_state(final, ts.composite_dims))
    return Verdict.from_deviation("entanglement_incompatibility_initial", lhs, rhs, deviation, tol.THEOREM)
