"""Reference routes for the tests: dense forms and one-call wrappers of pipeline checks.

The pipeline never runs these. ``projectors`` and ``transformer_stack`` give
the dense (K, d, d) forms of an observable's spectral family and of a
transformer family, which the library stores only as an eigenbasis and its
blocks. ``observable_matrix`` builds A = V diag(a) V†, which the library
never forms, and ``index_matrix`` the outcome index N = sum_k k P_k from
the dense projectors, the second route to ``Observable.outcome_index``:
the commutator references ``commutator_norm`` and
``lifted_commutator_norm`` take N, as the library's checks do. ``apply_on_factor`` applies an operator to any one tensor factor,
where the library's kernels act on the first factor only; the tests use it
to corrupt one factor of an artefact and to build dense references. The
dense references (``luders_update``, ``reduced_states``,
``commutator_norm``, ``post_reading_state``, ``lifted_commutator_norm``,
``purify``, ``completed_unitary``) form the d×d and D×D operators that the
library's kernels avoid, so a kernel test still compares two routes;
``von_neumann_entropy`` reads the eigenvalues that a dense state's
``DensityOperator`` check finds, where a run takes singular values.
``pure_marginal`` forms a marginal of a pure vector, on any kept factors,
as M M† of the reshaped vector, where a run forms only the pointer's.
``partial_inner`` is the one-vector form of the product
``dag(L) @ psi.reshape(d1, d2)`` that ``schmidt_decompose`` takes. The
``verify_*`` wrappers evolve with the transformer family themselves and then
compute both sides of one ``pipeline.CHECKS`` entry, so acceptance tests
can check one identity at a time; the initial one takes the
incompatibility entropy of ψ from the kernel, where the pipeline reads
H(p). ``entanglement_of_pure_state`` takes the spectrum of the first
marginal, and ``classify_outcomes`` reads
``probabilities``. ``dense_checks`` is a dense twin of the pipeline's checks
that read the Schmidt form, an entropy of a pure vector, the repetition of
the measurement or the pointer reading: it evolves with the completed
unitary, takes the Schmidt form from ``eigh`` of the Hermitian dilation
of Ψ's matrix, every entropy of Ψ from the partial traces of |Ψ><Ψ|,
every incompatibility entropy from a dense Lüders update, repeat
certainty from the dense A_k and P_k, and the reading's marginals and
commutators from partial traces of |tri><tri|.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from qmeasure import (
    DensityOperator,
    DimensionMismatch,
    Observable,
    PureState,
    Scenario,
    SchmidtForm,
    StateTransformerSet,
    Verdict,
    basis_vector,
    complete_isometry,
    dag,
    embed_observable,
    evolve,
    frob,
    hermitian_eig,
    kron,
    lifted_incompatibility_entropy,
    partial_trace,
    probabilities,
    shannon_entropy,
    verify_definite_values,
)
from qmeasure import tolerances as tol
from qmeasure.instruments import conditional_state_gap, probability_gap
from qmeasure.linalg import _check_structure, _kept_factors, check_unit_norm


def projectors(obs: Observable) -> np.ndarray:
    """The spectral projectors P_k = V_k V_k† in term order, as one (K, d, d) stack."""
    return np.array([obs.basis[:, cols] @ dag(obs.basis[:, cols]) for cols in obs.columns])


def observable_matrix(obs: Observable) -> np.ndarray:
    """The Hermitian matrix A = V diag(a) V† of the observable, which the library never forms."""
    return (obs.basis * np.repeat(obs.eigenvalues, obs.sizes)) @ dag(obs.basis)


def index_matrix(obs: Observable) -> np.ndarray:
    """The outcome index N = sum_k k P_k, summed over the dense projectors, where the library scales V's columns."""
    return np.tensordot(np.arange(obs.n_outcomes), projectors(obs), axes=1)


def transformer_stack(ts: StateTransformerSet) -> np.ndarray:
    """The dense transformers A_k = B_k V_k† in term order, as one (K, d, d) stack."""
    obs = ts.observable
    return np.array([ts.blocks[:, cols] @ dag(obs.basis[:, cols]) for cols in obs.columns])


def apply_on_factor(op: np.ndarray, vec: np.ndarray, structure: Sequence[int], factor: int) -> np.ndarray:
    """(1 ⊗ .. ⊗ op ⊗ .. ⊗ 1) @ vec, with op acting on one tensor factor only.

    ``vec`` is a vector on the product space described by ``structure``, or
    a matrix whose columns are such vectors. The lifted operator is never
    formed: one broadcast product applies op to the factor's axis of the
    reshaped vector.
    """
    vec = np.asarray(vec, dtype=complex)
    op = np.asarray(op, dtype=complex)
    dims = tuple(int(d) for d in structure)
    if not dims or min(dims) <= 0 or math.prod(dims) != vec.shape[0]:
        raise DimensionMismatch(f"tensor structure {dims} does not factor dimension {vec.shape[0]}")
    if not 0 <= factor < len(dims) or op.shape != (dims[factor], dims[factor]):
        raise DimensionMismatch(f"operator of shape {op.shape} does not act on factor {factor} of {dims}")
    return (op @ vec.reshape(math.prod(dims[:factor]), dims[factor], -1)).reshape(vec.shape)


def classify_outcomes(obs: Observable, state: PureState) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split term indices into detectable (positive probability) and null."""
    p = probabilities(obs, state)
    detectable = tuple(int(k) for k in range(p.size) if p[k] > tol.DETECTABILITY)
    null = tuple(int(k) for k in range(p.size) if p[k] <= tol.DETECTABILITY)
    return detectable, null


def von_neumann_entropy(rho: DensityOperator | np.ndarray) -> float:
    """Entropy of the eigenvalue spectrum of a checked density operator, negatives clamped to zero."""
    if not isinstance(rho, DensityOperator):
        rho = DensityOperator(np.asarray(rho, dtype=complex))  # raises NotDensityOperator
    return shannon_entropy(np.maximum(rho.eigenvalues(), 0.0))


def luders_update(obs: Observable, state: PureState | DensityOperator) -> DensityOperator:
    """Projective (Lüders) state update sum_k P_k rho P_k over all terms."""
    rho = _dense_state(obs, state)
    out = np.zeros_like(rho)
    for p in projectors(obs):
        out += p @ rho @ p
    return DensityOperator(out)


def commutator_norm(obs: Observable, state: PureState | DensityOperator) -> float:
    """Frobenius norm of [N, rho] for the outcome index N of obs, with both as d×d matrices."""
    n, rho = index_matrix(obs), _dense_state(obs, state)
    return frob(n @ rho - rho @ n)


def _dense_state(obs: Observable, state: PureState | DensityOperator) -> np.ndarray:
    """The d×d matrix of a state on the observable's space: |psi><psi| for a pure one."""
    if obs.dim != state.dim:
        raise DimensionMismatch(f"observable dim {obs.dim} != state dim {state.dim}")
    return np.outer(state.vector, np.conj(state.vector)) if isinstance(state, PureState) else state.matrix


def pure_marginal(vec: np.ndarray, structure: Sequence[int], keep: int | Sequence[int]) -> np.ndarray:
    """Tr_rest |vec><vec| as M M†, where M is vec reshaped to (kept factors, the rest).

    Equals ``partial_trace(outer(vec, conj(vec)), structure, keep)`` for
    any vector, normalised or not, without forming the outer product.
    """
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    dims = _check_structure(vec.size, structure)
    kept = _kept_factors(dims, keep)
    rest = tuple(k for k in range(len(dims)) if k not in kept)
    m = vec.reshape(dims).transpose(kept + rest).reshape(math.prod(dims[k] for k in kept), -1)
    return m @ dag(m)


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
    """Frobenius norm of [N ⊗ 1, rho], with the outcome index N of obs on one tensor factor of rho's space.

    (N ⊗ 1) rho is formed on that factor alone. Both operators are
    Hermitian, so rho (N ⊗ 1) is its adjoint.
    """
    left = apply_on_factor(index_matrix(obs), rho.matrix, structure, factor)
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
    e = entanglement_of_pure_state(final, ts.composite_dims)
    lifted = lifted_incompatibility_entropy(ts.observable, final)
    h = shannon_entropy(np.clip(probabilities(ts.observable, psi), 0.0, None))
    deviation = max(abs(e - lifted), abs(e - h), abs(lifted - h))
    return Verdict.from_deviation("entanglement_incompatibility_final", e, lifted, deviation, tol.THEOREM)


def verify_incompatibility_transfer(ts: StateTransformerSet, psi: PureState) -> Verdict:
    """Incompatibility entropy in the initial state, from its branch weights, vs final entanglement."""
    initial = lifted_incompatibility_entropy(ts.observable, psi.vector)
    e = entanglement_of_pure_state(evolve(ts, psi), ts.composite_dims)
    return Verdict.from_deviation("entanglement_incompatibility_initial", initial, e, abs(initial - e), tol.THEOREM)


# The labels ``dense_checks`` computes, in report order.
DENSE_LABELS = (
    "schmidt_reconstruction",
    "repeat_certainty",
    "schmidt_probability_match",
    "entropy_ledger",
    "entanglement_incompatibility_final",
    "entanglement_incompatibility_initial",
    "pointer_reading_marginals",
    "pointer_reading_commutators",
    "pointer_reading_incompatibility",
)


def dense_schmidt(psi: np.ndarray, structure: Sequence[int]) -> SchmidtForm:
    """Schmidt form from the eigenvectors of the Hermitian dilation [[0, M], [M†, 0]] of psi as d1 × d2 matrix M.

    The dilation has the eigenvalues ±c_t and zeros, and the first d1 entries of the eigenvector of
    +c_t are l_t / √2. eigh resolves that vector to about eps/gap in c, where the eigenvectors of
    rho_1 = M M† resolve only to eps/gap in c², which cannot tell two small weights, or a small weight
    and the kernel, apart. Each left vector's first component above PHASE_PIVOT is made real and
    positive, and each right vector is the normalised partial scalar product of its left vector with psi.
    """
    dims = tuple(int(d) for d in structure)
    m = np.asarray(psi, dtype=complex).reshape(dims)
    dilation = np.block([[np.zeros((dims[0], dims[0])), m], [dag(m), np.zeros((dims[1], dims[1]))]])
    values, vectors = np.linalg.eigh(dilation)
    lefts, rights, coefficients = [], [], []
    for t in np.argsort(-values, kind="stable"):
        if values[t] <= math.sqrt(tol.SCHMIDT_CUTOFF):  # the kernel and the -c_t follow
            break
        left = vectors[: dims[0], t] / np.linalg.norm(vectors[: dims[0], t])
        pivot = left[np.abs(left) > tol.PHASE_PIVOT][0]
        left = left * np.conj(pivot) / abs(pivot)
        right = partial_inner(left, psi, dims)
        lefts.append(left)
        rights.append(right / np.linalg.norm(right))
        coefficients.append(values[t])
    return SchmidtForm(np.array(coefficients), np.array(lefts).T, np.array(rights).T)


def dense_incompatibility(obs: Observable, vector: np.ndarray, structure: Sequence[int]) -> float:
    """S of the Lüders update of |v><v| by obs ⊗ 1, with obs on the first factor, minus S(|v><v|)."""
    state = PureState(vector)
    pure = DensityOperator(np.outer(state.vector, np.conj(state.vector)))
    return von_neumann_entropy(luders_update(embed_observable(obs, structure, 0), state)) - von_neumann_entropy(pure)


def dense_checks(scenario: Scenario) -> list[Verdict]:
    """Verdicts of the labels in DENSE_LABELS that apply to the scenario, each from dense operators.

    Only ``schmidt_reconstruction`` applies when the dense repeatability violation
    max_k |A_k - P_k A_k| exceeds its tolerance. A tolerance set in the scenario
    overrides every verdict's tolerance, as in the pipeline.
    """
    ts = scenario.transformers
    obs, psi = scenario.observable, scenario.initial_state
    d, n = ts.composite_dims
    final = completed_unitary(ts) @ kron(psi.vector, basis_vector(n, 0))
    rho = np.outer(final, np.conj(final))
    born = np.array([np.vdot(psi.vector, p @ psi.vector).real for p in projectors(obs)])
    h = shannon_entropy(np.maximum(born, 0.0))

    def verdict(label: str, lhs: float, rhs: float, deviation: float, tolerance: float) -> Verdict:
        tolerance = tolerance if scenario.tolerance is None else scenario.tolerance
        return Verdict.from_deviation(label, lhs, rhs, deviation, tolerance)

    sf = dense_schmidt(final, (d, n))
    recon = sum(c * kron(left, right) for c, left, right in zip(sf.coefficients, sf.lefts.T, sf.rights.T))
    overlap = abs(complex(np.vdot(final, recon)))
    verdicts = [verdict("schmidt_reconstruction", overlap, 1.0, 1.0 - overlap, tol.RECONSTRUCTION)]
    family = list(zip(transformer_stack(ts), projectors(obs)))
    violation = max(frob(a - p @ a) for a, p in family)
    if not verdict("repeatability_condition", violation, 0.0, violation, tol.REPEATABILITY).passed:
        return verdicts

    # Repeating after outcome k confirms it with probability |P_k A_k psi|² / |A_k psi|².
    detected = [(a @ psi.vector, p) for (a, p), q in zip(family, born) if q > tol.DETECTABILITY]
    certainty = min([1.0, *(frob(p @ v) ** 2 / frob(v) ** 2 for v, p in detected)])
    verdicts.append(verdict("repeat_certainty", certainty, 1.0, 1.0 - certainty, tol.REPEAT_CERTAINTY))

    definite = verify_definite_values(sf, obs, ts.pointer_observable)
    match = float(np.max(np.abs(definite.schmidt_form.coefficients**2 - born[definite.outcomes])))
    verdicts.append(verdict("schmidt_probability_match", match, 0.0, match, tol.THEOREM))

    s1, s2 = (von_neumann_entropy(partial_trace(rho, (d, n), k)) for k in (0, 1))
    mutual = s1 + s2 - von_neumann_entropy(rho)
    verdicts.append(verdict("entropy_ledger", mutual, 2.0 * h, abs(mutual - 2.0 * h), tol.THEOREM))

    e = entanglement_of_pure_state(final, (d, n))
    lifted = dense_incompatibility(obs, final, (d, n))
    deviation = max(abs(e - lifted), abs(e - h), abs(lifted - h))
    verdicts.append(verdict("entanglement_incompatibility_final", e, lifted, deviation, tol.THEOREM))

    initial = dense_incompatibility(obs, psi.vector, (d,))
    verdicts.append(verdict("entanglement_incompatibility_initial", initial, e, abs(initial - e), tol.THEOREM))

    # The reading: sum over detectable pointer outcomes k, the l-th of them, of (1 ⊗ Q_k)|Ψ> ⊗ e_l.
    pointer = projectors(ts.pointer_observable)
    detectable = [k for k in range(n) if np.vdot(final, kron(np.eye(d), pointer[k]) @ final).real > tol.DETECTABILITY]
    tri = sum(
        kron(kron(np.eye(d), pointer[k]) @ final, basis_vector(len(detectable), l)) for l, k in enumerate(detectable)
    )
    dims3 = (d, n, len(detectable))
    rho_tri = np.outer(tri, np.conj(tri))
    marginals = [von_neumann_entropy(partial_trace(rho_tri, dims3, m)) for m in range(3)]
    spread = max(abs(s - h) for s in marginals)
    verdicts.append(verdict("pointer_reading_marginals", min(marginals), h, spread, tol.THEOREM))

    rho12 = post_reading_state(tri, dims3)
    obj_after = lifted_commutator_norm(obs, rho12, (d, n), 0)
    ptr_after = lifted_commutator_norm(ts.pointer_observable, rho12, (d, n), 1)
    verdicts.append(
        verdict("pointer_reading_commutators", obj_after, ptr_after, max(obj_after, ptr_after), tol.COMMUTATOR)
    )

    reappeared = dense_incompatibility(obs, tri, (d, n * len(detectable)))
    verdicts.append(verdict("pointer_reading_incompatibility", reappeared, h, abs(reappeared - h), tol.THEOREM))
    return verdicts
