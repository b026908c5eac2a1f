"""The definite-value check on Schmidt forms with equal or nearly equal coefficients.

Equal or nearly equal Born weights give Schmidt coefficients whose vectors
eigh mixes by about eps/gap. ``verify_definite_values`` re-bases every term
on the outcome index before it fits the terms, whatever the coefficients.
These families cover it: nearly balanced two-level measurements on both
sides of DEGENERACY_GAP, equal-weight supports of random observables,
non-repeatable instruments on equal weights, which have no definite-value
form at all, and well-separated coefficients, whose aligned form must come
back as it went in.
"""

import numpy as np
import pytest

from qmeasure import (
    InstrumentSpec,
    NoDefiniteValue,
    PureState,
    Scenario,
    StateTransformerSet,
    dag,
    evolve,
    observable_from_matrix,
    random_unitary,
    run_pipeline,
    schmidt_decompose,
    verify_definite_values,
)
from qmeasure.linalg import hermitize
from reference import projectors

N_CHECKS = 15


def nearly_balanced_qubit(delta: float, seed: int) -> Scenario:
    """Ideal measurement of a rotated two-level observable, Born weights 0.5 ± delta."""
    u = random_unitary(2, np.random.default_rng(seed))
    h = hermitize(u @ np.diag([-1.0, 1.0]) @ dag(u))
    psi = np.sqrt(0.5 + delta) * u[:, 0] + np.sqrt(0.5 - delta) * u[:, 1]
    return Scenario(
        object_dim=2,
        observable=observable_from_matrix(h),
        initial_state=PureState(psi),
        instrument=InstrumentSpec("ideal"),
    )


def equal_weight_scenario(seed: int, perturbation: float, kind: str) -> Scenario:
    """Random observable (d <= 12, n <= 6 outcomes), equal Born weights on a random support.

    The last support weight is raised by ``perturbation`` before the state is normalised.
    """
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 13))
    n = int(rng.integers(2, min(d, 6) + 1))
    multiplicities = np.ones(n, dtype=int)
    for _ in range(d - n):
        multiplicities[rng.integers(n)] += 1
    values = np.repeat(np.sort(rng.normal(size=n)), multiplicities)
    u = random_unitary(d, rng)
    obs = observable_from_matrix(hermitize(u @ np.diag(values).astype(complex) @ dag(u)))

    support = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
    weights = np.full(support.size, 1.0 / support.size)
    weights[-1] += perturbation
    psi = np.zeros(d, dtype=complex)
    for weight, k in zip(weights, support):
        v = projectors(obs)[k] @ (rng.normal(size=d) + 1j * rng.normal(size=d))
        psi += np.sqrt(weight) * v / np.linalg.norm(v)
    instrument = InstrumentSpec("ideal") if kind == "ideal" else InstrumentSpec("repeatable", seed=seed)
    return Scenario(
        object_dim=d,
        observable=obs,
        initial_state=PureState(psi / np.linalg.norm(psi)),
        instrument=instrument,
    )


def failures(report) -> list[str]:
    failed = [f"{v.label}: {v.deviation:.3e} > {v.tolerance:.1e}" for v in report.verdicts if not v.passed]
    if report.error is not None:
        failed.append(report.error)
    return failed


@pytest.mark.parametrize("delta", [5e-10, 1e-9, 3e-9, 5e-9, 1e-8, 1.5e-8, 2e-8, 5e-8, 1e-7])
def test_nearly_balanced_qubit_passes_every_check(delta):
    # The two coefficients differ by about 2 delta, inside DEGENERACY_GAP for
    # the first four and outside it for the rest, where eigh still mixes the
    # vectors by about eps/delta. The fitted vectors must meet RECONSTRUCTION.
    for seed in range(50):
        report = run_pipeline(nearly_balanced_qubit(delta, seed))
        assert len(report.verdicts) == N_CHECKS, (seed, report.error)
        assert report.overall_pass, (seed, failures(report))


@pytest.mark.parametrize("kind", ["ideal", "repeatable"])
@pytest.mark.parametrize("perturbation", [0.0, 1e-14, 1e-12, 1e-10, 3e-9])
def test_equal_weight_family_passes_every_check(kind, perturbation):
    for seed in range(40):
        report = run_pipeline(equal_weight_scenario(seed, perturbation, kind))
        assert len(report.verdicts) == N_CHECKS, (seed, report.error)
        assert report.overall_pass, (seed, failures(report))


@pytest.mark.parametrize("per_outcome", [False, True], ids=["U_P_k", "U_k_P_k"])
def test_non_repeatable_families_on_equal_weights_have_no_definite_values(per_outcome):
    # A_k = U P_k (one unitary) or U_k P_k (one per outcome) is a valid family
    # whose outcomes leave the eigenspaces, so no re-basing can align the form.
    for seed in range(150):
        scenario = equal_weight_scenario(seed, 0.0, "ideal")
        obs = scenario.observable
        rng = np.random.default_rng(1000 + seed)
        shared = random_unitary(obs.dim, rng)
        ops = tuple((random_unitary(obs.dim, rng) if per_outcome else shared) @ p for p in projectors(obs))
        ts = StateTransformerSet.from_transformers(ops, obs)
        sf = schmidt_decompose(evolve(ts, scenario.initial_state), ts.composite_dims)
        with pytest.raises(NoDefiniteValue):
            verify_definite_values(sf, obs, ts.pointer_observable)


def test_separated_terms_come_back_in_their_own_order():
    # Re-basing rounds, so an aligned form with coefficients far apart comes
    # back in its own order and equal to the input to rounding, not bit for bit.
    scenario = nearly_balanced_qubit(0.1, 3)
    ts = scenario.build_transformers()
    sf = schmidt_decompose(evolve(ts, scenario.initial_state), ts.composite_dims)
    aligned = verify_definite_values(sf, scenario.observable, ts.pointer_observable).schmidt_form
    assert aligned.coefficients.size == sf.coefficients.size == 2
    assert np.allclose(aligned.coefficients, sf.coefficients, rtol=0, atol=1e-13)
    for new, old in ((aligned.lefts, sf.lefts), (aligned.rights, sf.rights)):
        assert np.allclose(new, old, rtol=0, atol=1e-13)
