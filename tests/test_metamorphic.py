"""Metamorphic relation: the same measurement written in rotated object coordinates.

A unitary V on the object maps the observable A to V A V†, the initial
state ψ to Vψ and each transformer A_k to V A_k V†. The final vector then
becomes (V ⊗ 1)Ψ, which has the same Born probabilities, Schmidt
coefficients and marginal spectra, so a run must reach the same verdicts.
The source and follow-up runs are compared as in metamorphic testing
(Chen et al., ACM Comput. Surv. 51(1):4, 2018): neither needs a known
expected output, only their relation.
"""

from pathlib import Path

import numpy as np
import pytest

from qmeasure import (
    InstrumentSpec,
    PureState,
    Scenario,
    StateTransformerSet,
    dag,
    generate_random_instance,
    load_scenario,
    observable_from_matrix,
    random_unitary,
    run_pipeline,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
COMMITTED = (
    "ideal_z_basis0.json",
    "ideal_z_unbalanced.json",
    "ideal_z_uniform.json",
    "repeatable_degenerate.json",
    "swap_nonrepeatable.json",
)
# Rounding alone separates the two runs; set before the tests were run.
NUMERIC_TOL = 1e-12


def rotated(scenario: Scenario, v: np.ndarray) -> Scenario:
    """The scenario in the object basis rotated by V, with its transformers as a custom family."""
    obs = observable_from_matrix(v @ scenario.observable.matrix() @ dag(v))
    transformers = tuple(v @ a @ dag(v) for a in scenario.build_transformers().transformers)
    return Scenario(
        object_dim=scenario.object_dim,
        observable=obs,
        initial_state=PureState(v @ scenario.initial_state.vector),
        instrument=InstrumentSpec("custom", transformers=StateTransformerSet(transformers, obs)),
        tolerance=scenario.tolerance,
    )


def assert_same_physics(scenario: Scenario, seed: int) -> None:
    v = random_unitary(scenario.object_dim, np.random.default_rng(seed))
    source, follow_up = run_pipeline(scenario), run_pipeline(rotated(scenario, v))

    assert source.error is None and follow_up.error is None
    assert [x.label for x in follow_up.verdicts] == [x.label for x in source.verdicts]
    assert [x.passed for x in follow_up.verdicts] == [x.passed for x in source.verdicts]
    assert follow_up.overall_pass == source.overall_pass
    assert follow_up.not_applicable == source.not_applicable
    np.testing.assert_allclose(follow_up.probabilities, source.probabilities, rtol=0, atol=NUMERIC_TOL)
    np.testing.assert_allclose(
        follow_up.schmidt_coefficients, source.schmidt_coefficients, rtol=0, atol=NUMERIC_TOL
    )
    for field, value in vars(source.entropies).items():
        other = getattr(follow_up.entropies, field)
        assert (value is None) == (other is None), field
        if value is not None:
            assert other == pytest.approx(value, rel=0, abs=NUMERIC_TOL), field


@pytest.mark.parametrize(
    "seed, d1_max, outcomes_max", [(s, 6, 4) for s in range(40)] + [(s, 16, 6) for s in range(20)]
)
def test_rotating_the_object_basis_keeps_a_seeded_run(seed, d1_max, outcomes_max):
    assert_same_physics(generate_random_instance(seed, d1_max, outcomes_max), seed)


@pytest.mark.parametrize("name", COMMITTED)
def test_rotating_the_object_basis_keeps_a_committed_scenario(name):
    assert_same_physics(load_scenario(str(SCENARIOS / name)), COMMITTED.index(name))
