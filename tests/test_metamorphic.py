"""Metamorphic relations: the same measurement written in other coordinates or phases.

* A unitary V on the object maps the observable A to V A V†, the initial
  state ψ to Vψ and each transformer A_k to V A_k V†. The final vector then
  becomes (V ⊗ 1)Ψ.
* A global phase e^{iθ} on ψ multiplies the final vector by it.
* A phase e^{iφ_k} on each transformer changes the dilation's isometry, and
  the final vector becomes (1 ⊗ Φ)Ψ with Φ = sum_k e^{iφ_k} |e_k><e_k|,
  which commutes with the pointer observable.
* An affine map A -> αA + β·1 with α > 0 moves every eigenvalue a_k to
  αa_k + β and keeps the eigenspaces and their order, so the transformers
  and the final vector stay as they were. Only [A, ρ] scales, by α.
  With α < 0 the eigenvalue order reverses: term k of the follow-up is
  term K-1-k of the source, so its family is the source's reversed, its
  Born vector the source's reversed, and [A, ρ] scales by |α|.

Each follow-up has the same Born probabilities (up to that reversal),
Schmidt coefficients and marginal spectra as its source, so a run must
reach the same verdicts.
The source and follow-up runs are compared as in metamorphic testing
(Chen et al., ACM Comput. Surv. 51(1):4, 2018): neither needs a known
expected output, only their relation.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from qmeasure import (
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
from reference import transformer_stack

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


def rotated(scenario: Scenario, seed: int) -> Scenario:
    """The scenario in the object basis rotated by a seeded V, with its transformers as a custom family."""
    v = random_unitary(scenario.observable.dim, np.random.default_rng(seed))
    obs = observable_from_matrix(v @ scenario.observable.matrix() @ dag(v))
    transformers = tuple(v @ a @ dag(v) for a in transformer_stack(scenario.transformers))
    return dataclasses.replace(
        scenario,
        initial_state=PureState(v @ scenario.initial_state.vector),
        transformers=StateTransformerSet.from_transformers(transformers, obs),
    )


def global_phase(scenario: Scenario, seed: int) -> Scenario:
    """The scenario with e^{iθ}ψ, θ seeded."""
    phase = np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi))
    return dataclasses.replace(scenario, initial_state=PureState(phase * scenario.initial_state.vector))


def phased_transformers(scenario: Scenario, seed: int) -> Scenario:
    """The scenario with transformers e^{iφ_k} A_k, φ_k seeded, as a custom family."""
    family = transformer_stack(scenario.transformers)
    phases = np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=len(family)))
    transformers = StateTransformerSet.from_transformers(tuple(z * a for z, a in zip(phases, family)), scenario.observable)
    return dataclasses.replace(scenario, transformers=transformers)


def affine(scenario: Scenario, alpha: float, beta: float) -> Scenario:
    """The scenario with the observable αA + β·1, as a matrix, and its transformers as a custom family.

    α < 0 reverses the term order, and the family with it.
    """
    obs = observable_from_matrix(alpha * scenario.observable.matrix() + beta * np.eye(scenario.observable.dim))
    transformers = tuple(transformer_stack(scenario.transformers))[:: -1 if alpha < 0 else 1]
    return dataclasses.replace(scenario, transformers=StateTransformerSet.from_transformers(transformers, obs))


def assert_same_physics(
    scenario: Scenario, follow_up_scenario: Scenario, commutator_scale: float = 1.0, reversed_terms: bool = False
) -> None:
    """The two runs agree; ``reversed_terms``: term k of the follow-up is term K-1-k of the source."""
    source, follow_up = run_pipeline(scenario), run_pipeline(follow_up_scenario)

    assert source.error is None and follow_up.error is None
    assert [x.label for x in follow_up.verdicts] == [x.label for x in source.verdicts]
    assert [x.passed for x in follow_up.verdicts] == [x.passed for x in source.verdicts]
    assert follow_up.overall_pass == source.overall_pass
    assert follow_up.not_applicable == source.not_applicable
    expected = source.probabilities[::-1] if reversed_terms else source.probabilities
    np.testing.assert_allclose(follow_up.probabilities, expected, rtol=0, atol=NUMERIC_TOL)
    np.testing.assert_allclose(
        follow_up.schmidt_coefficients, source.schmidt_coefficients, rtol=0, atol=NUMERIC_TOL
    )
    assert (source.initial_commutator_norm is None) == (follow_up.initial_commutator_norm is None)
    if source.initial_commutator_norm is not None:
        assert follow_up.initial_commutator_norm == pytest.approx(
            commutator_scale * source.initial_commutator_norm, rel=0, abs=NUMERIC_TOL
        )
    for field, value in vars(source.entropies).items():
        other = getattr(follow_up.entropies, field)
        assert (value is None) == (other is None), field
        if value is not None:
            assert other == pytest.approx(value, rel=0, abs=NUMERIC_TOL), field


SEEDED = [(s, 6, 4) for s in range(40)] + [(s, 16, 6) for s in range(20)]
PHASES = {"global_phase": global_phase, "phased_transformers": phased_transformers}
AFFINE = [(0.5, -0.7), (3.0, 2.0), (-1.0, 0.5), (-2.5, -1.0)]  # (α, β)


@pytest.mark.parametrize("seed, d1_max, outcomes_max", SEEDED)
def test_rotating_the_object_basis_keeps_a_seeded_run(seed, d1_max, outcomes_max):
    scenario = generate_random_instance(seed, d1_max, outcomes_max)
    assert_same_physics(scenario, rotated(scenario, seed))


@pytest.mark.parametrize("name", COMMITTED)
def test_rotating_the_object_basis_keeps_a_committed_scenario(name):
    scenario = load_scenario(str(SCENARIOS / name))
    assert_same_physics(scenario, rotated(scenario, COMMITTED.index(name)))


@pytest.mark.parametrize("relation", PHASES)
@pytest.mark.parametrize("seed, d1_max, outcomes_max", SEEDED)
def test_a_phase_keeps_a_seeded_run(relation, seed, d1_max, outcomes_max):
    scenario = generate_random_instance(seed, d1_max, outcomes_max)
    assert_same_physics(scenario, PHASES[relation](scenario, seed))


@pytest.mark.parametrize("relation", PHASES)
@pytest.mark.parametrize("name", COMMITTED)
def test_a_phase_keeps_a_committed_scenario(relation, name):
    scenario = load_scenario(str(SCENARIOS / name))
    assert_same_physics(scenario, PHASES[relation](scenario, COMMITTED.index(name)))


@pytest.mark.parametrize("alpha, beta", AFFINE)
@pytest.mark.parametrize("seed, d1_max, outcomes_max", SEEDED)
def test_an_affine_map_of_the_eigenvalues_keeps_a_seeded_run(alpha, beta, seed, d1_max, outcomes_max):
    scenario = generate_random_instance(seed, d1_max, outcomes_max)
    assert_same_physics(scenario, affine(scenario, alpha, beta), commutator_scale=abs(alpha), reversed_terms=alpha < 0)


@pytest.mark.parametrize("alpha, beta", AFFINE)
@pytest.mark.parametrize("name", COMMITTED)
def test_an_affine_map_of_the_eigenvalues_keeps_a_committed_scenario(alpha, beta, name):
    scenario = load_scenario(str(SCENARIOS / name))
    assert_same_physics(scenario, affine(scenario, alpha, beta), commutator_scale=abs(alpha), reversed_terms=alpha < 0)
