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
* A null block: on C^d ⊕ C^m the observable A ⊕ a·1 with a above every
  eigenvalue, the state ψ ⊕ 0 and the family A_k ⊕ 0 with one more term
  0 ⊕ 1. The new term is never detected: the Born vector gains a
  trailing 0 and the final vector is Ψ ⊕ 0.

Each follow-up has the same Born probabilities (up to that reversal or
trailing 0), Schmidt coefficients and marginal spectra as its source, so
a run must reach the same verdicts. At d ≥ 200 one follow-up is read back
from its document. A ``diag`` preset and the ``matrix`` document of the
same diagonal must give the same report.
The source and follow-up runs are compared as in metamorphic testing
(Chen et al., ACM Comput. Surv. 51(1):4, 2018): neither needs a known
expected output, only their relation.
"""

import dataclasses
import json
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
    parse_scenario,
    random_unitary,
    report_to_dict,
    run_pipeline,
    scenario_from_dict,
)
from qmeasure.scenario import _pairs
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


def null_block(scenario: Scenario, m: int) -> Scenario:
    """The scenario on C^d ⊕ C^m: A ⊕ (a_max + 1)·1, ψ ⊕ 0, and the family A_k ⊕ 0 with a last term 0 ⊕ 1."""
    obs, d = scenario.observable, scenario.observable.dim
    matrix = np.zeros((d + m, d + m), dtype=complex)
    matrix[:d, :d] = obs.matrix()
    matrix[d:, d:] = (max(obs.eigenvalues) + 1.0) * np.eye(m)
    family = np.zeros((obs.n_outcomes + 1, d + m, d + m), dtype=complex)
    family[:-1, :d, :d] = transformer_stack(scenario.transformers)
    family[-1, d:, d:] = np.eye(m)
    return dataclasses.replace(
        scenario,
        initial_state=PureState(np.concatenate([scenario.initial_state.vector, np.zeros(m)])),
        transformers=StateTransformerSet.from_transformers(tuple(family), observable_from_matrix(matrix)),
    )


def assert_same_physics(
    scenario: Scenario,
    follow_up_scenario: Scenario,
    commutator_scale: float = 1.0,
    reversed_terms: bool = False,
    null_terms: int = 0,
) -> tuple:
    """The two runs agree, and are returned; ``reversed_terms``: term k of the follow-up is term K-1-k of the
    source; ``null_terms``: the follow-up has that many more terms, after the source's, each never detected."""
    source, follow_up = run_pipeline(scenario), run_pipeline(follow_up_scenario)

    assert source.error is None and follow_up.error is None
    assert [x.label for x in follow_up.verdicts] == [x.label for x in source.verdicts]
    assert [x.passed for x in follow_up.verdicts] == [x.passed for x in source.verdicts]
    assert follow_up.overall_pass == source.overall_pass
    assert follow_up.not_applicable == source.not_applicable
    expected = (source.probabilities[::-1] if reversed_terms else source.probabilities) + (0.0,) * null_terms
    np.testing.assert_allclose(follow_up.probabilities, expected, rtol=0, atol=NUMERIC_TOL)
    np.testing.assert_allclose(
        follow_up.schmidt_coefficients, source.schmidt_coefficients, rtol=0, atol=NUMERIC_TOL
    )
    assert (source.initial_commutator_norm is None) == (follow_up.initial_commutator_norm is None)
    if source.initial_commutator_norm is not None:
        assert follow_up.initial_commutator_norm == pytest.approx(
            commutator_scale * source.initial_commutator_norm, rel=0, abs=NUMERIC_TOL
        )
    assert source.entropies.keys() == follow_up.entropies.keys() == {"s1", "shannon_pk"}
    for field, value in source.entropies.items():
        assert follow_up.entropies[field] == pytest.approx(value, rel=0, abs=NUMERIC_TOL), field
    return source, follow_up


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


# (seed, d1_max, outcomes_max) with d = 218 and 215.
LARGE = [(0, 256, 24), (2, 256, 24)]


@pytest.mark.parametrize("seed, d1_max, outcomes_max", LARGE)
def test_rotating_the_object_basis_keeps_a_seeded_run_at_d_over_200(seed, d1_max, outcomes_max):
    scenario = generate_random_instance(seed, d1_max, outcomes_max)
    assert scenario.observable.dim > 200
    source, _ = assert_same_physics(scenario, rotated(scenario, seed))
    assert source.overall_pass


def test_a_global_phase_read_back_from_its_document_keeps_a_seeded_run_at_d_over_200():
    # The follow-up's document is the source's with the new amplitudes, so parsing reads a 218 × 218 matrix.
    scenario = generate_random_instance(*LARGE[0])
    amplitudes = global_phase(scenario, 0).initial_state.vector
    follow_up = scenario_from_dict({**scenario.source, "initial_state": {"amplitudes": _pairs(amplitudes)}})
    assert follow_up.observable.dim == 218
    source, _ = assert_same_physics(scenario, follow_up)
    assert source.overall_pass


@pytest.mark.parametrize("seed, d1_max, outcomes_max", SEEDED[:20] + SEEDED[40:50] + LARGE[1:])
def test_a_null_block_keeps_a_seeded_run(seed, d1_max, outcomes_max):
    scenario = generate_random_instance(seed, d1_max, outcomes_max)
    assert_same_physics(scenario, null_block(scenario, 1 + seed % 3), null_terms=1)


@pytest.mark.parametrize("name", COMMITTED)
def test_a_null_block_keeps_a_committed_scenario(name):
    scenario = load_scenario(str(SCENARIOS / name))
    assert_same_physics(scenario, null_block(scenario, 1 + COMMITTED.index(name) % 3), null_terms=1)


@pytest.mark.parametrize(
    "instrument", [{"kind": "ideal"}, {"kind": "repeatable", "seed": 11}], ids=["ideal", "repeatable"]
)
def test_a_diag_preset_and_the_matrix_of_its_diagonal_give_one_report(instrument):
    values = [2.0, -1.0, 2.0, 0.5]
    doc = {
        "object_dim": 4,
        "observable": {"preset": "diag", "values": values},
        "initial_state": {"amplitudes": [0.1, [0.0, 0.7], 0.5, [0.5, 0.0]]},
        "instrument": instrument,
    }
    preset = report_to_dict(run_pipeline(parse_scenario(json.dumps(doc))))
    doc["observable"] = {"matrix": np.diag(values).tolist()}
    matrix = report_to_dict(run_pipeline(parse_scenario(json.dumps(doc))))
    assert preset.pop("scenario") != matrix.pop("scenario")
    assert preset == matrix
