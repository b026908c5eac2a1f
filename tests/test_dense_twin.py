"""The pipeline's Schmidt form, entropies, repeat certainty and pointer reading against a dense twin.

``reference.dense_checks`` computes the nine labels of ``reference.DENSE_LABELS``
from dense operators: the completed unitary on ψ ⊗ e_0, the eigenvectors of
the Hermitian dilation of Ψ's matrix, partial traces of |Ψ><Ψ|, Lüders
updates of dense density matrices, the dense A_k and P_k, and partial traces
and commutators of |tri><tri|. The pipeline takes the Schmidt form from the
SVD of the final vector's d × n matrix, reads its entropies from the Schmidt
coefficients, repeat certainty from the columns of the final vector as d × K,
the reading's marginals from its singular values and its commutators
from its D × K factor. Both must reach the same verdicts, with each lhs and rhs equal
up to rounding. This is differential testing (McKeeman, Digital Technical
Journal 10(1), 1998).

A repeatable instrument makes the branches of the final vector orthogonal,
so its Gram matrix is diagonal and real. The non-repeatable families
A_k = U_k P_k, with one seeded complex unitary per outcome, give branches
that are not orthogonal and a Gram matrix with complex entries off the
diagonal; there only ``schmidt_reconstruction`` applies.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from qmeasure import (
    StateTransformerSet,
    generate_random_instance,
    load_scenario,
    random_unitary,
    run_pipeline,
)
from conftest import small_weight_scenario
from reference import DENSE_LABELS, dense_checks, projectors

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
COMMITTED = sorted(path.name for path in SCENARIOS.glob("*.json"))
SEEDED = [(s, 6, 4) for s in range(40)] + [(s, 8, 4) for s in range(20)]
# Seeds of conftest.small_weight_scenario (Born weights down to 1e-9) at d <= 8 on which the Schmidt
# form from eigh of the Gram matrix M†M halted or failed a verdict.
SMALL_WEIGHTS = [564, 1762, 671, 929, 54, 355, 74, 255, 741, 231]
# Set before the tests were run: entropies of O(1) that pass through eigensolvers of different sizes.
TWIN_TOL = 1e-12


def assert_twins(scenario) -> None:
    report = run_pipeline(scenario)
    routed = [v for v in report.verdicts if v.label in DENSE_LABELS]
    dense = dense_checks(scenario)
    assert [v.label for v in routed] == [v.label for v in dense]
    assert [v.passed for v in routed] == [v.passed for v in dense]
    for ours, theirs in zip(routed, dense):
        assert abs(ours.lhs - theirs.lhs) <= TWIN_TOL, (ours.label, ours.lhs, theirs.lhs)
        assert abs(ours.rhs - theirs.rhs) <= TWIN_TOL, (ours.label, ours.rhs, theirs.rhs)


@pytest.mark.parametrize("seed, d1_max, outcomes_max", SEEDED)
def test_a_seeded_run_matches_its_dense_twin(seed, d1_max, outcomes_max):
    assert_twins(generate_random_instance(seed, d1_max, outcomes_max))


@pytest.mark.parametrize("seed", SMALL_WEIGHTS)
def test_a_run_with_small_born_weights_matches_its_dense_twin(seed):
    assert_twins(small_weight_scenario(seed))


@pytest.mark.parametrize("name", COMMITTED)
def test_a_committed_scenario_matches_its_dense_twin(name):
    assert_twins(load_scenario(str(SCENARIOS / name)))


@pytest.mark.parametrize("seed", range(10))
def test_a_non_repeatable_run_matches_its_dense_twin(seed):
    scenario = generate_random_instance(seed, 6, 4)
    obs = scenario.observable
    rng = np.random.default_rng(seed)
    family = StateTransformerSet.from_transformers(tuple(random_unitary(obs.dim, rng) @ p for p in projectors(obs)), obs)
    assert_twins(dataclasses.replace(scenario, transformers=family))
