"""Correct measurements with small Born weights: every verdict passes and no run halts.

A repeatable measurement leaves a Schmidt form with definite values, so
every run below must pass with no error. Two or more small Born weights
put Schmidt coefficients close together in their squares. The
eigenvectors of the Gram matrix M†M resolve the left vectors only to
about eps/|c_j² - c_k²|, and a route through them halted with
NoDefiniteValue, or failed definite_values and twin_diagonality, on 62
of the 80 documents and on 53 of the 300 seeded cases here. The SVD of
M resolves them to about eps/|c_j - c_k| (Wedin, BIT 12, 1972). Below
weights of about 1e-10, twin_diagonality can still exceed its tolerance.
"""

import json

import pytest

from qmeasure import cli, run_pipeline, scenario_from_dict
from conftest import small_weight_scenario, three_level_document

WEIGHT_PAIRS = [(3e-8, 2e-11), (1e-8, 1e-10), (1e-7, 3e-10), (5e-9, 2e-11)]


def failures(reports) -> list:
    return [(key, report.error, [v.label for v in report.verdicts if not v.passed])
            for key, report in reports if not report.overall_pass or report.error is not None]


@pytest.mark.parametrize("small", WEIGHT_PAIRS, ids=str)
def test_an_ideal_three_level_measurement_with_two_small_weights_passes(small):
    reports = [(seed, run_pipeline(scenario_from_dict(three_level_document(seed, small)))) for seed in range(20)]
    assert failures(reports) == []


def test_a_seeded_family_with_weights_down_to_1e_9_passes():
    assert failures((seed, run_pipeline(small_weight_scenario(seed))) for seed in range(300)) == []


def test_run_exits_zero_on_the_three_level_documents(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    for seed in range(20):
        path.write_text(json.dumps(three_level_document(seed, WEIGHT_PAIRS[0])))
        assert cli.main(["run", str(path)]) == 0, (seed, capsys.readouterr().out)
    capsys.readouterr()
