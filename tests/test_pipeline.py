import json
import tracemalloc

import numpy as np
import pytest

from qmeasure import (
    generate_random_instance,
    parse_scenario,
    report_to_dict,
    report_to_json,
    report_to_text,
    run_pipeline,
)
from qmeasure import pipeline as pipeline_module
from qmeasure.errors import NoDefiniteValue, NonRepeatableInput

# Report order of the verdicts: the checks every run makes, then those that
# presume a repeatable instrument.
ALWAYS = (
    "repeatability_condition",
    "probability_reproducibility",
    "conditional_states",
    "schmidt_reconstruction",
)
REPEATABLE_ONLY = (
    "repeat_certainty",
    "definite_values",
    "schmidt_probability_match",
    "twin_diagonality",
    "compatibility_migration",
    "entropy_ledger",
    "entanglement_incompatibility_final",
    "entanglement_incompatibility_initial",
    "pointer_reading_marginals",
    "pointer_reading_commutators",
    "pointer_reading_incompatibility",
)

IDEAL_Z_UNIFORM = json.dumps({
    "object_dim": 2,
    "observable": {"preset": "pauli_z"},
    "initial_state": {"preset": "uniform"},
    "instrument": {"kind": "ideal"},
})

IDEAL_Z_BASIS0 = json.dumps({
    "object_dim": 2,
    "observable": {"preset": "pauli_z"},
    "initial_state": {"preset": "basis", "index": 0},
    "instrument": {"kind": "ideal"},
})

SWAP = json.dumps({
    "object_dim": 2,
    "observable": {"preset": "pauli_z"},
    "initial_state": {"preset": "uniform"},
    "instrument": {"kind": "custom", "transformers": [
        [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
        [[[0, 0], [0, 0]], [[1, 0], [0, 0]]],
    ]},
})


class TestRunPipeline:
    def test_ideal_z_on_uniform(self):
        report = run_pipeline(parse_scenario(IDEAL_Z_UNIFORM))
        assert report.overall_pass and report.error is None
        assert report.probabilities == pytest.approx((0.5, 0.5), abs=1e-12)
        assert report.schmidt_coefficients == pytest.approx((np.sqrt(0.5),) * 2, abs=1e-12)
        assert report.entropies.entanglement == pytest.approx(1.0, abs=1e-12)
        # coherence present before measurement, gone from the object after
        assert report.initial_commutator_norm == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert report.not_applicable == ()
        assert tuple(v.label for v in report.verdicts) == ALWAYS + REPEATABLE_ONLY

    def test_ideal_z_on_eigenstate(self):
        report = run_pipeline(parse_scenario(IDEAL_Z_BASIS0))
        assert report.overall_pass
        assert len(report.schmidt_coefficients) == 1
        assert report.entropies.entanglement < 1e-12

    def test_ideal_x_on_basis_state(self):
        # degenerate Schmidt coefficients with an oblique raw eigenbasis;
        # the definite-value matching must rotate, not reject
        text = json.dumps({
            "object_dim": 2,
            "observable": {"preset": "pauli_x"},
            "initial_state": {"preset": "basis", "index": 0},
            "instrument": {"kind": "ideal"},
        })
        report = run_pipeline(parse_scenario(text))
        assert report.overall_pass and report.error is None
        assert report.entropies.entanglement == pytest.approx(1.0, abs=1e-12)

    def test_non_repeatable_custom_instrument(self):
        report = run_pipeline(parse_scenario(SWAP))
        assert not report.overall_pass and report.error is None
        by_label = {v.label: v for v in report.verdicts}
        assert not by_label["repeatability_condition"].passed
        assert by_label["probability_reproducibility"].passed
        assert tuple(v.label for v in report.verdicts) == ALWAYS
        assert report.not_applicable == REPEATABLE_ONLY

    def test_failing_schmidt_stage_keeps_the_verdicts_before_it(self, monkeypatch):
        def explode(*args, **kwargs):
            raise NoDefiniteValue("synthetic")

        monkeypatch.setattr(pipeline_module, "schmidt_decompose", explode)
        report = run_pipeline(parse_scenario(IDEAL_Z_UNIFORM))
        assert tuple(v.label for v in report.verdicts) == ALWAYS[:3]
        assert report.probabilities == pytest.approx((0.5, 0.5), abs=1e-12)
        assert report.initial_commutator_norm == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert report.schmidt_coefficients is None and report.entropies is None
        assert report.error == "schmidt: NoDefiniteValue: synthetic"
        assert not report.overall_pass

    def test_failing_pointer_reading_keeps_the_verdicts_before_it(self, monkeypatch):
        def explode(*args, **kwargs):
            raise NonRepeatableInput("synthetic")

        monkeypatch.setattr(pipeline_module, "read_pointer_tripartite", explode)
        report = run_pipeline(parse_scenario(IDEAL_Z_UNIFORM))
        assert tuple(v.label for v in report.verdicts) == ALWAYS + REPEATABLE_ONLY[:8]
        assert report.entropies is not None and report.schmidt_coefficients is not None
        assert report.error == "pointer_reading: NonRepeatableInput: synthetic"

    def test_overall_pass_matches_verdicts(self):
        for text in (IDEAL_Z_UNIFORM, SWAP):
            report = run_pipeline(parse_scenario(text))
            assert report.overall_pass == (report.error is None and all(v.passed for v in report.verdicts))

    def test_verdicts_carry_deviation_and_tolerance(self):
        report = run_pipeline(parse_scenario(IDEAL_Z_UNIFORM))
        for v in report.verdicts:
            assert np.isfinite(v.deviation) and v.tolerance > 0
            assert v.passed == (v.deviation <= v.tolerance)

    def test_deterministic_report(self):
        scenario = generate_random_instance(123, 5, 4)
        first = report_to_dict(run_pipeline(scenario))
        second = report_to_dict(run_pipeline(scenario))
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_tolerance_override_applies_everywhere(self):
        scenario = parse_scenario(IDEAL_Z_UNIFORM)
        import dataclasses

        loose = dataclasses.replace(scenario, tolerance=0.5)
        report = run_pipeline(loose)
        assert all(v.tolerance == 0.5 for v in report.verdicts)

    def test_large_object_stays_within_a_memory_budget(self):
        # d = 36 with 9 outcomes: one dense operator on the tripartite space
        # after the pointer reading (D = 36 * 9 * 9) takes 130 MiB, so this
        # budget keeps every lifted identity on the factors.
        scenario = generate_random_instance(13, 40, 9)
        tracemalloc.start()
        try:
            report = run_pipeline(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.error is None and report.overall_pass
        assert tuple(v.label for v in report.verdicts) == ALWAYS + REPEATABLE_ONLY
        assert peak < 32 * 2**20


class TestReportSerialization:
    def test_json_and_text_share_the_verdict_set(self):
        report = run_pipeline(parse_scenario(IDEAL_Z_UNIFORM))
        doc = report_to_dict(report)
        text = report_to_text(report)
        json_labels = {v["label"] for v in doc["verdicts"]}
        assert all(label in text for label in json_labels)
        assert set(doc["not_applicable"]) == set(report.not_applicable)

    def test_timing_excluded_by_default(self):
        report = run_pipeline(parse_scenario(IDEAL_Z_UNIFORM))
        assert "duration_seconds" not in report_to_dict(report)
        assert "duration_seconds" in report_to_dict(report, include_timing=True)
        assert report.duration_seconds > 0

    def test_text_columns_line_up_with_not_applicable_labels(self):
        text = report_to_text(run_pipeline(parse_scenario(SWAP)))
        verdict_columns = {line.index("deviation=") for line in text.splitlines() if "deviation=" in line}
        skipped_columns = {line.index("not applicable") for line in text.splitlines() if "not applicable" in line}
        assert len(verdict_columns) == 1 and verdict_columns == skipped_columns

    def test_json_round_trip(self):
        report = run_pipeline(parse_scenario(IDEAL_Z_UNIFORM))
        doc = json.loads(report_to_json(report))
        assert doc["overall_pass"] is True
        assert doc["scenario"]["observable"] == {"preset": "pauli_z"}
