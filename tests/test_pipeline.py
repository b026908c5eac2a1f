import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qmeasure import (
    DensityOperator,
    PureState,
    SchmidtForm,
    StateTransformerSet,
    Verdict,
    evolve,
    generate_random_instance,
    parse_scenario,
    random_state_vector,
    random_unitary,
    report_to_dict,
    report_to_json,
    report_to_text,
    run_pipeline,
    shannon_entropy,
    verify_definite_values,
)
from qmeasure import pipeline as pipeline_module
from qmeasure.cli import main as cli_main
from qmeasure import tolerances as tol
from qmeasure.errors import NoDefiniteValue, NonRepeatableInput, NotADistribution
from reference import apply_on_factor, projectors, pure_marginal, von_neumann_entropy

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# `qmeasure run <scenario> --format json` for each committed scenario, written by
# tests/golden/regenerate.py. A change of route may move the last bits of a float
# (by up to ~5e-14 so far), nothing else.
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_FLOAT_TOL = 1e-12

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
        assert report.entropies["s1"] == pytest.approx(1.0, abs=1e-12)
        # coherence present before measurement, gone from the object after: [N, |+><+|] for N = |0><0|
        assert report.initial_commutator_norm == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert report.not_applicable == ()
        assert tuple(v.label for v in report.verdicts) == ALWAYS + REPEATABLE_ONLY

    def test_ideal_z_on_eigenstate(self):
        report = run_pipeline(parse_scenario(IDEAL_Z_BASIS0))
        assert report.overall_pass
        assert len(report.schmidt_coefficients) == 1
        assert report.entropies["s1"] < 1e-12

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
        assert report.entropies["s1"] == pytest.approx(1.0, abs=1e-12)

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
        assert report.initial_commutator_norm == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert report.schmidt_coefficients is None and report.entropies is None
        assert report.error == "schmidt: NoDefiniteValue: synthetic"
        assert not report.overall_pass

    @pytest.mark.parametrize("failing_call, stage", [(1, "born_entropy"), (2, "entropies")])
    def test_a_failing_entropy_names_its_stage_and_drops_the_entropy_block(self, failing_call, stage, monkeypatch):
        # H(p) is taken before S1, so a failure of the first entropy is the Born vector's
        calls = []

        def entropy(p):
            calls.append(1)
            if len(calls) == failing_call:
                raise NotADistribution("synthetic")
            return shannon_entropy(p)

        monkeypatch.setattr(pipeline_module, "shannon_entropy", entropy)
        report = run_pipeline(parse_scenario(IDEAL_Z_UNIFORM))
        assert report.error == f"{stage}: NotADistribution: synthetic"
        assert report.entropies is None and report.schmidt_coefficients is not None
        assert tuple(v.label for v in report.verdicts) == ALWAYS + REPEATABLE_ONLY[:1]

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

    def test_a_run_builds_no_transformer_family(self, monkeypatch):
        # The scenario holds the family it was parsed or generated with; every kind is checked there, once.
        scenarios = [parse_scenario(path.read_text()) for path in sorted(SCENARIOS.glob("*.json"))]
        scenarios.append(generate_random_instance(3, 6, 4))
        calls = []
        check = StateTransformerSet.__post_init__
        monkeypatch.setattr(StateTransformerSet, "__post_init__", lambda ts: calls.append(1) or check(ts))
        for scenario in scenarios:
            run_pipeline(scenario)
        assert calls == []

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

    def test_the_document_carries_schema_3_and_the_entropy_block_s1_and_h_of_p(self):
        report = run_pipeline(parse_scenario(IDEAL_Z_UNIFORM))
        doc = json.loads(report_to_json(report))
        assert doc.pop("schema") == 3
        assert doc == json.loads(json.dumps(report_to_dict(report)))
        assert doc["entropies"] == report.entropies == {"s1": 1.0, "shannon_pk": 1.0}
        assert "entropies (bits): S1=1.0000000000 H(p)=1.0000000000\n" in report_to_text(report)

    def test_non_finite_computed_values_are_written_as_json_strings(self):
        report = run_pipeline(parse_scenario(IDEAL_Z_UNIFORM))
        odd = Verdict("odd", math.nan, math.inf, -math.inf, 1e-9, False)
        report = dataclasses.replace(report, initial_commutator_norm=-math.inf, verdicts=(*report.verdicts, odd))

        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        doc = json.loads(report_to_json(report), parse_constant=reject)
        assert doc["initial_commutator_norm"] == "-Infinity"
        assert doc["verdicts"][-1] == {
            "label": "odd", "lhs": "NaN", "rhs": "Infinity", "deviation": "-Infinity", "tolerance": 1e-9, "passed": False
        }
        assert doc["verdicts"][:-1] == [dict(vars(v)) for v in report.verdicts[:-1]]


def assert_matches_golden(actual, expected, where="report"):
    """Floats within GOLDEN_FLOAT_TOL; key sets, labels, flags, strings and nulls exactly."""
    if isinstance(expected, float):
        assert isinstance(actual, float) and abs(actual - expected) <= GOLDEN_FLOAT_TOL, (where, actual, expected)
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), where
        for key, value in expected.items():
            assert_matches_golden(actual[key], value, f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches_golden(a, e, f"{where}[{i}]")
    else:
        assert type(actual) is type(expected) and actual == expected, (where, actual, expected)


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json")))
def test_committed_scenario_matches_its_golden_report(name):
    report = run_pipeline(parse_scenario((SCENARIOS / f"{name}.json").read_text()))
    assert_matches_golden(json.loads(report_to_json(report)), json.loads((GOLDEN / f"{name}.json").read_text()))


def test_seeded_campaign_matches_its_golden(capsys):
    # `batch --seeds 0..19 --d1-max 16 --outcomes-max 6 --format json`, without each result's scenario block.
    assert cli_main(["batch", "--seeds", "0..19", "--d1-max", "16", "--outcomes-max", "6", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for result in doc["results"]:
        del result["scenario"]
    assert_matches_golden(doc, json.loads((GOLDEN / "batch_seeds_0_19_d16_o6.json").read_text()))


def _negative_or_negative_zero(doc) -> list[str]:
    """Entropy fields of a report document that are below 0 or are -0.0."""
    entropies = doc["entropies"] or {}
    return [k for k, v in entropies.items() if v is not None and (v < 0 or str(v) == "-0.0")]


def test_no_report_has_a_negative_or_negative_zero_entropy():
    # `batch --seeds 0..99` at its default bounds printed 246 such fields before the clamp
    for seed in range(100):
        doc = json.loads(report_to_json(run_pipeline(generate_random_instance(seed, 4, 3))))
        assert _negative_or_negative_zero(doc) == [], seed
    for path in sorted(SCENARIOS.glob("*.json")):
        doc = json.loads(report_to_json(run_pipeline(parse_scenario(path.read_text()))))
        assert _negative_or_negative_zero(doc) == [], path.name


def _multi_term_runs(count: int = 20):
    """Fresh runs of seeded scenarios whose final vector has at least two Schmidt terms."""
    runs = []
    for seed in range(200):
        run = pipeline_module._Run(generate_random_instance(seed, 8, 4))
        if run.schmidt.coefficients.size >= 2:
            runs.append((seed, run))
        if len(runs) == count:
            return runs
    raise AssertionError("too few seeds with two Schmidt terms")


def _rotated_rights(sf: SchmidtForm, angle: float) -> SchmidtForm:
    """The form with its first two right vectors rotated into each other by ``angle``."""
    rights = sf.rights.copy()
    c, s = np.cos(angle), np.sin(angle)
    rights[:, :2] = sf.rights[:, :2] @ np.array([[c, -s], [s, c]])
    return SchmidtForm(sf.coefficients, sf.lefts, rights)


class TestReBasedFormControls:
    """Each verdict that reads the re-based Schmidt form flags a corrupted one.

    The corrupted artefact is written into the run before the check reads it.
    """

    CHECK = {check.label: check for check in pipeline_module.CHECKS}

    def test_schmidt_probability_match_sees_a_scaled_coefficient(self):
        for seed, run in _multi_term_runs():
            definite = run.definite
            canonical = definite.schmidt_form
            coefficients = canonical.coefficients.copy()
            coefficients[np.argmax(coefficients)] *= 1 + 1e-4
            scaled = SchmidtForm(coefficients, canonical.lefts, canonical.rights)
            run.__dict__["definite"] = definite._replace(schmidt_form=scaled)
            _, _, deviation, _ = self.CHECK["schmidt_probability_match"].fn(run)
            assert deviation >= 1e3 * tol.THEOREM, seed

    def test_twin_diagonality_sees_a_tilted_left_vector(self):
        # Only the object side reads the left vectors, so the pointer side stays below the tolerance.
        for seed, run in _multi_term_runs():
            definite = run.definite
            canonical = definite.schmidt_form
            lefts = canonical.lefts.copy()
            lefts[:, 0] += 1e-4 * lefts[:, 1]
            tilted = SchmidtForm(canonical.coefficients, lefts, canonical.rights)
            run.__dict__["definite"] = definite._replace(schmidt_form=tilted)
            lhs, rhs, deviation, _ = self.CHECK["twin_diagonality"].fn(run)
            assert min(lhs, deviation) >= 1e3 * tol.RECONSTRUCTION and rhs < tol.RECONSTRUCTION, seed

    def test_twin_diagonality_sees_a_tilted_right_vector(self):
        # Only the pointer side reads the right vectors, so the object side stays below the tolerance.
        for seed, run in _multi_term_runs():
            definite = run.definite
            canonical = definite.schmidt_form
            rights = canonical.rights.copy()
            rights[:, 0] += 1e-4 * rights[:, 1]
            tilted = SchmidtForm(canonical.coefficients, canonical.lefts, rights)
            run.__dict__["definite"] = definite._replace(schmidt_form=tilted)
            lhs, rhs, deviation, _ = self.CHECK["twin_diagonality"].fn(run)
            assert min(rhs, deviation) >= 1e3 * tol.RECONSTRUCTION and lhs < tol.RECONSTRUCTION, seed

    def test_twin_diagonality_sees_a_scaled_outcome_0_right_vector(self):
        # Both twins weigh term t by k_t + 1: a weight of k_t, the pointer's eigenvalue, would drop the outcome-0
        # term from the residual, and a norm error of 1e-6 there would pass unseen.
        scaled_seeds = []
        for seed, run in _multi_term_runs():
            definite = run.definite
            if 0 not in definite.outcomes:
                continue
            canonical = definite.schmidt_form
            rights = canonical.rights.copy()
            rights[:, definite.outcomes == 0] *= 1 + 1e-6
            scaled = SchmidtForm(canonical.coefficients, canonical.lefts, rights)
            run.__dict__["definite"] = definite._replace(schmidt_form=scaled)
            lhs, rhs, deviation, tolerance = self.CHECK["twin_diagonality"].fn(run)
            assert rhs == deviation >= 1e3 * tolerance and lhs < tolerance, seed
            scaled_seeds.append(seed)
        assert len(scaled_seeds) >= 10

    def test_definite_values_fails_on_right_vectors_rotated_inside_the_fail_band(self):
        # Residuals between RECONSTRUCTION and DEFINITE_VALUE are the only FAIL band.
        for seed, run in _multi_term_runs():
            run.__dict__["schmidt"] = _rotated_rights(run.schmidt, 3e-9)
            _, _, deviation, tolerance = self.CHECK["definite_values"].fn(run)
            assert tolerance < deviation < tol.DEFINITE_VALUE, seed

    def test_definite_values_fails_on_a_left_vector_tilted_inside_the_fail_band(self):
        # l_0 tilts by 3e-9 towards a unit vector x of another eigenspace, orthogonal to every left vector:
        # re-basing on N cannot undo that, so the left residual reads 3e-9 and the right ones stay at rounding.
        tilted_seeds = []
        for seed, run in _multi_term_runs():
            sf, obs = run.schmidt, run.obs
            k0 = np.argmax(np.abs(np.conj(obs.basis).T @ sf.lefts[:, 0]) ** 2 @ obs.indicator)
            candidates = obs.basis[:, obs.indicator[:, k0] == 0]
            outside = candidates - sf.lefts @ (np.conj(sf.lefts).T @ candidates)
            norms = np.linalg.norm(outside, axis=0)
            if norms.max() < 0.5:
                continue  # the left vectors span every other eigenspace
            lefts = sf.lefts.copy()
            lefts[:, 0] = np.cos(3e-9) * lefts[:, 0] + np.sin(3e-9) * outside[:, np.argmax(norms)] / norms.max()
            run.__dict__["schmidt"] = SchmidtForm(sf.coefficients, lefts, sf.rights)
            lhs, rhs, deviation, tolerance = self.CHECK["definite_values"].fn(run)
            assert tolerance < lhs == deviation < tol.DEFINITE_VALUE and rhs < tolerance, seed
            tilted_seeds.append(seed)
        assert len(tilted_seeds) >= 10

    def test_definite_values_halts_on_right_vectors_rotated_beyond_it(self):
        for seed, run in _multi_term_runs():
            run.__dict__["schmidt"] = _rotated_rights(run.schmidt, 1e-6)
            with pytest.raises(pipeline_module._Halt):
                self.CHECK["definite_values"].fn(run)
            assert run.error.startswith("definite_values: NoDefiniteValue:"), seed

    def test_left_vectors_of_twice_unit_norm_have_no_definite_values(self):
        # The outcome index of a term then reads 4k, outside 0..K-1 for K = 2.
        scenario = parse_scenario(IDEAL_Z_UNIFORM)
        run = pipeline_module._Run(scenario)
        sf = run.schmidt
        doubled = SchmidtForm(sf.coefficients, 2 * sf.lefts, sf.rights)
        with pytest.raises(NoDefiniteValue, match="outside 0..1"):
            verify_definite_values(doubled, scenario.observable, run.ts.pointer_observable)
        for seed, run in _multi_term_runs():
            sf = run.schmidt
            doubled = SchmidtForm(sf.coefficients, 2 * sf.lefts, sf.rights)
            with pytest.raises(NoDefiniteValue):
                verify_definite_values(doubled, run.obs, run.ts.pointer_observable)


class TestRewrittenRouteControls:
    """Checks that run through the stacked Schmidt products, the pointer-side product or the Gram entropy.

    Each flags a corrupted artefact, written into the run before the check reads it.
    """

    CHECK = TestReBasedFormControls.CHECK

    def test_schmidt_reconstruction_sees_swapped_right_vectors(self):
        # Pairing each left vector with another term's right vector leaves a form orthogonal to the final vector.
        for seed, run in _multi_term_runs():
            sf = run.schmidt
            swapped = [1, 0, *range(2, sf.coefficients.size)]
            run.__dict__["schmidt"] = SchmidtForm(sf.coefficients, sf.lefts, sf.rights[:, swapped])
            _, _, deviation, _ = self.CHECK["schmidt_reconstruction"].fn(run)
            assert deviation >= 1e3 * tol.RECONSTRUCTION, seed

    def test_conditional_states_sees_a_final_vector_that_gained_norm(self):
        # Each pointer-side state M_k M_k† grows by 2e-4 p_k; the transformer side does not move.
        for seed, run in _multi_term_runs():
            run.__dict__["final"] = run.final * (1 + 1e-4)
            _, _, deviation, _ = self.CHECK["conditional_states"].fn(run)
            assert deviation >= 1e3 * tol.KRAUS_CONSISTENCY, seed

    def test_pointer_reading_incompatibility_sees_a_reweighted_reading(self):
        # The reader doubles the weight of its first outcome, so the object's weights are no longer p.
        for seed, run in _multi_term_runs():
            tri, dims3 = run.reading
            w = tri.reshape(-1, dims3[2]).copy()
            w[:, 0] *= np.sqrt(2.0)
            run.__dict__["reading"] = ((w / np.linalg.norm(w)).reshape(-1), dims3)
            _, _, deviation, _ = self.CHECK["pointer_reading_incompatibility"].fn(run)
            assert deviation >= 1e3 * tol.THEOREM, seed


class TestEntropyAndMarginalControls:
    """Checks that read the entropy report, the marginals or the initial state.

    Each flags a corrupted artefact, written into the run before the check reads it.
    """

    CHECK = TestReBasedFormControls.CHECK

    def test_compatibility_migration_sees_a_rotated_pointer(self):
        # A pointer unitary leaves rho_1 as it was, but rho_2 gains coherence across pointer outcomes.
        for seed, run in _multi_term_runs():
            rotation = random_unitary(run.dims[1], np.random.default_rng(seed))
            run.__dict__["final"] = apply_on_factor(rotation, run.final, run.dims, 1)
            lhs, rhs, deviation, _ = self.CHECK["compatibility_migration"].fn(run)
            assert min(rhs, deviation) >= 1e3 * tol.COMMUTATOR and lhs < tol.COMMUTATOR, seed

    def test_compatibility_migration_sees_a_rotated_object(self):
        # An object unitary leaves rho_2 as it was, but rho_1 no longer commutes with A.
        for seed, run in _multi_term_runs():
            rotation = random_unitary(run.dims[0], np.random.default_rng(seed))
            run.__dict__["final"] = apply_on_factor(rotation, run.final, run.dims, 0)
            lhs, rhs, deviation, _ = self.CHECK["compatibility_migration"].fn(run)
            assert min(lhs, deviation) >= 1e3 * tol.COMMUTATOR and rhs < tol.COMMUTATOR, seed

    def test_entropy_ledger_sees_a_reweighted_branch(self):
        # Doubling the weight of the likeliest pointer branch moves 2 S1, the mutual information, away from 2 H(p).
        # S1 reads the Schmidt form, so the form cached from the true final vector goes too.
        for seed, run in _multi_term_runs():
            branches = run.final.reshape(run.dims).copy()  # column k is the branch of pointer outcome k
            branches[:, np.argmax(run.born)] *= np.sqrt(2.0)
            run.__dict__["final"] = (branches / np.linalg.norm(branches)).reshape(-1)
            del run.__dict__["schmidt"]
            _, _, deviation, _ = self.CHECK["entropy_ledger"].fn(run)
            assert deviation >= 1e3 * tol.THEOREM, seed

    def test_entanglement_incompatibility_final_sees_a_rotated_object(self):
        # An object unitary keeps the entanglement at H(p) but moves the object's outcome weights.
        for seed, run in _multi_term_runs():
            rotation = random_unitary(run.dims[0], np.random.default_rng(seed))
            run.__dict__["final"] = apply_on_factor(rotation, run.final, run.dims, 0)
            _, _, deviation, _ = self.CHECK["entanglement_incompatibility_final"].fn(run)
            assert deviation >= 1e3 * tol.THEOREM, seed

    def test_entanglement_incompatibility_initial_sees_another_initial_state(self):
        # The final vector came from the scenario's initial state, the incompatibility is read in another.
        for seed, run in _multi_term_runs():
            run.__dict__["psi"] = PureState(random_state_vector(run.dims[0], np.random.default_rng(seed)))
            _, _, deviation, _ = self.CHECK["entanglement_incompatibility_initial"].fn(run)
            assert deviation >= 1e3 * tol.THEOREM, seed


def _rotated_family(run, seed: int) -> StateTransformerSet:
    """The family A_k = U P_k of the run's observable, with a seeded unitary U: valid but not repeatable.

    Its blocks are B_k = U P_k V_k = U V_k, so B = U V.
    """
    rotation = random_unitary(run.dims[0], np.random.default_rng(seed))
    return StateTransformerSet(rotation @ run.obs.basis, run.obs)


class TestRepeatabilityAndReadingControls:
    """Checks that read the transformer family or the tripartite reading.

    Each flags a corrupted artefact, written into the run before the check reads it.
    """

    CHECK = TestReBasedFormControls.CHECK

    def test_repeatability_condition_sees_a_rotated_family(self):
        # U P_k passes every transformer check, but P_k U P_k != U P_k.
        for seed, run in _multi_term_runs():
            run.__dict__["ts"] = _rotated_family(run, seed)
            _, _, deviation, _ = self.CHECK["repeatability_condition"].fn(run)
            assert deviation >= 1e3 * tol.REPEATABILITY, seed

    def test_repeat_certainty_sees_a_rotated_family(self):
        # After U P_k the object no longer sits in eigenspace k, so a repetition can disagree.
        for seed, run in _multi_term_runs():
            run.__dict__["final"] = evolve(_rotated_family(run, seed), run.psi)
            _, _, deviation, _ = self.CHECK["repeat_certainty"].fn(run)
            assert deviation >= 1e3 * tol.REPEAT_CERTAINTY, seed

    @pytest.mark.parametrize("factor, control", [(0, 1), (1, 2), (2, 1)])
    def test_pointer_reading_marginals_sees_one_factor_rotated_in_each_branch(self, factor, control):
        # Another factor records the branch in an orthogonal basis, so a unitary on `factor` chosen by its
        # index makes that factor's branch vectors non-orthogonal: its entropy falls below H(p), and the
        # other two marginals keep the spectrum p.
        for seed, run in _multi_term_runs():
            tri, dims3 = run.reading
            t = np.moveaxis(tri.reshape(dims3), (factor, control), (0, 1)).copy()
            rng = np.random.default_rng(seed)
            for j in range(t.shape[1]):
                t[:, j] = random_unitary(t.shape[0], rng) @ t[:, j]
            rotated = np.moveaxis(t, (0, 1), (factor, control)).reshape(-1)
            run.__dict__["reading"] = (rotated, dims3)
            _, _, deviation, _ = self.CHECK["pointer_reading_marginals"].fn(run)
            # The gaps from the dense marginals' eigenvalues; the check takes singular values of the reading.
            gaps = [abs(von_neumann_entropy(pure_marginal(rotated, dims3, keep=m)) - run.h_born) for m in range(3)]
            assert abs(deviation - gaps[factor]) <= 1e-12 and gaps[factor] >= 1e3 * tol.THEOREM, seed
            assert max(gaps[:factor] + gaps[factor + 1 :]) < tol.THEOREM, seed

    def test_pointer_reading_marginals_sees_a_reweighted_reader_branch(self):
        # Doubling the weight of the reader's first outcome moves the reader's entropy away from H(p).
        for seed, run in _multi_term_runs():
            tri, dims3 = run.reading
            w = tri.reshape(-1, dims3[2]).copy()
            w[:, 0] *= np.sqrt(2.0)
            run.__dict__["reading"] = ((w / np.linalg.norm(w)).reshape(-1), dims3)
            _, _, deviation, _ = self.CHECK["pointer_reading_marginals"].fn(run)
            assert deviation >= 1e3 * tol.THEOREM, seed

    def test_pointer_reading_commutators_sees_a_rotated_object(self):
        # An object unitary leaves the pointer and reader as they were, but rho_12 loses its commutation with A.
        for seed, run in _multi_term_runs():
            tri, dims3 = run.reading
            rotation = random_unitary(dims3[0], np.random.default_rng(seed))
            run.__dict__["reading"] = (apply_on_factor(rotation, tri, dims3, 0), dims3)
            lhs, rhs, deviation, _ = self.CHECK["pointer_reading_commutators"].fn(run)
            assert min(lhs, deviation) >= 1e3 * tol.COMMUTATOR and rhs < tol.COMMUTATOR, seed

    def test_pointer_reading_commutators_sees_a_rotated_pointer(self):
        # A pointer unitary conjugates rho_12 on the pointer: [A ⊗ 1, rho_12] keeps its norm of 0, [1 ⊗ B, rho_12] does not.
        for seed, run in _multi_term_runs():
            tri, dims3 = run.reading
            rotation = random_unitary(dims3[1], np.random.default_rng(seed))
            run.__dict__["reading"] = (apply_on_factor(rotation, tri, dims3, 1), dims3)
            lhs, rhs, deviation, _ = self.CHECK["pointer_reading_commutators"].fn(run)
            assert min(rhs, deviation) >= 1e3 * tol.COMMUTATOR and lhs < tol.COMMUTATOR, seed


def test_a_six_outcome_run_makes_one_schmidt_svd_one_eigh_three_reading_svds_and_no_state_check(monkeypatch):
    # One SVD of the final vector's d × n matrix M for the Schmidt form (no Gram matrix M†M, no d × d
    # rho_1), and one eigh for the definite values (of L† N L); the repeatable family takes its
    # eigenspaces from the observable's basis. Three more SVDs, one per marginal of the reading, each of
    # the reading with that party as rows and its zero columns dropped, so none has a smaller side above
    # max(K, n3). The incompatibility entropies read branch weights, the entropy report reads the Schmidt
    # coefficients, and the commutator checks read the final vector's matrix, so no run takes an eigvalsh
    # or checks a density operator; W†W of the reading is the conjugate of the reader marginal, whose
    # spectrum is checked already. Repeat certainty reads the matrix of the A_k psi, so no
    # post-measurement PureState is built.
    seed = next(s for s in range(100) if generate_random_instance(s, 16, 6).observable.n_outcomes == 6)
    scenario = generate_random_instance(seed, 16, 6)
    eigh, eigvalsh, svd = np.linalg.eigh, np.linalg.eigvalsh, np.linalg.svd
    check, pure = DensityOperator.__post_init__, PureState.__post_init__
    eigh_shapes, eigvalsh_shapes, svd_shapes, density_checks, pure_states = [], [], [], [], []
    monkeypatch.setattr(np.linalg, "eigh", lambda m, *args: eigh_shapes.append(m.shape) or eigh(m, *args))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m, *args: eigvalsh_shapes.append(m.shape) or eigvalsh(m, *args))
    monkeypatch.setattr(np.linalg, "svd", lambda m, *args, **kw: svd_shapes.append(m.shape) or svd(m, *args, **kw))
    monkeypatch.setattr(DensityOperator, "__post_init__", lambda self: density_checks.append(1) or check(self))
    monkeypatch.setattr(PureState, "__post_init__", lambda self: pure_states.append(1) or pure(self))
    report = run_pipeline(scenario)
    monkeypatch.undo()
    assert report.overall_pass
    d, n, terms = scenario.observable.dim, scenario.observable.n_outcomes, len(report.schmidt_coefficients)
    n3 = int(np.count_nonzero(np.array(report.probabilities) > tol.DETECTABILITY))
    assert svd_shapes[0] == (d, n)
    assert len(svd_shapes) == 4 and max(min(shape) for shape in svd_shapes[1:]) <= max(n, n3)
    assert eigh_shapes == [(terms, terms)]
    assert eigvalsh_shapes == []
    assert density_checks == []
    assert pure_states == []


@pytest.mark.parametrize("rng_seed, s1", [(6, 1.3232), (7, 0.6297)])
def test_the_report_carries_the_born_entropy_as_shannon_pk(rng_seed, s1):
    # A_k = U_k P_k with one seeded unitary per outcome: the states A_k psi are not
    # orthogonal, so S1 < H(p), and a report that copied S1 into shannon_pk gave s1.
    scenario = generate_random_instance(1, 6, 3)
    obs = scenario.observable
    rng = np.random.default_rng(rng_seed)
    family = StateTransformerSet.from_transformers(tuple(random_unitary(obs.dim, rng) @ p for p in projectors(obs)), obs)
    report = run_pipeline(dataclasses.replace(scenario, transformers=family))
    assert report.entropies["shannon_pk"] == shannon_entropy(report.probabilities)
    assert report.entropies["shannon_pk"] == pytest.approx(1.4972, abs=1e-4)
    assert report.entropies["s1"] == pytest.approx(s1, abs=1e-4)
