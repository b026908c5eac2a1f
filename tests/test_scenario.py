import json
import re
import tracemalloc

import numpy as np
import pytest

from qmeasure import (
    ParseError,
    ValidationError,
    generate_random_instance,
    make_repeatable_transformers,
    parse_scenario,
    repeatability_violation,
    report_to_json,
    run_pipeline,
    scenario_from_dict,
    validate_observable,
)
from qmeasure import tolerances as tol
from reference import classify_outcomes

MINIMAL = {
    "object_dim": 2,
    "observable": {"preset": "pauli_z"},
    "initial_state": {"amplitudes": [[1, 0], [0, 0]]},
    "instrument": {"kind": "ideal"},
}


def scenario_text(**overrides):
    doc = {**MINIMAL, **overrides}
    return json.dumps(doc)


class TestParseScenario:
    def test_minimal_scenario(self):
        sc = parse_scenario(scenario_text())
        assert sc.observable.dim == 2
        assert sc.observable.eigenvalues == (-1.0, 1.0)
        assert np.allclose(sc.initial_state.vector, [1.0, 0.0])
        assert sc.transformers.observable is sc.observable
        assert np.array_equal(sc.transformers.blocks, sc.observable.basis)  # the ideal family: B = V

    def test_explicit_matrix_and_presets(self):
        sc = parse_scenario(scenario_text(observable={"matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}))
        assert sc.observable.eigenvalues == (-1.0, 1.0)
        sc = parse_scenario(scenario_text(object_dim=3,
                                          observable={"preset": "diag", "values": [2, 2, 5]},
                                          initial_state={"preset": "uniform"}))
        assert sc.observable.eigenvalues == (2.0, 5.0)
        sc = parse_scenario(scenario_text(initial_state={"preset": "basis", "index": 1}))
        assert np.allclose(sc.initial_state.vector, [0.0, 1.0])

    def test_non_hermitian_matrix_names_the_invariant(self):
        text = scenario_text(observable={"matrix": [[[1, 0], [1, 0]], [[0, 0], [-1, 0]]]})
        with pytest.raises(ValidationError, match="hermiticity"):
            parse_scenario(text)

    def test_amplitudes_renormalized_within_window(self):
        amps = [[np.sqrt(0.3), 0.0], [np.sqrt(0.7), 0.0]]
        sc = parse_scenario(scenario_text(initial_state={"amplitudes": amps}))
        assert abs(np.linalg.norm(sc.initial_state.vector) - 1.0) < 1e-12
        nudged = [[np.sqrt(0.3) * (1 + 2e-7), 0.0], [np.sqrt(0.7), 0.0]]
        sc = parse_scenario(scenario_text(initial_state={"amplitudes": nudged}))
        assert abs(np.linalg.norm(sc.initial_state.vector) - 1.0) < 1e-12

    def test_amplitudes_outside_window_rejected(self):
        with pytest.raises(ValidationError, match="norm"):
            parse_scenario(scenario_text(initial_state={"amplitudes": [[1.01, 0.0], [0.0, 0.0]]}))

    def test_malformed_json(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_scenario("{not json")

    def test_structural_errors(self):
        with pytest.raises(ParseError, match="object_dim"):
            parse_scenario(json.dumps({**MINIMAL, "object_dim": "two"}))
        with pytest.raises(ParseError, match="unknown fields"):
            parse_scenario(json.dumps({**MINIMAL, "extra": 1}))
        with pytest.raises(ParseError, match="instrument.kind"):
            parse_scenario(scenario_text(instrument={"kind": "exotic"}))
        with pytest.raises(ParseError, match="re, im"):
            parse_scenario(scenario_text(initial_state={"amplitudes": [[1, 0, 0], [0, 0]]}))
        with pytest.raises(ParseError, match=re.escape("observable.matrix[1]: expected an array row")):
            parse_scenario(scenario_text(observable={"matrix": [[1, 0], 5]}))
        custom = {"kind": "custom", "transformers": [[[1, 0], [0, 0]], [[0, 0], 5]]}
        with pytest.raises(ParseError, match=re.escape("instrument.transformers[1][1]: expected an array row")):
            parse_scenario(scenario_text(instrument=custom))

    def test_dimension_validation(self):
        with pytest.raises(ValidationError, match="object_dim"):
            parse_scenario(scenario_text(object_dim=3))  # pauli preset needs dim 2
        with pytest.raises(ValidationError, match="amplitudes"):
            parse_scenario(scenario_text(initial_state={"amplitudes": [[1, 0]]}))

    def test_custom_transformers_validated_at_parse_time(self):
        bad = scenario_text(instrument={"kind": "custom", "transformers": [
            [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        ]})
        with pytest.raises(ValidationError):
            parse_scenario(bad)

    def test_transformer_off_its_eigenspace_is_rejected_at_parse(self):
        # A_1 = |0><0| + 1e-6 |0><1|: a component 1e3 × TRANSFORMER on eigenspace 0 (a = -1)
        leak = 1e3 * 1e-9
        doc = scenario_text(instrument={"kind": "custom", "transformers": [[[0, 0], [0, 1]], [[1, leak], [0, 0]]]})
        with pytest.raises(ValidationError, match="A_1 acts off eigenspace 1 beyond 1e-09"):
            parse_scenario(doc)

    def test_object_dim_beyond_the_size_budget_is_rejected_before_anything_is_built(self):
        # 16 · 4096² B for one complex d × d matrix; np.diag of the values alone would take that much
        doc = scenario_text(object_dim=4096, observable={"preset": "diag", "values": list(range(4096))})
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=r"object_dim 4096 needs 268435456 B .* budget of 134217728 B"):
                parse_scenario(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # 16 · 2896² B is within the budget, so the document is read on and fails on its values instead
        with pytest.raises(ValidationError, match="diag preset has 1 values for object_dim 2896"):
            parse_scenario(scenario_text(object_dim=2896, observable={"preset": "diag", "values": [1.0]}))
        with pytest.raises(ValidationError, match="object_dim 2897 needs 134281744 B"):
            parse_scenario(scenario_text(object_dim=2897))

    def test_the_parse_of_a_document_peaks_within_16_times_its_budgeted_matrix(self):
        # The budget counts one complex d × d matrix, 16·d² B. The parse peaks at about 14 times that
        # (14.2 here, at d = 122), mostly json.loads's [re, im] lists and the document the scenario keeps.
        scenario = generate_random_instance(292, 122, 4)
        d = scenario.observable.dim
        assert d == 122
        text = json.dumps(scenario.to_dict())
        tracemalloc.start()
        try:
            parse_scenario(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 16 * d**2

    def test_options(self):
        sc = parse_scenario(scenario_text(options={"tolerance": 1e-6, "verbosity": "verbose"}))
        assert sc.tolerance == 1e-6 and sc.verbosity == "verbose"
        with pytest.raises(ParseError, match="verbosity"):
            parse_scenario(scenario_text(options={"verbosity": "loud"}))

    # bool is a subclass of int in Python: each field below once read true as 1.
    def test_boolean_tolerance_is_not_a_number(self):
        with pytest.raises(ParseError, match="options.tolerance"):
            parse_scenario(scenario_text(options={"tolerance": True}))

    def test_boolean_seed_is_not_an_integer(self):
        with pytest.raises(ParseError, match="instrument.seed"):
            parse_scenario(scenario_text(instrument={"kind": "repeatable", "seed": True}))

    # numpy's default_rng raises ValueError on a negative seed, so parsing rejects it first.
    def test_negative_seed_is_rejected_at_parse(self):
        with pytest.raises(ParseError, match=re.escape("instrument.seed: expected an integer >= 0")):
            parse_scenario(scenario_text(instrument={"kind": "repeatable", "seed": -1}))
        sc = parse_scenario(scenario_text(instrument={"kind": "repeatable", "seed": 0}))
        assert np.array_equal(sc.transformers.blocks, make_repeatable_transformers(sc.observable, 0).blocks)

    # A misspelled option would leave the default tolerances in force without a word.
    @pytest.mark.parametrize("options", [{"tolerence": 0}, {"tolerance": 1e-6, "verbose": True}])
    def test_unknown_option_is_rejected(self, options):
        with pytest.raises(ParseError, match=re.escape("options: unknown fields")):
            parse_scenario(scenario_text(options=options))

    # Each block takes the fields of its own form and rejects every other one: a misspelled key, and a field
    # that only another form of the block reads (tests/test_cli.py).
    @pytest.mark.parametrize(
        "block, spec",
        [
            ("observable", {"preset": "pauli_z", "valuse": [1, -1]}),
            ("observable", {"matrix": [[1, 0], [0, -1]], "comment": "z"}),
            ("initial_state", {"amplitudes": [1, 0], "norm": 1}),
            ("instrument", {"kind": "custom", "transformers": [[[1, 0], [0, 0]]], "seeds": 1}),
        ],
    )
    def test_unknown_block_field_is_rejected(self, block, spec):
        with pytest.raises(ParseError, match=re.escape(f"{block}: unknown fields [")):
            parse_scenario(scenario_text(**{block: spec}))

    # A preset that is the name of a data form is no preset, and a block of no form takes its forms' fields,
    # so the error names what is missing.
    @pytest.mark.parametrize(
        "block, spec, message",
        [
            ("observable", {"preset": "matrix"}, "observable: need a 'matrix' or a preset"),
            ("initial_state", {"preset": "amplitudes"}, "initial_state: need 'amplitudes' or a preset"),
            ("observable", {"preset": "pauli_w", "values": [1, -1]}, "observable: need a 'matrix' or a preset"),
            ("instrument", {"kind": "ideal_", "seed": 1, "transformers": []}, "instrument.kind: expected"),
        ],
    )
    def test_block_of_no_form_names_the_missing_form(self, block, spec, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_scenario(scenario_text(**{block: spec}))

    @pytest.mark.parametrize("block", ["observable", "initial_state", "instrument"])
    @pytest.mark.parametrize("spec", [None, [], "pauli_z", 2])
    def test_block_that_is_not_an_object_is_rejected(self, block, spec):
        with pytest.raises(ParseError, match=re.escape(f"{block}: expected an object")):
            parse_scenario(scenario_text(**{block: spec}))

    # Only null or an absent field means no options; [] or false is not an object.
    @pytest.mark.parametrize("options", [[], False, 0, ""])
    def test_options_that_are_not_an_object_are_rejected(self, options):
        with pytest.raises(ParseError, match="options: expected an object"):
            parse_scenario(scenario_text(options=options))
        assert parse_scenario(scenario_text(options=None)).tolerance is None

    @pytest.mark.parametrize("entry", [True, [True, 0], [0, False]])
    def test_boolean_complex_entry_is_not_a_number(self, entry):
        with pytest.raises(ParseError, match="re, im"):
            parse_scenario(scenario_text(initial_state={"amplitudes": [entry, [0, 0]]}))

    # json.loads reads NaN, Infinity and -Infinity, and integers of any length.
    @pytest.mark.parametrize(
        "token", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400], ids=["nan", "inf", "-inf", "400-digit"]
    )
    @pytest.mark.parametrize(
        "template, where",
        [
            pytest.param('"initial_state": {"amplitudes": [X, 0]}', "initial_state.amplitudes[0]", id="amplitude"),
            pytest.param('"initial_state": {"amplitudes": [[1, X], 0]}', "initial_state.amplitudes[0]", id="pair"),
            pytest.param('"observable": {"matrix": [[X, 0], [0, -1]]}', "observable.matrix[0][0]", id="matrix"),
            pytest.param('"observable": {"preset": "diag", "values": [X, 2]}', "observable.values", id="diag"),
            pytest.param(
                '"instrument": {"kind": "custom", "transformers": [[[X, 0], [0, 0]], [[0, 0], [0, 1]]]}',
                "instrument.transformers[0][0][0]",
                id="transformer",
            ),
        ],
    )
    def test_number_that_is_not_a_finite_float_is_rejected(self, token, template, where):
        doc = {**MINIMAL}
        del doc[template.split('"')[1]]
        text = json.dumps(doc)[:-1] + ", " + template.replace("X", token) + "}"
        with pytest.raises(ParseError) as excinfo:
            parse_scenario(text)
        assert where in str(excinfo.value)

    def test_boolean_diag_value_and_basis_index(self):
        with pytest.raises(ParseError, match="observable.values"):
            parse_scenario(scenario_text(observable={"preset": "diag", "values": [True, 2]}))
        with pytest.raises(ValidationError, match="basis index"):
            parse_scenario(scenario_text(initial_state={"preset": "basis", "index": True}))

    @pytest.mark.parametrize("tolerance", ["-1e-9", "NaN", "Infinity", "1" + "0" * 400])
    def test_tolerance_must_be_finite_and_non_negative(self, tolerance):
        text = scenario_text(options={"tolerance": 0}).replace('"tolerance": 0', f'"tolerance": {tolerance}')
        with pytest.raises(ValidationError, match="options.tolerance"):
            parse_scenario(text)


class TestGenerateRandomInstance:
    def test_deterministic(self):
        first = generate_random_instance(0, 6, 4)
        second = generate_random_instance(0, 6, 4)
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(second.to_dict(), sort_keys=True)

    def test_generated_observable_is_valid(self):
        for seed in range(20):
            sc = generate_random_instance(seed, 5, 3)
            validate_observable(sc.observable)
            assert abs(np.linalg.norm(sc.initial_state.vector) - 1.0) < 1e-10
            assert 2 <= sc.observable.dim <= 5
            assert repeatability_violation(sc.transformers) <= tol.REPEATABILITY

    def test_detectable_outcome_counts_cover_range(self):
        counts = set()
        for seed in range(1000):
            sc = generate_random_instance(seed, 4, 4)
            detectable, _ = classify_outcomes(sc.observable, sc.initial_state)
            counts.add(len(detectable))
        assert counts >= {1, 2, 3, 4}

    def test_round_trips_through_parser(self):
        sc = generate_random_instance(42, 5, 3)
        parsed = parse_scenario(json.dumps(sc.to_dict()))
        assert parsed.observable.dim == sc.observable.dim
        assert np.allclose(parsed.observable.matrix(), sc.observable.matrix(), atol=1e-12)
        assert np.allclose(parsed.initial_state.vector, sc.initial_state.vector, atol=1e-12)

    # Generation reads the document it writes with parse's reader; a family or state of its own would pass
    # every other test, while batch and `run` on the same document computed different numbers.
    @pytest.mark.parametrize("d1_max, outcomes_max", [(6, 4), (16, 6)])
    def test_parse_builds_the_generated_family(self, d1_max, outcomes_max):
        for seed in range(20):
            sc = generate_random_instance(seed, d1_max, outcomes_max)
            parsed = parse_scenario(json.dumps(sc.to_dict()))
            assert np.array_equal(parsed.transformers.blocks, sc.transformers.blocks), seed
            # Generation renormalises the amplitudes it writes by parsing's rule.
            assert np.array_equal(parsed.initial_state.vector, sc.initial_state.vector), seed

    # A report echoes its document as the record of its run: the document must reproduce the report.
    @pytest.mark.parametrize("d1_max, outcomes_max, seeds", [(6, 4, 100), (16, 6, 100), (64, 12, 10)])
    def test_the_echoed_document_reproduces_the_report(self, d1_max, outcomes_max, seeds):
        for seed in range(seeds):
            sc = generate_random_instance(seed, d1_max, outcomes_max)
            echoed = scenario_from_dict(sc.source)
            assert report_to_json(run_pipeline(echoed)) == report_to_json(run_pipeline(sc)), seed

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            generate_random_instance(0, 1, 2)
        with pytest.raises(ValueError):
            generate_random_instance(0, 4, 5)

    def test_bounds_beyond_the_size_budget_are_rejected(self):
        with pytest.raises(ValueError, match=r"480000000000 B .* budget of 134217728 B"):
            generate_random_instance(0, 100000, 3)
        with pytest.raises(ValueError, match="budget"):
            generate_random_instance(0, 512, 33)

    def test_the_largest_sweep_point_still_builds(self):
        assert generate_random_instance(0, 512, 32).observable.dim == 436
