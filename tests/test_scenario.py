import json

import numpy as np
import pytest

from qmeasure import (
    ParseError,
    ValidationError,
    classify_outcomes,
    generate_random_instance,
    parse_scenario,
    validate_observable,
)

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
        assert sc.object_dim == 2
        assert sc.observable.eigenvalues == (-1.0, 1.0)
        assert np.allclose(sc.initial_state.vector, [1.0, 0.0])
        assert sc.instrument.kind == "ideal"

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

    @pytest.mark.parametrize("entry", [True, [True, 0], [0, False]])
    def test_boolean_complex_entry_is_not_a_number(self, entry):
        with pytest.raises(ParseError, match="re, im"):
            parse_scenario(scenario_text(initial_state={"amplitudes": [entry, [0, 0]]}))

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
            assert 2 <= sc.object_dim <= 5
            assert sc.instrument.kind == "repeatable"

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
        assert parsed.object_dim == sc.object_dim
        assert parsed.instrument.seed == sc.instrument.seed
        assert np.allclose(parsed.observable.matrix(), sc.observable.matrix(), atol=1e-12)
        assert np.allclose(parsed.initial_state.vector, sc.initial_state.vector, atol=1e-12)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            generate_random_instance(0, 1, 2)
        with pytest.raises(ValueError):
            generate_random_instance(0, 4, 5)
