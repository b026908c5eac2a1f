import contextlib
import copy
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from qmeasure import StateTransformerSet, cli

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_cli(*args) -> int:
    return cli.main([str(a) for a in args])


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity, which are not JSON (RFC 8259, section 6)."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


class TestRunCommand:
    def test_passing_scenario_exits_zero(self, capsys):
        code = run_cli("run", SCENARIOS / "ideal_z_uniform.json")
        out = capsys.readouterr().out
        assert code == 0
        assert "overall: PASS" in out

    def test_json_reports_are_byte_stable(self, tmp_path):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        for target in (first, second):
            assert run_cli("run", SCENARIOS / "ideal_z_unbalanced.json", "--format", "json", "--out", target) == 0
        assert first.read_bytes() == second.read_bytes()
        doc = json.loads(first.read_text())
        assert doc["overall_pass"] is True
        assert "duration_seconds" not in doc

    def test_failing_scenario_exits_one(self, capsys):
        code = run_cli("run", SCENARIOS / "swap_nonrepeatable.json")
        out = capsys.readouterr().out
        assert code == 1
        assert "overall: FAIL" in out
        assert "not applicable" in out

    def test_invalid_scenario_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert run_cli("run", bad) == 2
        assert "invalid scenario" in capsys.readouterr().err
        missing = tmp_path / "missing.json"
        assert run_cli("run", missing) == 2

    def test_validation_error_exits_two(self, tmp_path, capsys):
        doc = {
            "object_dim": 2,
            "observable": {"matrix": [[[1, 0], [1, 0]], [[0, 0], [-1, 0]]]},
            "initial_state": {"preset": "uniform"},
            "instrument": {"kind": "ideal"},
        }
        path = tmp_path / "nonhermitian.json"
        path.write_text(json.dumps(doc))
        assert run_cli("run", path) == 2
        assert "hermiticity" in capsys.readouterr().err

    def test_internal_error_exits_three(self, tmp_path, monkeypatch, capsys):
        from qmeasure import pipeline as pipeline_module
        from qmeasure.errors import NoDefiniteValue

        def explode(*args, **kwargs):
            raise NoDefiniteValue("synthetic failure")

        monkeypatch.setattr(pipeline_module, "schmidt_decompose", explode)
        code = run_cli("run", SCENARIOS / "ideal_z_uniform.json")
        out = capsys.readouterr().out
        assert code == 3
        assert "schmidt: NoDefiniteValue" in out

    def test_no_aligned_schmidt_form_exits_one(self, capsys):
        # SWAP passes the repeatability verdict under this override, and definite_values
        # then finds that no Schmidt term pairs with a joint spectral term.
        assert run_cli("run", SCENARIOS / "swap_nonrepeatable.json", "--tolerance", "2") == 1
        assert "error: definite_values: NoDefiniteValue" in capsys.readouterr().out

    def test_tolerance_flag_overrides_scenario(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("run", SCENARIOS / "ideal_z_uniform.json", "--format", "json",
                       "--tolerance", "0.25", "--out", out) == 0
        doc = json.loads(out.read_text())
        assert all(v["tolerance"] == 0.25 for v in doc["verdicts"])

    @pytest.mark.parametrize("tolerance", ["nan", "-1"])
    def test_tolerance_that_cannot_decide_exits_two(self, tolerance, capsys):
        assert run_cli("run", SCENARIOS / "ideal_z_uniform.json", "--tolerance", tolerance) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--tolerance" in captured.err

    @pytest.mark.parametrize(
        "change, where",
        [
            ({"instrument": {"kind": "repeatable", "seed": -1}}, "instrument.seed"),
            ({"options": {"tolerence": 0}}, "options: unknown fields"),
            ({"observable": {"preset": ["pauli_z"]}}, "observable: need a 'matrix' or a preset"),
            ({"observable": {"preset": {"name": "pauli_z"}}}, "observable: need a 'matrix' or a preset"),
        ],
        ids=["negative-seed", "misspelled-option", "array-preset", "object-preset"],
    )
    def test_rejected_document_exits_two_without_a_traceback(self, tmp_path, change, where):
        doc = {
            "object_dim": 2,
            "observable": {"preset": "pauli_z"},
            "initial_state": {"preset": "uniform"},
            "instrument": {"kind": "ideal"},
            **change,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run(
            [sys.executable, "-m", "qmeasure", "run", str(path)], capture_output=True, text=True, env=env
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.count("\n") == 1 and where in done.stderr
        assert "Traceback" not in done.stderr

    def test_out_into_a_missing_directory_exits_two(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        assert run_cli("run", SCENARIOS / "ideal_z_uniform.json", "--out", target) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot write report" in err
        assert run_cli("batch", "--seeds", "0..1", "--out", target) == 2
        assert not target.parent.exists()

    @pytest.mark.parametrize("amplitude", ["NaN", "1" + "0" * 400], ids=["nan", "400-digit"])
    def test_amplitude_that_is_not_a_finite_float_exits_two(self, amplitude, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(
            '{"object_dim": 2, "observable": {"preset": "pauli_z"}, "instrument": {"kind": "ideal"},'
            f' "initial_state": {{"amplitudes": [{amplitude}, 0]}}}}'
        )
        assert run_cli("run", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "initial_state.amplitudes[0]" in captured.err

    @pytest.mark.parametrize("value", ["1" * 5000, "[" * 5000 + "]" * 5000], ids=["5000-digit", "5000-deep"])
    def test_json_beyond_the_decoder_limits_exits_two(self, value, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(
            '{"object_dim": 2, "observable": {"preset": "pauli_z"}, "initial_state": {"preset": "uniform"},'
            f' "instrument": {{"kind": "ideal"}}, "options": {{"tolerance": {value}}}}}'
        )
        assert run_cli("run", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "invalid scenario: invalid JSON: " in captured.err

    def test_scenario_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_bytes(b'{"object_dim": 2, "observable": {"preset": "pauli_z"}\xff}')
        assert run_cli("run", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("invalid scenario: not UTF-8 text: ")
        assert "0xff" in captured.err

    def test_tolerance_override_also_decides_repeatability(self, capsys):
        # The repeatability verdict passes under the override, so the checks that
        # presume a repeatable instrument run (and fail) rather than being skipped.
        assert run_cli("run", SCENARIOS / "swap_nonrepeatable.json", "--tolerance", "2") != 0
        out = capsys.readouterr().out
        assert "overall: FAIL" in out
        assert "not applicable" not in out

    def test_custom_instrument_is_checked_once(self, tmp_path, monkeypatch):
        # The parser keeps the family it checked; the pipeline does not build it again.
        calls = []
        check = StateTransformerSet.__post_init__
        monkeypatch.setattr(StateTransformerSet, "__post_init__", lambda ts: calls.append(1) or check(ts))
        out = tmp_path / "swap.json"
        assert run_cli("run", SCENARIOS / "swap_nonrepeatable.json", "--format", "json", "--out", out) == 1
        assert len(calls) == 1

    def test_document_beyond_the_size_budget_exits_two(self, tmp_path, capsys):
        doc = {
            "object_dim": 4096,
            "observable": {"preset": "diag", "values": list(range(4096))},
            "initial_state": {"preset": "uniform"},
            "instrument": {"kind": "ideal"},
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert run_cli("run", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "268435456 B" in captured.err and "budget" in captured.err

    def test_transformer_off_its_eigenspace_exits_two(self, tmp_path, capsys):
        # Z in ascending order: A_0 = |1><1| and A_1 = |0><0|, plus 1e-6 |0><1| in A_1 (1e3 × TRANSFORMER)
        doc = json.loads((SCENARIOS / "ideal_z_uniform.json").read_text())
        doc["instrument"] = {"kind": "custom", "transformers": [[[0, 0], [0, 1]], [[1, 1e-6], [0, 0]]]}
        path = tmp_path / "leak.json"
        path.write_text(json.dumps(doc))
        assert run_cli("run", path) == 2
        assert "A_1 acts off eigenspace 1" in capsys.readouterr().err

    def test_consecutive_calls_give_the_same_bytes(self, capsys):
        argv = ["run", SCENARIOS / "repeatable_degenerate.json", "--format", "json"]
        assert run_cli(*argv) == 0
        first = capsys.readouterr().out
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == first
        assert cli.build_parser() is cli.build_parser()

    def test_an_argparse_error_leaves_the_next_call_working(self, capsys):
        argv = ["run", SCENARIOS / "ideal_z_uniform.json", "--format"]
        assert run_cli(*argv, "json") == 0
        expected = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "xml")
        assert exc.value.code == 2
        assert "invalid choice: 'xml'" in capsys.readouterr().err
        assert run_cli(*argv, "json") == 0
        assert capsys.readouterr().out == expected

    def test_include_timing_flag(self, tmp_path):
        out = tmp_path / "timed.json"
        assert run_cli("run", SCENARIOS / "ideal_z_uniform.json", "--format", "json",
                       "--include-timing", "--out", out) == 0
        assert "duration_seconds" in json.loads(out.read_text())


    # A misspelled key once left the default in force and was echoed into the report's scenario block.
    @pytest.mark.parametrize(
        "block, spec, key",
        [
            ("observable", {"preset": "diag", "values": [1, 2], "value": [1, 2]}, "value"),
            ("initial_state", {"preset": "uniform", "indx": 1}, "indx"),
            ("instrument", {"kind": "ideal", "sead": 3}, "sead"),
        ],
    )
    def test_misspelled_block_key_exits_two_with_one_line(self, tmp_path, capsys, block, spec, key):
        doc = {
            "object_dim": 2,
            "observable": {"preset": "pauli_z"},
            "initial_state": {"preset": "uniform"},
            "instrument": {"kind": "ideal"},
            block: spec,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert run_cli("run", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid scenario: {block}: unknown fields ['{key}']\n"

    # A field of another form of the same block once ran unread and was echoed into the report.
    @pytest.mark.parametrize(
        "block, spec, keys",
        [
            ("instrument", {"kind": "ideal", "seed": 3}, ["seed"]),
            ("observable", {"preset": "pauli_z", "values": [1, 2]}, ["values"]),
            ("initial_state", {"preset": "uniform", "index": 0}, ["index"]),
            ("initial_state", {"amplitudes": [[0.6, 0], [0.8, 0]], "preset": "basis", "index": 0}, ["index", "preset"]),
            ("observable", {"matrix": [[1, 0], [0, -1]], "preset": "diag", "values": [1, -1]}, ["preset", "values"]),
            ("instrument", {"kind": "custom", "seed": 1, "transformers": [[[0, 0], [0, 1]], [[1, 0], [0, 0]]]}, ["seed"]),
        ],
    )
    def test_field_of_another_form_exits_two_with_one_line(self, tmp_path, capsys, block, spec, keys):
        doc = {
            "object_dim": 2,
            "observable": {"preset": "pauli_z"},
            "initial_state": {"preset": "uniform"},
            "instrument": {"kind": "ideal"},
            block: spec,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert run_cli("run", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid scenario: {block}: unknown fields {keys}\n"
        for key in keys:  # the block without them is a valid document of its form
            del spec[key]
        path.write_text(json.dumps(doc))
        assert run_cli("run", path) == 0

    def test_an_overflowing_commutator_norm_is_written_as_valid_json(self, tmp_path, capsys):
        # An eigenvalue of 1e160 overflows the initial commutator norm to inf, once written as a bare Infinity.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "object_dim": 2,
            "observable": {"preset": "diag", "values": [0, 1e160]},
            "initial_state": {"preset": "uniform"},
            "instrument": {"kind": "ideal"},
        }))
        assert run_cli("run", path, "--format", "json") == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["schema"] == 2 and doc["overall_pass"] is True
        assert doc["initial_commutator_norm"] == "Infinity"

    def test_text_reports_are_byte_stable_and_timed_only_on_request(self, capsys):
        runs = []
        for flags in ((), (), ("--include-timing",)):
            assert run_cli("run", SCENARIOS / "swap_nonrepeatable.json", "--tolerance", "2", *flags) == 1
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]
        assert "duration:" not in runs[0]
        *body, last = runs[2].splitlines()
        assert last.startswith("duration: ") and "\n".join(body) + "\n" == runs[0]


class TestBatchCommand:
    def test_small_campaign_passes(self, capsys):
        code = run_cli("batch", "--seeds", "0..7", "--d1-max", "4", "--outcomes-max", "3")
        out = capsys.readouterr().out
        assert code == 0
        assert "8 scenarios, 8 passed" in out

    def test_json_campaign(self, tmp_path):
        out = tmp_path / "campaign.json"
        code = run_cli("batch", "--seeds", "0..3", "--d1-max", "4", "--outcomes-max", "3",
                       "--format", "json", "--out", out)
        assert code == 0
        doc = strict_json(out.read_text())
        assert doc["schema"] == 2 and doc["campaign"]["total"] == 4
        assert [entry["seed"] for entry in doc["results"]] == [0, 1, 2, 3]
        assert not any("schema" in entry for entry in doc["results"])
        assert all(entry["overall_pass"] for entry in doc["results"])

    @pytest.mark.parametrize("target, code", [("verify_definite_values", 1), ("schmidt_decompose", 3)])
    def test_a_halted_run_sets_the_campaign_exit_code(self, target, code, tmp_path, monkeypatch):
        from qmeasure import pipeline as pipeline_module
        from qmeasure.errors import NoDefiniteValue

        def explode(*args, **kwargs):
            raise NoDefiniteValue("synthetic failure")

        monkeypatch.setattr(pipeline_module, target, explode)
        out = tmp_path / "campaign.json"
        assert run_cli("batch", "--seeds", "0..1", "--format", "json", "--out", out) == code
        assert json.loads(out.read_text())["campaign"]["errored_seeds"] == [0, 1]

    def test_text_campaign_memory_does_not_grow_with_its_seeds(self):
        # A text campaign keeps its lines, not its reports, so its peak is that of its largest run.
        def peak(seeds: str) -> int:
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert run_cli("batch", "--seeds", seeds, "--d1-max", "64", "--outcomes-max", "12") == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak("0..0")  # warm-up: first-call caches and imports
        assert peak("0..39") <= 1.5 * peak("0..4")

    def test_bad_seed_range_exits_two(self, capsys):
        assert run_cli("batch", "--seeds", "nope") == 2
        assert "A..B" in capsys.readouterr().err

    def test_bad_bounds_exit_two(self, capsys):
        assert run_cli("batch", "--seeds", "0..1", "--d1-max", "2", "--outcomes-max", "4") == 2

    def test_negative_seed_bound_exits_two(self, capsys):
        assert run_cli("batch", "--seeds=-3..-1") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--seeds" in err

    def test_campaign_beyond_the_size_budget_exits_two_before_drawing(self, monkeypatch, capsys):
        from qmeasure import scenario as scenario_module

        def never(*args, **kwargs):
            raise AssertionError("drew a scenario beyond the size budget")

        monkeypatch.setattr(scenario_module, "random_unitary", never)
        monkeypatch.setattr(scenario_module.np.random, "default_rng", never)
        assert run_cli("batch", "--seeds=0..1", "--d1-max", "100000", "--outcomes-max", "3") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "budget" in captured.err


# Replacements for one node of a document: JSON's other types, the non-finite and out-of-range numbers
# (1e400 reads as inf), a string, and empty and nested arrays and objects.
FUZZ_VALUES = (True, False, None, math.nan, math.inf, 10**400, "pauli_z", [], {}, [[0, 1], []], {"a": {"b": []}})
CUSTOM_DOCUMENT = {
    "object_dim": 2,
    "observable": {"matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]},
    "initial_state": {"amplitudes": [[0.6, 0], [0, 0.8]]},
    # ascending eigenvalues: A_0 keeps |1> (eigenvalue -1), A_1 keeps |0>
    "instrument": {"kind": "custom", "transformers": [[[0, 0], [0, 1]], [[1, 0], [0, 0]]]},
    "options": {"tolerance": 1e-9, "verbosity": "verbose"},
}


def _nodes(doc, found):
    """Every (container, key) pair under doc."""
    for key in range(len(doc)) if isinstance(doc, list) else list(doc):
        found.append((doc, key))
        if isinstance(doc[key], (list, dict)):
            _nodes(doc[key], found)
    return found


def _mutant(doc, rng: random.Random):
    """doc with one node swapped for a FUZZ_VALUES entry, one object key dropped, or one key added."""
    doc = copy.deepcopy(doc)
    nodes = _nodes(doc, [])
    roll = rng.random()
    if roll < 0.7:
        parent, key = rng.choice(nodes)
        parent[key] = copy.deepcopy(rng.choice(FUZZ_VALUES))
        return doc
    objects = [doc] + [parent[key] for parent, key in nodes if isinstance(parent[key], dict)]
    target = rng.choice(objects)
    if roll < 0.85 and target:
        del target[rng.choice(list(target))]
    else:
        target[rng.choice(("extra", "preset", "matrix", "seed", "index"))] = copy.deepcopy(rng.choice(FUZZ_VALUES))
    return doc


def test_fuzzed_documents_never_escape_as_a_traceback(tmp_path, capsys):
    rng = random.Random(4)
    originals = [json.loads(path.read_text()) for path in sorted(SCENARIOS.glob("*.json"))] + [CUSTOM_DOCUMENT]
    path = tmp_path / "mutant.json"
    codes = Counter()
    for i in range(600):
        doc = _mutant(originals[i % len(originals)], rng)
        path.write_text(json.dumps(doc))
        code = run_cli("run", path, "--format", "json")
        captured = capsys.readouterr()
        codes[code] += 1
        assert code in (0, 1, 2, 3), doc
        if code == 2:
            assert captured.out == "" and captured.err.count("\n") == 1, (doc, captured.err)
        else:
            assert isinstance(strict_json(captured.out)["overall_pass"], bool), doc
    assert codes[0] > 0  # some mutants still reach the pipeline and pass
