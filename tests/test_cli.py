import json
from pathlib import Path

import pytest

from qmeasure import cli

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_cli(*args) -> int:
    return cli.main([str(a) for a in args])


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

    def test_out_into_a_missing_directory_exits_two(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        assert run_cli("run", SCENARIOS / "ideal_z_uniform.json", "--out", target) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot write report" in err
        assert run_cli("batch", "--seeds", "0..1", "--out", target) == 2
        assert not target.parent.exists()

    def test_include_timing_flag(self, tmp_path):
        out = tmp_path / "timed.json"
        assert run_cli("run", SCENARIOS / "ideal_z_uniform.json", "--format", "json",
                       "--include-timing", "--out", out) == 0
        assert "duration_seconds" in json.loads(out.read_text())


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
        doc = json.loads(out.read_text())
        assert doc["campaign"]["total"] == 4
        assert [entry["seed"] for entry in doc["results"]] == [0, 1, 2, 3]
        assert all(entry["overall_pass"] for entry in doc["results"])

    def test_bad_seed_range_exits_two(self, capsys):
        assert run_cli("batch", "--seeds", "nope") == 2
        assert "A..B" in capsys.readouterr().err

    def test_bad_bounds_exit_two(self, capsys):
        assert run_cli("batch", "--seeds", "0..1", "--d1-max", "2", "--outcomes-max", "4") == 2
