"""The tables of README.md against the program's own tables.

The table under "How a run is organised" lists one row per verdict. Its
labels must be those of ``pipeline.CHECKS`` in report order, and each row
must name the tolerance constant, with its value, that the check returns.
The table under "Scenario files" lists the forms of each block with the
fields they read; one entry per form name, it must be ``scenario._FORMS``.
"""

import inspect
import re
from pathlib import Path

from qmeasure import load_scenario
from qmeasure import pipeline as pipeline_module
from qmeasure import scenario as scenario_module
from qmeasure import tolerances as tol

README = Path(__file__).resolve().parent.parent / "README.md"
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
ROW = re.compile(r"^\| `(?P<label>[a-z_]+)` \|.*\| `(?P<name>[A-Z_]+)` (?P<value>[0-9.e+-]+) \|$")
FORM_ROW = re.compile(r"^\| `(?P<block>[a-z_]+)` \| (?P<forms>[`a-z_, ]+) \| (?P<fields>[`a-z_, ]+) \|$")


def table_lines(heading: str) -> list[str]:
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("| `")]


def check_table() -> list[re.Match]:
    return [ROW.match(line) for line in table_lines("How a run is organised")]


def names(cell: str) -> list[str]:
    return [name.strip("`") for name in cell.split(", ")]


def test_rows_are_the_checks_in_report_order():
    rows = check_table()
    assert all(rows), [line for line, row in zip(README.read_text().splitlines(), rows) if not row]
    assert [row["label"] for row in rows] == [check.label for check in pipeline_module.CHECKS]


def test_each_row_names_the_tolerance_its_check_returns():
    # Several constants share a value, so the name is read from the check's source;
    # a passing run then shows that the check returns that constant.
    run = pipeline_module._Run(load_scenario(str(SCENARIOS / "ideal_z_uniform.json")))
    for row, check in zip(check_table(), pipeline_module.CHECKS):
        assert set(re.findall(r"tol\.([A-Z_]+)", inspect.getsource(check.fn))) == {row["name"]}, check.label
        assert check.fn(run)[3] == getattr(tol, row["name"]) == float(row["value"]), check.label


def test_form_rows_are_the_parsers_forms():
    lines = table_lines("Scenario files")
    rows = [FORM_ROW.match(line) for line in lines]
    assert all(rows), [line for line, row in zip(lines, rows) if not row]
    forms = [(row["block"], form, set(names(row["fields"]))) for row in rows for form in names(row["forms"])]
    assert len({(block, form) for block, form, _ in forms}) == len(forms)  # no form is listed twice
    table = {}
    for block, form, fields in forms:
        table.setdefault(block, {})[form] = fields
    assert table == scenario_module._FORMS
