"""Rewrite the golden reports from the reports this checkout writes.

    PYTHONPATH=src python tests/golden/regenerate.py [DIR]

It writes ``qmeasure run <scenario> --format json`` for each document in
``scenarios/`` to ``<name>.json``, and ``qmeasure batch --seeds 0..19
--d1-max 16 --outcomes-max 6 --format json`` to
``batch_seeds_0_19_d16_o6.json`` without each result's ``scenario`` block,
as ``tests/test_pipeline.py`` reads them. DIR defaults to this directory.
Run it only for a deliberate change of report bytes, and state the change.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from qmeasure.cli import main

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE.parent.parent / "scenarios"
CAMPAIGN = ["batch", "--seeds", "0..19", "--d1-max", "16", "--outcomes-max", "6", "--format", "json"]


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue()


def regenerate(target: Path) -> None:
    target.mkdir(parents=True, exist_ok=True)
    for path in sorted(SCENARIOS.glob("*.json")):
        (target / path.name).write_text(_stdout(["run", str(path), "--format", "json"]), encoding="utf-8")
    campaign = json.loads(_stdout(CAMPAIGN))
    for result in campaign["results"]:
        del result["scenario"]
    text = json.dumps(campaign, indent=2, sort_keys=True, allow_nan=False) + "\n"
    (target / "batch_seeds_0_19_d16_o6.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    regenerate(Path(sys.argv[1]) if len(sys.argv) > 1 else HERE)
