"""The report encoder writes exactly the bytes of ``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)``.

``pipeline._json_text`` writes runs of numbers and of scalars in one call
each and leaves anything unusual to json.dumps. It is compared with
json.dumps on seeded random trees (stdlib ``random``), on every report of
seeded batches and committed scenarios, on the ``batch --format json``
campaign documents, and on inputs that json.dumps rejects (a NaN or ±inf
anywhere among them), which must raise the same exception type.
"""

import io
import json
import math
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from qmeasure import generate_random_instance, load_scenario, report_to_dict, report_to_json, run_pipeline
from qmeasure.cli import main
from qmeasure.pipeline import _json_text

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-308,
    1e16, 1e16 + 2, 9999999999999998.0, -1e16, 1e17, 0.0001, 0.00009999, 0.000100001, -0.0001, 1e-5,
    0.1, 1 / 3, 1.7976931348623157e308, 123456789.125,
]
INTS = [0, 1, -1, 2**53 + 1, 2**63, -(2**63) - 1, 2**64 + 3, 10**30]
STRINGS = ["", "plain", "ünïcödé", "日本", "tab\there", 'quote"back\\slash', "new\nline", "\x00\x1f", "😀", "},\n    {"]


def _float(rng: random.Random) -> float:
    if rng.random() < 0.3:
        return rng.choice(FLOATS)
    return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 300)


def _number(rng: random.Random):
    return rng.choice(INTS) if rng.random() < 0.2 else _float(rng)


def _scalar(rng: random.Random):
    return rng.choice(
        [lambda: _number(rng), lambda: rng.choice(STRINGS), lambda: rng.choice([True, False, None]),
         lambda: np.float64(_float(rng))]
    )()


def _array(rng: random.Random, shape: list[int]):
    """A regular nested list of numbers, now and then with one odd leaf."""
    if len(shape) == 1:
        leaves = [_number(rng) for _ in range(shape[0])]
        if rng.random() < 0.2:
            leaves[rng.randrange(shape[0])] = rng.choice([math.nan, True, None, np.float64(0.5), "x", 2**70])
        return leaves
    return [_array(rng, shape[1:]) for _ in range(shape[0])]


def _tree(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth > 3 or roll < 0.25:
        return _scalar(rng)
    if roll < 0.45:
        return _array(rng, [rng.randint(1, 4) for _ in range(rng.randint(1, 4))])
    if roll < 0.55:
        keys = rng.sample(["label", "lhs", "rhs", "deviation", "passed", "ü", "a\nb"], rng.randint(0, 4))
        return [{key: _scalar(rng) for key in keys} for _ in range(rng.randint(0, 4))]
    if roll < 0.65:
        return rng.choice([[], {}, (), [[]], [{}], [[1.0], [2.0, 3.0]], [[1.0, 2.0], 3.0], [1, [2, [3]]]])
    if roll < 0.8:
        items = [_tree(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        return tuple(items) if rng.random() < 0.2 else items
    keys = [rng.choice(STRINGS) + str(rng.randint(0, 99)) for _ in range(rng.randint(0, 5))]
    return {key: _tree(rng, depth + 1) for key in keys}


def _expected(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def _written_alike(doc) -> bool:
    """Assert that _json_text writes json.dumps's text or raises its exception type; True if it wrote."""
    try:
        expected = _expected(doc)
    except Exception as exc:
        with pytest.raises(type(exc)):
            _json_text(doc)
        return False
    assert _json_text(doc) == expected, doc
    return True


def test_seeded_random_trees():
    rng = random.Random(20)
    written = sum(_written_alike(_tree(rng)) for _ in range(900))
    assert 300 < written < 900  # most trees are written; those with a NaN or ±inf leaf raise


@pytest.mark.parametrize(
    "doc",
    [
        [1.0, math.nan],
        [[0.5, -0.0], [math.inf, 1.0]],
        [[[1, 2], [3, 4]], [[5, 6], [7, -math.inf]]],
        {"probabilities": [0.25, 0.75], "verdicts": [{"label": "a", "lhs": math.nan, "passed": False}]},
        {1: "int keys", 2: [1.0]},
        [np.float64(1.5), 2.0],
        {"deep": [[[[[[1.0]]]]]]},
    ],
    ids=range(7),
)
def test_named_documents(doc):
    _written_alike(doc)


def test_reports_of_seeded_batches_and_committed_scenarios():
    scenarios = [generate_random_instance(s, d1_max, outcomes_max) for s in range(100) for d1_max, outcomes_max in ((6, 4), (16, 6))]
    scenarios += [load_scenario(str(path)) for path in sorted(SCENARIOS.glob("*.json"))]
    for scenario in scenarios:
        report = run_pipeline(scenario)
        assert report_to_json(report) == _expected({"schema": 3, **report_to_dict(report)}) + "\n"
        with_timing = report_to_dict(report, include_timing=True)
        assert _json_text(with_timing) == _expected(with_timing)


@pytest.mark.parametrize("bounds", [[], ["--d1-max", "6", "--outcomes-max", "4"]], ids=["default", "6-4"])
def test_campaign_documents(bounds):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["batch", "--seeds", "0..19", "--format", "json", *bounds]) == 0
    assert out.getvalue() == _expected(json.loads(out.getvalue())) + "\n"


def _circular_list() -> list:
    loop: list = [1.0]
    loop.append(loop)
    return loop


def _circular_dict() -> dict:
    loop: dict = {"a": [1.0]}
    loop["a"].append(loop)
    return loop


@pytest.mark.parametrize(
    "doc",
    [
        {1, 2},
        object(),
        complex(1, 2),
        b"bytes",
        np.array([1.0]),
        [1.0, {2.0}],
        {(1, 2): "tuple key"},
        {1: "int key", "b": "str key"},
        10**5000,
        [1, 2, 10**5000],
        {"a": [[1.0, 10**5000]]},
        _circular_list(),
        _circular_dict(),
    ],
    ids=range(13),
)
def test_what_json_rejects_raises_the_same(doc):
    with pytest.raises(Exception) as expected:
        _expected(doc)
    with pytest.raises(type(expected.value)):
        _json_text(doc)


@pytest.mark.parametrize("extra", [-sys.getrecursionlimit() // 2, 10], ids=["deep", "too-deep"])
def test_deep_nesting_is_written_or_rejected_as_json_does(extra):
    doc: list = [1.0]
    for _ in range(sys.getrecursionlimit() + extra):
        doc = [doc]
    try:
        expected = _expected(doc)
    except RecursionError:
        with pytest.raises(RecursionError):
            _json_text(doc)
    else:
        assert _json_text(doc) == expected
