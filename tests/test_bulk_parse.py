"""The bulk parse of complex vectors and matrices matches the per-entry loop, bit for bit and message for message.

``scenario._bulk`` converts a whole row list in one ``np.array`` call when
every entry is a JSON number or every entry an [re, im] pair; anything
else goes to the per-entry loop, which names the first bad entry. Each
input here is read twice: as parsing reads it, and with ``_bulk`` switched
off, so that only the loop reads it. Accepted inputs must give the same
bytes, rejected ones the same exception type and message.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from qmeasure import generate_random_instance, random_unitary
from qmeasure import scenario as scenario_module
from qmeasure.errors import ParseError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _pairs(a: np.ndarray) -> list:
    return np.stack([a.real, a.imag], -1).tolist()


def _custom_transformers(doc: dict, seed: int) -> list:
    """[re, im] matrices of A_k = U P_k, with U a seeded unitary and P_k the document observable's projectors."""
    sc = scenario_module.scenario_from_dict(doc)
    obs = sc.observable
    u = random_unitary(obs.dim, np.random.default_rng(seed))
    return [_pairs(u @ obs.basis[:, cols] @ obs.adjoint[cols]) for cols in obs.columns]


def _seeded_inputs() -> list:
    """(kind, rows) of every vector and matrix in seeded, custom and committed documents."""
    found = []
    for seed, d1_max, outcomes_max in [(s, 6, 4) for s in range(15)] + [(s, 16, 6) for s in range(10)]:
        doc = generate_random_instance(seed, d1_max, outcomes_max).to_dict()
        found.append(("matrix", doc["observable"]["matrix"]))
        found.append(("vector", doc["initial_state"]["amplitudes"]))
        found.extend(("matrix", m) for m in _custom_transformers(doc, seed))
    for path in sorted(SCENARIOS.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if "matrix" in doc["observable"]:
            found.append(("matrix", doc["observable"]["matrix"]))
        if "amplitudes" in doc["initial_state"]:
            found.append(("vector", doc["initial_state"]["amplitudes"]))
        found.extend(("matrix", m) for m in doc["instrument"].get("transformers", ()))
    return found


BIG = [2**53 + 1, -(2**53 + 3), 2**63 + 1, -(2**63) - 1, 2**64 + 3, 10**300]

ACCEPTED = [
    ("matrix", [[1, 0], [0, -1]]),
    ("matrix", [[0.5, 2], [3, -4.25]]),
    ("matrix", [BIG[:3], BIG[3:]]),
    ("matrix", [[[b, -b] for b in BIG[:3]], [[b, 1] for b in BIG[3:]]]),
    ("matrix", [[[-0.0, 1.0], [1.0, -0.0]], [[-0.0, -0.0], [0.0, 0.0]]]),
    ("matrix", [[-0.0, 0.0], [0.0, -0.0]]),
    ("vector", [-0.0, 0.6, 0.8]),
    ("vector", [[0.6, -0.0], [-0.0, 0.8]]),
    ("vector", BIG),
    # numbers and pairs mixed: the loop accepts these, the bulk path leaves them to it
    ("matrix", [[1, [0, 1]], [[0, -1], 2]]),
    ("vector", [0.6, [0.0, 0.8]]),
]

REJECTED = [
    ("matrix", [[True, 0], [0, -1]]),
    ("matrix", [[0, 0], [0, False]]),
    ("matrix", [[[1, False], [0, 0]], [[0, 0], [-1, 0]]]),
    ("matrix", [[[True, 0], [0, 0]], [[0, 0], [-1, 0]]]),
    ("matrix", [[float("nan"), 0], [0, -1]]),
    ("matrix", [[[1, float("nan")], [0, 0]], [[0, 0], [-1, 0]]]),
    ("matrix", [[float("inf"), 0], [0, -1]]),
    ("matrix", [[[1, float("-inf")], [0, 0]], [[0, 0], [-1, 0]]]),
    ("matrix", [[10**400, 0], [0, -1]]),
    ("matrix", [[[1, 10**400], [0, 0]], [[0, 0], [-1, 0]]]),
    ("matrix", [[1, 0], [0]]),
    ("matrix", [[[1, 0], [0, 0]], [[0, 0]]]),
    ("matrix", [[[1], [0, 0]], [[0, 0], [-1, 0]]]),
    ("matrix", [[[1, 0, 0], [0, 0]], [[0, 0], [-1, 0]]]),
    ("matrix", [[1, 0], 5]),
    ("matrix", [[1, 0], "row"]),
    ("matrix", [[], [0, -1]]),
    ("matrix", [[[[1, 0]], [0, 0]], [[0, 0], [-1, 0]]]),
    ("matrix", [[["1", "0"], [0, 0]], [[0, 0], [-1, 0]]]),
    ("vector", [True, 0]),
    ("vector", [[0.6, False], [0.8, 0]]),
    ("vector", [float("nan"), 1]),
    ("vector", [[0.6, 0], [float("inf"), 0]]),
    ("vector", [10**400, 0]),
    ("vector", [[0.6, 0], [0.8]]),
    ("vector", [[0.6, 0, 0], [0.8, 0]]),
    ("vector", [[[0.6, 0]], [0.8, 0]]),
]


def _read(kind: str, rows):
    return scenario_module._complex_array(rows, "entries", 2 if kind == "matrix" else 1)


def _read_by_loop(kind: str, rows, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(scenario_module, "_bulk", lambda rows, depth: None)
        return _read(kind, rows)


def _outcome(read):
    try:
        return read()
    except ParseError as exc:
        return type(exc), str(exc)


def test_seeded_custom_and_committed_entries_read_alike(monkeypatch):
    inputs = _seeded_inputs()
    assert len(inputs) > 100
    for kind, rows in inputs:
        assert scenario_module._bulk(rows, 1 if kind == "vector" else 2) is not None  # the bulk path reads them
        bulk, loop = _read(kind, rows), _read_by_loop(kind, rows, monkeypatch)
        assert bulk.dtype == loop.dtype == complex and bulk.shape == loop.shape
        assert bulk.tobytes() == loop.tobytes()


@pytest.mark.parametrize("kind, rows", ACCEPTED, ids=range(len(ACCEPTED)))
def test_accepted_entries_read_alike(kind, rows, monkeypatch):
    bulk, loop = _read(kind, rows), _read_by_loop(kind, rows, monkeypatch)
    assert bulk.dtype == loop.dtype == complex and bulk.shape == loop.shape
    assert bulk.tobytes() == loop.tobytes()


def test_big_integers_take_the_bits_of_complex():
    read = _read("vector", BIG)
    assert read.tobytes() == np.array([complex(b) for b in BIG]).tobytes()


def test_the_sign_of_each_zero_is_kept():
    read = _read("vector", [[-0.0, 0.0], [0.0, -0.0]])
    assert np.signbit(read.real).tolist() == [True, False]
    assert np.signbit(read.imag).tolist() == [False, True]


@pytest.mark.parametrize("kind, rows", REJECTED, ids=range(len(REJECTED)))
def test_rejected_entries_fail_alike(kind, rows, monkeypatch):
    assert scenario_module._bulk(rows, 1 if kind == "vector" else 2) is None
    loop = _outcome(lambda: _read_by_loop(kind, rows, monkeypatch))
    assert isinstance(loop, tuple), "the loop accepts what this test expects it to reject"
    assert _outcome(lambda: _read(kind, rows)) == loop
