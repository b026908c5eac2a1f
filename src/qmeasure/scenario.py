"""Scenario documents: JSON parsing, validation, and seeded random generation.

A scenario is a single JSON document::

    {
      "object_dim": 2,
      "observable": {"preset": "pauli_z"},
      "initial_state": {"preset": "uniform"},
      "instrument": {"kind": "ideal"},
      "options": {"tolerance": null, "verbosity": "normal"}
    }

Complex entries are written as two-element [re, im] arrays (bare numbers
are read as real); matrices are row-major arrays of rows. Observables may
be given as an explicit Hermitian "matrix", or as a preset: "pauli_x",
"pauli_y", "pauli_z", or "diag" with a "values" list. Initial states are
an "amplitudes" list or a preset ("basis" with "index", or "uniform").
Instruments are "ideal", "repeatable" with a "seed", or "custom" with a
list of "transformers" matrices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import tolerances as tol
from .errors import (
    DimensionMismatch,
    InvalidTransformers,
    NotHermitian,
    ParseError,
    QMeasureError,
    ValidationError,
)
from .linalg import hermitize, random_state_vector, random_unitary
from .observables import Observable, PureState, observable_from_matrix, uniform_superposition
from .instruments import StateTransformerSet, make_ideal_transformers, make_repeatable_transformers

_PAULI = {
    "pauli_x": np.array([[0, 1], [1, 0]], dtype=complex),
    "pauli_y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "pauli_z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_VERBOSITIES = ("normal", "verbose")


@dataclass(frozen=True)
class InstrumentSpec:
    """Which transformer family the pipeline should build."""

    kind: str  # "ideal" | "repeatable" | "custom"
    seed: int | None = None
    transformers: tuple[np.ndarray, ...] | None = None


@dataclass(frozen=True)
class Scenario:
    """A fully validated pipeline input plus its source document."""

    object_dim: int
    observable: Observable
    initial_state: PureState
    instrument: InstrumentSpec
    tolerance: float | None = None
    verbosity: str = "normal"
    source: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return json.loads(json.dumps(self.source))

    def build_transformers(self) -> StateTransformerSet:
        if self.instrument.kind == "ideal":
            return make_ideal_transformers(self.observable)
        if self.instrument.kind == "repeatable":
            return make_repeatable_transformers(self.observable, self.instrument.seed)
        return StateTransformerSet(self.instrument.transformers, self.observable)


def _is_number(value: Any) -> bool:
    """A JSON number. bool is a subclass of int in Python, but true and false are not numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_tolerance(value: float, where: str) -> float:
    """A tolerance override must be a finite number >= 0; any other value cannot decide a verdict."""
    try:
        tolerance = float(value)
    except OverflowError:  # an integer beyond the float range
        tolerance = math.inf
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValidationError(f"{where}: expected a finite number >= 0, got {value!r}")
    return tolerance


def _complex_entry(value: Any, where: str) -> complex:
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(_is_number(x) for x in value):
        return complex(value[0], value[1])
    raise ParseError(f"{where}: expected a number or [re, im] pair, got {value!r}")


def _complex_vector(rows: Any, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ParseError(f"{where}: expected a non-empty array")
    return np.array([_complex_entry(x, f"{where}[{i}]") for i, x in enumerate(rows)], dtype=complex)


def _complex_matrix(rows: Any, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ParseError(f"{where}: expected a non-empty array of rows")
    mat = [
        [_complex_entry(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)]
        if isinstance(row, list)
        else _fail_row(where, i)
        for i, row in enumerate(rows)
    ]
    widths = {len(r) for r in mat}
    if len(widths) != 1:
        raise ParseError(f"{where}: rows have inconsistent lengths {sorted(widths)}")
    return np.array(mat, dtype=complex)


def _fail_row(where: str, i: int):
    raise ParseError(f"{where}[{i}]: expected an array row")


def _parse_observable(spec: Any, object_dim: int) -> Observable:
    if not isinstance(spec, dict):
        raise ParseError("observable: expected an object")
    if "matrix" in spec:
        mat = _complex_matrix(spec["matrix"], "observable.matrix")
        if mat.shape != (object_dim, object_dim):
            raise ValidationError(
                f"observable.matrix has shape {mat.shape}, expected {(object_dim, object_dim)}"
            )
        try:
            return observable_from_matrix(mat)
        except NotHermitian as exc:
            raise ValidationError(f"observable.matrix violates hermiticity: {exc}") from exc
    preset = spec.get("preset")
    if preset in _PAULI:
        if object_dim != 2:
            raise ValidationError(f"preset {preset} needs object_dim 2, got {object_dim}")
        return observable_from_matrix(_PAULI[preset])
    if preset == "diag":
        values = spec.get("values")
        if not isinstance(values, list) or not all(_is_number(v) for v in values):
            raise ParseError("observable.values: expected a list of numbers for the diag preset")
        if len(values) != object_dim:
            raise ValidationError(f"diag preset has {len(values)} values for object_dim {object_dim}")
        return observable_from_matrix(np.diag(np.array(values, dtype=complex)))
    raise ParseError(f"observable: need a 'matrix' or a preset in {sorted(_PAULI) + ['diag']}")


def _parse_state(spec: Any, object_dim: int) -> PureState:
    if not isinstance(spec, dict):
        raise ParseError("initial_state: expected an object")
    if "amplitudes" in spec:
        vec = _complex_vector(spec["amplitudes"], "initial_state.amplitudes")
        if vec.size != object_dim:
            raise ValidationError(f"initial_state has {vec.size} amplitudes for object_dim {object_dim}")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > tol.STATE_RENORM:
            raise ValidationError(f"initial_state norm {norm} is not 1 within {tol.STATE_RENORM}")
        return PureState(vec / norm)
    preset = spec.get("preset")
    if preset == "basis":
        index = spec.get("index")
        if not _is_integer(index) or not 0 <= index < object_dim:
            raise ValidationError(f"initial_state basis index {index!r} is not in [0, {object_dim})")
        vec = np.zeros(object_dim, dtype=complex)
        vec[index] = 1.0
        return PureState(vec)
    if preset == "uniform":
        return uniform_superposition(object_dim)
    raise ParseError("initial_state: need 'amplitudes' or a preset of 'basis' | 'uniform'")


def _parse_instrument(spec: Any, obs: Observable) -> InstrumentSpec:
    if not isinstance(spec, dict):
        raise ParseError("instrument: expected an object")
    kind = spec.get("kind")
    if kind == "ideal":
        return InstrumentSpec("ideal")
    if kind == "repeatable":
        seed = spec.get("seed")
        if not _is_integer(seed):
            raise ParseError("instrument.seed: expected an integer for the repeatable kind")
        return InstrumentSpec("repeatable", seed=seed)
    if kind == "custom":
        raw = spec.get("transformers")
        if not isinstance(raw, list) or not raw:
            raise ParseError("instrument.transformers: expected a non-empty list of matrices")
        mats = tuple(
            _complex_matrix(entry, f"instrument.transformers[{i}]") for i, entry in enumerate(raw)
        )
        try:
            StateTransformerSet(mats, obs)  # validate now; the pipeline rebuilds cheaply
        except (InvalidTransformers, DimensionMismatch) as exc:
            raise ValidationError(f"instrument.transformers: {exc}") from exc
        return InstrumentSpec("custom", transformers=mats)
    raise ParseError("instrument.kind: expected 'ideal', 'repeatable' or 'custom'")


def scenario_from_dict(doc: dict[str, Any]) -> Scenario:
    """Validate a parsed JSON document into a Scenario."""
    if not isinstance(doc, dict):
        raise ParseError("scenario: expected a JSON object at top level")
    unknown = set(doc) - {"object_dim", "observable", "initial_state", "instrument", "options"}
    if unknown:
        raise ParseError(f"scenario: unknown fields {sorted(unknown)}")
    object_dim = doc.get("object_dim")
    if not _is_integer(object_dim) or object_dim < 2:
        raise ParseError(f"object_dim: expected an integer >= 2, got {object_dim!r}")

    try:
        obs = _parse_observable(doc.get("observable"), object_dim)
        state = _parse_state(doc.get("initial_state"), object_dim)
        instrument = _parse_instrument(doc.get("instrument"), obs)
    except (ParseError, ValidationError):
        raise
    except QMeasureError as exc:
        raise ValidationError(str(exc)) from exc

    options = doc.get("options") or {}
    if not isinstance(options, dict):
        raise ParseError("options: expected an object")
    tolerance = options.get("tolerance")
    if tolerance is not None:
        if not _is_number(tolerance):
            raise ParseError(f"options.tolerance: expected a number, got {tolerance!r}")
        tolerance = check_tolerance(tolerance, "options.tolerance")
    verbosity = options.get("verbosity", "normal")
    if verbosity not in _VERBOSITIES:
        raise ParseError(f"options.verbosity: expected one of {_VERBOSITIES}, got {verbosity!r}")

    return Scenario(
        object_dim=object_dim,
        observable=obs,
        initial_state=state,
        instrument=instrument,
        tolerance=tolerance,
        verbosity=verbosity,
        source=doc,
    )


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document from JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return scenario_from_dict(doc)


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as handle:
        return parse_scenario(handle.read())


def _pairs(vec: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in vec]


def _matrix_pairs(mat: np.ndarray) -> list[list[list[float]]]:
    return [_pairs(row) for row in mat]


def generate_random_instance(seed: int, d1_max: int, outcomes_max: int) -> Scenario:
    """Seeded random scenario: observable, initial state, repeatable instrument.

    The observable is a random unitary conjugation of a diagonal with
    random multiplicities and eigenvalue gaps of at least 1e-3. The state
    is drawn Haar-like and then restricted to a random subset of the
    eigenspaces, so null outcomes actually occur; the instrument is a
    seeded repeatable family. The same seed always reproduces the same
    scenario document.
    """
    if d1_max < 2:
        raise ValueError(f"d1_max must be >= 2, got {d1_max}")
    if not 2 <= outcomes_max <= d1_max:
        raise ValueError(f"outcomes_max must be in [2, {d1_max}], got {outcomes_max}")

    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, d1_max + 1))
    n_outcomes = int(rng.integers(2, min(outcomes_max, dim) + 1))

    multiplicities = np.ones(n_outcomes, dtype=int)
    for _ in range(dim - n_outcomes):
        multiplicities[int(rng.integers(0, n_outcomes))] += 1
    raw = np.sort(rng.uniform(-1.0, 1.0, size=n_outcomes))
    eigenvalues = raw + 2e-3 * np.arange(n_outcomes)  # enforce gaps >= 2e-3

    diagonal = np.concatenate([np.full(m, v) for v, m in zip(eigenvalues, multiplicities)])
    basis = random_unitary(dim, rng)
    hermitian = hermitize(basis @ np.diag(diagonal).astype(complex) @ np.conj(basis).T)
    obs = observable_from_matrix(hermitian)

    support = sorted(rng.choice(n_outcomes, size=int(rng.integers(1, n_outcomes + 1)), replace=False))
    projector = np.sum([obs.terms[int(k)][1] for k in support], axis=0)
    vec = projector @ random_state_vector(dim, rng)
    norm = float(np.linalg.norm(vec))
    if norm < 1e-6:  # astronomically unlikely; fall back to a supported eigenvector
        vec = obs.terms[int(support[0])][1][:, 0]
        norm = float(np.linalg.norm(vec))
    state = PureState(vec / norm)

    instrument_seed = int(rng.integers(0, 2**31))
    doc = {
        "object_dim": dim,
        "observable": {"matrix": _matrix_pairs(hermitian)},
        "initial_state": {"amplitudes": _pairs(state.vector)},
        "instrument": {"kind": "repeatable", "seed": instrument_seed},
        "options": {"tolerance": None, "verbosity": "normal"},
    }
    return Scenario(
        object_dim=dim,
        observable=obs,
        initial_state=state,
        instrument=InstrumentSpec("repeatable", seed=instrument_seed),
        source=doc,
    )


__all__ = [
    "Scenario",
    "InstrumentSpec",
    "scenario_from_dict",
    "parse_scenario",
    "load_scenario",
    "check_tolerance",
    "generate_random_instance",
]
