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
list of "transformers" matrices. A block holds only its form's fields.

Parsing builds and checks the instrument's transformer family, so a Scenario
holds it, and its observable is the family's. ``generate_random_instance``
reads the document it writes with the same reader.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import Any

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, InvalidTransformers, NotHermitian, ParseError, QMeasureError, ValidationError
from .linalg import basis_vector, dag, frob, hermitize, random_state_vector, random_unitary, scaled
from .observables import Observable, PureState, observable_from_matrix, uniform_superposition
from .instruments import StateTransformerSet, make_ideal_transformers, make_repeatable_transformers

_PAULI = {
    "pauli_x": np.array([[0, 1], [1, 0]], dtype=complex),
    "pauli_y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "pauli_z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_VERBOSITIES = ("normal", "verbose")

# Size budget in bytes, 16·outcomes_max·d1_max² at 512/32; a campaign's 16·outcomes_max·d1_max² and a document's
# 16·d² (one complex d × d matrix) stay within it. That counts the matrix, not the parse: the tracemalloc peak of
# load_scenario, which frees the file's text once json has read it, is 14.2 × 16·d² at d = 122 and 13.1 × at
# d = 218, mostly json.loads's [re, im] lists and the document the scenario keeps; a test holds it within 14 × there.
CAMPAIGN_BYTES = 16 * 32 * 512**2


@dataclass(frozen=True)
class Scenario:
    """A fully validated pipeline input, with its checked transformer family, plus its source document."""

    initial_state: PureState
    transformers: StateTransformerSet
    tolerance: float | None = None
    verbosity: str = "normal"
    source: dict[str, Any] = field(default_factory=dict)

    @property
    def observable(self) -> Observable:
        """The measured observable, read from the family so that the two cannot disagree."""
        return self.transformers.observable

    def to_dict(self) -> dict[str, Any]:
        return json.loads(json.dumps(self.source))


def _is_json_number(value: Any) -> bool:
    """A JSON number. bool is a subclass of int in Python, but true and false are not numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    """A JSON number that is finite as a float: NaN, infinities and integers past the float range are not."""
    return _is_json_number(value) and abs(value) <= sys.float_info.max


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


# The exact types of JSON numbers, the only values that the bulk paths of parse and report take: bool is a subclass
# of int, and np.array(..., dtype=float) would take true as 1.0; json writes np.float64 and other subclasses with
# float.__repr__.
_NUMBER_TYPES = {float, int}


def _bulk(rows: list, depth: int) -> np.ndarray | None:
    """``rows``, a vector (depth 1) or a matrix (depth 2), as one complex array; None leaves it to the per-entry loop.

    Taken when every entry is a JSON number or every entry an [re, im] pair, with the types tested at C
    speed. An integer past the float range, ragged rows, NaN and ±inf return None, as does a mix of
    numbers and pairs, which the loop accepts. A pair is read by viewing its two floats as one complex,
    which keeps the sign of each zero as complex(re, im) does.
    """
    entries = rows
    if depth == 2:
        if set(map(type, rows)) != {list}:
            return None
        entries = list(chain.from_iterable(rows))
    kinds = set(map(type, entries))
    pairs = kinds == {list} and set(map(len, entries)) == {2}
    if pairs:
        kinds = set(map(type, chain.from_iterable(entries)))
    if not kinds <= _NUMBER_TYPES:
        return None
    try:
        arr = np.array(rows, dtype=float)
    except (OverflowError, ValueError):  # an integer past the float range, or ragged rows
        return None
    if arr.ndim != depth + pairs or not np.isfinite(arr).all():
        return None
    return arr.view(complex)[..., 0] if pairs else arr.astype(complex)


def _complex_array(rows: Any, where: str, depth: int) -> np.ndarray:
    """A complex vector (depth 1) or matrix (depth 2) of numbers and [re, im] pairs; the first bad entry is named."""
    if not isinstance(rows, list) or not rows:
        raise ParseError(f"{where}: expected a non-empty array" + " of rows" * (depth == 2))
    fast = _bulk(rows, depth)
    if fast is not None:
        return fast
    entries = []
    for i, row in enumerate(rows):
        if depth == 1:
            entries.append(_complex_entry(row, f"{where}[{i}]"))
        elif isinstance(row, list):
            entries.append([_complex_entry(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)])
        else:
            raise ParseError(f"{where}[{i}]: expected an array row")
    widths = set(map(len, entries)) if depth == 2 else {1}
    if len(widths) != 1:
        raise ParseError(f"{where}: rows have inconsistent lengths {sorted(widths)}")
    return np.array(entries, dtype=complex)


def _object(spec: Any, where: str, fields: set[str]) -> dict[str, Any]:
    """``spec`` if it is a JSON object whose every field is one of ``fields``."""
    if not isinstance(spec, dict):
        raise ParseError(f"{where}: expected an object")
    unknown = set(spec) - fields
    if unknown:
        raise ParseError(f"{where}: unknown fields {sorted(unknown)}")
    return spec


# The fields that each form of a block reads. A block holding `matrix` or `amplitudes` has that form, any other the
# form that its `preset` or `kind` names; it holds only that form's fields, or with no form, only its forms' fields.
_FORMS = {
    "observable": {"matrix": {"matrix"}, **dict.fromkeys(_PAULI, {"preset"}), "diag": {"preset", "values"}},
    "initial_state": {"amplitudes": {"amplitudes"}, "basis": {"preset", "index"}, "uniform": {"preset"}},
    "instrument": {"ideal": {"kind"}, "repeatable": {"kind", "seed"}, "custom": {"kind", "transformers"}},
}


def _form(spec: Any, block: str) -> str | None:
    """The form of a block, once ``spec`` is shown to be an object that holds only the fields of that form."""
    forms = _FORMS[block]
    _object(spec, block, set().union(*forms.values()))  # so no block holds both `preset` and `kind`
    data = "matrix" if "matrix" in spec else "amplitudes" if "amplitudes" in spec else None
    name = data or spec.get("preset", spec.get("kind"))
    if not isinstance(name, str) or name not in forms or forms[name].isdisjoint(spec):  # e.g. {"preset": "matrix"}
        return None
    _object(spec, block, forms[name])
    return name


def _parse_observable(spec: Any, object_dim: int) -> Observable:
    form = _form(spec, "observable")
    if form == "matrix":
        mat = _complex_array(spec["matrix"], "observable.matrix", 2)
        if mat.shape != (object_dim, object_dim):
            raise ValidationError(f"observable.matrix has shape {mat.shape}, expected {(object_dim, object_dim)}")
        try:
            return observable_from_matrix(mat)
        except NotHermitian as exc:
            raise ValidationError(f"observable.matrix violates hermiticity: {exc}") from exc
    if form in _PAULI:
        if object_dim != 2:
            raise ValidationError(f"preset {form} needs object_dim 2, got {object_dim}")
        return observable_from_matrix(_PAULI[form])
    if form == "diag":
        values = spec.get("values")
        if not isinstance(values, list) or not all(_is_number(v) for v in values):
            raise ParseError("observable.values: expected a list of numbers for the diag preset")
        if len(values) != object_dim:
            raise ValidationError(f"diag preset has {len(values)} values for object_dim {object_dim}")
        return observable_from_matrix(np.diag(np.array(values, dtype=complex)))
    raise ParseError(f"observable: need a 'matrix' or a preset in {sorted(_PAULI) + ['diag']}")


def _state(vec: np.ndarray, object_dim: int) -> PureState:
    """The state of the amplitudes ``vec``, renormalised if their norm is within STATE_RENORM of 1."""
    if vec.size != object_dim:
        raise ValidationError(f"initial_state has {vec.size} amplitudes for object_dim {object_dim}")
    unit, scale = scaled(vec)
    norm = scale * frob(unit)
    if abs(norm - 1.0) > tol.STATE_RENORM:
        raise ValidationError(f"initial_state norm {norm} is not 1 within {tol.STATE_RENORM}")
    return PureState(vec / norm)


def _parse_state(spec: Any, object_dim: int) -> PureState:
    form = _form(spec, "initial_state")
    if form == "amplitudes":
        return _state(_complex_array(spec["amplitudes"], "initial_state.amplitudes", 1), object_dim)
    if form == "basis":
        index = spec.get("index")
        if not _is_integer(index) or not 0 <= index < object_dim:
            raise ValidationError(f"initial_state basis index {index!r} is not in [0, {object_dim})")
        return PureState(basis_vector(object_dim, index))
    if form == "uniform":
        return uniform_superposition(object_dim)
    raise ParseError("initial_state: need 'amplitudes' or a preset of 'basis' | 'uniform'")


def _parse_instrument(spec: Any, obs: Observable) -> StateTransformerSet:
    form = _form(spec, "instrument")
    if form == "ideal":
        return make_ideal_transformers(obs)
    if form == "repeatable":
        seed = spec.get("seed")
        if not _is_integer(seed) or seed < 0:
            raise ParseError(f"instrument.seed: expected an integer >= 0 for the repeatable kind, got {seed!r}")
        return make_repeatable_transformers(obs, seed)
    if form == "custom":
        raw = spec.get("transformers")
        if not isinstance(raw, list) or not raw:
            raise ParseError("instrument.transformers: expected a non-empty list of matrices")
        mats = tuple(
            _complex_array(entry, f"instrument.transformers[{i}]", 2) for i, entry in enumerate(raw)
        )
        try:
            return StateTransformerSet.from_transformers(mats, obs)
        except (InvalidTransformers, DimensionMismatch) as exc:
            raise ValidationError(f"instrument.transformers: {exc}") from exc
    raise ParseError("instrument.kind: expected 'ideal', 'repeatable' or 'custom'")


def _read(doc: dict[str, Any], obs: Observable, state: PureState) -> Scenario:
    """The Scenario of a document, given its observable and initial state: its instrument and options read."""
    transformers = _parse_instrument(doc.get("instrument"), obs)
    options = _object({} if doc.get("options") is None else doc["options"], "options", {"tolerance", "verbosity"})
    tolerance = options.get("tolerance")
    if tolerance is not None:
        if not _is_json_number(tolerance):
            raise ParseError(f"options.tolerance: expected a number, got {tolerance!r}")
        tolerance = check_tolerance(tolerance, "options.tolerance")
    verbosity = options.get("verbosity", "normal")
    if verbosity not in _VERBOSITIES:
        raise ParseError(f"options.verbosity: expected one of {_VERBOSITIES}, got {verbosity!r}")
    return Scenario(state, transformers, tolerance, verbosity, source=doc)


def scenario_from_dict(doc: dict[str, Any]) -> Scenario:
    """Validate a parsed JSON document into a Scenario."""
    if not isinstance(doc, dict):
        raise ParseError("scenario: expected a JSON object at top level")
    _object(doc, "scenario", {"object_dim", "observable", "initial_state", "instrument", "options"})
    object_dim = doc.get("object_dim")
    if not _is_integer(object_dim) or object_dim < 2:
        raise ParseError(f"object_dim: expected an integer >= 2, got {object_dim!r}")
    if 16 * object_dim**2 > CAMPAIGN_BYTES:
        raise ValidationError(
            f"object_dim {object_dim} needs {16 * object_dim**2} B for one complex d × d matrix, "
            f"beyond the budget of {CAMPAIGN_BYTES} B"
        )
    try:
        obs = _parse_observable(doc.get("observable"), object_dim)
        return _read(doc, obs, _parse_state(doc.get("initial_state"), object_dim))
    except (ParseError, ValidationError):
        raise
    except QMeasureError as exc:
        raise ValidationError(str(exc)) from exc


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document from JSON text; the text is freed once json has read it."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer past sys.get_int_max_str_digits(), or nesting too deep
        raise ParseError(f"invalid JSON: {exc}") from exc
    del text
    return scenario_from_dict(doc)


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as handle:
        try:
            return parse_scenario(handle.read())
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc}") from exc


def _pairs(a: np.ndarray) -> list:
    """[re, im] pairs of a complex vector or matrix, as nested lists of floats."""
    return np.stack([a.real, a.imag], -1).tolist()


def generate_random_instance(seed: int, d1_max: int, outcomes_max: int) -> Scenario:
    """Seeded random scenario: observable, initial state, repeatable instrument.

    The observable is a random unitary conjugation of a diagonal with
    random multiplicities and eigenvalue gaps of at least 1e-3. The state
    is drawn Haar-like and then restricted to a random subset of the
    eigenspaces, so null outcomes actually occur; the instrument is a
    seeded repeatable family. The same seed always reproduces the same
    scenario document, and parsing's reader makes the Scenario of it.
    """
    if d1_max < 2:
        raise ValueError(f"d1_max must be >= 2, got {d1_max}")
    if not 2 <= outcomes_max <= d1_max:
        raise ValueError(f"outcomes_max must be in [2, {d1_max}], got {outcomes_max}")
    size = 16 * outcomes_max * d1_max**2
    if size > CAMPAIGN_BYTES:
        raise ValueError(
            f"d1_max={d1_max}, outcomes_max={outcomes_max} needs {size} B for {outcomes_max} complex "
            f"{d1_max} × {d1_max} matrices, beyond the budget of {CAMPAIGN_BYTES} B"
        )

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
    inside = obs.indicator[:, support].sum(axis=1)  # 1 on the basis columns of the supported eigenspaces
    vec = obs.basis @ (inside * (dag(obs.basis) @ random_state_vector(dim, rng)))
    amplitudes = vec / frob(vec)
    doc = {
        "object_dim": dim,
        "observable": {"matrix": _pairs(hermitian)},
        "initial_state": {"amplitudes": _pairs(amplitudes)},
        "instrument": {"kind": "repeatable", "seed": int(rng.integers(0, 2**31))},
        "options": {"tolerance": None, "verbosity": "normal"},
    }
    return _read(doc, obs, _state(amplitudes, dim))


__all__ = [
    "Scenario",
    "scenario_from_dict",
    "parse_scenario",
    "load_scenario",
    "check_tolerance",
    "generate_random_instance",
]
