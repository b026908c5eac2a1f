"""End-to-end verification pipeline and report emission.

``run_pipeline`` works in two parts. ``_Run`` holds the artefacts of one
run of the scenario's transformer family (the instrument, built and checked
when the scenario was) on its initial state: the repeatability violation,
the final vector, the Born vector and its entropy H(p), the initial
commutator norm, the Schmidt form and the entanglement S1 read from its
coefficients, the definite-value report and the tripartite pointer reading.
Each is computed once, on first use.
``CHECKS`` is the ordered table of verdicts; each entry compares two
routes to one identity, read from those artefacts. Every check lands in
the report as a verdict carrying its deviation and tolerance, so failures
are diagnosable from the report alone. Checks that presume a repeatable
instrument are listed as not applicable when the repeatability verdict
fails, rather than counted as failures.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, NamedTuple

import numpy as np

from . import tolerances as tol
from .errors import QMeasureError
from .information import (
    Verdict,
    lifted_incompatibility_entropy,
    low_rank_commutator_norm,
    read_pointer_tripartite,
    shannon_entropy,
)
from .instruments import (
    conditional_state_gap,
    evolve,
    probability_gap,
    repeat_measurement_check,
    repeatability_violation,
)
from .linalg import dag
from .observables import probabilities
from .scenario import _NUMBER_TYPES, Scenario
from .schmidt import reconstruct, schmidt_decompose, verify_definite_values

_FAILURES = (QMeasureError, np.linalg.LinAlgError, FloatingPointError)


@dataclass(frozen=True)
class VerificationReport:
    """Everything one pipeline run produced."""

    scenario: dict[str, Any]
    probabilities: tuple[float, ...] | None
    schmidt_coefficients: tuple[float, ...] | None
    initial_commutator_norm: float | None
    entropies: dict[str, float] | None  # {"s1": S1, "shannon_pk": H(p)}
    verdicts: tuple[Verdict, ...]
    not_applicable: tuple[str, ...]
    error: str | None
    overall_pass: bool
    duration_seconds: float


class _Halt(Exception):
    """An artefact was needed after an earlier stage had failed."""


def _failure(stage: str, exc: Exception) -> str:
    if isinstance(exc, QMeasureError):
        return f"{stage}: {type(exc).__name__}: {exc}"
    return f"{stage}: numerical failure: {exc}"


def _artefact(stage: str, compute: Callable[[_Run], Any]) -> cached_property:
    """Artefact computed on first use; a failure is recorded under ``stage`` and halts the run."""

    def once(run: _Run) -> Any:
        if run.error is not None:
            raise _Halt
        try:
            return compute(run)
        except _FAILURES as exc:
            run.error = _failure(stage, exc)
            raise _Halt from exc

    return cached_property(once)


class _Run:
    """The artefacts of one run, each computed once, on first use.

    ``error`` holds the first failure as "<stage>: <what went wrong>". Once
    it is set, reading an artefact that was not computed raises _Halt.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.ts = scenario.transformers
        self.obs = scenario.observable
        self.psi = scenario.initial_state
        self.error: str | None = None

    @property
    def dims(self) -> tuple[int, int]:
        return self.ts.composite_dims

    repeatability_violation = _artefact("repeatability", lambda run: repeatability_violation(run.ts))
    final = _artefact("evolution", lambda run: evolve(run.ts, run.psi))
    born = _artefact("evolution", lambda run: probabilities(run.obs, run.psi))
    initial_commutator = _artefact("evolution", lambda run: low_rank_commutator_norm(run.obs, run.psi.vector[:, None]))
    schmidt = _artefact("schmidt", lambda run: schmidt_decompose(run.final, run.dims))
    # S1 = H(c²): both marginals of the pure final vector have the squared Schmidt coefficients as spectrum
    s1 = _artefact("entropies", lambda run: shannon_entropy(np.square(run.schmidt.coefficients)))
    definite = _artefact(
        "definite_values", lambda run: verify_definite_values(run.schmidt, run.obs, run.ts.pointer_observable)
    )
    h_born = _artefact("born_entropy", lambda run: shannon_entropy(np.maximum(run.born, 0.0)))
    reading = _artefact("pointer_reading", lambda run: read_pointer_tripartite(run.final, run.ts))


# What every report carries, computed in this order before the checks run.
_REPORTED = ("repeatability_violation", "final", "born", "initial_commutator", "schmidt", "h_born", "s1")


class Check(NamedTuple):
    """One verdict: its label, whether it presumes a repeatable instrument, and its computation.

    ``fn`` reads the run's artefacts and returns (lhs, rhs, deviation, tolerance).
    """

    label: str
    needs_repeatable: bool
    fn: Callable[[_Run], tuple[float, float, float, float]]


def _repeatability_condition(run: _Run):
    violation = run.repeatability_violation
    return violation, 0.0, violation, tol.REPEATABILITY


def _probability_reproducibility(run: _Run):
    gap = probability_gap(run.ts, run.born, run.final)
    return gap, 0.0, gap, tol.PRC


def _conditional_states(run: _Run):
    gap = conditional_state_gap(run.ts, run.psi, run.final)
    return gap, 0.0, gap, tol.KRAUS_CONSISTENCY


def _schmidt_reconstruction(run: _Run):
    overlap = abs(complex(np.vdot(run.final, reconstruct(run.schmidt))))
    return overlap, 1.0, 1.0 - overlap, tol.RECONSTRUCTION


def _repeat_certainty(run: _Run):
    smallest = repeat_measurement_check(run.ts, run.final, run.born)
    return smallest, 1.0, 1.0 - smallest, tol.REPEAT_CERTAINTY


def _definite_values(run: _Run):
    left, right = run.definite.max_left_violation, run.definite.max_right_violation
    return left, right, max(left, right), tol.RECONSTRUCTION


def _schmidt_probability_match(run: _Run):
    squares = run.definite.schmidt_form.coefficients ** 2
    match = float(np.abs(squares - run.born[run.definite.outcomes]).max())
    return match, 0.0, match, tol.THEOREM


def _twin_residual(x: np.ndarray, a: np.ndarray) -> float:
    """Largest eigen-residual of the twin observable X diag(a) X† on its own columns X."""
    return float(np.linalg.norm(((x * a) @ dag(x)) @ x - x * a, axis=0).max())


def _twin_diagonality(run: _Run):
    form, outcomes = run.definite.schmidt_form, run.definite.outcomes
    twin_object = _twin_residual(form.lefts, np.array(run.obs.eigenvalues)[outcomes])
    twin_pointer = _twin_residual(form.rights, np.array(run.ts.pointer_observable.eigenvalues)[outcomes])
    return twin_object, twin_pointer, max(twin_object, twin_pointer), tol.RECONSTRUCTION


def _compatibility_migration(run: _Run):
    m = run.final.reshape(run.dims)  # rho_1 = M M† and rho_2 = Mᵀ (Mᵀ)†
    object_comm = low_rank_commutator_norm(run.obs, m)
    pointer_comm = low_rank_commutator_norm(run.ts.pointer_observable, m.T)
    return object_comm, pointer_comm, max(object_comm, pointer_comm), tol.COMMUTATOR


def _entropy_ledger(run: _Run):
    mutual, twice_h = 2.0 * run.s1, 2.0 * run.h_born  # the mutual information S1 + S2 - S12 of the final vector
    return mutual, twice_h, abs(mutual - twice_h), tol.THEOREM


# S1, H(c²) of the Schmidt coefficients, is the entanglement of the final vector,
# so both entanglement checks read it rather than take another spectrum.
def _entanglement_incompatibility_final(run: _Run):
    entanglement, h_born = run.s1, run.h_born
    rhs = lifted_incompatibility_entropy(run.obs, run.final)
    deviation = max(abs(entanglement - rhs), abs(entanglement - h_born), abs(rhs - h_born))
    return entanglement, rhs, deviation, tol.THEOREM


# The incompatibility entropy of psi is H(p) of its Born vector: the branch weights of
# lifted_incompatibility_entropy on psi are the Born vector, so the check reads H(p).
def _entanglement_incompatibility_initial(run: _Run):
    h_born, entanglement = run.h_born, run.s1
    return h_born, entanglement, abs(h_born - entanglement), tol.THEOREM


def _marginal_spectrum(t: np.ndarray, party: int) -> np.ndarray:
    """Spectrum of the marginal rows rows† of the reading t on ``party``: the squared singular values of rows.

    rows is t with that party as rows; its zero columns add nothing to rows rows† and are dropped, so
    the smaller side is at most max(K, n3). shannon_entropy then checks that the spectrum sums to 1.
    """
    order = (party, *(axis for axis in range(t.ndim) if axis != party))
    rows = t.transpose(order).reshape(t.shape[party], -1)
    return np.square(np.linalg.svd(rows[:, (rows != 0).any(axis=0)], compute_uv=False))


def _pointer_reading_marginals(run: _Run):
    tri, dims3 = run.reading
    marginal_entropies = [shannon_entropy(_marginal_spectrum(tri.reshape(dims3), m)) for m in range(3)]
    deviation = max(abs(s - run.h_born) for s in marginal_entropies)
    return min(marginal_entropies), run.h_born, deviation, tol.THEOREM


def _pointer_reading_commutators(run: _Run):
    tri, (d1, d2, d3) = run.reading
    t = tri.reshape(d1, d2, d3)  # the post-reading state is W W†, W the (object, pointer) × reader matrix of t
    obj_after = low_rank_commutator_norm(run.obs, t.reshape(d1 * d2, d3))
    # The same W with its rows as (pointer, object): a permutation of rows, which keeps the norm.
    ptr_after = low_rank_commutator_norm(run.ts.pointer_observable, t.swapaxes(0, 1).reshape(d2 * d1, d3))
    return obj_after, ptr_after, max(obj_after, ptr_after), tol.COMMUTATOR


def _pointer_reading_incompatibility(run: _Run):
    reappeared = lifted_incompatibility_entropy(run.obs, run.reading[0])
    return reappeared, run.h_born, abs(reappeared - run.h_born), tol.THEOREM


# Its verdict, under the tolerance override too, decides whether needs_repeatable checks apply.
_REPEATABILITY = Check("repeatability_condition", False, _repeatability_condition)

# Report order. The two routes of each check are listed in README.md.
CHECKS = (
    _REPEATABILITY,
    Check("probability_reproducibility", False, _probability_reproducibility),
    Check("conditional_states", False, _conditional_states),
    Check("schmidt_reconstruction", False, _schmidt_reconstruction),
    Check("repeat_certainty", True, _repeat_certainty),
    Check("definite_values", True, _definite_values),
    Check("schmidt_probability_match", True, _schmidt_probability_match),
    Check("twin_diagonality", True, _twin_diagonality),
    Check("compatibility_migration", True, _compatibility_migration),
    Check("entropy_ledger", True, _entropy_ledger),
    Check("entanglement_incompatibility_final", True, _entanglement_incompatibility_final),
    Check("entanglement_incompatibility_initial", True, _entanglement_incompatibility_initial),
    Check("pointer_reading_marginals", True, _pointer_reading_marginals),
    Check("pointer_reading_commutators", True, _pointer_reading_commutators),
    Check("pointer_reading_incompatibility", True, _pointer_reading_incompatibility),
)


def run_pipeline(scenario: Scenario) -> VerificationReport:
    """Run every check the scenario supports and collect the verdicts.

    A failure ends the run at the first check that needs an artefact which
    could not be computed; the verdicts before it are kept.
    """
    started = time.perf_counter()
    run = _Run(scenario)
    try:
        for name in _REPORTED:
            getattr(run, name)
    except _Halt:
        pass

    verdicts: list[Verdict] = []
    repeatable = True  # until the repeatability verdict decides; unknown lists nothing as not applicable
    for check in CHECKS:
        if check.needs_repeatable and not repeatable:
            continue
        try:
            lhs, rhs, deviation, tolerance = check.fn(run)
        except _Halt:
            break
        except _FAILURES as exc:
            run.error = run.error or _failure(check.label, exc)
            break
        if scenario.tolerance is not None:
            tolerance = scenario.tolerance
        verdicts.append(Verdict.from_deviation(check.label, lhs, rhs, deviation, tolerance))
        if check is _REPEATABILITY:
            repeatable = verdicts[-1].passed

    computed = vars(run)  # cached_property keeps each computed artefact here
    born = computed.get("born")
    sf = computed.get("schmidt")
    s1, h_born = computed.get("s1"), computed.get("h_born")
    return VerificationReport(
        scenario=scenario.source,
        probabilities=None if born is None else tuple(float(p) for p in born),
        schmidt_coefficients=None if sf is None else tuple(float(c) for c in sf.coefficients),
        initial_commutator_norm=computed.get("initial_commutator"),
        entropies=None if s1 is None or h_born is None else {"s1": s1, "shannon_pk": h_born},
        verdicts=tuple(verdicts),
        not_applicable=() if repeatable else tuple(c.label for c in CHECKS if c.needs_repeatable),
        error=run.error,
        overall_pass=run.error is None and all(v.passed for v in verdicts),
        duration_seconds=time.perf_counter() - started,
    )


def _number(x: float | None) -> float | str | None:
    """A computed float as a report holds it: a finite one as itself, else "NaN", "Infinity" or "-Infinity"."""
    return x if x is None or math.isfinite(x) else json.dumps(x)


def report_to_dict(report: VerificationReport, include_timing: bool = False) -> dict[str, Any]:
    """Structured form of a report; timing is off by default so the output is byte-stable.

    Only the initial commutator norm and a verdict's lhs, rhs and deviation can be non-finite (every number
    of the echoed scenario is finite at parse), and ``_number`` writes them as strings, so the report is JSON.
    """
    doc: dict[str, Any] = {
        "scenario": report.scenario,
        "probabilities": None if report.probabilities is None else list(report.probabilities),
        "schmidt_coefficients": None
        if report.schmidt_coefficients is None
        else list(report.schmidt_coefficients),
        "initial_commutator_norm": _number(report.initial_commutator_norm),
        "entropies": report.entropies,
        # vars() of this flat dataclass holds its fields in order, at 1/30 the cost of dataclasses.asdict
        "verdicts": [
            {**vars(v), "lhs": _number(v.lhs), "rhs": _number(v.rhs), "deviation": _number(v.deviation)}
            for v in report.verdicts
        ],
        "not_applicable": list(report.not_applicable),
        "error": report.error,
        "overall_pass": report.overall_pass,
    }
    if include_timing:
        doc["duration_seconds"] = report.duration_seconds
    return doc


def report_to_json(report: VerificationReport, include_timing: bool = False) -> str:
    return _document(report_to_dict(report, include_timing))


def _document(doc: dict[str, Any]) -> str:
    """The text of a report or campaign document: ``doc`` under report schema 2, and a final newline."""
    return _json_text({"schema": 2, **doc}) + "\n"


class _Unsupported(Exception):
    """A value that only json.dumps knows how to write, or to reject."""


_SCALAR_TYPES = {str, float, int, bool, type(None)}
# json.dumps builds an encoder on each call that sets allow_nan; this one is built once.
_encode_scalar = json.JSONEncoder(allow_nan=False).encode
# Nesting deeper than this is left to json.dumps, so that where recursion ends is its own decision.
_MAX_DEPTH = 100


def _json_text(doc: Any) -> str:
    """Exactly ``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)``, runs of numbers and scalars at C speed.

    The stdlib writes every token in Python whenever ``indent`` is set. Anything but dicts with str keys,
    lists, tuples, str, int, float, bool and None, an integer too long for str, and nesting deeper than
    _MAX_DEPTH (a circular reference among them) is left to json.dumps, which writes or rejects it as it
    always has; so is a NaN or ±inf, which it rejects.
    """
    chunks: list[str] = []
    try:
        _write(doc, "\n", chunks)
    except (_Unsupported, ValueError, RecursionError):
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    return "".join(chunks)


def _write(value: Any, newline: str, chunks: list[str]) -> None:
    """Append ``value`` in json.dumps's indented form, ``newline`` being the line break and indent of its own line."""
    if isinstance(value, (str, int, float)) or value is None:  # bool is an int
        chunks.append(_encode_scalar(value))
        return
    if len(newline) > 2 * _MAX_DEPTH:
        raise _Unsupported
    inner = newline + "  "
    if isinstance(value, dict):
        if set(map(type, value)) - {str}:
            raise _Unsupported
        if not value or set(map(type, value.values())) <= _SCALAR_TYPES:
            chunks.append(_scalars(value, newline))
            return
        opening = "{" + inner
        for key in sorted(value):
            chunks.append(opening + encode_basestring_ascii(key) + ": ")
            _write(value[key], inner, chunks)
            opening = "," + inner
        chunks.append(newline + "}")
        return
    if not isinstance(value, (list, tuple)):
        raise _Unsupported
    kinds = set(map(type, value))
    text = _numbers(value, newline) if value and (kinds <= _NUMBER_TYPES or kinds == {list}) else None
    if text is None and kinds <= _SCALAR_TYPES:
        text = _scalars(value, newline)
    if text is None and kinds == {dict}:
        text = _records(value, newline)
    if text is not None:
        chunks.append(text)
        return
    opening = "[" + inner
    for item in value:
        chunks.append(opening)
        _write(item, inner, chunks)
        opening = "," + inner
    chunks.append(newline + "]")


def _scalars(value: dict | list | tuple, newline: str) -> str:
    """A dict or list of scalars, by json's C encoder: without ``indent`` it takes any item separator."""
    inner = newline + "  "
    text = json.dumps(value, sort_keys=True, separators=("," + inner, ": "), allow_nan=False)
    return text[0] + inner + text[1:-1] + newline + text[-1] if value else text


def _records(value: list, newline: str) -> str | None:
    """A list of non-empty dicts of scalars with str keys, in one call of json's C encoder as in ``_scalars``; else None.

    There every line break is a separator, as json escapes one inside a string, and between two of those
    dicts a } before a separator and a { after it can only close one record and open the next.
    """
    if (
        0 in set(map(len, value))
        or set(map(type, chain.from_iterable(value))) != {str}
        or not set(map(type, chain.from_iterable(map(dict.values, value)))) <= _SCALAR_TYPES
    ):
        return None
    inner, field = newline + "  ", newline + "    "
    text = json.dumps(value, sort_keys=True, separators=("," + field, ": "), allow_nan=False)
    body = text[2:-2].replace("}," + field + "{", inner + "}," + inner + "{" + field)
    return "[" + inner + "{" + field + body + inner + "}" + newline + "]"


def _numbers(value: list | tuple, newline: str) -> str | None:
    """A regular nested list of finite float and int leaves, as one %r template of its shape; else None."""
    shape, leaves = [len(value)], value
    kinds = set(map(type, leaves))
    while kinds == {list} and len(shape) <= _MAX_DEPTH:
        lengths = set(map(len, leaves))
        if len(lengths) != 1 or 0 in lengths:
            return None
        shape.append(lengths.pop())
        leaves = list(chain.from_iterable(leaves))
        kinds = set(map(type, leaves))
    if not kinds <= _NUMBER_TYPES:
        return None
    template = "%r"
    for depth in reversed(range(len(shape))):
        inner = newline + "  " * (depth + 1)
        template = "[" + inner + ("," + inner).join([template] * shape[depth]) + inner[:-2] + "]"
    text = template % tuple(leaves)
    # repr writes a non-finite float as nan, inf or -inf; no finite number, bracket, comma or blank is an n
    return text if "n" not in text else None


def report_to_text(report: VerificationReport, verbosity: str = "normal", include_timing: bool = False) -> str:
    """Human-readable rendering with one line per verdict; timing is off by default so the output is byte-stable."""
    lines = ["verification report", "==================="]
    if report.probabilities is not None:
        lines.append("outcome probabilities: " + ", ".join(f"{p:.10f}" for p in report.probabilities))
    if report.schmidt_coefficients is not None:
        lines.append("schmidt coefficients:  " + ", ".join(f"{c:.10f}" for c in report.schmidt_coefficients))
    if report.initial_commutator_norm is not None:
        lines.append(f"initial [A, rho] norm: {report.initial_commutator_norm:.3e}")
    if report.entropies is not None:
        lines.append(f"entropies (bits): S1={report.entropies['s1']:.10f} H(p)={report.entropies['shannon_pk']:.10f}")
    lines.append("")
    width = max((len(label) for label in [*(v.label for v in report.verdicts), *report.not_applicable]), default=10)
    for v in report.verdicts:
        status = "PASS" if v.passed else "FAIL"
        lines.append(f"{v.label:<{width}}  deviation={v.deviation:.3e}  tolerance={v.tolerance:.1e}  {status}")
        if verbosity == "verbose":
            lines.append(f"{'':<{width}}  lhs={v.lhs:.12g}  rhs={v.rhs:.12g}")
    for label in report.not_applicable:
        lines.append(f"{label:<{width}}  not applicable (instrument is not repeatable)")
    if report.error is not None:
        lines.append(f"error: {report.error}")
    lines.append("")
    lines.append(f"overall: {'PASS' if report.overall_pass else 'FAIL'}")
    if include_timing:
        lines.append(f"duration: {report.duration_seconds:.3f}s")
    return "\n".join(lines) + "\n"


__all__ = [
    "VerificationReport",
    "run_pipeline",
    "report_to_dict",
    "report_to_json",
    "report_to_text",
]
