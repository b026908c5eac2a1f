"""End-to-end verification pipeline and report emission.

``run_pipeline`` works in two parts. ``_Run`` holds the artefacts of one
run: the transformer family, the repeatability flag, the dilated model,
the final vector, the Born vector, the initial commutator norm, the Schmidt
form, the entropy report, the definite-value report and the tripartite
pointer reading. Each is computed once, on first use.
``CHECKS`` is the ordered table of verdicts; each entry compares two
routes to one identity, read from those artefacts. Every check lands in
the report as a verdict carrying its deviation and tolerance, so failures
are diagnosable from the report alone. Checks that presume a repeatable
instrument are listed as not applicable when the instrument is not
repeatable, rather than counted as failures.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from typing import Any, NamedTuple

import numpy as np

from . import tolerances as tol
from .errors import QMeasureError
from .information import (
    EntropyReport,
    Verdict,
    commutator_norm,
    final_state_identity,
    lifted_commutator_norm,
    lifted_incompatibility_entropy,
    mutual_information,
    post_reading_state,
    read_pointer_tripartite,
    shannon_entropy,
    transfer_identity,
    von_neumann_entropy,
)
from .instruments import (
    conditional_state_gap,
    dilate,
    evolve,
    is_repeatable,
    probability_gap,
    repeat_measurement_check,
)
from .linalg import hermitize, pure_marginal
from .observables import probabilities
from .scenario import Scenario
from .schmidt import reconstruct, reduced_states, schmidt_decompose, twin_observables, verify_definite_values

_FAILURES = (QMeasureError, np.linalg.LinAlgError, FloatingPointError)


@dataclass(frozen=True)
class VerificationReport:
    """Everything one pipeline run produced."""

    scenario: dict[str, Any]
    probabilities: tuple[float, ...] | None
    schmidt_coefficients: tuple[float, ...] | None
    initial_commutator_norm: float | None
    entropies: EntropyReport | None
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
        self.scenario = scenario
        self.obs = scenario.observable
        self.psi = scenario.initial_state
        self.error: str | None = None

    @property
    def dims(self) -> tuple[int, int]:
        return self.model.composite_dims

    ts = _artefact("transformers", lambda run: run.scenario.build_transformers())
    repeatability = _artefact("repeatability", lambda run: is_repeatable(run.ts))
    model = _artefact("dilation", lambda run: dilate(run.ts))
    final = _artefact("evolution", lambda run: evolve(run.model, run.psi))
    born = _artefact("evolution", lambda run: probabilities(run.obs, run.psi))
    initial_commutator = _artefact("evolution", lambda run: commutator_norm(run.obs, run.psi))
    schmidt = _artefact("schmidt", lambda run: schmidt_decompose(run.final, run.dims))
    entropies = _artefact("entropies", lambda run: mutual_information(run.final, run.dims))
    definite = _artefact(
        "definite_values", lambda run: verify_definite_values(run.schmidt, run.obs, run.model.pointer_observable)
    )
    h_born = _artefact("born_entropy", lambda run: shannon_entropy(np.clip(run.born, 0.0, None)))
    reading = _artefact("pointer_reading", lambda run: read_pointer_tripartite(run.final, run.model))


# What every report carries, computed in this order before the checks run.
_REPORTED = ("repeatability", "final", "born", "initial_commutator", "schmidt", "entropies")


class Check(NamedTuple):
    """One verdict: its label, whether it presumes a repeatable instrument, and its computation.

    ``fn`` reads the run's artefacts and returns (lhs, rhs, deviation, tolerance).
    """

    label: str
    needs_repeatable: bool
    fn: Callable[[_Run], tuple[float, float, float, float]]


def _repeatability_condition(run: _Run):
    violation = run.repeatability[1]
    return violation, 0.0, violation, tol.REPEATABILITY


def _probability_reproducibility(run: _Run):
    gap = probability_gap(run.model, run.born, run.final)
    return gap, 0.0, gap, tol.PRC


def _conditional_states(run: _Run):
    gap = conditional_state_gap(run.model, run.ts, run.psi, run.final)
    return gap, 0.0, gap, tol.KRAUS_CONSISTENCY


def _schmidt_reconstruction(run: _Run):
    overlap = abs(complex(np.vdot(run.final, reconstruct(run.schmidt))))
    return overlap, 1.0, 1.0 - overlap, tol.RECONSTRUCTION


def _repeat_certainty(run: _Run):
    smallest = repeat_measurement_check(run.model, run.ts, run.psi)
    return smallest, 1.0, 1.0 - smallest, tol.REPEAT_CERTAINTY


def _definite_values(run: _Run):
    left, right = run.definite.max_left_violation, run.definite.max_right_violation
    return left, right, max(left, right), tol.RECONSTRUCTION


def _schmidt_probability_match(run: _Run):
    canonical = run.definite.schmidt_form
    match = max(
        abs(float(c) ** 2 - float(run.born[pairing.term_index]))
        for c, pairing in zip(canonical.coefficients, run.definite.assignment)
    )
    return match, 0.0, match, tol.THEOREM


def _twin_diagonality(run: _Run):
    canonical, assignment = run.definite.schmidt_form, run.definite.assignment
    twins = twin_observables(canonical, assignment)
    object_matrix = twins.object_matrix()
    pointer_matrix = twins.pointer_matrix()
    twin_object = max(
        float(np.linalg.norm(object_matrix @ l - pairing.object_eigenvalue * l))
        for l, pairing in zip(canonical.left_vectors, assignment)
    )
    twin_pointer = max(
        float(np.linalg.norm(pointer_matrix @ r - pairing.pointer_eigenvalue * r))
        for r, pairing in zip(canonical.right_vectors, assignment)
    )
    return twin_object, twin_pointer, max(twin_object, twin_pointer), tol.RECONSTRUCTION


def _compatibility_migration(run: _Run):
    rho1, rho2 = reduced_states(run.final, run.dims)
    object_comm = commutator_norm(run.obs, rho1)
    pointer_comm = commutator_norm(run.model.pointer_observable, rho2)
    return object_comm, pointer_comm, max(object_comm, pointer_comm), tol.COMMUTATOR


def _entropy_ledger(run: _Run):
    e, h_born = run.entropies, run.h_born
    ledger = max(abs(e.s1 - e.s2), e.s12, abs(e.mutual_information - 2.0 * h_born))
    return e.mutual_information, 2.0 * h_born, ledger, tol.THEOREM


# The entropy report's S1 is the entanglement of the final vector, so both
# entanglement checks read it rather than trace the final vector again.
def _entanglement_incompatibility_final(run: _Run):
    return (*final_state_identity(run.entropies.s1, run.obs, run.final, run.dims, run.h_born), tol.THEOREM)


def _entanglement_incompatibility_initial(run: _Run):
    return (*transfer_identity(run.obs, run.psi, run.entropies.s1), tol.THEOREM)


def _pointer_reading_marginals(run: _Run):
    tri, dims3 = run.reading
    marginal_entropies = [von_neumann_entropy(hermitize(pure_marginal(tri, dims3, keep=m))) for m in range(3)]
    deviation = max(abs(s - run.h_born) for s in marginal_entropies)
    return min(marginal_entropies), run.h_born, deviation, tol.THEOREM


def _pointer_reading_commutators(run: _Run):
    rho12 = post_reading_state(*run.reading)
    obj_after = lifted_commutator_norm(run.obs, rho12, run.dims, 0)
    ptr_after = lifted_commutator_norm(run.model.pointer_observable, rho12, run.dims, 1)
    return obj_after, ptr_after, max(obj_after, ptr_after), tol.COMMUTATOR


def _pointer_reading_incompatibility(run: _Run):
    tri, dims3 = run.reading
    reappeared = lifted_incompatibility_entropy(run.obs, tri, dims3, 0)
    return reappeared, run.h_born, abs(reappeared - run.h_born), tol.THEOREM


# Report order. The two routes of each check are listed in README.md.
CHECKS = (
    Check("repeatability_condition", False, _repeatability_condition),
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
    for check in CHECKS:
        try:
            if check.needs_repeatable and not run.repeatability[0]:
                continue
            lhs, rhs, deviation, tolerance = check.fn(run)
        except _Halt:
            break
        except _FAILURES as exc:
            run.error = run.error or _failure(check.label, exc)
            break
        if scenario.tolerance is not None:
            tolerance = scenario.tolerance
        verdicts.append(Verdict.from_deviation(check.label, lhs, rhs, deviation, tolerance))

    computed = vars(run)  # cached_property keeps each computed artefact here
    born = computed.get("born")
    sf = computed.get("schmidt")
    # when repeatability is unknown, nothing is listed as not applicable
    repeatable, _ = computed.get("repeatability", (True, None))
    return VerificationReport(
        scenario=scenario.to_dict(),
        probabilities=None if born is None else tuple(float(p) for p in born),
        schmidt_coefficients=None if sf is None else tuple(float(c) for c in sf.coefficients),
        initial_commutator_norm=computed.get("initial_commutator"),
        entropies=computed.get("entropies"),
        verdicts=tuple(verdicts),
        not_applicable=() if repeatable else tuple(c.label for c in CHECKS if c.needs_repeatable),
        error=run.error,
        overall_pass=run.error is None and all(v.passed for v in verdicts),
        duration_seconds=time.perf_counter() - started,
    )


def report_to_dict(report: VerificationReport, include_timing: bool = False) -> dict[str, Any]:
    """Structured form of a report; timing is off by default so the output is byte-stable."""
    doc: dict[str, Any] = {
        "scenario": report.scenario,
        "probabilities": None if report.probabilities is None else list(report.probabilities),
        "schmidt_coefficients": None
        if report.schmidt_coefficients is None
        else list(report.schmidt_coefficients),
        "initial_commutator_norm": report.initial_commutator_norm,
        "entropies": None
        if report.entropies is None
        else {
            "s1": report.entropies.s1,
            "s2": report.entropies.s2,
            "s12": report.entropies.s12,
            "mutual_information": report.entropies.mutual_information,
            "entanglement": report.entropies.entanglement,
            "quasi_classical": report.entropies.quasi_classical,
            "shannon_pk": report.entropies.shannon_pk,
        },
        "verdicts": [
            {
                "label": v.label,
                "lhs": v.lhs,
                "rhs": v.rhs,
                "deviation": v.deviation,
                "tolerance": v.tolerance,
                "passed": v.passed,
            }
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
    return json.dumps(report_to_dict(report, include_timing), indent=2, sort_keys=True) + "\n"


def report_to_text(report: VerificationReport, verbosity: str = "normal") -> str:
    """Human-readable rendering with one line per verdict."""
    lines = ["verification report", "==================="]
    if report.probabilities is not None:
        lines.append("outcome probabilities: " + ", ".join(f"{p:.10f}" for p in report.probabilities))
    if report.schmidt_coefficients is not None:
        lines.append("schmidt coefficients:  " + ", ".join(f"{c:.10f}" for c in report.schmidt_coefficients))
    if report.initial_commutator_norm is not None:
        lines.append(f"initial [A, rho] norm: {report.initial_commutator_norm:.3e}")
    if report.entropies is not None:
        e = report.entropies
        lines.append(
            f"entropies (bits): S1={e.s1:.10f} S2={e.s2:.10f} S12={e.s12:.3e} I12={e.mutual_information:.10f}"
        )
        if e.entanglement is not None:
            lines.append(
                f"entanglement={e.entanglement:.10f} quasi_classical={e.quasi_classical:.10f} "
                f"H(p)={e.shannon_pk:.10f}"
            )
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
    lines.append(f"duration: {report.duration_seconds:.3f}s")
    return "\n".join(lines) + "\n"


__all__ = [
    "VerificationReport",
    "run_pipeline",
    "report_to_dict",
    "report_to_json",
    "report_to_text",
]
