"""Correctness gate: what every benchmark operation must produce, known by construction.

The expected Born probabilities are recomputed here from the scenario
document alone, with this file's own eigendecomposition of the observable
matrix, so the gate never trusts a number the program computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Eigenvalues closer than this are one degenerate eigenvalue (the scenario
# format's documented rule), and probabilities must match to this.
DEGENERACY_GAP = 1e-8
PROBABILITY_TOLERANCE = 1e-9

ALWAYS_CHECKED = (
    "repeatability_condition",
    "probability_reproducibility",
    "conditional_states",
    "schmidt_reconstruction",
)
REPEATABLE_ONLY = (
    "repeat_certainty",
    "definite_values",
    "schmidt_probability_match",
    "twin_diagonality",
    "compatibility_migration",
    "entropy_ledger",
    "entanglement_incompatibility_final",
    "entanglement_incompatibility_initial",
    "pointer_reading_marginals",
    "pointer_reading_commutators",
    "pointer_reading_incompatibility",
)

_PAULI = {
    "pauli_x": [[0, 1], [1, 0]],
    "pauli_y": [[0, -1j], [1j, 0]],
    "pauli_z": [[1, 0], [0, -1]],
}


@dataclass(frozen=True)
class Expectation:
    """What a correct report for one scenario looks like."""

    repeatable: bool
    probabilities: tuple[float, ...]


def _complex(value) -> complex:
    return complex(value[0], value[1]) if isinstance(value, list) else complex(value)


def observable_matrix(doc: dict) -> np.ndarray:
    spec = doc["observable"]
    if "matrix" in spec:
        return np.array([[_complex(x) for x in row] for row in spec["matrix"]], dtype=complex)
    if spec["preset"] == "diag":
        return np.diag(np.array(spec["values"], dtype=complex))
    return np.array(_PAULI[spec["preset"]], dtype=complex)


def initial_vector(doc: dict) -> np.ndarray:
    spec, dim = doc["initial_state"], doc["object_dim"]
    if "amplitudes" in spec:
        vec = np.array([_complex(x) for x in spec["amplitudes"]], dtype=complex)
        return vec / np.linalg.norm(vec)
    if spec["preset"] == "basis":
        vec = np.zeros(dim, dtype=complex)
        vec[spec["index"]] = 1.0
        return vec
    return np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)


def eigenspaces(h: np.ndarray) -> list[np.ndarray]:
    """Orthonormal bases of the eigenspaces of a Hermitian matrix, ascending eigenvalue."""
    w, v = np.linalg.eigh((h + np.conj(h).T) / 2.0)
    groups = [[0]]
    for i in range(1, w.size):
        if w[i] - w[groups[-1][-1]] <= DEGENERACY_GAP:
            groups[-1].append(i)
        else:
            groups.append([i])
    return [v[:, g] for g in groups]


def born_probabilities(doc: dict) -> tuple[float, ...]:
    """Outcome probabilities of the document's observable in its initial state."""
    psi = initial_vector(doc)
    return tuple(float(np.sum(np.abs(np.conj(b).T @ psi) ** 2)) for b in eigenspaces(observable_matrix(doc)))


def check(expect: Expectation, report: dict | None, exit_code: int | None = None) -> bool:
    """True when the report (and the CLI exit code, if any) is exactly what is expected.

    A repeatable scenario must pass every one of the 15 verdicts; a
    non-repeatable one must fail only the repeatability condition and list
    exactly the 11 repeatable-only checks as not applicable. In both cases
    the reported probabilities must match the independent Born vector.
    """
    if report is None or report.get("error") is not None:
        return False
    verdicts = report["verdicts"]
    labels = sorted(v["label"] for v in verdicts)
    failing = [v["label"] for v in verdicts if not v["passed"]]
    if expect.repeatable:
        shape_ok = (
            exit_code in (None, 0)
            and report["overall_pass"] is True
            and labels == sorted(ALWAYS_CHECKED + REPEATABLE_ONLY)
            and not failing
            and not report["not_applicable"]
        )
    else:
        shape_ok = (
            exit_code in (None, 1)
            and report["overall_pass"] is False
            and labels == sorted(ALWAYS_CHECKED)
            and failing == ["repeatability_condition"]
            and sorted(report["not_applicable"]) == sorted(REPEATABLE_ONLY)
        )
    got = report["probabilities"]
    return (
        shape_ok
        and got is not None
        and len(got) == len(expect.probabilities)
        and max(abs(a - b) for a, b in zip(got, expect.probabilities)) <= PROBABILITY_TOLERANCE
    )
