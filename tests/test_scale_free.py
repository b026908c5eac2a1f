"""Correct measurements of observables with large eigenvalues: every verdict passes, and a fault still fails.

The paper's identities depend only on the spectral projectors P_k, so the
checks read the outcome index N = sum_k k P_k, never A's eigenvalues. The
commutator and twin verdicts read A itself before, and their rounding grew
as eps·||A||: the two-level family below failed at a = 1e6, 1e8 and 1e10,
and the six-level family at s = 1e6 on all 50 seeds. A coherence put
between two eigenspaces of the final vector must fail whatever ||A|| is.
"""

import math

import numpy as np
import pytest

from qmeasure import dag, random_state_vector, random_unitary, run_pipeline, scenario_from_dict
from qmeasure import pipeline as pipeline_module
from qmeasure import tolerances as tol
from qmeasure.linalg import hermitize
from qmeasure.scenario import _pairs

PSI = (0.6, 0.8)
# ||[N, psi psi†]|| for N = P_1 is √2 ||P_0 psi|| ||P_1 psi||, with p = (0.02, 0.98) for every a.
INITIAL_NORM = math.sqrt(2 * 0.02 * 0.98)


def two_level_document(a: float) -> dict:
    """An ideal measurement of [[a/2 + 0.3, a/2 - 0.1], [a/2 - 0.1, a/2 + 0.3]], eigenvalues 0.4 and a + 0.2, on PSI."""
    matrix = [[a / 2 + 0.3, a / 2 - 0.1], [a / 2 - 0.1, a / 2 + 0.3]]
    return {
        "object_dim": 2,
        "observable": {"matrix": matrix},
        "initial_state": {"amplitudes": list(PSI)},
        "instrument": {"kind": "ideal"},
    }


def six_level_document(seed: int, s: float) -> dict:
    """A repeatable measurement of the Hermitian part of V diag(0, 0, 0, s, s, s) V†, V seeded, on a seeded state."""
    rng = np.random.default_rng(seed)
    v = random_unitary(6, rng)
    matrix = hermitize((v * np.array([0.0, 0.0, 0.0, s, s, s])) @ dag(v))
    return {
        "object_dim": 6,
        "observable": {"matrix": _pairs(matrix)},
        "initial_state": {"amplitudes": _pairs(random_state_vector(6, rng))},
        "instrument": {"kind": "repeatable", "seed": seed},
    }


def failing(report) -> list:
    return [(v.label, v.deviation) for v in report.verdicts if not v.passed]


@pytest.mark.parametrize("a", [1e6, 1e8, 1e10])
def test_a_two_level_observable_of_norm_a_passes_every_verdict(a):
    report = run_pipeline(scenario_from_dict(two_level_document(a)))
    assert report.error is None and failing(report) == [] and report.overall_pass
    assert len(report.probabilities) == 2 and len(report.verdicts) == len(pipeline_module.CHECKS)
    assert report.initial_commutator_norm == pytest.approx(INITIAL_NORM, rel=1e-9)


def test_a_six_level_observable_of_two_degenerate_terms_at_1e6_passes_every_verdict():
    failures = []
    for seed in range(50):
        report = run_pipeline(scenario_from_dict(six_level_document(seed, 1e6)))
        assert len(report.probabilities) == 2, seed
        if report.error is not None or not report.overall_pass:
            failures.append((seed, report.error, failing(report)))
    assert failures == []


@pytest.mark.parametrize("a", [1e-6, 1.0, 1e6, 1e10])
def test_a_coherence_between_the_eigenspaces_fails_compatibility_migration_at_every_scale(a):
    # Pointer column j of the final vector gains eta times column k, the outcome of weight 0.98 (term 0 for a < 0.2):
    # with M_k = P_k psi, rho_1 gains eta (P_k psi)(P_j psi)† and its adjoint, so ||[N, rho_1]|| reads
    # eta √2 ||P_j psi|| ||P_k psi||, and rho_2 gains eta p_k off its diagonal.
    eta = 1e-6
    run = pipeline_module._Run(scenario_from_dict(two_level_document(a)))
    k = int(np.argmax(run.born))
    m = run.final.reshape(run.dims).copy()
    m[:, 1 - k] += eta * m[:, k]
    run.__dict__["final"] = m.reshape(-1)
    object_comm, pointer_comm, deviation, tolerance = pipeline_module._compatibility_migration(run)
    assert object_comm == pytest.approx(eta * INITIAL_NORM, rel=1e-6)
    assert pointer_comm == pytest.approx(eta * math.sqrt(2) * 0.98, rel=1e-6)
    assert deviation == pointer_comm and deviation > 1e3 * tolerance == 1e3 * tol.COMMUTATOR

