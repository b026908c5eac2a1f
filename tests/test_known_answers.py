"""Entropies of full runs at large d against their closed forms.

Each scenario is a seeded Haar eigenbasis with a repeatable family and a
state whose Born vector is chosen, so every entropy of the run has a
known value: S1, H(p), and both sides of the three entropy identities.
A fault that moves both sides of a verdict alike, such as a scale on
every entropy or a raised entropy cutoff, keeps the verdict passing but
moves these values off the closed form.
"""

import math

import numpy as np
import pytest

from qmeasure import (
    Observable,
    PureState,
    Scenario,
    make_repeatable_transformers,
    random_state_vector,
    random_unitary,
    run_pipeline,
)

ENTROPY_LABELS = (
    "entanglement_incompatibility_final",
    "entanglement_incompatibility_initial",
    "pointer_reading_marginals",
    "pointer_reading_incompatibility",
)
# Sums of a few dozen O(1) terms, taken in other orders than the closed form: rounding is near 1e-15.
CLOSED_FORM_TOL = 1e-12


def known_weights_scenario(seed: int, sizes: tuple[int, ...], weights: tuple[float, ...]) -> Scenario:
    """Observable with a Haar eigenbasis and eigenspaces of the given sizes, and a state with Born vector ``weights``."""
    rng = np.random.default_rng(seed)
    dim = sum(sizes)
    obs = Observable(tuple(float(k) for k in range(len(sizes))), random_unitary(dim, rng), sizes)
    coordinates = np.concatenate([np.sqrt(p) * random_state_vector(r, rng) for p, r in zip(weights, sizes)])
    return Scenario(PureState(obs.basis @ coordinates), make_repeatable_transformers(obs, seed))


def binary_entropy(p: float) -> float:
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


@pytest.mark.parametrize(
    "seed, sizes, weights, expected",
    [
        (240, (10,) * 24, (1 / 24,) * 24, math.log2(24)),
        (220, (110, 110), (1e-3, 0.999), binary_entropy(1e-3)),
    ],
    ids=["uniform_24_terms_d240", "binary_1e-3_d220"],
)
def test_every_entropy_of_the_run_is_the_closed_form(seed, sizes, weights, expected):
    report = run_pipeline(known_weights_scenario(seed, sizes, weights))
    assert report.overall_pass and report.error is None
    assert abs(report.entropies["s1"] - expected) < CLOSED_FORM_TOL
    assert abs(report.entropies["shannon_pk"] - expected) < CLOSED_FORM_TOL
    verdicts = {v.label: v for v in report.verdicts}
    for label in ENTROPY_LABELS:
        assert abs(verdicts[label].lhs - expected) < CLOSED_FORM_TOL, label
        assert abs(verdicts[label].rhs - expected) < CLOSED_FORM_TOL, label


@pytest.mark.parametrize(
    "seed, sizes, weights",
    [(220, (110, 110), (1e-3, 0.999)), (221, (90, 130), (0.3, 0.7))],
    ids=["binary_1e-3_d220", "binary_0.3_d220"],
)
def test_the_initial_commutator_of_two_terms_is_the_closed_form(seed, sizes, weights):
    # The norm reads the outcome index N = P_1: [N, psi psi†] = P_1 psi psi† P_0 - h.c., whose Frobenius norm is
    # √(2 p_0 p_1), that of [A, psi psi†] divided by |a_1 - a_0|; the eigenvalues here are 0 and 1.
    report = run_pipeline(known_weights_scenario(seed, sizes, weights))
    assert report.error is None
    assert abs(report.initial_commutator_norm - math.sqrt(2 * weights[0] * weights[1])) < CLOSED_FORM_TOL
