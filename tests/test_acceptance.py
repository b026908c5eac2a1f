"""Acceptance suite: every shipped guarantee, one criterion per test.

Each test prints one PASS/FAIL line (visible with `pytest -s`); the
assertions carry the same conditions, so the suite is green exactly when
every criterion holds at its stated tolerance. The quantified criteria run
over 100 seeded random instances with object dimension up to 6 and up to
4 outcomes.
"""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qmeasure import (
    DensityOperator,
    PureState,
    basis_vector,
    embed_observable,
    evolve,
    generate_random_instance,
    lifted_incompatibility_entropy,
    make_ideal_transformers,
    observable_from_matrix,
    partial_trace,
    probabilities,
    read_pointer_tripartite,
    reconstruct,
    repeat_measurement_check,
    repeatability_violation,
    schmidt_decompose,
    shannon_entropy,
    uniform_superposition,
    verify_definite_values,
    von_neumann_entropy,
)
from qmeasure import EntropyReport, StateTransformerSet, cli
from qmeasure import tolerances as tol
from qmeasure.instruments import probability_gap
from reference import (
    commutator_norm,
    entanglement_of_pure_state,
    post_reading_state,
    purify,
    reduced_states,
    verify_conditional_states,
    verify_entanglement_as_incompatibility,
    verify_incompatibility_transfer,
    verify_probability_reproducibility,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
N_INSTANCES = 100


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def instances():
    prepared = []
    for seed in range(N_INSTANCES):
        scenario = generate_random_instance(seed, 6, 4)
        ts = scenario.transformers
        final = evolve(ts, scenario.initial_state)
        prepared.append(
            SimpleNamespace(
                seed=seed,
                obs=scenario.observable,
                psi=scenario.initial_state,
                ts=ts,
                final=final,
                dims=ts.composite_dims,
                born=probabilities(scenario.observable, scenario.initial_state),
            )
        )
    return prepared


@pytest.fixture(scope="module")
def swap_family():
    z = observable_from_matrix(np.diag([1.0, -1.0]).astype(complex))
    a0 = np.array([[0, 1], [0, 0]], dtype=complex)
    a1 = np.array([[0, 0], [1, 0]], dtype=complex)
    return StateTransformerSet.from_transformers((a0, a1), z)


def test_criterion_01_entanglement_equals_final_incompatibility(instances):
    worst = max(verify_entanglement_as_incompatibility(x.ts, x.psi).deviation for x in instances)
    passed = worst < 1e-9
    report("1 (final-state identity)", passed, f"worst deviation {worst:.3e} over {len(instances)} instances")
    assert passed


def test_criterion_02_initial_incompatibility_is_transferred(instances):
    worst = max(verify_incompatibility_transfer(x.ts, x.psi).deviation for x in instances)
    passed = worst < 1e-9
    report("2 (initial-state identity)", passed, f"worst deviation {worst:.3e}")
    assert passed


def test_criterion_03_probability_reproducibility(instances):
    worst = max(verify_probability_reproducibility(x.ts, x.psi) for x in instances)
    # negative control: drop the largest amplitude of a final vector and renormalise
    sample = next(x for x in instances if np.sum(x.born > 1e-12) > 1)
    corrupted = np.array(sample.final)
    corrupted[int(np.argmax(np.abs(corrupted)))] = 0.0
    control = probability_gap(sample.ts, sample.born, corrupted / np.linalg.norm(corrupted))
    passed = worst < 1e-10 and control > 1e-6
    report("3 (probability reproducibility)", passed, f"worst {worst:.3e}, corrupted control {control:.3e}")
    assert passed


def test_criterion_04_conditional_state_consistency(instances):
    worst = max(verify_conditional_states(x.ts, x.psi) for x in instances)
    passed = worst < 1e-10
    report("4 (conditional-state consistency)", passed, f"worst deviation {worst:.3e}")
    assert passed


def test_criterion_05_repeatability_equivalence(instances, swap_family):
    flags = [repeatability_violation(x.ts) <= tol.REPEATABILITY for x in instances]
    smallest = min(repeat_measurement_check(x.ts, x.final, x.born) for x in instances)
    plus = uniform_superposition(2)
    counterexample = repeat_measurement_check(
        swap_family, evolve(swap_family, plus), probabilities(swap_family.observable, plus)
    )
    passed = all(flags) and smallest >= 1.0 - 1e-10 and counterexample == 0.0
    report(
        "5 (repeatability equivalence)",
        passed,
        f"min repeat probability {smallest:.12f}, swap counterexample {counterexample}",
    )
    assert passed


def test_criterion_06_schmidt_canonical_form(instances):
    worst_overlap_gap = 0.0
    worst_definite = 0.0
    worst_match = 0.0
    counts_agree = True
    for x in instances:
        sf = schmidt_decompose(x.final, x.dims)
        overlap = abs(complex(np.vdot(x.final, reconstruct(sf))))
        worst_overlap_gap = max(worst_overlap_gap, 1.0 - overlap)
        definite = verify_definite_values(sf, x.obs, x.ts.pointer_observable)
        worst_definite = max(worst_definite, definite.max_left_violation, definite.max_right_violation)
        for c, k in zip(definite.schmidt_form.coefficients, definite.outcomes):
            worst_match = max(worst_match, abs(float(c) ** 2 - float(x.born[k])))
        counts_agree &= sf.coefficients.size == int(np.sum(x.born > 1e-12))
    passed = counts_agree and worst_overlap_gap < 1e-9 and worst_definite < 1e-9 and worst_match < 1e-9
    report(
        "6 (Schmidt canonical form)",
        passed,
        f"overlap gap {worst_overlap_gap:.3e}, definite-value violation {worst_definite:.3e}, "
        f"probability match {worst_match:.3e}",
    )
    assert passed


def test_criterion_07_entropy_ledger(instances):
    worst = 0.0
    for x in instances:
        h = shannon_entropy(np.clip(x.born, 0.0, None))
        entropies = EntropyReport.of_pure_vector(schmidt_decompose(x.final, x.dims).coefficients, h)
        pointer_marginal = reduced_states(x.final, x.dims)[1]  # its spectrum, against that of the Schmidt form
        worst = max(
            worst,
            abs(entropies.s2 - von_neumann_entropy(pointer_marginal)),
            abs(entropies.mutual_information - 2.0 * h),
        )
    passed = worst < 1e-9
    report("7 (entropy ledger)", passed, f"worst deviation {worst:.3e}")
    assert passed


def test_criterion_08_compatibility_migration(instances):
    worst = 0.0
    for x in instances:
        rho1, rho2 = reduced_states(x.final, x.dims)
        worst = max(worst, commutator_norm(x.obs, rho1), commutator_norm(x.ts.pointer_observable, rho2))
    passed = worst < 1e-10
    report("8 (compatibility migration)", passed, f"worst commutator norm {worst:.3e}")
    assert passed


def test_criterion_09_pointer_reading(instances):
    worst_marginal = 0.0
    worst_commutator = 0.0
    worst_incompatibility = 0.0
    for x in instances:
        tri, dims3 = read_pointer_tripartite(x.final, x.ts)
        h = shannon_entropy(np.clip(x.born, 0.0, None))
        rho = np.outer(tri, tri.conj())
        for factor in range(3):
            marginal = partial_trace(rho, dims3, keep=factor)
            s = von_neumann_entropy((marginal + marginal.conj().T) / 2)
            worst_marginal = max(worst_marginal, abs(s - h))
        rho12 = post_reading_state(tri, dims3)
        pair_dims = (dims3[0], dims3[1])
        worst_commutator = max(
            worst_commutator,
            commutator_norm(embed_observable(x.obs, pair_dims, 0), rho12),
            commutator_norm(embed_observable(x.ts.pointer_observable, pair_dims, 1), rho12),
        )
        lifted = embed_observable(x.obs, dims3, 0)
        worst_incompatibility = max(
            worst_incompatibility, abs(lifted_incompatibility_entropy(lifted, tri) - h)
        )
    passed = worst_marginal < 1e-9 and worst_commutator < 1e-10 and worst_incompatibility < 1e-9
    report(
        "9 (pointer reading)",
        passed,
        f"marginals {worst_marginal:.3e}, commutators {worst_commutator:.3e}, "
        f"incompatibility {worst_incompatibility:.3e}",
    )
    assert passed


def test_criterion_10_closed_form_spot_values():
    z = observable_from_matrix(np.diag([1.0, -1.0]).astype(complex))
    ts = make_ideal_transformers(z)

    balanced = evolve(ts, uniform_superposition(2))
    e_balanced = entanglement_of_pure_state(balanced, (2, 2))

    unbalanced_state = PureState(np.array([np.sqrt(0.3), np.sqrt(0.7)], dtype=complex))
    unbalanced = evolve(ts, unbalanced_state)
    e_unbalanced = entanglement_of_pure_state(unbalanced, (2, 2))
    target = -(0.3 * np.log2(0.3) + 0.7 * np.log2(0.7))  # 0.8812908992...

    eigen = evolve(ts, PureState(basis_vector(2, 0)))
    e_eigen = entanglement_of_pure_state(eigen, (2, 2))

    passed = abs(e_balanced - 1.0) < 1e-12 and abs(e_unbalanced - target) < 1e-9 and abs(e_eigen) < 1e-12
    report(
        "10 (closed-form spot values)",
        passed,
        f"balanced {e_balanced:.15f}, unbalanced {e_unbalanced:.12f} vs {target:.12f}, eigenstate {e_eigen:.3e}",
    )
    assert passed


def test_criterion_11_purification_round_trip():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 6))
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = z @ z.conj().T
        rho = rho / rho.trace().real
        vec, dims = purify(DensityOperator(rho))
        back = partial_trace(np.outer(vec, vec.conj()), dims, keep=0)
        worst = max(worst, float(np.linalg.norm(back - rho)))
    passed = worst < 1e-10
    report("11 (purification round trip)", passed, f"worst residual {worst:.3e} over 50 states")
    assert passed


def test_criterion_12_cli_contract(tmp_path, monkeypatch):
    goldens = ["ideal_z_uniform.json", "ideal_z_unbalanced.json"]
    stable = True
    for name in goldens:
        first = tmp_path / f"first_{name}"
        second = tmp_path / f"second_{name}"
        for target in (first, second):
            code = cli.main(["run", str(SCENARIOS / name), "--format", "json", "--out", str(target)])
            stable &= code == 0
        stable &= first.read_bytes() == second.read_bytes()

    exit_pass = cli.main(["run", str(SCENARIOS / "ideal_z_uniform.json"), "--out", str(tmp_path / "p.txt")])
    exit_fail = cli.main(["run", str(SCENARIOS / "swap_nonrepeatable.json"), "--out", str(tmp_path / "f.txt")])
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    exit_invalid = cli.main(["run", str(bad)])

    from qmeasure import pipeline as pipeline_module
    from qmeasure.errors import NoDefiniteValue

    def explode(*args, **kwargs):
        raise NoDefiniteValue("synthetic")

    monkeypatch.setattr(pipeline_module, "schmidt_decompose", explode)
    exit_numerical = cli.main(["run", str(SCENARIOS / "ideal_z_uniform.json"), "--out", str(tmp_path / "e.txt")])
    monkeypatch.undo()

    codes = (exit_pass, exit_fail, exit_invalid, exit_numerical)
    passed = stable and codes == (0, 1, 2, 3)
    report("12 (CLI contract)", passed, f"byte-stable={stable}, exit codes {codes}")
    assert passed
