"""Mutation testing of the verdicts: one-line mutants of src/, each run against Tier-1.

pytest does not collect this file (its name does not match ``test_*.py``).
Run it from anywhere, with the interpreter the tests use:

    python tests/mutation.py            # every mutant, two at a time
    python tests/mutation.py --jobs 1 M5 M6

For each mutant it copies ``src/``, ``tests/``, ``scenarios/``, README.md
and pyproject.toml into a temporary directory, replaces the mutant's
``old`` text with ``new`` in one file (``old`` must occur there exactly
once), and runs ``python -m pytest -x -q`` in that copy. A failing run
kills the mutant; a passing one means it survived. It prints one line per
mutant, the score and the run time, and exits 1 if any mutant survived or
the unmutated copy does not pass.

The table holds the numbered mutants M1–M11 of the roadmap, one mutant
per term of every ``max`` that makes a verdict's deviation in pipeline.py,
three on the repeat-certainty product (C1–C3), one per guard that must
reject a NaN (N1, N2, N4), each written back to the comparison that a NaN
passes, two on the branch-weight entropy kernel (L1, L2), two
common-mode faults that move both sides of every entropy verdict alike
(H1, H2), which only closed-form values can see, and one on the family
a scenario holds (P1), which parse, and generation through parse's
reader, must build from the document's instrument, and two on the bulk
paths of documents and reports (B1, B2), which must accept, reject and
write what the per-entry paths do, one on the report's strings for a
non-finite computed value (J1), without which a report either holds a
bare NaN or Infinity or cannot be written, and two on the object rule of
documents, which must reject a field that no form of its block reads
(O1) and a field that only another form of its block reads (F1), and
one that brings A's eigenvalues back where the checks read the outcome
index N = sum_k k P_k: twin weights of k, under which the outcome-0 term
drops out of the twin residual (W1), and three on the scale of parse and
of a custom family: the degeneracy gap compared without dividing it by
the matrix's scale (G1), the spectrum taken of the matrix as given, not
of the matrix divided by its largest modulus (E1), and a family whose
entries pass 2 let into its products (T1). I1 (N built from the
eigenvalues) and I2 (the initial commutator norm taken of [A, rho]) are
retired: an observable holds no eigenvalues, so each would raise an
AttributeError, not make a fault. N3 (validate_observable letting
non-finite eigenvalues through) is retired with the rule it mutated. The
``max`` that sets the text report's column width is layout, not a
verdict, and has no mutant. P2, generation's family drawn from its own
seed, left with generation's own family call: there is one construction
path, and P1 covers it. M4, the W†W
density check of the post-reading factor, left with its check:
pointer_reading_marginals checks the reader marginal's spectrum as a
distribution, and W†W is that marginal's complex conjugate, so a failure
there ends the run first. R3 reads the reading's marginals with the
wrong party as rows, a fault whose squared singular values still sum to 1.
``tests/test_mutation_table.py`` checks that every ``old`` text still
occurs exactly once. See DeMillo, Lipton and Sayward, IEEE Computer 11(4),
1978.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scenarios", "README.md", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/qmeasure
    old: str
    new: str
    what: str


MUTANTS = (
    Mutant(
        "M1", "information.py",
        "xw = (obs.outcome_index @ _first_factor(obs, w))", "xw = (obs.outcome_index.T @ _first_factor(obs, w))",
        "low_rank_commutator_norm's first-factor product with the outcome index transposed",
    ),
    Mutant(
        "M3", "pipeline.py",
        "max(object_comm, pointer_comm)", "pointer_comm",
        "compatibility_migration without its object side",
    ),
    Mutant(
        "M3b", "pipeline.py",
        "max(object_comm, pointer_comm)", "object_comm",
        "compatibility_migration without its pointer side",
    ),
    Mutant(
        "M5", "pipeline.py",
        "max(abs(entanglement - rhs), abs(entanglement - h_born), abs(rhs - h_born))",
        "max(abs(entanglement - h_born), abs(rhs - h_born))",
        "entanglement_incompatibility_final without |E - lifted|",
    ),
    Mutant(
        "M5b", "pipeline.py",
        "max(abs(entanglement - rhs), abs(entanglement - h_born), abs(rhs - h_born))",
        "max(abs(entanglement - rhs), abs(rhs - h_born))",
        "entanglement_incompatibility_final without |E - H(p)|",
    ),
    Mutant(
        "M5c", "pipeline.py",
        "max(abs(entanglement - rhs), abs(entanglement - h_born), abs(rhs - h_born))",
        "max(abs(entanglement - rhs), abs(entanglement - h_born))",
        "entanglement_incompatibility_final without |lifted - H(p)|",
    ),
    Mutant(
        "M6", "information.py",
        "if not damage < tol.DEFINITE_VALUE:", "if damage > float('inf'):",
        "read_pointer_tripartite without its coherence guard",
    ),
    Mutant(
        "M7", "pipeline.py",
        "max(twin_object, twin_pointer)", "twin_object",
        "twin_diagonality without its pointer side",
    ),
    Mutant(
        "M7b", "pipeline.py",
        "max(twin_object, twin_pointer)", "twin_pointer",
        "twin_diagonality without its object side",
    ),
    Mutant(
        "W1", "pipeline.py",
        "run.definite.outcomes + 1.0", "run.definite.outcomes",
        "twin_diagonality weighs each twin by its outcome k, so the outcome-0 term drops out",
    ),
    Mutant(
        "G1", "observables.py",
        "tol.DEGENERACY_GAP / scale", "tol.DEGENERACY_GAP",
        "observable_from_matrix compares the gap of A / s with the unscaled degeneracy gap",
    ),
    Mutant(
        "E1", "observables.py",
        "np.linalg.eigh(hermitize(unit))", "np.linalg.eigh(hermitize(h))",
        "observable_from_matrix takes the spectrum of the matrix as given, where A + A† overflows",
    ),
    Mutant(
        "T1", "instruments.py",
        "if not largest <= 2.0:", "if False:",
        "from_transformers lets an entry past 2 into its products, where they overflow",
    ),
    Mutant(
        "M8", "pipeline.py",
        "max(obj_after, ptr_after)", "ptr_after",
        "pointer_reading_commutators without its object side",
    ),
    Mutant(
        "M8b", "pipeline.py",
        "max(obj_after, ptr_after)", "obj_after",
        "pointer_reading_commutators without its pointer side",
    ),
    Mutant(
        "M9", "pipeline.py",
        "max(left, right)", "left",
        "definite_values without its right residual",
    ),
    Mutant(
        "M9b", "pipeline.py",
        "max(left, right)", "right",
        "definite_values without its left residual",
    ),
    Mutant(
        "M10", "schmidt.py",
        "np.maximum(left_residuals, right_residuals) >= tol.DEFINITE_VALUE",
        "left_residuals >= tol.DEFINITE_VALUE",
        "verify_definite_values fits terms without the pointer residual",
    ),
    Mutant(
        "M11", "observables.py",
        "    check_orthonormal_columns(obs.basis)", "    check_orthonormal_columns",
        "validate_observable without its completeness check",
    ),
    Mutant(
        "R0", "pipeline.py",
        "for s in marginal_entropies)", "for s in marginal_entropies[1:])",
        "pointer_reading_marginals without the object marginal",
    ),
    Mutant(
        "R1", "pipeline.py",
        "for s in marginal_entropies)", "for s in marginal_entropies[::2])",
        "pointer_reading_marginals without the pointer marginal",
    ),
    Mutant(
        "R2", "pipeline.py",
        "for s in marginal_entropies)", "for s in marginal_entropies[:2])",
        "pointer_reading_marginals without the reader marginal",
    ),
    Mutant(
        "R3", "pipeline.py",
        "rows = t.transpose(order).reshape", "rows = t.reshape",
        "pointer_reading_marginals reads each party's rows in the reading's own axis order",
    ),
    Mutant(
        "H0", "information.py",
        "return max(0.0, float(-(kept * np.log2(kept)).sum()))", "return float(-(kept * np.log2(kept)).sum())",
        "shannon_entropy without its clamp at 0",
    ),
    Mutant(
        "H1", "information.py",
        "return max(0.0, float(-(kept * np.log2(kept)).sum()))",
        "return 1.001 * max(0.0, float(-(kept * np.log2(kept)).sum()))",
        "shannon_entropy scaled by 1.001, on both sides of every entropy verdict",
    ),
    Mutant(
        "H2", "tolerances.py",
        "ENTROPY_CUTOFF = 1e-12", "ENTROPY_CUTOFF = 1e-2",
        "shannon_entropy drops every weight below 1e-2, on both sides of every entropy verdict",
    ),
    Mutant(
        "L1", "information.py",
        "c = obs.adjoint @ _first_factor(obs, v)", "c = obs.basis.T @ _first_factor(obs, v)",
        "lifted_incompatibility_entropy's branch coordinates without the conjugate",
    ),
    Mutant(
        "L2", "information.py",
        "v, _ = check_unit_norm(vector)", "v = np.asarray(vector, dtype=complex).reshape(-1)",
        "lifted_incompatibility_entropy without its unit-norm guard",
    ),
    Mutant(
        "S1", "schmidt.py",
        "np.linalg.svd(m, full_matrices=False)", "np.linalg.svd(np.conj(m), full_matrices=False)",
        "schmidt_decompose's left vectors from the SVD of conj(M)",
    ),
    Mutant(
        "C1", "instruments.py",
        "np.vecdot(again, again * ts.observable.indicator, axis=0)", "np.vecdot(again, again, axis=0)",
        "repeat_measurement_check without the term mask of the repetition",
    ),
    Mutant(
        "C2", "instruments.py",
        "confirmed[detectable] / weights[detectable]", "confirmed[detectable]",
        "repeat_measurement_check without the division by |A_k psi|²",
    ),
    Mutant(
        "C3", "instruments.py",
        "if null.size:", "if False:",
        "repeat_measurement_check without its null-outcome guard",
    ),
    Mutant(
        "P1", "scenario.py",
        "return make_repeatable_transformers(obs, seed)", "return make_ideal_transformers(obs)",
        "_parse_instrument builds the ideal family for the repeatable kind",
    ),
    Mutant(
        "B1", "scenario.py",
        "if not kinds <= _NUMBER_TYPES:", "if not kinds <= _NUMBER_TYPES | {bool}:",
        "the bulk parse without its exact-type test, so a true entry reads as 1.0",
    ),
    Mutant(
        "B2", "pipeline.py",
        'return text if "n" not in text else None', "return text",
        "the report encoder's runs of numbers without their finiteness test, so NaN is written as nan",
    ),
    Mutant(
        "J1", "pipeline.py",
        "return x if x is None or math.isfinite(x) else json.dumps(x)", "return x",
        "reports without the string for a non-finite computed value, so a NaN or inf cannot be written",
    ),
    Mutant(
        "O1", "scenario.py",
        "unknown = set(spec) - fields", "unknown = set()",
        "the document's objects without their unknown-field test, so a misspelled key is ignored",
    ),
    Mutant(
        "F1", "scenario.py",
        "_object(spec, block, forms[name])", "_object(spec, block, set().union(*forms.values()))",
        "each block takes the fields of all its forms, so a field of another form runs unread",
    ),
    Mutant(
        "N1", "linalg.py",
        "if not abs(norm - 1.0) <= tol.NORMALIZATION:", "if abs(norm - 1.0) > tol.NORMALIZATION:",
        "check_unit_norm lets a NaN norm through",
    ),
    Mutant(
        "N2", "information.py",
        "if not abs(total - 1.0) <= tol.DISTRIBUTION_SUM:", "if abs(total - 1.0) > tol.DISTRIBUTION_SUM:",
        "shannon_entropy lets a NaN entry through",
    ),
    Mutant(
        "N4", "information.py",
        "if not damage < tol.DEFINITE_VALUE:", "if damage >= tol.DEFINITE_VALUE:",
        "read_pointer_tripartite's coherence guard lets a NaN through",
    ),
)


def run_tier1(root: Path) -> bool:
    """Whether Tier-1 passes in the tree at root, without the table's own check.

    That check fails on every mutated copy, whose mutant text is no longer there, so it would kill them all.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--ignore=tests/test_mutation_table.py"]
    return subprocess.run(command, cwd=root, env=env, capture_output=True).returncode == 0


def copy_tree(target: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, target / name, ignore=ignore)
        else:
            shutil.copy2(source, target / name)


def apply(mutant: Mutant, root: Path) -> None:
    path = root / "src" / "qmeasure" / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def killed(mutant: Mutant | None) -> bool:
    """Whether Tier-1 fails on a copy of the tree with the mutant applied (None: no mutant)."""
    with tempfile.TemporaryDirectory(prefix="qmeasure-mutant-") as tmp:
        root = Path(tmp)
        copy_tree(root)
        if mutant is not None:
            apply(mutant, root)
        return not run_tier1(root)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--jobs", type=int, default=2, help="Tier-1 runs at a time (default 2)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]

    started = time.perf_counter()
    if killed(None):
        print("the unmutated tree fails Tier-1; no mutant was run")
        return 1
    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        outcomes = list(pool.map(killed, chosen))
    for mutant, dead in zip(chosen, outcomes):
        print(f"{mutant.name:<4} {'killed  ' if dead else 'SURVIVED'} {mutant.what}")
    print(f"score: {sum(outcomes)}/{len(chosen)} killed in {time.perf_counter() - started:.0f} s")
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
