"""Seeded inputs and the operation of each benchmark workload.

One operation is one scenario carried end to end the way its user path
carries it. The benchmark's seed picks the scenarios; the program only
receives the generated seeds and documents.

Pools are stratified: cost grows steeply with the shape of a scenario
(object dim d, outcome count n, number of outcomes the state supports),
so a pool of consecutive seeds would measure a different mix of shapes
for every benchmark seed. Instead every pool holds the same multiset of
shapes, the generator's own distribution rounded to the pool size, and the
seed chooses which generated scenario fills each slot.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import qmeasure
import qmeasure.cli
from gate import Expectation, born_probabilities, eigenspaces, observable_matrix

ROOT = Path(__file__).resolve().parent.parent

# Scenario seeds of benchmark seed s start at s * SEED_STRIDE; a pool never
# scans more than this many seeds.
SEED_STRIDE = 100_000
# Outcomes at or below this probability are outside the state's support.
NULL_PROBABILITY = 1e-12

# The committed scenarios and whether their instrument is repeatable.
COMMITTED_SCENARIOS = {
    "ideal_z_basis0.json": True,
    "ideal_z_uniform.json": True,
    "ideal_z_unbalanced.json": True,
    "repeatable_degenerate.json": True,
    "swap_nonrepeatable.json": False,
}


@dataclass(frozen=True)
class Item:
    """One pool entry: the program's input and the report it must produce."""

    arg: Any  # a generator seed (batch) or a scenario file path (cli)
    expect: Expectation | None


def shape_quota(d1_max: int, outcomes_max: int, size: int) -> dict[tuple[int, int, int], int]:
    """How many pool slots each (d, n, support) shape gets.

    generate_random_instance draws d uniformly from 2..d1_max, n uniformly
    from 2..min(outcomes_max, d) and the support size uniformly from 1..n.
    Slot j of the pool takes the shape at quantile (j + 1/2) / size of that
    distribution, with shapes ordered by tripartite dimension d*n*support,
    so the pool spans the cost distribution evenly, tail included.
    """
    exact = {}
    for d in range(2, d1_max + 1):
        n_hi = min(outcomes_max, d)
        for n in range(2, n_hi + 1):
            for support in range(1, n + 1):
                exact[(d, n, support)] = size / ((d1_max - 1) * (n_hi - 1) * n)
    quota = dict.fromkeys(exact, 0)
    slot, cumulative = 0, 0.0
    for shape in sorted(exact, key=lambda s: (s[0] * s[1] * s[2], s)):
        cumulative += exact[shape]
        while slot < size and slot + 0.5 <= cumulative:
            quota[shape] += 1
            slot += 1
    return quota


def stratified_scenarios(
    seed: int, d1_max: int, outcomes_max: int, size: int
) -> list[tuple[int, dict, tuple[float, ...]]]:
    """(generator seed, document, Born probabilities) for each pool slot, ordered by shape."""
    quota = shape_quota(d1_max, outcomes_max, size)
    chosen = []
    for s in range(seed * SEED_STRIDE, (seed + 1) * SEED_STRIDE):
        doc = qmeasure.generate_random_instance(s, d1_max, outcomes_max).to_dict()
        probs = born_probabilities(doc)
        shape = (doc["object_dim"], len(probs), sum(p > NULL_PROBABILITY for p in probs))
        if quota.get(shape, 0) > 0:
            quota[shape] -= 1
            chosen.append((shape, s, doc, probs))
            if len(chosen) == size:
                return [(s, doc, probs) for _, s, doc, probs in sorted(chosen, key=lambda c: (c[0], c[1]))]
    raise RuntimeError(f"{SEED_STRIDE} seeds did not fill the shape quota of a {size}-scenario pool")


def canonical(report: dict) -> str:
    """Byte-stable form of a report with its timing field left out."""
    return json.dumps({k: v for k, v in report.items() if k != "duration_seconds"}, sort_keys=True)


@dataclass(frozen=True)
class Batch:
    """generate_random_instance -> run_pipeline -> report_to_dict, the `batch` path."""

    d1_max: int
    outcomes_max: int
    pool_size: int

    def build(self, seed: int, workdir: Path, pool_size: int | None = None) -> list[Item]:
        size = pool_size or self.pool_size
        return [
            Item(s, Expectation(True, probs))
            for s, _, probs in stratified_scenarios(seed, self.d1_max, self.outcomes_max, size)
        ]

    def run(self, item: Item) -> dict:
        scenario = qmeasure.generate_random_instance(item.arg, self.d1_max, self.outcomes_max)
        return qmeasure.report_to_dict(qmeasure.run_pipeline(scenario))

    @staticmethod
    def result(raw: dict) -> tuple[dict | None, int | None]:
        return raw, None


@dataclass(frozen=True)
class CliDocs:
    """`qmeasure run <doc> --format json` in-process, on seeded and committed documents.

    Generated documents rotate through the ideal, repeatable and custom
    non-repeatable (A_k = U P_k with a seeded unitary U) instrument kinds.
    """

    KINDS = ("ideal", "repeatable", "custom")

    d1_max: int
    outcomes_max: int
    pool_size: int

    def build(self, seed: int, workdir: Path, pool_size: int | None = None) -> list[Item]:
        size = pool_size or self.pool_size
        workdir.mkdir(parents=True, exist_ok=True)
        items = []
        scenarios = stratified_scenarios(seed, self.d1_max, self.outcomes_max, size)
        for i, (s, doc, probs) in enumerate(scenarios):
            kind = self.KINDS[i % len(self.KINDS)]
            if kind == "ideal":
                doc["instrument"] = {"kind": "ideal"}
            elif kind == "custom":
                doc["instrument"] = {"kind": "custom", "transformers": nonrepeatable_transformers(doc, s)}
            path = workdir / f"doc{i:04d}_{kind}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            items.append(Item(str(path), Expectation(kind != "custom", probs)))
        for name, repeatable in COMMITTED_SCENARIOS.items():
            path = ROOT / "scenarios" / name
            doc = json.loads(path.read_text(encoding="utf-8"))
            items.append(Item(str(path), Expectation(repeatable, born_probabilities(doc))))
        return items

    def run(self, item: Item) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = qmeasure.cli.main(["run", item.arg, "--format", "json"])
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        return code, out.getvalue()

    @staticmethod
    def result(raw: tuple[int, str]) -> tuple[dict | None, int | None]:
        code, text = raw
        try:
            return json.loads(text), code
        except ValueError:
            return None, code


def nonrepeatable_transformers(doc: dict, seed: int) -> list:
    """[re, im] matrices of A_k = U P_k: a valid instrument that disturbs every eigenspace."""
    rng = np.random.default_rng((0x5EED, seed))
    dim = doc["object_dim"]
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    mats = [u @ b @ np.conj(b).T for b in eigenspaces(observable_matrix(doc))]
    return [[[[float(z.real), float(z.imag)] for z in row] for row in m] for m in mats]


WORKLOADS = {
    "batch_d6": Batch(6, 4, 200),
    "batch_d16": Batch(16, 6, 150),
    "cli_docs_d8": CliDocs(8, 4, 150),
}
