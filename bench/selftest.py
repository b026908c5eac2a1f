#!/usr/bin/env python3
"""Self-test of the benchmark's gate and tracer. Run from the repository root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest

import run

sys.path.insert(0, str(run.SRC))

import gate  # noqa: E402
import qmeasure  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKDIR = run.OUT / "selftest"
TINY_POOL = 6


def tiny_pool(name: str) -> list:
    return workloads.WORKLOADS[name].build(7, WORKDIR / name, pool_size=TINY_POOL)


class TinyRuns(unittest.TestCase):
    def test_every_workload_completes_with_no_failure(self):
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                pool = tiny_pool(name)
                loop = run.timed_loop(workloads.WORKLOADS[name], pool, passes=1)
                self.assertEqual(loop.attempted, len(pool))
                self.assertEqual(loop.failed, 0, loop.failures)
                self.assertEqual(len(loop.digest), 64)

    def test_cli_pool_mixes_repeatable_and_nonrepeatable(self):
        kinds = {item.expect.repeatable for item in tiny_pool("cli_docs_d8")}
        self.assertEqual(kinds, {True, False})

    def test_same_seed_same_inputs(self):
        first = [item.arg for item in tiny_pool("batch_d16")]
        self.assertEqual(first, [item.arg for item in tiny_pool("batch_d16")])


class GateCountsWrongReports(unittest.TestCase):
    def _failed(self, name: str, corrupt) -> int:
        pool = tiny_pool(name)
        pool[0] = dataclasses.replace(pool[0], expect=corrupt(pool[0].expect))
        return run.timed_loop(workloads.WORKLOADS[name], pool, passes=1).failed

    def test_flipped_kind_is_a_failure(self):
        for name in ("batch_d6", "cli_docs_d8"):
            with self.subTest(workload=name):
                self.assertEqual(self._failed(name, lambda e: dataclasses.replace(e, repeatable=not e.repeatable)), 1)

    def test_perturbed_probability_is_a_failure(self):
        def perturb(expect):
            probs = list(expect.probabilities)
            probs[0] += 1e-6
            return dataclasses.replace(expect, probabilities=tuple(probs))

        self.assertEqual(self._failed("batch_d16", perturb), 1)

    def test_nonrepeatable_committed_scenario_passes_only_as_nonrepeatable(self):
        pool = tiny_pool("cli_docs_d8")
        swap = next(i for i in pool if i.arg.endswith("swap_nonrepeatable.json"))
        report, code = workloads.CliDocs.result(workloads.WORKLOADS["cli_docs_d8"].run(swap))
        self.assertEqual(code, 1)
        self.assertTrue(gate.check(swap.expect, report, code))
        self.assertFalse(gate.check(dataclasses.replace(swap.expect, repeatable=True), report, code))


class Tracing(unittest.TestCase):
    def _traced(self, name: str) -> tuple[tracing.Tracer, run.Loop]:
        pool = tiny_pool(name)
        tracer = tracing.Tracer()
        with tracing.instrument(tracer, qmeasure):
            loop = run.timed_loop(workloads.WORKLOADS[name], pool, passes=1, tracer=tracer)
        return tracer, loop

    def test_spans_nest_inside_their_parents(self):
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                tracer, loop = self._traced(name)
                self.assertEqual(tracing.nesting_errors(tracer.spans), [])
                roots = [s for s in tracer.spans if s[tracing.PARENT] < 0]
                self.assertEqual([s[tracing.NAME] for s in roots], ["op"] * loop.attempted)
                self.assertGreater(len(tracer.spans), 10 * loop.attempted)

    def test_nesting_check_catches_a_child_outlasting_its_parent(self):
        spans = [["op", 0.0, 1.0, -1, 0], ["child", 0.5, 1.5, 0, 0]]
        self.assertEqual(len(tracing.nesting_errors(spans)), 1)

    def test_instrumentation_is_removed_afterwards(self):
        before = qmeasure.pipeline.run_pipeline
        self._traced("batch_d6")
        self.assertIs(qmeasure.pipeline.run_pipeline, before)
        self.assertIs(qmeasure.information.embed_observable, qmeasure.observables.embed_observable)

    def test_every_layer_metric_and_exact_counts(self):
        first, second = (tracing.layer_metrics(tracer, loop.attempted) for tracer, loop in
                         (self._traced("batch_d6"), self._traced("batch_d6")))
        self.assertEqual(set(first), set(tracing.LAYER_METRICS))
        for metric, (value, unit) in first.items():
            if unit == "count":
                self.assertEqual(value, second[metric][0], metric)
        self.assertEqual(first["instruments.evolve_per_scenario"][0], 5.0)
        self.assertGreater(first["pipeline.run_ms"][0], first["pipeline.self_ms"][0])


class BareDirectory(unittest.TestCase):
    def test_fails_without_a_result_when_the_sources_are_missing(self):
        bare = WORKDIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        cmd = json.loads((bare / "BENCHMARK.json").read_text())["command"]
        done = subprocess.run(
            [sys.executable, *cmd[1:], "--workload", "batch_d6", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=60,
        )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
