#!/usr/bin/env python3
"""qmeasure benchmark: seeded closed-loop workloads, checked outputs, traced per-layer breakdown.

Run from the repository root:

    python3 bench/run.py --workload batch_d16 --seed 3 --seconds 20 --trace 0

One process, one caller, one BLAS thread. The operations of a workload's
pool run back to back (a closed loop) in whole passes over the pool, for
at most --seconds. Every report is checked by the gate in gate.py.

--trace 0 prints the end-to-end metrics; --trace 1 runs the loop untraced
for half the time, then the same passes again with spans around the calls
into each qmeasure module, and prints the per-layer metrics. The last line
of stdout is the JSON result; a fuller record (environment, sample counts,
report digest) goes to .bench_build/qmeasure-bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "qmeasure-bench"
WORKLOAD_NAMES = ("batch_d6", "batch_d16", "cli_docs_d8")

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# setup_s is the median of this many fresh interpreters before the timed loop
# and as many again after it (plus one untimed warm-up): a cold start's cost
# varies by tens of percent from second to second on a shared host.
SETUP_PROBES = 10
WARMUP_OPS = 5
# What a fresh interpreter imports before its first operation.
ENTRY_MODULE = {"cli_docs_d8": "qmeasure.cli"}


@dataclass
class Loop:
    """Outcome of a timed loop: per-pool-item operation times and the gate's tally."""

    times: list[list[float]]
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    failures: list[str] = field(default_factory=list)

    @property
    def samples(self) -> int:
        return sum(len(t) for t in self.times)

    @property
    def op_seconds(self) -> float:
        return sum(sum(t) for t in self.times)


def timed_loop(workload, pool, seconds: float | None = None, passes: int | None = None, tracer=None) -> Loop:
    """Run whole passes over the pool: a fixed number, or as many as fit in `seconds` (at least one).

    Only the operation itself is timed; the gate and the digest of the
    first pass's reports run between operations.
    """
    import gate
    import workloads

    loop = Loop([[] for _ in pool])
    run = workload.run if tracer is None else tracer.wrap("op", workload.run)
    hasher = hashlib.sha256()
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        for i, item in enumerate(pool):
            if tracer is not None:
                tracer.op = loop.attempted
            t0 = time.perf_counter()
            try:
                raw, error = run(item), None
            except Exception as exc:  # a crash is a failed operation, not a failed benchmark
                raw, error = None, exc
            dt = time.perf_counter() - t0
            loop.times[i].append(dt)
            loop.attempted += 1
            report, code = (None, None) if raw is None else workload.result(raw)
            if not gate.check(item.expect, report, code):
                loop.failed += 1
                if len(loop.failures) < 5:
                    loop.failures.append(f"{item.arg}: {error!r}" if error else f"{item.arg}: exit {code}")
            if loop.passes == 0:
                hasher.update((workloads.canonical(report) if report is not None else "null").encode())
        loop.passes += 1
        if passes is not None:
            if loop.passes >= passes:
                break
        elif time.perf_counter() - started + (time.perf_counter() - pass_started) > seconds:
            break
    loop.digest = hasher.hexdigest()
    return loop


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_probes(workload_name: str, first_arg, count: int) -> list[float]:
    """Seconds for `count` fresh interpreters to import qmeasure and run the first, cold operation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name, "--probe", json.dumps(first_arg)]
    values = []
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        values.append(float(done.stdout.strip().splitlines()[-1]))
    return values


def probe(workload_name: str, arg) -> int:
    """Child side of setup_seconds: time a cold import plus one operation."""
    import importlib

    t0 = time.perf_counter()
    importlib.import_module(ENTRY_MODULE.get(workload_name, "qmeasure"))
    t1 = time.perf_counter()
    import workloads

    item = workloads.Item(arg, None)
    t2 = time.perf_counter()
    workloads.WORKLOADS[workload_name].run(item)
    t3 = time.perf_counter()
    print(repr((t1 - t0) + (t3 - t2)))
    return 0


def environment(args, pool_size: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pool_size": pool_size,
    }


def end_to_end(loop: Loop, setup_s: float) -> dict[str, tuple[float, str]]:
    medians = [statistics.median(t) for t in loop.times]
    return {
        "scenario_ms_p50": (1e3 * statistics.median(medians), "ms"),
        "scenario_ms_p90": (1e3 * quantile(medians, 90), "ms"),
        "scenarios_per_s": (loop.samples / loop.op_seconds, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def measure(args, workload, pool, record: dict) -> tuple[dict[str, tuple[float, str]], list[Loop]]:
    for item in pool[:WARMUP_OPS]:
        with contextlib.suppress(Exception):  # the timed loop counts a failing operation
            workload.run(item)
    if not args.trace:
        setup_probes(args.workload, pool[0].arg, 1)  # warms the bytecode and file caches
        setups = setup_probes(args.workload, pool[0].arg, SETUP_PROBES)
        loop = timed_loop(workload, pool, seconds=args.seconds)
        setups += setup_probes(args.workload, pool[0].arg, SETUP_PROBES)
        return end_to_end(loop, statistics.median(setups)), [loop]

    import qmeasure
    import tracer as tracing

    plain = timed_loop(workload, pool, seconds=args.seconds / 2)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, qmeasure):
        traced = timed_loop(workload, pool, passes=plain.passes, tracer=tracer)
    errors = tracing.nesting_errors(tracer.spans)
    record["span_nesting_errors"] = errors[:5]
    record["traced_digest_matches"] = traced.digest == plain.digest
    spans_path = OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path, len(pool))
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    metrics = tracing.layer_metrics(tracer, traced.attempted)
    metrics["trace.overhead_frac"] = (traced.op_seconds / plain.op_seconds - 1.0, "frac")
    return metrics, [plain, traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "qmeasure" / "__init__.py").is_file():
        print(f"qmeasure sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe is not None:
        return probe(args.workload, json.loads(args.probe))

    import qmeasure
    import workloads

    if not Path(qmeasure.__file__).resolve().is_relative_to(SRC):
        print(f"imported qmeasure from {qmeasure.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / "docs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    record: dict = {}
    try:
        t0 = time.perf_counter()
        pool = workload.build(args.seed, workdir)
        record["pool_build_s"] = time.perf_counter() - t0
        metrics, loops = measure(args, workload, pool, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    correct = failed == 0 and not record.get("span_nesting_errors") and record.get("traced_digest_matches", True)
    record.update(
        environment=environment(args, len(pool)),
        correct=correct,
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        failures=[f for loop in loops for f in loop.failures][:5],
        passes=loops[0].passes,
        samples=loops[0].samples,
        report_digest=loops[0].digest,
        metrics={name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    )
    result_path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    env = record["environment"]
    print(f"workload {args.workload} seed {args.seed}: {len(pool)} scenarios x {loops[0].passes} passes")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:14.6g} {unit}")
    print(f"samples: {loops[0].samples} operations over {len(pool)} scenarios (percentiles of per-scenario medians)")
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted:.6g}")
    print(f"report digest sha256 (first pass, timing left out): {loops[0].digest}")
    print(f"record: {result_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
