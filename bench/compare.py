#!/usr/bin/env python3
"""Summarise one set of benchmark records, or compare two sets.

    python3 bench/compare.py RUNS                # medians, quartiles, spread against each bound
    python3 bench/compare.py BASE RUNS           # change (RUNS) against parent (BASE)
    python3 bench/compare.py RUNS --json > F     # a summary file, usable as BASE later

RUNS and BASE are directories of records that bench/run.py writes to
.bench_build/qmeasure-bench/results/ (copy them aside between commits), or
summary files written with --json. See bench/README.md for the rules.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict:
    """{"runs": {workload: {metric: [values]}}, "units": {...}, "digests": {...}, "environment": {...}}."""
    if path.is_file():
        return json.loads(path.read_text(encoding="utf-8"))
    summary: dict = {"runs": {}, "units": {}, "digests": {}, "environment": {}}
    for record_path in sorted(path.glob("*.json")):
        record = json.loads(record_path.read_text(encoding="utf-8"))
        env = record["environment"]
        summary["environment"] = {k: env[k] for k in ("python", "numpy", "blas", "blas_threads", "cpu_count")}
        runs = summary["runs"].setdefault(env["workload"], {})
        for name, metric in record["metrics"].items():
            runs.setdefault(name, []).append(metric["value"])
            summary["units"][name] = metric["unit"]
        runs.setdefault("failed_frac", []).append(record["failed_frac"])
        summary["digests"][f"{env['workload']}/seed{env['seed']}"] = record["report_digest"]
    return summary


def stats(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, median, q3 = stats(values)
    return (q3 - q1) / abs(median) if median else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", type=Path, help="RUNS, or BASE RUNS")
    parser.add_argument("--json", action="store_true", help="print the summary of RUNS as JSON")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one or two sets")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in bench["end_to_end"]}
    sets = [load(p) for p in args.sets]
    new = sets[-1]
    if args.json:
        print(json.dumps(new, indent=2, sort_keys=True))
        return 0
    base = sets[0] if len(sets) == 2 else None

    print("environment: " + " ".join(f"{k}={v}" for k, v in new["environment"].items()))
    regressions = 0
    for workload, runs in sorted(new["runs"].items()):
        print(f"\n{workload}")
        for name, values in runs.items():
            q1, median, q3 = stats(values)
            spec = specs.get(name)
            line = f"  {name:<44} n={len(values):<3} median={median:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g}"
            if spec is None:  # per-layer metric or the failure share: no bound
                print(line)
                continue
            line += f" spread={spread(values):.3f} bound={spec['bound']}"
            if base is None:
                print(line + ("  SPREAD ABOVE BOUND" if spread(values) > spec["bound"] else ""))
                continue
            before = base["runs"].get(workload, {}).get(name)
            if not before:
                print(line + "  (no base)")
                continue
            sign = 1.0 if spec["better"] == "lower" else -1.0
            change = sign * (median - statistics.median(before)) / statistics.median(before)
            all_better = max(values) < min(before) if sign > 0 else min(values) > max(before)
            if spread(before) > spec["bound"] and not all_better:
                status = "unresolved (base spread above bound)"
            elif change > spec["bound"]:
                status = "REGRESSED"
                regressions += 1
            else:
                status = "within bound" if change >= 0 else "better"
            print(line + f" worse_by={change:+.3f} {status}")
    if base is not None:
        shared = sorted(set(base["digests"]) & set(new["digests"]))
        differ = [k for k in shared if base["digests"][k] != new["digests"][k]]
        print(f"\nreport digests: {len(shared) - len(differ)} of {len(shared)} shared runs identical")
        for key in differ:
            print(f"  differs: {key}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
