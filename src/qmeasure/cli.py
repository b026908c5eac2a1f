"""Command line interface.

Exit codes: 0 every verdict passed, 1 some verdict failed or no aligned
Schmidt form exists, 2 scenario parse/validation error, invalid option or
unwritable --out path, 3 internal numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import cache

from .errors import ParseError, QMeasureError, ValidationError
from .pipeline import VerificationReport, report_to_dict, report_to_json, report_to_text, run_pipeline
from .scenario import check_tolerance, generate_random_instance, load_scenario

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    parser.add_argument("--tolerance", type=float, default=None, help="override every verdict tolerance")
    parser.add_argument("--out", default=None, help="write the report to this path instead of stdout")
    parser.add_argument(
        "--include-timing",
        action="store_true",
        help="include wall-clock duration in JSON output (off keeps it byte-stable)",
    )


@cache  # one parser per process: main may be called many times, and parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmeasure",
        description="Verify repeatable-measurement identities for a scenario or a random campaign.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one scenario file and emit its report")
    run_parser.add_argument("scenario", help="path to a scenario JSON document")
    _add_common(run_parser)

    batch_parser = sub.add_parser("batch", help="run a seeded random campaign")
    batch_parser.add_argument("--seeds", default="0..19", help="inclusive seed range A..B (default 0..19)")
    batch_parser.add_argument("--d1-max", type=int, default=4, help="largest object dimension (default 4)")
    batch_parser.add_argument("--outcomes-max", type=int, default=3, help="largest outcome count (default 3)")
    _add_common(batch_parser)
    return parser


def _emit(text: str, out: str | None) -> bool:
    """Write the report to stdout or ``out``; False, after a one-line message, if ``out`` cannot be written."""
    if out is None:
        sys.stdout.write(text)
        return True
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return False
    return True


def _exit_code(report: VerificationReport) -> int:
    # NoDefiniteValue at definite_values is that check's own finding (no aligned Schmidt form), not a failed computation
    if report.error is not None and not report.error.startswith("definite_values: NoDefiniteValue: "):
        return EXIT_NUMERICAL
    return EXIT_PASS if report.overall_pass else EXIT_FAIL


def _run_command(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ParseError, ValidationError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INVALID

    if args.tolerance is not None:
        scenario = replace(scenario, tolerance=args.tolerance)
    report = run_pipeline(scenario)
    if args.format == "json":
        text = report_to_json(report, include_timing=args.include_timing)
    else:
        text = report_to_text(report, verbosity=scenario.verbosity)
    if not _emit(text, args.out):
        return EXIT_INVALID
    return _exit_code(report)


def _parse_seed_range(text: str) -> range:
    try:
        first, last = text.split("..")
        start, stop = int(first), int(last)
    except ValueError as exc:
        raise ValueError(f"--seeds expects A..B, got {text!r}") from exc
    if start < 0:
        raise ValueError(f"--seeds expects non-negative A..B, got {text!r}")
    if stop < start:
        raise ValueError(f"--seeds range {text!r} is empty")
    return range(start, stop + 1)


def _batch_command(args: argparse.Namespace) -> int:
    try:
        seeds = _parse_seed_range(args.seeds)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID

    failed, errored, results, lines = [], [], [], []  # text mode keeps only its lines, not the reports
    code = EXIT_PASS
    try:
        for seed in seeds:
            scenario = generate_random_instance(seed, args.d1_max, args.outcomes_max)
            if args.tolerance is not None:
                scenario = replace(scenario, tolerance=args.tolerance)
            report = run_pipeline(scenario)
            code = max(code, _exit_code(report))
            if not report.overall_pass:
                failed.append(seed)
            if report.error is not None:
                errored.append(seed)
            if args.format == "json":
                results.append({"seed": seed, **report_to_dict(report, include_timing=args.include_timing)})
                continue
            worst = max((v.deviation for v in report.verdicts), default=float("nan"))
            status = "ERROR" if report.error else ("PASS" if report.overall_pass else "FAIL")
            lines.append(f"seed={seed:<6d} status={status:<5s} worst_deviation={worst:.3e}")
            if report.error:
                lines.append(f"    {report.error}")
    except ValueError as exc:  # bad campaign bounds
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    except QMeasureError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    if args.format == "json":
        doc = {
            "campaign": {
                "seeds": [seeds.start, seeds.stop - 1],
                "d1_max": args.d1_max,
                "outcomes_max": args.outcomes_max,
                "total": len(seeds),
                "failed_seeds": failed,
                "errored_seeds": errored,
            },
            "results": results,
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        lines.append(
            f"campaign: {len(seeds)} scenarios, {len(seeds) - len(failed)} passed, "
            f"{len(failed)} failed, {len(errored)} errored"
        )
        text = "\n".join(lines) + "\n"
    if not _emit(text, args.out):
        return EXIT_INVALID
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.tolerance is not None:
        try:
            check_tolerance(args.tolerance, "--tolerance")
        except ValidationError as exc:
            print(f"invalid option: {exc}", file=sys.stderr)
            return EXIT_INVALID
    if args.command == "run":
        return _run_command(args)
    return _batch_command(args)


if __name__ == "__main__":
    raise SystemExit(main())
