"""Bench driver behind ``repro-em bench``.

Exit codes: 0 when every selected spec is within its baseline's
tolerance bands (or baselines were just rewritten), 1 when any gated
metric regressed or a baseline is missing, and 2 for usage errors
(unknown spec names, an unknown tier).

Each run writes a schema-valid ``BENCH_<name>.json`` snapshot into
``--output-dir``; ``--update-baselines`` copies the snapshots over the
committed baselines in ``--baseline-dir`` instead of comparing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench.baseline import (
    SpecComparison,
    baseline_path,
    build_payload,
    compare_payload,
    load_payload,
    write_payload,
)
from repro.bench.runner import run_spec
from repro.bench.schema import validate_payload
from repro.bench.spec import TIERS, registered_specs
from repro.bench.suites import load_suites

__all__ = ["add_bench_arguments", "run_bench"]

#: Where per-run snapshots land (the CI artifact directory).
DEFAULT_OUTPUT_DIR = "benchmarks/output"


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the bench options to ``parser`` (shared with repro-em)."""
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_specs",
        help="print the registered specs and exit",
    )
    parser.add_argument(
        "--tier",
        choices=TIERS,
        default=None,
        help="run only this tier (default: every tier)",
    )
    parser.add_argument(
        "--only",
        default=None,
        help="comma-separated spec names to run (intersected with --tier)",
    )
    parser.add_argument(
        "--update-baselines",
        action="store_true",
        help="rewrite the committed baselines from this run and exit 0",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit one machine-readable JSON report on stdout",
    )
    parser.add_argument(
        "--output-dir",
        default=DEFAULT_OUTPUT_DIR,
        help=f"directory for per-run BENCH_<name>.json snapshots "
        f"(default: {DEFAULT_OUTPUT_DIR})",
    )
    parser.add_argument(
        "--baseline-dir",
        default=".",
        help="directory holding the committed BENCH_<name>.json baselines "
        "(default: current directory)",
    )


def _selected_specs(args: argparse.Namespace):
    only = None
    if args.only is not None:
        only = tuple(
            name.strip() for name in args.only.split(",") if name.strip()
        )
    try:
        return registered_specs(tier=args.tier, only=only)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}")


def _spec_passed(comparison: SpecComparison) -> bool:
    """A spec passes only when a baseline exists and every gated
    metric is within its band — a missing baseline fails the run so it
    cannot silently ride through CI unbaselined."""
    return comparison.ok and comparison.baseline_found


def _json_report(results: list[dict]) -> str:
    ok = all(r["passed"] for r in results)
    return json.dumps(
        {"ok": ok, "specs": results}, indent=2, sort_keys=True
    )


def _comparison_dict(comparison: SpecComparison) -> dict:
    return {
        "ok": comparison.ok,
        "baseline_found": comparison.baseline_found,
        "environment_matches": comparison.environment_matches,
        "metrics": [
            {
                "name": c.name,
                "status": c.status,
                "current": c.current,
                "baseline": c.baseline,
                "delta": c.delta,
                "message": c.message,
            }
            for c in comparison.comparisons
        ],
    }


def run_bench(args: argparse.Namespace) -> int:
    """Execute one bench invocation; returns the process exit code."""
    load_suites()

    if args.list_specs:
        specs = registered_specs(tier=args.tier)
        if args.as_json:
            print(
                json.dumps(
                    [
                        {
                            "name": s.name,
                            "tier": s.tier,
                            "description": s.description,
                            "metrics": [p.name for p in s.metrics],
                        }
                        for s in specs
                    ],
                    indent=2,
                )
            )
        else:
            for spec in specs:
                print(f"{spec.name:24s} [{spec.tier:5s}] {spec.description}")
        return 0

    specs = _selected_specs(args)
    if not specs:
        print("error: no specs selected", file=sys.stderr)
        return 2

    output_dir = Path(args.output_dir)
    baseline_dir = Path(args.baseline_dir)
    results: list[dict] = []
    failed = False

    for spec in specs:
        if not args.as_json:
            print(f"running {spec.name} [{spec.tier}] ...", flush=True)
        result = run_spec(spec)
        payload = build_payload(result)
        validate_payload(payload)
        snapshot_path = write_payload(
            payload, baseline_path(output_dir, spec.name)
        )

        if args.update_baselines:
            target = write_payload(
                payload, baseline_path(baseline_dir, spec.name)
            )
            if not args.as_json:
                print(f"  baseline updated: {target}")
            continue

        comparison = compare_payload(
            payload, load_payload(baseline_path(baseline_dir, spec.name))
        )
        failed = failed or not _spec_passed(comparison)
        results.append(
            {
                "name": spec.name,
                "tier": spec.tier,
                "passed": _spec_passed(comparison),
                "snapshot": str(snapshot_path),
                "metrics": {
                    name: entry["value"]
                    for name, entry in payload["metrics"].items()
                },
                "comparison": _comparison_dict(comparison),
            }
        )
        if not args.as_json:
            print(comparison.render())

    if args.update_baselines:
        if not args.as_json:
            print(f"{len(specs)} baseline(s) written to {baseline_dir}")
        return 0

    if args.as_json:
        print(_json_report(results))
    elif failed:
        bad = [r["name"] for r in results if not r["passed"]]
        print(
            f"FAIL: {len(bad)} spec(s) regressed or unbaselined: "
            f"{', '.join(bad)}"
        )
    else:
        print(f"OK: {len(results)} spec(s) within tolerance")
    return 1 if failed else 0
