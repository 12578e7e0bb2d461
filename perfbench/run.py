"""The repository benchmark: one command for any workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout root. Workloads: ``batch-cold`` and ``serve-repeat``
(see ``perfbench/README.md``). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- every end-to-end metric with ``--trace 0``; every
per-layer metric (from a separate traced run, plus the tracing
overhead) with ``--trace 1``. Lines before it give each phase's request
counts, the host context, and each per-layer metric's tag.
"""

from __future__ import annotations

import argparse
import sys

import batch
import serve
from catalog import END_TO_END, LAYERS, PER_LAYER, WORKLOADS, moves
from common import (
    WORK, BenchError, RunDir, check_layout, compile_sources, emit,
    host_context, install_signal_handlers, note, write_json,
)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _overhead(untraced: dict, traced: dict) -> dict[str, float]:
    """Per end-to-end metric, % by which the traced pass read worse."""
    out = {}
    for name, metric in END_TO_END.items():
        base = untraced[name]
        change = (traced[name] - base) / base * 100.0 if base else 0.0
        out[f"trace.overhead_pct.{name}"] = change if metric["better"] == "lower" else -change
    return out


def _print_phases(label: str, result: dict) -> None:
    for phase in result.get("phases", []):
        lat = phase["latency_ms"]
        note(f"  {label} {phase['phase']:>12}: sent {phase['sent']} ok "
             f"{phase['succeeded']} failed {phase['failed']} pairs {phase['pairs']} "
             f"in {phase['seconds']:.2f}s, max lag "
             f"{max(phase['lag_ms'], default=0.0):.1f} ms"
             + (f", p50 {sorted(lat)[len(lat) // 2]:.1f} ms" if lat else "")
             + (f", passed={phase['passed']}" if "passed" in phase else ""))


def run(args: argparse.Namespace) -> int:
    host_before = host_context()
    traced = replayed = None
    with RunDir(args.workload, args.seed) as run_dir:
        # Every workload makes sure the serve fixture exists, so that it is
        # built by the first run in a checkout, whichever workload that
        # is, and no later run (traced ones included) pays for it.
        fix = serve.fixture()
        if args.workload == "batch-cold":
            untraced = batch.batch_pass(args.seed, run_dir, "run")
            if args.trace:
                traced = batch.batch_pass(args.seed, run_dir, "traced")
            attempted = untraced["attempted"] + (traced["attempted"] if traced else 0)
            failed = untraced["failed"] + (traced["failed"] if traced else 0)
        else:
            # A traced run makes two passes and a replay; at half length
            # each, it takes about as long as two untraced runs.
            seconds = args.seconds / 2 if args.trace else args.seconds
            untraced = serve.serve_repeat(args.seed, seconds, run_dir, fix, False, "run")
            passes = [untraced]
            if args.trace:
                traced = serve.serve_repeat(args.seed, seconds, run_dir, fix, True, "traced")
                replayed = serve.replay(args.seed, traced, run_dir, fix)
                passes.append(traced)
            # The fixture model's own check counts as one operation.
            attempted = 1 + sum(sum(p["sent"] for p in r["phases"]) + len(r["reload_s"])
                                for r in passes)
            failed = (not fix.model_ok) + sum(
                sum(p["failed"] for p in r["phases"]) + r["extra_failures"] for r in passes
            )
            if replayed is not None:
                attempted += replayed["answers"]
                failed += replayed["checks"]["mismatches"] + (not replayed["checks"]["inputs"])
    host_after = host_context()

    note(f"{args.workload} seed {args.seed}: attempted {attempted}, failed {failed}")
    _print_phases("untraced", untraced)
    note(f"  tail: p{untraced['tail']['pct']:.2f} of N={untraced['tail']['n']}"
         + (f", median of {untraced['tail']['slices']} slices"
            if "slices" in untraced["tail"] else ""))
    if args.workload == "batch-cold":
        note(f"  query rows not bit-identical to the full-draw answer: "
             f"{untraced['child']['queries']['inexact_rows']} of "
             f"{untraced['child']['queries']['pairs']}")
    for name, value in untraced["e2e"].items():
        note(f"  {name} = {value:.6g} {END_TO_END[name]['unit']}")
    note(f"  host before: cpu_ref_ms {host_before['cpu_ref_ms']:.1f} loadavg "
         f"{host_before['loadavg']}; after: cpu_ref_ms "
         f"{host_after['cpu_ref_ms']:.1f} loadavg {host_after['loadavg']}")

    if not args.trace:
        emit(failed == 0, attempted, failed,
             {name: (untraced["e2e"][name], END_TO_END[name]["unit"]) for name in END_TO_END})
        return 0

    _print_phases("traced", traced)
    values = {name: 0.0 for name in PER_LAYER}
    if args.workload == "batch-cold":
        values.update(batch.layers(traced))
    else:
        values.update(serve.layers(traced, replayed))
    values["host.cpu_ref_ms"] = (host_before["cpu_ref_ms"] + host_after["cpu_ref_ms"]) / 2
    values.update(_overhead(untraced["e2e"], traced["e2e"]))
    for name, value in values.items():
        note(f"  {name} = {value:.6g} {PER_LAYER[name]['unit']}  -> {moves(name)}")
    write_json(WORK / "traces" / f"{args.workload}-seed{args.seed}.json", {
        "workload": args.workload, "seed": args.seed,
        "host": {"before": host_before, "after": host_after},
        "per_layer": {name: {"value": values[name], "unit": PER_LAYER[name]["unit"],
                             "layer": LAYERS[name][0], "moves": moves(name)}
                      for name in PER_LAYER},
        "end_to_end": {"untraced": untraced["e2e"], "traced": traced["e2e"]},
        "untraced": untraced, "traced": traced, "replay": replayed,
    })
    emit(failed == 0, attempted, failed,
         {name: (values[name], PER_LAYER[name]["unit"]) for name in PER_LAYER})
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        check_layout()
        install_signal_handlers()
        compile_sources()
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
