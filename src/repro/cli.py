"""Command-line interface: ``repro-em``.

Subcommands::

    repro-em table <1|2|3|4|5> [--scale S] [--datasets A,B] Render a table
    repro-em table 3 --jobs 8                               ...in parallel
    repro-em datasets                                       List benchmarks
    repro-em match --dataset S-DA [--automl autosklearn]    Run one pipeline
    repro-em trace --dataset S-DA                           Trace one pipeline
    repro-em trace --validate trace.jsonl                   Check a trace file
    repro-em lint [paths] [--format json] [--baseline F]    Static analysis
    repro-em chaos [--plans N] [--seed S] [--jobs N]        Crash-safety drill
    repro-em bench [--tier quick] [--only A,B] [--json]     Perf regression gate

``table``, ``match``, and ``trace`` accept ``--telemetry off|text|json``
(plus ``--trace-file PATH`` for ``json``): the run is recorded by
:mod:`repro.telemetry` and exported as a text report or a JSON-lines
trace conforming to ``docs/trace_schema.json``.

``table`` and ``match`` accept ``--jobs N``: the experiment grid fans
out over N worker processes (:mod:`repro.parallel`) and the merged
output is byte-identical to the serial run.

Experiment results are cached under ``.repro_cache/`` (see
``repro.experiments.config``), so repeated invocations are incremental.
"""

from __future__ import annotations

import argparse
import sys

from repro.data.benchmark import DATASET_NAMES

# main's caller is the repro-em console script ([project.scripts] in
# pyproject.toml), which lives outside the analyzed tree.
__all__ = ["main"]  # repro: noqa[DEAD002]


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="dataset scale in (0, 1]; defaults to REPRO_SCALE or 0.08",
    )
    parser.add_argument(
        "--datasets",
        type=str,
        default=None,
        help="comma-separated dataset subset (default: all twelve)",
    )


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the experiment grid (default 1 = "
        "serial; output is byte-identical either way)",
    )


def _add_telemetry(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry",
        choices=("off", "text", "json"),
        default="off",
        help="record the run with repro.telemetry and report it as a "
        "text trace or JSON lines (default: off)",
    )
    parser.add_argument(
        "--trace-file",
        type=str,
        default=None,
        help="with --telemetry json: write the trace here instead of stdout",
    )


def _run_with_telemetry(args: argparse.Namespace, run) -> int:
    """Execute ``run()`` under the requested telemetry mode and report."""
    mode = getattr(args, "telemetry", "off")
    if mode == "off":
        return run()
    from repro import telemetry
    from repro.telemetry import render_text, snapshot, write_jsonl

    with telemetry.recording() as recorder:
        code = run()
    trace = snapshot(recorder)
    if mode == "text":
        print(render_text(trace))
    else:
        target = args.trace_file if args.trace_file else sys.stdout
        write_jsonl(trace, target)
        if args.trace_file:
            print(f"trace written to {args.trace_file}")
    return code


def _config(args: argparse.Namespace):
    from repro.experiments.config import ExperimentConfig

    if args.scale is not None:
        return ExperimentConfig(scale=args.scale)
    return ExperimentConfig()


def _datasets(args: argparse.Namespace) -> tuple[str, ...]:
    if args.datasets is None:
        return DATASET_NAMES
    requested = tuple(name.strip() for name in args.datasets.split(","))
    unknown = set(requested) - set(DATASET_NAMES)
    if unknown:
        raise SystemExit(f"unknown datasets: {', '.join(sorted(unknown))}")
    return requested


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.experiments import (
        run_table1,
        run_table2,
        run_table3,
        run_table4,
        run_table5,
    )

    config = _config(args)
    datasets = _datasets(args)
    jobs = max(1, args.jobs)

    def run() -> int:
        if args.number == 1:
            # Table 1 is dataset statistics — there is no grid to fan out.
            print(run_table1(scale=config.scale, generate=args.generate))
        elif jobs > 1:
            from repro.parallel import run_table_parallel

            print(run_table_parallel(args.number, config, datasets, jobs=jobs))
        elif args.number == 2:
            print(run_table2(config, datasets))
        elif args.number == 3:
            print(run_table3(config, datasets=datasets))
        elif args.number == 4:
            print(run_table4(config, datasets=datasets))
        else:
            print(run_table5(config, datasets=datasets))
        return 0

    return _run_with_telemetry(args, run)


def _cmd_datasets(_args: argparse.Namespace) -> int:
    from repro.experiments import run_table1

    print(run_table1())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import build_report

    print(build_report(_config(args)))
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    from repro.data import load_dataset, split_dataset
    from repro.matching import EMPipeline, evaluate_matcher

    config = _config(args)

    def run() -> int:
        if args.jobs > 1:
            # One cell, executed in a worker process through the same
            # executor as table grids; identical result by determinism.
            from repro.matching.evaluation import EvaluationResult
            from repro.parallel import GridSpec, ParallelRunner

            grid = GridSpec.single_match(args.dataset, args.automl, args.budget)
            (cell,) = ParallelRunner(config, jobs=args.jobs).run(grid)
            print(EvaluationResult(**cell.record))
            return 0
        splits = split_dataset(load_dataset(args.dataset, scale=config.scale))
        pipeline = EMPipeline(
            automl=args.automl,
            budget_hours=args.budget,
            seed=config.seed,
            max_models=config.max_models,
        )
        result = evaluate_matcher(pipeline, splits, system_name=args.automl)
        print(result)
        return 0

    return _run_with_telemetry(args, run)


def _cmd_trace(args: argparse.Namespace) -> int:
    """One traced pipeline run — or validation/rendering of a trace file."""
    if args.validate is not None:
        from repro.telemetry import validate_trace

        errors = validate_trace(args.validate)
        if errors:
            for error in errors:
                print(error, file=sys.stderr)
            print(
                f"{args.validate}: INVALID ({len(errors)} error(s))",
                file=sys.stderr,
            )
            return 1
        print(f"{args.validate}: valid trace")
        return 0

    if args.load is not None:
        from repro.telemetry import read_jsonl, render_text

        print(render_text(read_jsonl(args.load)))
        return 0

    if args.dataset is None:
        print("error: trace needs --dataset (or --validate/--load FILE)",
              file=sys.stderr)
        return 2

    from repro import telemetry
    from repro.adapter import EMAdapter
    from repro.data import load_dataset, split_dataset
    from repro.matching import EMPipeline, evaluate_matcher
    from repro.telemetry import render_text, snapshot, write_jsonl

    config = _config(args)
    with telemetry.recording() as recorder:
        splits = split_dataset(load_dataset(args.dataset, scale=config.scale))
        pipeline = EMPipeline(
            adapter=EMAdapter(args.tokenizer, args.embedder, "mean"),
            automl=args.automl,
            budget_hours=args.budget,
            seed=config.seed,
            max_models=config.max_models,
        )
        result = evaluate_matcher(
            pipeline,
            splits,
            system_name=f"{args.automl}+{args.tokenizer}+{args.embedder}",
        )
    trace = snapshot(recorder)
    print(render_text(trace))
    print(f"\n{result}")
    if args.json is not None:
        write_jsonl(trace, args.json)
        print(f"trace written to {args.json}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args)


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.cli import run_bench

    return run_bench(args)


def _cmd_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro import telemetry
    from repro.serving import MatchDaemon, MatchEngine

    model_path = Path(args.model)
    config = _config(args)
    if args.fit and not model_path.exists():
        from repro.data import load_dataset, split_dataset
        from repro.matching import EMPipeline
        from repro.persistence import save_model

        print(f"fitting a pipeline for {args.dataset} -> {model_path}")
        splits = split_dataset(
            load_dataset(args.dataset, scale=config.scale)
        )
        pipeline = EMPipeline(
            automl=args.automl,
            seed=config.seed,
            max_models=config.max_models,
        )
        pipeline.fit(splits.train, splits.valid)
        save_model(pipeline, model_path)

    # The daemon reports through telemetry for its whole lifetime. The
    # recorder is NOT bounded: every flush runs adapter.transform, whose
    # spans TelemetryRecorder.finish_span keeps for the life of the
    # process, so its memory grows with the number of flushes. Folding
    # spans into histograms (ROADMAP item 4) is the planned fix.
    telemetry.enable()
    try:
        engine = MatchEngine(model_path, args.dataset)
        with MatchDaemon(
            engine,
            (args.host, args.port),
            max_batch_pairs=args.max_batch_pairs,
            max_delay_seconds=args.max_delay_ms / 1000.0,
            queue_depth=args.queue_depth,
        ) as daemon:
            if args.port_file:
                Path(args.port_file).write_text(f"{daemon.port}\n")
            print(
                f"serving {args.dataset} model {model_path} on "
                f"http://{args.host}:{daemon.port}"
            )
            try:
                daemon.serve_forever()
            except KeyboardInterrupt:
                pass
        print("daemon stopped")
        return 0
    finally:
        telemetry.disable()


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.config import GLOBAL_SEED
    from repro.serving import run_loadtest

    report = run_loadtest(
        args.host,
        args.port,
        args.dataset,
        requests=args.requests,
        concurrency=args.concurrency,
        pairs_per_request=args.pairs_per_request,
        seed=GLOBAL_SEED if args.seed is None else args.seed,
        scale=args.scale,
    )
    rendered = json_module.dumps(report, indent=2, sort_keys=True)
    if args.json:
        from pathlib import Path

        Path(args.json).write_text(rendered + "\n")
        print(f"report written to {args.json}")
    print(rendered)
    return 1 if report["errors"] else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.parallel import run_chaos

    config = _config(args)
    # Chaos drills a small grid many times over; default to one dataset
    # rather than the full twelve the other verbs assume.
    datasets = _datasets(args) if args.datasets is not None else ("S-FZ",)
    report = run_chaos(
        table=args.table,
        config=config,
        datasets=datasets,
        plans=args.plans,
        jobs=max(1, args.jobs),
        seed=args.seed,
    )
    print(report.render())
    if args.trace_file and report.trace is not None:
        from repro.telemetry import write_jsonl

        write_jsonl(report.trace, args.trace_file)
        print(f"trace written to {args.trace_file}")
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro-em`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro-em",
        description="AutoML-for-Entity-Matching reproduction (EDBT 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="regenerate a paper table")
    p_table.add_argument("number", type=int, choices=(1, 2, 3, 4, 5))
    p_table.add_argument(
        "--generate",
        action="store_true",
        help="table 1 only: measure generated data instead of the registry",
    )
    _add_scale(p_table)
    _add_jobs(p_table)
    _add_telemetry(p_table)
    p_table.set_defaults(func=_cmd_table)

    p_list = sub.add_parser("datasets", help="list the benchmark datasets")
    p_list.set_defaults(func=_cmd_datasets)

    p_report = sub.add_parser(
        "report", help="summarize cached experiment results as markdown"
    )
    _add_scale(p_report)
    p_report.set_defaults(func=_cmd_report)

    p_match = sub.add_parser("match", help="run one EM pipeline end to end")
    p_match.add_argument("--dataset", required=True, choices=DATASET_NAMES)
    p_match.add_argument(
        "--automl", default="autosklearn",
        choices=("autosklearn", "autogluon", "h2o"),
    )
    p_match.add_argument("--budget", type=float, default=1.0)
    _add_scale(p_match)
    _add_jobs(p_match)
    _add_telemetry(p_match)
    p_match.set_defaults(func=_cmd_match)

    p_trace = sub.add_parser(
        "trace",
        help="run one EM pipeline with telemetry on and print the span "
        "tree, per-stage rollups, and the AutoML trial ledger",
    )
    p_trace.add_argument("--dataset", choices=DATASET_NAMES, default=None)
    p_trace.add_argument(
        "--automl", default="autosklearn",
        choices=("autosklearn", "autogluon", "h2o"),
    )
    p_trace.add_argument(
        "--tokenizer", default="hybrid",
        choices=("unstructured", "attr", "hybrid"),
    )
    p_trace.add_argument(
        "--embedder", default="albert",
        choices=("bert", "dbert", "albert", "roberta", "xlnet"),
    )
    p_trace.add_argument("--budget", type=float, default=1.0)
    p_trace.add_argument(
        "--json", type=str, default=None,
        help="also write the trace as JSON lines to this file",
    )
    p_trace.add_argument(
        "--validate", type=str, default=None, metavar="FILE",
        help="validate an existing JSONL trace against "
        "docs/trace_schema.json and exit",
    )
    p_trace.add_argument(
        "--load", type=str, default=None, metavar="FILE",
        help="render an existing JSONL trace as text and exit",
    )
    _add_scale(p_trace)
    p_trace.set_defaults(func=_cmd_trace)

    p_lint = sub.add_parser(
        "lint", help="run the repro.analysis static-analysis rule pack"
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(p_lint)
    p_lint.set_defaults(func=_cmd_lint)

    p_bench = sub.add_parser(
        "bench",
        help="run the registered benchmarks and gate each metric against "
        "its committed BENCH_<name>.json baseline",
    )
    from repro.bench.cli import add_bench_arguments

    add_bench_arguments(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_serve = sub.add_parser(
        "serve",
        help="run the online matching daemon: load a saved model once "
        "and answer POST /match over HTTP with micro-batched predictions",
    )
    p_serve.add_argument(
        "--model", required=True,
        help="model file written by repro.persistence.save_model",
    )
    p_serve.add_argument("--dataset", required=True, choices=DATASET_NAMES)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="listen port (default 0 = ephemeral; see --port-file)",
    )
    p_serve.add_argument(
        "--port-file", type=str, default=None,
        help="write the bound port here once listening (for scripts "
        "that start the daemon with --port 0)",
    )
    p_serve.add_argument(
        "--fit", action="store_true",
        help="if the model file does not exist, fit a pipeline on the "
        "dataset and save it there first",
    )
    p_serve.add_argument(
        "--automl", default="autosklearn",
        choices=("autosklearn", "autogluon", "h2o"),
        help="AutoML system for --fit (default autosklearn)",
    )
    p_serve.add_argument(
        "--max-batch-pairs", type=int, default=64,
        help="flush a micro-batch once this many pairs wait (default 64)",
    )
    p_serve.add_argument(
        "--max-delay-ms", type=float, default=5.0,
        help="longest a request waits for batch co-travellers (default 5)",
    )
    p_serve.add_argument(
        "--queue-depth", type=int, default=256,
        help="queued requests beyond which the daemon sheds load "
        "with 503 (default 256)",
    )
    p_serve.add_argument(
        "--scale", type=float, default=None,
        help="dataset scale for --fit (defaults to REPRO_SCALE or 0.08)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_loadtest = sub.add_parser(
        "loadtest",
        help="drive a running serve daemon with a deterministic seeded "
        "request stream and report p50/p99 latency and throughput",
    )
    p_loadtest.add_argument("--dataset", required=True, choices=DATASET_NAMES)
    p_loadtest.add_argument("--host", default="127.0.0.1")
    p_loadtest.add_argument("--port", type=int, required=True)
    p_loadtest.add_argument(
        "--requests", type=int, default=100,
        help="total requests to issue (default 100)",
    )
    p_loadtest.add_argument(
        "--concurrency", type=int, default=4,
        help="closed-loop worker threads (default 4)",
    )
    p_loadtest.add_argument(
        "--pairs-per-request", type=int, default=2,
        help="entity pairs per request body (default 2)",
    )
    p_loadtest.add_argument(
        "--seed", type=int, default=None,
        help="request-stream seed (default: the substrate seed)",
    )
    p_loadtest.add_argument(
        "--scale", type=float, default=None,
        help="dataset scale for request sampling (defaults to "
        "REPRO_SCALE or 0.08)",
    )
    p_loadtest.add_argument(
        "--json", type=str, default=None,
        help="also write the JSON report to this file",
    )
    p_loadtest.set_defaults(func=_cmd_loadtest)

    p_chaos = sub.add_parser(
        "chaos",
        help="crash-safety drill: rerun a table grid under seeded fault "
        "plans (repro.faults) and diff against the fault-free output",
    )
    p_chaos.add_argument(
        "--table", type=int, choices=(2, 3, 4, 5), default=2,
        help="table grid to drill (default 2)",
    )
    p_chaos.add_argument(
        "--plans", type=int, default=3,
        help="number of seeded fault plans to run (default 3)",
    )
    p_chaos.add_argument(
        "--seed", type=int, default=None,
        help="fault-plan seed override (default: the substrate seed)",
    )
    p_chaos.add_argument(
        "--trace-file", type=str, default=None,
        help="write the last plan's telemetry trace here as JSON lines",
    )
    _add_scale(p_chaos)
    _add_jobs(p_chaos)
    p_chaos.set_defaults(func=_cmd_chaos)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
