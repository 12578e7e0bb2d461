"""Serving-path benchmark: daemon latency and throughput under load.

One quick-tier spec: fit a tiny pipeline, serve it from an in-process
:class:`~repro.serving.daemon.MatchDaemon` on an ephemeral port, drive
it with the deterministic :func:`~repro.serving.loadtest.run_loadtest`
stream, and gate the client-observed p50/p99 latency and the measured
throughput. The run also pins the serving contract in-line: fused
(micro-batched) predictions must be bit-identical to one-at-a-time
serving of the same pairs.

The bench runner installs its own telemetry recorder around every spec,
so the daemon's metrics land there and the server-side histogram counts
can be asserted without extra wiring. The ensemble pass count
(``automl.ensemble.passes``) is gated exactly: up to the daemon it is a
pure function of the fit and the contract check, and each daemon flush
must cost one pass.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.bench.spec import BenchmarkSpec, MetricPolicy

#: Registered by :func:`repro.bench.suites.load_suites`.
SPECS: list[BenchmarkSpec] = []

_REQUESTS = 60
_CONCURRENCY = 4
_PAIRS_PER_REQUEST = 2
_SCALE = 0.02


def _run_serving_latency(ctx) -> dict:
    from repro import telemetry
    from repro.data import load_dataset, split_dataset
    from repro.matching import EMPipeline
    from repro.persistence import save_model
    from repro.serving import MatchDaemon, MatchEngine, run_loadtest

    import tempfile
    from pathlib import Path

    splits = split_dataset(load_dataset("S-FZ", scale=_SCALE))
    pipeline = EMPipeline(automl="autosklearn", seed=7, max_models=3)
    pipeline.fit(splits.train, splits.valid)

    with tempfile.TemporaryDirectory(prefix="repro-bench-serving") as tmp:
        model_path = Path(tmp) / "model.pkl"
        save_model(pipeline, model_path)
        engine = MatchEngine(model_path, "S-FZ")

        # In-line contract check: fused == serial, bit for bit.
        pairs = [
            {"left": dict(p.left), "right": dict(p.right)}
            for p in splits.test
        ]
        batched_proba, batched_labels = engine.match_pairs(pairs)
        serial = [engine.match_pairs([pair]) for pair in pairs]
        if not np.array_equal(
            batched_proba, np.concatenate([s[0] for s in serial])
        ) or not np.array_equal(
            batched_labels, np.concatenate([s[1] for s in serial])
        ):
            raise AssertionError(
                "batched and one-at-a-time serving predictions diverge"
            )
        passes = telemetry.counter("automl.ensemble.passes")
        offline_passes = passes.value

        daemon = MatchDaemon(engine, ("127.0.0.1", 0), max_delay_seconds=0.002)
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        try:
            report = run_loadtest(
                "127.0.0.1",
                daemon.port,
                "S-FZ",
                requests=_REQUESTS,
                concurrency=_CONCURRENCY,
                pairs_per_request=_PAIRS_PER_REQUEST,
                scale=_SCALE,
            )
        finally:
            daemon.stop()
            thread.join(timeout=10)
            daemon.close()

    if report["errors"]:
        raise AssertionError(
            f"loadtest saw {report['errors']} failed requests: "
            f"{report['error_messages']}"
        )
    server = report["server_metrics"]
    served = server["histograms"]["serving.request.seconds"]["count"]
    if served < _REQUESTS:
        raise AssertionError(
            f"server histogram recorded {served} < {_REQUESTS} requests"
        )

    flushes = server["counters"].get("serving.batch.flushes", 0)
    ctx.metric("automl.ensemble.passes", offline_passes)
    ctx.metric("ensemble_passes_per_flush", (passes.value - offline_passes) / flushes)
    ctx.metric("p50_ms", report["client_latency_ms"]["p50"])
    ctx.metric("p99_ms", report["client_latency_ms"]["p99"])
    ctx.metric("requests_per_second", report["requests_per_second"])
    ctx.metric("batch_flushes", flushes)
    return {
        "dataset": "S-FZ",
        "scale": _SCALE,
        "requests": _REQUESTS,
        "concurrency": _CONCURRENCY,
        "pairs_per_request": _PAIRS_PER_REQUEST,
        "server_p50_s": server["histograms"]["serving.request.seconds"]["p50"],
        "server_p99_s": server["histograms"]["serving.request.seconds"]["p99"],
    }


SPECS.append(
    BenchmarkSpec(
        name="serving_latency",
        tier="quick",
        run=_run_serving_latency,
        description="online daemon: seeded loadtest latency + throughput "
        "with the fused==serial prediction contract asserted in-run",
        metrics=(
            # Latency on shared CI runners is noisy; the wide bands fail
            # on collapses (an accidental cold transform per request),
            # not scheduler jitter.
            MetricPolicy("p50_ms", unit="ms", tolerance=3.0),
            MetricPolicy("p99_ms", unit="ms", tolerance=3.0),
            MetricPolicy(
                "requests_per_second",
                unit="1/s",
                direction="higher_better",
                tolerance=0.75,
            ),
            # Fusion must keep happening at all: ungated context metric.
            MetricPolicy("batch_flushes", direction="two_sided", gate=False),
            # Work counts, exact: fit + one pass for the fused contract
            # call + one per serial call, then one pass per flush.
            MetricPolicy(
                "automl.ensemble.passes", direction="two_sided", tolerance=0.0
            ),
            MetricPolicy(
                "ensemble_passes_per_flush", direction="two_sided", tolerance=0.0
            ),
        ),
        profile_memory=False,
    )
)
