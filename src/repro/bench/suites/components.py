"""Component micro-benchmarks: the substrate pieces, timed in isolation.

Migrated from ``benchmarks/bench_components.py``: dataset-generation
throughput, transformer embedding throughput, the full (uncached)
adapter transform plus its cache-replay contract, GBM training, and the
telemetry disabled-overhead guarantee. All quick tier — these are the
per-PR regression sentinels for the hot paths ROADMAP items 1–3 aim
at.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.spec import BenchmarkSpec, MetricPolicy

#: Registered by :func:`repro.bench.suites.load_suites`.
SPECS: list[BenchmarkSpec] = []

#: Throughput metrics compare across machines only loosely; the wide
#: higher-better band fails on collapses (>4x slowdown), not jitter.
_THROUGHPUT = dict(direction="higher_better", tolerance=0.75)


def _run_dataset_generation(ctx) -> dict:
    from repro.data import load_dataset

    rounds = 3
    records = 0
    best = float("inf")
    for seed in range(rounds):
        start = time.perf_counter()
        dataset = load_dataset("S-DA", scale=0.08, seed=seed)
        best = min(best, time.perf_counter() - start)
        records = len(dataset)
    ctx.metric("records", records)
    ctx.metric("records_per_second", records / best)
    ctx.metric("generate_seconds", best)
    return {"dataset": "S-DA", "scale": 0.08, "rounds": rounds, "records": records}


SPECS.append(
    BenchmarkSpec(
        name="dataset_generation",
        tier="quick",
        run=_run_dataset_generation,
        description="generate a ~1k-pair benchmark dataset (best of 3)",
        metrics=(
            MetricPolicy("records_per_second", unit="1/s", **_THROUGHPUT),
            MetricPolicy("generate_seconds", unit="s", tolerance=2.0),
            # Fixed seed + fixed scale => the record count is exact.
            MetricPolicy("records", direction="two_sided", tolerance=0.0),
        ),
    )
)


def _run_embedding_throughput(ctx) -> dict:
    from repro.data import load_dataset
    from repro.transformers import load_pretrained

    dataset = load_dataset("S-IA", scale=0.08)
    encoder = load_pretrained("albert")
    attributes = dataset.schema.attribute_names
    texts = [
        encoder.pair_text(
            " ".join(pair.text_of("left", a) for a in attributes),
            " ".join(pair.text_of("right", a) for a in attributes),
        )
        for pair in list(dataset)[:200]
    ]
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        out = encoder.embed_sequences(texts)
        best = min(best, time.perf_counter() - start)
    ctx.metric("sequences", len(texts))
    ctx.metric("sequences_per_second", len(texts) / best)
    ctx.metric("embed_seconds", best)
    return {
        "embedder": "albert",
        "sequences": len(texts),
        "output_dim": int(out.shape[1]),
    }


SPECS.append(
    BenchmarkSpec(
        name="embedding_throughput",
        tier="quick",
        run=_run_embedding_throughput,
        description="embed 200 pair sequences with the ALBERT encoder",
        metrics=(
            MetricPolicy("sequences_per_second", unit="1/s", **_THROUGHPUT),
            MetricPolicy("embed_seconds", unit="s", tolerance=2.0),
        ),
    )
)


def _run_adapter_transform(ctx) -> dict:
    from repro.adapter import EMAdapter
    from repro.data import load_dataset

    dataset = load_dataset("S-IA", scale=0.08)

    # The full hybrid+albert tokenize/embed/combine cost, entity store
    # off (its replay is gated by ``entity_embedding_cache``).
    uncached = EMAdapter("hybrid", "albert", cache=False)
    start = time.perf_counter()
    out = uncached.transform(dataset)
    uncached_seconds = time.perf_counter() - start

    ctx.metric("pairs", len(dataset))
    ctx.metric("pairs_per_second", len(dataset) / uncached_seconds)
    ctx.metric("uncached_seconds", uncached_seconds)
    return {
        "dataset": "S-IA",
        "scale": 0.08,
        "adapter": "hybrid+albert+mean",
        "pairs": len(dataset),
        "output_dim": int(out.shape[1]),
    }


SPECS.append(
    BenchmarkSpec(
        name="adapter_transform",
        tier="quick",
        run=_run_adapter_transform,
        description="full hybrid+albert adapter transform, uncached",
        metrics=(
            MetricPolicy("pairs_per_second", unit="1/s", **_THROUGHPUT),
            MetricPolicy("uncached_seconds", unit="s", tolerance=2.0),
            MetricPolicy("pairs", direction="two_sided", tolerance=0.0),
        ),
    )
)


def _run_entity_embedding_cache(ctx) -> dict:
    import os
    import tempfile

    from repro.adapter import EMAdapter, clear_entity_store
    from repro.data import load_dataset

    dataset = load_dataset("S-DA", scale=0.06)

    # Hermetic disk tier: the store's hit/miss counts are gated exactly,
    # so the run must not see records a previous run left behind. The
    # dataset is loaded above, before the swap, to keep its cache warm.
    with tempfile.TemporaryDirectory(prefix="bench-entity-") as scratch:
        previous = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = scratch
        try:
            # Cold leg: entity store off — every pair pays the full
            # transformer forward, exactly the pre-store per-pair cost.
            cold = EMAdapter("hybrid", "albert", cache=False, entity_cache=False)
            start = time.perf_counter()
            cold_out = cold.transform(dataset)
            cold_seconds = time.perf_counter() - start

            # Warm leg: populate the store once, transform again —
            # every couple resolves to a stored readout vector and the
            # transformer never runs.
            clear_entity_store()
            warm = EMAdapter("hybrid", "albert", cache=False, entity_cache=True)
            start = time.perf_counter()
            warm.transform(dataset)
            populate_seconds = time.perf_counter() - start
            start = time.perf_counter()
            warm_out = warm.transform(dataset)
            warm_seconds = time.perf_counter() - start

            # Disk-replay leg: a fresh store (a new process, a worker)
            # has an empty memory tier, so every record comes from the
            # one pack the populate pass wrote.
            clear_entity_store()
            start = time.perf_counter()
            replay_out = warm.transform(dataset)
            replay_seconds = time.perf_counter() - start
        finally:
            clear_entity_store()
            if previous is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = previous

    if not np.array_equal(cold_out, warm_out):
        raise AssertionError("entity store changed the transform bits")
    if not np.array_equal(cold_out, replay_out):
        raise AssertionError("entity packs changed the transform bits")
    speedup = cold_seconds / warm_seconds
    if speedup < 2.0:
        raise AssertionError(
            f"warm-entity replay only {speedup:.2f}x over cold encoding"
        )
    ctx.metric("pairs", len(dataset))
    ctx.metric("cold_seconds", cold_seconds)
    ctx.metric("populate_seconds", populate_seconds)
    ctx.metric("warm_seconds", warm_seconds)
    ctx.metric("replay_seconds", replay_seconds)
    ctx.metric("warm_speedup", speedup)
    return {
        "dataset": "S-DA",
        "scale": 0.06,
        "adapter": "hybrid+albert+mean",
        "pairs": len(dataset),
        "output_dim": int(cold_out.shape[1]),
    }


SPECS.append(
    BenchmarkSpec(
        name="entity_embedding_cache",
        tier="quick",
        run=_run_entity_embedding_cache,
        description="adapter transform cold vs warm vs disk replay through "
        "the entity store",
        counters=(
            "adapter.entity_cache.memory.hits",
            "adapter.entity_cache.memory.misses",
            "adapter.entity_cache.disk.hits",
            "adapter.entity_cache.disk.misses",
            "adapter.entity_cache.disk.packs_written",
            "adapter.entity_cache.disk.records_written",
        ),
        metrics=(
            MetricPolicy("cold_seconds", unit="s", tolerance=2.0),
            MetricPolicy("populate_seconds", unit="s", tolerance=2.0),
            MetricPolicy("warm_seconds", unit="s", tolerance=3.0),
            MetricPolicy("replay_seconds", unit="s", tolerance=3.0),
            # The acceptance floor is the in-run >=2x assertion; the
            # gate additionally holds the replay within an order of
            # magnitude of the committed baseline.
            MetricPolicy(
                "warm_speedup", direction="higher_better", tolerance=0.9
            ),
            MetricPolicy("pairs", direction="two_sided", tolerance=0.0),
            # Store traffic is a pure function of the dataset's entity
            # structure, never of disk state — exact.
            MetricPolicy(
                "adapter.entity_cache.memory.hits",
                direction="two_sided",
                tolerance=0.0,
            ),
            MetricPolicy(
                "adapter.entity_cache.memory.misses",
                direction="two_sided",
                tolerance=0.0,
            ),
            # Disk work, exact: the populate pass misses every record and
            # writes them all in one pack; the replay reads every record
            # it needs.
            MetricPolicy(
                "adapter.entity_cache.disk.hits",
                direction="two_sided",
                tolerance=0.0,
            ),
            MetricPolicy(
                "adapter.entity_cache.disk.misses",
                direction="two_sided",
                tolerance=0.0,
            ),
            MetricPolicy(
                "adapter.entity_cache.disk.packs_written",
                direction="two_sided",
                tolerance=0.0,
            ),
            MetricPolicy(
                "adapter.entity_cache.disk.records_written",
                direction="two_sided",
                tolerance=0.0,
            ),
        ),
    )
)


def _run_gbm_training(ctx) -> dict:
    from repro.ml import GradientBoostingClassifier

    from repro.config import rng_for

    rng = rng_for("bench", "gbm_training")
    X = rng.normal(size=(2000, 200))
    y = (X[:, :3].sum(axis=1) > 0).astype(np.int64)
    best = float("inf")
    trees = 0
    for _ in range(2):
        start = time.perf_counter()
        model = GradientBoostingClassifier(
            n_estimators=100, max_depth=4, colsample=0.7, seed=0
        ).fit(X, y)
        best = min(best, time.perf_counter() - start)
        trees = model.n_trees_
    ctx.metric("fit_seconds", best)
    ctx.metric("samples_per_second", X.shape[0] / best)
    ctx.metric("trees", trees)
    return {"samples": 2000, "features": 200, "trees": trees}


SPECS.append(
    BenchmarkSpec(
        name="gbm_training",
        tier="quick",
        run=_run_gbm_training,
        description="train the default GBM on a 2k x 200 matrix (best of 2)",
        metrics=(
            MetricPolicy("samples_per_second", unit="1/s", **_THROUGHPUT),
            MetricPolicy("fit_seconds", unit="s", tolerance=2.0),
            MetricPolicy("trees", direction="two_sided", tolerance=0.0),
        ),
    )
)


def _run_telemetry_overhead(ctx) -> dict:
    from repro import telemetry

    calls = 10_000
    best = float("inf")
    total = 0
    # The runner records every spec; this one measures the *disabled*
    # cost, so telemetry is switched off for the timed loops and the
    # runner's recorder reinstalled afterwards.
    previous = telemetry.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            total = 0
            for index in range(calls):
                with telemetry.span("bench.noop", index=index):
                    total += index
                telemetry.counter("bench.noop").inc()
            best = min(best, time.perf_counter() - start)
    finally:
        if previous is not None:
            telemetry.enable(previous)
    if total != calls * (calls - 1) // 2:
        raise AssertionError("instrumented loop computed the wrong total")
    ctx.metric("ns_per_disabled_call", best / calls * 1e9)

    # Enabled leg: the per-instrument lock added for the threaded
    # serving daemon must stay negligible on the single-threaded path —
    # an uncontended lock acquire is tens of nanoseconds, and a counter
    # increment must stay within the low-microsecond regime.
    from repro.telemetry import MetricsRegistry

    registry = MetricsRegistry()
    instrument = registry.counter("bench.enabled")
    best_enabled = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            instrument.inc()
        best_enabled = min(best_enabled, time.perf_counter() - start)
    if instrument.value != 3 * calls:
        raise AssertionError("enabled counter lost increments")
    ns_per_inc = best_enabled / calls * 1e9
    if ns_per_inc > 5_000:
        raise AssertionError(
            f"locked counter increment costs {ns_per_inc:.0f}ns; the "
            "thread-safety lock is no longer negligible"
        )
    ctx.metric("ns_per_enabled_inc", ns_per_inc)
    return {"calls": calls, "rounds": 3}


SPECS.append(
    BenchmarkSpec(
        name="telemetry_overhead",
        tier="quick",
        run=_run_telemetry_overhead,
        description="disabled span+counter cost per call (the <5µs contract)",
        profile_memory=False,
        metrics=(
            # The no-op-when-off guarantee: nanosecond regime, wide band
            # for scheduler noise, but a 5x blowup is a real regression.
            MetricPolicy("ns_per_disabled_call", unit="ns", tolerance=4.0),
            # Enabled, locked counter increment: same wide band; the
            # in-run 5µs assertion is the hard acceptance floor.
            MetricPolicy("ns_per_enabled_inc", unit="ns", tolerance=4.0),
        ),
    )
)
