"""Component micro-benchmarks: the substrate pieces, timed in isolation.

The throughput measurements (dataset generation, embedding, the adapter
transform, GBM training, the full-repo lint, telemetry overhead) live
in the registry (:mod:`repro.bench.suites.components` and
``.analysis``) and are gated against committed baselines by
``repro-em bench``; the tests here run those specs and keep the
functional assertions. The remaining tests are classic pytest-benchmark
measurements of pieces not yet worth a baseline, plus perf *contracts*
(A must beat B) that need two timed legs in one process.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.data import load_dataset
from repro.matching import DeepMatcherHybrid
from repro.ml import RandomForestClassifier


@pytest.fixture(scope="module")
def small_dataset():
    return load_dataset("S-IA", scale=0.08)


@pytest.fixture(scope="module")
def _suites():
    from repro.bench import load_suites

    load_suites()


def _run(name: str):
    from repro.bench import get_spec, run_spec

    return run_spec(get_spec(name))


def test_dataset_generation(_suites):
    """Generate a ~1k-pair benchmark dataset from scratch (registry)."""
    result = _run("dataset_generation")
    assert result.metrics["records"] > 500
    assert result.metrics["records_per_second"] > 0


def test_embedding_throughput(_suites):
    """Embed 200 pair sequences with the ALBERT encoder (registry)."""
    result = _run("embedding_throughput")
    assert result.metrics["sequences"] == 200
    assert result.detail["output_dim"] > 0


def test_adapter_transform(_suites):
    """Full hybrid+albert adapter transform, uncached (registry)."""
    result = _run("adapter_transform")
    assert result.detail["output_dim"] > 0


def test_gbm_training(_suites):
    """Train the default GBM on a 2k x 200 matrix (registry)."""
    result = _run("gbm_training")
    assert result.metrics["trees"] >= 1


def test_telemetry_disabled_overhead(_suites):
    """The no-op-when-disabled guarantee of ``repro.telemetry``.

    Every instrumented hot path (adapter transform, AutoML fit loops,
    the experiment runner) pays one disabled ``span``/``counter`` call
    per operation when telemetry is off. The registry spec times exactly
    that primitive; it must stay in the nanosecond regime — the
    instrumented paths therefore add well under 5% to any operation
    that does real work (a single pair embedding alone is ~100µs).
    """
    result = _run("telemetry_overhead")
    per_call_ns = result.metrics["ns_per_disabled_call"]
    assert per_call_ns < 5000, (
        f"disabled span+counter cost {per_call_ns:.0f}ns per call; "
        "expected well under 5µs"
    )


def test_tokenize_hoist_not_slower(small_dataset):
    """Perf contract of the PERF002 fix in ``EMAdapter.transform``.

    Tokenizing each pair once and transposing must not be slower than
    the per-position re-tokenization it replaced (it does 1/n_sequences
    of the tokenizer work); both variants are timed best-of-3 and the
    hoisted one gets a 1.2x tolerance for timer noise on a small input.
    """
    import time

    from repro.adapter.tokenizer import make_tokenizer

    tokenizer = make_tokenizer("hybrid")
    schema = small_dataset.schema
    n_sequences = tokenizer.sequence_count(schema)

    def per_position():
        return [
            [tokenizer.sequences(pair, schema)[position] for pair in small_dataset]
            for position in range(n_sequences)
        ]

    def hoisted():
        per_pair = [tokenizer.sequences(pair, schema) for pair in small_dataset]
        return [
            [sequences[position] for sequences in per_pair]
            for position in range(n_sequences)
        ]

    assert hoisted() == per_position()

    def best_of(fn, rounds=3):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    naive_seconds = best_of(per_position)
    hoisted_seconds = best_of(hoisted)
    assert hoisted_seconds < 1.2 * naive_seconds, (
        f"hoisted tokenization ({hoisted_seconds:.4f}s) should not be "
        f"slower than per-position re-tokenization ({naive_seconds:.4f}s)"
    )


def test_forest_training(benchmark):
    """Train a 40-tree random forest on a 2k x 200 matrix."""
    rng = np.random.default_rng(1)
    X = rng.normal(size=(2000, 200))
    y = (X[:, 0] > 0).astype(np.int64)

    def fit():
        return RandomForestClassifier(
            n_estimators=40, max_depth=12, seed=0
        ).fit(X, y)

    benchmark.pedantic(fit, rounds=2, iterations=1)


def test_deepmatcher_featurization(benchmark, small_dataset):
    """DeepMatcher soft-alignment featurization of one dataset."""
    matcher = DeepMatcherHybrid()
    out = benchmark.pedantic(
        lambda: matcher.featurize(small_dataset), rounds=2, iterations=1
    )
    assert out.shape[0] == len(small_dataset)


def test_static_analysis_warm_cache(benchmark, tmp_path):
    """Warm-cache lint of src/ — and proof that it beats the cold run.

    The cache is seeded (and timed once, cold) into a throwaway
    directory; the benchmarked body then replays parses, summaries, and
    file-rule findings from it. The assertion at the end is the perf
    contract of the cache layer: a warm run must be strictly faster
    than the cold run that filled it.
    """
    import time

    from repro.analysis import AnalysisCache, analyze_project

    src_root = Path(__file__).resolve().parents[1] / "src"
    cache_dir = tmp_path / "analysis-cache"

    start = time.perf_counter()
    cold_findings = analyze_project([src_root], cache=AnalysisCache(cache_dir))
    cold_seconds = time.perf_counter() - start

    findings = benchmark.pedantic(
        lambda: analyze_project([src_root], cache=AnalysisCache(cache_dir)),
        rounds=3,
        iterations=1,
    )
    assert findings == cold_findings == []
    assert benchmark.stats.stats.min < cold_seconds, (
        f"warm lint ({benchmark.stats.stats.min:.3f}s) should beat the "
        f"cold run that seeded the cache ({cold_seconds:.3f}s)"
    )


def test_interprocedural_rules_warm_overhead(tmp_path):
    """The DET/SEAM/FORK dataflow families ride the cached summaries.

    Perf contract of the effect layer: a warm full-rule-pack lint of
    src/ must stay under 2x a warm lint with only the legacy
    (pre-dataflow) rules. Both packs are timed best-of-3 against their
    own pre-seeded cache directory.
    """
    import time

    from repro.analysis import AnalysisCache, all_rules, analyze_project

    src_root = Path(__file__).resolve().parents[1] / "src"
    dataflow_prefixes = ("DET", "SEAM", "FORK", "PERF")
    legacy = [r for r in all_rules() if not r.id.startswith(dataflow_prefixes)]
    full = all_rules()
    assert len(full) > len(legacy)

    def warm_seconds(rules, cache_dir):
        analyze_project([src_root], rules=rules, cache=AnalysisCache(cache_dir))
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            analyze_project(
                [src_root], rules=rules, cache=AnalysisCache(cache_dir)
            )
            best = min(best, time.perf_counter() - start)
        return best

    legacy_warm = warm_seconds(legacy, tmp_path / "legacy-cache")
    full_warm = warm_seconds(full, tmp_path / "full-cache")
    assert full_warm < 2 * legacy_warm, (
        f"warm full-pack lint ({full_warm:.3f}s) must stay under 2x the "
        f"warm legacy-rules lint ({legacy_warm:.3f}s)"
    )


def test_telemetry_enabled_trace_capture(benchmark):
    """Span capture cost with telemetry enabled (1k-node trace)."""
    from repro import telemetry

    def record_trace():
        with telemetry.recording() as recorder:
            with telemetry.span("root"):
                for index in range(1000):
                    with telemetry.span("leaf", index=index):
                        pass
        return recorder

    recorder = benchmark.pedantic(record_trace, rounds=3, iterations=1)
    assert len(recorder.spans) == 1001
    assert telemetry.active() is None, "recording() must restore 'off'"


def test_import_graph_build(benchmark):
    """Whole-program import-graph construction over all of src/."""
    from repro.analysis.core import Project

    src_root = Path(__file__).resolve().parents[1] / "src"

    def build():
        return Project.load([src_root]).import_graph()

    graph = benchmark.pedantic(build, rounds=3, iterations=1)
    assert len(graph.modules) > 50
    assert graph.cycles() == []


def test_parallel_executor_speedup(benchmark, tmp_path, monkeypatch):
    """A two-worker grid run beats the serial run on a cold cache.

    The grid (Table 2 on two datasets at small scale) is embarrassingly
    parallel, so with two real cores the pool should land well under the
    serial wall clock; the outputs are asserted identical either way.
    Skipped on single-core machines, where the pool can only add
    process-management overhead.
    """
    import os as _os

    cores = _os.cpu_count() or 1
    if cores < 2:
        pytest.skip(f"needs >= 2 cores for a speedup, have {cores}")

    import time

    from repro.experiments import ExperimentConfig
    from repro.parallel import GridSpec, ParallelRunner

    config = ExperimentConfig(scale=0.02, max_models=2)
    grid = GridSpec.for_table(2, datasets=("S-BR", "S-FZ"))

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
    start = time.perf_counter()
    serial = ParallelRunner(config, jobs=1).run(grid)
    serial_seconds = time.perf_counter() - start

    def parallel_run():
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        return ParallelRunner(config, jobs=2).run(grid)

    results = benchmark.pedantic(parallel_run, rounds=1, iterations=1)
    parallel_seconds = benchmark.stats.stats.min

    def stable(cell_results):
        return [
            {k: v for k, v in r.record.items() if k != "wall_seconds"}
            for r in cell_results
        ]

    assert stable(results) == stable(serial)
    assert parallel_seconds < serial_seconds, (
        f"jobs=2 took {parallel_seconds:.1f}s vs {serial_seconds:.1f}s serial"
    )


def test_faults_checkpoint_disabled_overhead(benchmark):
    """The no-op-when-disabled guarantee of ``repro.faults``.

    Every hardened I/O seam pays one disabled ``checkpoint`` call per
    operation in production (no plan installed — the only production
    state). The call is one module attribute read plus an ``is None``
    check; this bench asserts it stays under 1µs so the crash-safety
    instrumentation is free on the hot paths.
    """
    from repro import faults

    assert faults.active() is None, "fault injection must be off by default"
    calls = 10_000

    def disabled_checkpoints():
        for _ in range(calls):
            faults.checkpoint("bench.noop")

    benchmark.pedantic(disabled_checkpoints, rounds=3, iterations=1)
    per_call = benchmark.stats.stats.min / calls
    assert per_call < 1e-6, (
        f"disabled checkpoint cost {per_call * 1e9:.0f}ns per call; "
        "expected under 1µs"
    )
