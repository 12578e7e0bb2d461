"""The ``analysis`` spec: cold vs warm full-repo lint.

Migrated from the bespoke ``benchmarks/bench_analysis.py`` harness (its
pytest shape-assertions now run against this spec). The detail payload
keeps the exact keys the version-1 ``BENCH_analysis.json`` committed —
``salt``, ``modules``, ``rules``, ``findings``, ``cold``, ``warm``,
``warm_over_cold``, ``cost_pass`` — so downstream readers survive the
migration; the envelope's ``schema_version`` is bumped to 2.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import repro
from repro.bench.spec import BenchmarkSpec, MetricPolicy

#: Registered by :func:`repro.bench.suites.load_suites`.
SPECS: list[BenchmarkSpec] = []

#: The source tree the lint benchmark runs over: the directory holding
#: the ``repro`` package (``src/`` in the repo's editable layout).
SRC_ROOT = Path(repro.__file__).resolve().parents[1]


def run_analysis_benchmark(cache_dir: Path, warm_rounds: int = 3) -> dict:
    """Time one cold and ``warm_rounds`` warm full-repo analysis runs.

    Returns the legacy detail payload. ``cache_dir`` must not hold a
    previous cache — the first run is the cold leg by definition.
    """
    from repro.analysis import (
        AnalysisCache,
        Project,
        all_rules,
        analysis_salt,
        analyze_project,
    )
    from repro.analysis.cost import cost_analysis

    salt = analysis_salt(SRC_ROOT)

    cold_cache = AnalysisCache(cache_dir, salt=salt)
    start = time.perf_counter()
    cold_findings = analyze_project([SRC_ROOT], cache=cold_cache)
    cold_seconds = time.perf_counter() - start

    warm_seconds = []
    warm_hits = warm_misses = 0
    warm_findings: list = []
    for _ in range(warm_rounds):
        warm_cache = AnalysisCache(cache_dir, salt=salt)
        start = time.perf_counter()
        warm_findings = analyze_project([SRC_ROOT], cache=warm_cache)
        warm_seconds.append(time.perf_counter() - start)
        warm_hits, warm_misses = warm_cache.hits, warm_cache.misses

    # Cost fixpoint in isolation: cold (fresh project, summaries built
    # from source) vs warm (summaries replayed from the cache above,
    # only the multiplicity propagation itself re-runs).
    start = time.perf_counter()
    cold_project = Project.load([SRC_ROOT])
    cost_analysis(cold_project)
    cost_cold_seconds = time.perf_counter() - start

    cost_warm_seconds = []
    for _ in range(warm_rounds):
        warm_project = Project.load(
            [SRC_ROOT], cache=AnalysisCache(cache_dir, salt=salt)
        )
        start = time.perf_counter()
        cost_analysis(warm_project)
        cost_warm_seconds.append(time.perf_counter() - start)

    modules = len(cold_project.modules)
    return {
        "benchmark": "repro.analysis full-repo lint of src/",
        "salt": salt,
        "modules": modules,
        "rules": len(all_rules()),
        "findings": {
            "cold": len(cold_findings),
            "warm": len(warm_findings),
        },
        "cold": {
            "seconds": round(cold_seconds, 4),
            "cache_hits": cold_cache.hits,
            "cache_misses": cold_cache.misses,
        },
        "warm": {
            "seconds": round(min(warm_seconds), 4),
            "rounds": warm_rounds,
            "cache_hits": warm_hits,
            "cache_misses": warm_misses,
        },
        "warm_over_cold": round(min(warm_seconds) / cold_seconds, 4),
        "cost_pass": {
            "cold_seconds": round(cost_cold_seconds, 4),
            "warm_seconds": round(min(cost_warm_seconds), 4),
        },
    }


def _run(ctx) -> dict:
    with tempfile.TemporaryDirectory(prefix="repro-bench-analysis-") as tmp:
        detail = run_analysis_benchmark(Path(tmp) / "cache")
    ctx.metric("cold_seconds", detail["cold"]["seconds"])
    ctx.metric("warm_seconds", detail["warm"]["seconds"])
    ctx.metric("warm_over_cold", detail["warm_over_cold"])
    ctx.metric("warm_cache_hits", detail["warm"]["cache_hits"])
    ctx.metric("warm_cache_misses", detail["warm"]["cache_misses"])
    ctx.metric("findings", detail["findings"]["cold"])
    ctx.metric("modules", detail["modules"])
    ctx.metric("cost_warm_seconds", detail["cost_pass"]["warm_seconds"])
    return detail


SPECS.append(
    BenchmarkSpec(
        name="analysis",
        tier="quick",
        run=_run,
        description="repro.analysis full-repo lint: cold vs warm cache",
        metrics=(
            MetricPolicy("cold_seconds", unit="s", tolerance=2.0),
            MetricPolicy("warm_seconds", unit="s", tolerance=2.0),
            # Machine-independent-ish ratio: the cache's perf contract.
            MetricPolicy("warm_over_cold", tolerance=1.5),
            # The lint baseline ships empty; any finding is a regression.
            MetricPolicy("findings", direction="two_sided", tolerance=0.0),
            # A warm run must replay every module from the cache.
            MetricPolicy("warm_cache_misses", direction="two_sided", tolerance=0.0),
            MetricPolicy("cost_warm_seconds", unit="s", tolerance=2.0),
            # Counts move legitimately as the repo grows: record, don't gate.
            MetricPolicy("warm_cache_hits", direction="two_sided", gate=False),
            MetricPolicy("modules", direction="two_sided", gate=False),
        ),
    )
)
