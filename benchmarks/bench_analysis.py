"""Benchmark the ``repro.analysis`` engine: cold vs warm full-repo lint.

The measurement itself lives in the registry
(:mod:`repro.bench.suites.analysis`, spec name ``analysis``); refresh
the committed snapshot at the repo root with::

    PYTHONPATH=src repro-em bench --only analysis --update-baselines

This pytest module exercises the same harness into a throwaway
directory and asserts the cache's perf contract (warm < cold), plus
that the committed ``BENCH_analysis.json`` stays schema-valid and keeps
the legacy detail keys its pre-registry readers expect.
"""

from __future__ import annotations

import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SNAPSHOT_PATH = REPO_ROOT / "BENCH_analysis.json"


def test_analysis_engine_cold_vs_warm(tmp_path):
    """The payload is well-formed and the warm leg beats the cold leg."""
    from repro.bench.suites.analysis import run_analysis_benchmark

    payload = run_analysis_benchmark(tmp_path / "cache", warm_rounds=2)
    assert payload["findings"]["cold"] == payload["findings"]["warm"] == 0
    assert payload["cold"]["cache_hits"] == 0
    assert payload["warm"]["cache_misses"] == 0
    assert payload["warm"]["cache_hits"] == payload["modules"]
    assert payload["warm"]["seconds"] < payload["cold"]["seconds"]
    assert payload["cost_pass"]["warm_seconds"] < 2.0  # propagation only


def test_analysis_spec_registered():
    """The registry owns the benchmark: quick tier, gated cache metrics."""
    from repro.bench import get_spec, load_suites

    load_suites()
    spec = get_spec("analysis")
    assert spec.tier == "quick"
    gated = {p.name for p in spec.metrics if p.gate}
    assert {"warm_over_cold", "findings", "warm_cache_misses"} <= gated


def test_committed_snapshot_schema():
    """``BENCH_analysis.json`` at the repo root is a schema-valid v2
    envelope whose detail keeps the version-1 payload keys (numbers are
    machine-dependent and not compared)."""
    from repro.bench import SCHEMA_VERSION, validate_payload

    payload = json.loads(SNAPSHOT_PATH.read_text(encoding="utf-8"))
    validate_payload(payload)
    assert payload["schema_version"] == SCHEMA_VERSION == 2
    assert payload["name"] == "analysis"

    detail = payload["detail"]
    for key in (
        "salt", "modules", "rules", "findings", "cold", "warm", "cost_pass",
    ):
        assert key in detail, key
    assert {"cold_seconds", "warm_seconds"} <= detail["cost_pass"].keys()
    for leg in ("cold", "warm"):
        assert {"seconds", "cache_hits", "cache_misses"} <= detail[leg].keys()
