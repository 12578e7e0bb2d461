"""The ``batch-cold`` workload: the offline path a paper user runs.

Each pass runs ``batch_child.py`` in fresh interpreters with a fresh
cache directory. Set-up time is the median over SETUP_SAMPLES spawns
(the measured pass is one of them); peak RSS comes from ``wait4``.

The work is the paper user's whole offline path, fixed by its inputs:
fit, the test split, the unseen draw and QUERIES small requests. It
takes longer than ``--seconds`` on 2 vCPUs, which therefore does not
change it.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import spans
from batch_child import EXPECTED_F1
from common import median, program_env, run_python, tail

SETUP_SAMPLES = 3
#: In-process requests: 16 after the test split and after each of the
#: unseen draw's 4 chunks.
QUERIES = 80


def batch_pass(seed: int, run_dir: Path, mode: str) -> dict:
    """One pass (``mode`` ``run`` or ``traced``); raw child results inside."""
    queries = QUERIES

    def setup_sample(sample: int) -> float:
        out = run_dir / f"{mode}-setup-{sample}.json"
        start = time.monotonic()
        run_python("batch_child.py", ["setup", str(out), str(seed), str(queries)],
                   program_env(run_dir / f"cache-{mode}-setup-{sample}"),
                   run_dir / "batch.log", run_dir, timeout=170)
        return json.loads(out.read_text())["ready"] - start

    # One set-up sample before the measured pass and one after it: host
    # speed drifts over tens of seconds, and back-to-back samples would
    # all land in the same few seconds.
    setup_s = [setup_sample(0)]
    out = run_dir / f"{mode}.json"
    start = time.monotonic()
    peak_mb = run_python("batch_child.py", [mode, str(out), str(seed), str(queries)],
                         program_env(run_dir / f"cache-{mode}"),
                         run_dir / "batch.log", run_dir, timeout=170)
    child = json.loads(out.read_text())
    setup_s.append(child["ready"] - start)
    setup_s += [setup_sample(i) for i in range(1, SETUP_SAMPLES - 1)]

    query = child["queries"]
    latencies_ms = [s * 1000.0 for s in query["latencies"]]
    loop_s = sum(query["latencies"]) + sum(query["lags"])
    tail_ms, tail_pct, tail_n = tail(latencies_ms)
    checks = child["checks"]
    failed = (
        (not checks["sizes"])
        + sum(child["f1"][k] != v for k, v in EXPECTED_F1.items())
        + query["mismatches"]
        + (not checks.get("persistence", True))
    )
    return {
        "child": child,
        "setup_samples": setup_s,
        "attempted": 3 + len(latencies_ms) + (mode == "traced"),
        "failed": failed,
        "e2e": {
            "setup_s": median(setup_s),
            "fit_s": child["fit_s"],
            "pairs_per_s": child["sizes"]["unseen"] / child["unseen_s"],
            "rss_mb": peak_mb,
            "p50_ms": median(latencies_ms),
            "tail_ms": tail_ms,
            "max_rps": len(latencies_ms) / loop_s,
        },
        "tail": {"pct": tail_pct, "n": tail_n},
    }


def layers(traced: dict) -> dict[str, float]:
    """Per-layer values of a traced pass (0 for layers off this path)."""
    child = traced["child"]

    def span_s(name: str, **match) -> float:
        return spans.total(child["spans"], name, **match)

    program = child["program_spans"]
    counters = child["counters"]
    hits = counters.get("adapter.entity_cache.memory.hits", 0.0)
    misses = counters.get("adapter.entity_cache.memory.misses", 0.0)
    files, disk_mb = child["entity_files"]["score"]
    pairs = child["entity_files"]["fit_pairs"] + child["entity_files"]["score_pairs"]
    # A request's time beyond its transform, in ensemble passes (one
    # ``predict_proba``) and as a share of the request.
    query_s = span_s("query")
    beyond_s = query_s - span_s("adapter.transform", split="query")
    pass_s = span_s("automl.predict_proba", split="query")
    n_queries = len(child["queries"]["latencies"])
    return {
        "setup.import_s": span_s("setup.import"),
        "data.generate_s": span_s("data.generate"),
        "data.split_s": span_s("data.split"),
        "adapter.transform_s": span_s("adapter.transform"),
        "adapter.tokenize_s": program.get("adapter.tokenize", [0, 0.0])[1],
        "adapter.embed_s": program.get("adapter.embed", [0, 0.0])[1],
        "adapter.combine_s": program.get("adapter.combine", [0, 0.0])[1],
        "adapter.entity_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "adapter.entity_store.files_written": files,
        "adapter.entity_store.files_per_pair": files / pairs,
        "adapter.entity_store.disk_mb": disk_mb,
        "automl.fit_s": span_s("automl.fit"),
        "automl.search_s": program.get("automl.search", [0, 0.0])[1],
        "automl.ensemble_s": program.get("automl.ensemble", [0, 0.0])[1],
        "automl.candidates": counters.get("automl.candidates", 0.0),
        "automl.predict_ms": pass_s / n_queries * 1000.0,
        "automl.passes_per_request": beyond_s / pass_s,
        "automl.predict_share": beyond_s / query_s,
        "persistence.load_s": span_s("persistence.load"),
        "loadgen.max_lag_ms": max(child["queries"]["lags"]) * 1000.0,
    }
