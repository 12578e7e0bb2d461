"""Every metric the benchmark reports, with the layer it measures and the
end-to-end metric (on which workload) it should move.

Names, units and directions are declared once, in ``BENCHMARK.json`` at
the checkout root, and read from there; this module adds each per-layer
metric's layer and the metrics it should move.
"""

from __future__ import annotations

import json
from pathlib import Path

_DECLARED = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)

WORKLOADS = tuple(w["name"] for w in _DECLARED["workloads"])

#: name -> its BENCHMARK.json entry (``unit``, ``better``, ...).
#: What each one is on each workload: README.md.
END_TO_END: dict[str, dict] = {m["name"]: m for m in _DECLARED["end_to_end"]}
PER_LAYER: dict[str, dict] = {m["name"]: m for m in _DECLARED["per_layer"]}

#: per-layer name -> (layer, [(end-to-end metric, workload), ...]).
LAYERS: dict[str, tuple[str, list[tuple[str, str]]]] = {
    "setup.import_s": ("repro import", [("setup_s", w) for w in WORKLOADS]),
    "data.generate_s": ("repro.data", [("setup_s", "batch-cold")]),
    "data.split_s": ("repro.data", [("setup_s", "batch-cold")]),
    "adapter.transform_s": ("repro.adapter",
                            [("fit_s", "batch-cold"), ("pairs_per_s", "batch-cold")]),
    "adapter.tokenize_s": ("repro.adapter", [("fit_s", "batch-cold")]),
    "adapter.embed_s": ("repro.adapter + repro.transformers", [("fit_s", "batch-cold")]),
    "adapter.combine_s": ("repro.adapter", [("fit_s", "batch-cold")]),
    "adapter.entity_cache.hit_ratio": ("entity store (memory)", [("p50_ms", "serve-repeat")]),
    "adapter.entity_store.files_written": ("entity store (disk)",
                                           [("fit_s", "batch-cold"),
                                            ("pairs_per_s", "batch-cold"),
                                            ("setup_s", "serve-repeat")]),
    "adapter.entity_store.files_per_pair": ("entity store (disk)",
                                            [("fit_s", "batch-cold"),
                                             ("pairs_per_s", "batch-cold"),
                                             ("setup_s", "serve-repeat")]),
    "adapter.entity_store.disk_mb": ("entity store (disk)",
                                     [("fit_s", "batch-cold"), ("setup_s", "serve-repeat")]),
    "automl.fit_s": ("repro.automl + repro.ml", [("fit_s", "batch-cold")]),
    "automl.search_s": ("repro.automl", [("fit_s", "batch-cold")]),
    "automl.ensemble_s": ("repro.automl", [("fit_s", "batch-cold")]),
    "automl.candidates": ("repro.automl", [("fit_s", "batch-cold")]),
    "automl.predict_ms": ("repro.automl",
                          [("p50_ms", "serve-repeat"), ("max_rps", "serve-repeat"),
                           ("pairs_per_s", "batch-cold")]),
    "automl.passes_per_request": ("repro.automl as repro.serving calls it",
                                 [("p50_ms", "serve-repeat"),
                                  ("max_rps", "serve-repeat")]),
    "automl.predict_share": ("repro.automl vs repro.serving",
                             [("p50_ms", "serve-repeat"), ("max_rps", "serve-repeat")]),
    "persistence.load_s": ("repro.persistence",
                           [("setup_s", "serve-repeat"), ("fit_s", "serve-repeat")]),
    "serving.flush_ms": ("repro.serving batcher + engine",
                         [("p50_ms", "serve-repeat")]),
    "serving.wait_ms": ("repro.serving daemon + batcher",
                        [("p50_ms", "serve-repeat"), ("tail_ms", "serve-repeat")]),
    "serving.requests_per_flush": ("repro.serving batcher", [("max_rps", "serve-repeat")]),
    "serving.pairs_per_flush": ("repro.serving batcher", [("pairs_per_s", "serve-repeat")]),
    "serving.http_ms": ("client <-> daemon", [("p50_ms", "serve-repeat")]),
    "serving.shed": ("repro.serving", [("max_rps", "serve-repeat")]),
    "serving.errors": ("repro.serving", [("max_rps", "serve-repeat")]),
    "daemon.rss_growth_mb_per_1k_flushes": ("repro.telemetry in the daemon",
                                            [("rss_mb", "serve-repeat")]),
    "loadgen.max_lag_ms": ("the benchmark's generator", []),
    "host.cpu_ref_ms": ("host", []),
    **{f"trace.overhead_pct.{name}": ("tracing", []) for name in END_TO_END},
}


def moves(name: str) -> str:
    """``fit_s@batch-cold, ...`` for a per-layer metric (``-`` if none)."""
    return ", ".join(f"{m}@{w}" for m, w in LAYERS[name][1]) or "-"
