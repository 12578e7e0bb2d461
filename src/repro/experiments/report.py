"""Reproduction report: assemble paper-vs-measured markdown from the cache.

``repro-em report`` renders a compact markdown summary of every cached
experiment result — per-table coverage, headline aggregates (raw vs
DeepMatcher gap, adapter deltas, budget effects) — so the state of a
long-running reproduction is inspectable at any point without re-running
anything.
"""

from __future__ import annotations

import json
from collections import defaultdict

import numpy as np

from repro import faults
from repro.experiments.config import ExperimentConfig

__all__ = ["collect_cached_results", "build_report"]


def collect_cached_results(
    config: ExperimentConfig | None = None,
) -> list[dict]:
    """All cached evaluation records matching the current configuration."""
    config = config or ExperimentConfig()
    directory = config.cache_dir()
    if directory is None or not directory.exists():
        return []
    prefix = config.cache_key()  # version + scale + max_models + seed
    records = []
    for path in sorted(directory.glob("*.json")):
        if not path.name.startswith(prefix):
            continue
        faults.checkpoint("report.cache.read", path=str(path))
        try:
            with path.open() as handle:
                record = json.load(handle)
        except (json.JSONDecodeError, OSError):
            # A torn or garbage cache entry is simply skipped; the report
            # covers whatever is readable. Skipping *is* the recovery.
            faults.mark_recovered("report.cache.read", path=str(path))
            continue
        record["_key"] = path.stem
        records.append(record)
    return records


def _mean(values: list[float]) -> float | None:
    return float(np.mean(values)) if values else None


def build_report(config: ExperimentConfig | None = None) -> str:
    """Markdown reproduction report from whatever is cached right now."""
    config = config or ExperimentConfig()
    records = collect_cached_results(config)
    raw = [r for r in records if "(raw)" in r["system"]]
    deepmatcher = [r for r in records if r["system"] == "deepmatcher"]
    adapted = [r for r in records if "+" in r["system"]]

    lines = [
        "# Reproduction report",
        "",
        f"configuration: scale={config.scale:g}, "
        f"max_models={config.max_models}, seed={config.seed}",
        f"cached results: {len(records)} "
        f"({len(raw)} raw, {len(deepmatcher)} deepmatcher, "
        f"{len(adapted)} adapted)",
        "",
    ]

    dm_mean = _mean([r["f1"] for r in deepmatcher])
    if dm_mean is not None:
        lines.append(f"**DeepMatcher** mean F1: {dm_mean:.1f}")
    raw_by_system: dict[str, list[float]] = defaultdict(list)
    for r in raw:
        raw_by_system[r["system"].split("(")[0]].append(r["f1"])
    for system, values in sorted(raw_by_system.items()):
        lines.append(
            f"**{system} (raw)** mean F1: {_mean(values):.1f} "
            f"({len(values)} datasets)"
        )
    lines.append("")

    # Adapter deltas per system: mean(adapted over tokenizers/embedders)
    # minus the raw score, per dataset.
    raw_score = {
        (r["system"].split("(")[0], r["dataset"]): r["f1"] for r in raw
    }
    adapted_by: dict[tuple[str, str], list[float]] = defaultdict(list)
    for r in adapted:
        system = r["system"].split("+")[0]
        if r["_key"].endswith("_1"):  # 1h-budget cells only.
            adapted_by[(system, r["dataset"])].append(r["f1"])
    deltas: dict[str, list[float]] = defaultdict(list)
    for (system, dataset), values in adapted_by.items():
        base = raw_score.get((system, dataset))
        if base is not None:
            deltas[system].append(float(np.mean(values)) - base)
    if deltas:
        lines.append("## Adapter impact (mean adapted - raw, per system)")
        for system, values in sorted(deltas.items()):
            lines.append(
                f"* {system}: {_mean(values):+.1f} F1 over {len(values)} datasets"
            )
        lines.append("")

    # Budget effect on the best configuration.
    one_hour: dict[tuple[str, str], float] = {}
    six_hour: dict[tuple[str, str], float] = {}
    for r in adapted:
        if "hybrid+albert" not in r["system"]:
            continue
        system = r["system"].split("+")[0]
        key = (system, r["dataset"])
        if r["_key"].endswith("_6"):
            six_hour[key] = r["f1"]
        elif r["_key"].endswith("_1"):
            one_hour[key] = r["f1"]
    shared = sorted(set(one_hour) & set(six_hour))
    if shared:
        gains = [six_hour[k] - one_hour[k] for k in shared]
        lines.append("## Budget effect (hybrid+albert, 6h - 1h)")
        lines.append(
            f"* mean gain {float(np.mean(gains)):+.2f} F1 over "
            f"{len(shared)} (system, dataset) cells"
        )
        lines.append("")

    return "\n".join(lines)
