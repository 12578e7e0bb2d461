"""Chaos harness: drill a table grid under seeded fault plans.

The library behind ``repro-em chaos``. One drill runs a scaled table
grid three ways and proves the crash-safety contract of
docs/ROBUSTNESS.md end to end:

1. a **reference leg** — fault-free, fresh cache directory: the ground
   truth output;
2. per plan, a **cold leg** — same grid, fresh cache directory, with
   the generated :class:`~repro.faults.FaultPlan` installed: write
   faults and (with ``jobs > 1``) worker kills fire while the caches
   fill;
3. per plan, a **warm leg** — same cache directory, memory caches
   cleared: every cell replays from disk, so read-corruption faults
   fire against real cache entries.

A plan passes only if **both** legs render byte-identically to the
reference, the plan's cache tree holds zero orphaned ``.tmp`` files,
every fired fault was settled (``faults.injected.<kind> ==
faults.recovered.<kind> + faults.fatal.<kind>`` in the merged metrics),
and nothing is left pending on the plan. Generated plans only schedule
recoverable faults — ``budget`` faults legitimately change results (a
trial that stops earlier trains fewer models) and are therefore drilled
by the test suite as graceful degradation, never by the byte-identity
harness.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro import faults, telemetry
from repro.adapter import clear_entity_store
from repro.config import rng_for
from repro.experiments.config import ExperimentConfig
from repro.faults import FaultPlan, FaultSpec
from repro.parallel.executor import ParallelRunner
from repro.parallel.grid import GridSpec
from repro.telemetry import snapshot

__all__ = ["ChaosReport", "PlanOutcome", "run_chaos"]

#: Fault-settlement counter prefixes, in report order.
_SETTLEMENTS = ("injected", "recovered", "fatal")


@dataclass
class PlanOutcome:
    """One fault plan's verdict against the fault-free reference."""

    plan_id: int
    n_specs: int
    identical: bool
    orphans: list[str]
    injected: dict[str, float]
    recovered: dict[str, float]
    fatal: dict[str, float]
    unresolved: list[tuple]
    trace: dict = field(repr=False, default_factory=dict)

    @property
    def balanced(self) -> bool:
        """Whether injected == recovered + fatal holds per fault kind."""
        kinds = set(self.injected) | set(self.recovered) | set(self.fatal)
        return all(
            self.injected.get(kind, 0) ==
            self.recovered.get(kind, 0) + self.fatal.get(kind, 0)
            for kind in kinds
        )

    @property
    def ok(self) -> bool:
        return (
            self.identical
            and not self.orphans
            and self.balanced
            and not self.unresolved
        )

    def _counters_text(self) -> str:
        parts = []
        for settlement in _SETTLEMENTS:
            bucket: dict = getattr(self, settlement)
            if bucket:
                inner = " ".join(
                    f"{kind}={int(bucket[kind])}" for kind in sorted(bucket)
                )
                parts.append(f"{settlement}[{inner}]")
        return " ".join(parts) if parts else "no faults fired"

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAIL"
        details = [
            "byte-identical" if self.identical else "OUTPUT DIFFERS",
            f"{len(self.orphans)} orphaned .tmp",
            self._counters_text(),
        ]
        if not self.balanced:
            details.append("UNBALANCED fault accounting")
        if self.unresolved:
            details.append(f"unresolved: {self.unresolved}")
        return (
            f"plan {self.plan_id}: {self.n_specs} spec(s) · "
            + " · ".join(details)
            + f" -> {verdict}"
        )


@dataclass
class ChaosReport:
    """The full drill: reference leg plus every plan's outcome."""

    table: int
    datasets: tuple[str, ...]
    jobs: int
    reference: str = field(repr=False)
    reference_orphans: list[str] = field(default_factory=list)
    outcomes: list[PlanOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.reference_orphans and all(o.ok for o in self.outcomes)

    @property
    def trace(self) -> dict | None:
        """The last plan's telemetry snapshot (for ``--trace-file``)."""
        return self.outcomes[-1].trace if self.outcomes else None

    def render(self) -> str:
        lines = [
            f"chaos drill: table {self.table} · "
            f"datasets {','.join(self.datasets)} · jobs {self.jobs} · "
            f"{len(self.outcomes)} plan(s)",
            f"reference leg: {len(self.reference.encode())} bytes, "
            f"{len(self.reference_orphans)} orphaned .tmp",
        ]
        lines.extend(outcome.summary() for outcome in self.outcomes)
        passed = sum(outcome.ok for outcome in self.outcomes)
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"chaos verdict: {verdict} "
            f"({passed}/{len(self.outcomes)} plans clean)"
        )
        return "\n".join(lines)


@contextmanager
def _cache_env(path: Path) -> Iterator[None]:
    """Point ``REPRO_CACHE_DIR`` (runner cache + entity store) at ``path``."""
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(path)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = previous


def _run_leg(
    table: int,
    config: ExperimentConfig,
    datasets: tuple[str, ...],
    jobs: int,
    cache_dir: Path,
) -> str:
    """Render the table once against ``cache_dir``, memory caches cold.

    Clearing the entity store's memory tier (fresh worker pools and a
    fresh :class:`~repro.experiments.runner.ExperimentRunner` cover the
    rest) is what turns a second leg over the same directory into a
    disk-replay — the seam the read-corruption faults need.
    """
    clear_entity_store()
    with _cache_env(cache_dir):
        runner = ParallelRunner(config, jobs=jobs)
        return runner.run_table(table, datasets=datasets)


def _orphans(root: Path) -> list[str]:
    if not root.exists():
        return []
    return sorted(str(path.relative_to(root)) for path in root.rglob("*.tmp"))


def _fault_counters(
    recorder: telemetry.TelemetryRecorder,
) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
    """The merged ``faults.<settlement>.<kind>`` counters of one drill."""
    buckets: dict[str, dict[str, float]] = {s: {} for s in _SETTLEMENTS}
    for metric in recorder.metrics.to_dicts():
        if metric.get("type") != "counter":
            continue
        name = metric.get("name", "")
        for settlement in _SETTLEMENTS:
            prefix = f"faults.{settlement}."
            if name.startswith(prefix):
                buckets[settlement][name[len(prefix):]] = metric["value"]
    return buckets["injected"], buckets["recovered"], buckets["fatal"]


def _chaos_plan(
    index: int, grid: GridSpec, jobs: int, seed: int | None
) -> FaultPlan:
    """Generate plan ``index``; with workers, aim one kill at a cell."""
    plan = FaultPlan.generate(index, seed=seed)
    if jobs > 1 and grid.cells:
        rng = rng_for("faults", "chaos-kill", index, seed=seed)
        cell = grid.cells[int(rng.integers(0, len(grid.cells)))]
        plan.specs.append(
            FaultSpec(point="parallel.worker", kind="kill", key=cell.label)
        )
    return plan


def run_chaos(
    table: int = 2,
    config: ExperimentConfig | None = None,
    datasets: tuple[str, ...] = ("S-FZ",),
    plans: int = 3,
    jobs: int = 1,
    seed: int | None = None,
    work_dir: str | Path | None = None,
) -> ChaosReport:
    """Run the chaos drill; see the module docstring for the contract.

    ``work_dir`` hosts the per-leg cache directories (a throwaway
    temporary directory by default); pass a path to inspect the cache
    trees afterwards.
    """
    if plans < 1:
        raise ValueError(f"plans must be >= 1, got {plans}")
    config = config if config is not None else ExperimentConfig()
    own_tmp = None
    if work_dir is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        root = Path(own_tmp.name)
    else:
        root = Path(work_dir)
        root.mkdir(parents=True, exist_ok=True)
    try:
        reference = _run_leg(table, config, datasets, jobs, root / "reference")
        grid = GridSpec.for_table(table, datasets=tuple(datasets))
        outcomes = []
        for index in range(plans):
            plan = _chaos_plan(index, grid, jobs, seed)
            cache_dir = root / f"plan-{index}"
            with telemetry.recording() as recorder:
                with faults.injecting(plan):
                    cold = _run_leg(table, config, datasets, jobs, cache_dir)
                    warm = _run_leg(table, config, datasets, jobs, cache_dir)
            injected, recovered, fatal = _fault_counters(recorder)
            outcomes.append(
                PlanOutcome(
                    plan_id=plan.plan_id,
                    n_specs=len(plan.specs),
                    identical=(cold == reference and warm == reference),
                    orphans=_orphans(cache_dir),
                    injected=injected,
                    recovered=recovered,
                    fatal=fatal,
                    unresolved=plan.unresolved,
                    trace=snapshot(recorder),
                )
            )
        return ChaosReport(
            table=table,
            datasets=tuple(datasets),
            jobs=jobs,
            reference=reference,
            reference_orphans=_orphans(root / "reference"),
            outcomes=outcomes,
        )
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()
