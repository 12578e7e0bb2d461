"""Deterministic process-pool execution of experiment grids.

:class:`ParallelRunner` fans a :class:`~repro.parallel.grid.GridSpec`'s
cells out over ``jobs`` worker processes and merges the results back in
canonical grid order. Determinism comes for free from the substrate:
every stochastic component draws from :func:`repro.config.rng_for`
(seeded by *scope*, not by process), so a cell computes the identical
``EvaluationResult`` no matter which worker runs it — parallelism only
reorders wall-clock time, never results.

Workers coordinate through the existing on-disk caches: each worker's
:class:`~repro.experiments.runner.ExperimentRunner` persists results
under ``.repro_cache/`` and the entity store publishes packs under
``.repro_cache/entity/``, both via atomic same-directory renames, so
two workers computing the same key race benignly (last rename wins,
both files are complete; pack names are unique per process). Results
additionally ship back over the result pipe, so the merged table
renders from memory even with the disk cache off.

When telemetry is recording in the parent, each worker records its
cells into private recorders and ships the snapshots home, where they
are stitched under the executor's ``parallel.run`` span (see
:mod:`repro.telemetry.stitch`), keeping one coherent span tree and a
complete cross-process trial ledger.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro import faults, telemetry
from repro.data.benchmark import DATASET_NAMES
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4
from repro.experiments.table5 import run_table5
from repro.parallel.grid import Cell, GridSpec
from repro.telemetry import graft_snapshot, snapshot

__all__ = [
    "CellResult",
    "ParallelExecutionError",
    "ParallelRunner",
    "run_table_parallel",
]


@dataclass(frozen=True)
class CellResult:
    """One cell's outcome, merged back in canonical grid order."""

    index: int
    cell: Cell
    record: dict  # EvaluationResult fields, exactly as the cache stores them.
    elapsed_seconds: float
    worker_pid: int
    trace: dict | None = field(default=None, repr=False)


class ParallelExecutionError(RuntimeError):
    """A grid cell failed in a worker; carries the worker's traceback."""

    def __init__(self, label: str, error_type: str, worker_traceback: str) -> None:
        super().__init__(
            f"cell {label} failed in worker with {error_type}\n{worker_traceback}"
        )
        self.label = label
        self.error_type = error_type
        self.worker_traceback = worker_traceback


# One ExperimentRunner per worker process, built by the pool initializer:
# its in-memory split/result caches then serve every cell the worker takes.
_WORKER_RUNNER: ExperimentRunner | None = None


def _init_worker(
    config: ExperimentConfig, plan: "faults.FaultPlan | None" = None
) -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = ExperimentRunner(config)
    # With fork the worker inherits whatever entity embeddings the parent
    # already holds in memory; dropping them (FORK001) keeps worker
    # memory flat and every cache fill attributable to the worker's own
    # cells. The entries are content-addressed, so this costs
    # recomputation (or a disk read) only.
    from repro.adapter import clear_entity_store

    clear_entity_store()
    # Chaos runs ship the parent's fault plan into every worker (with
    # fork the module state is inherited anyway; with spawn this is the
    # only channel). Re-shipped on pool rebuilds with fired kill specs
    # disarmed, so a replacement worker does not die the same death.
    if plan is not None:
        faults.install(plan)


def _execute_cell(index: int, cell: Cell, capture_trace: bool) -> dict:
    """Run one cell in the worker; always returns a picklable payload."""
    runner = _WORKER_RUNNER
    if runner is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker used before _init_worker")
    # Chaos seam: a "kill" fault keyed to this cell's label dies here
    # with os._exit — no unwinding, exactly like SIGKILL mid-cell.
    faults.checkpoint("parallel.worker", key=cell.label)
    start = telemetry.wallclock()
    try:
        if capture_trace:
            with telemetry.recording() as recorder:
                result = cell.run(runner)
            trace = snapshot(recorder)
        else:
            result = cell.run(runner)
            trace = None
    # Process boundary: ANY failure must come home as a picklable
    # payload, not crash the worker silently.
    except Exception as exc:  # repro: noqa[GEN003]
        return {
            "index": index,
            "error": type(exc).__name__,
            "traceback": traceback.format_exc(),
            "label": cell.label,
        }
    return {
        "index": index,
        "record": dict(result.__dict__),
        "trace": trace,
        "elapsed": telemetry.wallclock() - start,
        "pid": os.getpid(),
    }


def _default_start_method() -> str:
    """Prefer fork (cheap start, warm module state) where available."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


class ParallelRunner:
    """Fan an experiment grid out over worker processes, merge in order.

    Parameters
    ----------
    config:
        The :class:`ExperimentConfig` every worker evaluates under.
    jobs:
        Worker process count; ``1`` executes the grid inline (no pool),
        which is also the byte-equality reference for any ``jobs > 1``.
    start_method:
        ``multiprocessing`` start method; default fork where available.
    worker_restarts:
        How many times a broken pool (a worker died without reporting —
        injected kill fault or real crash) is rebuilt to re-execute the
        missing cells before giving up with
        :class:`ParallelExecutionError`. Re-execution is idempotent:
        cells are deterministic and completed cells are never re-run.
    """

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        jobs: int = 1,
        start_method: str | None = None,
        worker_restarts: int = 2,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if worker_restarts < 0:
            raise ValueError(f"worker_restarts must be >= 0, got {worker_restarts}")
        self.config = config if config is not None else ExperimentConfig()
        self.jobs = jobs
        self.start_method = start_method or _default_start_method()
        self.worker_restarts = worker_restarts

    # ---------------------------------------------------------------- run

    def run(self, grid: GridSpec) -> list[CellResult]:
        """Execute every cell; results come back in canonical order."""
        with telemetry.span(
            "parallel.run", table=grid.table, cells=len(grid.cells), jobs=self.jobs
        ):
            if self.jobs == 1 or not grid.cells:
                results = self._run_inline(grid)
            else:
                results = self._run_pool(grid)
            telemetry.counter("parallel.cells.completed").inc(len(results))
            return results

    def _run_inline(self, grid: GridSpec) -> list[CellResult]:
        runner = ExperimentRunner(self.config)
        results = []
        for index, cell in enumerate(grid.cells):
            start = telemetry.wallclock()
            outcome = cell.run(runner)
            results.append(
                CellResult(
                    index=index,
                    cell=cell,
                    record=dict(outcome.__dict__),
                    elapsed_seconds=telemetry.wallclock() - start,
                    worker_pid=os.getpid(),
                )
            )
        return results

    def _run_pool(self, grid: GridSpec) -> list[CellResult]:
        recorder = telemetry.active()
        context = multiprocessing.get_context(self.start_method)
        payloads: dict[int, dict] = {}
        pending: dict[int, Cell] = dict(enumerate(grid.cells))
        restarts = 0
        while pending:
            plan = faults.active()
            with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(pending)),
                mp_context=context,
                initializer=_init_worker,
                initargs=(self.config, plan),
            ) as pool:
                futures = [
                    pool.submit(_execute_cell, index, cell, recorder is not None)
                    for index, cell in pending.items()
                ]
                try:
                    for future in as_completed(futures):
                        payload = future.result()
                        if "error" in payload:
                            raise ParallelExecutionError(
                                payload["label"],
                                payload["error"],
                                payload["traceback"],
                            )
                        payloads[payload["index"]] = payload
                except BrokenProcessPool:
                    # A worker died without reporting (injected kill
                    # fault or real crash). Cancel what's queued, then
                    # fall through to the restart accounting below.
                    for future in futures:
                        future.cancel()
                # Fail fast on anything else (incl. KeyboardInterrupt):
                # cancel queued cells so the pool can shut down promptly.
                except BaseException:  # repro: noqa[GEN003]
                    for future in futures:
                        future.cancel()
                    raise
            pending = {
                index: cell
                for index, cell in pending.items()
                if index not in payloads
            }
            if not pending:
                break
            # Re-execute the dead worker's cells in a fresh pool —
            # idempotent by determinism, and completed cells are kept.
            # Kill specs aimed at the still-missing cells are the
            # injected culprits: disarm them so the replacement worker
            # survives, and account one injected+recovered pair each.
            restarts += 1
            missing = {cell.label for cell in pending.values()}
            disarmed = plan.disarm_kills(missing) if plan is not None else []
            if disarmed:
                # The dying process cannot count its own death; the
                # parent accounts the injection, and its settlement
                # depends on whether a retry is still allowed.
                telemetry.counter("faults.injected.worker").inc(len(disarmed))
            telemetry.counter("parallel.worker.restarts").inc()
            if restarts > self.worker_restarts:
                if disarmed:
                    telemetry.counter("faults.fatal.worker").inc(len(disarmed))
                raise ParallelExecutionError(
                    label=", ".join(sorted(missing)),
                    error_type="BrokenProcessPool",
                    worker_traceback=(
                        f"worker died without reporting; gave up after "
                        f"{restarts - 1} pool restart(s)"
                    ),
                )
            if disarmed:
                telemetry.counter("faults.recovered.worker").inc(len(disarmed))

        # Merge in canonical grid order, not completion order: span ids,
        # trial-ledger order, and counter totals become deterministic.
        results = []
        for index, cell in enumerate(grid.cells):
            payload = payloads[index]
            if recorder is not None and payload["trace"] is not None:
                graft_snapshot(
                    recorder,
                    payload["trace"],
                    name="parallel.cell",
                    cell=cell.label,
                    worker_pid=payload["pid"],
                )
            results.append(
                CellResult(
                    index=index,
                    cell=cell,
                    record=payload["record"],
                    elapsed_seconds=payload["elapsed"],
                    worker_pid=payload["pid"],
                    trace=payload["trace"],
                )
            )
        return results

    # -------------------------------------------------------------- tables

    def warmed_runner(self, results: list[CellResult]) -> ExperimentRunner:
        """An :class:`ExperimentRunner` pre-seeded with ``results``."""
        runner = ExperimentRunner(self.config)
        for result in results:
            key = result.cell.cache_key(self.config)
            if key is not None:
                runner.seed_result(key, result.record)
        return runner

    def run_table(
        self, number: int, datasets: tuple[str, ...] = DATASET_NAMES
    ) -> str:
        """Render Table ``number`` (2-5) with its grid fanned out.

        The parallel phase only *computes* cells; rendering then runs
        the unmodified serial table code against a runner seeded with
        the workers' records, so the output is byte-identical to a
        ``jobs=1`` run.
        """
        grid = GridSpec.for_table(number, datasets=datasets)
        runner = self.warmed_runner(self.run(grid))
        if number == 2:
            return run_table2(self.config, datasets, runner=runner)
        if number == 3:
            return run_table3(self.config, datasets=datasets, runner=runner)
        if number == 4:
            return run_table4(self.config, datasets=datasets, runner=runner)
        return run_table5(self.config, datasets=datasets, runner=runner)


def run_table_parallel(
    number: int,
    config: ExperimentConfig | None = None,
    datasets: tuple[str, ...] = DATASET_NAMES,
    jobs: int = 1,
) -> str:
    """Convenience wrapper: ``ParallelRunner(config, jobs).run_table(...)``."""
    return ParallelRunner(config, jobs=jobs).run_table(number, datasets=datasets)
