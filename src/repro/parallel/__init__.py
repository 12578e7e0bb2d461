"""Parallel experiment execution: ``repro.parallel``.

The paper's benchmark grids (Tables 2-5: systems x datasets x
tokenizers x embedders x budgets) are embarrassingly parallel — every
cell is an independent, deterministic evaluation. This package fans
them out over worker processes and merges the results in canonical grid
order, so ``repro-em table 3 --jobs 8`` emits **byte-identical** output
to ``--jobs 1``, just sooner.

* :class:`GridSpec` / :class:`Cell` — the work model: a table's cells in
  the exact order the serial code evaluates them (duplicates collapsed);
* :class:`ParallelRunner` — the process-pool executor: workers
  coordinate through the on-disk result cache and entity store (atomic
  renames) and ship records plus telemetry snapshots home over the
  result pipe;
* :func:`run_table_parallel` — one-call table rendering, used by the
  CLI's ``--jobs`` flag;
* :func:`run_chaos` — the crash-safety drill behind ``repro-em chaos``:
  the same grid under seeded fault plans (:mod:`repro.faults`), diffed
  byte-for-byte against the fault-free run.

Quickstart::

    from repro.experiments import ExperimentConfig
    from repro.parallel import run_table_parallel

    print(run_table_parallel(2, ExperimentConfig(scale=0.05), jobs=4))
"""

from repro.parallel.chaos import ChaosReport, PlanOutcome, run_chaos
from repro.parallel.executor import (
    CellResult,
    ParallelExecutionError,
    ParallelRunner,
    run_table_parallel,
)
from repro.parallel.grid import Cell, GridSpec

__all__ = [
    "Cell",
    "CellResult",
    "ChaosReport",
    "GridSpec",
    "ParallelExecutionError",
    "ParallelRunner",
    "PlanOutcome",
    "run_chaos",
    "run_table_parallel",
]
