"""Experiment harness regenerating every table of the paper's Section 5.

One module per table (``table1`` ... ``table5``), a shared runner with
process- and disk-level result caching, and paper-style ASCII rendering.
The benchmark suite under ``benchmarks/`` calls straight into these.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.report import collect_cached_results
from repro.experiments.runner import ExperimentRunner
from repro.experiments.table1 import run_table1, table1_rows
from repro.experiments.table2 import run_table2, table2_rows
from repro.experiments.table3 import run_table3, table3_rows
from repro.experiments.table4 import average_deltas, run_table4, table4_rows
from repro.experiments.table5 import run_table5, table5_rows
from repro.experiments.tables import format_value

__all__ = [
    "ExperimentConfig",
    "ExperimentRunner",
    "average_deltas",
    "collect_cached_results",
    "format_value",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "table5_rows",
]
