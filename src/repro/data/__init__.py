"""Dataset substrate: schemas, synthetic Magellan-style benchmarks, splits.

The paper evaluates on 12 dataset pairs from the Magellan benchmark
(Table 1). Those datasets are not redistributable here, so this package
generates seeded synthetic equivalents with the same schemas, sizes, match
rates, and Structured / Textual / Dirty typology — see DESIGN.md §2 for the
substitution rationale.
"""

from repro.data.benchmark import (
    DATASET_NAMES,
    DatasetSpec,
    dataset_spec,
    dataset_statistics,
    load_dataset,
)
from repro.data.blocking import (
    TokenBlocker,
    blocking_quality,
    cluster_matches,
    make_candidate_dataset,
)
from repro.data.schema import (
    Attribute,
    AttributeKind,
    EMDataset,
    PairRecord,
    Schema,
)
from repro.data.splits import DatasetSplits, split_dataset

__all__ = [
    "Attribute",
    "AttributeKind",
    "DATASET_NAMES",
    "DatasetSpec",
    "DatasetSplits",
    "EMDataset",
    "PairRecord",
    "Schema",
    "TokenBlocker",
    "blocking_quality",
    "cluster_matches",
    "dataset_spec",
    "dataset_statistics",
    "load_dataset",
    "make_candidate_dataset",
    "split_dataset",
]
