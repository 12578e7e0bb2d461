"""Build the serve workload's fixture, in a program process.

    python3 perfbench/fixture.py OUT_DIR

Writes OUT_DIR/model.pkl, the paper-default pipeline fitted on S-FZ at
full Table 1 size, and OUT_DIR/fixture.json:

* ``pairs``: the 946 S-FZ pairs as ``/match`` entity payloads;
* ``proba``/``labels``: ``EMPipeline.predict_proba``/``predict`` of the
  saved model on exactly those payloads -- the oracle every answer of
  ``serve-repeat`` is checked against;
* ``test_f1``: the saved model's F1 on the S-FZ test split.

The parent builds this once per program version (see ``serve.fixture``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

DATASET = "S-FZ"
PIPELINE = {"automl": "autosklearn", "seed": 7, "max_models": 8}
#: What the paper-default pipeline gives on S-FZ: test F1 (compared
#: exactly) and the mean oracle P(match) over the 946 pairs (compared
#: within MEAN_PROBA_TOLERANCE). The oracle comes from the same code as
#: the daemon, so these are what tell a changed model apart.
EXPECTED_TEST_F1 = 1.0
EXPECTED_MEAN_PROBA = 0.1154591869415849
MEAN_PROBA_TOLERANCE = 1e-9


def payload(entity: dict, schema) -> dict:
    """A JSON-safe copy of one entity dict (numpy scalars become floats)."""
    out = {}
    for attribute in schema.attributes:
        value = entity[attribute.name]
        if value is None or isinstance(value, (str, int, float)):
            out[attribute.name] = value
        else:
            out[attribute.name] = float(value)
    return out


def main(out_dir: str) -> None:
    from repro.data import load_dataset, split_dataset
    from repro.data.schema import EMDataset, PairRecord
    from repro.matching import EMPipeline
    from repro.persistence import load_model, save_model

    out = Path(out_dir)
    dataset = load_dataset(DATASET, scale=1.0)
    splits = split_dataset(dataset)
    pipeline = EMPipeline(**PIPELINE).fit(splits.train, splits.valid)
    save_model(pipeline, out / "model.pkl")
    model = load_model(out / "model.pkl")

    def as_sent(pairs) -> tuple[list[dict], EMDataset]:
        """Payloads, and the dataset the daemon rebuilds from them."""
        payloads = [
            {"left": payload(p.left, dataset.schema),
             "right": payload(p.right, dataset.schema)}
            for p in pairs
        ]
        decoded = json.loads(json.dumps(payloads))
        records = [
            PairRecord(i, item["left"], item["right"], pair.label)
            for i, (item, pair) in enumerate(zip(decoded, pairs))
        ]
        return payloads, EMDataset(
            DATASET, dataset.schema, records, dataset.dataset_type
        )

    def oracle(ds: EMDataset) -> dict:
        return {
            "proba": [float(p) for p in model.predict_proba(ds)],
            "labels": [int(label) for label in model.predict(ds)],
        }

    payloads, served = as_sent(list(dataset))
    fixture = {
        "dataset": DATASET,
        "test_f1": model.score(splits.test),
        "pairs": payloads,
        **oracle(served),
    }
    (out / "fixture.json").write_text(json.dumps(fixture))


if __name__ == "__main__":
    main(sys.argv[1])
