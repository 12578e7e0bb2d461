"""The program side of the ``batch-cold`` workload, in a fresh interpreter.

    python3 perfbench/batch_child.py MODE OUT.json SEED QUERIES

MODE is one of:

* ``setup``  -- import, generate and split, then stop (a set-up sample);
* ``run``    -- the paper user's offline path through ``EMPipeline``:
  fit, score the test split, score an unseen draw, then answer
  ``QUERIES`` small requests in-process;
* ``traced`` -- the same work through the pipeline's public pieces
  (``EMAdapter.transform``, ``AutoMLSystem.fit/predict_proba/predict``,
  ``save_model``/``load_model``) with ``repro.telemetry`` recording and a
  benchmark span around each call.

Results, timestamps (``time.monotonic``, comparable across processes)
and output checks go to OUT.json; the parent turns them into metrics.
"""

from __future__ import annotations

import time

import json
import os
import random
import sys

from spans import Spans

#: The workload's inputs. They do not depend on the seed: the output
#: checks compare F1 with values recorded for exactly these draws.
DATASET = "S-DA"
SCALE = 0.08
UNSEEN_SEED = 1
EXPECTED_SIZES = {"dataset": 989, "train": 594, "valid": 198, "test": 197,
                  "unseen": 989}
#: F1 of the paper-default pipeline on the test split and the unseen draw.
EXPECTED_F1 = {"test": 0.9117647058823529, "unseen": 0.9169054441260744}
PIPELINE = {"automl": "autosklearn", "seed": 7, "max_models": 8}
#: Largest |P(match)| difference a small request may show against the
#: full-draw answer: float64 rounding of an 8-model ensemble average is
#: ~1e-16, so 1e-12 admits reordered sums and nothing else.
QUERY_TOLERANCE = 1e-12
#: Parts the unseen draw is scored in (see the comment in ``main``).
CHUNKS = 4


def _queries(seed: int, part: int, count: int, pool: int) -> list[list[int]]:
    """Request compositions: 1-8 distinct row indices of one scored part,
    sized as ``loadgen.request_sizes`` sizes serve-repeat's requests."""
    from loadgen import request_sizes  # here, so set-up time never includes it

    rng = random.Random(f"batch-cold/queries/{seed}/{part}")
    return [rng.sample(range(pool), size) for size in request_sizes(rng, count)]


def _subset(dataset, indices):
    from repro.data.schema import EMDataset

    return EMDataset(dataset.name, dataset.schema, [dataset[i] for i in indices],
                     dataset.dataset_type)


def main(mode: str, out: str, seed: int, queries: int) -> None:
    spans = Spans()
    start = time.monotonic()
    with spans("setup.import"):
        import repro.matching  # noqa: F401 - the import is what is timed
        import repro.serving  # noqa: F401
    from repro import telemetry
    from repro.data import load_dataset, split_dataset
    from repro.data.schema import EMDataset
    from repro.matching import EMPipeline
    from repro.ml.metrics import f1_score

    traced = mode == "traced"
    recorder = telemetry.enable() if traced else None
    with spans("data.generate"):
        dataset = load_dataset(DATASET, scale=SCALE)
        unseen = load_dataset(DATASET, scale=SCALE, seed=UNSEEN_SEED)
    with spans("data.split"):
        splits = split_dataset(dataset)
    ready = time.monotonic()
    sizes = {"dataset": len(dataset), "train": len(splits.train),
             "valid": len(splits.valid), "test": len(splits.test),
             "unseen": len(unseen)}
    result = {"start": start, "ready": ready, "sizes": sizes,
              "checks": {"sizes": sizes == EXPECTED_SIZES}}
    if mode == "setup":
        _write(out, result)
        return

    import numpy as np

    pipeline = EMPipeline(**PIPELINE)
    adapter, automl = pipeline.adapter, pipeline.automl
    train, valid, test = splits.train, splits.valid, splits.test

    def score(ds: EMDataset, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """(P(match), labels) for ``ds``; timed by the caller."""
        if not traced:
            return pipeline.predict_proba(ds), pipeline.predict(ds)
        with spans("adapter.transform", split=kind, pairs=len(ds)):
            features = adapter.transform(ds)
        with spans("automl.predict_proba", split=kind, pairs=len(ds)):
            proba = automl.predict_proba(features)[:, 1]
        with spans("automl.predict", split=kind, pairs=len(ds)):
            labels = automl.predict(features)
        return proba, labels

    t0 = time.monotonic()
    if traced:
        with spans("adapter.transform", split="train", pairs=len(train)):
            x_train = adapter.transform(train)
        with spans("adapter.transform", split="valid", pairs=len(valid)):
            x_valid = adapter.transform(valid)
        with spans("automl.fit"):
            automl.fit(x_train, train.labels, x_valid, valid.labels)
    else:
        pipeline.fit(train, valid)
    result["fit_s"] = time.monotonic() - t0
    if traced:
        result["entity_files"] = {"fit": _entity_files(), "fit_pairs":
                                  len(train) + len(valid)}

    # Flush the fit's entity files now (see common.settle), not mid-scoring.
    os.sync()
    test_proba, test_labels = score(test, "test")
    result["f1"] = {"test": f1_score(test.labels, test_labels)}

    # The unseen draw is scored in CHUNKS parts. A slice of small requests
    # follows the test split and each chunk, on the rows just scored. Host
    # speed drifts over tens of seconds; interleaving makes both
    # measurements span the whole scoring phase instead of two short
    # windows. Small requests must give the labels of the part's answer
    # and probabilities within QUERY_TOLERANCE (the ensemble's predict is
    # not bit-identical across batch shapes; rows differing in any bit are
    # counted and reported, not failed).
    latencies, lags, mismatches, inexact, pairs_asked = [], [], 0, 0, 0

    def ask(slice_index: int, part, part_proba, part_labels) -> None:
        nonlocal mismatches, inexact, pairs_asked
        asked = _queries(seed, slice_index, queries // (CHUNKS + 1), len(part))
        due = time.monotonic()
        for indices in asked:
            request = _subset(part, indices)
            sent = time.monotonic()
            with spans("query", pairs=len(indices)):
                proba, labels = score(request, "query")
            done = time.monotonic()
            latencies.append(done - sent)
            lags.append(sent - due)
            due = done
            pairs_asked += len(indices)
            expected = part_proba[indices]
            if not (np.array_equal(labels, part_labels[indices])
                    and np.allclose(proba, expected, rtol=0.0, atol=QUERY_TOLERANCE)):
                mismatches += 1
            inexact += int(np.sum(proba != expected))

    ask(0, test, test_proba, test_labels)
    rows = len(unseen)
    chunk_s, parts, probas, labels_out = [], [], [], []
    for chunk in range(CHUNKS):
        lo, hi = chunk * rows // CHUNKS, (chunk + 1) * rows // CHUNKS
        part = _subset(unseen, range(lo, hi))
        parts.append(part)
        t0 = time.monotonic()
        chunk_proba, chunk_labels = score(part, "unseen")
        chunk_s.append(time.monotonic() - t0)
        probas.append(chunk_proba)
        labels_out.append(chunk_labels)
        ask(chunk + 1, part, chunk_proba, chunk_labels)
    result["unseen_s"] = sum(chunk_s)
    result["unseen_chunk_s"] = chunk_s
    result["f1"]["unseen"] = f1_score(unseen.labels, np.concatenate(labels_out))
    if traced:
        result["entity_files"]["score"] = _entity_files()
        result["entity_files"]["score_pairs"] = len(test) + len(unseen)
    result["checks"]["f1"] = result["f1"] == EXPECTED_F1
    result["queries"] = {"latencies": latencies, "lags": lags,
                         "mismatches": mismatches, "inexact_rows": inexact,
                         "pairs": pairs_asked}

    if traced:
        from repro.persistence import load_model, save_model

        path = f"{out}.model.pkl"
        with spans("persistence.save"):
            save_model(pipeline, path)
        with spans("persistence.load"):
            loaded = load_model(path)
        result["checks"]["persistence"] = all(
            np.array_equal(loaded.automl.predict_proba(loaded.adapter.transform(part))[:, 1],
                           proba)
            for part, proba in zip(parts, probas)
        )
        telemetry.disable()
        result["program_spans"] = {}
        for record in recorder.spans:
            totals = result["program_spans"].setdefault(record.name, [0, 0.0])
            totals[0] += 1
            totals[1] += record.end - record.start
        result["counters"] = {
            name: c.value for name, c in recorder.metrics.counters.items()
        }
    result["spans"] = spans.records
    _write(out, result)


def _entity_files() -> list[float]:
    """[files, MiB] under the run's entity store, counted from outside."""
    from pathlib import Path

    from common import count_files

    return list(count_files(Path(os.environ["REPRO_CACHE_DIR"]) / "entity"))


def _write(out: str, result: dict) -> None:
    with open(out, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
