"""The serving-side model holder: load once, predict many, reload atomically.

:class:`MatchEngine` is the piece of the daemon that knows about entity
matching. It loads a saved :class:`repro.matching.EMPipeline` through the
``serving.model.load`` fault seam (retried by
:func:`repro.faults.io_retry` like every other disk boundary), derives
the request schema from the dataset registry without generating any
data, and answers ``match_pairs`` calls with probabilities and
threshold-tuned labels.

The fitted pipeline's adapter is served as loaded: its only cache is
the content-addressed entity store, so each request reuses the entity
encodings that earlier requests computed.

``reload()`` loads the file fresh and swaps the installed model under a
lock only after the load fully succeeded, so a corrupt or incompatible
file on disk can never take down a healthy daemon — the old model keeps
serving and the caller gets the error.
"""

from __future__ import annotations

import threading
from pathlib import Path

import numpy as np

from repro import faults, telemetry
from repro.data.benchmark import dataset_spec
from repro.data.schema import EMDataset, PairRecord
from repro.persistence import load_model
from repro.serving.errors import ServingError

__all__ = ["MatchEngine"]


class MatchEngine:
    """A loaded matcher plus the schema its requests must satisfy.

    Parameters
    ----------
    model_path:
        A file written by :func:`repro.persistence.save_model` holding a
        fitted :class:`~repro.matching.EMPipeline`.
    dataset_name:
        Registry name (e.g. ``"S-FZ"``) whose schema incoming entity
        dicts are validated against. Resolved through
        :func:`repro.data.benchmark.dataset_spec` without generating
        the dataset itself.
    """

    def __init__(self, model_path: str | Path, dataset_name: str) -> None:
        spec = dataset_spec(dataset_name)
        self.dataset_name = dataset_name
        self._schema = spec.make_generator().schema
        self._dataset_type = spec.dataset_type
        self._model_path = Path(model_path)
        self._lock = threading.Lock()
        self.generation = 0
        self._install(self._load())

    # ------------------------------------------------------------ loading

    def _load(self):
        """Read the model file through the ``serving.model.load`` seam.

        Transient filesystem failures are retried; corrupt bytes
        surface as :class:`~repro.persistence.PersistenceError` from
        :func:`~repro.persistence.load_model` (not an OSError, so the
        retry wrapper propagates them immediately).
        """

        def _read():
            faults.checkpoint("serving.model.load", path=str(self._model_path))
            return load_model(self._model_path)

        try:
            return faults.io_retry(_read, "serving.model.load")
        except OSError as exc:
            raise ServingError(
                f"cannot read model file {self._model_path}: {exc}"
            ) from exc

    def _install(self, pipeline) -> None:
        adapter = getattr(pipeline, "adapter", None)
        automl = getattr(pipeline, "automl", None)
        if adapter is None or automl is None:
            raise ServingError(
                f"{self._model_path} does not hold a servable pipeline "
                f"(got {type(pipeline).__name__}; need adapter + automl)"
            )
        with self._lock:
            self._adapter = adapter
            self._automl = automl
            self.generation += 1
        telemetry.gauge("serving.model.generation").set(self.generation)

    def reload(self) -> int:
        """Re-read the model file and swap it in; returns the generation.

        The swap happens only after the load fully succeeded — on any
        failure (missing file, corrupt bytes, version mismatch, wrong
        object) the previously installed model keeps serving and the
        exception propagates to the caller.
        """
        self._install(self._load())
        return self.generation

    # --------------------------------------------------------- predicting

    @property
    def schema(self):
        """The entity schema requests are validated against."""
        return self._schema

    def dataset_for(self, pairs: list[dict]) -> EMDataset:
        """Wrap request entity dicts as a schema-validated dataset.

        ``pairs`` holds ``{"left": {...}, "right": {...}}`` dicts;
        labels are unknown at serving time, so every record carries a
        placeholder 0. Schema violations raise
        :class:`~repro.exceptions.SchemaError` (HTTP 400 upstream).
        """
        records = [
            PairRecord(i, dict(pair["left"]), dict(pair["right"]), 0)
            for i, pair in enumerate(pairs)
        ]
        return EMDataset(
            self.dataset_name, self._schema, records, self._dataset_type
        )

    def match_pairs(self, pairs: list[dict]) -> tuple[np.ndarray, np.ndarray]:
        """Match probabilities and thresholded labels for ``pairs``.

        One vectorized adapter transform plus one ensemble pass — the
        labels threshold the probabilities at the fitted
        ``threshold_``, exactly as ``predict`` would; the micro-batcher
        fuses many requests into a single invocation. Because encoding
        is exact-length-bucketed, the result rows are bit-identical
        regardless of batch composition.
        """
        if not pairs:
            return (
                np.zeros(0, dtype=np.float64),
                np.zeros(0, dtype=np.int64),
            )
        with self._lock:
            adapter, automl = self._adapter, self._automl
        features = adapter.transform(self.dataset_for(pairs))
        probabilities = automl.predict_proba(features)[:, 1]
        labels = (probabilities >= automl.threshold_).astype(np.int64)
        return probabilities, labels
