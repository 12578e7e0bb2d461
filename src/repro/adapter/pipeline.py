"""The EM adapter pipeline: Tokenizer -> Embedder -> Combiner.

:class:`EMAdapter` is the component the paper introduces — it transforms
an EM dataset (records describing *pairs* of entities) into a dense
numeric matrix an off-the-shelf AutoML system can learn from.

Because the experiment grid re-embeds the same dataset under many
(tokenizer, embedder) combinations and across several tables, transformed
matrices are memoized in a process-level cache keyed by dataset identity
and adapter configuration.
"""

from __future__ import annotations

import numpy as np

import os
from pathlib import Path

from repro import faults, telemetry
from repro.adapter.combiner import Combiner, MeanCombiner, make_combiner
from repro.adapter.embedder import TransformerEmbedder
from repro.adapter.entity_store import ByteBudgetLRU, entity_store
from repro.adapter.tokenizer import PairTokenizer, make_tokenizer
from repro.data.schema import EMDataset

__all__ = ["EMAdapter", "clear_adapter_cache"]


def _new_cache() -> ByteBudgetLRU:
    from repro.config import adapter_cache_budget_bytes

    return ByteBudgetLRU(adapter_cache_budget_bytes, "adapter.cache")


#: Process-level matrix memo, LRU-bounded by ``REPRO_ADAPTER_CACHE_MB``
#: so a full experiment grid cannot pin every transformed matrix at
#: once. Eviction only changes residency: every entry is recomputable
#: (or re-readable from disk) byte-identically.
_CACHE: ByteBudgetLRU = _new_cache()


def clear_adapter_cache() -> None:
    """Drop all memoized adapter outputs (fresh workers, tests).

    Rebinds rather than ``.clear()``s so the fork-safety analysis
    (FORK001) can see the re-initialization as a ``global`` assignment.
    """
    global _CACHE
    _CACHE = _new_cache()


def _disk_cache_dir() -> Path | None:
    """Directory for persisted adapter matrices; shared across processes.

    Enabled whenever the experiment result cache is (same env knob,
    ``REPRO_CACHE_DIR`` via :func:`repro.config.cache_root`); disabled
    with ``REPRO_CACHE_DIR=off``.
    """
    from repro.config import cache_root

    root = cache_root()
    if root is None:
        return None
    return root / "adapter"


class EMAdapter:
    """Pipelines the three adapter components of the paper's Section 4.

    Parameters
    ----------
    tokenizer:
        A :class:`PairTokenizer` instance or mode name
        (``"unstructured"`` / ``"attr"`` / ``"hybrid"``).
    embedder:
        A :class:`TransformerEmbedder` instance or architecture name
        (``"bert"`` / ``"dbert"`` / ``"albert"`` / ``"roberta"`` /
        ``"xlnet"``).
    combiner:
        A :class:`Combiner` instance or name (``"mean"`` / ``"concat"``).
        The paper's standard is the mean.
    cache:
        Memoize transformed matrices per (dataset, adapter config).
    entity_cache:
        Serve per-entity and per-couple embeddings from the
        content-addressed :class:`~repro.adapter.entity_store.EntityStore`
        (only effective for embedders that declare
        ``supports_entity_store``). Defaults to following ``cache``, so
        ``cache=False`` still measures a fully cold transform.
    """

    def __init__(
        self,
        tokenizer: PairTokenizer | str = "hybrid",
        embedder: TransformerEmbedder | str = "albert",
        combiner: Combiner | str = "mean",
        cache: bool = True,
        entity_cache: bool | None = None,
    ) -> None:
        self.tokenizer = (
            make_tokenizer(tokenizer) if isinstance(tokenizer, str) else tokenizer
        )
        self.embedder = (
            TransformerEmbedder(embedder) if isinstance(embedder, str) else embedder
        )
        self.combiner = (
            make_combiner(combiner) if isinstance(combiner, str) else combiner
        )
        self.cache = cache
        self.entity_cache = cache if entity_cache is None else entity_cache

    @property
    def name(self) -> str:
        """Stable identifier, e.g. ``hybrid+albert/first_last+mean``."""
        return (
            f"{self.tokenizer.name}+{self.embedder.name}+{self.combiner.name}"
        )

    def output_dim(self, dataset: EMDataset) -> int:
        """Feature count produced for ``dataset``."""
        per_sequence = self.embedder.output_dim
        if isinstance(self.combiner, MeanCombiner):
            return per_sequence
        return per_sequence * self.tokenizer.sequence_count(dataset.schema)

    def transform(self, dataset: EMDataset) -> np.ndarray:
        """Encode every pair of ``dataset`` into one feature row.

        The adapter is stateless (frozen embedder, closed-form combiner),
        so there is no ``fit``: train/valid/test splits are transformed
        independently with identical results.
        """
        from repro.config import DATA_VERSION, ENCODE_VERSION, stable_digest

        with telemetry.span(
            "adapter.transform",
            adapter=self.name,
            dataset=dataset.name,
            pairs=len(dataset),
        ) as root:
            # The pair-id fingerprint keeps two different same-length
            # subsets of one dataset (e.g. active-learning rounds) from
            # colliding; 64-bit so the disk cache stays collision-free
            # across many thousands of distinct subsets. Both calibration
            # versions are part of the key (memory *and* disk), so a
            # process that upgrades data generation or the encode
            # discipline mid-run can never serve stale matrices.
            fingerprint = stable_digest(tuple(p.pair_id for p in dataset))
            key = (
                DATA_VERSION,
                ENCODE_VERSION,
                dataset.name,
                len(dataset),
                dataset.dataset_type,
                fingerprint,
                self.name,
            )
            if self.cache:
                features = _CACHE.get(key)
                if features is not None:
                    root.set(cache="memory")
                    return features
            disk_dir = _disk_cache_dir() if self.cache else None
            disk_path = None
            if disk_dir is not None:
                # Digest-named files: raw key parts joined with "_" could
                # collide once separators are substituted (dataset names
                # "a/b" and "a-b" both became "a-b") and could smuggle
                # filesystem-hostile characters. Legacy "v<N>_*"-named
                # files from older releases are simply never referenced —
                # they encode pre-ENCODE_VERSION bits, so ignoring them
                # *is* the migration.
                disk_path = disk_dir / f"{stable_digest(*key):016x}.npy"
                if disk_path.exists():
                    faults.checkpoint("adapter.cache.read", path=str(disk_path))
                    try:
                        features = np.load(disk_path)
                    except (OSError, ValueError, EOFError):
                        # Half-written, truncated, or garbage file
                        # (np.load raises EOFError for a zero-byte
                        # entry): unlink it so nothing re-reads the bad
                        # bytes, then recompute and overwrite. Counted
                        # apart from plain misses so a concurrent run's
                        # interference is visible.
                        features = None
                        telemetry.counter("adapter.cache.disk.corrupt").inc()
                        try:
                            os.unlink(disk_path)
                        except OSError:
                            pass  # Already replaced by a healthy writer.
                        faults.mark_recovered(
                            "adapter.cache.read", path=str(disk_path)
                        )
                    if features is not None:
                        telemetry.counter("adapter.cache.disk.hits").inc()
                        root.set(cache="disk")
                        _CACHE.put(key, features, features.nbytes)
                        return features
                else:
                    telemetry.counter("adapter.cache.disk.misses").inc()

            n_sequences = self.tokenizer.sequence_count(dataset.schema)
            # Tokenize each pair once, then transpose to per-position
            # batches so each embed batch holds sequences of similar
            # length (position i sequences share structure). Tokenizing
            # inside the position loop would redo the same work
            # n_sequences times (PERF002).
            with telemetry.span(
                "adapter.tokenize",
                tokenizer=self.tokenizer.name,
                positions=n_sequences,
            ):
                per_pair = [
                    self.tokenizer.sequences(pair, dataset.schema)
                    for pair in dataset
                ]
                couples_by_position = [
                    [sequences[position] for sequences in per_pair]
                    for position in range(n_sequences)
                ]
            # One pack writer per call: the records this call computes
            # reach the disk tier as a single pack when the call ends.
            writer = (
                entity_store().writer()
                if self.entity_cache
                and getattr(self.embedder, "supports_entity_store", False)
                else None
            )
            per_position: list[np.ndarray] = []
            for position, couples in enumerate(couples_by_position):
                with telemetry.span(
                    "adapter.embed",
                    embedder=self.embedder.name,
                    position=position,
                    sequences=len(couples),
                ):
                    if writer is not None:
                        vectors = self.embedder.embed_pairs(couples, writer)
                    else:
                        vectors = self.embedder.embed_pairs(couples)
                    per_position.append(vectors)
            if writer is not None:
                with telemetry.span("adapter.publish"):
                    writer.close()
            with telemetry.span("adapter.combine", combiner=self.combiner.name):
                features = self.combiner.combine_dataset(per_position)
            return self._store_cache(key, disk_path, features)

    def _store_cache(self, key: tuple, disk_path, features: np.ndarray) -> np.ndarray:
        """Memoize a freshly computed matrix (memory, then disk).

        The disk write is atomic (write to a same-directory temp file,
        then rename), so a concurrent reader never sees a half-written
        matrix. Saving into the open descriptor keeps ``np.save`` from
        appending ``.npy`` and leaving the zero-byte mkstemp file behind,
        and the ``finally`` unlink guarantees a failed save (full disk,
        non-serializable dtype) leaks nothing; after a successful rename
        it is a no-op. Transient failures are retried with a fresh temp
        file per attempt (:func:`repro.faults.io_retry`).
        """
        if self.cache:
            _CACHE.put(key, features, features.nbytes)
            if disk_path is not None:
                import tempfile

                disk_path.parent.mkdir(parents=True, exist_ok=True)

                def _write() -> None:
                    fd, tmp_name = tempfile.mkstemp(
                        dir=disk_path.parent, suffix=".tmp", prefix=disk_path.stem
                    )
                    try:
                        with os.fdopen(fd, "wb") as handle:
                            faults.checkpoint(
                                "adapter.cache.store.write", path=str(disk_path)
                            )
                            np.save(handle, features)
                        faults.checkpoint(
                            "adapter.cache.store.replace", path=str(disk_path)
                        )
                        os.replace(tmp_name, disk_path)
                    finally:
                        if os.path.exists(tmp_name):
                            os.unlink(tmp_name)

                faults.io_retry(_write, "adapter.cache.store")
        return features

    def transform_splits(self, splits) -> tuple[np.ndarray, ...]:
        """Transform a :class:`~repro.data.splits.DatasetSplits` triple."""
        return tuple(self.transform(part) for part in splits)

    def __repr__(self) -> str:
        return f"EMAdapter({self.name})"
