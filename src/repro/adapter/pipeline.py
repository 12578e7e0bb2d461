"""The EM adapter pipeline: Tokenizer -> Embedder -> Combiner.

:class:`EMAdapter` is the component the paper introduces — it transforms
an EM dataset (records describing *pairs* of entities) into a dense
numeric matrix an off-the-shelf AutoML system can learn from.

The adapter is stateless, so a pair's feature row depends only on its
two entities' text. Its one cache is therefore content-addressed: the
experiment grid re-embeds the same entities under many configurations
and across several tables, and every transform reuses the per-entity
and per-couple records of the
:class:`~repro.adapter.entity_store.EntityStore`.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.adapter.combiner import Combiner, MeanCombiner, make_combiner
from repro.adapter.embedder import TransformerEmbedder
from repro.adapter.entity_store import entity_store
from repro.adapter.tokenizer import PairTokenizer, make_tokenizer
from repro.data.schema import EMDataset

__all__ = ["EMAdapter"]


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
        Default of ``entity_cache``; ``cache=False`` measures a fully
        cold transform.
    entity_cache:
        Serve per-entity and per-couple embeddings from the
        content-addressed :class:`~repro.adapter.entity_store.EntityStore`
        (only effective for embedders that declare
        ``supports_entity_store``). Defaults to ``cache``.
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
        with telemetry.span(
            "adapter.transform",
            adapter=self.name,
            dataset=dataset.name,
            pairs=len(dataset),
        ):
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
                return self.combiner.combine_dataset(per_position)

    def transform_splits(self, splits) -> tuple[np.ndarray, ...]:
        """Transform a :class:`~repro.data.splits.DatasetSplits` triple."""
        return tuple(self.transform(part) for part in splits)

    def __repr__(self) -> str:
        return f"EMAdapter({self.name})"
