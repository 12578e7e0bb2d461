"""The Embedder stage of the EM adapter.

A :class:`TransformerEmbedder` turns pair sequences into fixed-size
vectors with a frozen simulated pre-trained encoder
(:mod:`repro.transformers`). Following the paper's Section 4, the
embedding of a sequence is built from the hidden layers of the
transformer; since our checkpoints are random-weight simulations
(DESIGN.md §2), the readout is the *segment-comparison* form: the two
entities' token spans are mean-pooled separately per selected layer and
combined as ``[(p_L+p_R)/2, |p_L−p_R|, p_L⊙p_R, cos, dist]``. The
comparison itself still happens inside the transformer (cross-segment
attention aligns near-duplicate tokens); the readout is fixed and
untrained, standing in for the learned pooler of a real checkpoint.

``layers="first_last"`` (default) reads the embedding layer and the final
hidden layer; ``layers="last"`` reads only the final one; ``layers=
"last4"`` mirrors the paper's concatenation-of-last-four variant.

Since the canonical exact-length-bucketed forward
(:func:`repro.transformers.pad_length_buckets`) makes every vector a
pure function of the couple's content, :meth:`embed_pairs` deduplicates
couples within a call and can serve them from the content-addressed
:class:`~repro.adapter.entity_store.EntityStore` across calls: warm
couples skip the transformer entirely, and cold couples are assembled
from per-entity *half* records so each entity text is tokenized and
embedded once however many pairs it appears in. Store lookups come in
two batches per call (couples, then the missing couples' entities), so
the disk tier opens each pack at most once per batch.
"""

from __future__ import annotations

import numpy as np

from repro.adapter.entity_store import PackWriter
from repro.adapter.tokenizer import PairSequence
from repro.exceptions import UnknownModelError
from repro.transformers import (
    PretrainedEncoder,
    load_pretrained,
    pad_length_buckets,
)

__all__ = ["TransformerEmbedder"]

_LAYER_MODES = ("first_last", "last", "last4")


def _normalize_rows(v: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / np.maximum(norms, 1e-9)


class TransformerEmbedder:
    """Embeds pair sequences with a frozen pre-trained architecture.

    Parameters
    ----------
    architecture:
        One of :data:`repro.transformers.EMBEDDER_NAMES`
        (``bert``/``dbert``/``albert``/``roberta``/``xlnet``).
    layers:
        Which hidden layers feed the readout (see module docstring).
    batch_size:
        Sequences per encoder forward pass.
    """

    def __init__(
        self,
        architecture: str = "albert",
        layers: str = "first_last",
        batch_size: int = 256,
    ) -> None:
        if layers not in _LAYER_MODES:
            raise UnknownModelError(
                f"unknown layers mode {layers!r}; known: {_LAYER_MODES}"
            )
        self.architecture = architecture
        self.layers = layers
        self.batch_size = batch_size
        self._encoder: PretrainedEncoder = load_pretrained(architecture)

    @property
    def name(self) -> str:
        """Stable identifier used in cache keys and table headers."""
        return f"{self.architecture}/{self.layers}"

    @property
    def output_dim(self) -> int:
        """Feature size produced per pair sequence."""
        per_layer = 3 * self._encoder.dim + 2
        return per_layer * self._n_layers_read()

    def _n_layers_read(self) -> int:
        if self.layers == "last":
            return 1
        if self.layers == "first_last":
            return 2
        return min(4, self._encoder.spec.encoder.n_layers)

    # ------------------------------------------------------------- embed

    #: Duck-typed capability flag checked by :class:`~repro.adapter.pipeline.EMAdapter`
    #: before passing a ``store`` (alternative embedders such as
    #: :class:`~repro.adapter.local_embedder.LocalWord2VecEmbedder`
    #: keep the plain ``embed_pairs(sequences)`` signature).
    supports_entity_store = True

    def _sequence_key(self, couple: PairSequence) -> int:
        from repro.config import ENCODE_VERSION, stable_digest

        return stable_digest(
            "pair-seq", ENCODE_VERSION, self.name, couple[0], couple[1]
        )

    def _half_key(self, text: str) -> int:
        from repro.config import ENCODE_VERSION, stable_digest

        # Keyed by architecture, not layers: the token matrix depends
        # only on the tokenizer + embedding table, so bert/first_last
        # and bert/last4 share half records.
        return stable_digest(
            "entity-half", ENCODE_VERSION, self.architecture, text
        )

    def _entity_halves(
        self, texts: list[str], store: PackWriter | None
    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Each entity text's (matrix, sep_positions), via the store."""
        if store is None:
            return {text: self._encoder.entity_half(text) for text in texts}
        keys = {text: self._half_key(text) for text in texts}
        found = store.load_many(keys.values())
        halves: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for text, key in keys.items():
            record = found.get(key)
            if record is None:
                half = self._encoder.entity_half(text)
                store.save(key, {"matrix": half[0], "sep_positions": half[1]})
            else:
                half = (record["matrix"], record["sep_positions"])
            halves[text] = half
        return halves

    def embed_pairs(
        self,
        sequences: list[PairSequence],
        store: PackWriter | None = None,
    ) -> np.ndarray:
        """Embed ``(left, right)`` value couples, one vector per couple.

        With a ``store`` (an open :class:`PackWriter`), finished couple
        vectors are served from, and written back to, the entity store;
        cold couples are assembled from cached per-entity halves. Without
        one, the same bits are computed from scratch — the bucketed
        forward makes every vector content-determined, so store-on and
        store-off agree exactly.
        """
        out = np.zeros((len(sequences), self.output_dim))
        if not sequences:
            return out
        rows_of: dict[PairSequence, list[int]] = {}
        for row, couple in enumerate(sequences):
            rows_of.setdefault(couple, []).append(row)
        if store is None:
            missing = list(rows_of)
        else:
            keys = {couple: self._sequence_key(couple) for couple in rows_of}
            found = store.load_many(keys.values())
            missing = []
            for couple, key in keys.items():
                record = found.get(key)
                if record is None:
                    missing.append(couple)
                else:
                    out[rows_of[couple]] = record["vector"]
        if not missing:
            return out
        encoder = self._encoder
        halves = self._entity_halves(
            list(dict.fromkeys(text for couple in missing for text in couple)),
            store,
        )
        prepared = [
            encoder.assemble_pair(halves[left], halves[right])
            for left, right in missing
        ]
        for chunk, stacked, mask, segments in pad_length_buckets(
            prepared, self.batch_size
        ):
            block = self._readout(stacked, mask, segments)
            for local_index, vector in zip(chunk, block):
                couple = missing[local_index]
                if store is not None:
                    # Copy: a row view would pin the whole block in the
                    # store's memory tier while only counting one row.
                    store.save(keys[couple], {"vector": vector.copy()})
                out[rows_of[couple]] = vector
        return out

    def _selected_layers(
        self, padded: np.ndarray, mask: np.ndarray, segments: np.ndarray
    ) -> list[np.ndarray]:
        if self.layers == "first_last":
            hidden = self._encoder._encoder.encode(padded, mask, segments)
            return [padded, hidden]
        all_layers = self._encoder._encoder.encode_all_layers(
            padded, mask, segments
        )
        if self.layers == "last":
            return [all_layers[-1]]
        return all_layers[-self._n_layers_read() :]

    def _readout(
        self, padded: np.ndarray, mask: np.ndarray, segments: np.ndarray
    ) -> np.ndarray:
        seg_left = mask & (segments == 0)
        seg_right = mask & (segments == 1)
        count_left = np.maximum(seg_left.sum(axis=1, keepdims=True), 1)
        count_right = np.maximum(seg_right.sum(axis=1, keepdims=True), 1)

        blocks: list[np.ndarray] = []
        for hidden in self._selected_layers(padded, mask, segments):
            pooled_left = _normalize_rows(
                (hidden * seg_left[:, :, None]).sum(axis=1) / count_left
            )
            pooled_right = _normalize_rows(
                (hidden * seg_right[:, :, None]).sum(axis=1) / count_right
            )
            cos = np.sum(pooled_left * pooled_right, axis=1, keepdims=True)
            dist = np.linalg.norm(
                pooled_left - pooled_right, axis=1, keepdims=True
            )
            blocks.append(
                np.hstack(
                    [
                        (pooled_left + pooled_right) / 2.0,
                        np.abs(pooled_left - pooled_right),
                        pooled_left * pooled_right,
                        cos,
                        dist,
                    ]
                )
            )
        return np.hstack(blocks)

    def __repr__(self) -> str:
        return (
            f"TransformerEmbedder(architecture={self.architecture!r}, "
            f"layers={self.layers!r})"
        )
