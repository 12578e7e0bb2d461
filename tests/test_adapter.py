"""Tests for the EM adapter: tokenizers, embedder, combiners, pipeline,
no-adapter featurizers, and augmentation."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.adapter import (
    AttributeTokenizer,
    ConcatCombiner,
    EMAdapter,
    EntityStore,
    HybridTokenizer,
    MeanCombiner,
    NativeTabularFeaturizer,
    TransformerEmbedder,
    UnstructuredTokenizer,
    Word2VecFeaturizer,
    clear_entity_store,
    entity_store,
    make_combiner,
    make_tokenizer,
)
from repro.adapter.augmentation import balance_dataset, shuffle_attribute, swap_pair
from repro.adapter.entity_store import PACK_FORMAT
from repro.data.schema import AttributeKind, EMDataset, PairRecord, Schema
from repro.exceptions import NotFittedError, UnknownModelError

SCHEMA = Schema.of(
    "product",
    ("title", AttributeKind.TEXT),
    ("brand", AttributeKind.CATEGORICAL),
    ("price", AttributeKind.NUMERIC),
)


def make_dataset(n=6):
    pairs = []
    for i in range(n):
        left = {"title": f"sony camera x{i}", "brand": "sony", "price": 10.0 + i}
        right = {"title": f"sony camera x{i}", "brand": "sony", "price": 10.0 + i}
        pairs.append(PairRecord(i, left, right, i % 2))
    return EMDataset("toy", SCHEMA, pairs)


class TestTokenizers:
    def test_registry(self):
        assert isinstance(make_tokenizer("attr"), AttributeTokenizer)
        assert isinstance(make_tokenizer("hybrid"), HybridTokenizer)
        assert isinstance(make_tokenizer("unstructured"), UnstructuredTokenizer)

    def test_unknown_tokenizer(self):
        with pytest.raises(UnknownModelError):
            make_tokenizer("quantum")

    def test_unstructured_single_sequence(self):
        pair = make_dataset()[0]
        sequences = UnstructuredTokenizer().sequences(pair, SCHEMA)
        assert len(sequences) == 1
        left, right = sequences[0]
        assert "sony camera x0" in left and "10.0" in left

    def test_attr_one_per_attribute(self):
        pair = make_dataset()[0]
        sequences = AttributeTokenizer().sequences(pair, SCHEMA)
        assert len(sequences) == 3
        assert sequences[0] == ("sony camera x0", "sony camera x0")
        assert sequences[2] == ("10.0", "10.0")

    def test_hybrid_incremental_prefixes(self):
        pair = make_dataset()[0]
        sequences = HybridTokenizer().sequences(pair, SCHEMA)
        assert len(sequences) == 3
        assert sequences[0][0] == "sony camera x0"
        assert sequences[1][0] == "sony camera x0 sony"
        # The final sequence couples the entire records.
        assert sequences[2][0] == "sony camera x0 sony 10.0"

    def test_hybrid_skips_empty_values_in_concat(self):
        # Every prefix equals the space-join of its non-empty values, also
        # when the first value is empty (no leading space) or a middle one
        # is (no doubled space).
        cases = [
            ({"title": "a", "brand": "", "price": None}, ["a", "a", "a"]),
            ({"title": "", "brand": "sony", "price": 3.0},
             ["", "sony", "sony 3.0"]),
            ({"title": None, "brand": "", "price": 3.0}, ["", "", "3.0"]),
            ({"title": "a", "brand": "", "price": 3.0}, ["a", "a", "a 3.0"]),
        ]
        for left, expected in cases:
            right = {"title": "b", "brand": "x", "price": None}
            pair = PairRecord(0, left, right, 0)
            sequences = HybridTokenizer().sequences(pair, SCHEMA)
            assert [s[0] for s in sequences] == expected
            assert [s[1] for s in sequences] == ["b", "b x", "b x"]

    def test_sequence_count_matches(self):
        assert AttributeTokenizer().sequence_count(SCHEMA) == 3
        assert HybridTokenizer().sequence_count(SCHEMA) == 3
        assert UnstructuredTokenizer().sequence_count(SCHEMA) == 1


class TestEmbedder:
    def test_output_dim_modes(self):
        emb = TransformerEmbedder("bert", layers="first_last")
        per_layer = 3 * 96 + 2
        assert emb.output_dim == 2 * per_layer
        assert TransformerEmbedder("bert", layers="last").output_dim == per_layer

    def test_unknown_layers_mode(self):
        with pytest.raises(UnknownModelError):
            TransformerEmbedder("bert", layers="middle")

    def test_embed_pairs_shape(self):
        emb = TransformerEmbedder("dbert")
        out = emb.embed_pairs([("sony camera", "sony camera"), ("a", "b")])
        assert out.shape == (2, emb.output_dim)
        assert np.isfinite(out).all()

    def test_identical_pair_scores_higher_cosine(self):
        emb = TransformerEmbedder("albert")
        out = emb.embed_pairs(
            [
                ("canon eos camera", "canon eos camera"),
                ("canon eos camera", "panasonic microwave oven"),
            ]
        )
        # The layer-0 cosine feature sits at a fixed offset: 3 * dim.
        cos_index = 3 * 96
        assert out[0, cos_index] > out[1, cos_index]


class TestCombiners:
    def test_mean(self):
        stack = [np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])]
        out = MeanCombiner().combine_dataset(stack)
        np.testing.assert_allclose(out, [[2.0, 3.0]])

    def test_concat(self):
        stack = [np.array([[1.0]]), np.array([[2.0]])]
        out = ConcatCombiner().combine_dataset(stack)
        np.testing.assert_allclose(out, [[1.0, 2.0]])

    def test_single_record_combine(self):
        embeddings = np.array([[1.0, 3.0], [3.0, 5.0]])
        np.testing.assert_allclose(
            MeanCombiner().combine(embeddings), [2.0, 4.0]
        )
        assert len(ConcatCombiner().combine(embeddings)) == 4

    def test_registry(self):
        assert isinstance(make_combiner("mean"), MeanCombiner)
        with pytest.raises(UnknownModelError):
            make_combiner("max")

    def test_vectorized_dataset_matches_per_record_loop(self):
        """combine_dataset must stay bit-identical to combining each
        record separately (the pre-vectorization reference)."""
        rng = np.random.default_rng(7)
        per_sequence = [rng.normal(size=(5, 3)) for _ in range(4)]
        stacked = np.stack(per_sequence, axis=1)  # (records, sequences, dim)
        for combiner in (MeanCombiner(), ConcatCombiner()):
            reference = np.vstack(
                [combiner.combine(stacked[i]) for i in range(stacked.shape[0])]
            )
            assert np.array_equal(
                combiner.combine_dataset(per_sequence), reference
            )

    def test_derived_combine_keeps_original_semantics(self):
        rng = np.random.default_rng(11)
        embeddings = rng.normal(size=(4, 6))
        assert np.array_equal(
            MeanCombiner().combine(embeddings), embeddings.mean(axis=0)
        )
        assert np.array_equal(
            ConcatCombiner().combine(embeddings), embeddings.reshape(-1)
        )


class TestEMAdapter:
    def test_transform_shape_mean(self):
        adapter = EMAdapter("attr", "dbert", "mean")
        dataset = make_dataset()
        out = adapter.transform(dataset)
        assert out.shape == (len(dataset), adapter.output_dim(dataset))

    def test_transform_shape_concat(self):
        adapter = EMAdapter("attr", "dbert", "concat")
        dataset = make_dataset()
        out = adapter.transform(dataset)
        assert out.shape[1] == adapter.embedder.output_dim * 3

    def test_name_is_stable(self):
        adapter = EMAdapter("hybrid", "albert", "mean")
        assert adapter.name == "hybrid+albert/first_last+mean"

    def test_accepts_component_instances(self):
        adapter = EMAdapter(
            HybridTokenizer(), TransformerEmbedder("bert"), MeanCombiner()
        )
        assert adapter.tokenizer.name == "hybrid"

    def test_tokenize_hoist_is_bit_identical(self):
        """transform's tokenize-once-and-transpose path must match the
        per-position re-tokenization reference exactly."""
        adapter = EMAdapter("hybrid", "dbert", "mean", cache=False)
        dataset = make_dataset()
        n_sequences = adapter.tokenizer.sequence_count(dataset.schema)
        couples_by_position = [
            [
                adapter.tokenizer.sequences(pair, dataset.schema)[position]
                for pair in dataset
            ]
            for position in range(n_sequences)
        ]
        reference = adapter.combiner.combine_dataset(
            [adapter.embedder.embed_pairs(c) for c in couples_by_position]
        )
        assert np.array_equal(adapter.transform(dataset), reference)

    def test_cache_false_disables_entity_store_by_default(self):
        from repro import telemetry

        adapter = EMAdapter("attr", "dbert", "mean", cache=False)
        assert adapter.entity_cache is False
        with telemetry.recording() as rec:
            adapter.transform(make_dataset())
        assert not any(
            name.startswith("adapter.entity_cache")
            for name in rec.metrics.counters
        )

    def test_local_embedder_bypasses_entity_store(self, tiny_sda, monkeypatch):
        from repro import telemetry
        from repro.adapter import LocalWord2VecEmbedder

        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        local = LocalWord2VecEmbedder.from_dataset(tiny_sda, dim=8, epochs=1)
        adapter = EMAdapter("attr", local, "mean")
        with telemetry.recording() as rec:
            out = adapter.transform(tiny_sda)
        assert out.shape[0] == len(tiny_sda)
        assert not any(
            name.startswith("adapter.entity_cache")
            for name in rec.metrics.counters
        )


class TestNoAdapterFeaturizers:
    def test_word2vec_featurizer_shape(self, tiny_sda):
        featurizer = Word2VecFeaturizer(dim=8, epochs=1)
        features = featurizer.fit_transform(tiny_sda)
        assert features.shape == (len(tiny_sda), featurizer.output_dim)

    def test_word2vec_requires_fit(self, tiny_sda):
        with pytest.raises(NotFittedError):
            Word2VecFeaturizer().transform(tiny_sda)

    def test_native_featurizer_shape_and_nan(self):
        dataset = make_dataset()
        featurizer = NativeTabularFeaturizer(text_hash_dim=8)
        features = featurizer.fit_transform(dataset)
        assert features.shape[0] == len(dataset)
        # title: 3 stats + 8 bag; brand: 2; price: 1 -> 14 per side.
        assert features.shape[1] == 2 * (3 + 8 + 2 + 1)

    def test_native_featurizer_missing_numeric_is_nan(self):
        left = {"title": "a", "brand": "b", "price": None}
        pair = PairRecord(0, left, dict(left), 0)
        dataset = EMDataset("toy", SCHEMA, [pair])
        features = NativeTabularFeaturizer(text_hash_dim=4).fit_transform(dataset)
        assert np.isnan(features).sum() == 2  # One price per side.

    def test_native_requires_fit(self):
        with pytest.raises(NotFittedError):
            NativeTabularFeaturizer().transform(make_dataset())

    def test_no_cross_side_features(self):
        """Raw featurizers encode sides independently (the paper's point)."""
        left = {"title": "identical text", "brand": "x", "price": 1.0}
        match = PairRecord(0, dict(left), dict(left), 1)
        other = {"title": "completely different", "brand": "y", "price": 9.0}
        nonmatch = PairRecord(1, dict(left), dict(other), 0)
        dataset = EMDataset("toy", SCHEMA, [match, nonmatch])
        features = NativeTabularFeaturizer(text_hash_dim=4).fit_transform(dataset)
        # Left-side features of both rows are identical: no comparison info.
        half = features.shape[1] // 2
        np.testing.assert_allclose(features[0, :half], features[1, :half])


class TestAugmentation:
    def test_swap_preserves_label(self):
        pair = make_dataset()[1]
        swapped = swap_pair(pair, 99)
        assert swapped.label == pair.label
        assert swapped.left == pair.right and swapped.right == pair.left

    def test_shuffle_attribute_keeps_tokens(self):
        pair = make_dataset()[0]
        rng = np.random.default_rng(0)
        shuffled = shuffle_attribute(pair, "title", rng, 99, side="right")
        assert sorted(str(shuffled.right["title"]).split()) == sorted(
            str(pair.right["title"]).split()
        )

    def test_balance_reaches_target(self, tiny_sda):
        balanced = balance_dataset(tiny_sda, target_match_fraction=0.4)
        assert balanced.match_fraction == pytest.approx(0.4, abs=0.02)
        assert len(balanced) > len(tiny_sda)

    def test_balance_noop_when_already_balanced(self):
        dataset = make_dataset(6)  # 50% positives.
        assert balance_dataset(dataset, target_match_fraction=0.4) is dataset

    def test_balance_rejects_bad_target(self, tiny_sda):
        with pytest.raises(ValueError):
            balance_dataset(tiny_sda, target_match_fraction=1.0)


class TestAdapterCacheKeying:
    def test_equal_length_subsets_do_not_collide(self, monkeypatch):
        """Features are a function of pair content. One default adapter
        transforms two inputs in turn, and each result must equal a cold
        ``cache=False`` transform: equal-length subsets of one dataset,
        then two draws with one name, schema and pair ids but different
        entity text."""
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        dataset = make_dataset(8)
        redrawn = EMDataset(
            dataset.name,
            dataset.schema,
            [
                PairRecord(
                    pair.pair_id,
                    dict(pair.left, title=f"{pair.left['title']} mark ii"),
                    pair.right,
                    pair.label,
                )
                for pair in dataset
            ],
        )
        adapter = EMAdapter("attr", "dbert", "mean")
        cold = EMAdapter("attr", "dbert", "mean", cache=False)
        for inputs in (
            (dataset.subset([0, 1, 2]), dataset.subset([3, 4, 5])),
            (dataset, redrawn),
        ):
            first, second = (adapter.transform(part) for part in inputs)
            np.testing.assert_array_equal(first, cold.transform(inputs[0]))
            np.testing.assert_array_equal(second, cold.transform(inputs[1]))
            assert not np.allclose(first, second)


class TestEntityStore:
    """The content-addressed entity-embedding store: tiers, corrupt-pack
    recovery, and bounded memory."""

    def test_memory_round_trip(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        clear_entity_store()
        store = entity_store()
        arrays = {
            "matrix": np.arange(6.0).reshape(2, 3),
            "sep_positions": np.array([1], dtype=np.int64),
        }
        with store.writer() as pack:
            pack.save(123, arrays)
        loaded = store.load(123)
        assert np.array_equal(loaded["matrix"], arrays["matrix"])
        assert np.array_equal(loaded["sep_positions"], arrays["sep_positions"])

    def test_disk_round_trip_survives_rebind(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_entity_store()
        with entity_store().writer() as pack:
            pack.save(7, {"vector": np.ones(4)})
            pack.save(8, {"matrix": np.eye(3), "sep_positions": np.arange(2)})
        clear_entity_store()  # a fresh process / worker
        loaded = entity_store().load_many([7, 8, 9])
        assert sorted(loaded) == [7, 8]
        assert np.array_equal(loaded[7]["vector"], np.ones(4))
        assert np.array_equal(loaded[8]["matrix"], np.eye(3))
        assert loaded[8]["sep_positions"].dtype == np.arange(2).dtype
        # One pack for the whole writer, named by pid, serial and keys.
        (name,) = [p.name for p in (tmp_path / "entity").iterdir()]
        assert name.startswith(f"{os.getpid():x}-0-")
        assert name.endswith(f".v{PACK_FORMAT}.pack")
        clear_entity_store()

    @pytest.mark.parametrize(
        "payload", [b"repro-chaos-garbage\x00\xff", b""], ids=["garbage", "zero-byte"]
    )
    def test_corrupt_record_recovered(self, tmp_path, monkeypatch, payload):
        """A garbled or zero-byte pack counts as corrupt, is unlinked,
        and its records miss so the caller recomputes them."""
        from repro import telemetry

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_entity_store()
        with entity_store().writer() as pack:
            pack.save(7, {"vector": np.ones(4)})
        (path,) = (tmp_path / "entity").iterdir()
        path.write_bytes(payload)
        clear_entity_store()
        with telemetry.recording() as rec:
            assert entity_store().load(7) is None
        counters = rec.metrics.counters
        assert counters["adapter.entity_cache.disk.corrupt"].value == 1
        assert counters["adapter.entity_cache.disk.misses"].value == 1
        assert not path.exists()
        clear_entity_store()

    def test_warm_transform_survives_corrupted_entity_files(
        self, tmp_path, monkeypatch
    ):
        from repro import telemetry

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_entity_store()
        dataset = make_dataset()
        adapter = EMAdapter("attr", "dbert", "mean", cache=False, entity_cache=True)
        first = adapter.transform(dataset)
        for record in (tmp_path / "entity").glob("*.pack"):
            record.write_bytes(b"repro-chaos-garbage\x00\xff")
        clear_entity_store()
        with telemetry.recording() as rec:
            again = adapter.transform(dataset)
        clear_entity_store()
        np.testing.assert_array_equal(again, first)
        assert rec.metrics.counters["adapter.entity_cache.disk.corrupt"].value >= 1

    def test_eviction_bounded_and_gauged(self, monkeypatch):
        from repro import telemetry

        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        monkeypatch.setenv("REPRO_ENTITY_CACHE_MB", "0.0001")  # ~104 bytes
        clear_entity_store()
        store = entity_store()
        with telemetry.recording() as rec:
            with store.writer() as pack:
                for key in range(10):
                    pack.save(key, {"vector": np.ones(8)})  # 64 bytes each
        assert store.resident_bytes <= 104
        counters = rec.metrics.counters
        assert counters["adapter.entity_cache.memory.evictions"].value >= 1
        gauge = rec.metrics.gauges["adapter.entity_cache.memory.resident_bytes"]
        assert gauge.value == store.resident_bytes
        assert store.load(9) is not None  # newest entry survives
        assert store.load(0) is None  # evicted, and the disk tier is off
        clear_entity_store()

    def test_clear_rebinds_the_singleton(self):
        store = entity_store()
        clear_entity_store()
        assert entity_store() is not store

    def test_lru_concurrent_put_get_keeps_byte_accounting_exact(self):
        """Regression: ``ByteBudgetLRU`` mutated its ``OrderedDict`` and
        ``_resident_bytes`` without a lock, so concurrent ``get``/``put``
        from server threads could corrupt LRU order (``move_to_end`` on
        a key another thread was popping) or drift the resident-byte
        tally away from the entries actually held."""
        import threading

        from repro.adapter.entity_store import ByteBudgetLRU

        lru = ByteBudgetLRU(lambda: 40 * 64, "test.lru")  # 40 entries of 64B
        threads_n, rounds = 8, 1_500
        barrier = threading.Barrier(threads_n)
        errors: list[Exception] = []

        def hammer(slot: int) -> None:
            try:
                barrier.wait(timeout=30)
                for i in range(rounds):
                    key = (slot * rounds + i) % 100  # overlap across threads
                    lru.put(key, ("value", slot, i), 64)
                    lru.get((key * 7) % 100)
                    lru.get(key)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(slot,))
            for slot in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)

        assert errors == []
        # Every entry is 64 bytes: the tally must equal the entry count
        # exactly, and the eviction loop must have enforced the budget.
        assert lru.resident_bytes == len(lru._entries) * 64
        assert lru.resident_bytes <= 40 * 64
        assert sum(size for _v, size in lru._entries.values()) == lru.resident_bytes

    def test_store_concurrent_save_load_accounts_bytes(self, monkeypatch):
        """Two threads hammering one EntityStore (the serving daemon's
        shared warm store) must never corrupt the memory tier."""
        import threading

        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        monkeypatch.setenv("REPRO_ENTITY_CACHE_MB", "0.001")  # ~1 KiB
        clear_entity_store()
        store = entity_store()
        barrier = threading.Barrier(2)
        errors: list[Exception] = []

        def work(slot: int) -> None:
            try:
                barrier.wait(timeout=30)
                with store.writer() as pack:
                    for i in range(400):
                        key = (slot * 400 + i) % 60
                        pack.save(key, {"vector": np.full(8, float(slot))})
                        store.load((key + 13) % 60)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(s,)) for s in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert errors == []
        assert store.resident_bytes <= 1024 + 64  # budget + one newest entry
        loaded = store.load(59)
        assert loaded is None or loaded["vector"].shape == (8,)
        clear_entity_store()


_PACK_CHILD = """
import json, sys
import numpy as np
from repro import telemetry
from repro.adapter import EMAdapter
from repro.data.schema import EMDataset
from tests.test_adapter import make_dataset

full = make_dataset(12)
start, stop, out = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
part = EMDataset(full.name, full.schema, [full[i] for i in range(start, stop)])
adapter = EMAdapter("attr", "dbert", "mean", cache=False, entity_cache=True)
with telemetry.recording() as rec:
    np.save(out, adapter.transform(part))
print(json.dumps({k: c.value for k, c in rec.metrics.counters.items()}))
"""


def _counter_values(rec) -> dict[str, float]:
    return {name: c.value for name, c in rec.metrics.counters.items()}


class TestEntityPacks:
    """The disk tier's pack layout: one pack per transform call, reads
    through the in-process index, damaged packs recomputed."""

    @staticmethod
    def _packs(root) -> list:
        return sorted((root / "entity").glob("*.pack"))

    def test_one_pack_per_transform_call(self, tmp_path, monkeypatch):
        from repro import telemetry

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_entity_store()
        adapter = EMAdapter("hybrid", "dbert", "mean", cache=False, entity_cache=True)
        with telemetry.recording() as rec:
            adapter.transform(make_dataset())  # several sequence positions
        seen = _counter_values(rec)
        assert seen["adapter.entity_cache.disk.packs_written"] == 1
        assert (
            seen["adapter.entity_cache.disk.records_written"]
            == seen["adapter.entity_cache.disk.misses"]
        )
        assert len(self._packs(tmp_path)) == 1
        clear_entity_store()

    def test_all_hit_transform_writes_no_pack(self, tmp_path, monkeypatch):
        from repro import telemetry

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_entity_store()
        dataset = make_dataset()
        adapter = EMAdapter("attr", "dbert", "mean", cache=False, entity_cache=True)
        first = adapter.transform(dataset)
        packs = self._packs(tmp_path)
        for rebind in (False, True):  # memory hits, then pack reads
            if rebind:
                clear_entity_store()
            with telemetry.recording() as rec:
                again = adapter.transform(dataset)
            np.testing.assert_array_equal(again, first)
            seen = _counter_values(rec)
            assert "adapter.entity_cache.disk.packs_written" not in seen
            assert "adapter.entity_cache.disk.misses" not in seen
            assert self._packs(tmp_path) == packs
        assert seen["adapter.entity_cache.disk.hits"] > 0
        clear_entity_store()

    @pytest.mark.parametrize("damage", ["truncated", "table-flip", "empty"])
    def test_damaged_pack_recomputed_bit_identically(
        self, tmp_path, monkeypatch, damage
    ):
        """A truncated pack (size check), one with a damaged table
        (table CRC) or a zero-byte one (no prefix to unpack) is counted
        corrupt and unlinked, and its records recompute to the same
        bits."""
        from repro import telemetry

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_entity_store()
        dataset = make_dataset()
        adapter = EMAdapter("attr", "dbert", "mean", cache=False, entity_cache=True)
        first = adapter.transform(dataset)
        (path,) = self._packs(tmp_path)
        raw = bytearray(path.read_bytes())
        if damage == "truncated":
            raw = raw[:-9]
        elif damage == "empty":
            raw = bytearray()
        else:
            raw[40] ^= 0x20  # inside the JSON header
        path.write_bytes(bytes(raw))
        clear_entity_store()
        with telemetry.recording() as rec:
            again = adapter.transform(dataset)
        np.testing.assert_array_equal(again, first)
        seen = _counter_values(rec)
        assert seen["adapter.entity_cache.disk.corrupt"] == 1
        assert seen["adapter.entity_cache.disk.packs_written"] == 1
        # The damaged pack was unlinked; the recomputed records form a
        # healthy one (same pid, serial and keys here, so the same name).
        assert self._packs(tmp_path) == [path]
        clear_entity_store()
        with telemetry.recording() as rec:
            np.testing.assert_array_equal(adapter.transform(dataset), first)
        seen = _counter_values(rec)
        assert "adapter.entity_cache.disk.corrupt" not in seen
        assert "adapter.entity_cache.disk.misses" not in seen
        clear_entity_store()

    def test_payload_damage_caught_by_record_crc(self, tmp_path, monkeypatch):
        """A flipped payload byte leaves the tables intact, so the pack
        is indexed; reading the record fails its CRC and drops the
        pack instead of returning wrong bits."""
        from repro import telemetry

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_entity_store()
        with entity_store().writer() as pack:
            pack.save(7, {"vector": np.ones(4)})
        (path,) = self._packs(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x20
        path.write_bytes(bytes(raw))
        clear_entity_store()
        with telemetry.recording() as rec:
            assert entity_store().load(7) is None
            assert entity_store().load(7) is None  # dropped from the index
        seen = _counter_values(rec)
        assert seen["adapter.entity_cache.disk.corrupt"] == 1
        assert seen["adapter.entity_cache.disk.misses"] == 2
        assert not path.exists()
        clear_entity_store()

    def test_legacy_npz_records_are_ignored(self, tmp_path, monkeypatch):
        from repro import telemetry

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        legacy = tmp_path / "entity" / "0000000000000007.npz"
        legacy.parent.mkdir(parents=True)
        np.savez(legacy, vector=np.ones(4))
        clear_entity_store()
        with telemetry.recording() as rec:
            assert entity_store().load(7) is None
        seen = _counter_values(rec)
        assert seen["adapter.entity_cache.disk.misses"] == 1
        assert "adapter.entity_cache.disk.corrupt" not in seen
        assert legacy.exists()  # neither read nor unlinked
        clear_entity_store()

    def test_processes_share_one_cache_directory(self, tmp_path):
        """Two processes write packs into one directory; a third reads
        both processes' packs, computes nothing, and writes nothing."""
        import json
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).parents[1]), str(Path(__file__).parents[1])]
        )

        def child(start: int, stop: int) -> tuple[dict, np.ndarray]:
            out = tmp_path / f"{start}-{stop}.npy"
            done = subprocess.run(
                [sys.executable, "-c", _PACK_CHILD, str(start), str(stop), str(out)],
                env=env, capture_output=True, text=True, timeout=300, check=True,
            )
            return json.loads(done.stdout.splitlines()[-1]), np.load(out)

        first, _ = child(0, 6)
        second, _ = child(6, 12)
        assert first["adapter.entity_cache.disk.packs_written"] == 1
        assert second["adapter.entity_cache.disk.packs_written"] == 1
        writers = {p.name.split("-")[0] for p in self._packs(tmp_path / "cache")}
        assert len(writers) == 2  # one pack per process, named by pid
        reader, features = child(0, 12)
        assert "adapter.entity_cache.disk.packs_written" not in reader
        assert "adapter.entity_cache.disk.misses" not in reader
        assert (
            reader["adapter.entity_cache.disk.hits"]
            == reader["adapter.entity_cache.memory.misses"]
        )
        expected = EMAdapter("attr", "dbert", "mean", cache=False).transform(
            make_dataset(12)
        )
        np.testing.assert_array_equal(features, expected)


class TestCanonicalEncode:
    """The exact-length-bucketed forward (ENCODE_VERSION 2): each
    couple's vector is a pure function of its own content, so cached
    halves compose and batch composition cannot change any bit."""

    NASTY = [
        "",
        "a",
        "[sep]",
        "foo [sep] bar",
        "ends with [",
        "sep ] starts",
        "[ sep",
        "literal [sep] inside text",
        "café №5 — naïve",
        "a-b/c_d (e) [f]",
        " ".join(f"tok{i}" for i in range(200)),  # joint > max_len
    ]

    def test_assembled_halves_match_direct_pair_matrix(self):
        """assemble_pair(entity_half, entity_half) must reproduce
        _sequence_matrix(pair_text(...)) exactly — including literal
        [sep] markers in the data, empty sides, marker fragments at the
        join, and truncation past max_len."""
        from repro.transformers import load_pretrained

        for arch in ("albert", "roberta"):
            encoder = load_pretrained(arch)
            for left in self.NASTY:
                for right in self.NASTY:
                    direct = encoder._sequence_matrix(
                        encoder.pair_text(left, right)
                    )
                    joined = encoder.assemble_pair(
                        encoder.entity_half(left), encoder.entity_half(right)
                    )
                    assert np.array_equal(direct[0], joined[0]), (left, right)
                    assert np.array_equal(direct[1], joined[1]), (left, right)

    def test_batch_size_invariance(self):
        couples = [(a, b) for a in self.NASTY[:6] for b in self.NASTY[:6]]
        reference = TransformerEmbedder("dbert", batch_size=256).embed_pairs(
            couples
        )
        for batch_size in (1, 2, 7):
            out = TransformerEmbedder("dbert", batch_size=batch_size).embed_pairs(
                couples
            )
            assert np.array_equal(out, reference)

    def test_duplicate_couples_embed_identically(self):
        couples = [
            ("sony camera", "sony cam"),
            ("a b c", "a b"),
            ("sony camera", "sony cam"),
        ]
        out = TransformerEmbedder("albert").embed_pairs(couples)
        assert np.array_equal(out[0], out[2])

    def test_store_on_off_warm_identical_all_combos(self, tmp_path, monkeypatch):
        """Acceptance: adapter.transform bits must not depend on the
        entity store, its temperature, or the adapter configuration —
        every tokenizer x embedder x combiner combination agrees."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        dataset = make_dataset()
        for tokenizer in ("unstructured", "attr", "hybrid"):
            for arch in ("bert", "dbert", "albert", "roberta", "xlnet"):
                for combiner in ("mean", "concat"):
                    off = EMAdapter(
                        tokenizer, arch, combiner, cache=False
                    ).transform(dataset)
                    clear_entity_store()
                    warmable = EMAdapter(
                        tokenizer, arch, combiner, cache=False, entity_cache=True
                    )
                    cold = warmable.transform(dataset)
                    warm = warmable.transform(dataset)
                    clear_entity_store()  # the next transform reads packs
                    replay = warmable.transform(dataset)
                    assert np.array_equal(off, cold), (tokenizer, arch, combiner)
                    assert np.array_equal(cold, warm), (tokenizer, arch, combiner)
                    assert np.array_equal(cold, replay), (tokenizer, arch, combiner)
        clear_entity_store()

    def test_store_identity_across_layers_modes(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        couples = [("sony x1", "sony x2"), ("a", "b")]
        for layers in ("last", "last4"):
            embedder = TransformerEmbedder("dbert", layers=layers)
            clear_entity_store()
            off = embedder.embed_pairs(couples)
            with entity_store().writer() as pack:
                cold = embedder.embed_pairs(couples, pack)
            with entity_store().writer() as pack:
                warm = embedder.embed_pairs(couples, pack)
            assert np.array_equal(off, cold)
            assert np.array_equal(cold, warm)
        clear_entity_store()
