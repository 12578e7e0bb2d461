"""Tests for the benchmark registry, splits, and dirty corruption."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SPLIT_PROPORTIONS
from repro.data import (
    DATASET_NAMES,
    dataset_spec,
    dataset_statistics,
    load_dataset,
    split_dataset,
)
from repro.data.corruption import make_dirty
from repro.exceptions import DataError, UnknownDatasetError


class TestRegistry:
    def test_twelve_datasets(self):
        assert len(DATASET_NAMES) == 12

    def test_paper_order(self):
        assert DATASET_NAMES[0] == "S-DG"
        assert DATASET_NAMES[-1] == "D-WA"

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownDatasetError):
            dataset_spec("S-XX")

    def test_table1_sizes(self):
        rows = {r["dataset"]: r for r in dataset_statistics()}
        assert rows["S-DG"]["size"] == 28707
        assert rows["S-FZ"]["size"] == 946
        assert rows["T-AB"]["match_percent"] == 10.74

    def test_types(self):
        rows = {r["dataset"]: r for r in dataset_statistics()}
        assert rows["T-AB"]["type"] == "Textual"
        assert rows["D-DA"]["type"] == "Dirty"
        assert rows["S-BR"]["type"] == "Structured"

    def test_scale_validation(self):
        with pytest.raises(UnknownDatasetError):
            load_dataset("S-BR", scale=0.0)
        with pytest.raises(UnknownDatasetError):
            load_dataset("S-BR", scale=1.5)


class TestLoadDataset:
    def test_generated_match_rate_close_to_registry(self):
        dataset = load_dataset("S-DA", scale=0.05)
        assert dataset.match_fraction == pytest.approx(0.1796, abs=0.01)

    def test_small_datasets_keep_full_size(self):
        assert len(load_dataset("S-BR", scale=0.05)) == 450

    def test_deterministic(self):
        a = load_dataset("S-IA", scale=0.5)
        b = load_dataset("S-IA", scale=0.5)
        assert a[0].left == b[0].left
        assert (a.labels == b.labels).all()

    def test_seed_changes_data(self):
        a = load_dataset("S-IA", scale=0.5, seed=1)
        b = load_dataset("S-IA", scale=0.5, seed=2)
        assert a[0].left != b[0].left

    def test_dirty_variant_derives_from_structured(self):
        clean = load_dataset("S-WA", scale=0.05)
        dirty = load_dataset("D-WA", scale=0.05)
        assert len(clean) == len(dirty)
        assert (clean.labels == dirty.labels).all()
        assert dirty.dataset_type == "Dirty"

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_every_dataset_generates(self, name):
        dataset = load_dataset(name, scale=0.02)
        assert len(dataset) >= 450 * 0.9
        assert 0.0 < dataset.match_fraction < 0.5


class TestSplits:
    def test_proportions(self, tiny_sda):
        splits = split_dataset(tiny_sda)
        total = len(tiny_sda)
        assert sum(splits.sizes) == total
        assert splits.sizes[0] == pytest.approx(
            SPLIT_PROPORTIONS[0] * total, rel=0.05
        )

    def test_stratification(self, tiny_sda):
        splits = split_dataset(tiny_sda)
        for part in splits:
            assert part.match_fraction == pytest.approx(
                tiny_sda.match_fraction, abs=0.03
            )

    def test_partitions_disjoint_and_complete(self, tiny_sda):
        splits = split_dataset(tiny_sda)
        ids = [p.pair_id for part in splits for p in part]
        assert sorted(ids) == sorted(p.pair_id for p in tiny_sda)

    def test_deterministic(self, tiny_sda):
        a = split_dataset(tiny_sda)
        b = split_dataset(tiny_sda)
        assert [p.pair_id for p in a.train] == [p.pair_id for p in b.train]

    def test_rejects_bad_proportions(self, tiny_sda):
        with pytest.raises(DataError):
            split_dataset(tiny_sda, proportions=(0.5, 0.2, 0.2))


class TestDirtyCorruption:
    def test_values_move_to_anchor(self):
        clean = load_dataset("S-WA", scale=0.05)
        dirty = make_dirty(clean, move_probability=1.0,
                           rng=np.random.default_rng(0))
        moved = 0
        for c, d in zip(clean.pairs, dirty.pairs):
            for side_c, side_d in ((c.left, d.left), (c.right, d.right)):
                brand = str(side_c.get("brand", ""))
                if brand and side_d["brand"] == "":
                    moved += 1
                    assert brand in str(side_d["title"])
        assert moved > 0

    def test_zero_probability_is_identity(self):
        clean = load_dataset("S-IA", scale=0.5)
        dirty = make_dirty(clean, move_probability=0.0,
                           rng=np.random.default_rng(0))
        assert dirty.pairs[0].left == clean.pairs[0].left

    def test_labels_preserved(self):
        clean = load_dataset("S-IA", scale=0.5)
        dirty = make_dirty(clean, rng=np.random.default_rng(0))
        assert (clean.labels == dirty.labels).all()

    def test_token_multiset_preserved_per_record(self):
        clean = load_dataset("S-WA", scale=0.05)
        dirty = make_dirty(clean, rng=np.random.default_rng(1))
        for c, d in zip(clean.pairs[:50], dirty.pairs[:50]):
            def bag(entity):
                tokens = []
                for value in entity.values():
                    if value not in (None, ""):
                        tokens.extend(str(value).split())
                return sorted(tokens)

            assert bag(c.left) == bag(d.left)
