"""Tests for the reproduction report and the active-learning loop."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data import load_dataset, split_dataset
from repro.exceptions import DataError
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import build_report, collect_cached_results
from repro.matching import MagellanMatcher
from repro.matching.active import ActiveLearningLoop
from repro.ml.metrics import f1_score


def _fake_record(system, dataset, f1):
    return {
        "system": system,
        "dataset": dataset,
        "f1": f1,
        "precision": f1,
        "recall": f1,
        "simulated_hours": 1.0,
        "wall_seconds": 1.0,
    }


class TestReport:
    @pytest.fixture
    def populated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = ExperimentConfig(scale=0.5, max_models=4)
        entries = {
            config.cache_key("raw", "autosklearn", "S-DA", "1"): _fake_record(
                "autosklearn(raw)", "S-DA", 40.0
            ),
            config.cache_key("deepmatcher", "S-DA"): _fake_record(
                "deepmatcher", "S-DA", 90.0
            ),
            config.cache_key(
                "adapted", "autosklearn", "S-DA", "hybrid", "albert", "1"
            ): _fake_record("autosklearn+hybrid+albert", "S-DA", 85.0),
            config.cache_key(
                "adapted", "autosklearn", "S-DA", "hybrid", "albert", "6"
            ): _fake_record("autosklearn+hybrid+albert", "S-DA", 88.0),
        }
        for key, record in entries.items():
            (tmp_path / f"{key}.json").write_text(json.dumps(record))
        return config

    def test_collects_only_matching_config(self, populated_cache, tmp_path):
        records = collect_cached_results(populated_cache)
        assert len(records) == 4
        other = ExperimentConfig(scale=0.25, max_models=4)
        assert collect_cached_results(other) == []

    def test_report_contains_aggregates(self, populated_cache):
        text = build_report(populated_cache)
        assert "DeepMatcher" in text and "90.0" in text
        assert "Adapter impact" in text
        assert "+45.0" in text  # 85 adapted - 40 raw.
        assert "Budget effect" in text and "+3.00" in text

    def test_empty_cache_report(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "empty"))
        text = build_report(ExperimentConfig(scale=0.5))
        assert "cached results: 0" in text


class TestActiveLearning:
    @pytest.fixture(scope="class")
    def pool_and_valid(self):
        splits = split_dataset(load_dataset("S-DA", scale=0.04))
        return splits.train, splits.valid, splits.test

    def test_loop_improves_over_seed(self, pool_and_valid):
        pool, valid, test = pool_and_valid

        def factory():
            return MagellanMatcher(n_estimators=40, seed=0)

        loop = ActiveLearningLoop(
            matcher_factory=factory, seed_size=40, batch_size=25,
            n_rounds=3, seed=1,
        )
        final = loop.run(pool, valid)
        final_f1 = f1_score(test.labels, final.predict(test))

        seed_only = factory()
        rng = np.random.default_rng(1)
        seed_idx = rng.choice(len(pool), size=40, replace=False)
        seed_only.fit(pool.subset(sorted(seed_idx.tolist())), valid)
        seed_f1 = f1_score(test.labels, seed_only.predict(test))

        assert final_f1 >= seed_f1 - 0.02
        assert loop.labels_used <= 40 + 3 * 25

    def test_history_recorded(self, pool_and_valid):
        pool, valid, _ = pool_and_valid
        loop = ActiveLearningLoop(
            matcher_factory=lambda: MagellanMatcher(n_estimators=30, seed=0),
            seed_size=30, batch_size=10, n_rounds=2, seed=0,
        )
        loop.run(pool, valid)
        assert len(loop.history) == 2
        assert loop.history[0].n_labelled < loop.history[1].n_labelled
        assert all(0 <= r.mean_uncertainty <= 1 for r in loop.history)

    def test_rejects_oversized_seed(self, pool_and_valid):
        pool, valid, _ = pool_and_valid
        loop = ActiveLearningLoop(
            matcher_factory=lambda: MagellanMatcher(),
            seed_size=len(pool) + 1,
        )
        with pytest.raises(DataError):
            loop.run(pool, valid)

    def test_queried_ids_unique_and_fresh(self, pool_and_valid):
        pool, valid, _ = pool_and_valid
        loop = ActiveLearningLoop(
            matcher_factory=lambda: MagellanMatcher(n_estimators=30, seed=0),
            seed_size=30, batch_size=15, n_rounds=2, seed=2,
        )
        loop.run(pool, valid)
        seen: set[int] = set()
        for round_info in loop.history:
            ids = set(round_info.queried_ids)
            assert not ids & seen  # Never re-query a labelled pair.
            seen |= ids
