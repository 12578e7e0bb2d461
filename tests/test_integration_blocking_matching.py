"""Cross-subsystem integration test: blocking + matching + clustering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.blocking import (
    TokenBlocker,
    blocking_quality,
    cluster_matches,
    make_candidate_dataset,
)
from repro.data.generators import BeerGenerator
from repro.data.splits import split_dataset
from repro.matching import MagellanMatcher
from repro.ml.metrics import f1_score


def build_tables(n_shared=60, n_only=30, seed=11):
    generator = BeerGenerator()
    rng = np.random.default_rng(seed)
    left, right, truth = [], [], set()
    for i in range(n_shared):
        entity = generator.sample_entity(rng)
        l_row, r_row = generator.render_pair(entity, rng)
        left.append(l_row)
        right.append(r_row)
        truth.add((i, i))
    for _ in range(n_only):
        left.append(generator.sample_entity(rng))
        right.append(generator.sample_entity(rng))
    return generator.schema, left, right, truth


class TestEndToEndER:
    @pytest.fixture(scope="class")
    def resolved(self):
        schema, left, right, truth = build_tables()
        blocker = TokenBlocker(["beer_name", "brew_factory_name"])
        candidates = blocker.candidates(left, right)
        dataset = make_candidate_dataset(
            schema, left, right, candidates, truth, name="beers"
        )
        splits = split_dataset(dataset)
        matcher = MagellanMatcher(n_estimators=60, seed=0)
        matcher.fit(splits.train, splits.valid)
        return matcher, dataset, candidates, truth, left

    def test_blocking_keeps_most_matches(self, resolved):
        _m, _d, candidates, truth, left = resolved
        quality = blocking_quality(candidates, truth, len(left), len(left))
        assert quality["pair_completeness"] > 0.8

    def test_matcher_learns_blocked_candidates(self, resolved):
        matcher, dataset, _c, _t, _l = resolved
        splits = split_dataset(dataset)
        f1 = f1_score(splits.test.labels, matcher.predict(splits.test))
        assert f1 > 0.5

    def test_clusters_align_with_truth(self, resolved):
        matcher, dataset, candidates, truth, _l = resolved
        predictions = matcher.predict(dataset)
        clusters = cluster_matches(candidates, predictions.tolist(), 0)
        # Most clusters should contain a true match pair.
        good = 0
        for cluster in clusters:
            lefts = {idx for side, idx in cluster if side == "L"}
            rights = {idx for side, idx in cluster if side == "R"}
            if any((i, j) in truth for i in lefts for j in rights):
                good += 1
        assert clusters
        assert good / len(clusters) > 0.6
