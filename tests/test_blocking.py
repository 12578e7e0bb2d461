"""Tests for the blocking subsystem and match clustering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.blocking import (
    TokenBlocker,
    blocking_quality,
    cluster_matches,
    make_candidate_dataset,
)
from repro.data.generators import RestaurantGenerator
from repro.data.schema import Schema
from repro.exceptions import DataError


def make_tables(n=40, seed=0):
    """Two tables describing overlapping restaurants + true match pairs."""
    generator = RestaurantGenerator()
    rng = np.random.default_rng(seed)
    left, right, matches = [], [], set()
    for i in range(n):
        entity = generator.sample_entity(rng)
        l_row, r_row = generator.render_pair(entity, rng)
        left.append(l_row)
        if i % 2 == 0:  # Half the left entities exist on the right too.
            right.append(r_row)
            matches.add((i, len(right) - 1))
    # Plus right-only entities.
    for _ in range(n // 2):
        entity = generator.sample_entity(rng)
        _l, r_row = generator.render_pair(entity, rng)
        right.append(r_row)
    return left, right, matches, generator.schema


class TestTokenBlocker:
    def test_finds_most_true_matches(self):
        left, right, matches, _schema = make_tables()
        blocker = TokenBlocker(["name", "phone"], min_shared=1)
        quality = blocking_quality(
            blocker.candidates(left, right), matches, len(left), len(right)
        )
        assert quality["pair_completeness"] > 0.8
        assert quality["reduction_ratio"] > 0.3

    def test_min_shared_two_shrinks_candidates(self):
        left, right, _matches, _schema = make_tables()
        loose = TokenBlocker(["name", "addr"], min_shared=1)
        strict = TokenBlocker(["name", "addr"], min_shared=2)
        assert len(strict.candidates(left, right)) <= len(
            loose.candidates(left, right)
        )

    def test_rejects_no_attributes(self):
        with pytest.raises(DataError):
            TokenBlocker([])

    def test_rejects_bad_min_shared(self):
        with pytest.raises(DataError):
            TokenBlocker(["a"], min_shared=0)

    def test_pairs_are_sorted_and_unique(self):
        left, right, _m, _s = make_tables(20)
        candidates = TokenBlocker(["name"]).candidates(left, right)
        assert candidates == sorted(set(candidates))


class TestCandidateDataset:
    def test_labels_from_truth(self):
        left, right, matches, schema = make_tables(10)
        blocker = TokenBlocker(["name", "phone"])
        candidates = blocker.candidates(left, right)
        dataset = make_candidate_dataset(
            schema, left, right, candidates, matches
        )
        assert len(dataset) == len(candidates)
        assert dataset.labels.sum() == len(set(candidates) & matches)

    def test_unlabelled_defaults_to_zero(self):
        left, right, _m, schema = make_tables(6)
        dataset = make_candidate_dataset(schema, left, right, [(0, 0)])
        assert dataset.labels.sum() == 0


class TestClustering:
    def test_transitive_clusters(self):
        pairs = [(0, 0), (1, 0), (2, 5)]
        predictions = [1, 1, 0]
        clusters = cluster_matches(pairs, predictions, n_left=3)
        assert len(clusters) == 1
        assert clusters[0] == {("L", 0), ("L", 1), ("R", 0)}

    def test_no_matches_no_clusters(self):
        assert cluster_matches([(0, 0)], [0], n_left=1) == []

    def test_clusters_come_in_first_seen_order(self):
        """Components are listed in the order their first node appears
        in ``pairs`` (left before right within a pair), whatever order
        the edges join them in."""
        pairs = [(5, 9), (0, 1), (3, 4), (0, 4), (5, 2), (7, 7), (1, 1)]
        predictions = [0, 1, 1, 1, 1, 0, 1]
        assert cluster_matches(pairs, predictions, n_left=8) == [
            {("L", 5), ("R", 2)},
            {("L", 0), ("R", 1), ("L", 3), ("R", 4), ("L", 1)},
        ]

    def test_long_chain_is_one_cluster(self):
        # L0-R0-L1-R1-... : a path that naive union-find makes deep.
        pairs = [(i, i) for i in range(500)] + [(i + 1, i) for i in range(499)]
        clusters = cluster_matches(pairs, [1] * len(pairs), n_left=500)
        assert len(clusters) == 1 and len(clusters[0]) == 1000
