"""Cross-cutting property-based tests on core invariants.

Complements the per-module suites with hypothesis-driven checks on the
seams between subsystems: deterministic seeding, binning monotonicity,
metric consistency between implementations, and adapter determinism.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import rng_for, stable_hash
from repro.data.generators.base import sample_words
from repro.data.generators import wordlists
from repro.ml._binning import BinMapper
from repro.ml.ensemble import caruana_selection
from repro.ml.metrics import f1_score


class TestSeeding:
    @given(st.text(max_size=20), st.integers(0, 10))
    @settings(max_examples=40)
    def test_stable_hash_is_stable(self, text, number):
        assert stable_hash(text, number) == stable_hash(text, number)

    @given(st.text(max_size=20))
    @settings(max_examples=40)
    def test_rng_for_reproducible(self, scope):
        a = rng_for("test", scope).random(4)
        b = rng_for("test", scope).random(4)
        np.testing.assert_array_equal(a, b)

    def test_different_scopes_differ(self):
        a = rng_for("alpha").random(8)
        b = rng_for("beta").random(8)
        assert not np.allclose(a, b)


class TestBinning:
    @given(st.integers(0, 1000), st.integers(10, 200))
    @settings(max_examples=30, deadline=None)
    def test_binning_is_monotone(self, seed, n):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 1))
        mapper = BinMapper(n_bins=16).fit(X)
        binned = mapper.transform(X)[:, 0].astype(int)
        order = np.argsort(X[:, 0])
        assert (np.diff(binned[order]) >= 0).all()

    def test_nan_goes_to_bin_zero(self):
        X = np.array([[1.0], [np.nan], [2.0]])
        mapper = BinMapper(n_bins=8).fit(X)
        assert mapper.transform(X)[1, 0] == 0

    def test_finite_values_avoid_missing_bin(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 3))
        binned = BinMapper(n_bins=32).fit_transform(X)
        assert (binned >= 1).all()

    def test_bins_within_budget(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(500, 2))
        mapper = BinMapper(n_bins=16)
        binned = mapper.fit_transform(X)
        assert binned.max() < 16

    def test_constant_column(self):
        X = np.full((50, 1), 3.14)
        binned = BinMapper(n_bins=8).fit_transform(X)
        assert (binned == 1).all()

    def test_rejects_extreme_bins(self):
        with pytest.raises(ValueError):
            BinMapper(n_bins=2)
        with pytest.raises(ValueError):
            BinMapper(n_bins=1000)


def _reference_bins(mapper: BinMapper, X: np.ndarray) -> np.ndarray:
    """The per-column loop the one-pass transform replaced."""
    binned = np.empty(X.shape, dtype=np.uint8)
    for col in range(X.shape[1]):
        values = X[:, col]
        edges = mapper.edges_[col]
        if len(edges) == 0:
            bins = np.ones(len(values), dtype=np.int64)
        else:
            bins = np.searchsorted(edges, values, side="right") + 1
        bins[np.isnan(values)] = 0
        binned[:, col] = bins.astype(np.uint8)
    return binned


class TestOnePassBinning:
    """``BinMapper.transform`` bins every column at once; it must equal
    the per-column ``searchsorted`` loop bit for bit."""

    SPECIAL = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])

    @staticmethod
    def _fit_data(rng, rows: int, cols: int) -> np.ndarray:
        X = rng.normal(size=(rows, cols))
        X[:, 0] = 2.5  # constant: no interior edges
        X[: rows // 2, 1] = np.nan  # half missing
        X[:, 2] = np.round(X[:, 2])  # few distinct values, ties on edges
        return X

    @given(
        st.integers(0, 10_000),
        st.integers(1, 40),
        st.integers(3, 12),
        st.sampled_from([4, 16, 64, 256]),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_per_column_searchsorted(self, seed, rows, cols, n_bins):
        rng = np.random.default_rng(seed)
        mapper = BinMapper(n_bins=n_bins).fit(self._fit_data(rng, 60, cols))
        X = rng.normal(size=(rows, cols))
        # Plant NaN, +-inf, signed zeros and exact edge values.
        special = rng.random(X.shape) < 0.2
        X[special] = rng.choice(self.SPECIAL, size=int(special.sum()))
        for col in range(cols):
            edges = mapper.edges_[col]
            if len(edges):
                X[rng.integers(0, rows), col] = edges[rng.integers(0, len(edges))]
        np.testing.assert_array_equal(mapper.transform(X), _reference_bins(mapper, X))

    def test_edges_and_infinities_bin_like_searchsorted(self):
        X_fit = np.column_stack([np.arange(20.0), np.full(20, 7.0)])
        mapper = BinMapper(n_bins=8).fit(X_fit)
        edges = mapper.edges_[0]
        probes = np.concatenate([edges, edges - 1e-9, self.SPECIAL, [1e300]])
        X = np.column_stack([probes, probes])
        binned = mapper.transform(X)
        np.testing.assert_array_equal(binned, _reference_bins(mapper, X))
        assert binned[len(edges) * 2, 0] == 0  # NaN
        assert binned[len(edges) * 2 + 1, 0] == len(edges) + 1  # +inf
        assert (binned[~np.isnan(probes), 1] == 1).all()  # empty-edge column

    def test_row_blocks_and_fit_sized_matrices(self, monkeypatch):
        import repro.ml._binning as binning

        rng = np.random.default_rng(3)
        X = self._fit_data(rng, 300, 40)
        mapper = BinMapper(n_bins=64).fit(X)
        whole = mapper.transform(X)
        np.testing.assert_array_equal(whole, _reference_bins(mapper, X))
        monkeypatch.setattr(binning, "_BLOCK_CELLS", 7)  # many small blocks
        np.testing.assert_array_equal(mapper.transform(X), whole)

    def test_pickles_without_the_edge_table(self):
        import pickle

        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 5))
        mapper = BinMapper(n_bins=16).fit(X)
        binned = mapper.transform(X)
        assert "_table" in vars(mapper)
        clone = pickle.loads(pickle.dumps(mapper))
        assert "_table" not in vars(clone)  # rebuilt on first use
        np.testing.assert_array_equal(clone.transform(X), binned)


class TestMetricProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_f1_invariant_under_permutation(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, 30)
        pred = rng.integers(0, 2, 30)
        perm = rng.permutation(30)
        assert f1_score(y, pred) == pytest.approx(f1_score(y[perm], pred[perm]))

    @given(st.integers(0, 10_000), st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_caruana_first_round_picks_best_model(self, seed, n_models):
        """With one round, greedy selection equals argmax single-model F1.

        (The final multi-round blend can legitimately score below a
        single model — greedy-with-replacement only maximizes stepwise —
        so the guaranteed invariant is about round one.)
        """
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, 40)
        if y.sum() in (0, 40):
            y[0] = 1 - y[0]
        matrix = rng.random((40, n_models))
        weights = caruana_selection(matrix, y, n_rounds=1)
        chosen = int(np.argmax(weights))
        best_f1 = max(
            f1_score(y, (matrix[:, m] >= 0.5).astype(int))
            for m in range(n_models)
        )
        chosen_f1 = f1_score(y, (matrix[:, chosen] >= 0.5).astype(int))
        assert chosen_f1 == pytest.approx(best_f1)


class TestWordSampling:
    @given(st.integers(0, 5000), st.integers(1, 10))
    @settings(max_examples=30)
    def test_sample_words_distinct(self, seed, count):
        rng = np.random.default_rng(seed)
        words = sample_words(wordlists.CS_TITLE_WORDS, count, rng)
        assert len(words) == min(count, len(wordlists.CS_TITLE_WORDS))
        assert len(set(words)) == len(words)

    def test_sample_words_zero(self):
        assert sample_words(wordlists.CS_TITLE_WORDS, 0,
                            np.random.default_rng(0)) == []


class TestAdapterDeterminism:
    def test_same_dataset_same_features(self, tiny_sda):
        from repro.adapter import EMAdapter

        a = EMAdapter("attr", "dbert", cache=False).transform(tiny_sda)
        b = EMAdapter("attr", "dbert", cache=False).transform(tiny_sda)
        np.testing.assert_allclose(a, b)

    def test_split_transform_consistent_with_full(self, tiny_sda):
        """Transforming a subset matches the corresponding full-set rows."""
        from repro.adapter import EMAdapter

        adapter = EMAdapter("attr", "dbert", cache=False)
        full = adapter.transform(tiny_sda)
        subset = tiny_sda.subset(list(range(0, 10)))
        part = adapter.transform(subset)
        np.testing.assert_allclose(part, full[:10], atol=2e-5)
