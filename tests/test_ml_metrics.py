"""Tests for classification metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.metrics import (
    best_f1_threshold,
    confusion_matrix,
    f1_score,
    log_loss,
    precision_recall_curve,
    precision_score,
    recall_score,
)


class TestBasicMetrics:
    def test_perfect_predictions(self):
        y = np.array([0, 1, 1, 0])
        assert f1_score(y, y) == 1.0
        assert precision_score(y, y) == 1.0
        assert recall_score(y, y) == 1.0

    def test_all_wrong(self):
        y = np.array([0, 1])
        pred = np.array([1, 0])
        assert f1_score(y, pred) == 0.0

    def test_confusion_layout(self):
        y = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 0, 1])
        matrix = confusion_matrix(y, pred)
        np.testing.assert_array_equal(matrix, [[1, 1], [1, 1]])

    def test_precision_zero_when_no_positives_predicted(self):
        assert precision_score([1, 1], [0, 0]) == 0.0

    def test_recall_zero_when_no_positives_exist(self):
        assert recall_score([0, 0], [1, 1]) == 0.0

    def test_known_f1(self):
        y = np.array([1, 1, 1, 0, 0])
        pred = np.array([1, 1, 0, 1, 0])
        # precision 2/3, recall 2/3 -> f1 2/3.
        assert f1_score(y, pred) == pytest.approx(2 / 3)

    def test_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            f1_score([0, 2], [0, 1])

    @given(
        st.lists(st.integers(0, 1), min_size=2, max_size=30),
        st.lists(st.integers(0, 1), min_size=2, max_size=30),
    )
    @settings(max_examples=50)
    def test_f1_harmonic_mean_identity(self, y, pred):
        n = min(len(y), len(pred))
        y_arr = np.array(y[:n])
        p_arr = np.array(pred[:n])
        p = precision_score(y_arr, p_arr)
        r = recall_score(y_arr, p_arr)
        expected = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        assert f1_score(y_arr, p_arr) == pytest.approx(expected)


class TestProbabilisticMetrics:
    def test_log_loss_perfect(self):
        y = np.array([0, 1])
        assert log_loss(y, np.array([0.0, 1.0])) < 1e-9

    def test_log_loss_accepts_two_columns(self):
        y = np.array([0, 1])
        proba = np.array([[0.9, 0.1], [0.2, 0.8]])
        single = log_loss(y, proba[:, 1])
        assert log_loss(y, proba) == pytest.approx(single)


class TestThresholding:
    def test_curve_monotone_recall(self):
        y = np.array([0, 1, 0, 1, 1])
        proba = np.array([0.1, 0.9, 0.4, 0.6, 0.3])
        _p, recalls, _t = precision_recall_curve(y, proba)
        assert (np.diff(recalls) >= -1e-12).all()

    def test_curve_matches_per_threshold_loop(self):
        """The fancy-indexed curve must stay bit-identical to walking
        the distinct thresholds one by one (the pre-vectorization
        reference), ties included."""
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, size=60)
        proba = np.round(rng.random(60), 1)  # coarse grid forces ties
        precisions, recalls, thresholds = precision_recall_curve(y, proba)

        order = np.argsort(-proba, kind="mergesort")
        sorted_true = np.asarray(y)[order]
        sorted_scores = np.asarray(proba, dtype=np.float64)[order]
        distinct = np.flatnonzero(np.diff(sorted_scores)).tolist() + [59]
        tp_cum = np.cumsum(sorted_true)
        n_pos = max(1, int(y.sum()))
        ref_p, ref_r, ref_t = [], [], []
        for idx in distinct:
            tp = float(tp_cum[idx])
            ref_p.append(tp / (idx + 1))
            ref_r.append(tp / n_pos)
            ref_t.append(float(sorted_scores[idx]))
        assert np.array_equal(precisions, np.array(ref_p))
        assert np.array_equal(recalls, np.array(ref_r))
        assert np.array_equal(thresholds, np.array(ref_t))

    def test_best_threshold_beats_default(self):
        # Heavily imbalanced scores where 0.5 is a bad cut.
        y = np.array([0] * 90 + [1] * 10)
        proba = np.concatenate([np.linspace(0, 0.30, 90),
                                np.linspace(0.31, 0.45, 10)])
        threshold, best = best_f1_threshold(y, proba)
        default = f1_score(y, (proba >= 0.5).astype(int))
        assert best > default
        realized = f1_score(y, (proba >= threshold).astype(int))
        assert realized == pytest.approx(best)

    @given(st.integers(1, 500))
    @settings(max_examples=25)
    def test_best_threshold_realizable(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=40)
        if y.sum() == 0 or y.sum() == 40:
            y[0] = 1 - y[0]
        proba = rng.random(40)
        threshold, best = best_f1_threshold(y, proba)
        assert f1_score(y, (proba >= threshold).astype(int)) == pytest.approx(
            best
        )
