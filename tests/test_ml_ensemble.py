"""Tests for model selection, preprocessing and ensembling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import NotFittedError
from repro.ml import (
    LogisticRegression,
    SimpleImputer,
    StandardScaler,
    StratifiedKFold,
    cross_val_predict_proba,
    f1_score,
    train_test_split,
)
from repro.ml.ensemble import caruana_selection
from repro.ml.preprocessing import Pipeline


class TestSplitting:
    def test_train_test_split_sizes(self, linear_problem):
        X, y, _, _ = linear_problem
        X_tr, X_te, y_tr, y_te = train_test_split(X, y, test_size=0.25)
        assert len(X_te) == pytest.approx(0.25 * len(X), rel=0.05)
        assert len(X_tr) + len(X_te) == len(X)

    def test_stratified_split_balance(self, linear_problem):
        X, y, _, _ = linear_problem
        _X_tr, _X_te, y_tr, y_te = train_test_split(X, y, test_size=0.3)
        assert y_te.mean() == pytest.approx(y.mean(), abs=0.05)

    def test_split_rejects_bad_size(self, linear_problem):
        X, y, _, _ = linear_problem
        with pytest.raises(ValueError):
            train_test_split(X, y, test_size=1.5)

    def test_stratified_kfold_balance(self):
        y = np.array([0] * 80 + [1] * 20)
        for _train, test in StratifiedKFold(n_splits=4).split(y):
            assert y[test].mean() == pytest.approx(0.2, abs=0.07)

    def test_cross_val_predict_covers_all_rows(self, linear_problem):
        X, y, _, _ = linear_problem
        proba = cross_val_predict_proba(LogisticRegression(), X, y, n_splits=3)
        assert proba.shape == (len(y),)
        assert ((proba >= 0) & (proba <= 1)).all()


class TestPreprocessing:
    def test_imputer_mean(self):
        X = np.array([[1.0, np.nan], [3.0, 4.0]])
        out = SimpleImputer("mean").fit_transform(X)
        assert out[0, 1] == 4.0

    def test_imputer_median_and_constant(self):
        X = np.array([[1.0], [np.nan], [9.0], [2.0]])
        assert SimpleImputer("median").fit_transform(X)[1, 0] == 2.0
        assert SimpleImputer("constant", fill_value=-1).fit_transform(X)[1, 0] == -1

    def test_imputer_all_nan_column(self):
        X = np.array([[np.nan], [np.nan]])
        out = SimpleImputer("mean").fit_transform(X)
        assert (out == 0.0).all()

    def test_imputer_unknown_strategy(self):
        with pytest.raises(ValueError):
            SimpleImputer("mode")

    def test_imputer_requires_fit(self):
        with pytest.raises(NotFittedError):
            SimpleImputer().transform(np.zeros((2, 2)))

    def test_standard_scaler(self):
        X = np.array([[1.0], [3.0]])
        out = StandardScaler().fit_transform(X)
        assert out.mean() == pytest.approx(0.0)
        assert out.std() == pytest.approx(1.0)

    def test_standard_scaler_constant_column(self):
        X = np.full((5, 1), 7.0)
        out = StandardScaler().fit_transform(X)
        assert (out == 0.0).all()

    def test_pipeline_end_to_end(self, linear_problem):
        X, y, X_test, y_test = linear_problem
        X_nan = X.copy()
        X_nan[::7, 0] = np.nan
        pipe = Pipeline(
            [
                ("impute", SimpleImputer()),
                ("scale", StandardScaler()),
                ("model", LogisticRegression()),
            ]
        )
        pipe.fit(X_nan, y)
        assert f1_score(y_test, pipe.predict(X_test)) > 0.7

    def test_pipeline_rejects_empty(self):
        with pytest.raises(ValueError):
            Pipeline([])


class TestEnsembles:


    def test_caruana_prefers_better_model(self):
        y = np.array([0, 1] * 50)
        good = y.astype(float) * 0.8 + 0.1
        bad = 0.9 - y.astype(float) * 0.8  # Actively inverted predictor.
        weights = caruana_selection(np.column_stack([bad, good]), y, n_rounds=10)
        assert weights[1] > weights[0]

    def test_caruana_weights_sum_to_one(self):
        y = np.array([0, 1] * 20)
        rng = np.random.default_rng(0)
        matrix = rng.random((40, 4))
        weights = caruana_selection(matrix, y, n_rounds=7)
        assert weights.sum() == pytest.approx(1.0)

    def test_caruana_rejects_1d(self):
        with pytest.raises(ValueError):
            caruana_selection(np.zeros(5), np.zeros(5))
