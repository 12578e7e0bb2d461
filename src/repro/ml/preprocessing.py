"""Feature preprocessing: imputation and scaling.

The AutoML pipelines compose one imputer and optionally one scaler in
front of each model, mirroring AutoSklearn's fixed data-preprocessing
stage.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import NotFittedError

__all__ = ["SimpleImputer", "StandardScaler", "Pipeline"]


class SimpleImputer:
    """Replace NaNs column-wise with the mean, median, or a constant."""

    def __init__(self, strategy: str = "mean", fill_value: float = 0.0) -> None:
        if strategy not in ("mean", "median", "constant"):
            raise ValueError(f"unknown imputation strategy {strategy!r}")
        self.strategy = strategy
        self.fill_value = fill_value

    def fit(self, X: np.ndarray) -> "SimpleImputer":
        X = np.asarray(X, dtype=np.float64)
        import warnings

        if self.strategy == "constant":
            self.statistics_ = np.full(X.shape[1], self.fill_value)
        elif self.strategy == "mean":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                self.statistics_ = np.nanmean(X, axis=0)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                self.statistics_ = np.nanmedian(X, axis=0)
        # Columns that are entirely NaN fall back to the constant.
        self.statistics_ = np.where(
            np.isnan(self.statistics_), self.fill_value, self.statistics_
        )
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if not hasattr(self, "statistics_"):
            raise NotFittedError("SimpleImputer must be fitted before transform")
        X = np.array(X, dtype=np.float64, copy=True)
        mask = np.isnan(X)
        if mask.any():
            X[mask] = np.broadcast_to(self.statistics_, X.shape)[mask]
        return X

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


class StandardScaler:
    """Zero-mean unit-variance scaling (constant columns left at zero)."""

    def fit(self, X: np.ndarray) -> "StandardScaler":
        X = np.asarray(X, dtype=np.float64)
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        self.scale_ = np.where(std > 0, std, 1.0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if not hasattr(self, "mean_"):
            raise NotFittedError("StandardScaler must be fitted before transform")
        return (np.asarray(X, dtype=np.float64) - self.mean_) / self.scale_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


class Pipeline:
    """Sequential transformers ending in a classifier.

    A deliberately small subset of the scikit-learn pipeline: every step
    but the last must expose ``fit_transform`` / ``transform``; the last
    must be an estimator with ``fit`` / ``predict_proba``.
    """

    def __init__(self, steps: list[tuple[str, object]]) -> None:
        if not steps:
            raise ValueError("Pipeline needs at least one step")
        self.steps = steps

    @property
    def final_estimator(self):
        return self.steps[-1][1]

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Pipeline":
        for _name, transformer in self.steps[:-1]:
            X = transformer.fit_transform(X)
        self.final_estimator.fit(X, y)
        return self

    def _transform(self, X: np.ndarray) -> np.ndarray:
        for _name, transformer in self.steps[:-1]:
            X = transformer.transform(X)
        return X

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.final_estimator.predict_proba(self._transform(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.final_estimator.predict(self._transform(X))

    @property
    def classes_(self) -> np.ndarray:
        return self.final_estimator.classes_
