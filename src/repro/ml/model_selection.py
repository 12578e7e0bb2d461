"""Cross-validation and splitting utilities."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.config import rng_for
from repro.ml.base import Estimator, clone

__all__ = [
    "train_test_split",
    "StratifiedKFold",
    "cross_val_predict_proba",
]


def train_test_split(
    X: np.ndarray,
    y: np.ndarray,
    test_size: float = 0.2,
    stratify: bool = True,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split (X, y) into train and test partitions.

    Returns ``(X_train, X_test, y_train, y_test)``. With ``stratify`` the
    class balance of each partition matches the input.
    """
    if not 0.0 < test_size < 1.0:
        raise ValueError(f"test_size must be in (0, 1), got {test_size}")
    if rng is None:
        rng = rng_for("model-selection", "train-test-split", test_size)
    y = np.asarray(y)
    n = len(y)
    test_mask = np.zeros(n, dtype=bool)
    if stratify:
        for label in np.unique(y):
            idx = np.flatnonzero(y == label)
            rng.shuffle(idx)
            n_test = max(1, int(round(test_size * len(idx))))
            test_mask[idx[:n_test]] = True
    else:
        idx = rng.permutation(n)
        test_mask[idx[: max(1, int(round(test_size * n)))]] = True
    return X[~test_mask], X[test_mask], y[~test_mask], y[test_mask]


class StratifiedKFold:
    """K-fold preserving class proportions in every fold."""

    def __init__(self, n_splits: int = 5, shuffle: bool = True, seed: int = 0):
        if n_splits < 2:
            raise ValueError(f"n_splits must be >= 2, got {n_splits}")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.seed = seed

    def split(self, y: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        y = np.asarray(y)
        rng = np.random.default_rng(self.seed)
        fold_of = np.empty(len(y), dtype=np.int64)
        for label in np.unique(y):
            idx = np.flatnonzero(y == label)
            if self.shuffle:
                rng.shuffle(idx)
            for fold, chunk in enumerate(np.array_split(idx, self.n_splits)):
                fold_of[chunk] = fold
        for i in range(self.n_splits):
            test_idx = np.flatnonzero(fold_of == i)
            train_idx = np.flatnonzero(fold_of != i)
            yield train_idx, test_idx


def cross_val_predict_proba(
    estimator: Estimator,
    X: np.ndarray,
    y: np.ndarray,
    n_splits: int = 5,
    seed: int = 0,
) -> np.ndarray:
    """Out-of-fold P(class 1) for every row, via stratified k-fold.

    Every prediction comes from a model that never saw that row.
    """
    X = np.asarray(X)
    y = np.asarray(y)
    proba = np.zeros(len(y), dtype=np.float64)
    splitter = StratifiedKFold(n_splits=n_splits, seed=seed)
    for train_idx, test_idx in splitter.split(y):
        model = clone(estimator)
        model.fit(X[train_idx], y[train_idx])
        fold_proba = model.predict_proba(X[test_idx])
        proba[test_idx] = fold_proba[:, 1]
    return proba
