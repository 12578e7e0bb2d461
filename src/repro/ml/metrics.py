"""Classification metrics.

F1 is the paper's headline metric (always reported in percent there; these
functions return fractions in [0, 1] and the experiment tables multiply by
100). All binary metrics treat label ``1`` as the positive (match) class,
matching EM convention.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "precision_score",
    "recall_score",
    "f1_score",
    "confusion_matrix",
    "log_loss",
    "precision_recall_curve",
    "best_f1_threshold",
]


def _as_binary(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y)
    unexpected = set(np.unique(y)) - {0, 1}
    if unexpected:
        raise ValueError(f"binary metrics expect labels {{0,1}}, got {unexpected}")
    return y.astype(np.int64)


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
    """2x2 confusion matrix ``[[tn, fp], [fn, tp]]``."""
    y_true = _as_binary(y_true)
    y_pred = _as_binary(y_pred)
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    return np.array([[tn, fp], [fn, tp]])


def precision_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """tp / (tp + fp); 0.0 when nothing was predicted positive."""
    matrix = confusion_matrix(y_true, y_pred)
    tp, fp = matrix[1, 1], matrix[0, 1]
    if tp + fp == 0:
        return 0.0
    return tp / (tp + fp)


def recall_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """tp / (tp + fn); 0.0 when there are no positives."""
    matrix = confusion_matrix(y_true, y_pred)
    tp, fn = matrix[1, 1], matrix[1, 0]
    if tp + fn == 0:
        return 0.0
    return tp / (tp + fn)


def f1_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Harmonic mean of precision and recall (the paper's metric)."""
    p = precision_score(y_true, y_pred)
    r = recall_score(y_true, y_pred)
    if p + r == 0:
        return 0.0
    return 2 * p * r / (p + r)


def log_loss(y_true: np.ndarray, proba: np.ndarray, eps: float = 1e-12) -> float:
    """Binary cross-entropy; ``proba`` is P(class 1), shape (n,) or (n, 2)."""
    y_true = _as_binary(y_true)
    proba = np.asarray(proba, dtype=np.float64)
    if proba.ndim == 2:
        proba = proba[:, 1]
    proba = np.clip(proba, eps, 1.0 - eps)
    return float(
        -np.mean(y_true * np.log(proba) + (1 - y_true) * np.log(1 - proba))
    )


def precision_recall_curve(
    y_true: np.ndarray, proba: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precision and recall at every distinct score threshold.

    Returns ``(precision, recall, thresholds)`` with entries ordered by
    decreasing threshold.
    """
    y_true = _as_binary(y_true)
    proba = np.asarray(proba, dtype=np.float64)
    if proba.ndim == 2:
        proba = proba[:, 1]
    order = np.argsort(-proba, kind="mergesort")
    sorted_true = y_true[order]
    sorted_scores = proba[order]
    distinct = np.append(np.flatnonzero(np.diff(sorted_scores)), len(proba) - 1)
    tp_cum = np.cumsum(sorted_true)
    tp = tp_cum[distinct].astype(np.float64)
    n_pos = max(1, int(y_true.sum()))
    precisions = tp / (distinct + 1)
    recalls = tp / n_pos
    thresholds = sorted_scores[distinct]
    return precisions, recalls, thresholds


def best_f1_threshold(y_true: np.ndarray, proba: np.ndarray) -> tuple[float, float]:
    """Threshold on P(match) maximizing F1, and that F1.

    EM predictions are heavily imbalanced, so the 0.5 default is rarely
    optimal; the AutoML systems tune this on the validation split exactly
    as the paper's systems tune their decision threshold.
    """
    precisions, recalls, thresholds = precision_recall_curve(y_true, proba)
    denom = precisions + recalls
    f1s = np.where(denom > 0, 2 * precisions * recalls / np.maximum(denom, 1e-12), 0.0)
    best = int(np.argmax(f1s))
    return float(thresholds[best]), float(f1s[best])
