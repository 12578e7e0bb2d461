"""Ensembling machinery the AutoML systems compose models with.

:func:`caruana_selection` is greedy forward ensemble selection with
replacement (Caruana et al.), the post-hoc ensembling step of
AutoSklearn; the AutoGluon-like system weights its final layer with it
too.
"""

from __future__ import annotations

import numpy as np

from repro.ml.metrics import f1_score, log_loss

__all__ = ["caruana_selection"]


def caruana_selection(
    proba_matrix: np.ndarray,
    y: np.ndarray,
    n_rounds: int = 20,
    metric: str = "f1",
) -> np.ndarray:
    """Greedy forward ensemble selection with replacement.

    ``proba_matrix`` holds one column of validation P(match) per candidate
    model. Returns the selection weights (counts normalized to sum 1).
    Models may be picked repeatedly, which implements the implicit
    weighting of the original algorithm.
    """
    if proba_matrix.ndim != 2:
        raise ValueError("proba_matrix must be (n_samples, n_models)")
    n_models = proba_matrix.shape[1]
    counts = np.zeros(n_models)
    current = np.zeros(len(y))
    size = 0

    def score(p: np.ndarray) -> float:
        if metric == "f1":
            return f1_score(y, (p >= 0.5).astype(np.int64))
        if metric == "logloss":
            return -log_loss(y, p)
        raise ValueError(f"unknown metric {metric!r}")

    for _ in range(n_rounds):
        best_gain = -np.inf
        best_model = -1
        for m in range(n_models):
            candidate = (current * size + proba_matrix[:, m]) / (size + 1)
            s = score(candidate)
            if s > best_gain:
                best_gain = s
                best_model = m
        counts[best_model] += 1
        current = (current * size + proba_matrix[:, best_model]) / (size + 1)
        size += 1
    if counts.sum() == 0:
        counts[:] = 1.0
    return counts / counts.sum()
