"""Stateless neural ops shared by the forward-only and trainable networks."""

from __future__ import annotations

import numpy as np

__all__ = ["softmax", "gelu", "layer_norm"]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian Error Linear Unit (tanh approximation, as in BERT)."""
    return 0.5 * x * (1.0 + np.tanh(0.7978845608 * (x + 0.044715 * x**3)))


def hard_gelu(x: np.ndarray) -> np.ndarray:
    """Piecewise-linear GELU approximation: ``x * clip(0.25x + 0.5, 0, 1)``.

    Transcendental-free, so it is ~10x cheaper on large arrays; the frozen
    random-feature encoders use it because only the qualitative shape of
    the nonlinearity matters there, not its exact curvature.
    """
    return x * np.clip(0.25 * x + 0.5, 0.0, 1.0)


def layer_norm(x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Zero-mean unit-variance normalization over the last axis."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps)
