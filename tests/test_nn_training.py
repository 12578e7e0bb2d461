"""Tests for the trainable neural substrate: the Adam optimizer and the MLP."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import NotFittedError
from repro.nn.autograd import MLPClassifier
from repro.nn.optim import Adam


class TestOptimizers:


    def test_adam_descends(self):
        w = np.array([3.0])
        optimizer = Adam(lr=0.1)
        for _ in range(200):
            optimizer.step([w], [2.0 * w])
        assert abs(w[0]) < 1e-2

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            Adam(lr=0.0)

    def test_adam_updates_multiple_params(self):
        a = np.ones((2, 2))
        b = np.ones(2)
        Adam(lr=0.1).step([a, b], [np.ones((2, 2)), np.ones(2)])
        assert (a < 1).all() and (b < 1).all()


class TestMLPClassifier:
    def test_learns_xor(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(600, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(np.float64)
        mlp = MLPClassifier(hidden=32, epochs=80, lr=5e-3, dropout=0.0, seed=1)
        mlp.fit(X, y)
        accuracy = (mlp.predict(X) == y).mean()
        assert accuracy > 0.9

    def test_predict_proba_shape(self):
        X = np.random.default_rng(0).normal(size=(50, 4))
        y = (X[:, 0] > 0).astype(np.float64)
        mlp = MLPClassifier(hidden=8, epochs=5).fit(X, y)
        proba = mlp.predict_proba(X)
        assert proba.shape == (50, 2)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            MLPClassifier().predict_proba(np.zeros((2, 2)))

    def test_early_stopping_restores_best(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        y = (X[:, 0] > 0).astype(np.float64)
        Xv = rng.normal(size=(50, 3))
        yv = (Xv[:, 0] > 0).astype(np.float64)
        mlp = MLPClassifier(hidden=16, epochs=40, patience=3, seed=0)
        mlp.fit(X, y, Xv, yv)
        assert (mlp.predict(Xv) == yv).mean() > 0.8

    def test_class_weighting_raises_minority_recall(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(500, 4))
        y = (X[:, 0] + 0.8 * rng.normal(size=500) > 1.4).astype(np.float64)
        weighted = MLPClassifier(
            hidden=16, epochs=30, class_weighted=True, dropout=0.0, seed=0
        ).fit(X, y)
        plain = MLPClassifier(
            hidden=16, epochs=30, class_weighted=False, dropout=0.0, seed=0
        ).fit(X, y)
        recall_w = ((weighted.predict(X) == 1) & (y == 1)).sum() / max(1, y.sum())
        recall_p = ((plain.predict(X) == 1) & (y == 1)).sum() / max(1, y.sum())
        assert recall_w >= recall_p

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 3))
        y = (X[:, 0] > 0).astype(np.float64)
        a = MLPClassifier(hidden=8, epochs=10, seed=5).fit(X, y)
        b = MLPClassifier(hidden=8, epochs=10, seed=5).fit(X, y)
        np.testing.assert_allclose(
            a.predict_proba(X), b.predict_proba(X)
        )

    def test_gradient_check(self):
        """Finite-difference check of the manual backward pass."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(8, 3))
        y = rng.integers(0, 2, size=8).astype(np.float64)
        mlp = MLPClassifier(hidden=4, epochs=1, dropout=0.0,
                            weight_decay=0.0, seed=0)
        mlp.fit(X[:2], y[:2])  # Initialize parameters.

        def loss():
            proba = mlp._forward(X)
            eps = 1e-12
            return -np.mean(
                y * np.log(proba + eps) + (1 - y) * np.log(1 - proba + eps)
            )

        grads = mlp._backward(X, y, 1.0, 1.0, rng)
        for p_idx in (0, 2, 4):  # Weight matrices W1, W2, w3.
            param = mlp._params[p_idx]
            flat_index = 0
            it = np.nditer(param, flags=["multi_index"])
            checked = 0
            while not it.finished and checked < 3:
                idx = it.multi_index
                old = param[idx]
                h = 1e-6
                param[idx] = old + h
                up = loss()
                param[idx] = old - h
                down = loss()
                param[idx] = old
                numeric = (up - down) / (2 * h)
                analytic = np.asarray(grads[p_idx])[idx]
                assert numeric == pytest.approx(analytic, abs=1e-4)
                checked += 1
                flat_index += 1
                it.iternext()
