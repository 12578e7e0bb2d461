"""Linear classifiers: logistic regression and a linear SVM.

Logistic regression is optimized with scipy's L-BFGS on the regularized
cross-entropy; the linear SVM minimizes squared hinge loss the same way
and calibrates probabilities with Platt scaling on its own decision
values.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Estimator, check_is_fitted, check_Xy

__all__ = ["LogisticRegression", "LinearSVMClassifier"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def _add_bias(X: np.ndarray) -> np.ndarray:
    return np.hstack([X, np.ones((len(X), 1))])


class LogisticRegression(Estimator):
    """L2-regularized binary logistic regression (L-BFGS).

    Parameters
    ----------
    C:
        Inverse regularization strength (sklearn convention).
    max_iter:
        L-BFGS iteration cap.
    class_weight:
        ``None`` or ``"balanced"``; balanced reweights classes inversely
        to their frequency — important for imbalanced EM data.
    """

    def __init__(
        self,
        C: float = 1.0,
        max_iter: int = 200,
        class_weight: str | None = None,
    ) -> None:
        if C <= 0:
            raise ValueError(f"C must be positive, got {C}")
        self.C = C
        self.max_iter = max_iter
        self.class_weight = class_weight

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        X, y = check_Xy(X, y)
        encoded = self._store_classes(y)
        if len(self.classes_) == 1:
            self.coef_ = np.zeros(X.shape[1] + 1)
            return self
        if len(self.classes_) != 2:
            raise ValueError("LogisticRegression supports binary targets only")

        Xb = _add_bias(X)
        weights = self._sample_weights(encoded)
        lam = 1.0 / (self.C * len(X))

        def objective(w: np.ndarray) -> tuple[float, np.ndarray]:
            z = Xb @ w
            p = _sigmoid(z)
            eps = 1e-12
            loss = -np.mean(
                weights
                * (encoded * np.log(p + eps) + (1 - encoded) * np.log(1 - p + eps))
            )
            loss += 0.5 * lam * float(w[:-1] @ w[:-1])
            grad = Xb.T @ (weights * (p - encoded)) / len(X)
            grad[:-1] += lam * w[:-1]
            return loss, grad

        from scipy import optimize  # fitting only: loading a model skips scipy

        w0 = np.zeros(Xb.shape[1])
        result = optimize.minimize(
            objective,
            w0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        self.coef_ = result.x
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        check_is_fitted(self)
        X, _ = check_Xy(X)
        return _add_bias(X) @ self.coef_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        check_is_fitted(self)
        if len(self.classes_) == 1:
            return np.ones((len(X), 1))
        p1 = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p1, p1])

    def _sample_weights(self, encoded: np.ndarray) -> np.ndarray:
        if self.class_weight is None:
            return np.ones(len(encoded))
        if self.class_weight != "balanced":
            raise ValueError(f"unknown class_weight {self.class_weight!r}")
        counts = np.bincount(encoded, minlength=2).astype(np.float64)
        counts[counts == 0] = 1.0
        per_class = len(encoded) / (2.0 * counts)
        return per_class[encoded]


class LinearSVMClassifier(Estimator):
    """Linear SVM with squared hinge loss and Platt-scaled probabilities."""

    def __init__(
        self,
        C: float = 1.0,
        max_iter: int = 200,
        class_weight: str | None = None,
    ) -> None:
        if C <= 0:
            raise ValueError(f"C must be positive, got {C}")
        self.C = C
        self.max_iter = max_iter
        self.class_weight = class_weight

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearSVMClassifier":
        X, y = check_Xy(X, y)
        encoded = self._store_classes(y)
        if len(self.classes_) == 1:
            self.coef_ = np.zeros(X.shape[1] + 1)
            self.platt_ = (1.0, 0.0)
            return self
        if len(self.classes_) != 2:
            raise ValueError("LinearSVMClassifier supports binary targets only")

        signs = 2.0 * encoded - 1.0
        Xb = _add_bias(X)
        weights = self._sample_weights(encoded)
        lam = 1.0 / (self.C * len(X))

        def objective(w: np.ndarray) -> tuple[float, np.ndarray]:
            margins = signs * (Xb @ w)
            slack = np.maximum(0.0, 1.0 - margins)
            loss = float(np.mean(weights * slack**2))
            loss += 0.5 * lam * float(w[:-1] @ w[:-1])
            grad_coeff = -2.0 * weights * slack * signs / len(X)
            grad = Xb.T @ grad_coeff
            grad[:-1] += lam * w[:-1]
            return loss, grad

        from scipy import optimize

        result = optimize.minimize(
            objective,
            np.zeros(Xb.shape[1]),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        self.coef_ = result.x
        self.platt_ = self._fit_platt(Xb @ self.coef_, encoded)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        check_is_fitted(self)
        X, _ = check_Xy(X)
        return _add_bias(X) @ self.coef_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        check_is_fitted(self)
        if len(self.classes_) == 1:
            return np.ones((len(X), 1))
        a, b = self.platt_
        p1 = _sigmoid(a * self.decision_function(X) + b)
        return np.column_stack([1.0 - p1, p1])

    @staticmethod
    def _fit_platt(scores: np.ndarray, encoded: np.ndarray) -> tuple[float, float]:
        """Fit sigmoid calibration parameters on the training scores."""

        def objective(params: np.ndarray) -> float:
            a, b = params
            p = _sigmoid(a * scores + b)
            eps = 1e-12
            return -float(
                np.mean(
                    encoded * np.log(p + eps) + (1 - encoded) * np.log(1 - p + eps)
                )
            )

        from scipy import optimize

        result = optimize.minimize(
            objective, np.array([1.0, 0.0]), method="Nelder-Mead"
        )
        return float(result.x[0]), float(result.x[1])

    def _sample_weights(self, encoded: np.ndarray) -> np.ndarray:
        if self.class_weight is None:
            return np.ones(len(encoded))
        if self.class_weight != "balanced":
            raise ValueError(f"unknown class_weight {self.class_weight!r}")
        counts = np.bincount(encoded, minlength=2).astype(np.float64)
        counts[counts == 0] = 1.0
        per_class = len(encoded) / (2.0 * counts)
        return per_class[encoded]
