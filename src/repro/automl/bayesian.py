"""Sequential model-based optimization (the AutoSklearn search engine).

A small but real SMBO loop: per model family, a Gaussian-process surrogate
with an RBF kernel over unit-cube-encoded hyper-parameters, expected
improvement as the acquisition function, and an epsilon-greedy family
selector driven by the best score observed per family.
"""

from __future__ import annotations

import numpy as np

from repro.automl.search_space import FAMILY_SPACES, Configuration
from repro.exceptions import NotFittedError

__all__ = ["SMBOProposer"]


class GaussianProcessSurrogate:
    """Exact GP regression with an RBF kernel on [0, 1]^d points."""

    def __init__(self, length_scale: float = 0.35, noise: float = 1e-3) -> None:
        self.length_scale = length_scale
        self.noise = noise
        self._X: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._chol: np.ndarray | None = None
        self._y_mean = 0.0

    def _kernel(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        d2 = (
            np.sum(A**2, axis=1)[:, None]
            - 2.0 * A @ B.T
            + np.sum(B**2, axis=1)[None, :]
        )
        return np.exp(-0.5 * np.maximum(d2, 0.0) / self.length_scale**2)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcessSurrogate":
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        from scipy import linalg  # search only: loading a model skips scipy

        self._y_mean = float(y.mean())
        K = self._kernel(X, X) + self.noise * np.eye(len(X))
        self._chol = linalg.cholesky(K, lower=True)
        self._alpha = linalg.cho_solve((self._chol, True), y - self._y_mean)
        self._X = X
        return self

    def predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at query points."""
        if self._X is None or self._alpha is None or self._chol is None:
            raise NotFittedError("surrogate must be fitted first")
        from scipy import linalg

        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        K_star = self._kernel(X, self._X)
        mean = self._y_mean + K_star @ self._alpha
        v = linalg.solve_triangular(self._chol, K_star.T, lower=True)
        var = np.maximum(1.0 - np.sum(v**2, axis=0), 1e-12)
        return mean, np.sqrt(var)


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.005
) -> np.ndarray:
    """EI of maximizing beyond ``best`` (with exploration margin ``xi``)."""
    from scipy.stats import norm as normal_dist

    improvement = mean - best - xi
    z = improvement / np.maximum(std, 1e-12)
    return improvement * normal_dist.cdf(z) + std * normal_dist.pdf(z)


class SMBOProposer:
    """Proposes the next configuration to evaluate.

    Keeps per-family observation history; each proposal first picks a
    family (epsilon-greedy on the family's best observed score), then
    maximizes EI over a random candidate pool under that family's GP.
    Families with fewer than three observations fall back to random
    sampling — the standard SMBO bootstrap.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        families: tuple[str, ...] | None = None,
        epsilon: float = 0.25,
        pool_size: int = 64,
    ) -> None:
        self.rng = rng
        self.families = families if families is not None else tuple(FAMILY_SPACES)
        self.epsilon = epsilon
        self.pool_size = pool_size
        self._observations: dict[str, list[tuple[np.ndarray, float]]] = {
            f: [] for f in self.families
        }

    def observe(self, config: Configuration, score: float) -> None:
        """Record the outcome of one evaluation."""
        if config.family not in self._observations:
            self._observations[config.family] = []
        space = FAMILY_SPACES[config.family]
        self._observations[config.family].append(
            (space.to_unit_vector(config), score)
        )

    def _pick_family(self) -> str:
        if self.rng.random() < self.epsilon:
            return self.families[int(self.rng.integers(0, len(self.families)))]
        best_scores = {}
        for family in self.families:
            obs = self._observations.get(family, [])
            best_scores[family] = max((s for _v, s in obs), default=-np.inf)
        if all(np.isinf(-s) for s in best_scores.values()):
            return self.families[int(self.rng.integers(0, len(self.families)))]
        return max(best_scores, key=lambda f: best_scores[f])

    def propose(self) -> Configuration:
        """The next configuration to try."""
        family = self._pick_family()
        space = FAMILY_SPACES[family]
        observations = self._observations.get(family, [])
        if len(observations) < 3:
            return space.sample(self.rng)

        X = np.vstack([v for v, _s in observations])
        y = np.array([s for _v, s in observations])
        surrogate = GaussianProcessSurrogate().fit(X, y)

        candidates = [space.sample(self.rng) for _ in range(self.pool_size)]
        encoded = np.vstack([space.to_unit_vector(c) for c in candidates])
        mean, std = surrogate.predict(encoded)
        ei = expected_improvement(mean, std, best=float(y.max()))
        return candidates[int(np.argmax(ei))]
