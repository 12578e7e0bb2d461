"""Common interface and machinery of the three AutoML systems.

An :class:`AutoMLSystem` searches model configurations under a simulated
time budget, maintains a leaderboard of evaluated candidates (scored on
the validation split by F1, the paper's metric), builds a final ensemble,
and tunes the decision threshold on validation data — the standard recipe
all three subject systems share; they differ in *how* candidates are
proposed and *how* the ensemble is built.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro import faults, telemetry
from repro.automl.resources import SimulatedClock, TimeBudget, model_cost_hours
from repro.automl.search_space import Configuration
from repro.exceptions import (
    BudgetExhaustedError,
    ConfigurationError,
    NotFittedError,
)
from repro.ml.metrics import best_f1_threshold, f1_score

__all__ = [
    "ESTIMATOR_FAILURES",
    "LeaderboardEntry",
    "FitReport",
    "AutoMLSystem",
]

#: The exception types a *single candidate* may legitimately die of —
#: bad hyper-parameter combinations (:class:`ConfigurationError` covers
#: :class:`~repro.exceptions.SearchSpaceError` and
#: :class:`~repro.exceptions.UnknownModelError`), numerically singular
#: fits, and estimators queried before convergence. The trial loop
#: records these as rejected trials and moves on; anything outside this
#: tuple is a bug and propagates.
ESTIMATOR_FAILURES = (
    ConfigurationError,
    NotFittedError,
    FloatingPointError,
    ZeroDivisionError,
    np.linalg.LinAlgError,
)


@dataclass
class LeaderboardEntry:
    """One evaluated candidate configuration."""

    config: Configuration
    model: object  # Fitted pipeline.
    valid_f1: float
    valid_proba: np.ndarray
    train_hours: float

    def __repr__(self) -> str:
        return (
            f"LeaderboardEntry({self.config}, f1={self.valid_f1:.4f}, "
            f"hours={self.train_hours:.3f})"
        )


@dataclass
class FitReport:
    """Summary of one AutoML fit, reported by the experiment tables."""

    system: str
    n_evaluated: int
    simulated_hours: float
    wall_seconds: float
    best_valid_f1: float
    threshold: float
    leaderboard: list[LeaderboardEntry] = field(default_factory=list)


class AutoMLSystem(abc.ABC):
    """Budgeted search over the model zoo with ensembling and thresholding.

    Parameters
    ----------
    budget_hours:
        Simulated training budget (the paper uses 1h and 6h); ``None``
        means unbounded, which is AutoGluon's default configuration.
    seed:
        Seeds candidate sampling and model training.
    max_models:
        Hard cap on evaluated candidates, independent of budget (keeps
        real wall-clock bounded at tiny simulated costs).
    """

    name = "automl"

    def __init__(
        self,
        budget_hours: float | None = 1.0,
        seed: int = 0,
        max_models: int = 40,
    ) -> None:
        self.budget_hours = budget_hours
        self.seed = seed
        self.max_models = max_models

    @property
    def _budget_value(self) -> float:
        import math

        return math.inf if self.budget_hours is None else self.budget_hours

    # ------------------------------------------------------------- public

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        X_valid: np.ndarray | None = None,
        y_valid: np.ndarray | None = None,
    ) -> "AutoMLSystem":
        """Search, ensemble, and calibrate the decision threshold.

        Without an explicit validation split, 25% of the training rows are
        held out internally (stratified).
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X_valid is None or y_valid is None:
            from repro.ml.model_selection import train_test_split

            rng = np.random.default_rng(self.seed)
            X, X_valid, y, y_valid = train_test_split(
                X, y, test_size=0.25, rng=rng
            )
        else:
            X_valid = np.asarray(X_valid, dtype=np.float64)
            y_valid = np.asarray(y_valid)

        start = telemetry.wallclock()
        clock = SimulatedClock(TimeBudget(self._budget_value))
        self._leaderboard: list[LeaderboardEntry] = []
        self._rng = np.random.default_rng(self.seed)

        with telemetry.span(
            "automl.fit",
            system=self.name,
            budget_hours=self.budget_hours,
            rows=len(X),
            features=int(X.shape[1]),
        ) as fit_span:
            with telemetry.span("automl.search", system=self.name):
                try:
                    self._search(X, y, X_valid, y_valid, clock)
                except BudgetExhaustedError as exc:
                    # The expected stop signal — but leave a trace
                    # instead of swallowing it silently, and settle any
                    # injected budget fault as gracefully absorbed.
                    telemetry.event(
                        "automl.search.stopped",
                        system=self.name,
                        reason=str(exc),
                    )
                    faults.mark_recovered("automl.budget")
            if not self._leaderboard:
                raise BudgetExhaustedError(
                    f"{self.name}: budget too small to evaluate any "
                    "configuration"
                )

            with telemetry.span("automl.ensemble", system=self.name):
                self._build_final(X, y, X_valid, y_valid, clock)
                proba = self._proba(X_valid)
                self._threshold, best_f1 = best_f1_threshold(y_valid, proba)
            fit_span.set(
                n_evaluated=len(self._leaderboard),
                simulated_hours=clock.elapsed_hours,
                best_valid_f1=best_f1,
            )
        self.report_ = FitReport(
            system=self.name,
            n_evaluated=len(self._leaderboard),
            simulated_hours=clock.elapsed_hours,
            wall_seconds=telemetry.wallclock() - start,
            best_valid_f1=best_f1,
            threshold=self._threshold,
            leaderboard=sorted(
                self._leaderboard, key=lambda e: -e.valid_f1
            ),
        )
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """P(non-match), P(match) columns for every row."""
        self._check_fitted()
        p1 = self._proba(X)
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Match predictions at the validation-tuned threshold.

        Equal, bit for bit, to ``predict_proba(X)[:, 1] >= threshold_``:
        a caller that needs both thresholds the probabilities it holds
        instead of paying a second ensemble pass.
        """
        self._check_fitted()
        return (self._proba(X) >= self._threshold).astype(np.int64)

    @property
    def threshold_(self) -> float:
        """The validation-tuned decision threshold on P(match)."""
        self._check_fitted()
        return self._threshold

    @property
    def leaderboard(self) -> list[LeaderboardEntry]:
        """Evaluated candidates, best validation F1 first."""
        self._check_fitted()
        return self.report_.leaderboard

    # ----------------------------------------------------------- plumbing

    def _check_fitted(self) -> None:
        if not hasattr(self, "report_"):
            raise NotFittedError(f"{type(self).__name__} must be fitted first")

    def _proba(self, X: np.ndarray) -> np.ndarray:
        """One counted pass of the final ensemble (``automl.ensemble.passes``)."""
        telemetry.counter("automl.ensemble.passes").inc()
        return self._ensemble_proba(np.asarray(X, dtype=np.float64))

    def _evaluate(
        self,
        config: Configuration,
        X: np.ndarray,
        y: np.ndarray,
        X_valid: np.ndarray,
        y_valid: np.ndarray,
        clock: SimulatedClock,
    ) -> LeaderboardEntry | None:
        """Train one candidate, charge the clock, record on leaderboard.

        Every candidate the search proposes — trained, turned away, or
        failed — lands in the telemetry trial ledger, so an exported
        trace accounts for the entire budget spend of a fit. A candidate
        that dies of one of :data:`ESTIMATOR_FAILURES` is recorded as a
        rejected trial and skipped (``None`` is returned); any other
        exception is a bug in the search itself and propagates.
        """
        if len(self._leaderboard) >= self.max_models:
            telemetry.trial(
                system=self.name,
                family=config.family,
                config=str(config),
                hours=0.0,
                valid_f1=None,
                accepted=False,
                reason="max-models",
            )
            raise BudgetExhaustedError(f"{self.name}: max_models reached")
        try:
            hours = clock.charge_model(
                config.family,
                len(X),
                X.shape[1],
                complexity=config.complexity(),
                label=str(config),
                # The first model always trains, even past the budget — no
                # real AutoML system returns nothing.
                force=not self._leaderboard,
            )
        except BudgetExhaustedError:
            telemetry.trial(
                system=self.name,
                family=config.family,
                config=str(config),
                hours=model_cost_hours(
                    config.family,
                    len(X),
                    X.shape[1],
                    complexity=config.complexity(),
                ),
                valid_f1=None,
                accepted=False,
                reason="budget-exhausted",
            )
            raise
        try:
            model = config.build(seed=int(self._rng.integers(0, 2**31 - 1)))
            model.fit(X, y)
            proba = model.predict_proba(X_valid)[:, 1]
        except ESTIMATOR_FAILURES as exc:
            # One bad candidate must not abort the whole search (the
            # budget it charged stays spent, as in any real system).
            telemetry.counter("automl.trials.failed").inc()
            telemetry.trial(
                system=self.name,
                family=config.family,
                config=str(config),
                hours=hours,
                valid_f1=None,
                accepted=False,
                reason=f"estimator-failure:{type(exc).__name__}",
            )
            return None
        score = f1_score(y_valid, (proba >= 0.5).astype(np.int64))
        entry = LeaderboardEntry(config, model, score, proba, hours)
        self._leaderboard.append(entry)
        telemetry.counter("automl.candidates").inc()
        telemetry.trial(
            system=self.name,
            family=config.family,
            config=str(config),
            hours=hours,
            valid_f1=score,
            accepted=True,
        )
        return entry

    # ----------------------------------------------------- to be provided

    @abc.abstractmethod
    def _search(
        self,
        X: np.ndarray,
        y: np.ndarray,
        X_valid: np.ndarray,
        y_valid: np.ndarray,
        clock: SimulatedClock,
    ) -> None:
        """Propose and evaluate candidates until the budget runs out."""

    @abc.abstractmethod
    def _build_final(
        self,
        X: np.ndarray,
        y: np.ndarray,
        X_valid: np.ndarray,
        y_valid: np.ndarray,
        clock: SimulatedClock,
    ) -> None:
        """Assemble the final predictor from the leaderboard."""

    @abc.abstractmethod
    def _ensemble_proba(self, X: np.ndarray) -> np.ndarray:
        """P(match) of the final predictor."""
