"""From-scratch AutoML systems in the style of the paper's three subjects.

* :class:`AutoSklearnLike` — meta-learning warm start + Bayesian
  optimization (random-forest surrogate, expected improvement) + greedy
  ensemble selection.
* :class:`AutoGluonLike` — k-fold bagging of a fixed model portfolio,
  multi-layer stacking, weighted ensemble on top.
* :class:`H2OAutoMLLike` — random search over the zoo + super-learner
  stacking.

All three share the :class:`AutoMLSystem` interface: ``fit(X, y,
X_valid, y_valid)`` under a (simulated) time budget, then ``predict`` /
``predict_proba``. The simulated clock (:mod:`repro.automl.resources`)
replaces wall-clock training hours with a deterministic cost model so the
paper's 1h/6h budget experiments reproduce in seconds (DESIGN.md §2).
"""

from repro.automl.autogluon_like import AutoGluonLike
from repro.automl.autosklearn_like import AutoSklearnLike
from repro.automl.base import (
    ESTIMATOR_FAILURES,
    AutoMLSystem,
    FitReport,
    LeaderboardEntry,
)
from repro.automl.h2o_like import H2OAutoMLLike
from repro.automl.resources import SimulatedClock, TimeBudget, model_cost_hours
from repro.automl.search_space import (
    CategoricalDim,
    ConfigSpace,
    Dimension,
    FloatDim,
    IntDim,
)

__all__ = [
    "AutoGluonLike",
    "AutoMLSystem",
    "AutoSklearnLike",
    "CategoricalDim",
    "ConfigSpace",
    "Dimension",
    "ESTIMATOR_FAILURES",
    "FitReport",
    "FloatDim",
    "H2OAutoMLLike",
    "IntDim",
    "LeaderboardEntry",
    "SimulatedClock",
    "TimeBudget",
    "make_automl",
    "model_cost_hours",
    "AUTOML_NAMES",
]

_REGISTRY: dict[str, type[AutoMLSystem]] = {
    cls.name: cls for cls in (AutoSklearnLike, AutoGluonLike, H2OAutoMLLike)
}

#: Registry keys for the three systems, in the paper's column order.
AUTOML_NAMES: tuple[str, ...] = tuple(_REGISTRY)


def make_automl(name: str, **kwargs) -> AutoMLSystem:
    """Instantiate an AutoML system by registry name."""
    from repro.exceptions import UnknownModelError

    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise UnknownModelError(
            f"unknown AutoML system {name!r}; known: {', '.join(AUTOML_NAMES)}"
        ) from None
    return factory(**kwargs)
