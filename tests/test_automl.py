"""Tests for the AutoML layer: clock, search space, SMBO, three systems."""

from __future__ import annotations

import numpy as np
import pytest

from repro.automl import (
    AUTOML_NAMES,
    AutoGluonLike,
    AutoSklearnLike,
    H2OAutoMLLike,
    SimulatedClock,
    TimeBudget,
    make_automl,
)
from repro.automl.bayesian import (
    GaussianProcessSurrogate,
    SMBOProposer,
    expected_improvement,
)
from repro.automl.meta_learning import MetaFeatures, warm_start_portfolio
from repro.automl.search_space import (
    FAMILY_SPACES,
    default_configuration,
    sample_configuration,
)
from repro.exceptions import (
    BudgetExhaustedError,
    NotFittedError,
    SearchSpaceError,
    UnknownModelError,
)
from repro.ml import f1_score


class TestSimulatedClock:
    def test_charges_accumulate(self):
        clock = SimulatedClock(TimeBudget(1.0))
        clock.charge(0.4, "a")
        clock.charge(0.5, "b")
        assert clock.elapsed_hours == pytest.approx(0.9)
        assert clock.remaining_hours == pytest.approx(0.1)

    def test_overrun_raises(self):
        clock = SimulatedClock(TimeBudget(0.5))
        clock.charge(0.4)
        with pytest.raises(BudgetExhaustedError):
            clock.charge(0.2)

    def test_force_overrides(self):
        clock = SimulatedClock(TimeBudget(0.1))
        clock.charge(0.5, force=True)
        assert clock.elapsed_hours == 0.5

    def test_negative_charge_rejected(self):
        clock = SimulatedClock(TimeBudget(1.0))
        with pytest.raises(ValueError):
            clock.charge(-0.1)

    def test_unbounded_budget(self):
        import math

        clock = SimulatedClock(TimeBudget(math.inf))
        clock.charge(1000.0)
        assert clock.budget.is_unbounded
        assert clock.remaining_hours == math.inf

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            TimeBudget(0.0)

    def test_model_cost_scales_with_rows(self):
        clock = SimulatedClock(TimeBudget(100.0))
        small = clock.charge_model("gbm", 1000, 100)
        large = clock.charge_model("gbm", 10000, 100)
        assert large == pytest.approx(10 * small)


class TestChargeLedger:
    """Semantics of the ``SimulatedClock.charges`` ledger."""

    def test_labels_recorded_in_charge_order(self):
        clock = SimulatedClock(TimeBudget(1.0))
        clock.charge(0.1, "first")
        clock.charge(0.2, "second")
        clock.charge(0.3, "third")
        assert [label for label, _ in clock.charges] == [
            "first", "second", "third",
        ]
        assert [hours for _, hours in clock.charges] == [0.1, 0.2, 0.3]

    def test_charge_model_labels_default_to_family(self):
        clock = SimulatedClock(TimeBudget(10.0))
        clock.charge_model("gbm", 1000, 100)
        clock.charge_model("knn", 1000, 100, label="knn(k=5)")
        assert [label for label, _ in clock.charges] == ["gbm", "knn(k=5)"]

    def test_forced_overrun_still_appended(self):
        clock = SimulatedClock(TimeBudget(0.1))
        clock.charge(0.05, "within")
        clock.charge(0.5, "overrun", force=True)
        assert [label for label, _ in clock.charges] == ["within", "overrun"]
        assert clock.charges[-1][1] == pytest.approx(0.5)
        assert clock.remaining_hours == 0.0

    def test_rejected_charge_not_appended(self):
        clock = SimulatedClock(TimeBudget(0.1))
        clock.charge(0.05, "ok")
        with pytest.raises(BudgetExhaustedError):
            clock.charge(0.2, "too-big")
        assert [label for label, _ in clock.charges] == ["ok"]
        assert clock.elapsed_hours == pytest.approx(0.05)

    def test_ledger_sum_equals_elapsed_hours(self):
        clock = SimulatedClock(TimeBudget(5.0))
        for index in range(20):
            clock.charge_model(
                "tree", 500 + 100 * index, 80, label=f"m{index}"
            )
        clock.charge(0.25, "forced", force=True)
        assert sum(hours for _, hours in clock.charges) == pytest.approx(
            clock.elapsed_hours
        )

    def test_fit_ledger_matches_report(self, linear_problem):
        """After a real fit, the ledger total is the reported sim-hours."""
        from repro.automl.resources import SimulatedClock as Clock

        charged: list[Clock] = []
        original_charge = Clock.charge

        def spying_charge(self, hours, label="", force=False):
            if self not in charged:
                charged.append(self)
            return original_charge(self, hours, label=label, force=force)

        X, y, _X_test, _y_test = linear_problem
        system = H2OAutoMLLike(budget_hours=0.05, seed=0, max_models=4)
        try:
            Clock.charge = spying_charge
            system.fit(X, y)
        finally:
            Clock.charge = original_charge
        assert len(charged) == 1
        clock = charged[0]
        assert sum(hours for _, hours in clock.charges) == pytest.approx(
            system.report_.simulated_hours
        )


class TestSearchSpace:
    def test_every_family_has_space(self):
        assert set(FAMILY_SPACES) >= {
            "logreg", "linear_svm", "naive_bayes", "knn",
            "tree", "random_forest", "extra_trees", "gbm",
        }

    def test_samples_stay_in_space(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            config = sample_configuration(rng)
            space = FAMILY_SPACES[config.family]
            unit = space.to_unit_vector(config)
            assert ((unit >= -1e-9) & (unit <= 1 + 1e-9)).all()

    def test_default_builds_and_fits(self, linear_problem):
        X, y, X_test, y_test = linear_problem
        for family in FAMILY_SPACES:
            pipeline = default_configuration(family).build(seed=0)
            pipeline.fit(X, y)
            assert pipeline.predict_proba(X_test).shape == (len(X_test), 2)

    def test_unknown_family_raises(self):
        with pytest.raises(SearchSpaceError):
            default_configuration("quantum_forest")

    def test_complexity_scales_with_gbm_rounds(self):
        small = default_configuration("gbm")
        big = sample_configuration(np.random.default_rng(0), families=("gbm",))
        big.params["n_estimators"] = 400
        assert big.complexity() > small.complexity() * 1.5


class TestBayesian:
    def test_gp_interpolates(self):
        X = np.array([[0.0], [0.5], [1.0]])
        y = np.array([0.0, 1.0, 0.0])
        gp = GaussianProcessSurrogate().fit(X, y)
        mean, std = gp.predict(np.array([[0.5]]))
        assert mean[0] == pytest.approx(1.0, abs=0.1)
        assert std[0] < 0.3

    def test_gp_uncertainty_grows_away_from_data(self):
        X = np.array([[0.0]])
        y = np.array([0.5])
        gp = GaussianProcessSurrogate().fit(X, y)
        _m_near, s_near = gp.predict(np.array([[0.01]]))
        _m_far, s_far = gp.predict(np.array([[0.99]]))
        assert s_far[0] > s_near[0]

    def test_expected_improvement_prefers_high_mean(self):
        ei = expected_improvement(
            np.array([0.9, 0.1]), np.array([0.1, 0.1]), best=0.5
        )
        assert ei[0] > ei[1]

    def test_proposer_observes_and_proposes(self):
        rng = np.random.default_rng(0)
        proposer = SMBOProposer(rng, families=("logreg",), epsilon=0.0)
        for _ in range(5):
            config = proposer.propose()
            proposer.observe(config, float(rng.random()))
        assert proposer.propose().family == "logreg"


class TestMetaLearning:
    def test_meta_features(self):
        X = np.zeros((100, 5))
        y = np.array([1] * 10 + [0] * 90)
        meta = MetaFeatures.of(X, y)
        assert meta.is_small and meta.is_imbalanced
        assert meta.positive_fraction == pytest.approx(0.1)

    def test_portfolio_nonempty_and_leads_with_gbm(self):
        meta = MetaFeatures(5000, 100, 0.1)
        portfolio = warm_start_portfolio(meta)
        assert len(portfolio) >= 5
        assert portfolio[0].family == "gbm"

    def test_small_portfolio_differs(self):
        small = warm_start_portfolio(MetaFeatures(100, 10, 0.1))
        large = warm_start_portfolio(MetaFeatures(10000, 10, 0.1))
        assert small[0].params != large[0].params


@pytest.mark.parametrize("name", AUTOML_NAMES)
class TestSystems:
    def test_fit_predict_f1(self, name, linear_problem):
        X, y, X_test, y_test = linear_problem
        system = make_automl(name, budget_hours=1.0, seed=0, max_models=6)
        system.fit(X, y)
        assert f1_score(y_test, system.predict(X_test)) > 0.6

    def test_report_populated(self, name, linear_problem):
        X, y, _, _ = linear_problem
        system = make_automl(name, budget_hours=1.0, seed=0, max_models=6)
        system.fit(X, y)
        report = system.report_
        assert report.n_evaluated >= 1
        assert report.simulated_hours > 0
        assert 0 <= report.threshold <= 1
        assert report.leaderboard[0].valid_f1 == max(
            e.valid_f1 for e in report.leaderboard
        )

    def test_proba_shape(self, name, linear_problem):
        X, y, X_test, _ = linear_problem
        system = make_automl(name, budget_hours=1.0, seed=0, max_models=5)
        system.fit(X, y)
        proba = system.predict_proba(X_test)
        assert proba.shape == (len(X_test), 2)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-6)

    def test_unfitted_raises(self, name, linear_problem):
        _, _, X_test, _ = linear_problem
        with pytest.raises(NotFittedError):
            make_automl(name).predict(X_test)

    def test_tiny_budget_still_fits_one_model(self, name, linear_problem):
        X, y, _, _ = linear_problem
        system = make_automl(name, budget_hours=1e-7, seed=0, max_models=5)
        system.fit(X, y)
        assert system.report_.n_evaluated >= 1


class TestSystemSpecifics:
    def test_unknown_system(self):
        # "autokeras" named a system outside the paper's three; the registry
        # accepts exactly the names AUTOML_NAMES lists.
        for name in ("autoweka", "autokeras"):
            with pytest.raises(UnknownModelError):
                make_automl(name)

    def test_autosklearn_exhausts_budget(self, linear_problem):
        X, y, _, _ = linear_problem
        system = AutoSklearnLike(budget_hours=1.0, max_models=4)
        system.fit(X, y)
        assert system.report_.simulated_hours == pytest.approx(1.0)

    def test_autogluon_respects_max_models(self, linear_problem):
        X, y, _, _ = linear_problem
        system = AutoGluonLike(budget_hours=None, max_models=3)
        system.fit(X, y)
        assert system.report_.n_evaluated <= 3

    def test_h2o_budget_grows_leaderboard(self, linear_problem):
        X, y, _, _ = linear_problem
        short = H2OAutoMLLike(budget_hours=0.01, max_models=30, seed=0)
        long = H2OAutoMLLike(budget_hours=5.0, max_models=30, seed=0)
        short.fit(X, y)
        long.fit(X, y)
        assert long.report_.n_evaluated >= short.report_.n_evaluated
