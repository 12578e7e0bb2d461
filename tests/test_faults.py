"""Tests for ``repro.faults``: plan/spec scheduling semantics, the
retry policy, every wired injection seam (kill-mid-write at the
atomic-write sites, corrupt-cache recovery in the entity store and the
runner/analysis caches, budget exhaustion mid-trial, estimator
failures), and the ``run_chaos`` harness behind ``repro-em chaos``."""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults, telemetry
from repro.faults import (
    CATALOG,
    CORRUPT_PAYLOAD,
    DEFAULT_ATTEMPTS,
    DEFAULT_CHAOS_POINTS,
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
    io_retry,
)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """A test that dies mid-``injecting`` must not poison the suite."""
    yield
    faults.uninstall()


def counters(rec) -> dict[str, float]:
    return {name: c.value for name, c in rec.metrics.counters.items()}


# ------------------------------------------------------------ checkpoints


class TestCheckpointDisabled:
    def test_checkpoint_and_mark_recovered_are_noops(self):
        assert faults.active() is None
        faults.checkpoint("adapter.entity.read", path="/nowhere")
        faults.mark_recovered("adapter.entity.read", path="/nowhere")

    def test_injecting_restores_previous_state(self):
        outer = FaultPlan(plan_id=1)
        inner = FaultPlan(plan_id=2)
        with faults.injecting(outer):
            with faults.injecting(inner):
                assert faults.active() is inner
            assert faults.active() is outer
        assert faults.active() is None

    def test_install_uninstall(self):
        plan = faults.install(FaultPlan(plan_id=9))
        assert faults.active() is plan
        assert faults.uninstall() is plan
        assert faults.active() is None


# ------------------------------------------------------------------ specs


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(point="unit.test", kind="gamma-ray")

    def test_rejects_kind_incompatible_with_cataloged_point(self):
        with pytest.raises(ValueError, match="supports kind"):
            FaultSpec(point="adapter.entity.read", kind="io")

    @pytest.mark.parametrize("field,value", [("at", 0), ("times", 0)])
    def test_rejects_non_positive_schedule(self, field, value):
        with pytest.raises(ValueError):
            FaultSpec(point="unit.test", kind="io", **{field: value})

    def test_window_semantics(self):
        """``at=2 times=2`` fails exactly the 2nd and 3rd visits."""
        plan = FaultPlan(specs=[FaultSpec("unit.test", "io", at=2, times=2)])
        with faults.injecting(plan):
            faults.checkpoint("unit.test")  # visit 1: clean
            with pytest.raises(InjectedFaultError):
                faults.checkpoint("unit.test")  # visit 2: fires
            with pytest.raises(InjectedFaultError):
                faults.checkpoint("unit.test")  # visit 3: fires
            faults.checkpoint("unit.test")  # visit 4: spent

    def test_key_restricts_matching(self):
        spec = FaultSpec("unit.test", "io", key="target")
        plan = FaultPlan(specs=[spec])
        with faults.injecting(plan):
            faults.checkpoint("unit.test", key="other")
            assert spec.seen == 0
            with pytest.raises(InjectedFaultError):
                faults.checkpoint("unit.test", key="target")
        assert spec.seen == 1 and spec.fired == 1

    def test_one_visit_fires_at_most_one_spec_but_counts_all(self):
        first = FaultSpec("unit.test", "io")
        second = FaultSpec("unit.test", "io")
        plan = FaultPlan(specs=[first, second])
        with faults.injecting(plan):
            with pytest.raises(InjectedFaultError):
                faults.checkpoint("unit.test")
        assert (first.fired, second.fired) == (1, 0)
        # The un-fired spec still saw the visit, so its own window
        # advances deterministically regardless of its neighbours.
        assert second.seen == 1

    def test_disarm_kills(self):
        keyed = FaultSpec("parallel.worker", "kill", key="cell-a")
        blanket = FaultSpec("parallel.worker", "kill")
        unrelated = FaultSpec("unit.test", "io")
        plan = FaultPlan(specs=[keyed, blanket, unrelated])
        disarmed = plan.disarm_kills({"cell-a"})
        assert disarmed == [keyed, blanket]
        assert keyed.disarmed and blanket.disarmed and not unrelated.disarmed
        assert plan.disarm_kills({"cell-a"}) == []  # already disarmed


class TestPlanGenerate:
    def test_same_id_and_seed_replays_identically(self):
        def shape(plan):
            return [(s.point, s.kind, s.at, s.times) for s in plan.specs]

        assert shape(FaultPlan.generate(3)) == shape(FaultPlan.generate(3))
        assert shape(FaultPlan.generate(3, seed=11)) == shape(
            FaultPlan.generate(3, seed=11)
        )

    def test_distinct_plan_ids_draw_distinct_schedules(self):
        shapes = {
            tuple((s.point, s.at, s.times) for s in FaultPlan.generate(i).specs)
            for i in range(6)
        }
        assert len(shapes) > 1

    def test_generated_specs_are_always_recoverable(self):
        for plan_id in range(8):
            for spec in FaultPlan.generate(plan_id).specs:
                assert spec.point in DEFAULT_CHAOS_POINTS
                assert spec.kind == CATALOG[spec.point]
                if spec.kind == "io":
                    # The retry policy always survives times < attempts.
                    assert spec.times < DEFAULT_ATTEMPTS

    def test_rejects_uncataloged_points(self):
        with pytest.raises(ValueError, match="not in faults.CATALOG"):
            FaultPlan.generate(0, points=("no.such.seam",))


# --------------------------------------------------------------- io_retry


class TestIoRetry:
    def test_recovers_with_deterministic_backoff(self):
        calls = {"n": 0}
        sleeps: list[float] = []

        def flaky():
            calls["n"] += 1
            if calls["n"] <= 2:
                raise InjectedFaultError("unit.test", 0)
            return "done"

        with telemetry.recording() as rec:
            result = io_retry(flaky, "unit.test", sleep=sleeps.append)
        assert result == "done"
        assert sleeps == [0.002, 0.004]
        assert counters(rec)["faults.recovered.io"] == 2
        assert counters(rec)["io.retries"] == 2
        assert "faults.fatal.io" not in counters(rec)

    def test_exhausted_attempts_raise_and_count_fatal(self):
        def doomed():
            raise InjectedFaultError("unit.test", 0)

        with telemetry.recording() as rec:
            with pytest.raises(InjectedFaultError):
                io_retry(doomed, "unit.test", sleep=lambda _: None)
        assert counters(rec)["faults.fatal.io"] == DEFAULT_ATTEMPTS
        assert "faults.recovered.io" not in counters(rec)

    def test_genuine_oserror_retries_without_fault_accounting(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("disk hiccup")
            return 42

        with telemetry.recording() as rec:
            assert io_retry(flaky, "unit.test", sleep=lambda _: None) == 42
        assert counters(rec) == {"io.retries": 1}

    def test_non_oserror_propagates_immediately(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise TypeError("not serializable")

        with pytest.raises(TypeError):
            io_retry(broken, "unit.test", sleep=lambda _: None)
        assert calls["n"] == 1

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            io_retry(lambda: None, "unit.test", attempts=0)


# -------------------------------------------------- kill-mid-write seams

# Fail every attempt: an ``io`` spec with times >= DEFAULT_ATTEMPTS
# exhausts the retry loop, which is as close to a dying disk as a test
# gets — the seam must surface OSError, keep the old file, leak nothing.


def _exhausting(point: str) -> FaultPlan:
    return FaultPlan(specs=[FaultSpec(point, "io", times=DEFAULT_ATTEMPTS)])


class TestKillMidWrite:
    def test_runner_store_write(self, tmp_path, monkeypatch):
        from repro.experiments import ExperimentConfig, ExperimentRunner

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner = ExperimentRunner(ExperimentConfig(scale=0.02, max_models=2))
        record = {
            "system": "deepmatcher", "dataset": "S-BR",
            "f1": 50.0, "precision": 50.0, "recall": 50.0,
            "simulated_hours": 0.1, "wall_seconds": 0.2,
        }
        runner._store("good", record)
        with faults.injecting(_exhausting("runner.cache.store.replace")):
            with telemetry.recording() as rec:
                with pytest.raises(InjectedFaultError):
                    runner._store("good", dict(record, f1=0.0))
        assert list(tmp_path.rglob("*.tmp")) == []
        # The rename never happened: the old record survives on disk.
        fresh = ExperimentRunner(ExperimentConfig(scale=0.02, max_models=2))
        assert fresh._cached("good")["f1"] == 50.0
        assert counters(rec)["faults.injected.io"] == DEFAULT_ATTEMPTS
        assert counters(rec)["faults.fatal.io"] == DEFAULT_ATTEMPTS

    def test_persistence_save_replace(self, tmp_path):
        from repro.persistence import load_model, save_model

        path = tmp_path / "model.pkl"
        save_model({"weights": [1, 2, 3]}, path)
        with faults.injecting(_exhausting("persistence.save.replace")):
            with pytest.raises(InjectedFaultError):
                save_model({"weights": [9]}, path)
        assert list(tmp_path.glob("*.tmp")) == []
        assert load_model(path) == {"weights": [1, 2, 3]}

    def test_analysis_cache_save_is_best_effort(self, tmp_path):
        from repro.analysis.cache import AnalysisCache

        target = tmp_path / "some_module.py"
        target.write_text("x = 1\n")
        cache = AnalysisCache(tmp_path / "cache")
        cache.store(target, "some_module.py", summary={"imports": []})
        with faults.injecting(_exhausting("analysis.cache.store.write")):
            with telemetry.recording() as rec:
                cache.save()  # must swallow: caching never fails a lint
        assert cache.dirty  # nothing was persisted
        assert list(tmp_path.rglob("*.tmp")) == []
        assert counters(rec)["faults.fatal.io"] == DEFAULT_ATTEMPTS
        cache.save()  # healthy disk: now it lands
        assert not cache.dirty
        assert list(tmp_path.rglob("*.tmp")) == []


# ------------------------------------------------- corrupt-read recovery


class TestCorruptRecovery:
    def test_runner_survives_binary_garbage(self, tmp_path, monkeypatch):
        """Regression: binary garbage in a JSON cache entry raises
        UnicodeDecodeError (a ValueError that is *not* JSONDecodeError);
        the runner must treat it as corruption, not crash."""
        from repro.experiments import ExperimentConfig, ExperimentRunner

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        (tmp_path / "key.json").write_bytes(CORRUPT_PAYLOAD)
        runner = ExperimentRunner(ExperimentConfig(scale=0.02, max_models=2))
        with telemetry.recording() as rec:
            assert runner._cached("key") is None
        assert counters(rec)["runner.cache.disk.corrupt"] == 1
        assert not (tmp_path / "key.json").exists()  # bad entry dropped

    def test_runner_injected_corruption_settles(self, tmp_path, monkeypatch):
        from repro.experiments import ExperimentConfig, ExperimentRunner

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = ExperimentConfig(scale=0.02, max_models=2)
        record = {
            "system": "deepmatcher", "dataset": "S-BR",
            "f1": 50.0, "precision": 50.0, "recall": 50.0,
            "simulated_hours": 0.1, "wall_seconds": 0.2,
        }
        ExperimentRunner(config)._store("key", record)
        plan = FaultPlan(specs=[FaultSpec("runner.cache.read", "corrupt")])
        with faults.injecting(plan):
            with telemetry.recording() as rec:
                assert ExperimentRunner(config)._cached("key") is None
        seen = counters(rec)
        assert seen["faults.injected.corrupt"] == 1
        assert seen["faults.recovered.corrupt"] == 1
        assert plan.unresolved == []

    def test_analysis_cache_degrades_to_cold_run(self, tmp_path):
        from repro.analysis.cache import AnalysisCache

        target = tmp_path / "some_module.py"
        target.write_text("x = 1\n")
        directory = tmp_path / "cache"
        warm = AnalysisCache(directory)
        warm.store(target, "some_module.py", summary={"imports": []})
        warm.save()

        plan = FaultPlan(specs=[FaultSpec("analysis.cache.read", "corrupt")])
        with faults.injecting(plan):
            with telemetry.recording() as rec:
                cold = AnalysisCache(directory)
                assert cold.lookup(target, "some_module.py") is None
        seen = counters(rec)
        assert seen["faults.injected.corrupt"] == 1
        assert seen["faults.recovered.corrupt"] == 1
        assert plan.unresolved == []


# --------------------------------------------- budget + estimator faults


class TestAutoMLFaults:
    def test_injected_budget_exhaustion_degrades_gracefully(
        self, linear_problem
    ):
        from repro.automl import AutoSklearnLike

        X, y, X_test, y_test = linear_problem
        plan = FaultPlan(specs=[FaultSpec("automl.budget", "budget", at=3)])
        with faults.injecting(plan):
            with telemetry.recording() as rec:
                system = AutoSklearnLike(
                    budget_hours=1.0, seed=0, max_models=6
                ).fit(X, y, X_test, y_test)
        assert system.report_.n_evaluated >= 1  # fit survived the fault
        seen = counters(rec)
        assert seen["faults.injected.budget"] == 1
        assert seen["faults.recovered.budget"] == 1
        assert plan.unresolved == []

    def test_search_stop_leaves_a_trace_event(self, linear_problem):
        """The old silent ``pass`` on BudgetExhaustedError now records
        why the search stopped."""
        from repro.automl import AutoSklearnLike

        X, y, X_test, y_test = linear_problem
        with telemetry.recording() as rec:
            AutoSklearnLike(budget_hours=1.0, seed=0, max_models=2).fit(
                X, y, X_test, y_test
            )
        stops = [e for e in rec.events if e.name == "automl.search.stopped"]
        assert len(stops) == 1
        assert "max_models" in stops[0].attributes["reason"]

    def test_estimator_failure_is_recorded_and_skipped(self, linear_problem):
        from repro.automl import AutoSklearnLike, SimulatedClock, TimeBudget

        X, y, X_test, y_test = linear_problem

        class ExplodingConfig:
            family = "logreg"

            def complexity(self) -> float:
                return 1.0

            def build(self, seed: int):
                raise np.linalg.LinAlgError("singular matrix")

            def __str__(self) -> str:
                return "exploding(logreg)"

        system = AutoSklearnLike(budget_hours=1.0, seed=0, max_models=6)
        system._leaderboard = []
        system._rng = np.random.default_rng(0)
        clock = SimulatedClock(TimeBudget(1.0))
        with telemetry.recording() as rec:
            entry = system._evaluate(
                ExplodingConfig(), X, y, X_test, y_test, clock
            )
        assert entry is None
        assert counters(rec)["automl.trials.failed"] == 1
        (trial,) = rec.trials
        assert not trial.accepted
        assert trial.reason == "estimator-failure:LinAlgError"
        assert clock.elapsed_hours > 0  # the charged budget stays spent

    def test_unexpected_estimator_exception_propagates(self, linear_problem):
        """Only :data:`ESTIMATOR_FAILURES` are tolerated — a bug in the
        search must not be swallowed as a rejected trial."""
        from repro.automl import AutoSklearnLike, SimulatedClock, TimeBudget

        X, y, X_test, y_test = linear_problem

        class BuggyConfig:
            family = "logreg"

            def complexity(self) -> float:
                return 1.0

            def build(self, seed: int):
                raise AttributeError("a genuine bug")

            def __str__(self) -> str:
                return "buggy(logreg)"

        system = AutoSklearnLike(budget_hours=1.0, seed=0, max_models=6)
        system._leaderboard = []
        system._rng = np.random.default_rng(0)
        with pytest.raises(AttributeError):
            system._evaluate(
                BuggyConfig(), X, y, X_test, y_test,
                SimulatedClock(TimeBudget(1.0)),
            )


# ------------------------------------------------------------ chaos drill


class TestChaosHarness:
    def test_report_rendering_and_verdicts(self):
        from repro.parallel import ChaosReport, PlanOutcome

        good = PlanOutcome(
            plan_id=0, n_specs=2, identical=True, orphans=[],
            injected={"io": 2}, recovered={"io": 2}, fatal={},
            unresolved=[],
        )
        bad = PlanOutcome(
            plan_id=1, n_specs=1, identical=False, orphans=["x.tmp"],
            injected={"corrupt": 1}, recovered={}, fatal={},
            unresolved=[("adapter.entity.read", "p")],
        )
        assert good.ok and good.balanced
        assert not bad.ok and not bad.balanced
        report = ChaosReport(
            table=2, datasets=("S-BR",), jobs=1, reference="ref",
            outcomes=[good, bad],
        )
        assert not report.ok
        text = report.render()
        assert "plan 0" in text and "-> OK" in text
        assert "OUTPUT DIFFERS" in text and "-> FAIL" in text
        assert "chaos verdict: FAIL (1/2 plans clean)" in text

    def test_run_chaos_end_to_end(self, monkeypatch):
        """The acceptance bar: every seeded plan's output is
        byte-identical to the fault-free run, with clean accounting and
        zero orphaned temp files."""
        from repro.experiments import ExperimentConfig
        from repro.parallel import run_chaos

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        report = run_chaos(
            table=2,
            config=ExperimentConfig(scale=0.02, max_models=2),
            datasets=("S-BR",),
            plans=1,
            jobs=1,
        )
        assert report.ok, report.render()
        (outcome,) = report.outcomes
        assert outcome.identical
        assert outcome.orphans == []
        assert outcome.balanced
        assert outcome.unresolved == []
        assert sum(outcome.injected.values()) >= 1  # the plan really bit
        assert report.trace is not None  # --trace-file payload exists
        assert "chaos verdict: PASS" in report.render()

    def test_run_chaos_rejects_zero_plans(self):
        from repro.parallel import run_chaos

        with pytest.raises(ValueError):
            run_chaos(plans=0)


# ------------------------------------------------ entity-store seams


class TestEntityStoreSeams:
    """Chaos coverage for the entity-embedding store's three seams
    (``adapter.entity.store.write``/``.replace``/``adapter.entity.read``),
    mirroring the runner-cache drills above. Each applies once per pack."""

    def test_transient_write_fault_recovers(self, tmp_path, monkeypatch):
        from repro.adapter import clear_entity_store, entity_store

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_entity_store()
        plan = FaultPlan(
            specs=[FaultSpec("adapter.entity.store.replace", "io", times=1)]
        )
        with faults.injecting(plan):
            with telemetry.recording() as rec:
                with entity_store().writer() as pack:
                    pack.save(7, {"vector": np.ones(4)})
                    pack.save(8, {"vector": np.zeros(4)})
        clear_entity_store()
        seen = counters(rec)
        assert seen["faults.injected.io"] == 1
        assert seen["faults.recovered.io"] == 1
        assert seen["adapter.entity_cache.disk.packs_written"] == 1
        assert plan.unresolved == []
        assert list(tmp_path.rglob("*.tmp")) == []
        loaded = entity_store().load(7)  # replayed from the disk tier
        assert loaded is not None and np.array_equal(loaded["vector"], np.ones(4))
        clear_entity_store()

    def test_exhausted_write_raises_and_leaks_nothing(
        self, tmp_path, monkeypatch
    ):
        from repro.adapter import clear_entity_store, entity_store

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_entity_store()
        with faults.injecting(_exhausting("adapter.entity.store.write")):
            with pytest.raises(InjectedFaultError):
                with entity_store().writer() as pack:
                    pack.save(7, {"vector": np.ones(4)})
        clear_entity_store()
        assert list(tmp_path.rglob("*.tmp")) == []
        assert list((tmp_path / "entity").glob("*.pack")) == []

    def test_injected_corruption_settles(self, tmp_path, monkeypatch):
        from repro.adapter import EMAdapter, clear_entity_store
        from tests.test_adapter import make_dataset

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_entity_store()
        dataset = make_dataset()
        adapter = EMAdapter(
            "attr", "dbert", "mean", cache=False, entity_cache=True
        )
        original = adapter.transform(dataset)
        clear_entity_store()  # the next transform replays the disk tier

        plan = FaultPlan(specs=[FaultSpec("adapter.entity.read", "corrupt")])
        with faults.injecting(plan):
            with telemetry.recording() as rec:
                recovered = adapter.transform(dataset)
        clear_entity_store()

        np.testing.assert_array_equal(recovered, original)
        seen = counters(rec)
        assert seen["adapter.entity_cache.disk.corrupt"] == 1
        assert seen["faults.injected.corrupt"] == 1
        assert seen["faults.recovered.corrupt"] == 1
        assert plan.unresolved == []

    @pytest.mark.parametrize("at", [1, 2], ids=["at-index", "at-payload"])
    def test_injected_corruption_of_an_indexed_pack_settles(
        self, tmp_path, monkeypatch, at
    ):
        """The read seam fires when a pack's tables are indexed (visit
        1) and again when its payload is read (visit 2); a pack garbled
        at either point is dropped, its records recompute to the same
        bits, and ``injected == recovered + fatal``."""
        from repro.adapter import EMAdapter, clear_entity_store
        from tests.test_adapter import make_dataset

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_entity_store()
        dataset = make_dataset()
        adapter = EMAdapter(
            "hybrid", "dbert", "mean", cache=False, entity_cache=True
        )
        original = adapter.transform(dataset)
        clear_entity_store()

        plan = FaultPlan(
            specs=[FaultSpec("adapter.entity.read", "corrupt", at=at)]
        )
        with faults.injecting(plan):
            with telemetry.recording() as rec:
                recovered = adapter.transform(dataset)
        clear_entity_store()

        np.testing.assert_array_equal(recovered, original)
        seen = counters(rec)
        assert seen["adapter.entity_cache.disk.corrupt"] == 1
        assert seen["faults.injected.corrupt"] == (
            seen["faults.recovered.corrupt"] + seen.get("faults.fatal.corrupt", 0)
        ) == 1
        assert seen["adapter.entity_cache.disk.packs_written"] == 1
        assert plan.unresolved == []
