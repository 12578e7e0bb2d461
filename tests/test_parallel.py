"""Tests for ``repro.parallel``: the grid work model, the process-pool
executor (byte-identical merge, failure propagation, telemetry
stitching), concurrent cache access, and the 64-bit cache digest."""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import zlib

import numpy as np
import pytest

from repro import telemetry
from repro.config import stable_digest, stable_hash
from repro.experiments import ExperimentConfig, ExperimentRunner
from repro.experiments.table2 import SYSTEM_BUDGETS, run_table2
from repro.parallel import (
    Cell,
    GridSpec,
    ParallelExecutionError,
    ParallelRunner,
    run_table_parallel,
)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAVE_FORK, reason="fork start method unavailable"
)

SMALL = dict(scale=0.02, max_models=2)


# ------------------------------------------------------------------ digest


class TestStableDigest:
    def test_deterministic_and_64_bit(self):
        a = stable_digest("adapter", ("p1", "p2"), 3)
        assert a == stable_digest("adapter", ("p1", "p2"), 3)
        assert 0 <= a < 2**64
        assert a != stable_digest("adapter", ("p1", "p2"), 4)

    def test_separates_a_crc32_collision(self):
        """A real 32-bit collision the 64-bit digest tells apart — the
        entity store's keys must survive far more distinct entity texts
        than a 32-bit code can. The pair below was found by a
        birthday search over md5-derived 16-char strings (CRC32's
        burst-error guarantee hides collisions between strings that
        differ in fewer than 32 consecutive bits, so counter-suffixed
        strings never collide)."""
        left, right = "8a9e0b75eccc318e", "c4c2e7143c8d44b7"
        assert zlib.crc32(repr(left).encode("utf-8")) == zlib.crc32(
            repr(right).encode("utf-8")
        )
        assert stable_hash(left) == stable_hash(right)  # the 32-bit clash
        assert stable_digest(left) != stable_digest(right)

    def test_rng_seeding_still_crc32(self):
        """Seeded streams must not shift: rng_for keeps using CRC32."""
        from repro.config import GLOBAL_SEED, rng_for

        expected = np.random.default_rng(
            (GLOBAL_SEED, stable_hash("dataset", "S-DG", 3))
        ).random(4)
        np.testing.assert_array_equal(
            rng_for("dataset", "S-DG", 3).random(4), expected
        )


# -------------------------------------------------------------------- grid


class TestGridSpec:
    def test_table2_canonical_order(self):
        grid = GridSpec.for_table(2, datasets=("S-BR", "S-FZ"))
        labels = [c.label for c in grid.cells]
        assert labels == [
            "raw:autosklearn:S-BR@1",
            "raw:autogluon:S-BR@inf",
            "raw:h2o:S-BR@1",
            "deepmatcher:S-BR",
            "raw:autosklearn:S-FZ@1",
            "raw:autogluon:S-FZ@inf",
            "raw:h2o:S-FZ@1",
            "deepmatcher:S-FZ",
        ]

    def test_table3_grid_size(self):
        grid = GridSpec.for_table(3, datasets=("S-BR",))
        # 3 systems x 1 dataset x 2 tokenizer modes x 5 embedders.
        assert len(grid) == 30
        assert all(c.kind == "adapted" for c in grid.cells)

    def test_table4_is_duplicate_free(self):
        grid = GridSpec.for_table(4, datasets=("S-BR", "S-FZ"))
        assert len(set(grid.cells)) == len(grid.cells)
        budgets = dict(SYSTEM_BUDGETS)
        for cell in grid.cells:
            if cell.kind == "raw":
                assert cell.budget_hours == budgets.get(cell.system, 1.0)

    def test_table5_reuses_deepmatcher_and_best_adapter(self):
        grid = GridSpec.for_table(5, datasets=("S-BR",))
        kinds = [c.kind for c in grid.cells]
        assert kinds.count("deepmatcher") == 1
        adapted = [c for c in grid.cells if c.kind == "adapted"]
        assert {(c.tokenizer, c.embedder) for c in adapted} == {("hybrid", "albert")}
        assert {c.budget_hours for c in adapted} == {1.0, 6.0}

    def test_table1_has_no_grid(self):
        with pytest.raises(ValueError):
            GridSpec.for_table(1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Cell("bogus", "S-BR")

    def test_match_cells_are_uncached(self):
        grid = GridSpec.single_match("S-BR", "autosklearn", 1.0)
        assert grid.cells[0].cache_key(ExperimentConfig(**SMALL)) is None

    def test_cache_key_matches_runner(self, tmp_path, monkeypatch):
        """Cell.cache_key must stay in lock-step with the key the runner
        actually writes — the parallel merge seeds the renderer by it."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = ExperimentConfig(**SMALL)
        cell = Cell("deepmatcher", "S-BR")
        cell.run(ExperimentRunner(config))
        assert (tmp_path / f"{cell.cache_key(config)}.json").exists()


# ---------------------------------------------------------------- stitching


def _worker_snapshot() -> dict:
    """A synthetic worker trace with two nested spans and all signals."""
    with telemetry.recording() as rec:
        with telemetry.span("runner.run_raw", system="h2o"):
            with telemetry.span("runner.featurize"):
                pass
        telemetry.counter("runner.cache.disk.misses").inc(2)
        telemetry.gauge("depth").set(4)
        telemetry.histogram("charge", (0.5, 1.0)).observe(0.75)
        telemetry.trial("h2o", "gbm", "depth=4", 0.01, 0.9, True)
    from repro.telemetry import snapshot

    return snapshot(rec)


class TestGraftSnapshot:
    def test_spans_reparented_and_reidentified(self):
        trace = _worker_snapshot()
        with telemetry.recording() as rec:
            with telemetry.span("parallel.run"):
                root_id = telemetry.graft_snapshot(
                    rec, trace, name="parallel.cell", cell="raw:h2o:S-BR@1"
                )
        by_name = {s.name: s for s in rec.spans}
        cell = by_name["parallel.cell"]
        assert cell.span_id == root_id
        assert cell.parent_id == by_name["parallel.run"].span_id
        assert cell.attributes["cell"] == "raw:h2o:S-BR@1"
        assert by_name["runner.run_raw"].parent_id == root_id
        assert (
            by_name["runner.featurize"].parent_id
            == by_name["runner.run_raw"].span_id
        )
        ids = [s.span_id for s in rec.spans]
        assert len(set(ids)) == len(ids)
        grafted = [s for s in rec.spans if s.name != "parallel.run"]
        assert all(s.end <= cell.end + 1e-9 for s in grafted)

    def test_metrics_and_events_merge(self):
        trace = _worker_snapshot()
        with telemetry.recording() as rec:
            telemetry.counter("runner.cache.disk.misses").inc()
            telemetry.histogram("charge", (0.5, 1.0)).observe(0.2)
            telemetry.graft_snapshot(rec, trace)
            telemetry.graft_snapshot(rec, trace)
        counters = rec.metrics.counters
        assert counters["runner.cache.disk.misses"].value == 5  # 1 + 2 + 2
        assert rec.metrics.gauges["depth"].value == 4
        histogram = rec.metrics.histograms["charge"]
        assert histogram.total == 3
        assert histogram.sum == pytest.approx(0.2 + 0.75 + 0.75)
        assert len(rec.trials) == 2
        assert rec.trials[0].system == "h2o"
        assert rec.trials[0].accepted is True


# ---------------------------------------------------------------- executor


class TestParallelRunner:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=0)

    def test_jobs2_output_byte_identical_to_serial(self, tmp_path, monkeypatch):
        """The acceptance bar: a --jobs 2 table renders byte-identically
        to --jobs 1, from a cold cache on both sides."""
        config = ExperimentConfig(**SMALL)
        datasets = ("S-BR",)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        serial = run_table2(config, datasets)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        parallel = run_table_parallel(2, config, datasets, jobs=2)

        assert parallel == serial

    @needs_fork
    def test_worker_failure_propagates_and_leaks_no_tmp(
        self, tmp_path, monkeypatch
    ):
        """A cell crashing mid-grid fails the run loudly — and the cache
        directory holds no half-written .tmp files afterwards."""
        from repro.matching.deepmatcher import DeepMatcherHybrid

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

        def explode(self, *args, **kwargs):
            raise RuntimeError("injected mid-cell failure")

        monkeypatch.setattr(DeepMatcherHybrid, "fit", explode)
        config = ExperimentConfig(**SMALL)
        grid = GridSpec(
            table=2,
            cells=(
                Cell("raw", "S-BR", system="h2o", budget_hours=1.0),
                Cell("deepmatcher", "S-BR"),
            ),
        )
        runner = ParallelRunner(config, jobs=2, start_method="fork")
        with pytest.raises(ParallelExecutionError) as excinfo:
            runner.run(grid)
        assert "deepmatcher:S-BR" in str(excinfo.value)
        assert "RuntimeError" in str(excinfo.value)
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []

    @needs_fork
    def test_pool_trace_stitched_into_parent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = ExperimentConfig(**SMALL)
        grid = GridSpec(table=2, cells=(Cell("deepmatcher", "S-BR"),))
        with telemetry.recording() as rec:
            results = ParallelRunner(config, jobs=2, start_method="fork").run(grid)
        names = [s.name for s in rec.spans]
        assert "parallel.run" in names
        assert "parallel.cell" in names
        assert "runner.run_deepmatcher" in names  # grafted from the worker
        cell_span = next(s for s in rec.spans if s.name == "parallel.cell")
        assert cell_span.attributes["worker_pid"] == results[0].worker_pid
        assert results[0].worker_pid != os.getpid()
        assert rec.metrics.counters["parallel.cells.completed"].value == 1

    def test_inline_matches_pool_records(self, tmp_path, monkeypatch):
        """jobs=1 (inline) and jobs=2 (pool) compute identical records
        from independent cold caches — determinism, not cache reuse."""
        config = ExperimentConfig(**SMALL)
        grid = GridSpec(table=2, cells=(Cell("deepmatcher", "S-FZ"),))

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "inline"))
        inline = ParallelRunner(config, jobs=1).run(grid)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "pool"))
        pooled = ParallelRunner(config, jobs=2).run(grid)

        # wall_seconds is genuine wall-clock and never rendered into
        # tables; every accuracy-relevant field must match exactly.
        def stable(result):
            return {
                k: v for k, v in result.record.items() if k != "wall_seconds"
            }

        assert [stable(r) for r in inline] == [stable(r) for r in pooled]
        assert inline[0].cell == pooled[0].cell

    def test_warmed_runner_renders_without_recompute(self, tmp_path, monkeypatch):
        """The merge path: records seeded into a fresh runner serve the
        renderer from memory even with the disk cache off."""
        config = ExperimentConfig(**SMALL)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        executor = ParallelRunner(config, jobs=1)
        grid = GridSpec(table=2, cells=(Cell("deepmatcher", "S-BR"),))
        results = executor.run(grid)

        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        runner = executor.warmed_runner(results)
        with telemetry.recording() as rec:
            outcome = runner.run_deepmatcher("S-BR")
        assert outcome.__dict__ == results[0].record
        assert rec.metrics.counters["runner.cache.memory.hits"].value == 1
        assert "runner.run_deepmatcher" not in [s.name for s in rec.spans]

    def test_seed_result_rejects_malformed_record(self):
        runner = ExperimentRunner(ExperimentConfig(**SMALL))
        with pytest.raises(ValueError):
            runner.seed_result("key", {"f1": 1.0})


# ------------------------------------------------------------ worker death


class TestWorkerDeathRecovery:
    @needs_fork
    def test_injected_kill_is_retried_and_accounted(self, tmp_path, monkeypatch):
        """A worker killed mid-cell (os._exit — no unwinding, like
        SIGKILL) breaks the pool; the executor rebuilds it, re-executes
        the dead worker's cells, and settles the fault."""
        from repro import faults
        from repro.faults import FaultPlan, FaultSpec

        config = ExperimentConfig(**SMALL)
        grid = GridSpec(
            table=2,
            cells=(
                Cell("raw", "S-BR", system="h2o", budget_hours=1.0),
                Cell("deepmatcher", "S-BR"),
            ),
        )
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        serial = ParallelRunner(config, jobs=1).run(grid)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "chaos"))
        plan = FaultPlan(
            specs=[FaultSpec("parallel.worker", "kill", key="deepmatcher:S-BR")]
        )
        with faults.injecting(plan):
            with telemetry.recording() as rec:
                survived = ParallelRunner(
                    config, jobs=2, start_method="fork"
                ).run(grid)

        def stable(result):
            return {
                k: v for k, v in result.record.items() if k != "wall_seconds"
            }

        assert [stable(r) for r in survived] == [stable(r) for r in serial]
        assert plan.specs[0].disarmed
        counters = rec.metrics.counters
        assert counters["parallel.worker.restarts"].value == 1
        assert counters["faults.injected.worker"].value == 1
        assert counters["faults.recovered.worker"].value == 1
        assert "faults.fatal.worker" not in counters
        assert list((tmp_path / "chaos").rglob("*.tmp")) == []

    @needs_fork
    def test_restart_budget_exhausted_fails_loudly(self, tmp_path, monkeypatch):
        """With worker_restarts=0 the first death is already fatal: the
        run raises instead of silently dropping the cell."""
        from repro import faults
        from repro.faults import FaultPlan, FaultSpec

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = ExperimentConfig(**SMALL)
        grid = GridSpec(table=2, cells=(Cell("deepmatcher", "S-BR"),))
        plan = FaultPlan(
            specs=[FaultSpec("parallel.worker", "kill", key="deepmatcher:S-BR")]
        )
        with faults.injecting(plan):
            with telemetry.recording() as rec:
                runner = ParallelRunner(
                    config, jobs=2, start_method="fork", worker_restarts=0
                )
                with pytest.raises(ParallelExecutionError) as excinfo:
                    runner.run(grid)
        assert "deepmatcher:S-BR" in str(excinfo.value)
        assert "gave up after 0 pool restart(s)" in str(excinfo.value)
        counters = rec.metrics.counters
        assert counters["faults.injected.worker"].value == 1
        assert counters["faults.fatal.worker"].value == 1
        assert "faults.recovered.worker" not in counters

    def test_rejects_negative_worker_restarts(self):
        with pytest.raises(ValueError):
            ParallelRunner(worker_restarts=-1)


# ------------------------------------------------------- concurrent caches


class TestConcurrentCacheAccess:
    def test_two_threads_share_one_entity_store(self, tmp_path, monkeypatch):
        """Two threads transform the same dataset through the shared
        entity store concurrently (the serving daemon's shape): both get
        byte-identical output and the store's byte tally stays coherent
        (regression for the unlocked ``ByteBudgetLRU``)."""
        from repro.adapter import EMAdapter
        from repro.adapter.entity_store import clear_entity_store, entity_store
        from tests.test_adapter import make_dataset

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_entity_store()
        dataset = make_dataset()
        barrier = threading.Barrier(2)
        outputs: dict[int, np.ndarray] = {}
        errors: list[Exception] = []

        def transform(slot: int) -> None:
            try:
                barrier.wait(timeout=30)
                adapter = EMAdapter(
                    "attr", "dbert", "mean", cache=False, entity_cache=True
                )
                outputs[slot] = adapter.transform(dataset)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=transform, args=(slot,)) for slot in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)

        assert errors == []
        np.testing.assert_array_equal(outputs[0], outputs[1])
        store = entity_store()
        assert store.resident_bytes >= 0
        # Cold single-threaded replay must agree bit-for-bit.
        clear_entity_store()
        cold = EMAdapter(
            "attr", "dbert", "mean", cache=False, entity_cache=False
        ).transform(dataset)
        np.testing.assert_array_equal(cold, outputs[0])
        clear_entity_store()

    @needs_fork
    def test_two_processes_store_same_runner_key(self, tmp_path, monkeypatch):
        """Two processes storing the same runner key both succeed and
        leave exactly one valid JSON record (atomic-rename path)."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = ExperimentConfig(**SMALL)
        record = {
            "system": "deepmatcher", "dataset": "S-BR",
            "f1": 50.0, "precision": 50.0, "recall": 50.0,
            "simulated_hours": 0.1, "wall_seconds": 0.2,
        }
        key = config.cache_key("deepmatcher", "S-BR")
        context = multiprocessing.get_context("fork")
        start = context.Barrier(2)

        def store() -> None:
            runner = ExperimentRunner(config)
            start.wait(timeout=30)
            for _ in range(25):
                runner._store(key, record)

        workers = [context.Process(target=store) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert all(worker.exitcode == 0 for worker in workers)

        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == [f"{key}.json"]
        with (tmp_path / files[0]).open() as handle:
            assert json.load(handle) == record


# ---------------------------------------------------------------------- cli


class TestCliJobs:
    def test_table1_ignores_jobs(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["table", "1", "--jobs", "4"]) == 0
        assert "Magellan" in capsys.readouterr().out
