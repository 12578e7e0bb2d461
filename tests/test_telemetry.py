"""Tests for ``repro.telemetry``: spans, metrics, events, exporters.

Covers the off-by-default no-op contract, span nesting and error
capture, metric determinism, the AutoML trial ledger produced by a real
``fit``, adapter instrumentation, JSONL round-trips, schema validation,
and the sync between ``TRACE_SCHEMA`` and ``docs/trace_schema.json``.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import (
    BUDGET_HOURS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TRACE_SCHEMA,
    TelemetryRecorder,
    read_jsonl,
    render_text,
    snapshot,
    validate_instance,
    validate_trace,
    write_jsonl,
)
from repro.telemetry.metrics import NULL_INSTRUMENT
from repro.telemetry.spans import NULL_SPAN

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def telemetry_off():
    """Every test starts and ends with telemetry disabled."""
    telemetry.disable()
    yield
    telemetry.disable()


# ------------------------------------------------------------ disabled path


class TestDisabledByDefault:
    def test_no_active_recorder(self):
        assert telemetry.active() is None

    def test_span_is_shared_noop(self):
        handle = telemetry.span("anything", key="value")
        assert handle is NULL_SPAN
        with handle as inner:
            assert inner.set(more=1) is inner

    def test_instruments_are_shared_noop(self):
        assert telemetry.counter("c") is NULL_INSTRUMENT
        assert telemetry.gauge("g") is NULL_INSTRUMENT
        assert telemetry.histogram("h") is NULL_INSTRUMENT
        # All of these must silently do nothing.
        telemetry.counter("c").inc()
        telemetry.gauge("g").set(3.0)
        telemetry.histogram("h").observe(0.5)
        telemetry.event("e", detail=1)
        telemetry.trial("s", "gbm", "{}", 0.1, 0.9, True)

    def test_traced_passthrough(self):
        @telemetry.traced()
        def add(a, b):
            return a + b

        assert add(2, 3) == 5


# ------------------------------------------------------------- span capture


class TestSpans:
    def test_recording_restores_previous_state(self):
        assert telemetry.active() is None
        with telemetry.recording() as rec:
            assert telemetry.active() is rec
            with telemetry.recording() as inner:
                assert telemetry.active() is inner
            assert telemetry.active() is rec
        assert telemetry.active() is None

    def test_parent_child_ids_and_attributes(self):
        with telemetry.recording() as rec:
            with telemetry.span("parent", stage="outer") as p:
                with telemetry.span("child", index=3):
                    pass
                p.set(rows=10)
        spans = {s.name: s for s in rec.spans}
        parent, child = spans["parent"], spans["child"]
        assert parent.parent_id is None
        assert child.parent_id == parent.span_id
        assert child.span_id != parent.span_id
        assert parent.attributes == {"stage": "outer", "rows": 10}
        assert child.attributes == {"index": 3}
        # Children finish (and are recorded) before their parents.
        assert rec.spans[0].name == "child"
        assert parent.duration >= child.duration >= 0.0

    def test_sibling_spans_share_parent(self):
        with telemetry.recording() as rec:
            with telemetry.span("root") as root_handle:
                for index in range(3):
                    with telemetry.span("leaf", index=index):
                        pass
        root_id = root_handle.span_id
        leaves = [s for s in rec.spans if s.name == "leaf"]
        assert len(leaves) == 3
        assert all(leaf.parent_id == root_id for leaf in leaves)
        assert len({leaf.span_id for leaf in leaves}) == 3

    def test_error_capture_and_propagation(self):
        with telemetry.recording() as rec:
            with pytest.raises(KeyError):
                with telemetry.span("boom"):
                    raise KeyError("x")
        (span,) = rec.spans
        assert span.error == "KeyError"
        assert span.end >= span.start

    def test_traced_decorator_records_qualname(self):
        @telemetry.traced()
        def work():
            return 42

        @telemetry.traced("custom.name")
        def other():
            return 7

        with telemetry.recording() as rec:
            assert work() == 42
            assert other() == 7
        names = [s.name for s in rec.spans]
        assert any(name.endswith("work") for name in names)
        assert "custom.name" in names

    def test_ids_dense_and_deterministic(self):
        with telemetry.recording() as rec:
            for _ in range(5):
                with telemetry.span("s"):
                    pass
        assert sorted(s.span_id for s in rec.spans) == list(range(5))


# ----------------------------------------------------------------- metrics


class TestMetrics:
    def test_counter_monotonic(self):
        counter = Counter("hits")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_last_value_wins(self):
        gauge = Gauge("depth")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_histogram_bucketing(self):
        hist = Histogram("h", (0.1, 1.0, 10.0))
        for value in (0.05, 0.1, 0.5, 1.0, 2.0, 100.0):
            hist.observe(value)
        # v <= bound lands in that bucket; beyond the last bound overflows.
        assert hist.counts == [2, 2, 1, 1]
        assert hist.total == 6
        assert hist.sum == pytest.approx(103.65)
        assert hist.mean == pytest.approx(103.65 / 6)

    def test_histogram_requires_sorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("bad", (1.0, 0.5))
        with pytest.raises(ValueError):
            Histogram("empty", ())

    def test_histogram_percentiles(self):
        hist = Histogram("h", (0.1, 1.0, 10.0))
        for value in (0.05, 0.2, 0.3, 0.9, 2.0):
            hist.observe(value)
        # counts = [1, 3, 1, 0]; the estimate is the upper bound of the
        # bucket holding the requested rank.
        assert hist.percentile(0) == 0.1
        assert hist.percentile(50) == 1.0
        assert hist.percentile(90) == 10.0
        assert hist.percentile(100) == 10.0

    def test_percentile_from_buckets_edges(self):
        from repro.telemetry import percentile_from_buckets

        # Empty distribution reports 0.0.
        assert percentile_from_buckets((1.0, 2.0), [0, 0, 0], 50) == 0.0
        # Overflow observations clamp to the largest finite bound.
        assert percentile_from_buckets((1.0, 2.0), [0, 0, 5], 99) == 2.0
        with pytest.raises(ValueError):
            percentile_from_buckets((1.0,), [1, 0], 101)
        with pytest.raises(ValueError):
            percentile_from_buckets((1.0,), [1, 0], -0.5)

    def test_render_text_includes_histogram_percentiles(self):
        with telemetry.recording() as recorder:
            for value in (0.05, 0.2, 0.7):
                telemetry.histogram("stage.seconds", (0.1, 0.5, 1.0)).observe(
                    value
                )
        report = render_text(snapshot(recorder))
        assert "p50<=0.5" in report
        assert "p99<=1" in report

    def test_registry_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c", (1.0,)) is registry.histogram("c", (1.0,))

    def test_registry_rejects_conflicting_histogram_bounds(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", (1.0, 3.0))

    def test_concurrent_instrument_updates_lose_nothing(self):
        """Regression: unsynchronized read-modify-write in ``Counter.inc``
        / ``Histogram.observe`` dropped updates under the threaded
        serving daemon. Hammering one registry from many threads must
        account every single update."""
        import threading

        registry = MetricsRegistry()
        threads_n, rounds = 8, 1_998  # divisible by 3 for exact buckets
        barrier = threading.Barrier(threads_n)

        def hammer(slot: int) -> None:
            barrier.wait(timeout=30)
            for i in range(rounds):
                # Get-or-create raced too: every thread resolves the
                # instruments by name on every iteration.
                registry.counter("hammer.total").inc()
                registry.counter(f"hammer.slot.{slot}").inc(2.0)
                registry.histogram("hammer.hist", (0.5, 1.5)).observe(
                    float(i % 3)
                )
                registry.gauge("hammer.gauge").set(slot)

        threads = [
            threading.Thread(target=hammer, args=(slot,))
            for slot in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)

        assert registry.counter("hammer.total").value == threads_n * rounds
        for slot in range(threads_n):
            assert registry.counter(f"hammer.slot.{slot}").value == 2.0 * rounds
        hist = registry.histogram("hammer.hist", (0.5, 1.5))
        assert hist.total == threads_n * rounds
        assert sum(hist.counts) == threads_n * rounds
        # i % 3 in {0, 1, 2}: one third in each of the three buckets.
        assert hist.counts == [
            threads_n * rounds // 3,
            threads_n * rounds // 3,
            threads_n * rounds // 3,
        ]
        assert registry.gauge("hammer.gauge").value in set(
            float(s) for s in range(threads_n)
        )

    def test_to_dicts_deterministic_order(self):
        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a").inc()
        registry.gauge("m").set(1)
        registry.histogram("h", (1.0,)).observe(0.5)
        names = [line["name"] for line in registry.to_dicts()]
        assert names == ["a", "z", "m", "h"]
        # Same observations => byte-identical serialization.
        other = MetricsRegistry()
        other.counter("z").inc()
        other.counter("a").inc()
        other.gauge("m").set(1)
        other.histogram("h", (1.0,)).observe(0.5)
        assert json.dumps(registry.to_dicts(), sort_keys=True) == json.dumps(
            other.to_dicts(), sort_keys=True
        )


# ------------------------------------------------- pipeline instrumentation


class TestAutoMLInstrumentation:
    def test_fit_emits_trials_and_spans(self, linear_problem):
        from repro.automl import H2OAutoMLLike

        X, y, _X_test, _y_test = linear_problem
        with telemetry.recording() as rec:
            system = H2OAutoMLLike(budget_hours=0.05, seed=0, max_models=4)
            system.fit(X, y)

        # One trial event per candidate the search considered; at least
        # one per trained (accepted) model.
        trials = rec.trials
        accepted = [t for t in trials if t.accepted]
        assert len(accepted) == len(system.leaderboard)
        assert all(t.system == system.name for t in trials)
        for t in accepted:
            assert t.hours > 0
            assert t.valid_f1 is not None
        for t in trials:
            if not t.accepted:
                assert t.reason in ("budget-exhausted", "max-models")

        names = [s.name for s in rec.spans]
        assert "automl.fit" in names
        assert "automl.search" in names
        fit_span = next(s for s in rec.spans if s.name == "automl.fit")
        assert fit_span.attributes["n_evaluated"] == len(accepted)
        assert fit_span.attributes["simulated_hours"] == pytest.approx(
            system.report_.simulated_hours
        )

        # Budget-charge histogram sums to the clock's elapsed hours.
        hist = rec.metrics.histograms["automl.budget.charge_hours"]
        assert hist.bounds == BUDGET_HOURS_BUCKETS
        assert hist.sum == pytest.approx(system.report_.simulated_hours)
        assert rec.metrics.counters["automl.candidates"].value == len(accepted)

    def test_fit_results_identical_with_and_without_telemetry(
        self, linear_problem
    ):
        from repro.automl import AutoSklearnLike

        X, y, X_test, _y_test = linear_problem
        plain = AutoSklearnLike(budget_hours=0.05, seed=7, max_models=3)
        plain.fit(X, y)
        with telemetry.recording():
            traced_system = AutoSklearnLike(budget_hours=0.05, seed=7, max_models=3)
            traced_system.fit(X, y)
        np.testing.assert_array_equal(
            plain.predict(X_test), traced_system.predict(X_test)
        )
        assert plain.report_.simulated_hours == pytest.approx(
            traced_system.report_.simulated_hours
        )


class TestAdapterInstrumentation:
    def test_transform_spans_and_cache_counters(self, tiny_sda, monkeypatch):
        """Every transform runs tokenize -> embed -> combine; a repeat
        of the same dataset is served by the entity store's memory tier
        alone."""
        from repro.adapter import EMAdapter, clear_entity_store

        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        clear_entity_store()
        adapter = EMAdapter("attr", "albert", "mean")
        with telemetry.recording() as cold:
            first = adapter.transform(tiny_sda)
        with telemetry.recording() as warm:
            second = adapter.transform(tiny_sda)
        clear_entity_store()

        np.testing.assert_array_equal(first, second)
        for rec in (cold, warm):
            names = [s.name for s in rec.spans]
            assert names.count("adapter.transform") == 1
            assert names.count("adapter.tokenize") == 1
            assert "adapter.embed" in names
            assert names.count("adapter.combine") == 1
            (root,) = [s for s in rec.spans if s.name == "adapter.transform"]
            assert "cache" not in root.attributes

        cold_misses = cold.metrics.counters["adapter.entity_cache.memory.misses"]
        warm_counters = warm.metrics.counters
        assert "adapter.entity_cache.memory.misses" not in warm_counters
        warm_hits = warm_counters["adapter.entity_cache.memory.hits"].value
        assert 0 < warm_hits <= cold_misses.value


# --------------------------------------------------------------- exporters


def _sample_trace() -> dict:
    """A small but fully populated snapshot built from a live recorder."""
    with telemetry.recording() as rec:
        with telemetry.span("root", dataset="S-DA"):
            with telemetry.span("leaf", index=0):
                pass
        telemetry.counter("cache.hits").inc(2)
        telemetry.gauge("depth").set(3)
        telemetry.histogram("charge", (0.5, 1.0)).observe(0.2)
        telemetry.event("note", detail="x")
        telemetry.trial("h2o", "gbm", "depth=4", 0.01, 0.91, True)
        telemetry.trial("h2o", "gbm", "depth=9", 0.02, None, False, "budget-exhausted")
    return snapshot(rec)


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        trace = _sample_trace()
        path = tmp_path / "trace.jsonl"
        write_jsonl(trace, path)
        loaded = read_jsonl(path)
        assert loaded["meta"]["n_spans"] == 2
        assert loaded["meta"]["n_events"] == 3
        assert [s["name"] for s in loaded["spans"]] == ["leaf", "root"]
        assert len(loaded["metrics"]) == 3
        assert [e["name"] for e in loaded["events"]] == ["note", "trial", "trial"]

    def test_write_to_stream(self):
        trace = _sample_trace()
        stream = io.StringIO()
        write_jsonl(trace, stream)
        lines = stream.getvalue().splitlines()
        assert json.loads(lines[0])["kind"] == "meta"
        assert len(lines) == 1 + 2 + 3 + 3

    def test_read_rejects_malformed_json_mid_file(self, tmp_path):
        # Garbage *followed by* valid lines cannot be a torn final write,
        # so it still raises (only a truncated trailing line is excused).
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"kind": "meta"}\nnot json\n{"kind": "event", "name": "n", "attrs": {}}\n'
        )
        with pytest.raises(ValueError, match="line 2"):
            read_jsonl(path)

    def test_read_tolerates_truncated_final_line(self, tmp_path):
        # A process killed mid-write_jsonl tears exactly the last record:
        # the partial line is dropped and surfaced via the flag.
        path = tmp_path / "torn.jsonl"
        write_jsonl(_sample_trace(), path)
        whole = path.read_text()
        lines = whole.splitlines(keepends=True)
        path.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        loaded = read_jsonl(path)
        assert loaded["truncated"] is True
        assert [e["name"] for e in loaded["events"]] == ["note", "trial"]
        # An intact file reports truncated=False.
        path.write_text(whole)
        assert read_jsonl(path)["truncated"] is False

    def test_render_text_sections(self):
        report = render_text(_sample_trace())
        assert "== span tree ==" in report
        assert "== per-stage rollup ==" in report
        assert "== trial ledger ==" in report
        assert "== metrics ==" in report
        # Child spans indent under their parents.
        assert "\n  leaf" in report
        assert "1/2 trials accepted" in report
        assert "rejected:budget-exhausted" in report

    def test_render_text_empty_trace(self):
        with telemetry.recording() as rec:
            pass
        report = render_text(snapshot(rec))
        assert "(no spans recorded)" in report
        assert "(no AutoML trials recorded)" in report


# -------------------------------------------------------------- validation


class TestSchema:
    def test_live_trace_validates(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(_sample_trace(), path)
        assert validate_trace(path) == []

    def test_validate_instance_catches_bad_lines(self):
        assert validate_instance({"kind": "nope"}) != []
        assert validate_instance({"kind": "span", "id": 1}) != []
        assert (
            validate_instance(
                {
                    "kind": "metric",
                    "type": "counter",
                    "name": "c",
                    "value": "three",
                }
            )
            != []
        )

    def test_validate_trace_requires_single_leading_meta(self, tmp_path):
        no_meta = tmp_path / "no_meta.jsonl"
        no_meta.write_text('{"attrs": {}, "kind": "event", "name": "e"}\n')
        assert any("no meta line" in e for e in validate_trace(no_meta))

        meta = json.dumps({"kind": "meta", "version": 1})
        event = json.dumps({"kind": "event", "name": "e", "attrs": {}})
        late = tmp_path / "late_meta.jsonl"
        late.write_text(f"{event}\n{meta}\n")
        assert any("must be the first" in e for e in validate_trace(late))

        double = tmp_path / "double_meta.jsonl"
        double.write_text(f"{meta}\n{meta}\n")
        assert any("2 meta lines" in e for e in validate_trace(double))

    def test_committed_schema_is_current(self):
        """``docs/trace_schema.json`` must equal ``TRACE_SCHEMA``.

        Regenerate with::

            PYTHONPATH=src python - <<'EOF'
            import json
            from repro.telemetry.schema import TRACE_SCHEMA
            with open("docs/trace_schema.json", "w") as fh:
                json.dump(TRACE_SCHEMA, fh, indent=2, sort_keys=True)
                fh.write("\n")
            EOF
        """
        committed = json.loads(
            (REPO_ROOT / "docs" / "trace_schema.json").read_text()
        )
        assert committed == TRACE_SCHEMA


# ------------------------------------------------------------ cli surface


class TestTraceCli:
    def test_validate_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.jsonl"
        write_jsonl(_sample_trace(), path)
        assert main(["trace", "--validate", str(path)]) == 0
        assert "valid trace" in capsys.readouterr().out

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "bogus"}\n')
        assert main(["trace", "--validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_load_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.jsonl"
        write_jsonl(_sample_trace(), path)
        assert main(["trace", "--load", str(path)]) == 0
        out = capsys.readouterr().out
        assert "== span tree ==" in out
        assert "== trial ledger ==" in out

    def test_trace_requires_dataset_or_file(self, capsys):
        from repro.cli import main

        assert main(["trace"]) == 2
        assert "--dataset" in capsys.readouterr().err
