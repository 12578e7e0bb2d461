"""Tests for ``repro.bench``: the benchmark registry, runner, payload
schema, environment stamp, tolerance gate, and the ``repro-em bench``
CLI surface.

Workload specs here are synthetic (microsecond bodies inside a
``scratch_registry``); the committed quick-tier baselines at the repo
root are checked for schema validity, not re-measured.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import telemetry
from repro.bench import (
    AUTO_METRIC_POLICIES,
    BENCH_SCHEMA,
    SCHEMA_VERSION,
    BenchmarkSpec,
    MetricPolicy,
    baseline_path,
    build_payload,
    compare_payload,
    environment_stamp,
    get_spec,
    load_payload,
    load_suites,
    register,
    registered_specs,
    run_spec,
    scratch_registry,
    validate_payload,
    write_payload,
)
from repro.cli import main as cli_main
from repro.telemetry import memory_profile, peak_rss_kb

REPO_ROOT = Path(__file__).resolve().parents[1]


def _spec(name="demo", tier="quick", run=None, **kwargs):
    return BenchmarkSpec(
        name=name,
        tier=tier,
        run=run or (lambda ctx: {}),
        **kwargs,
    )


# ------------------------------------------------------------- registry


class TestRegistry:
    def test_register_and_lookup(self):
        with scratch_registry():
            spec = register(_spec("a"))
            assert get_spec("a") is spec
            assert registered_specs() == [spec]

    def test_duplicate_name_rejected(self):
        with scratch_registry():
            register(_spec("a"))
            with pytest.raises(ValueError, match="already registered"):
                register(_spec("a", tier="full"))

    def test_tier_and_only_filters(self):
        with scratch_registry():
            register(_spec("beta", tier="full"))
            register(_spec("alpha"))
            register(_spec("gamma"))
            assert [s.name for s in registered_specs()] == [
                "alpha", "beta", "gamma",
            ]
            assert [s.name for s in registered_specs(tier="full")] == ["beta"]
            assert [
                s.name for s in registered_specs(only=("gamma", "alpha"))
            ] == ["alpha", "gamma"]
            assert [
                s.name for s in registered_specs(tier="quick", only=("alpha",))
            ] == ["alpha"]

    def test_unknown_only_name_raises(self):
        with scratch_registry():
            register(_spec("a"))
            with pytest.raises(KeyError, match="nope"):
                registered_specs(only=("a", "nope"))

    def test_unknown_get_spec_raises(self):
        with scratch_registry():
            with pytest.raises(KeyError, match="unknown benchmark"):
                get_spec("missing")

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="tier"):
            _spec("a", tier="hourly")
        with pytest.raises(ValueError, match="invalid benchmark name"):
            _spec("")
        with pytest.raises(ValueError, match="invalid benchmark name"):
            _spec("a/b")
        with pytest.raises(ValueError, match="duplicate metric"):
            _spec("a", metrics=(MetricPolicy("m"), MetricPolicy("m")))
        with pytest.raises(ValueError, match="direction"):
            MetricPolicy("m", direction="sideways")
        with pytest.raises(ValueError, match="tolerance"):
            MetricPolicy("m", tolerance=-0.1)

    def test_scratch_registry_restores(self):
        load_suites()
        before = {s.name for s in registered_specs()}
        with scratch_registry():
            assert registered_specs() == []
            register(_spec("ephemeral"))
        assert {s.name for s in registered_specs()} == before
        assert "ephemeral" not in {s.name for s in registered_specs()}

    def test_policy_resolution_order(self):
        declared = MetricPolicy("wall_seconds", tolerance=0.5)
        spec = _spec("a", metrics=(declared,))
        assert spec.policy_for("wall_seconds") is declared
        auto = _spec("b").policy_for("wall_seconds")
        assert auto is AUTO_METRIC_POLICIES["wall_seconds"]
        fallback = _spec("b").policy_for("surprise")
        assert fallback.gate is False
        assert fallback.direction == "two_sided"

    def test_builtin_suites_register_idempotently(self):
        load_suites()
        load_suites()
        names = {s.name for s in registered_specs()}
        assert {"analysis", "adapter_transform", "table3"} <= names
        quick = {s.name for s in registered_specs(tier="quick")}
        full = {s.name for s in registered_specs(tier="full")}
        assert {"table1", "table2", "table3", "table4", "table5"} <= full
        assert quick.isdisjoint(full)


# --------------------------------------------------------------- runner


class TestRunner:
    def test_run_records_auto_metrics_and_detail(self):
        def body(ctx):
            # Large enough to bypass pymalloc's pools: small allocations
            # can be served from warm arenas without a traceable malloc,
            # leaving the tracemalloc peak at exactly zero.
            ballast = bytearray(256 * 1024)
            ctx.metric("answer", 42 + 0 * len(ballast))
            return {"kind": "demo"}

        result = run_spec(_spec(run=body))
        assert result.detail == {"kind": "demo"}
        assert result.metrics["answer"] == 42.0
        assert result.metrics["wall_seconds"] >= 0.0
        assert result.metrics["tracemalloc_peak_kb"] > 0.0
        assert result.name == "demo" and result.tier == "quick"

    def test_profile_memory_off(self):
        result = run_spec(_spec(run=lambda ctx: {}, profile_memory=False))
        assert "tracemalloc_peak_kb" not in result.metrics
        assert "peak_rss_kb" not in result.metrics

    def test_counters_copied_from_isolated_recorder(self):
        def body(ctx):
            telemetry.counter("demo.hits").inc(3)
            return {}

        spec = _spec(run=body, counters=("demo.hits", "demo.misses"))
        result = run_spec(spec)
        assert result.metrics["demo.hits"] == 3.0
        assert result.metrics["demo.misses"] == 0.0  # absent => 0
        # The recorder is per-run: a second run starts from zero.
        assert run_spec(spec).metrics["demo.hits"] == 3.0
        assert telemetry.active() is None

    def test_explicit_metric_overrides_auto(self):
        def body(ctx):
            ctx.metric("wall_seconds", 123.0)
            return {}

        assert run_spec(_spec(run=body)).metrics["wall_seconds"] == 123.0

    def test_non_dict_detail_rejected(self):
        with pytest.raises(TypeError, match="must return a dict"):
            run_spec(_spec(run=lambda ctx: [1, 2]))


class TestMemoryProfile:
    def test_memory_profile_fills_on_exit(self):
        with memory_profile() as profile:
            blob = [list(range(1000)) for _ in range(100)]
        assert len(blob) == 100
        assert profile.tracemalloc_peak_kb > 0.0
        assert profile.peak_rss_kb >= 0.0

    def test_peak_rss_monotone(self):
        first = peak_rss_kb()
        assert first >= 0.0
        assert peak_rss_kb() >= first


# ------------------------------------------------- payloads + the stamp


class TestPayload:
    def _result(self, **metrics):
        def body(ctx):
            for name, value in metrics.items():
                ctx.metric(name, value)
            return {"note": "synthetic"}

        policies = tuple(MetricPolicy(name) for name in metrics)
        return run_spec(_spec(run=body, metrics=policies))

    def test_build_validate_roundtrip(self, tmp_path):
        payload = build_payload(self._result(latency=1.5))
        validate_payload(payload)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["metrics"]["latency"]["value"] == 1.5
        assert payload["metrics"]["latency"]["gate"] is True

        target = write_payload(payload, baseline_path(tmp_path, "demo"))
        assert target == tmp_path / "BENCH_demo.json"
        assert load_payload(target) == json.loads(
            json.dumps(payload)
        )
        assert load_payload(tmp_path / "BENCH_absent.json") is None

    def test_invalid_payload_rejected(self):
        payload = build_payload(self._result(latency=1.5))
        del payload["environment"]
        with pytest.raises(ValueError):
            validate_payload(payload)
        payload = build_payload(self._result(latency=1.5))
        payload["metrics"]["latency"].pop("tolerance")
        with pytest.raises(ValueError):
            validate_payload(payload)

    def test_environment_stamp_stable(self):
        assert environment_stamp() == environment_stamp()
        stamp = environment_stamp()
        assert {
            "python", "implementation", "platform", "machine",
            "cpu_count", "numpy", "repro", "scale", "max_models",
        } <= stamp.keys()

    def test_committed_schema_doc_is_current(self):
        """``docs/bench_schema.json`` must equal ``BENCH_SCHEMA``.

        Regenerate with::

            PYTHONPATH=src python - <<'EOF'
            import json
            from repro.bench.schema import BENCH_SCHEMA
            with open("docs/bench_schema.json", "w") as fh:
                json.dump(BENCH_SCHEMA, fh, indent=2, sort_keys=True)
                fh.write("\n")
            EOF
        """
        committed = json.loads(
            (REPO_ROOT / "docs" / "bench_schema.json").read_text()
        )
        assert committed == BENCH_SCHEMA


# ------------------------------------------------------------- the gate


def _payload(metrics: dict[str, tuple[float, MetricPolicy]]) -> dict:
    def body(ctx):
        for name, (value, _) in metrics.items():
            ctx.metric(name, value)
        return {}

    policies = tuple(policy for _, policy in metrics.values())
    # No memory profiling: tracemalloc peaks on a synthetic no-op body
    # are tiny and jittery, and a gated auto metric would flake the
    # comparisons these tests pin down.
    return build_payload(
        run_spec(_spec(run=body, metrics=policies, profile_memory=False))
    )


class TestToleranceGate:
    def test_missing_baseline_reported_not_failed_by_metrics(self):
        current = _payload({"m": (1.0, MetricPolicy("m"))})
        comparison = compare_payload(current, None)
        assert comparison.baseline_found is False
        assert comparison.ok  # no metric failures...
        assert "NO BASELINE" in comparison.render()  # ...but loudly so

    def test_within_band_ok(self):
        policy = MetricPolicy("m", tolerance=0.25)
        baseline = _payload({"m": (1.0, policy)})
        current = _payload({"m": (1.2, policy)})
        comparison = compare_payload(current, baseline)
        assert comparison.ok
        (metric,) = [c for c in comparison.comparisons if c.name == "m"]
        assert metric.status == "ok"
        assert metric.delta == pytest.approx(0.2)

    def test_regression_names_metric_and_delta(self):
        """The acceptance check: a synthetically slowed metric fails the
        gate and the error names the metric and the relative delta."""
        policy = MetricPolicy("latency", unit="s", tolerance=0.25)
        baseline = _payload({"latency": (1.0, policy)})
        slowed = _payload({"latency": (2.0, policy)})  # +100% > +25%
        comparison = compare_payload(slowed, baseline)
        assert not comparison.ok
        (failure,) = comparison.failures
        assert failure.name == "latency"
        assert failure.status == "regression"
        assert failure.delta == pytest.approx(1.0)
        assert "latency" in failure.message
        assert "+100.0%" in failure.message
        assert "REGRESSED" in failure.message
        assert "REGRESSION" in comparison.render()

    def test_improvement_is_not_a_failure(self):
        policy = MetricPolicy("latency", tolerance=0.25)
        baseline = _payload({"latency": (2.0, policy)})
        current = _payload({"latency": (1.0, policy)})
        comparison = compare_payload(current, baseline)
        assert comparison.ok
        (metric,) = [c for c in comparison.comparisons if c.name == "latency"]
        assert metric.status == "improvement"

    def test_higher_better_direction(self):
        policy = MetricPolicy(
            "throughput", direction="higher_better", tolerance=0.25
        )
        baseline = _payload({"throughput": (100.0, policy)})
        collapsed = _payload({"throughput": (50.0, policy)})
        assert not compare_payload(collapsed, baseline).ok
        jittered = _payload({"throughput": (90.0, policy)})
        assert compare_payload(jittered, baseline).ok

    def test_two_sided_zero_tolerance(self):
        policy = MetricPolicy("count", direction="two_sided", tolerance=0.0)
        baseline = _payload({"count": (12.0, policy)})
        assert compare_payload(_payload({"count": (12.0, policy)}), baseline).ok
        assert not compare_payload(
            _payload({"count": (13.0, policy)}), baseline
        ).ok
        assert not compare_payload(
            _payload({"count": (11.0, policy)}), baseline
        ).ok

    def test_zero_baseline_uses_absolute_delta(self):
        policy = MetricPolicy("errors", direction="two_sided", tolerance=0.0)
        baseline = _payload({"errors": (0.0, policy)})
        comparison = compare_payload(
            _payload({"errors": (2.0, policy)}), baseline
        )
        assert not comparison.ok
        (failure,) = comparison.failures
        assert "absolute" in failure.message

    def test_ungated_metric_never_fails(self):
        policy = MetricPolicy("rss", gate=False)
        baseline = _payload({"rss": (100.0, policy)})
        comparison = compare_payload(
            _payload({"rss": (1000.0, policy)}), baseline
        )
        assert comparison.ok
        (metric,) = [c for c in comparison.comparisons if c.name == "rss"]
        assert metric.status == "informational"

    def test_new_metric_reported_not_failed(self):
        policy = MetricPolicy("m")
        baseline = _payload({"m": (1.0, policy)})
        current = _payload(
            {"m": (1.0, policy), "extra": (5.0, MetricPolicy("extra"))}
        )
        comparison = compare_payload(current, baseline)
        assert comparison.ok
        statuses = {c.name: c.status for c in comparison.comparisons}
        assert statuses["extra"] == "new-metric"

    def test_missing_gated_metric_fails(self):
        policy = MetricPolicy("m")
        baseline = _payload({"m": (1.0, policy)})
        current = _payload({})
        comparison = compare_payload(current, baseline)
        assert not comparison.ok
        (failure,) = comparison.failures
        assert failure.status == "missing-metric"
        assert failure.name == "m"

    def test_policies_come_from_current_payload(self):
        """A PR that tightens a tolerance re-judges the old numbers."""
        loose = MetricPolicy("m", tolerance=2.0)
        tight = MetricPolicy("m", tolerance=0.1)
        baseline = _payload({"m": (1.0, loose)})
        current = _payload({"m": (1.5, tight)})
        assert not compare_payload(current, baseline).ok

    def test_environment_mismatch_noted(self):
        policy = MetricPolicy("m", tolerance=1.0)
        baseline = _payload({"m": (1.0, policy)})
        baseline["environment"]["cpu_count"] += 1
        comparison = compare_payload(_payload({"m": (1.0, policy)}), baseline)
        assert comparison.environment_matches is False
        assert "different environment" in comparison.render()


# ------------------------------------------------------------------ cli


def _register_cli_spec(value: float = 1.0):
    def body(ctx):
        ctx.metric("latency", value)
        return {"note": "cli"}

    register(
        _spec(
            "clidemo",
            run=body,
            metrics=(MetricPolicy("latency", unit="s", tolerance=0.25),),
            profile_memory=False,
        )
    )


class TestBenchCli:
    def test_list(self, capsys):
        assert cli_main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "analysis" in out and "[quick]" in out
        assert cli_main(["bench", "--list", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert {"name", "tier", "description", "metrics"} <= listing[0].keys()

    def test_unknown_only_is_usage_error(self, capsys):
        with pytest.raises(SystemExit, match="unknown benchmark"):
            cli_main(["bench", "--only", "not_a_spec"])

    def test_update_then_gate_then_regression(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        base_dir = str(tmp_path / "base")
        common = ["--only", "clidemo", "--output-dir", out_dir,
                  "--baseline-dir", base_dir]

        with scratch_registry():
            _register_cli_spec(value=1.0)

            # No baseline yet: the run fails and says how to create one.
            assert cli_main(["bench", *common]) == 1
            assert "NO BASELINE" in capsys.readouterr().out

            assert cli_main(["bench", *common, "--update-baselines"]) == 0
            capsys.readouterr()
            baseline_file = Path(base_dir) / "BENCH_clidemo.json"
            assert baseline_file.exists()
            validate_payload(json.loads(baseline_file.read_text()))

            # Same value: within band, exit 0, snapshot emitted.
            assert cli_main(["bench", *common]) == 0
            out = capsys.readouterr().out
            assert "within tolerance" in out
            snapshot_file = Path(out_dir) / "BENCH_clidemo.json"
            assert snapshot_file.exists()

        # Synthetically slowed spec: the gate exits 1 and names the
        # metric and delta.
        with scratch_registry():
            _register_cli_spec(value=2.0)
            assert cli_main(["bench", *common]) == 1
            out = capsys.readouterr().out
            assert "latency" in out
            assert "+100.0%" in out
            assert "REGRESSED" in out

    def test_json_report(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        base_dir = str(tmp_path / "base")
        common = ["--only", "clidemo", "--output-dir", out_dir,
                  "--baseline-dir", base_dir, "--json"]
        with scratch_registry():
            _register_cli_spec(value=1.0)
            assert cli_main(["bench", *common, "--update-baselines"]) == 0
            capsys.readouterr()
            assert cli_main(["bench", *common]) == 0
            report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        (spec_report,) = report["specs"]
        assert spec_report["name"] == "clidemo"
        assert spec_report["comparison"]["ok"] is True
        assert spec_report["metrics"]["latency"] == 1.0

    def test_repro_em_bench_verb_wired(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["bench", "--list"]) == 0
        assert "analysis" in capsys.readouterr().out


# ----------------------------------------------- committed baselines


class TestCommittedBaselines:
    def test_quick_tier_baselines_committed_and_valid(self):
        """Every quick-tier spec ships a schema-valid baseline at the
        repo root, so CI's regression gate always has a reference."""
        load_suites()
        for spec in registered_specs(tier="quick"):
            path = baseline_path(REPO_ROOT, spec.name)
            assert path.exists(), (
                f"missing committed baseline {path.name}; run "
                f"`repro-em bench --only {spec.name} --update-baselines`"
            )
            payload = json.loads(path.read_text())
            validate_payload(payload)
            assert payload["name"] == spec.name
            assert payload["tier"] == "quick"
            assert payload["schema_version"] == SCHEMA_VERSION
            # Every gated declared metric is present in the baseline.
            gated = {p.name for p in spec.metrics if p.gate}
            assert gated <= payload["metrics"].keys()
