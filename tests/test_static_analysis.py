"""The repro.analysis engine: per-rule unit tests, suppression, baseline,
reporters, graphs, cache, CLI — and the tier-1 self-lint gate over ``src/``."""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisCache,
    Baseline,
    ContractError,
    EFFECT_TAGS,
    LayeringContract,
    Severity,
    all_rules,
    analysis_salt,
    analyze_project,
    apply_baseline,
    effect_analysis,
    iter_rng_flow_violations,
    render_json,
    render_text,
    suppressed_rules,
)
from repro.analysis.core import RULE_REGISTRY, SUPPRESS_ALL, Project
from repro.analysis.rules import fork_policy, seam_catalog
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src"
BASELINE_PATH = REPO_ROOT / "lint_baseline.json"


def lint_snippet(tmp_path, code, rules=None, filename="mod.py"):
    """Write one snippet and run selected rules over it."""
    target = tmp_path / filename
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(code))
    if rules is not None:
        rules = [RULE_REGISTRY[r] for r in rules]
    return analyze_project([tmp_path], rules=rules)


def rule_ids(findings):
    return [f.rule for f in findings]


def write_tree(root, files):
    """Materialize a {relative_path: source} mapping under ``root``."""
    for rel, code in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(code))
    return root


class TestRngRules:
    def test_np_random_seed_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np
            np.random.seed(42)
            """,
            rules=["RNG001"],
        )
        assert rule_ids(findings) == ["RNG001"]
        assert "global" in findings[0].message

    def test_legacy_global_draw_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np
            x = np.random.rand(3)
            state = np.random.RandomState(0)
            """,
            rules=["RNG001"],
        )
        assert rule_ids(findings) == ["RNG001", "RNG001"]

    def test_hardcoded_default_rng_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np
            a = np.random.default_rng(0)
            b = np.random.default_rng()
            c = np.random.default_rng(-7)
            """,
            rules=["RNG002"],
        )
        assert rule_ids(findings) == ["RNG002"] * 3
        assert findings[0].severity is Severity.ERROR

    def test_variable_and_scoped_seeds_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np
            from repro.config import rng_for, stable_hash

            def f(seed, cfg):
                a = np.random.default_rng(seed)
                b = np.random.default_rng(cfg.seed)
                c = np.random.default_rng(stable_hash("scope", seed))
                d = rng_for("scope", 3)
                return a, b, c, d
            """,
            rules=["RNG001", "RNG002"],
        )
        assert findings == []

    def test_repro_config_is_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np
            RNG = np.random.default_rng(0)
            """,
            rules=["RNG002"],
            filename="src/repro/config.py",
        )
        assert findings == []


class TestEstimatorRules:
    def test_fit_returning_non_self_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            class Model:
                def fit(self, X, y):
                    self.coef_ = X.mean()
                    return self.coef_
            """,
            rules=["EST001"],
        )
        assert rule_ids(findings) == ["EST001"]

    def test_fit_falling_off_the_end_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            class Model:
                def fit(self, X, y):
                    self.coef_ = X.mean()
            """,
            rules=["EST001"],
        )
        assert rule_ids(findings) == ["EST001"]

    def test_fit_nested_function_returns_ignored(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            class Model:
                def fit(self, X, y):
                    def objective(w):
                        return w * 2
                    self.w_ = objective(1.0)
                    return self
            """,
            rules=["EST001"],
        )
        assert findings == []

    def test_abstract_fit_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            class Base:
                def fit(self, X, y):
                    raise NotImplementedError
            """,
            rules=["EST001"],
        )
        assert findings == []

    def test_unguarded_predict_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            class Model:
                def fit(self, X, y):
                    self.coef_ = X.mean()
                    return self

                def predict(self, X):
                    return X @ self.coef_
            """,
            rules=["EST002"],
        )
        assert rule_ids(findings) == ["EST002"]

    @pytest.mark.parametrize(
        "body",
        [
            "check_is_fitted(self); return X",
            "self._check_fitted(); return X",
            "if not self.is_fitted: raise NotFittedError('unfitted')",
            "return self.predict_proba(X)",
            "return self.final_estimator.predict(X)",
        ],
    )
    def test_guarded_predict_clean(self, tmp_path, body):
        findings = lint_snippet(
            tmp_path,
            f"""
            class Model:
                def fit(self, X, y):
                    return self

                def predict(self, X):
                    {body}
            """,
            rules=["EST002"],
        )
        assert findings == []

    def test_private_class_skipped(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            class _Internal:
                def fit(self, X, y):
                    return self

                def predict(self, X):
                    return X
            """,
            rules=["EST002"],
        )
        assert findings == []


MINI_ESTIMATOR = """
class GoodModel:
    def __init__(self, depth: int = 3, rate: float = 0.1, seed: int = 0):
        self.depth = depth
        self.rate = rate
        self.seed = seed
"""

MINI_SEARCH_SPACE = """
from repro.ml.mini import GoodModel

_SHARED = CategoricalDim("rate", (0.1, 0.2))

FAMILY_SPACES = {{
    "good": ConfigSpace(
        "good",
        (IntDim("{dim}", 1, 8), _SHARED),
        defaults={{"{dim}": 3, "rate": 0.1}},
    ),
}}


def _build_model(family, params, seed):
    p = dict(params)
    if family == "good":
        return GoodModel(
            depth=int(p.get("{dim}", 3)),
            rate=float(p.get("rate", 0.1)),
            seed=seed,
        )
    raise ValueError(family)
"""


class TestSearchSpaceRule:
    def _mini_project(self, tmp_path, dim):
        automl = tmp_path / "src" / "repro" / "automl"
        ml = tmp_path / "src" / "repro" / "ml"
        automl.mkdir(parents=True)
        ml.mkdir(parents=True)
        (automl / "search_space.py").write_text(
            MINI_SEARCH_SPACE.format(dim=dim)
        )
        (ml / "mini.py").write_text(MINI_ESTIMATOR)
        return analyze_project([tmp_path], rules=[RULE_REGISTRY["SSP001"]])

    def test_conforming_space_clean(self, tmp_path):
        assert self._mini_project(tmp_path, "depth") == []

    def test_misnamed_hyperparameter_flagged(self, tmp_path):
        findings = self._mini_project(tmp_path, "depht")
        assert findings, "misnamed dimension must be flagged"
        assert all(f.rule == "SSP001" for f in findings)
        assert any("'depht'" in f.message for f in findings)

    def test_misnaming_in_real_search_space_fails_gate(self, tmp_path):
        """Acceptance: a typo'd hyperparameter in the real search_space.py
        must fail the lint gate."""
        root = tmp_path / "src" / "repro"
        shutil.copytree(SRC_ROOT / "repro" / "automl", root / "automl")
        shutil.copytree(SRC_ROOT / "repro" / "ml", root / "ml")
        space = root / "automl" / "search_space.py"
        text = space.read_text()
        assert 'FloatDim("learning_rate"' in text
        space.write_text(
            text.replace('FloatDim("learning_rate"', 'FloatDim("learn_rate"')
        )
        findings = analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["SSP001"]]
        )
        assert [f.rule for f in findings] == ["SSP001"]
        assert "learn_rate" in findings[0].message
        # And the gate (exit code) fails for the same tree.
        code = cli_main(
            ["lint", str(tmp_path), "--select", "SSP001", "--baseline",
             str(tmp_path / "absent.json")]
        )
        assert code == 1

    def test_real_search_space_is_conformant(self):
        findings = analyze_project(
            [SRC_ROOT], rules=[RULE_REGISTRY["SSP001"]]
        )
        assert findings == []


class TestExportRules:
    def test_undefined_export_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            __all__ = ["present", "absent"]

            def present():
                return 1
            """,
            rules=["EXP001"],
        )
        assert rule_ids(findings) == ["EXP001"]
        assert "'absent'" in findings[0].message

    def test_missing_reexport_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.sub.mod import exported, forgotten

            __all__ = ["exported"]
            """,
            rules=["EXP002"],
            filename="src/repro/sub/__init__.py",
        )
        assert rule_ids(findings) == ["EXP002"]
        assert "'forgotten'" in findings[0].message
        assert findings[0].severity is Severity.WARNING

    def test_plain_module_not_checked_for_missing(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.sub.mod import exported, forgotten

            __all__ = ["exported"]
            """,
            rules=["EXP002"],
            filename="src/repro/sub/mod2.py",
        )
        assert findings == []

    def test_dynamic_all_skipped(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            names = ["a", "b"]
            __all__ = sorted(names)
            """,
            rules=["EXP001", "EXP002"],
        )
        assert findings == []


class TestGenericRules:
    def test_mutable_default_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(items=[], lookup={}, seen=set(), ok=None, n=3):
                return items, lookup, seen, ok, n
            """,
            rules=["GEN001"],
        )
        assert rule_ids(findings) == ["GEN001"] * 3

    def test_bare_and_broad_except_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            try:
                x = 1
            except:
                pass
            try:
                y = 2
            except Exception:
                pass
            except (ValueError, BaseException):
                pass
            """,
            rules=["GEN002", "GEN003"],
        )
        assert sorted(rule_ids(findings)) == ["GEN002", "GEN003", "GEN003"]

    def test_shadowed_builtin_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(list, id=3):
                type = "x"
                return list, id, type
            """,
            rules=["GEN004"],
        )
        assert rule_ids(findings) == ["GEN004"] * 3

    def test_class_attribute_named_like_builtin_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            class Rule:
                id = "RNG001"
                format: str = "text"
            """,
            rules=["GEN004"],
        )
        assert findings == []


class TestObservabilityRule:
    def test_print_in_library_code_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def transform(rows):
                print("transforming", len(rows))
                return rows
            """,
            rules=["OBS001"],
        )
        assert rule_ids(findings) == ["OBS001"]

    def test_cli_and_reporter_modules_exempt(self, tmp_path):
        for filename in ("cli.py", "__main__.py", "reporter.py", "report.py"):
            findings = lint_snippet(
                tmp_path / filename[:-3],
                'print("stdout is my API")\n',
                rules=["OBS001"],
                filename=filename,
            )
            assert findings == [], filename

    def test_main_guard_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def work():
                return 1

            if __name__ == "__main__":
                print(work())
            """,
            rules=["OBS001"],
        )
        assert findings == []

    def test_print_outside_guard_still_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            print("module import side effect")

            if __name__ == "__main__":
                print("fine here")
            """,
            rules=["OBS001"],
        )
        assert len(findings) == 1
        assert findings[0].line == 2

    def test_shadowed_print_not_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import logging

            logger = logging.getLogger(__name__)
            log = logger.info
            log("not a print")
            """,
            rules=["OBS001"],
        )
        assert findings == []

    def test_noqa_suppresses(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            print("deliberate")  # repro: noqa[OBS001]
            """,
            rules=["OBS001"],
        )
        assert findings == []


class TestSuppression:
    def test_bare_noqa_suppresses_everything(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np
            rng = np.random.default_rng(0)  # repro: noqa
            """,
            rules=["RNG002"],
        )
        assert findings == []

    def test_rule_scoped_noqa(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np
            a = np.random.default_rng(0)  # repro: noqa[RNG002]
            b = np.random.default_rng(0)  # repro: noqa[GEN001]
            """,
            rules=["RNG002"],
        )
        # Only the line whose noqa names a different rule still fires.
        assert len(findings) == 1
        assert findings[0].line == 4

    def test_suppressed_rules_parsing(self):
        assert suppressed_rules("x = 1") == frozenset()
        assert suppressed_rules("x = 1  # repro: noqa") is SUPPRESS_ALL
        assert suppressed_rules(
            "x = 1  # repro: noqa[RNG001, est002]"
        ) == {"RNG001", "EST002"}


class TestBaseline:
    def _findings(self, tmp_path):
        return lint_snippet(
            tmp_path,
            """
            import numpy as np
            rng = np.random.default_rng(0)
            """,
            rules=["RNG002"],
        )

    def test_round_trip(self, tmp_path):
        findings = self._findings(tmp_path)
        path = tmp_path / "baseline.json"
        Baseline.from_findings(findings).save(path)
        loaded = Baseline.load(path)
        result = apply_baseline(findings, loaded)
        assert result.new == []
        assert len(result.matched) == 1
        assert result.stale == []

    def test_unbaselined_finding_gates(self, tmp_path):
        findings = self._findings(tmp_path)
        result = apply_baseline(findings, Baseline())
        assert len(result.new) == 1

    def test_stale_entries_reported(self, tmp_path):
        findings = self._findings(tmp_path)
        baseline = Baseline.from_findings(findings)
        result = apply_baseline([], baseline)
        assert result.new == []
        assert len(result.stale) == 1

    def test_missing_file_is_empty(self, tmp_path):
        assert Baseline.load(tmp_path / "nope.json").entries == []

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError):
            Baseline.load(path)


class TestReporters:
    def _result(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np
            rng = np.random.default_rng(0)
            """,
            rules=["RNG002"],
        )
        return apply_baseline(findings, Baseline())

    def test_json_reporter_structure(self, tmp_path):
        payload = json.loads(render_json(self._result(tmp_path)))
        assert payload["summary"]["new"] == 1
        assert payload["summary"]["errors"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "RNG002"
        assert finding["path"].endswith("mod.py")
        assert finding["line"] == 3

    def test_text_reporter_is_compiler_style(self, tmp_path):
        text = render_text(self._result(tmp_path))
        assert "mod.py:3:" in text
        assert "RNG002" in text
        assert "1 finding(s)" in text

    def test_clean_run_summary(self):
        text = render_text(apply_baseline([], Baseline()))
        assert "clean" in text

    def test_json_reporter_is_schema_shaped(self, tmp_path):
        """The JSON payload exposes exactly the documented keys/types,
        with findings in stable (path, line, col) order."""
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np
            rng = np.random.default_rng(0)
            np.random.seed(1)
            """,
            rules=["RNG001", "RNG002"],
        )
        payload = json.loads(render_json(apply_baseline(findings, Baseline())))
        assert set(payload) == {
            "findings", "baselined", "stale_baseline_entries", "summary"
        }
        assert set(payload["summary"]) == {
            "new", "baselined", "stale_baseline_entries",
            "errors", "warnings",
        }
        assert all(
            isinstance(value, int) for value in payload["summary"].values()
        )
        for section in ("findings", "baselined"):
            for finding in payload[section]:
                assert set(finding) == {
                    "path", "line", "col", "rule", "severity", "message"
                }
                assert isinstance(finding["line"], int)
                assert isinstance(finding["col"], int)
                assert finding["severity"] in {"error", "warning"}
                assert finding["rule"] and finding["message"]
        for stale in payload["stale_baseline_entries"]:
            assert set(stale) == {"rule", "path", "message"}
        keys = [
            (f["path"], f["line"], f["col"]) for f in payload["findings"]
        ]
        assert len(keys) == 2
        assert keys == sorted(keys)


class TestCliIntegration:
    def test_lint_clean_tree_exits_zero(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert cli_main(["lint", str(tmp_path)]) == 0

    def test_lint_dirty_tree_exits_one(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import numpy as np\nnp.random.seed(1)\n"
        )
        assert cli_main(["lint", str(tmp_path)]) == 1
        assert "RNG001" in capsys.readouterr().out

    def test_select_unknown_rule_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["lint", str(tmp_path), "--select", "NOPE99"])

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out

    def test_update_baseline_writes_file(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "import numpy as np\nnp.random.seed(1)\n"
        )
        baseline = tmp_path / "baseline.json"
        assert cli_main(
            ["lint", str(tmp_path), "--baseline", str(baseline),
             "--update-baseline"]
        ) == 0
        assert len(Baseline.load(baseline).entries) == 1
        # With the baseline in place the same tree now gates clean.
        assert cli_main(
            ["lint", str(tmp_path), "--baseline", str(baseline)]
        ) == 0

    def test_nonexistent_path_exits_two(self, tmp_path, capsys):
        code = cli_main(["lint", str(tmp_path / "no_such_dir")])
        assert code == 2
        assert "no such path" in capsys.readouterr().err

    def test_empty_target_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = cli_main(["lint", str(empty), "--no-cache"])
        assert code == 2
        assert "no python files" in capsys.readouterr().err

    def test_exit_two_is_distinct_from_findings_exit(self, tmp_path):
        """Usage errors (2) never collide with lint failures (1)."""
        (tmp_path / "bad.py").write_text(
            "import numpy as np\nnp.random.seed(1)\n"
        )
        assert cli_main(["lint", str(tmp_path), "--no-cache"]) == 1
        assert cli_main(["lint", str(tmp_path / "gone")]) == 2

    def test_corrupt_baseline_rejected(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{not json")
        with pytest.raises(SystemExit, match="invalid baseline"):
            cli_main(
                ["lint", str(tmp_path), "--baseline", str(baseline)]
            )


class TestSelfLintGate:
    """Tier-1 gate: the repo's own src/ must lint clean vs the baseline."""

    def test_src_has_zero_nonbaselined_findings(self):
        findings = analyze_project([SRC_ROOT])
        baseline = Baseline.load(BASELINE_PATH)
        result = apply_baseline(findings, baseline)
        assert result.new == [], "\n" + "\n".join(
            f.render() for f in result.new
        )

    def test_baseline_has_no_stale_entries(self):
        findings = analyze_project([SRC_ROOT])
        result = apply_baseline(findings, Baseline.load(BASELINE_PATH))
        assert result.stale == []

    def test_rng_rules_ship_with_empty_baseline(self):
        """The RNG findings were fixed, not grandfathered."""
        baseline = Baseline.load(BASELINE_PATH)
        rng_entries = [
            e for e in baseline.entries if e["rule"].startswith("RNG")
        ]
        assert rng_entries == []


class TestImportGraphs:
    def _graph(self, tmp_path, files):
        write_tree(tmp_path, files)
        return Project.load([tmp_path]).import_graph()

    def test_plain_and_from_imports_become_edges(self, tmp_path):
        graph = self._graph(tmp_path, {
            "src/repro/pkg/__init__.py": """
                from repro.pkg.mod import helper

                __all__ = ["helper"]
                """,
            "src/repro/pkg/mod.py": """
                def helper():
                    return 1
                """,
            "src/repro/use.py": """
                import repro.pkg

                X = repro.pkg.helper()
                """,
        })
        edges = {(e.source, e.target) for e in graph.internal_edges()}
        assert ("repro.pkg", "repro.pkg.mod") in edges
        assert ("repro.use", "repro.pkg") in edges

    def test_from_import_of_submodule_resolves_to_it(self, tmp_path):
        """``from pkg import mod`` targets the submodule, not the package —
        otherwise every facade import would look like a package cycle."""
        graph = self._graph(tmp_path, {
            "src/repro/pkg/__init__.py": "",
            "src/repro/pkg/mod.py": "def f():\n    return 1\n",
            "src/repro/use.py": """
                from repro.pkg import mod

                Y = mod.f()
                """,
        })
        edges = {(e.source, e.target) for e in graph.internal_edges()}
        assert ("repro.use", "repro.pkg.mod") in edges
        assert ("repro.use", "repro.pkg") not in edges

    def test_external_imports_are_not_internal_edges(self, tmp_path):
        graph = self._graph(tmp_path, {
            "src/repro/solo.py": "import numpy as np\nZ = np.zeros(1)\n",
        })
        assert graph.internal_edges() == []

    def test_top_level_cycle_detected(self, tmp_path):
        graph = self._graph(tmp_path, {
            "src/repro/a.py": "import repro.b\n",
            "src/repro/b.py": "import repro.a\n",
        })
        assert graph.cycles() == [["repro.a", "repro.b"]]

    def test_lazy_import_breaks_the_cycle(self, tmp_path):
        graph = self._graph(tmp_path, {
            "src/repro/a.py": "import repro.b\n",
            "src/repro/b.py": """
                def late():
                    import repro.a
                    return repro.a
                """,
        })
        assert graph.cycles() == []

    def test_to_dot_is_valid_graphviz(self, tmp_path):
        dot = self._graph(tmp_path, {
            "src/repro/a.py": "import repro.b\n",
            "src/repro/b.py": "x = 1\n",
        }).to_dot()
        lines = dot.splitlines()
        assert lines[0] == "digraph repro_imports_module {"
        assert lines[-1] == "}"
        assert '  "repro.a" -> "repro.b";' in lines
        assert dot.count("{") == dot.count("}") == 1

    def test_to_json_shape(self, tmp_path):
        payload = json.loads(self._graph(tmp_path, {
            "src/repro/a.py": "import repro.b\n",
            "src/repro/b.py": "x = 1\n",
        }).to_json())
        assert set(payload) == {"level", "nodes", "edges", "cycles"}
        assert payload["level"] == "module"
        assert payload["nodes"] == ["repro.a", "repro.b"]
        assert payload["edges"] == [
            {"source": "repro.a", "target": "repro.b"}
        ]
        assert payload["cycles"] == []

    def test_package_level_aggregation(self, tmp_path):
        payload = json.loads(self._graph(tmp_path, {
            "src/repro/pkg/__init__.py": "",
            "src/repro/pkg/inner.py": "import repro.other.mod\n",
            "src/repro/other/__init__.py": "",
            "src/repro/other/mod.py": "x = 1\n",
        }).to_json(level="package"))
        assert payload["nodes"] == ["repro.other", "repro.pkg"]
        assert payload["edges"] == [
            {"source": "repro.pkg", "target": "repro.other"}
        ]

    def test_module_summary_round_trips_through_json(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/m.py": """
                import numpy as np
                from repro.other import thing

                __all__ = ["run"]

                def run(data, rng=None):
                    out = thing(data, rng=rng)
                    return np.asarray(out)
                """,
        })
        summary = Project.load([tmp_path]).summaries["repro.m"]
        clone = type(summary).from_dict(
            json.loads(json.dumps(summary.to_dict()))
        )
        assert clone == summary


class TestLayeringContract:
    def test_parse_and_longest_prefix_wins(self):
        contract = LayeringContract.parse(
            "# comment\n"
            "layer low: repro.base\n"
            "layer high: repro.base.special repro.top\n"
        )
        assert contract.layer_of("repro.base.mod") == (0, "low")
        assert contract.layer_of("repro.base.special.mod") == (1, "high")
        assert contract.layer_of("repro.top") == (1, "high")
        assert contract.layer_of("unrelated.mod") is None

    def test_malformed_line_rejected(self):
        with pytest.raises(ContractError, match="expected 'layer"):
            LayeringContract.parse("stratum low: repro.base\n")

    def test_duplicate_package_rejected(self):
        with pytest.raises(ContractError, match="already assigned"):
            LayeringContract.parse(
                "layer a: repro.x\nlayer b: repro.x\n"
            )

    def test_find_walks_upward(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "ARCHITECTURE_CONTRACT").write_text(
            "layer only: repro\n"
        )
        nested = tmp_path / "src" / "repro"
        nested.mkdir(parents=True)
        contract = LayeringContract.find(nested)
        assert contract is not None
        assert contract.layer_of("repro.mod") == (0, "only")
        assert LayeringContract.find(Path("/nonexistent-root")) is None

    def test_real_contract_covers_every_module(self):
        """Every module under src/ must belong to some declared layer."""
        contract = LayeringContract.find(REPO_ROOT)
        assert contract is not None
        for module in Project.load([SRC_ROOT]).summaries:
            assert contract.layer_of(module) is not None, module


class TestArchitectureRules:
    CONTRACT = "layer low: repro.base\nlayer high: repro.top\n"

    def _lint(self, tmp_path, files, rule):
        write_tree(tmp_path, files)
        return analyze_project([tmp_path], rules=[RULE_REGISTRY[rule]])

    def test_layering_inversion_flagged(self, tmp_path):
        findings = self._lint(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": self.CONTRACT,
            "src/repro/base.py": "import repro.top\n",
            "src/repro/top.py": "x = 1\n",
        }, "ARC001")
        assert rule_ids(findings) == ["ARC001"]
        assert "layering inversion" in findings[0].message
        assert "repro.base" in findings[0].message
        assert findings[0].severity is Severity.ERROR

    def test_downward_import_conforms(self, tmp_path):
        findings = self._lint(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": self.CONTRACT,
            "src/repro/base.py": "x = 1\n",
            "src/repro/top.py": "import repro.base\n",
        }, "ARC001")
        assert findings == []

    def test_missing_contract_skips_arc001(self, tmp_path):
        findings = self._lint(tmp_path, {
            "src/repro/base.py": "import repro.top\n",
            "src/repro/top.py": "x = 1\n",
        }, "ARC001")
        assert findings == []

    def test_unparseable_contract_is_a_finding(self, tmp_path):
        findings = self._lint(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": "not a layer line\n",
            "src/repro/base.py": "x = 1\n",
        }, "ARC001")
        assert rule_ids(findings) == ["ARC001"]
        assert "unparseable layering contract" in findings[0].message

    def test_import_cycle_flagged_once_per_scc(self, tmp_path):
        findings = self._lint(tmp_path, {
            "src/repro/a.py": "import repro.b\n",
            "src/repro/b.py": "import repro.a\n",
        }, "ARC002")
        assert rule_ids(findings) == ["ARC002"]
        assert "repro.a -> repro.b -> repro.a" in findings[0].message

    def test_lazy_import_cycle_not_flagged(self, tmp_path):
        findings = self._lint(tmp_path, {
            "src/repro/a.py": "import repro.b\n",
            "src/repro/b.py": (
                "def late():\n    import repro.a\n    return repro.a\n"
            ),
        }, "ARC002")
        assert findings == []


CONSUMER_MODULE = """
def consume(data, rng=None):
    return data
"""


class TestRngFlow:
    def _violations(self, tmp_path, files):
        write_tree(tmp_path, files)
        return list(
            iter_rng_flow_violations(Project.load([tmp_path]).summaries)
        )

    def test_dropped_rng_across_modules_flagged(self, tmp_path):
        violations = self._violations(tmp_path, {
            "src/repro/maker.py": CONSUMER_MODULE,
            "src/repro/driver.py": """
                from repro.maker import consume

                def run(rng):
                    return consume([1])
                """,
        })
        (violation,) = violations
        assert violation.caller == "run"
        assert violation.callee_module == "repro.maker"
        assert violation.callee_qualname == "consume"
        assert violation.held == ("rng",)
        assert violation.dropped == ("rng",)

    def test_forwarded_rng_clean(self, tmp_path):
        assert self._violations(tmp_path, {
            "src/repro/maker.py": CONSUMER_MODULE,
            "src/repro/driver.py": """
                from repro.maker import consume

                def run(rng):
                    return consume([1], rng=rng)
                """,
        }) == []

    def test_positional_forwarding_counts(self, tmp_path):
        assert self._violations(tmp_path, {
            "src/repro/maker.py": CONSUMER_MODULE,
            "src/repro/driver.py": """
                from repro.maker import consume

                def run(rng):
                    return consume([1], rng)
                """,
        }) == []

    def test_explicit_rng_none_counts_as_a_decision(self, tmp_path):
        assert self._violations(tmp_path, {
            "src/repro/maker.py": CONSUMER_MODULE,
            "src/repro/driver.py": """
                from repro.maker import consume

                def run(rng):
                    return consume([1], rng=None)
                """,
        }) == []

    def test_local_seeded_state_is_held(self, tmp_path):
        violations = self._violations(tmp_path, {
            "src/repro/maker.py": CONSUMER_MODULE,
            "src/repro/driver.py": """
                import numpy as np
                from repro.maker import consume

                def run(seed):
                    rng = np.random.default_rng(seed)
                    return consume([1])
                """,
        })
        assert len(violations) == 1
        assert set(violations[0].held) == {"rng", "seed"}

    def test_self_method_call_resolved(self, tmp_path):
        violations = self._violations(tmp_path, {
            "src/repro/sampler.py": """
                class Sampler:
                    def draw(self, n, rng=None):
                        return n

                    def run(self, rng):
                        return self.draw(3)
                """,
        })
        (violation,) = violations
        assert violation.caller == "Sampler.run"
        assert violation.callee_qualname == "Sampler.draw"

    def test_constructor_call_resolves_to_init(self, tmp_path):
        violations = self._violations(tmp_path, {
            "src/repro/maker.py": """
                class Gen:
                    def __init__(self, seed=0):
                        self.seed = seed
                """,
            "src/repro/driver.py": """
                from repro.maker import Gen

                def build(seed):
                    return Gen()
                """,
        })
        (violation,) = violations
        assert violation.callee_qualname == "Gen.__init__"
        assert violation.callee_display == "Gen()"

    def test_repro_config_callees_exempt(self, tmp_path):
        assert self._violations(tmp_path, {
            "src/repro/config.py": """
                def rng_for(scope, seed=None):
                    return (scope, seed)
                """,
            "src/repro/driver.py": """
                from repro.config import rng_for

                def run(seed):
                    return rng_for("scope")
                """,
        }) == []

    def test_rng010_fires_through_the_rule_pack(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/maker.py": CONSUMER_MODULE,
            "src/repro/driver.py": """
                from repro.maker import consume

                def run(rng):
                    return consume([1])
                """,
        })
        findings = analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["RNG010"]]
        )
        assert rule_ids(findings) == ["RNG010"]
        assert findings[0].severity is Severity.ERROR
        assert "without forwarding" in findings[0].message


class TestDeadCodeRules:
    def _lint(self, tmp_path, files, rule):
        write_tree(tmp_path, files)
        return analyze_project([tmp_path], rules=[RULE_REGISTRY[rule]])

    def test_unreferenced_private_function_flagged(self, tmp_path):
        findings = self._lint(tmp_path, {
            "src/repro/util.py": """
                def _orphan():
                    return 1

                def public():
                    return 2
                """,
        }, "DEAD001")
        assert rule_ids(findings) == ["DEAD001"]
        assert "'_orphan'" in findings[0].message

    def test_unclaimed_public_symbol_flagged_with_all(self, tmp_path):
        findings = self._lint(tmp_path, {
            "src/repro/util.py": """
                __all__ = ["keep"]

                def keep():
                    return 1

                def gone():
                    return 2
                """,
        }, "DEAD001")
        assert rule_ids(findings) == ["DEAD001"]
        assert "'gone'" in findings[0].message

    def test_reference_from_any_module_keeps_alive(self, tmp_path):
        assert self._lint(tmp_path, {
            "src/repro/util.py": "def _helper():\n    return 1\n",
            "src/repro/use.py": """
                from repro.util import _helper

                X = _helper()
                """,
        }, "DEAD001") == []

    def test_decorated_symbols_exempt(self, tmp_path):
        assert self._lint(tmp_path, {
            "src/repro/util.py": """
                import functools

                @functools.cache
                def _registered():
                    return 1
                """,
        }, "DEAD001") == []

    def test_unreachable_export_flagged(self, tmp_path):
        findings = self._lint(tmp_path, {
            "src/repro/pkg/__init__.py": """
                from repro.pkg.mod import shared

                __all__ = ["shared"]
                """,
            "src/repro/pkg/mod.py": """
                __all__ = ["lonely", "shared"]

                def lonely():
                    return 1

                def shared():
                    return 2
                """,
        }, "DEAD002")
        assert rule_ids(findings) == ["DEAD002"]
        assert "'lonely'" in findings[0].message

    def test_parent_reexport_makes_export_reachable(self, tmp_path):
        assert self._lint(tmp_path, {
            "src/repro/pkg/__init__.py": """
                from repro.pkg.mod import shared

                __all__ = ["shared"]
                """,
            "src/repro/pkg/mod.py": """
                __all__ = ["shared"]

                def shared():
                    return 2
                """,
        }, "DEAD002") == []

    def test_package_init_exports_exempt(self, tmp_path):
        assert self._lint(tmp_path, {
            "src/repro/pkg/__init__.py": """
                __all__ = ["facade_only"]

                def facade_only():
                    return 1
                """,
        }, "DEAD002") == []

    def test_private_module_exports_exempt(self, tmp_path):
        assert self._lint(tmp_path, {
            "src/repro/pkg/__init__.py": "",
            "src/repro/pkg/_impl.py": """
                __all__ = ["internal"]

                def internal():
                    return 1
                """,
        }, "DEAD002") == []


class TestAnalysisCacheBehavior:
    BAD = "import numpy as np\nnp.random.seed(1)\n"

    def _run(self, src, cache_dir, rules=("RNG001",)):
        cache = AnalysisCache(cache_dir)
        findings = analyze_project(
            [src],
            rules=[RULE_REGISTRY[r] for r in rules],
            cache=cache,
        )
        return findings, cache

    def test_warm_run_replays_identical_findings(self, tmp_path):
        src = write_tree(tmp_path / "proj", {"src/mod.py": self.BAD})
        cache_dir = tmp_path / "cache"
        cold, first = self._run(src, cache_dir)
        assert first.misses > 0
        assert (cache_dir / "analysis-cache.json").is_file()
        warm, second = self._run(src, cache_dir)
        assert second.hits == 1
        assert second.misses == 0
        assert [f.to_dict() for f in warm] == [f.to_dict() for f in cold]

    def test_pure_hit_run_does_not_rewrite_cache(self, tmp_path):
        src = write_tree(tmp_path / "proj", {"src/mod.py": self.BAD})
        cache_dir = tmp_path / "cache"
        self._run(src, cache_dir)
        payload = (cache_dir / "analysis-cache.json").read_bytes()
        _, second = self._run(src, cache_dir)
        assert second.dirty is False
        assert (cache_dir / "analysis-cache.json").read_bytes() == payload

    def test_edited_file_invalidates_entry(self, tmp_path):
        src = write_tree(tmp_path / "proj", {"src/mod.py": self.BAD})
        cache_dir = tmp_path / "cache"
        cold, _ = self._run(src, cache_dir)
        assert len(cold) == 1
        (src / "src" / "mod.py").write_text(
            self.BAD + "np.random.seed(2)  # second offense\n"
        )
        warm, cache = self._run(src, cache_dir)
        assert cache.misses == 1
        assert len(warm) == 2

    def test_corrupt_cache_degrades_to_cold_run(self, tmp_path):
        src = write_tree(tmp_path / "proj", {"src/mod.py": self.BAD})
        cache_dir = tmp_path / "cache"
        self._run(src, cache_dir)
        (cache_dir / "analysis-cache.json").write_text("{not json")
        findings, cache = self._run(src, cache_dir)
        assert cache.hits == 0
        assert len(findings) == 1

    def test_cached_summaries_rebuild_whole_program_rules(self, tmp_path):
        """Project rules must see identical graphs from cache-served
        summaries — no reparse, same findings."""
        src = write_tree(tmp_path / "proj", {
            "src/repro/a.py": "import repro.b\n",
            "src/repro/b.py": "import repro.a\n",
        })
        cache_dir = tmp_path / "cache"
        cold, _ = self._run(src, cache_dir, rules=("ARC002",))
        warm, cache = self._run(src, cache_dir, rules=("ARC002",))
        assert cache.hits == 2 and cache.misses == 0
        assert [f.to_dict() for f in warm] == [f.to_dict() for f in cold]
        assert rule_ids(warm) == ["ARC002"]


GIT_ENV = ["git", "-c", "user.email=em@repro.test", "-c", "user.name=repro"]


class TestChangedMode:
    def _git(self, cwd, *argv):
        proc = subprocess.run(
            [*GIT_ENV, *argv], cwd=cwd, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def _repo(self, tmp_path):
        self._git(tmp_path, "init", "-q")
        (tmp_path / "committed.py").write_text(
            "import numpy as np\nnp.random.seed(1)\n"
        )
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-qm", "seed")
        return tmp_path

    def test_untouched_findings_out_of_scope(self, tmp_path, monkeypatch,
                                             capsys):
        """A committed, unchanged offender is invisible to --changed but
        still caught by a full run."""
        repo = self._repo(tmp_path)
        monkeypatch.chdir(repo)
        assert cli_main(["lint", ".", "--changed", "--no-cache"]) == 0
        capsys.readouterr()
        assert cli_main(["lint", ".", "--no-cache"]) == 1
        assert "RNG001" in capsys.readouterr().out

    def test_changed_file_is_linted(self, tmp_path, monkeypatch, capsys):
        repo = self._repo(tmp_path)
        (repo / "fresh.py").write_text(
            "import numpy as np\nnp.random.seed(2)\n"
        )
        monkeypatch.chdir(repo)
        assert cli_main(["lint", ".", "--changed", "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "fresh.py" in out
        assert "committed.py" not in out

    def test_changed_scopes_to_requested_paths(self, tmp_path, monkeypatch,
                                               capsys):
        repo = self._repo(tmp_path)
        write_tree(repo, {
            "inside/bad.py": "import numpy as np\nnp.random.seed(3)\n",
            "outside/bad.py": "import numpy as np\nnp.random.seed(4)\n",
        })
        monkeypatch.chdir(repo)
        assert cli_main(["lint", "inside", "--changed", "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "inside" in out and "outside" not in out

    def test_changed_update_baseline_rejected(self, tmp_path, monkeypatch,
                                              capsys):
        repo = self._repo(tmp_path)
        monkeypatch.chdir(repo)
        code = cli_main(
            ["lint", ".", "--changed", "--update-baseline", "--no-cache"]
        )
        assert code == 2
        assert "cannot update the baseline" in capsys.readouterr().err

    def test_outside_git_falls_back_to_full_run(self, tmp_path, monkeypatch,
                                                capsys):
        (tmp_path / "bad.py").write_text(
            "import numpy as np\nnp.random.seed(1)\n"
        )
        monkeypatch.chdir(tmp_path)
        assert cli_main(["lint", ".", "--changed", "--no-cache"]) == 1
        assert "RNG001" in capsys.readouterr().out


class TestGraphCli:
    FILES = {
        "src/repro/a.py": "import repro.b\n",
        "src/repro/b.py": "x = 1\n",
    }

    def test_graph_dot_emits_valid_graphviz(self, tmp_path, capsys):
        write_tree(tmp_path, self.FILES)
        code = cli_main(["lint", str(tmp_path), "--graph", "dot",
                         "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph repro_imports_module {")
        assert '"repro.a" -> "repro.b";' in out
        assert out.rstrip().endswith("}")

    def test_graph_json_parses(self, tmp_path, capsys):
        write_tree(tmp_path, self.FILES)
        code = cli_main(["lint", str(tmp_path), "--graph", "json",
                         "--no-cache"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["edges"] == [
            {"source": "repro.a", "target": "repro.b"}
        ]

    def test_graph_package_level(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "src/repro/pkg/__init__.py": "",
            "src/repro/pkg/inner.py": "import repro.other.mod\n",
            "src/repro/other/__init__.py": "",
            "src/repro/other/mod.py": "x = 1\n",
        })
        code = cli_main(["lint", str(tmp_path), "--graph", "json",
                         "--graph-level", "package", "--no-cache"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["level"] == "package"
        assert payload["nodes"] == ["repro.other", "repro.pkg"]

    def test_committed_dot_diagram_is_current(self, capsys):
        """docs/import_graph.dot must match the graph the code produces."""
        committed = (REPO_ROOT / "docs" / "import_graph.dot").read_text()
        graph = Project.load([SRC_ROOT]).import_graph()
        assert committed == graph.to_dot(level="package")

# --------------------------------------------------------------------------
# Effect lattice + fixpoint propagation (the DET/SEAM/FORK substrate)


class TestEffectEngine:
    def _analysis(self, tmp_path, files):
        write_tree(tmp_path, files)
        project = Project.load([tmp_path])
        return project, effect_analysis(project)

    def test_effect_tags_are_the_documented_lattice(self):
        assert EFFECT_TAGS == (
            "clock", "env", "random", "order", "io", "process"
        )

    def test_direct_sites_classified(self, tmp_path):
        _, analysis = self._analysis(tmp_path, {
            "src/repro/util.py": """
                import os
                import time

                def stamp():
                    return time.time()

                def knob():
                    return os.environ.get("X")

                def listing(d):
                    return os.listdir(d)
                """,
        })
        fx = analysis.function_effects
        assert fx("repro.util", "stamp") == frozenset({"clock"})
        assert fx("repro.util", "knob") == frozenset({"env"})
        assert fx("repro.util", "listing") == frozenset({"order"})

    def test_effects_propagate_to_callers(self, tmp_path):
        _, analysis = self._analysis(tmp_path, {
            "src/repro/util.py": """
                import time

                def leaf():
                    return time.time()

                def middle():
                    return leaf()

                def top():
                    return middle()
                """,
        })
        assert "clock" in analysis.function_effects("repro.util", "top")
        assert ("repro.util", "top") not in {
            (m, q)
            for m, q in []
        }  # direct sites stay at the leaf:
        owners = [s.owner for s in analysis.direct_sites("repro.util")]
        assert owners == ["repro.util.leaf"]

    def test_sorted_wrapper_exempts_order_effect(self, tmp_path):
        _, analysis = self._analysis(tmp_path, {
            "src/repro/util.py": """
                import os

                def tidy(d):
                    return sorted(os.listdir(d))

                def messy(d):
                    return os.listdir(d)
                """,
        })
        assert analysis.function_effects("repro.util", "tidy") == frozenset()
        assert analysis.function_effects("repro.util", "messy") == {"order"}

    def test_set_iteration_is_an_order_effect(self, tmp_path):
        _, analysis = self._analysis(tmp_path, {
            "src/repro/util.py": """
                def walk(items):
                    for item in set(items):
                        yield item
                """,
        })
        (site,) = analysis.direct_sites("repro.util")
        assert site.tag == "order"
        assert "set" in site.detail

    def test_unseeded_default_rng_is_random_seeded_is_not(self, tmp_path):
        _, analysis = self._analysis(tmp_path, {
            "src/repro/util.py": """
                import numpy as np

                def ambient():
                    return np.random.default_rng()

                def pinned(seed):
                    return np.random.default_rng(seed)
                """,
        })
        assert analysis.function_effects("repro.util", "ambient") == {"random"}
        assert analysis.function_effects("repro.util", "pinned") == frozenset()

    def test_unknown_tag_rejected(self, tmp_path):
        _, analysis = self._analysis(tmp_path, {
            "src/repro/util.py": "x = 1\n",
        })
        with pytest.raises(ValueError):
            analysis.effect_functions("spooky")

    def test_summary_new_fields_round_trip_through_json(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/util.py": """
                import time

                from repro import faults

                _CACHE = {}

                def seam(path):
                    def _write():
                        faults.checkpoint("store.write", path=path)
                    faults.io_retry(_write, "store")

                def stamp():
                    try:
                        return time.time()
                    except OSError:
                        return 0.0
                """,
        })
        project = Project.load([tmp_path])
        summary = project.summaries["repro.util"]
        from repro.analysis import ModuleSummary

        clone = ModuleSummary.from_dict(
            json.loads(json.dumps(summary.to_dict()))
        )
        assert clone == summary
        assert clone.globals_info == (("_CACHE", "mutable", 6),)
        info = clone.functions["stamp"]
        assert info.caught == ("OSError",)
        assert any(tag == "clock" for tag, *_ in info.effects)
        seam_info = clone.functions["seam"]
        assert seam_info.retry_wraps == (("_write", "store", 11),)


# --------------------------------------------------------------------------
# Contract directives


class TestContractDirectives:
    def test_directives_parse_and_accumulate(self):
        contract = LayeringContract.parse(
            """
            layer base: repro.config
            core determinism: repro.experiments
            core determinism: repro.parallel
            seam raises: store report.store
            """,
            source="inline",
        )
        assert contract.directive("core determinism") == (
            "repro.experiments", "repro.parallel"
        )
        assert contract.directive("seam raises") == ("store", "report.store")
        assert contract.directive("fork entrypoints") == ()

    def test_empty_directive_value_rejected(self):
        with pytest.raises(ContractError):
            LayeringContract.parse("core determinism:\n", source="inline")

    def test_unknown_keyword_still_reports_layer_expectation(self):
        with pytest.raises(ContractError, match="expected 'layer"):
            LayeringContract.parse("flavor town: repro\n", source="inline")


# --------------------------------------------------------------------------
# DET001-DET004: determinism taint over the core's import closure

DET_FILES = {
    "src/repro/experiments/runner.py": """
        from repro.util import stamp

        def run():
            return stamp()
        """,
    "src/repro/util.py": """
        import time

        def stamp():
            return time.time()
        """,
}


class TestDeterminismRules:
    def test_clock_reachable_from_core_flagged_at_source(self, tmp_path):
        write_tree(tmp_path, DET_FILES)
        findings = analyze_project([tmp_path], rules=[RULE_REGISTRY["DET001"]])
        (finding,) = findings
        assert finding.rule == "DET001"
        assert finding.path == "src/repro/util.py"
        assert finding.line == 5  # the time.time() call, not the caller
        assert "repro.util.stamp" in finding.message
        assert "telemetry.wallclock()" in finding.message

    def test_propagation_chain_rendered_from_core(self, tmp_path):
        write_tree(tmp_path, DET_FILES)
        (finding,) = analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["DET001"]]
        )
        assert (
            "repro.experiments.runner.run -> repro.util.stamp"
            in finding.message
        )

    def test_module_unreachable_from_core_not_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/offline.py": DET_FILES["src/repro/util.py"],
        })
        assert analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["DET001"]]
        ) == []

    def test_exempt_package_not_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/experiments/runner.py": """
                from repro.telemetry.spans import stamp

                def run():
                    return stamp()
                """,
            "src/repro/telemetry/spans.py": DET_FILES["src/repro/util.py"],
        })
        assert analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["DET001"]]
        ) == []

    def test_contract_core_directive_overrides_default(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/offline.py": DET_FILES["src/repro/util.py"],
            "src/repro/driver.py": """
                import repro.offline
                """,
            "docs/ARCHITECTURE_CONTRACT": """
                core determinism: repro.driver
                """,
        })
        (finding,) = analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["DET001"]]
        )
        assert finding.path == "src/repro/offline.py"

    def test_env_random_and_order_families_fire(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/experiments/runner.py": """
                from repro.util import knob, roll, walk

                def run(d):
                    return knob(), roll(), walk(d)
                """,
            "src/repro/util.py": """
                import os
                import random

                def knob():
                    return os.environ.get("X")

                def roll():
                    return random.random()

                def walk(d):
                    return list(os.listdir(d))
                """,
        })
        findings = analyze_project(
            [tmp_path],
            rules=[RULE_REGISTRY[r] for r in ("DET002", "DET003", "DET004")],
        )
        assert sorted(rule_ids(findings)) == ["DET002", "DET003", "DET004"]


# --------------------------------------------------------------------------
# noqa placement for inter-procedural findings

class TestInterProceduralSuppression:
    def test_rng010_noqa_sits_on_the_caller_call_site(self, tmp_path):
        files = {
            "src/repro/maker.py": CONSUMER_MODULE,
            "src/repro/driver.py": """
                from repro.maker import consume

                def run(rng):
                    return consume([1])  # repro: noqa[RNG010]
                """,
        }
        write_tree(tmp_path, files)
        assert analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["RNG010"]]
        ) == []

    def test_det_noqa_sits_on_the_propagation_source(self, tmp_path):
        files = dict(DET_FILES)
        files["src/repro/util.py"] = """
            import time

            def stamp():
                return time.time()  # repro: noqa[DET001]
            """
        write_tree(tmp_path, files)
        assert analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["DET001"]]
        ) == []

    def test_det_noqa_on_the_caller_does_not_suppress(self, tmp_path):
        files = dict(DET_FILES)
        files["src/repro/experiments/runner.py"] = """
            from repro.util import stamp

            def run():
                return stamp()  # repro: noqa[DET001]
            """
        write_tree(tmp_path, files)
        findings = analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["DET001"]]
        )
        assert rule_ids(findings) == ["DET001"]

    def test_seam_noqa_sits_on_the_io_call(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/faults/plan.py": SEAM_PLAN,
            "src/repro/store.py": """
                def dump(path, text):
                    with open(path, "w") as handle:  # repro: noqa[SEAM001]
                        handle.write(text)
                """,
        })
        assert analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["SEAM001"]]
        ) == []

    def test_fork_noqa_sits_on_the_global_binding(self, tmp_path):
        files = dict(FORK_FILES)
        files["src/repro/pool/worker.py"] = """
            _CACHE = {}  # repro: noqa[FORK001]

            def run_cell(x):
                _CACHE[x] = x
                return _CACHE[x]
            """
        write_tree(tmp_path, files)
        assert analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["FORK001"]]
        ) == []

# --------------------------------------------------------------------------
# SEAM001-SEAM003: fault-seam coverage

SEAM_PLAN = """
    CATALOG: dict[str, str] = {
        "store.write": "io",
        "store.replace": "io",
        "cache.read": "corrupt",
    }
    """


class TestSeamRules:
    def test_family_disarmed_without_a_fault_catalog(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/store.py": """
                def dump(path, text):
                    with open(path, "w") as handle:
                        handle.write(text)
                """,
        })
        assert analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["SEAM001"]]
        ) == []

    def test_unseamed_io_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/faults/plan.py": SEAM_PLAN,
            "src/repro/store.py": """
                def dump(path, text):
                    with open(path, "w") as handle:
                        handle.write(text)
                """,
        })
        (finding,) = analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["SEAM001"]]
        )
        assert finding.rule == "SEAM001"
        assert finding.path == "src/repro/store.py"
        assert "repro.store.dump" in finding.message

    def test_checkpointed_function_clean(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/faults/plan.py": SEAM_PLAN,
            "src/repro/store.py": """
                from repro import faults

                def dump(path, text):
                    faults.checkpoint("store.write", path=str(path))
                    with open(path, "w") as handle:
                        handle.write(text)
                """,
        })
        assert analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["SEAM001"]]
        ) == []

    def test_io_retry_operand_clean(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/faults/plan.py": SEAM_PLAN,
            "src/repro/store.py": """
                from repro import faults

                def dump(path, text):
                    def _write():
                        with open(path, "w") as handle:
                            handle.write(text)
                    faults.io_retry(_write, "store")
                """,
        })
        assert analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["SEAM001"]]
        ) == []

    def test_module_level_io_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/faults/plan.py": SEAM_PLAN,
            "src/repro/store.py": """
                BANNER = open("/etc/hostname").read()
                """,
        })
        (finding,) = analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["SEAM001"]]
        )
        assert "import time" in finding.message

    def test_uncataloged_checkpoint_is_drift(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/faults/plan.py": SEAM_PLAN,
            "src/repro/store.py": """
                from repro import faults

                def read(path):
                    faults.checkpoint("mystery.read", path=str(path))
                    return path
                """,
        })
        findings = analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["SEAM002"]]
        )
        assert any(
            f.path == "src/repro/store.py" and "mystery.read" in f.message
            for f in findings
        )

    def test_dead_catalog_entry_fails_lint(self, tmp_path):
        """Catalog/code drift is a lint error anchored in the plan file."""
        write_tree(tmp_path, {
            "src/repro/faults/plan.py": SEAM_PLAN,
            "src/repro/store.py": """
                from repro import faults

                def dump(path, text):
                    faults.checkpoint("store.write", path=str(path))
                    faults.checkpoint("store.replace", path=str(path))
                    return text
                """,
        })
        (finding,) = analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["SEAM002"]]
        )
        assert finding.path == "src/repro/faults/plan.py"
        assert "'cache.read'" in finding.message
        assert "no live checkpoint" in finding.message

    def test_catalog_and_code_in_sync_clean(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/faults/plan.py": SEAM_PLAN,
            "src/repro/store.py": """
                from repro import faults

                def dump(path, text):
                    def _write():
                        return text
                    faults.io_retry(_write, "store")

                def read(path):
                    faults.checkpoint("cache.read", path=str(path))
                    return path
                """,
        })
        assert analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["SEAM002"]]
        ) == []

    def test_corrupt_seam_needs_in_function_recovery(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/faults/plan.py": SEAM_PLAN,
            "src/repro/store.py": """
                from repro import faults

                def read(path):
                    faults.checkpoint("cache.read", path=str(path))
                    return path.read_text()
                """,
        })
        (finding,) = analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["SEAM003"]]
        )
        assert "mark_recovered" in finding.message

    def test_corrupt_seam_with_recovery_clean(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/faults/plan.py": SEAM_PLAN,
            "src/repro/store.py": """
                from repro import faults

                def read(path):
                    faults.checkpoint("cache.read", path=str(path))
                    try:
                        return path.read_text()
                    except UnicodeDecodeError:
                        faults.mark_recovered("cache.read", path=str(path))
                        return None
                """,
        })
        assert analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["SEAM003"]]
        ) == []

    def test_io_retry_with_no_handler_anywhere_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/faults/plan.py": SEAM_PLAN,
            "src/repro/store.py": """
                from repro import faults

                def dump(path, text):
                    def _write():
                        return text
                    faults.io_retry(_write, "store")
                """,
        })
        (finding,) = analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["SEAM003"]]
        )
        assert "seam raises: store" in finding.message

    def test_io_retry_declared_raise_by_contract_clean(self, tmp_path):
        write_tree(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": """
                seam raises: store
                """,
            "src/repro/faults/plan.py": SEAM_PLAN,
            "src/repro/store.py": """
                from repro import faults

                def dump(path, text):
                    def _write():
                        return text
                    faults.io_retry(_write, "store")
                """,
        })
        assert analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["SEAM003"]]
        ) == []

    def test_io_retry_caller_catching_oserror_clean(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/faults/plan.py": SEAM_PLAN,
            "src/repro/store.py": """
                from repro import faults

                def dump(path, text):
                    def _write():
                        return text
                    faults.io_retry(_write, "store")

                def safe_dump(path, text):
                    try:
                        return dump(path, text)
                    except OSError:
                        return None
                """,
        })
        assert analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["SEAM003"]]
        ) == []


# --------------------------------------------------------------------------
# FORK001-FORK002: fork safety

FORK_CONTRACT = """
    fork entrypoints: repro.pool.worker:run_cell
    fork initializers: repro.pool.worker:init
    """

FORK_FILES = {
    "docs/ARCHITECTURE_CONTRACT": FORK_CONTRACT,
    "src/repro/pool/worker.py": """
        _CACHE = {}

        def run_cell(x):
            _CACHE[x] = x
            return _CACHE[x]
        """,
}


class TestForkRules:
    def test_family_disarmed_without_entry_points(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/pool/worker.py": "_CACHE = {}\n",
        })
        assert analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["FORK001"]]
        ) == []

    def test_unreinitialized_cache_flagged(self, tmp_path):
        write_tree(tmp_path, FORK_FILES)
        (finding,) = analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["FORK001"]]
        )
        assert finding.rule == "FORK001"
        assert "repro.pool.worker._CACHE" in finding.message
        assert "repro.pool.worker:run_cell" in finding.message

    def test_initializer_rebinding_clears_the_finding(self, tmp_path):
        files = dict(FORK_FILES)
        files["src/repro/pool/worker.py"] = """
            _CACHE = {}

            def run_cell(x):
                _CACHE[x] = x
                return _CACHE[x]

            def init():
                global _CACHE
                _CACHE = {}
            """
        write_tree(tmp_path, files)
        assert analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["FORK001"]]
        ) == []

    def test_rebinding_through_a_called_helper_counts(self, tmp_path):
        files = dict(FORK_FILES)
        files["src/repro/pool/worker.py"] = """
            _CACHE = {}

            def run_cell(x):
                _CACHE[x] = x
                return _CACHE[x]

            def _reset():
                global _CACHE
                _CACHE = {}

            def init():
                _reset()
            """
        write_tree(tmp_path, files)
        assert analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["FORK001"]]
        ) == []

    def test_populated_literal_table_is_not_state(self, tmp_path):
        files = dict(FORK_FILES)
        files["src/repro/pool/worker.py"] = """
            _TABLE = {"a": 1, "b": 2}

            def run_cell(x):
                return _TABLE[x]
            """
        write_tree(tmp_path, files)
        assert analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["FORK001"]]
        ) == []

    def test_reachable_import_state_flagged(self, tmp_path):
        files = dict(FORK_FILES)
        files["src/repro/pool/worker.py"] = """
            from repro.pool import shared

            def run_cell(x):
                return shared.get(x)
            """
        files["src/repro/pool/shared.py"] = """
            _MEMO = {}

            def get(x):
                return _MEMO.get(x)
            """
        write_tree(tmp_path, files)
        (finding,) = analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["FORK001"]]
        )
        assert "repro.pool.shared._MEMO" in finding.message

    def test_module_level_lock_flagged(self, tmp_path):
        files = dict(FORK_FILES)
        files["src/repro/pool/worker.py"] = """
            import threading

            _LOCK = threading.Lock()

            def run_cell(x):
                with _LOCK:
                    return x
            """
        write_tree(tmp_path, files)
        (finding,) = analyze_project(
            [tmp_path], rules=[RULE_REGISTRY["FORK002"]]
        )
        assert finding.rule == "FORK002"
        assert "lock" in finding.message

    def test_fork_policy_resolves_only_existing_functions(self, tmp_path):
        write_tree(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": """
                fork entrypoints: repro.pool.worker:missing
                """,
            "src/repro/pool/worker.py": "_CACHE = {}\n",
        })
        project = Project.load([tmp_path])
        entrypoints, initializers = fork_policy(project)
        assert entrypoints == ()


# --------------------------------------------------------------------------
# Cache salt (analyzer/contract content, not just file mtime+size)


class TestCacheSalt:
    BAD = "import numpy as np\nnp.random.seed(1)\n"

    def _run(self, src, cache_dir, salt):
        cache = AnalysisCache(cache_dir, salt=salt)
        findings = analyze_project(
            [src], rules=[RULE_REGISTRY["RNG001"]], cache=cache
        )
        return findings, cache

    def test_same_salt_hits(self, tmp_path):
        src = write_tree(tmp_path / "proj", {"src/mod.py": self.BAD})
        cache_dir = tmp_path / "cache"
        self._run(src, cache_dir, salt="rulepack-v1")
        _, warm = self._run(src, cache_dir, salt="rulepack-v1")
        assert warm.hits == 1 and warm.misses == 0

    def test_changed_salt_invalidates_whole_cache(self, tmp_path):
        """mtime+size alone cannot see rule edits; the salt must."""
        src = write_tree(tmp_path / "proj", {"src/mod.py": self.BAD})
        cache_dir = tmp_path / "cache"
        self._run(src, cache_dir, salt="rulepack-v1")
        findings, cache = self._run(src, cache_dir, salt="rulepack-v2")
        assert cache.hits == 0 and cache.misses == 1
        assert len(findings) == 1  # still correct, just recomputed

    def test_salt_persisted_in_cache_payload(self, tmp_path):
        src = write_tree(tmp_path / "proj", {"src/mod.py": self.BAD})
        cache_dir = tmp_path / "cache"
        self._run(src, cache_dir, salt="rulepack-v1")
        payload = json.loads(
            (cache_dir / "analysis-cache.json").read_text()
        )
        assert payload["salt"] == "rulepack-v1"

    def test_analysis_salt_tracks_contract_content(self, tmp_path):
        a = write_tree(tmp_path / "a", {
            "docs/ARCHITECTURE_CONTRACT": "layer base: repro.config\n",
        })
        b = write_tree(tmp_path / "b", {
            "docs/ARCHITECTURE_CONTRACT": "layer base: repro.exceptions\n",
        })
        c = write_tree(tmp_path / "c", {
            "docs/ARCHITECTURE_CONTRACT": "layer base: repro.config\n",
        })
        assert analysis_salt(a) != analysis_salt(b)
        assert analysis_salt(a) == analysis_salt(c)

    def test_lint_cli_salts_the_cache(self, tmp_path, monkeypatch, capsys):
        src = write_tree(tmp_path, {"src/mod.py": self.BAD})
        monkeypatch.chdir(src)
        cache_dir = src / ".cache"
        assert cli_main(
            ["lint", "src", "--cache-dir", str(cache_dir)]
        ) == 1
        capsys.readouterr()
        payload = json.loads(
            (cache_dir / "analysis-cache.json").read_text()
        )
        assert payload["salt"] == analysis_salt(src / "src")


# --------------------------------------------------------------------------
# --changed re-analyzes the reverse-dependency closure


class TestChangedClosure:
    def _git(self, cwd, *argv):
        proc = subprocess.run(
            [*GIT_ENV, *argv], cwd=cwd, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def _repo(self, tmp_path):
        self._git(tmp_path, "init", "-q")
        write_tree(tmp_path, {
            "src/repro/maker.py": """
                def consume(items):
                    return items
                """,
            "src/repro/driver.py": """
                from repro.maker import consume

                def run(rng):
                    return consume([1])
                """,
            "src/repro/bystander.py": """
                import numpy as np
                np.random.seed(9)
                """,
        })
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-qm", "seed")
        return tmp_path

    def test_changed_callee_surfaces_finding_on_unchanged_caller(
        self, tmp_path, monkeypatch, capsys
    ):
        """Growing an rng parameter on the callee creates an RNG010 in
        the *unchanged* caller; --changed must not miss it."""
        repo = self._repo(tmp_path)
        monkeypatch.chdir(repo)
        assert cli_main(["lint", "src", "--changed", "--no-cache"]) == 0
        capsys.readouterr()
        (repo / "src/repro/maker.py").write_text(
            "def consume(items, rng=None):\n    return items\n"
        )
        assert cli_main(["lint", "src", "--changed", "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "RNG010" in out
        assert "driver.py" in out

    def test_out_of_closure_findings_stay_invisible(
        self, tmp_path, monkeypatch, capsys
    ):
        """The committed bystander offender is not in the changed
        closure, so --changed keeps ignoring it."""
        repo = self._repo(tmp_path)
        monkeypatch.chdir(repo)
        (repo / "src/repro/maker.py").write_text(
            "def consume(items, rng=None):\n    return items\n"
        )
        cli_main(["lint", "src", "--changed", "--no-cache"])
        out = capsys.readouterr().out
        assert "bystander.py" not in out

    def test_full_run_still_sees_everything(
        self, tmp_path, monkeypatch, capsys
    ):
        repo = self._repo(tmp_path)
        monkeypatch.chdir(repo)
        assert cli_main(["lint", "src", "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "bystander.py" in out


# --------------------------------------------------------------------------
# Loop-nest extraction: the LoopInfo/LoopCall inputs of the cost analysis


def _function(code, qualname="f"):
    tree = ast.parse(textwrap.dedent(code))
    from repro.analysis import summarize_module

    return summarize_module(tree, "m", "m.py", False).functions[qualname]


class TestLoopExtraction:
    def test_kinds_parents_and_bounds(self):
        info = _function("""
            def f(xs):
                for x in xs:
                    while x:
                        g(x)
                ys = [g(v) for v in xs]
                return ys
            """)
        kinds = [(loop.kind, loop.parent) for loop in info.loops]
        assert kinds == [("for", -1), ("while", 0), ("listcomp", -1)]
        assert info.loops[0].bound == ("x",)
        assert info.loops[0].iter_name == "xs"
        assert info.loops[2].bound == ("v",)
        stacks = {c.callee_repr: c.loops for c in info.loop_calls}
        assert stacks["g"] in ({(0, 1), (2,)}, stacks["g"])  # per-call below
        by_line = sorted(info.loop_calls, key=lambda c: c.lineno)
        assert by_line[0].loops == (0, 1)
        assert by_line[1].loops == (2,)

    def test_constant_trip_counts_detected(self):
        info = _function("""
            def f(n, xs):
                for i in range(3):
                    g(i)
                for j in range(n):
                    g(j)
                for t in (1, 2, 3):
                    g(t)
            """)
        assert [loop.is_const for loop in info.loops] == [True, False, True]

    def test_break_marks_the_nearest_loop(self):
        info = _function("""
            def f(xs):
                for x in xs:
                    for y in xs:
                        if y:
                            break
            """)
        assert not info.loops[0].has_break
        assert info.loops[1].has_break

    def test_else_clause_is_outside_the_frame(self):
        info = _function("""
            def f(xs):
                for x in xs:
                    pass
                else:
                    g(1)
            """)
        assert info.loop_calls == ()  # outside every frame: no record
        (site,) = info.calls
        assert site.loops == ()

    def test_first_comp_iterable_evaluated_outside(self):
        info = _function("""
            def f(ys):
                return [g(x) for x in h(ys)]
            """)
        by_name = {c.callee_repr: c.loops for c in info.loop_calls}
        assert "h" not in by_name  # evaluated once, outside the frame
        assert len(by_name["g"]) == 1
        frames = {site.callee[-1]: site.loops for site in info.calls}
        assert frames["h"] == ()
        assert len(frames["g"]) == 1

    def test_later_comp_iterables_inside_earlier_frames(self):
        info = _function("""
            def f(xs):
                return [x for x in xs for y in g(x)]
            """)
        (call,) = info.loop_calls
        assert len(call.loops) == 1  # inside the x frame only

    def test_nested_defs_get_their_own_loops(self):
        tree = ast.parse(textwrap.dedent("""
            def f(xs):
                def inner(ys):
                    for y in ys:
                        g(y)
                for x in xs:
                    inner(x)
            """))
        from repro.analysis import summarize_module

        functions = summarize_module(tree, "m", "m.py", False).functions
        assert len(functions["f"].loops) == 1  # inner's loop not counted
        assert len(functions["f.inner"].loops) == 1
        (outer_call,) = functions["f"].loop_calls
        assert outer_call.callee_repr == "inner"

    def test_lambda_bodies_attributed_to_the_enclosing_function(self):
        info = _function("""
            def f(xs):
                for x in xs:
                    k = lambda v: g(v)
            """)
        reprs = [c.callee_repr for c in info.loop_calls]
        assert "g" in reprs

    def test_loop_invariance_per_frame(self):
        info = _function("""
            def f(xs, ys, cfg):
                for i in xs:
                    for j in ys:
                        g(cfg)
                        h(j)
            """)
        by_name = {c.callee_repr: c for c in info.loop_calls}
        assert by_name["g"].invariant == (0, 1)  # cfg never varies
        assert by_name["h"].invariant == (0,)  # j is fresh per i? no:
        # ys does not depend on i, so h(j)'s sweep repeats per i — the
        # loop-interchange hoist — and frame 0 counts as invariant.

    def test_carried_dependence_defeats_interchange(self):
        info = _function("""
            def f(xs, ys):
                for i in xs:
                    for j in ys[i]:
                        h(j)
            """)
        (call,) = info.loop_calls
        assert call.invariant == ()  # j's sweep really changes with i

    def test_assignment_varies_all_open_frames(self):
        info = _function("""
            def f(xs, ys):
                for i in xs:
                    acc = step(i)
                    for j in ys:
                        h(acc)
            """)
        by_name = {c.callee_repr: c for c in info.loop_calls}
        assert by_name["h"].invariant == (1,)  # acc changes per i

    def test_loop_fields_round_trip_through_json(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/m.py": """
                import numpy as np

                def f(xs, table):
                    out = []
                    arr = np.zeros(3)
                    for i in xs:
                        out.append(arr[i])
                    while xs:
                        g(xs)
                        break
                    return np.vstack([g(x) for x in xs])
                """,
        })
        summary = Project.load([tmp_path]).summaries["repro.m"]
        info = summary.functions["f"]
        assert any(loop.subscript_by_bound for loop in info.loops)
        assert any(call.numpy_ctor_comp for call in info.loop_calls)
        clone = type(summary).from_dict(
            json.loads(json.dumps(summary.to_dict()))
        )
        assert clone == summary


# --------------------------------------------------------------------------
# The multiplicity lattice and the cost fixpoint


class TestMultiplicityLattice:
    def test_ordering_is_the_join(self):
        from repro.analysis import Multiplicity

        once = Multiplicity(0)
        per_pair = Multiplicity(2)
        assert max(once, per_pair) == per_pair
        assert max(Multiplicity(2, k=True), per_pair) == Multiplicity(2, True)

    def test_bump_and_render(self):
        from repro.analysis import Multiplicity

        m = Multiplicity(0)
        assert m.render() == "once"
        assert m.bump(1).render() == "per-record"
        assert m.bump(2).render() == "per-pair"
        assert m.bump(2, const_loops=1).render() == "per-pair×k"
        assert m.bump(7).render() == "per-pair×k"  # overflow caps with ×k
        assert m.bump(7).rank == Multiplicity.MAX_RANK

    def test_spec_matches_shapes(self):
        from repro.analysis import spec_matches

        assert spec_matches("repro.a:C.m", "repro.a", "C.m")
        assert spec_matches("repro.a:C", "repro.a", "C.m")  # class covers
        assert not spec_matches("repro.a:C.m", "repro.b", "C.m")
        assert spec_matches("repro.a", "repro.a.sub", "f")  # module subtree
        assert not spec_matches("repro.a", "repro.ab", "f")
        assert spec_matches("embed", "anything", "Encoder.embed")  # bare
        assert not spec_matches("embed", "anything", "Encoder.embed_all")


COST_CONTRACT = """
layer base: repro
cost entrypoints: repro.app:main
cost expensive: repro.heavy:embed
cost hot loops: repro.blocking
"""


class TestCostAnalysis:
    def _cost(self, tmp_path, files):
        from repro.analysis import cost_analysis

        write_tree(tmp_path, files)
        return cost_analysis(Project.load([tmp_path]))

    def test_propagation_through_loop_frames(self, tmp_path):
        cost = self._cost(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": COST_CONTRACT,
            "src/repro/app.py": """
                from repro.util import per_record, per_pair

                def main(pairs):
                    for pair in pairs:
                        per_record(pair)
                        for side in pair:
                            per_pair(side)
                """,
            "src/repro/util.py": """
                def per_record(x):
                    return x

                def per_pair(x):
                    return x
                """,
        })
        assert cost.multiplicity("repro.app", "main").render() == "once"
        assert cost.multiplicity("repro.util", "per_record").render() == "per-record"
        assert cost.multiplicity("repro.util", "per_pair").render() == "per-pair"

    def test_constant_loops_ride_as_k(self, tmp_path):
        cost = self._cost(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": COST_CONTRACT,
            "src/repro/app.py": """
                from repro.util import leaf

                def main(pairs):
                    for pair in pairs:
                        for layer in range(4):
                            leaf(pair)
                """,
            "src/repro/util.py": "def leaf(x):\n    return x\n",
        })
        assert cost.multiplicity("repro.util", "leaf").render() == "per-record×k"

    def test_recursion_caps_at_the_lattice_top(self, tmp_path):
        cost = self._cost(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": COST_CONTRACT,
            "src/repro/app.py": """
                def main(xs):
                    for x in xs:
                        main(xs)
                """,
        })
        assert cost.multiplicity("repro.app", "main").render() == "per-pair×k"

    def test_duck_resolution_reaches_receiver_typed_methods(self, tmp_path):
        cost = self._cost(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": (
                "layer base: repro\ncost entrypoints: repro.app:App.run\n"
            ),
            "src/repro/enc.py": """
                class Encoder:
                    def embed_rows(self, x):
                        return x
                """,
            "src/repro/app.py": """
                class App:
                    def run(self, items):
                        for item in items:
                            self.encoder.embed_rows(item)
                """,
        })
        mult = cost.multiplicity("repro.enc", "Encoder.embed_rows")
        assert mult is not None and mult.render() == "per-record"

    def test_unreached_site_assumed_once(self, tmp_path):
        cost = self._cost(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": COST_CONTRACT,
            "src/repro/orphan.py": """
                def lonely(xs):
                    for x in xs:
                        for y in x:
                            g(y)
                """,
        })
        assert cost.multiplicity("repro.orphan", "lonely") is None
        site = cost.site_multiplicity("repro.orphan", "lonely", (0, 1))
        assert site.render() == "per-pair"

    def test_chain_renders_loop_frames(self, tmp_path):
        cost = self._cost(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": COST_CONTRACT,
            "src/repro/heavy.py": "def embed(batch):\n    return batch\n",
            "src/repro/app.py": """
                from repro.heavy import embed

                def main(pairs):
                    for pair in pairs:
                        embed(pair)
                """,
        })
        chain = cost.chain("repro.heavy", "embed")
        assert chain[0] == "repro.app:main"
        assert "-[for pair in pairs]->" in chain[1]


# --------------------------------------------------------------------------
# PERF001-PERF004: the hot-path rule family


class TestPerfRules:
    def _lint(self, tmp_path, files, rule):
        write_tree(tmp_path, files)
        return analyze_project([tmp_path], rules=[RULE_REGISTRY[rule]])

    def test_perf001_expensive_call_with_invariant_args(self, tmp_path):
        findings = self._lint(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": COST_CONTRACT,
            "src/repro/heavy.py": "def embed(batch):\n    return batch\n",
            "src/repro/app.py": """
                from repro.heavy import embed

                def main(pairs, model):
                    out = []
                    for pair in pairs:
                        for side in pair:
                            out.append(embed(model))
                    return out
                """,
        }, "PERF001")
        assert rule_ids(findings) == ["PERF001"]
        assert findings[0].severity is Severity.ERROR
        assert "per-pair" in findings[0].message
        assert "hoist" in findings[0].message

    def test_perf001_varying_args_clean(self, tmp_path):
        findings = self._lint(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": COST_CONTRACT,
            "src/repro/heavy.py": "def embed(batch):\n    return batch\n",
            "src/repro/app.py": """
                from repro.heavy import embed

                def main(pairs):
                    out = []
                    for pair in pairs:
                        for side in pair:
                            out.append(embed(side))
                    return out
                """,
        }, "PERF001")
        assert findings == []

    def test_perf001_noqa_at_the_call_site(self, tmp_path):
        findings = self._lint(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": COST_CONTRACT,
            "src/repro/heavy.py": "def embed(batch):\n    return batch\n",
            "src/repro/app.py": """
                from repro.heavy import embed

                def main(pairs, model):
                    out = []
                    for pair in pairs:
                        for side in pair:
                            out.append(embed(model))  # repro: noqa[PERF001]
                    return out
                """,
        }, "PERF001")
        assert findings == []

    def test_perf002_loop_invariant_pure_call(self, tmp_path):
        findings = self._lint(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": COST_CONTRACT,
            "src/repro/util.py": "def norm(cfg):\n    return cfg\n",
            "src/repro/app.py": """
                from repro.util import norm

                def main(pairs, cfg):
                    acc = []
                    for pair in pairs:
                        for item in pair:
                            acc.append(norm(cfg))
                    return acc
                """,
        }, "PERF002")
        assert rule_ids(findings) == ["PERF002"]
        assert findings[0].severity is Severity.WARNING
        assert "invariant" in findings[0].message

    def test_perf002_loop_interchange_case(self, tmp_path):
        """The sweep over pairs repeats identically per position — the
        exact shape fixed in the adapter pipeline this PR."""
        findings = self._lint(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": COST_CONTRACT,
            "src/repro/util.py": "def tok(p, s):\n    return (p, s)\n",
            "src/repro/app.py": """
                from repro.util import tok

                def main(pairs, schema, n):
                    return [
                        [tok(pair, schema)[pos] for pair in pairs]
                        for pos in range(n)
                    ]
                """,
        }, "PERF002")
        assert rule_ids(findings) == ["PERF002"]
        assert "for pos in range(n)" in findings[0].message

    def test_perf002_rng_fed_calls_exempt(self, tmp_path):
        findings = self._lint(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": COST_CONTRACT,
            "src/repro/util.py": "def draw(rng):\n    return rng\n",
            "src/repro/app.py": """
                from repro.util import draw

                def main(pairs, rng):
                    acc = []
                    for pair in pairs:
                        for item in pair:
                            acc.append(draw(rng))
                    return acc
                """,
        }, "PERF002")
        assert findings == []

    def test_perf002_constructors_exempt(self, tmp_path):
        findings = self._lint(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": COST_CONTRACT,
            "src/repro/app.py": """
                class Model:
                    def __init__(self, depth=3):
                        self.depth = depth

                def main(pairs, depth):
                    acc = []
                    for pair in pairs:
                        for item in pair:
                            acc.append(Model(depth))
                    return acc
                """,
        }, "PERF002")
        assert findings == []

    def test_perf003_numpy_ctor_over_comprehension(self, tmp_path):
        findings = self._lint(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": COST_CONTRACT,
            "src/repro/util.py": "def encode(r):\n    return r\n",
            "src/repro/app.py": """
                import numpy as np

                from repro.feats import featurize

                def main(rows):
                    for row in rows:
                        featurize(row)
                """,
            "src/repro/feats.py": """
                import numpy as np

                from repro.util import encode

                def featurize(row):
                    return np.vstack([encode(r) for r in row])
                """,
        }, "PERF003")
        assert rule_ids(findings) == ["PERF003"]
        assert "np.vstack" in findings[0].message
        assert "vectorized" in findings[0].message

    def test_perf003_cheap_elements_clean(self, tmp_path):
        findings = self._lint(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": COST_CONTRACT,
            "src/repro/app.py": """
                import numpy as np

                def main(rows):
                    out = []
                    for row in rows:
                        out.append(np.asarray([len(r) for r in row]))
                    return out
                """,
        }, "PERF003")
        assert findings == []

    def test_perf003_append_loop_with_numpy_subscripts(self, tmp_path):
        findings = self._lint(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": COST_CONTRACT,
            "src/repro/app.py": """
                import numpy as np

                def gather(ids):
                    table = np.zeros((4, 4))
                    out = []
                    for i in ids:
                        out.append(table[i])
                    return out
                """,
        }, "PERF003")
        assert rule_ids(findings) == ["PERF003"]
        assert "`out`" in findings[0].message
        assert "fancy-indexed" in findings[0].message

    def test_perf003_break_bounded_loop_clean(self, tmp_path):
        findings = self._lint(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": COST_CONTRACT,
            "src/repro/app.py": """
                import numpy as np

                def gather(ids):
                    table = np.zeros((4, 4))
                    out = []
                    for i in ids:
                        out.append(table[i])
                        break
                    return out
                """,
        }, "PERF003")
        assert findings == []

    def test_perf003_non_numpy_subscripts_clean(self, tmp_path):
        findings = self._lint(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": COST_CONTRACT,
            "src/repro/app.py": """
                def gather(ids, table):
                    out = []
                    for i in ids:
                        out.append(table[i])
                    return out
                """,
        }, "PERF003")
        assert findings == []

    def test_perf003_sanctioned_hot_module_exempt(self, tmp_path):
        findings = self._lint(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": COST_CONTRACT,
            "src/repro/blocking.py": """
                import numpy as np

                def gather(ids):
                    table = np.zeros((4, 4))
                    out = []
                    for i in ids:
                        out.append(table[i])
                    return out
                """,
        }, "PERF003")
        assert findings == []

    def test_perf004_nested_parameter_iteration(self, tmp_path):
        findings = self._lint(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": COST_CONTRACT,
            "src/repro/app.py": """
                def cross(left, right):
                    hits = []
                    for a in left:
                        for b in right:
                            hits.append((a, b))
                    return hits
                """,
        }, "PERF004")
        assert rule_ids(findings) == ["PERF004"]
        assert findings[0].severity is Severity.ERROR
        assert "quadratic" in findings[0].message
        assert "blocking" in findings[0].message

    def test_perf004_same_parameter_twice_clean(self, tmp_path):
        findings = self._lint(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": COST_CONTRACT,
            "src/repro/app.py": """
                def pairs_of(items):
                    hits = []
                    for a in items:
                        for b in items:
                            hits.append((a, b))
                    return hits
                """,
        }, "PERF004")
        assert findings == []

    def test_perf004_blessed_blocking_module_exempt(self, tmp_path):
        findings = self._lint(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": COST_CONTRACT,
            "src/repro/blocking.py": """
                def cross(left, right):
                    hits = []
                    for a in left:
                        for b in right:
                            hits.append((a, b))
                    return hits
                """,
        }, "PERF004")
        assert findings == []

    def test_perf001_message_renders_the_call_chain(self, tmp_path):
        findings = self._lint(tmp_path, {
            "docs/ARCHITECTURE_CONTRACT": COST_CONTRACT,
            "src/repro/heavy.py": "def embed(batch):\n    return batch\n",
            "src/repro/app.py": """
                from repro.heavy import embed
                from repro.work import stage

                def main(pairs, model):
                    for pair in pairs:
                        stage(pair, model)
                """,
            "src/repro/work.py": """
                from repro.heavy import embed

                def stage(pair, model):
                    for side in pair:
                        embed(model)
                """,
        }, "PERF001")
        assert rule_ids(findings) == ["PERF001"]
        assert "repro.app:main" in findings[0].message
        assert "-[for pair in pairs]->" in findings[0].message


# --------------------------------------------------------------------------
# The cost fixpoint on src/: the adapter's embed path is reached per pair


class TestHotspotReport:
    def test_adapter_embed_path_ranks_hot_on_src(self):
        from repro.analysis import cost_analysis

        project = Project.load([SRC_ROOT])
        cost = cost_analysis(project)
        # Since the entity-store refactor, the adapter's hot primitive is
        # the per-entity tokenize+embed (entity_half); _sequence_matrix
        # remains hot only on the embed_sequences path.
        mult = cost.multiplicity(
            "repro.transformers.pretrained",
            "PretrainedEncoder.entity_half",
        )
        assert mult is not None and mult.rank >= 2
        embed = cost.multiplicity(
            "repro.adapter.embedder", "TransformerEmbedder.embed_pairs"
        )
        assert embed is not None and embed.rank >= 2
