"""CLI coverage beyond the happy path, plus top-level package surface."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import repro
from repro.cli import main as cli_main

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"


def _repro_imports(path: Path) -> list[tuple[str, str | None]]:
    """Every ``(module, name)`` a script imports from ``repro``, at any
    depth (imports inside functions included); ``name`` is None for a
    plain ``import repro.x``."""
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module == "repro" or module.startswith("repro."):
                found.extend((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name, None)
                for alias in node.names
                if alias.name == "repro" or alias.name.startswith("repro.")
            )
    return found


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_headline_exports(self):
        assert hasattr(repro, "EMPipeline")
        assert hasattr(repro, "EMAdapter")
        assert hasattr(repro, "DeepMatcherHybrid")
        assert len(repro.DATASET_NAMES) == 12

    def test_all_matches_attributes(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_example_imports_resolve(self):
        scripts = sorted(EXAMPLES_DIR.glob("*.py"))
        assert scripts
        for script in scripts:
            imports = _repro_imports(script)
            assert imports, f"{script.name} imports nothing from repro"
            for module_name, name in imports:
                module = importlib.import_module(module_name)
                if name is None or hasattr(module, name):
                    continue
                # ``from repro.pkg import submodule`` binds a submodule.
                try:
                    importlib.import_module(f"{module_name}.{name}")
                except ImportError:
                    pytest.fail(f"{script.name}: {module_name} has no {name!r}")


class TestCliEdgeCases:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli_main([])

    def test_table_requires_valid_number(self):
        with pytest.raises(SystemExit):
            cli_main(["table", "7"])

    def test_match_requires_known_dataset(self):
        with pytest.raises(SystemExit):
            cli_main(["match", "--dataset", "bogus"])

    def test_scale_flag_flows_to_table1(self, capsys):
        assert cli_main(["table", "1", "--scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "Magellan" in out

    def test_dataset_subset_parsing(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_MAX_MODELS", "2")
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        assert cli_main(["table", "2", "--datasets", "S-BR"]) == 0
        out = capsys.readouterr().out
        assert "S-BR" in out and "S-DG" not in out
