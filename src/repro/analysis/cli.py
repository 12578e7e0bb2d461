"""Lint driver behind ``repro-em lint``.

Exit codes follow the usual linter protocol: 0 for a clean run, 1 when
there are new (non-baselined) findings, and 2 for usage/target errors —
a nonexistent path, or a target containing no Python files at all.
"""

from __future__ import annotations

import argparse
import hashlib
import subprocess
import sys
from pathlib import Path

from repro.analysis.baseline import Baseline, apply_baseline
from repro.analysis.cache import DEFAULT_CACHE_DIR, AnalysisCache
from repro.analysis.core import (
    FileRule,
    Project,
    _common_root,
    all_rules,
    analyze,
)
from repro.analysis.graph import CONTRACT_FILENAME
from repro.analysis.reporter import render_json, render_text

__all__ = ["add_lint_arguments", "analysis_salt", "run_lint"]

#: Default baseline filename, resolved against the current directory.
DEFAULT_BASELINE = "lint_baseline.json"


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to ``parser`` (shared with repro-em)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"baseline file of grandfathered findings "
        f"(default: ./{DEFAULT_BASELINE} when present)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline file from the current findings and exit 0",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule pack and exit",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also list baselined (grandfathered) findings",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="report findings only for files changed per git (plus "
        "inter-procedural findings in their reverse-dependency closure); "
        "falls back to a full run outside a git repository",
    )
    parser.add_argument(
        "--graph",
        choices=("json", "dot"),
        default=None,
        help="dump the import graph in this format instead of linting",
    )
    parser.add_argument(
        "--graph-level",
        choices=("module", "package"),
        default="module",
        help="granularity of --graph output (default: module)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk analysis cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"analysis cache directory (default: {DEFAULT_CACHE_DIR})",
    )


_SALT_MEMO: dict[Path, str] = {}


def analysis_salt(root: Path | None = None) -> str:
    """Content digest of the analyzer itself plus the layering contract.

    The analysis cache keys entries by each analyzed file's mtime and
    size, which cannot see changes to the *rules*: editing a rule, the
    engine, or the contract the rules read would otherwise silently
    replay stale findings. This digest — over every ``repro.analysis``
    source file and the ``docs/ARCHITECTURE_CONTRACT`` found at or above
    ``root`` — is passed as the :class:`~repro.analysis.cache.AnalysisCache`
    salt, so any analyzer or policy change invalidates the whole cache
    at once.
    """
    key = (root or Path.cwd()).resolve()
    cached = _SALT_MEMO.get(key)
    if cached is not None:
        return cached
    digest = hashlib.blake2b(digest_size=16)
    package_dir = Path(__file__).resolve().parent
    for path in sorted(package_dir.rglob("*.py")):
        digest.update(str(path.relative_to(package_dir)).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
    for base in (key, *key.parents):
        candidate = base / "docs" / CONTRACT_FILENAME
        if candidate.is_file():
            digest.update(candidate.read_bytes())
            break
    salt = digest.hexdigest()
    _SALT_MEMO[key] = salt
    return salt


def _selected_rules(select: str | None):
    rules = all_rules()
    if select is None:
        return rules
    wanted = {r.strip().upper() for r in select.split(",") if r.strip()}
    known = {rule.id for rule in rules}
    unknown = wanted - known
    if unknown:
        raise SystemExit(
            f"unknown rule id(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(known))}"
        )
    return tuple(rule for rule in rules if rule.id in wanted)


def _git_changed_files() -> list[Path] | None:
    """Changed + untracked ``.py`` files per git, or None outside a repo.

    Paths come back repo-root-relative from git; they are re-rooted and,
    when possible, made relative to the current directory so that
    finding paths (and therefore baseline fingerprints) match a plain
    full run launched from the same place.
    """
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return None
    if top.returncode != 0:
        return None
    repo_root = Path(top.stdout.strip())
    names: set[str] = set()
    for command in (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        proc = subprocess.run(
            command, capture_output=True, text=True, check=False
        )
        if proc.returncode != 0:
            return None  # e.g. a repo with no commits yet — run full
        names.update(proc.stdout.splitlines())
    files = []
    cwd = Path.cwd()
    for name in sorted(names):
        if not name.endswith(".py"):
            continue
        path = repo_root / name
        if not path.exists():
            continue  # deleted in the working tree
        try:
            files.append(path.relative_to(cwd))
        except ValueError:
            files.append(path)
    return files


def _scope_to_paths(files: list[Path], requested: list[Path]) -> list[Path]:
    """The subset of ``files`` lying under any of the requested paths."""
    anchors = [p.resolve() for p in requested]
    scoped = []
    for path in files:
        resolved = path.resolve()
        for anchor in anchors:
            if resolved == anchor or (
                anchor.is_dir() and resolved.is_relative_to(anchor)
            ):
                scoped.append(path)
                break
    return scoped


def _changed_scopes(
    project: Project, changed: list[Path]
) -> tuple[set[str], set[str]]:
    """(changed rel paths, reverse-dependency-closure rel paths).

    The closure walks the import graph backwards from the changed
    modules: an inter-procedural finding can be anchored in an unchanged
    caller when one of its (transitive) callees changed, so project-rule
    findings are kept for every module that can reach a changed one.
    """
    resolved = {p.resolve() for p in changed}
    changed_rel: set[str] = set()
    changed_modules: set[str] = set()
    for module in project.modules:
        if module.path.resolve() in resolved:
            changed_rel.add(module.rel_path)
            changed_modules.add(module.module_name)
    importers: dict[str, set[str]] = {}
    for edge in project.import_graph().edges:
        if edge.internal:
            importers.setdefault(edge.target, set()).add(edge.source)
    closure = set(changed_modules)
    queue = list(changed_modules)
    while queue:
        for parent in importers.get(queue.pop(), ()):
            if parent not in closure:
                closure.add(parent)
                queue.append(parent)
    rel_by_name = {m.module_name: m.rel_path for m in project.modules}
    closure_rel = {rel_by_name[n] for n in closure if n in rel_by_name}
    return changed_rel, closure_rel


def run_lint(args: argparse.Namespace) -> int:
    """Execute one lint run; returns the process exit code."""
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  [{rule.severity.value:7s}] {rule.name}: "
                  f"{rule.description}")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(
            f"error: no such path(s): {', '.join(missing)}", file=sys.stderr
        )
        return 2

    rules = _selected_rules(args.select)
    requested = [Path(p) for p in args.paths]
    root = _common_root(requested)
    cache = (
        None
        if args.no_cache
        else AnalysisCache(args.cache_dir, salt=analysis_salt(root))
    )

    changed_slice: list[Path] | None = None
    if args.changed:
        if args.update_baseline:
            print(
                "error: --changed cannot update the baseline (it sees only "
                "a slice of the project)",
                file=sys.stderr,
            )
            return 2
        changed = _git_changed_files()
        if changed is not None:
            changed_slice = _scope_to_paths(changed, requested)
            if not changed_slice:
                print("no changed python files under the requested paths")
                return 0

    # --changed still loads the whole project: the inter-procedural
    # rules need every import/call edge (an unchanged caller can gain a
    # finding when its callee changed), and the cache serves unchanged
    # modules so the load stays cheap. Findings are filtered afterwards.
    project = Project.load(requested, root=root, cache=cache)

    if not project.modules and not project.parse_failures:
        print(
            "error: no python files found under: "
            f"{', '.join(str(p) for p in args.paths)}",
            file=sys.stderr,
        )
        return 2

    if args.graph is not None:
        graph = project.import_graph()
        if args.graph == "dot":
            sys.stdout.write(graph.to_dot(args.graph_level))
        else:
            print(graph.to_json(args.graph_level))
        project.save_cache()  # the graph build warms the cache too
        return 0

    findings = analyze(project, rules)
    if changed_slice is not None:
        changed_rel, closure_rel = _changed_scopes(project, changed_slice)
        file_rule_ids = {r.id for r in rules if isinstance(r, FileRule)}
        findings = [
            f
            for f in findings
            if (f.path in changed_rel)
            or (f.rule not in file_rule_ids and f.path in closure_rel)
        ]

    baseline_path = args.baseline
    if baseline_path is None and Path(DEFAULT_BASELINE).exists():
        baseline_path = DEFAULT_BASELINE

    if args.update_baseline:
        target = baseline_path or DEFAULT_BASELINE
        Baseline.from_findings(findings).save(target)
        print(f"baseline updated: {target} ({len(findings)} finding(s))")
        return 0

    try:
        baseline = Baseline.load(baseline_path) if baseline_path else Baseline()
    except ValueError as exc:
        raise SystemExit(f"invalid baseline file {baseline_path}: {exc}")
    result = apply_baseline(findings, baseline)
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return 1 if result.new else 0
