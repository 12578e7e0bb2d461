"""Finding reporters: human text and machine JSON."""

from __future__ import annotations

import json
from collections import Counter

from repro.analysis.baseline import BaselineResult
from repro.analysis.core import Finding, Severity

__all__ = [
    "render_text",
    "render_json",
    "summarize",
]


def summarize(result: BaselineResult) -> dict[str, int]:
    return {
        "new": len(result.new),
        "baselined": len(result.matched),
        "stale_baseline_entries": len(result.stale),
        "errors": sum(
            1 for f in result.new if f.severity is Severity.ERROR
        ),
        "warnings": sum(
            1 for f in result.new if f.severity is Severity.WARNING
        ),
    }


def render_text(result: BaselineResult, verbose: bool = False) -> str:
    """Compiler-style ``path:line:col: RULE message`` lines plus a tally."""
    lines = [f.render() for f in result.new]
    if verbose and result.matched:
        lines.append("")
        lines.append(f"baselined ({len(result.matched)} grandfathered):")
        lines.extend(f"  {f.render()}" for f in result.matched)
    for rule, path, _message in result.stale:
        lines.append(
            f"stale baseline entry: {rule} at {path} no longer fires "
            "(prune it from the baseline)"
        )
    summary = summarize(result)
    if result.new:
        by_rule = Counter(f.rule for f in result.new)
        tally = ", ".join(f"{r}x{n}" if n > 1 else r for r, n in sorted(by_rule.items()))
        lines.append(
            f"{summary['new']} finding(s) ({summary['errors']} error, "
            f"{summary['warnings']} warning; {tally}), "
            f"{summary['baselined']} baselined"
        )
    else:
        lines.append(f"clean: 0 findings, {summary['baselined']} baselined")
    return "\n".join(lines)


def render_json(result: BaselineResult) -> str:
    payload = {
        "findings": [f.to_dict() for f in result.new],
        "baselined": [f.to_dict() for f in result.matched],
        "stale_baseline_entries": [
            {"rule": rule, "path": path, "message": message}
            for rule, path, message in result.stale
        ],
        "summary": summarize(result),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
