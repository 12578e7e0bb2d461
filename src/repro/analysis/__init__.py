"""Static analysis for the EM reproduction: ``repro.analysis``.

A from-scratch, stdlib-``ast`` lint engine with EM-repro-specific rules:
RNG discipline (every stream through :func:`repro.config.rng_for`),
estimator API conformance, search-space ↔ estimator ``__init__``
cross-validation, export hygiene, and generic pitfalls — plus a
whole-program layer (import/call graphs, layering contracts, RNG-flow
tracking, dead-symbol detection) backed by an mtime+size parse cache.
Run it with::

    repro-em lint src/
    repro-em lint --format json
    repro-em lint --graph dot          # dump the import graph
    repro-em lint --changed            # pre-commit: git-changed files only

Findings are suppressed in place with ``# repro: noqa[RULE]`` or
grandfathered in ``lint_baseline.json``; tier-1 gates on zero
non-baselined findings via ``tests/test_static_analysis.py``. See
``docs/STATIC_ANALYSIS.md``.
"""

from repro.analysis.baseline import Baseline, BaselineResult, apply_baseline
from repro.analysis.cache import AnalysisCache
from repro.analysis.cli import analysis_salt
from repro.analysis.cost import (
    CostAnalysis,
    DEFAULT_COST_ENTRYPOINTS,
    DEFAULT_COST_EXPENSIVE,
    DEFAULT_COST_HOT_LOOPS,
    DEFAULT_COST_PURE,
    DUCK_MAX,
    Multiplicity,
    cost_analysis,
    cost_policy,
    spec_matches,
)
from repro.analysis.core import (
    FileRule,
    Finding,
    Project,
    ProjectRule,
    Rule,
    RULE_REGISTRY,
    Severity,
    SourceModule,
    all_rules,
    analyze,
    analyze_project,
    register_rule,
    suppressed_rules,
)
from repro.analysis.effects import (
    EffectAnalysis,
    EffectSite,
    effect_analysis,
)
from repro.analysis.flow import RngFlowViolation, iter_rng_flow_violations
from repro.analysis.graph import (
    CallGraph,
    CallResolver,
    CallSite,
    ContractError,
    EFFECT_TAGS,
    FunctionInfo,
    ImportEdge,
    ImportGraph,
    ImportRecord,
    LayeringContract,
    LoopCall,
    LoopInfo,
    ModuleSummary,
    summarize_module,
)
from repro.analysis.reporter import render_json, render_text, summarize

# Importing the package registers the built-in rule pack, so that
# RULE_REGISTRY is populated for anyone who imported repro.analysis.
import repro.analysis.rules  # noqa: E402,F401 - registration side effect

__all__ = [
    "AnalysisCache",
    "Baseline",
    "BaselineResult",
    "CallGraph",
    "CallResolver",
    "CallSite",
    "ContractError",
    "CostAnalysis",
    "DEFAULT_COST_ENTRYPOINTS",
    "DEFAULT_COST_EXPENSIVE",
    "DEFAULT_COST_HOT_LOOPS",
    "DEFAULT_COST_PURE",
    "DUCK_MAX",
    "EFFECT_TAGS",
    "EffectAnalysis",
    "EffectSite",
    "FileRule",
    "Finding",
    "FunctionInfo",
    "ImportEdge",
    "ImportGraph",
    "ImportRecord",
    "LayeringContract",
    "LoopCall",
    "LoopInfo",
    "ModuleSummary",
    "Multiplicity",
    "Project",
    "ProjectRule",
    "RULE_REGISTRY",
    "RngFlowViolation",
    "Rule",
    "Severity",
    "SourceModule",
    "all_rules",
    "analysis_salt",
    "analyze",
    "analyze_project",
    "apply_baseline",
    "cost_analysis",
    "cost_policy",
    "effect_analysis",
    "iter_rng_flow_violations",
    "register_rule",
    "spec_matches",
    "render_json",
    "render_text",
    "summarize",
    "summarize_module",
    "suppressed_rules",
]
