"""Symbolic cost analysis: loop-depth multiplicities over the call graph.

The effect engine answers *what* a function touches; this module answers
*how often it runs* relative to the workload. Each function reached from
a cost entry point gets a symbolic multiplicity from a small lattice::

    once  <  per-record  <  per-pair  <  per-pair×k

``once`` is "executes a bounded number of times per experiment",
``per-record`` is "inside one data-sized loop", ``per-pair`` is two
data-sized loops deep (the candidate-pair regime every EM paper fights),
and the ``×k`` tail absorbs constant-bound inner loops (per-attribute,
per-layer) and anything deeper than rank 3 — including recursion, which
the max-join fixpoint caps there instead of diverging.

Propagation is caller-ward: entry points (``ExperimentRunner``, the
pipeline, ``adapter.transform``, blocking — or the ``cost entrypoints``
contract directive) seed at ``once``; each call site bumps the caller's
multiplicity by its enclosing loop frames and max-joins into the callee.
Call sites resolve through :class:`~repro.analysis.graph.CallResolver`
first; receiver-typed calls the static resolver cannot see
(``self.embedder.embed_pairs(...)``) fall back to *duck resolution* —
matching the method name against every class method in the project —
capped at :data:`DUCK_MAX` candidates so genuinely dynamic names
(``.fit``, ``.get``) do not smear multiplicity everywhere.

The ``cost expensive`` / ``cost pure`` / ``cost hot loops`` directives
(see :class:`~repro.analysis.graph.LayeringContract`) parameterize the
PERF rule family built on top of this analysis.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.analysis.effects import EffectAnalysis
from repro.analysis.graph import (
    CallResolver,
    CallSite,
    FunctionInfo,
    LayeringContract,
    ModuleSummary,
)

__all__ = [
    "DEFAULT_COST_ENTRYPOINTS",
    "DEFAULT_COST_EXPENSIVE",
    "DEFAULT_COST_HOT_LOOPS",
    "DEFAULT_COST_PURE",
    "DUCK_MAX",
    "CostAnalysis",
    "Multiplicity",
    "cost_analysis",
    "cost_policy",
    "spec_matches",
]


#: Workload entry points when the contract declares no ``cost
#: entrypoints``: the experiment driver, the matching pipeline, the
#: adapter transform, and the blocking layer (which owns the only
#: sanctioned pair-quadratic loops).
DEFAULT_COST_ENTRYPOINTS = (
    "repro.experiments.runner:ExperimentRunner",
    "repro.matching.pipeline:EMPipeline",
    "repro.adapter.pipeline:EMAdapter.transform",
    "repro.data.blocking",
)

#: Expensive primitives when the contract declares no ``cost
#: expensive``: the transformer forward passes and everything that
#: embeds per sequence.
DEFAULT_COST_EXPENSIVE = (
    "repro.transformers.pretrained:PretrainedEncoder.embed_sequences",
    "repro.transformers.pretrained:PretrainedEncoder._sequence_matrix",
    "repro.nn.transformer:TransformerEncoder.encode",
    "repro.adapter.embedder:TransformerEmbedder.embed_pairs",
)

#: No computation is *declared* pure by default — PERF002 judges purity
#: from the effect fixpoint; the directive exists for dynamic callees
#: the resolver cannot see into.
DEFAULT_COST_PURE: tuple[str, ...] = ()

#: Sanctioned hot loops — modules allowed pair-quadratic nests and
#: per-element inner loops: the blocking layer (quadratic *before*
#: blocking is its whole job), token-level string similarity (inherently
#: quadratic in token counts), and the experiment/parallel grid sweeps
#: (nested config loops, each cell a full run — not a data hot path).
DEFAULT_COST_HOT_LOOPS = (
    "repro.data.blocking",
    "repro.text.similarity",
    "repro.experiments",
    "repro.parallel.grid",
)

#: Duck resolution gives up beyond this many same-named method
#: candidates — the name is effectively dynamic dispatch at that point.
DUCK_MAX = 12

_RANK_NAMES = ("once", "per-record", "per-pair")


@dataclass(frozen=True, order=True)
class Multiplicity:
    """One point of the ``once < per-record < per-pair < per-pair×k``
    lattice.

    ``rank`` counts data-sized loop dimensions (capped at
    :data:`MAX_RANK`); ``k`` marks extra constant-bound factors
    (per-attribute, per-layer) riding on top. Ordering is field order —
    ``(rank, k)`` — which makes ``max()`` the lattice join.
    """

    rank: int = 0
    k: bool = False

    MAX_RANK = 3

    def bump(self, data_loops: int, const_loops: int = 0) -> "Multiplicity":
        """The multiplicity after entering the given loop frames."""
        rank = self.rank + data_loops
        overflow = rank > self.MAX_RANK
        return Multiplicity(
            rank=min(rank, self.MAX_RANK),
            k=self.k or const_loops > 0 or overflow,
        )

    def render(self) -> str:
        base = _RANK_NAMES[min(self.rank, 2)]
        if self.rank >= self.MAX_RANK or self.k:
            return base + "×k"
        return base


ONCE = Multiplicity(0)
PER_RECORD = Multiplicity(1)
PER_PAIR = Multiplicity(2)


def spec_matches(spec: str, module: str, qualname: str) -> bool:
    """Whether a cost-directive spec covers ``module:qualname``.

    Three spec shapes: ``pkg.module:Qual.name`` pins one function (or a
    class and all its methods), ``pkg.module`` covers a module subtree,
    and a bare ``name`` (no ``:``, no ``.``) matches any function or
    method with that final name segment — the escape hatch for callees
    only ever seen through dynamic dispatch.
    """
    if ":" in spec:
        mod, _, qual = spec.partition(":")
        return module == mod and (
            qualname == qual or qualname.startswith(qual + ".")
        )
    if "." in spec:
        return module == spec or module.startswith(spec + ".")
    return qualname == spec or qualname.endswith("." + spec)


def _any_spec(specs: Sequence[str], module: str, qualname: str) -> bool:
    return any(spec_matches(s, module, qualname) for s in specs)


def _name_specs(specs: Sequence[str]) -> frozenset[str]:
    """The bare-name specs, for matching dynamic ``callee_repr`` text."""
    return frozenset(s for s in specs if ":" not in s and "." not in s)


def cost_policy(
    contract: LayeringContract | None,
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """(entrypoints, expensive, pure, hot loops) for one contract."""
    entry: tuple[str, ...] = ()
    expensive: tuple[str, ...] = ()
    pure: tuple[str, ...] = ()
    hot: tuple[str, ...] = ()
    if contract is not None:
        entry = contract.directive("cost entrypoints")
        expensive = contract.directive("cost expensive")
        pure = contract.directive("cost pure")
        hot = contract.directive("cost hot loops")
    return (
        entry or DEFAULT_COST_ENTRYPOINTS,
        expensive or DEFAULT_COST_EXPENSIVE,
        pure or DEFAULT_COST_PURE,
        hot or DEFAULT_COST_HOT_LOOPS,
    )


class CostAnalysis:
    """Multiplicity fixpoint plus the queries the PERF rules consume.

    Keys are ``(module, qualname)`` function identities, exactly the
    :class:`~repro.analysis.graph.CallGraph` convention.
    """

    def __init__(
        self,
        summaries: Mapping[str, ModuleSummary],
        contract: LayeringContract | None = None,
        effects: EffectAnalysis | None = None,
    ):
        self.summaries = summaries
        self.resolver = CallResolver(summaries)
        self.effects = (
            effects if effects is not None else EffectAnalysis(summaries)
        )
        (
            self.entrypoints,
            self.expensive_specs,
            self.pure_specs,
            self.hot_loop_specs,
        ) = cost_policy(contract)
        self._expensive_names = _name_specs(self.expensive_specs)
        self._pure_names = _name_specs(self.pure_specs)
        self._duck: dict[str, tuple[tuple[str, str], ...]] = {}
        self._build_duck_index()
        self.multiplicities: dict[tuple[str, str], Multiplicity] = {}
        #: witness[callee] = (caller key, call site) that last raised it
        self.witness: dict[
            tuple[str, str], tuple[tuple[str, str], CallSite] | None
        ] = {}
        self._propagate()

    # ------------------------------------------------------------ resolution

    def _build_duck_index(self) -> None:
        index: dict[str, list[tuple[str, str]]] = {}
        for module in sorted(self.summaries):
            for qualname, info in self.summaries[module].functions.items():
                if not info.is_method:
                    continue
                name = qualname.rsplit(".", 1)[-1]
                if name.startswith("__") and name.endswith("__"):
                    continue
                index.setdefault(name, []).append((module, qualname))
        self._duck = {n: tuple(keys) for n, keys in index.items()}

    def duck_candidates(self, name: str) -> tuple[tuple[str, str], ...]:
        """Project methods a dynamic ``.name(...)`` call could land on.

        Empty when unknown *or* when more than :data:`DUCK_MAX` classes
        define the name — an over-shared name carries no information.
        """
        candidates = self._duck.get(name, ())
        return candidates if len(candidates) <= DUCK_MAX else ()

    def resolve_candidates(
        self, module: str, caller_qualname: str, site: CallSite
    ) -> tuple[tuple[str, str], ...]:
        """Possible callees of one site: static resolution, then duck.

        Duck resolution only applies to receiver-typed shapes the static
        resolver proved nothing about: ``self``/``method`` always,
        ``attr`` only when the base name is not an import alias (an
        alias base means the resolver's miss was authoritative — the
        callee lives outside the project).
        """
        static = self.resolver.resolve(module, caller_qualname, site)
        if static is not None:
            return (static,)
        shape = site.callee[0]
        if shape in ("self", "method"):
            return self.duck_candidates(site.callee[-1])
        if shape == "attr":
            summary = self.summaries.get(module)
            if summary is not None and site.callee[1] in summary.import_aliases:
                return ()
            return self.duck_candidates(site.callee[2])
        return ()

    # ----------------------------------------------------------- propagation

    def _seed(self) -> list[tuple[str, str]]:
        seeds = []
        for module in sorted(self.summaries):
            for qualname in self.summaries[module].functions:
                if _any_spec(self.entrypoints, module, qualname):
                    seeds.append((module, qualname))
        return seeds

    def _site_factors(
        self, info: FunctionInfo, loops: Sequence[int]
    ) -> tuple[int, int]:
        """(data-sized, constant-bound) loop frames around one site."""
        data = const = 0
        for idx in loops:
            if 0 <= idx < len(info.loops) and info.loops[idx].is_const:
                const += 1
            else:
                data += 1
        return data, const

    def _propagate(self) -> None:
        queue: deque[tuple[str, str]] = deque()
        for key in self._seed():
            self.multiplicities[key] = ONCE
            self.witness[key] = None
            queue.append(key)
        while queue:
            caller = queue.popleft()
            caller_mult = self.multiplicities[caller]
            info = self.summaries[caller[0]].functions[caller[1]]
            for site in info.calls:
                data, const = self._site_factors(info, site.loops)
                site_mult = caller_mult.bump(data, const)
                for callee in self.resolve_candidates(
                    caller[0], caller[1], site
                ):
                    known = self.multiplicities.get(callee)
                    if known is None or site_mult > known:
                        self.multiplicities[callee] = site_mult
                        self.witness[callee] = (caller, site)
                        queue.append(callee)

    # --------------------------------------------------------------- queries

    def multiplicity(self, module: str, qualname: str) -> Multiplicity | None:
        """The function's reached multiplicity, None when unreached."""
        return self.multiplicities.get((module, qualname))

    def site_multiplicity(
        self, module: str, qualname: str, loops: Sequence[int]
    ) -> Multiplicity:
        """Multiplicity of a call site inside ``module:qualname``.

        Unreached enclosing functions are *assumed* to run once — a
        dynamic-dispatch gap in the call graph must not hide a depth-2
        nest from the PERF rules.
        """
        base = self.multiplicities.get((module, qualname), ONCE)
        info = self.summaries[module].functions[qualname]
        data, const = self._site_factors(info, loops)
        return base.bump(data, const)

    def declared_expensive(self, module: str, qualname: str) -> bool:
        """Explicitly listed under ``cost expensive`` (or its defaults)."""
        return _any_spec(self.expensive_specs, module, qualname)

    def is_expensive(self, module: str, qualname: str) -> bool:
        """Declared expensive, or transitively does I/O / process work."""
        if self.declared_expensive(module, qualname):
            return True
        tags = self.effects.function_effects(module, qualname)
        return bool(tags & {"io", "process"})

    def expensive_name(self, name: str) -> bool:
        """Bare-name ``cost expensive`` match for dynamic callees."""
        return name in self._expensive_names

    def is_pure(self, module: str, qualname: str) -> bool:
        """Declared pure, or transitively effect-free per the fixpoint."""
        if _any_spec(self.pure_specs, module, qualname):
            return True
        return not self.effects.function_effects(module, qualname)

    def pure_name(self, name: str) -> bool:
        return name in self._pure_names

    def sanctioned_hot(self, module: str, qualname: str) -> bool:
        """Whether ``cost hot loops`` blesses quadratic nests here."""
        return _any_spec(self.hot_loop_specs, module, qualname)

    def chain(
        self, module: str, qualname: str, limit: int = 10
    ) -> tuple[str, ...]:
        """Rendered witness hops from an entry point to this function.

        Each hop after the first carries the loop frames the witness
        call sat inside, e.g. ``-[for pair in dataset]->``.
        """
        key = (module, qualname)
        if key not in self.multiplicities:
            return ()
        hops = [f"{module}:{qualname}"]
        seen = {key}
        while len(hops) < limit:
            step = self.witness.get(key)
            if step is None:
                break
            caller, site = step
            info = self.summaries[caller[0]].functions[caller[1]]
            frames = " in ".join(
                _frame_repr(info.loops[idx])
                for idx in reversed(site.loops)
                if 0 <= idx < len(info.loops)
            )
            arrow = f"-[{frames}]->" if frames else "->"
            hops[0] = f"{arrow} {hops[0]}"
            if caller in seen:
                hops.insert(0, "…")
                break
            seen.add(caller)
            key = caller
            hops.insert(0, f"{caller[0]}:{caller[1]}")
        return tuple(hops)


def _frame_repr(loop) -> str:
    if loop.kind == "while":
        return "while …"
    head = ", ".join(loop.bound) or "_"
    kind = "" if loop.kind == "for" else f" ({loop.kind})"
    return f"for {head} in {loop.iter_repr}{kind}"


def cost_analysis(project) -> CostAnalysis:
    """The project's :class:`CostAnalysis`, built once and shared.

    All four PERF rules consume the same fixpoint; memoizing on the
    project keeps it to one build per lint, and reuses the project's
    effect fixpoint rather than re-running it.
    """
    from repro.analysis.effects import effect_analysis, project_contract

    cached = getattr(project, "_cost_analysis", None)
    if cached is None:
        cached = CostAnalysis(
            project.summaries,
            contract=project_contract(project),
            effects=effect_analysis(project),
        )
        project._cost_analysis = cached
    return cached
