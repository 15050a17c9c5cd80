"""The end-to-end pipelining transformation driver (paper §3.1).

``pipeline_pps`` runs the full framework on one PPS:

1. normalize: split long straight-line blocks so cuts can fall anywhere
   (the paper cuts at arbitrary control-flow points);
2. model: SSA-convert a working copy, build the loop dependence model
   (CFG SCCs, dependence graph, dependence SCCs);
3. cut: select D−1 successive balanced minimum cuts on the flow network;
4. layout: compute the per-cut live sets and message layouts;
5. realize: emit one IR function per stage, chained by stage pipes.

The original module is never mutated except for registering the stage
pipes; the result carries everything the evaluation harness needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg import PpsLoop
from repro.analysis.context import AnalysisContext
from repro.errors import ReproError
from repro.ir.function import Function, Module
from repro.ir.instructions import Call
from repro.ir.verify import verify_function
from repro.lang.intrinsics import Effect, get_intrinsic
from repro.machine.costs import CostModel
from repro.obs import tracer as obs
from repro.pipeline.cuts import StageAssignment, select_stages
from repro.pipeline.liveset import CutLayout, Strategy, compute_cut_layouts
from repro.pipeline.realize import StageProgram, realize_stages
from repro.runspec import Knobs

#: Prologue intrinsics that are safe to replicate into every stage.
_REPLICABLE_EFFECTS = frozenset({Effect.PURE, Effect.MEM_READ})


class PipelineError(ReproError):
    """The PPS cannot be pipelined as requested."""


@dataclass
class PipelineResult:
    """Everything produced by one pipelining transformation.

    The result is also the cached artifact, so it holds what its readers
    use and no analysis objects: the dependence model the cuts were
    selected on stays in the :class:`AnalysisContext`; only the static
    weight it gave each stage rides along.
    """

    pps_name: str
    degree: int
    stages: list[StageProgram]
    assignment: StageAssignment
    #: Static instruction weight per stage (1-based), as
    #: ``assignment.stage_weights(model)`` reported it at selection time.
    stage_weights: dict[int, int]
    layouts: list[CutLayout]
    strategy: Strategy
    costs: CostModel
    normalized: Function  # the block-split single-PPS working copy
    loop: PpsLoop = field(repr=False, default=None)
    #: True when the cuts were profile-dimensioned (the post-cut greedy
    #: refinement rebalances by *dynamic* weight, so the verifier must
    #: not hold the static ε envelope against the result).
    profiled: bool = False


def pipeline_pps(module: Module, pps_name: str, degree: int, *,
                 knobs: Knobs = Knobs(),
                 profiler=None,
                 cut_strategy=None,
                 cache=None,
                 context: AnalysisContext | None = None,
                 warm=None) -> PipelineResult:
    """Partition PPS ``pps_name`` into a ``degree``-stage pipeline.

    ``knobs`` holds the partitioner's other inputs — cost table, balance
    slack, transmission strategy, block-split threshold (see
    :class:`~repro.runspec.Knobs`).  ``profiler`` (optional) is called with the normalized (block-split)
    single-PPS function and must return one block-frequency map per traffic
    class; the balanced cuts then equalize every class's dynamic weight
    across stages (profile-dimensioned weight function).

    ``context`` (optional) is a shared :class:`AnalysisContext`; when it
    matches this request (same module object, PPS, and block-split knob)
    the normalize / profile / SSA / dependence phases reuse its results
    instead of recomputing them — the intended usage for degree sweeps
    and supervisor ladders.  A non-matching context is rebuilt, never
    trusted.  ``warm`` is accepted and ignored — a vestige the frozen
    ``bench/compiling.py`` still passes; it goes with ROADMAP item 5's
    benchmark refresh.

    ``cut_strategy`` (optional) replaces the balanced-min-cut stage
    selection with a custom ``(model, degree) -> StageAssignment`` — used
    by the baseline-partitioner ablations.

    ``cache`` (optional) is a :class:`repro.cache.CompileCache`; the
    partition result is looked up / stored by content address, keyed on
    the canonical PPS text, ``degree``, the cost table, and every
    partitioner knob (including the profiler's output).  A hit skips the
    SSA / dependence / balanced-cut / layout / realize phases entirely
    and is bit-identical to a fresh compile.  ``cut_strategy`` bypasses
    the cache (a callback is not content-addressable).
    """
    if pps_name not in module.ppses:
        raise PipelineError(f"unknown pps {pps_name!r}")
    if degree < 1:
        raise PipelineError("pipelining degree must be >= 1")
    source = module.pps(pps_name)
    _check_inlined(source)

    with obs.span("pipeline_pps", cat="compile", pps=pps_name, degree=degree):
        if context is None or not context.matches(
                module, pps_name, knobs.max_block_instructions):
            context = AnalysisContext(module, pps_name,
                                      knobs.max_block_instructions)
        work = context.work
        loop = context.loop
        _check_prologue(work, loop)

        profiles = context.profiles_for(profiler)

        key = None
        if cache is not None and cut_strategy is None:
            from repro.cache import compile_key

            key = compile_key(module, pps_name, degree, profiles=profiles,
                              **vars(knobs))
            # The expectation rejects any mislabeled envelope: an artifact
            # stamped with a lower achieved degree (a degraded partition)
            # is never served for a full-degree request.
            cached = cache.lookup(key, expect={"degree": degree})
            obs.instant("cache_lookup", cat="cache", pps=pps_name,
                        degree=degree, key=key[:16],
                        outcome="hit" if cached is not None else "miss")
            if cached is not None:
                _register_stage_pipes(module, cached)
                return cached

        model = context.model

        with obs.span("select_stages", cat="compile", pps=pps_name,
                      degree=degree):
            if cut_strategy is not None:
                assignment = cut_strategy(model, degree)
            else:
                assignment = select_stages(model, degree, costs=knobs.costs,
                                           epsilon=knobs.epsilon,
                                           profiles=profiles)
        with obs.span("liveset_layout", cat="compile", pps=pps_name):
            layouts = compute_cut_layouts(work, loop.body,
                                          assignment.block_stage,
                                          degree,
                                          interference=knobs.interference,
                                          liveness=context.liveness)
        for layout in layouts:
            obs.instant("cut_layout", cat="compile",
                        cut=layout.cut_index,
                        live_values=len(layout.variables),
                        words=layout.words(knobs.strategy),
                        targets=len(layout.targets))
        with obs.span("realize", cat="compile", pps=pps_name):
            stages = realize_stages(work, loop, assignment, layouts, module,
                                    knobs.costs, knobs.strategy, pps_name)
        with obs.span("verify", cat="compile", pps=pps_name):
            for stage in stages:
                verify_function(stage.function)
    result = PipelineResult(
        pps_name=pps_name,
        degree=degree,
        stages=stages,
        assignment=assignment,
        stage_weights=assignment.stage_weights(model),
        layouts=layouts,
        strategy=knobs.strategy,
        costs=knobs.costs,
        normalized=work,
        loop=loop,
        profiled=profiles is not None,
    )
    if key is not None:
        cache.store(key, result, annotations={"degree": degree})
    return result


def _register_stage_pipes(module: Module, result: PipelineResult) -> None:
    """Replicate :func:`realize_stages`' only module side effect for a
    cache-restored result: register the inter-stage pipes."""
    from repro.ir.values import PipeRef

    for stage in result.stages:
        for ref in (stage.in_pipe, stage.out_pipe):
            if ref is not None:
                module.pipes.setdefault(ref.name, PipeRef(ref.name))


def _check_inlined(function: Function) -> None:
    for inst in function.all_instructions():
        if isinstance(inst, Call) and not inst.is_intrinsic:
            raise PipelineError(
                f"{function.name}: call to {inst.callee!r} must be inlined "
                f"before pipelining (run inline_module)"
            )


def _check_prologue(function: Function, loop: PpsLoop) -> None:
    """The prologue is replicated per stage, so it must be replicable:
    no channel, device, packet, trace, or shared-memory-write effects."""
    body = set(loop.body)
    for name in function.block_order:
        if name in body:
            continue
        for inst in function.block(name).all_instructions():
            if isinstance(inst, Call) and inst.is_intrinsic:
                effect = get_intrinsic(inst.callee).effect
                if effect not in _REPLICABLE_EFFECTS:
                    raise PipelineError(
                        f"{function.name}: prologue intrinsic "
                        f"{inst.callee!r} has effect {effect.value}; the "
                        f"prologue is replicated per stage and must be free "
                        f"of such side effects"
                    )
