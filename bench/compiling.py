"""From PPS-C source to a verified, runnable pipeline.

``compile_half`` takes the path ``repro run`` takes — what the untraced
runs time.  ``trace_compile`` walks the same inputs through each layer's
public functions one at a time, which is where the per-layer numbers
come from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from simulating import SimGroup


@dataclass
class Compiled:
    """One program after a half: its module and a result per degree."""

    program: object
    module: object
    results: dict = field(default_factory=dict)     # degree -> result

    def sim_group(self, sequential_is_cell: bool) -> SimGroup:
        program = self.program
        return SimGroup(
            program.name, self.module, self.module.pps(program.pps),
            program.feed,
            {degree: result.stages
             for degree, result in self.results.items()},
            sequential_is_cell=sequential_is_cell)


@dataclass
class Half:
    """One half of a pass: every program compiled against one cache."""

    seconds: float = 0.0
    attempts: int = 0                               # ladder rungs tried
    degraded: int = 0                               # cells below degree
    hits: int = 0
    lookups: int = 0
    cache_bytes: int = 0                            # on disk afterwards
    corrupt: int = 0
    #: What must repeat exactly between passes of one seed.
    signature: list = field(default_factory=list)
    #: Model speedup per checked cell of a program that is the same
    #: under every seed (filled by the workload's check).
    speedups: list = field(default_factory=list)


def live_words(result) -> int:
    return sum(layout.words(result.strategy) for layout in result.layouts)


def longest_stage_weight(result) -> int:
    """Static instruction weight of the longest stage — the number the
    paper's evaluation is about."""
    return max(stage.function.weight() for stage in result.stages)


def pr_work(result) -> int:
    return sum(cut.pr_work for cut in result.assignment.diagnostics)


def compile_half(programs: list, cache, ledger, key,
                 on_compiled=None) -> Half:
    """Compile every program at every degree the way a user does.

    Source text -> ``repro.compile_module`` -> one shared
    ``AnalysisContext`` per program -> each degree in ascending order
    through ``supervise_partition`` (partition plus independent verify,
    default knobs) -> ``compile_function`` on every stage.  New
    ``Module`` objects every time, so no in-process memo carries over.
    ``key(program, degree)`` names the cell's op in ``ledger``; a cell
    fails on any exception, a verifier finding, or a degraded rung.

    ``on_compiled(compiled)`` is called after each program with its
    pipelines (to check or keep them); its time is taken off the clock,
    and the pipelines are dropped afterwards — a user's process does not
    hold every pipeline it ever built, and holding them here would slow
    the collector for the programs that follow.
    """
    import repro
    from repro.analysis.context import AnalysisContext
    from repro.pipeline.supervisor import supervise_partition
    from repro.runtime.compile import compile_function

    half = Half()
    before = (cache.hits, cache.misses)
    paused = 0.0
    start = perf_counter()
    for program in programs:
        cells = [key(program, degree) for degree in program.degrees]
        for cell in cells:
            ledger.attempt(cell)
        try:
            module = repro.compile_module(program.source, program.name)
            context = AnalysisContext(module, program.pps)
        except Exception as exc:
            ledger.fail_all(cells, f"{program.name}: front end: {exc!r}")
            continue
        compiled = Compiled(program, module)
        for degree, cell in zip(program.degrees, cells):
            try:
                outcome = supervise_partition(
                    module, program.pps, degree, context=context,
                    cache=cache, profiler=program.profiler)
                half.attempts += len(outcome.attempts)
                half.degraded += outcome.degraded
                if not outcome.ok or outcome.degraded:
                    ledger.fail(cell, outcome.summary())
                elif not outcome.verdict.ok:
                    ledger.fail(cell, f"{program.name} d={degree}: "
                                      f"verifier findings")
                else:
                    result = outcome.result
                    for stage in result.stages:
                        compile_function(stage.function)
                    compiled.results[degree] = result
                    half.signature.append(
                        (program.name, degree, pr_work(result),
                         live_words(result), longest_stage_weight(result)))
            except Exception as exc:
                ledger.fail(cell, f"{program.name} d={degree}: {exc!r}")
        if on_compiled is not None:
            pause = perf_counter()
            on_compiled(compiled)
            paused += perf_counter() - pause
    half.seconds = perf_counter() - start - paused
    half.hits = cache.hits - before[0]
    half.lookups = half.hits + cache.misses - before[1]
    half.cache_bytes = sum(path.stat().st_size for path
                           in (cache.root / "objects").glob("*/*.bin"))
    half.corrupt = cache.corrupt
    return half


def trace_compile(rec, programs: list, cache_dir) -> None:
    """The same inputs, one layer call at a time, under spans.

    Each call is the layer's public function with the arguments the
    top-level path gives it; counts are taken at the same boundaries.
    The cut search, layout and realization therefore run twice per cell
    (once alone, once inside ``pipeline_pps``);
    ``obs.bench_trace_overhead`` says what the doubling costs.
    """
    from repro import (
        compile_source,
        inline_module,
        lower_program,
        optimize_module,
        pipeline_pps,
    )
    from repro.analysis.context import AnalysisContext
    from repro.cache import CompileCache, compile_key
    from repro.flownet.warmstart import WarmStartCache
    from repro.machine.costs import NN_RING
    from repro.pipeline.cuts import select_stages
    from repro.pipeline.liveset import Strategy, compute_cut_layouts
    from repro.pipeline.realize import realize_stages
    from repro.pipeline.verify import verify_partition
    from repro.runtime.compile import compile_function

    cache = CompileCache(cache_dir)
    for program in programs:
        with rec.span("lang.parse"):
            ast = compile_source(program.source, program.name)
        rec.count("lang.source_bytes", len(program.source.encode()))
        with rec.span("ir.lower"):
            module = lower_program(ast, program.name)
        with rec.span("ir.inline"):
            inline_module(module)
        with rec.span("ir.optimize"):
            optimize_module(module)
        rec.count("ir.instructions",
                  len(module.pps(program.pps).all_instructions()))
        with rec.span("analysis.normalize"):
            context = AnalysisContext(module, program.pps)
        with rec.span("analysis.ssa"):
            context.ssa
        with rec.span("analysis.dependence"):
            model = context.model
        with rec.span("analysis.liveness"):
            context.liveness
        with rec.span("analysis.profile"):
            profiles = context.profiles_for(program.profiler)
        for degree in program.degrees:
            # A fresh warm-start cache per call, as the supervisor makes.
            with rec.span("flownet.select_stages"):
                assignment = select_stages(model, degree, profiles=profiles,
                                           warm=WarmStartCache())
            cuts = assignment.diagnostics
            rec.count("flownet.pr_work", sum(cut.pr_work for cut in cuts))
            rec.count("flownet.cut_iterations",
                      sum(cut.iterations for cut in cuts))
            rec.count("flownet.cuts", len(cuts))
            rec.count("flownet.warm_hits",
                      sum(1 for cut in cuts if cut.warm_hit))
            # Timed directly, not as partition minus cut search: the
            # second cut search of a cell finds the model's memos warm,
            # so the difference comes out negative.
            with rec.span("pipeline.realize"):
                layouts = compute_cut_layouts(
                    context.work, context.loop.body, assignment.block_stage,
                    degree, interference="exact",
                    liveness=context.liveness)
                realize_stages(context.work, context.loop, assignment,
                               layouts, module, NN_RING, Strategy.PACKED,
                               program.pps)
            with rec.span("pipeline.partition"):
                result = pipeline_pps(module, program.pps, degree,
                                      profiler=program.profiler,
                                      context=context, cache=None,
                                      warm=WarmStartCache())
            with rec.span("pipeline.verify"):
                verdict = verify_partition(result, context=context)
            if not verdict.ok:
                raise AssertionError(f"{program.name} d={degree}: "
                                     f"verifier findings in traced pass")
            rec.count("pipeline.live_words", live_words(result))
            rec.count("pipeline.longest_stage_weight",
                      longest_stage_weight(result))
            with rec.span("cache.key"):
                address = compile_key(
                    module, program.pps, degree, costs=NN_RING,
                    epsilon=1.0 / 16.0, strategy=Strategy.PACKED,
                    incremental=True, interference="exact",
                    max_block_instructions=12, profiles=profiles)
            expect = {"degree": degree}
            with rec.span("cache.lookup"):
                missing = cache.lookup(address, expect=expect)
            with rec.span("cache.store"):
                cache.store(address, result, annotations={
                    "degree": degree, "verified": True})
            with rec.span("cache.lookup"):
                stored = cache.lookup(address, expect=expect)
            if missing is not None or stored is None:
                raise AssertionError(f"{program.name} d={degree}: cache "
                                     f"did not miss then hit")
            # Unpickled functions are new objects: threaded code is cold.
            with rec.span("runtime.tcc"):
                for stage in stored.stages:
                    compile_function(stage.function)
            rec.count("runtime.tcc_functions", len(stored.stages))
    rec.count("cache.corrupt", cache.corrupt)
