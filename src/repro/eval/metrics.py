"""Performance metrics (paper §4).

The paper evaluates each PPS "in terms of the number of instructions
required for processing a minimum sized packet", determined by "the
longest pipeline stage"; the live-set overhead is "the ratio, in the
longest pipeline stage, of the number of instructions for live set
transmission ... to the number of instruction counts for packet
processing".

We measure both dynamically: the interpreter executes the sequential PPS
and every pipelined stage on the same min-size traffic, accumulating
machine-model instruction weights (and, separately, the weight spent in
pipe-in/pipe-out pseudo-ops).  Every pipelined run is checked
observationally equivalent to the sequential run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.suite import AppInstance
from repro.ir.function import Function
from repro.pipeline.transform import PipelineResult
from repro.runspec import Knobs, app_pipeline
from repro.runtime.equivalence import Observation, assert_equivalent, observe
from repro.runtime.scheduler import run_pipeline, run_sequential
from repro.runtime.state import MachineState


@dataclass
class SequentialMeasurement:
    """Baseline run of the unpartitioned PPS."""

    app: str
    iterations: int
    total_weight: int
    per_packet: float
    observation: Observation = field(repr=False, default=None)
    total_instructions: int = 0


@dataclass
class PipelineMeasurement:
    """One pipelined configuration of one PPS."""

    app: str
    degree: int
    per_stage: list[float]              # per-packet weight of each stage
    per_stage_transmission: list[float]
    longest_stage: float                # the paper's performance number
    speedup: float                      # perf(1) / perf(d)
    overhead_ratio: float               # transmission / processing, longest stage
    message_words: list[int]            # cut message sizes (incl. control word)
    balanced: list[bool]
    equivalent: bool = True
    total_instructions: int = 0         # raw simulated instructions, all stages

    @property
    def bottleneck_stage(self) -> int:
        return max(range(len(self.per_stage)),
                   key=lambda i: self.per_stage[i]) + 1


def measure_sequential(app: AppInstance) -> SequentialMeasurement:
    """Run the unpartitioned PPS and record per-packet instruction weight."""
    state, iterations = app.fresh_state()
    stats = run_sequential(app.module.pps(app.pps_name), state,
                           iterations=iterations)
    return SequentialMeasurement(
        app=app.name,
        iterations=iterations,
        total_weight=stats.weight,
        per_packet=stats.weight / max(1, iterations),
        observation=observe(state),
        total_instructions=stats.instructions,
    )


def make_profiler(app: AppInstance):
    """A profiler for :func:`repro.pipeline.transform.pipeline_pps`.

    Runs the normalized PPS once per traffic class of the app and returns
    per-class block execution frequencies (executions per iteration), or
    ``None`` when the app has a single class (static weights suffice, as
    in the paper).  Inside ``src/`` the one caller is
    :attr:`AppInstance.profiler <repro.apps.suite.AppInstance.profiler>`.
    """
    setups = app.profile_setups
    if not setups or len(setups) < 2:
        return None

    def profiler(function: Function) -> list[dict[str, float]]:
        profiles = []
        for setup in setups:
            state = MachineState(app.module)
            iterations = setup(state)
            stats = run_sequential(function, state, iterations=iterations)
            profiles.append({
                name: count / max(1, iterations)
                for name, count in stats.block_counts.items()
            })
        return profiles

    return profiler


def partition_app(app: AppInstance, degrees, *, cache=None,
                  knobs: Knobs = Knobs()):
    """Partition ``app`` at every degree > 1, sharing analyses across
    the sweep.

    One :class:`~repro.analysis.context.AnalysisContext` (normalize /
    profile / SSA / dependence computed once) serves the whole degree
    sweep; every cut is solved cold.
    Returns ``(transforms, breakdown)`` where ``transforms`` maps
    degree -> :class:`PipelineResult` and ``breakdown`` maps
    ``str(degree)`` to per-degree phase stats: wall ``seconds``,
    ``cut_iterations`` (balanced-cut collapse steps) and ``pr_work``
    (push-relabel discharges).  Cache hits report the stats recorded
    when the artifact was first solved.
    """
    from time import perf_counter

    from repro.analysis.context import AnalysisContext

    context = AnalysisContext(app.module, app.pps_name,
                              knobs.max_block_instructions)
    transforms: dict[int, PipelineResult] = {}
    breakdown: dict[str, dict] = {}
    for degree in sorted(set(degrees)):
        if degree <= 1:
            continue
        start = perf_counter()
        result = app_pipeline(app, degree, knobs=knobs, cache=cache,
                              context=context)
        seconds = perf_counter() - start
        diagnostics = result.assignment.diagnostics
        transforms[degree] = result
        breakdown[str(degree)] = {
            "seconds": round(seconds, 4),
            "cut_iterations": sum(diag.iterations for diag in diagnostics),
            "pr_work": sum(diag.pr_work for diag in diagnostics),
        }
    return transforms, breakdown


def measure_pipeline(app: AppInstance, degree: int, *,
                     baseline: SequentialMeasurement | None = None,
                     knobs: Knobs = Knobs(),
                     transform: PipelineResult | None = None,
                     cache=None) -> PipelineMeasurement:
    """Pipeline ``app`` at ``degree`` and measure the paper's metrics.

    ``transform`` is the partition to measure; without one the app is
    partitioned here under ``knobs`` (``cache``, a
    :class:`repro.cache.CompileCache`, memoizes that).  The run is
    always checked observationally equivalent to the sequential one.
    """
    if baseline is None:
        baseline = measure_sequential(app)
    if degree == 1:
        return PipelineMeasurement(
            app=app.name, degree=1,
            per_stage=[baseline.per_packet],
            per_stage_transmission=[0.0],
            longest_stage=baseline.per_packet,
            speedup=1.0, overhead_ratio=0.0,
            message_words=[], balanced=[True],
        )
    if transform is None:
        transform = app_pipeline(app, degree, knobs=knobs, cache=cache)
    state, iterations = app.fresh_state()
    run = run_pipeline(transform.stages, state, iterations=iterations)
    assert_equivalent(baseline.observation, observe(state))

    per_stage = []
    per_stage_tx = []
    for stage in transform.stages:
        stats = run.stats[stage.function.name]
        per_stage.append(stats.weight / max(1, iterations))
        per_stage_tx.append(stats.transmission_weight / max(1, iterations))
    longest_index = max(range(len(per_stage)), key=lambda i: per_stage[i])
    longest = per_stage[longest_index]
    transmission = per_stage_tx[longest_index]
    processing = longest - transmission
    return PipelineMeasurement(
        app=app.name,
        degree=degree,
        per_stage=per_stage,
        per_stage_transmission=per_stage_tx,
        longest_stage=longest,
        speedup=baseline.per_packet / longest if longest else float("inf"),
        overhead_ratio=(transmission / processing) if processing else 0.0,
        message_words=[layout.words(transform.strategy)
                       for layout in transform.layouts],
        balanced=[diag.balanced for diag in transform.assignment.diagnostics],
        total_instructions=sum(run.stats[stage.function.name].instructions
                               for stage in transform.stages),
    )


@dataclass
class ReplicationMeasurement:
    """One replicated (multiprocessing) configuration of one PPS.

    The throughput model (paper §5 tradeoff): per-packet work per engine
    is ``total weight / ways / packets``; a serially ordered resource
    caps throughput at its critical-section size per packet — the longest
    of the two is the performance number, mirroring how the longest
    pipeline stage is the pipelining number.
    """

    app: str
    ways: int
    per_engine: float               # per-packet weight per engine
    serial_bound: float             # heaviest critical section per packet
    effective: float                # max of the two: the throughput cost
    speedup: float                  # perf(1) / effective
    sync_overhead: float            # extra weight per packet vs sequential
    serial_sections: dict = field(default_factory=dict)
    equivalent: bool = True


def measure_replication(app: AppInstance, ways: int, *,
                        baseline: SequentialMeasurement | None = None,
                        ) -> ReplicationMeasurement:
    """Replicate ``app`` ``ways`` times and measure the §5 tradeoff."""
    from repro.pipeline.replicate import replicate_pps
    from repro.runtime.scheduler import run_replicas

    if baseline is None:
        baseline = measure_sequential(app)
    replication = replicate_pps(app.module, app.pps_name, ways)
    state, iterations = app.fresh_state()
    run = run_replicas(replication.replicas, state, iterations=iterations)
    assert_equivalent(baseline.observation, observe(state))

    total_weight = sum(stats.weight for stats in run.stats.values())
    per_engine = total_weight / ways / max(1, iterations)
    sections: dict = {}
    for stats in run.stats.values():
        for resource, weight in stats.serial_weight.items():
            sections[resource] = sections.get(resource, 0) + weight
    serial_bound = max(
        (weight / max(1, iterations) for weight in sections.values()),
        default=0.0,
    )
    effective = max(per_engine, serial_bound)
    return ReplicationMeasurement(
        app=app.name,
        ways=ways,
        per_engine=per_engine,
        serial_bound=serial_bound,
        effective=effective,
        speedup=baseline.per_packet / effective if effective else float("inf"),
        sync_overhead=(total_weight / max(1, iterations)) - baseline.per_packet,
        serial_sections={resource: weight / max(1, iterations)
                         for resource, weight in sections.items()},
    )
