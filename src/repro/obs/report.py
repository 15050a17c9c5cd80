"""Structured runtime counter reports.

After a scheduler run, :func:`runtime_report` assembles the counters the
execution core already maintains — per-interpreter
:class:`~repro.runtime.interp.InterpStats`, the per-pipe send/recv/depth
tallies on :class:`~repro.runtime.state.Pipe`, and the park/notify/wake
tallies on :class:`~repro.runtime.state.WakeHub` — into one structured,
JSON-serializable report.  Nothing here touches the hot loops: the report
is a pure read-out, which is how tracing stays free when disabled.

``repro run --profile`` renders the report as text; ``repro run --trace``
additionally folds it into the Chrome trace as counter events
(:func:`emit_counter_events`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.tracer import TID_COMPILE, TID_RUNTIME, Tracer
from repro.runtime.compile import compile_function
from repro.runtime.state import MachineState


@dataclass
class StageCounters:
    """Execution totals of one interpreter (PPS or pipeline stage)."""

    name: str
    instructions: int
    weight: int                  # machine-model cycles
    iterations: int
    transmission_weight: int
    blocked: int
    #: Driver round trips into generated code (``None`` when the caller
    #: did not say which functions ran): the executions of the region
    #: roots, read off ``InterpStats.block_counts`` after the run.
    dispatches: int | None = None


@dataclass
class PipeCounters:
    """Traffic totals of one pipe."""

    name: str
    sent: int
    received: int
    high_water: int              # depth high-water mark
    residual: int                # messages left after the run


@dataclass
class RuntimeReport:
    """Per-stage / per-pipe / scheduler counters of one run."""

    stages: list[StageCounters] = field(default_factory=list)
    pipes: list[PipeCounters] = field(default_factory=list)
    wake_parks: int = 0
    wake_notifies: int = 0
    wake_wakes: int = 0
    wake_stranded: int = 0
    #: Chaos sections — populated only when the corresponding feature ran
    #: (``faults`` from an armed FaultInjector, ``watchdog`` from a
    #: Watchdog, ``dead_letters`` from trap isolation); None/empty keeps
    #: fault-free reports byte-compatible.
    faults: dict | None = None
    watchdog: dict | None = None
    dead_letters: list = field(default_factory=list)
    #: Compile-cache counters (hits/misses/stores/corrupt/evictions) —
    #: populated only when the run compiled through a CompileCache.
    cache: dict | None = None
    #: Supervised-partition outcome (verifier verdict, achieved vs
    #: requested degree) — populated only when the run partitioned
    #: through the supervisor.
    partition: dict | None = None
    #: Serving-supervisor counters (workers spawned, restarts, journal
    #: replays, redeliveries, re-shardings) — populated only when the
    #: run went through the sharded serving runtime (``repro serve``).
    serve: dict | None = None

    def as_dict(self) -> dict:
        result = {
            "stages": [vars(stage).copy() for stage in self.stages],
            "pipes": [vars(pipe).copy() for pipe in self.pipes],
            "wake_hub": {
                "parks": self.wake_parks,
                "notifies": self.wake_notifies,
                "wakes": self.wake_wakes,
                "stranded": self.wake_stranded,
            },
        }
        if self.faults is not None:
            result["faults"] = dict(self.faults)
        if self.watchdog is not None:
            result["watchdog"] = dict(self.watchdog)
        if self.dead_letters:
            result["dead_letters"] = [letter.as_dict()
                                      for letter in self.dead_letters]
        if self.cache is not None:
            result["cache"] = dict(self.cache)
        if self.partition is not None:
            result["partition"] = dict(self.partition)
        if self.serve is not None:
            result["serve"] = dict(self.serve)
        return result

    def render(self) -> str:
        """Text rendering for ``repro run --profile``."""
        lines = ["runtime profile:"]
        if self.stages:
            lines.append("  stage                        instrs   cycles "
                         "  iters  tx-cycles  blocked  dispatches")
            for stage in self.stages:
                dispatches = "-" if stage.dispatches is None \
                    else stage.dispatches
                lines.append(
                    f"  {stage.name:26s} {stage.instructions:8d} "
                    f"{stage.weight:8d} {stage.iterations:7d} "
                    f"{stage.transmission_weight:10d} {stage.blocked:8d} "
                    f"{dispatches:>11}")
        if self.pipes:
            lines.append("  pipe                           sent recvd "
                         "high-water residual")
            for pipe in self.pipes:
                lines.append(
                    f"  {pipe.name:28s} {pipe.sent:6d} {pipe.received:5d} "
                    f"{pipe.high_water:10d} {pipe.residual:8d}")
        lines.append(f"  wake-hub: {self.wake_parks} parks, "
                     f"{self.wake_notifies} notifies, "
                     f"{self.wake_wakes} wakes, "
                     f"{self.wake_stranded} stranded")
        if self.faults is not None:
            pairs = ", ".join(f"{key}={value}"
                              for key, value in self.faults.items()
                              if key not in ("plan", "seed") and value)
            label = self.faults.get("plan") or "anonymous"
            lines.append(f"  faults: plan {label} "
                         f"(seed {self.faults.get('seed')}) "
                         f"{pairs or 'no events'}")
        if self.watchdog is not None:
            lines.append(
                f"  watchdog: {self.watchdog.get('quiescence_checks', 0)} "
                f"quiescence checks, "
                f"{self.watchdog.get('progress_checks', 0)} progress checks")
        if self.dead_letters:
            lines.append(f"  dead letters: {len(self.dead_letters)}")
            for letter in self.dead_letters:
                lines.append(
                    f"    {letter.stage} iter {letter.iteration} "
                    f"block {letter.last_block}: {letter.detail}")
        if self.cache is not None:
            lines.append(
                f"  compile cache: {self.cache.get('hits', 0)} hits, "
                f"{self.cache.get('misses', 0)} misses, "
                f"{self.cache.get('stores', 0)} stores, "
                f"{self.cache.get('evictions', 0)} evicted, "
                f"{self.cache.get('corrupt', 0)} corrupt")
        if self.partition is not None:
            achieved = self.partition.get("achieved_degree")
            requested = self.partition.get("requested_degree")
            verdict = self.partition.get("verdict") or {}
            status = "verified" if verdict.get("ok") else "unverified"
            note = (f" (DEGRADED from {requested})"
                    if self.partition.get("degraded") else "")
            lines.append(f"  partition: {status} at degree {achieved}{note}, "
                         f"{len(self.partition.get('attempts', []))} "
                         f"attempts")
        if self.serve is not None:
            lines.append(
                f"  serve: {self.serve.get('workers_spawned', 0)} workers, "
                f"{self.serve.get('restarts', 0)} restarts, "
                f"{self.serve.get('replays', 0)} replays, "
                f"{self.serve.get('redeliveries', 0)} redeliveries, "
                f"{self.serve.get('committed', 0)}/"
                f"{self.serve.get('batches', 0)} batches committed, "
                f"{self.serve.get('resharded', 0)} resharded")
        return "\n".join(lines)


def runtime_report(stats: dict, state: MachineState, *, functions=(),
                   watchdog=None, cache=None,
                   partition=None) -> RuntimeReport:
    """Assemble the report for one finished run.

    ``stats`` maps interpreter name -> ``InterpStats`` (e.g.
    ``RunResult.stats``); ``state`` is the machine the run executed on;
    ``functions`` are the IR functions those interpreters ran (matched by
    name), from whose compiled regions each stage's ``dispatches`` is
    derived; ``watchdog`` optionally contributes its check counters; ``cache``
    (a :class:`repro.cache.CompileCache`) contributes hit/miss/evict
    counters when compilation went through the artifact cache;
    ``partition`` (a :class:`repro.pipeline.PartitionOutcome`)
    contributes the verifier verdict and achieved degree when
    partitioning went through the supervisor.
    """
    report = RuntimeReport()
    compiled = {function.name: compile_function(function)
                for function in functions}
    for name in sorted(stats):
        entry = stats[name]
        report.stages.append(StageCounters(
            name=name,
            instructions=entry.instructions,
            weight=entry.weight,
            iterations=entry.iterations,
            transmission_weight=entry.transmission_weight,
            blocked=entry.blocked,
            dispatches=compiled[name].dispatches(entry.block_counts)
            if name in compiled else None,
        ))
    for name in sorted(state.pipes):
        pipe = state.pipes[name]
        if not (pipe.sent or pipe.received or pipe.queue):
            continue  # never touched: noise in wide modules
        report.pipes.append(PipeCounters(
            name=name,
            sent=pipe.sent,
            received=pipe.received,
            high_water=pipe.high_water,
            residual=len(pipe.queue),
        ))
    hub = state.wake_hub
    report.wake_parks = hub.parks
    report.wake_notifies = hub.notifies
    report.wake_wakes = hub.wakes
    report.wake_stranded = hub.stranded
    faults = getattr(state, "faults", None)
    if faults is not None:
        report.faults = faults.counters()
    if watchdog is not None:
        report.watchdog = watchdog.as_dict()
    report.dead_letters = list(getattr(state, "dead_letters", ()))
    if cache is not None:
        report.cache = cache.counters()
    if partition is not None:
        report.partition = partition.as_dict()
    return report


def emit_counter_events(tracer: Tracer, report: RuntimeReport) -> None:
    """Fold a runtime report into a trace as ``"C"`` counter events."""
    for stage in report.stages:
        tracer.counter(f"stage {stage.name}", {
            "instructions": stage.instructions,
            "cycles": stage.weight,
            "iterations": stage.iterations,
            "tx_cycles": stage.transmission_weight,
            "blocked": stage.blocked,
            **({} if stage.dispatches is None
               else {"dispatches": stage.dispatches}),
        }, cat="stage", tid=TID_RUNTIME)
    for pipe in report.pipes:
        tracer.counter(f"pipe {pipe.name}", {
            "sent": pipe.sent,
            "received": pipe.received,
            "high_water": pipe.high_water,
            "residual": pipe.residual,
        }, cat="pipe", tid=TID_RUNTIME)
    tracer.counter("wake_hub", {
        "parks": report.wake_parks,
        "notifies": report.wake_notifies,
        "wakes": report.wake_wakes,
        "stranded": report.wake_stranded,
    }, cat="scheduler", tid=TID_RUNTIME)
    if report.faults is not None:
        tracer.counter("faults", {
            key: value for key, value in report.faults.items()
            if isinstance(value, int) and key != "seed"
        }, cat="faults", tid=TID_RUNTIME)
    if report.watchdog is not None:
        tracer.counter("watchdog", {
            key: value for key, value in report.watchdog.items()
            if isinstance(value, int)
        }, cat="scheduler", tid=TID_RUNTIME)
    if report.cache is not None:
        tracer.counter("compile_cache", {
            key: value for key, value in report.cache.items()
            if isinstance(value, int)
        }, cat="cache", tid=TID_COMPILE)
    if report.serve is not None:
        tracer.counter("serve", {
            key: value for key, value in report.serve.items()
            if isinstance(value, int)
        }, cat="serve", tid=TID_RUNTIME)
    for letter in report.dead_letters:
        tracer.instant(f"dead_letter {letter.stage}", cat="faults",
                       tid=TID_RUNTIME, **letter.as_dict())
