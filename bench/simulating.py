"""The ``runtime`` layer: simulate cells and check each against its
sequential run.

One function serves the timed ``sim_steady`` passes, the correctness
check that ends every compile cell, and the traced runs: with the
recorder off its spans are no-ops and only ``run_*`` is timed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Callable

from stats import equivalent


@dataclass
class SimGroup:
    """One program: its sequential PPS and the pipelines built from it."""

    name: str
    module: object
    function: object                       # the sequential PPS
    feed: Callable                         # feed(module) -> (state, n)
    pipelines: dict = field(default_factory=dict)   # degree -> stages
    #: Whether the sequential run is itself a timed cell (``sim_steady``
    #: D=1) or only the baseline the pipelines are compared with.
    sequential_is_cell: bool = True


@dataclass
class SimPass:
    """What one pass over a list of groups measured."""

    cell_seconds: list = field(default_factory=list)   # run_* only
    cell_instructions: list = field(default_factory=list)
    packets: int = 0
    seq_seconds: float = 0.0
    seq_instructions: int = 0
    pipe_seconds: float = 0.0
    pipe_instructions: int = 0
    cpu_seconds: float = 0.0
    speedups: list = field(default_factory=list)       # per cell

    @property
    def seconds(self) -> float:
        return self.seq_seconds + self.pipe_seconds

    @property
    def instructions(self) -> int:
        return self.seq_instructions + self.pipe_instructions


def count_report(rec, stats: dict, state) -> None:
    """Scheduler and pipe counters of one finished state (traced only).
    The wake-hub and pipe counters are totals of the state's life, so
    call this once per state."""
    if not rec.enabled:
        return
    from repro import runtime_report

    report = runtime_report(stats, state)
    rec.count("runtime.blocked", sum(stage.blocked
                                     for stage in report.stages))
    rec.count("runtime.wake_parks", report.wake_parks)
    rec.count("runtime.wake_notifies", report.wake_notifies)
    depth = max((pipe.high_water for pipe in report.pipes
                 if ".xfer" in pipe.name), default=0)
    rec.counts["runtime.pipe_high_water"] = max(
        rec.counts["runtime.pipe_high_water"], depth)


def _timed_run(rec, group: SimGroup, run: Callable):
    """Feed a fresh state and time ``run(state, packets)`` alone; returns
    the state, the packets fed, the per-interpreter stats, the ``run_*``
    seconds and the process CPU seconds."""
    with rec.span("apps.feed"):
        state, packets = group.feed(group.module)
    cpu = process_time()
    start = perf_counter()
    with rec.span("runtime.sim"):
        stats = run(state, packets)
    seconds = perf_counter() - start
    return state, packets, stats, seconds, process_time() - cpu


def simulate(rec, groups: list, ledger, key: Callable) -> SimPass:
    """Run every cell of every group once.

    ``key(group, degree)`` names the op a cell belongs to in ``ledger``;
    a cell fails on any exception or when its observation differs from
    the group's sequential run.
    """
    from repro import observe, run_pipeline, run_sequential

    result = SimPass()

    def record(pipelined: bool, seconds: float, stats: dict,
               packets: int) -> None:
        instructions = sum(entry.instructions for entry in stats.values())
        result.cell_seconds.append(seconds)
        result.cell_instructions.append(instructions)
        result.packets += packets
        if pipelined:
            result.pipe_seconds += seconds
            result.pipe_instructions += instructions
        else:
            result.seq_seconds += seconds
            result.seq_instructions += instructions

    for group in groups:
        degrees = sorted(group.pipelines)
        cells = ([1] if group.sequential_is_cell else []) + degrees
        for degree in cells:
            ledger.attempt(key(group, degree))
        function = group.function
        try:
            state, packets, stats, seconds, cpu = _timed_run(
                rec, group, lambda state, packets: {
                    function.name: run_sequential(function, state,
                                                  iterations=packets)})
            result.cpu_seconds += cpu
            with rec.span("runtime.observe"):
                baseline = observe(state)
            count_report(rec, stats, state)
        except Exception as exc:
            ledger.fail_all((key(group, degree) for degree in cells),
                            f"{group.name}: sequential run: {exc!r}")
            continue
        sequential_weight = stats[function.name].weight / max(1, packets)
        if group.sequential_is_cell:
            record(False, seconds, stats, packets)
            result.speedups.append(1.0)
        for degree in degrees:
            stages = group.pipelines[degree]
            try:
                state, packets, stats, seconds, cpu = _timed_run(
                    rec, group, lambda state, packets: run_pipeline(
                        stages, state, iterations=packets).stats)
                result.cpu_seconds += cpu
                with rec.span("runtime.observe"):
                    mismatch = equivalent(baseline, observe(state))
                count_report(rec, stats, state)
            except Exception as exc:
                ledger.fail(key(group, degree),
                            f"{group.name} d={degree}: {exc!r}")
                continue
            if mismatch is not None:
                ledger.fail(key(group, degree),
                            f"{group.name} d={degree}: {mismatch}")
                continue
            record(True, seconds, stats, packets)
            longest = max(entry.weight for entry in stats.values())
            result.speedups.append(
                sequential_weight / (longest / max(1, packets)))
    rec.count("runtime.seq_instructions", result.seq_instructions)
    rec.count("runtime.seq_seconds", result.seq_seconds)
    rec.count("runtime.pipe_instructions", result.pipe_instructions)
    rec.count("runtime.pipe_seconds", result.pipe_seconds)
    rec.count("runtime.cpu_seconds", result.cpu_seconds)
    return result
