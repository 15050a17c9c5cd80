"""Cooperative execution of one or more PPS interpreters.

``run_group`` drives a set of interpreters until quiescence: every
interpreter is finished, or everyone left is blocked on empty pipes /
full bounded pipes / idle devices / sequencers.  This executes a whole
pipelined PPS — or several communicating PPSes — faithfully, including
bounded stage pipes (a full ring blocks the sender), the one way a
fault plan perturbs the schedule.

The scheduler keeps a ready deque and parks blocked interpreters on the
:class:`~repro.runtime.state.WakeHub` key of the resource they are
waiting for; a ``Pipe.send``/``recv``, ``feed_packet`` or sequencer
advance wakes exactly the parked waiters.  Quiescence is simply "the
ready deque is empty"; the run's own
:class:`~repro.runtime.watchdog.Watchdog` then judges whether it
drained or deadlocked, and it checks instruction progress every
:data:`~repro.runtime.watchdog.QUANTUM` steps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import TrapError
from repro.ir.function import Function
from repro.obs import tracer as obs
from repro.runtime.compile import compile_function
from repro.runtime.faults import DeadLetter
from repro.runtime.interp import Interpreter, InterpStats
from repro.runtime.state import MachineState
from repro.runtime.watchdog import Watchdog

#: Per-stage quarantine budget: a stage that traps more often than this
#: is broken beyond isolation and the run aborts with the last trap.
MAX_TRAPS_PER_STAGE = 1000


@dataclass
class RunResult:
    """Aggregated outcome of a scheduler run."""

    stats: dict[str, InterpStats] = field(default_factory=dict)


def _quarantine(name: str, interp: Interpreter, exc: TrapError) -> bool:
    """Try to isolate a trapped iteration; True when the stage may go on."""
    if not interp.can_quarantine():
        return False
    interp.stats.traps += 1
    if interp.stats.traps > MAX_TRAPS_PER_STAGE:
        return False
    interp.state.dead_letters.append(DeadLetter(
        stage=name,
        iteration=interp.stats.iterations,
        instructions=interp.stats.instructions,
        last_block=interp.prev_block,
        cause=type(exc).__name__,
        detail=str(exc),
    ))
    interp.quarantine_reset()
    return True


def run_group(interpreters: dict[str, Interpreter], *,
              isolate_traps: bool = False) -> RunResult:
    """Run interpreters together until everyone finishes or blocks.

    A stuck quiescence or a progress-free quantum raises
    :class:`~repro.errors.DeadlockError`; ``isolate_traps`` quarantines a
    trapped packet iteration (dead-letter log on the machine state)
    instead of aborting the run.
    """
    watchdog = Watchdog()
    quantum = watchdog.quantum
    with obs.span("run_group", cat="runtime", tid=obs.TID_RUNTIME,
                  interpreters=sorted(interpreters)):
        generators = {name: interp.run()
                      for name, interp in interpreters.items()}
        ready: deque[str] = deque(generators)
        queued = set(ready)      # names currently in the ready deque
        parked: set[str] = set()  # names parked on a wake-hub key
        hubs = {}
        injectors = {}
        for interp in interpreters.values():
            hubs[id(interp.state.wake_hub)] = interp.state.wake_hub
            if interp.state.faults is not None:
                injectors[id(interp.state.faults)] = interp.state.faults
        for injector in injectors.values():
            injector.arm_interpreters(interpreters)

        def wake(name: str) -> None:
            if name in parked:
                parked.discard(name)
                if name not in queued:
                    queued.add(name)
                    ready.append(name)

        for hub in hubs.values():
            hub.attach(wake)
        steps = 0
        try:
            while ready:
                steps += 1
                if not steps % quantum:
                    watchdog.check_progress(interpreters)
                name = ready.popleft()
                queued.discard(name)
                interp = interpreters[name]
                try:
                    next(generators[name])
                except StopIteration:
                    continue
                except TrapError as exc:
                    if not (isolate_traps and _quarantine(name, interp, exc)):
                        raise
                    # Fresh generator resuming at the loop start; the
                    # stage keeps draining the pipeline.
                    generators[name] = interp.run()
                    queued.add(name)
                    ready.append(name)
                    continue
                key = interp.wait_key
                if key is None:
                    # Voluntary yield (burst end): runnable.
                    queued.add(name)
                    ready.append(name)
                else:
                    parked.add(name)
                    interp.state.wake_hub.park(key, name)
            watchdog.check_quiescence(interpreters)
        except BaseException:
            for hub in hubs.values():
                hub.detach()
            raise
        # Clean teardown: the hub drains its wait sets back to us so a token
        # it held that the scheduler never parked — a lost wakeup in the
        # park/notify protocol itself — cannot vanish silently.
        for hub in hubs.values():
            for key, tokens in hub.detach().items():
                for token in tokens:
                    if token not in parked:
                        raise TrapError(
                            f"wake hub still held {token!r} (key {key!r}) "
                            f"unknown to the scheduler — lost wakeup")
        return RunResult(stats={name: interp.stats
                                for name, interp in interpreters.items()})


def sequential_interpreter(function: Function, state: MachineState,
                           iterations: int) -> Interpreter:
    """The interpreter :func:`run_sequential` runs."""
    return Interpreter(function, state,
                       loop_start=compile_function(function).loop_header,
                       max_iterations=iterations)


def run_sequential(function: Function, state: MachineState, *,
                   iterations: int,
                   isolate_traps: bool = False) -> InterpStats:
    """Run one sequential PPS for ``iterations`` loop iterations."""
    interp = sequential_interpreter(function, state, iterations)
    run_group({function.name: interp}, isolate_traps=isolate_traps)
    return interp.stats


def pipeline_interpreters(stages: list, state: MachineState,
                          iterations: int) -> dict[str, Interpreter]:
    """The interpreters :func:`run_pipeline` runs: stage 1 is bounded to
    ``iterations`` loop iterations; downstream stages run until their
    input pipes drain."""
    return {
        stage.function.name: Interpreter(
            stage.function, state, loop_start=_stage_loop_start(stage),
            max_iterations=iterations if stage.index == 1 else None)
        for stage in stages
    }


def run_pipeline(stages: list, state: MachineState, *,
                 iterations: int,
                 isolate_traps: bool = False) -> RunResult:
    """Run realized pipeline stages together."""
    return run_group(pipeline_interpreters(stages, state, iterations),
                     isolate_traps=isolate_traps)


def replica_interpreters(replicas: list, state: MachineState,
                         iterations: int) -> dict[str, Interpreter]:
    """The interpreters :func:`run_replicas` runs.

    ``iterations`` is the total number of global iterations; replica r of
    N executes ceil((iterations - r + 1) / N) of them.
    """
    ways = len(replicas)
    interpreters: dict[str, Interpreter] = {}
    for replica in replicas:
        function = replica.function
        own = (iterations - (replica.index - 1) + ways - 1) // ways
        interpreters[function.name] = Interpreter(
            function, state,
            loop_start=compile_function(function).loop_header,
            max_iterations=max(0, own),
            seq_offset=replica.index - 1, seq_stride=ways,
        )
    return interpreters


def run_replicas(replicas: list, state: MachineState, *,
                 iterations: int,
                 isolate_traps: bool = False) -> RunResult:
    """Run replicated PPS instances (see repro.pipeline.replicate)."""
    return run_group(replica_interpreters(replicas, state, iterations),
                     isolate_traps=isolate_traps)


def _stage_loop_start(stage) -> str:
    if stage.in_pipe is None:
        # Stage 1 starts iterations at the original PPS header.
        return compile_function(stage.function).loop_header
    return "stage_recv"
