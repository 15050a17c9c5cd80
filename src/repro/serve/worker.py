"""The serve worker: one process, one shard, deterministic batch loop.

``worker_main`` is the child-process entry point the supervisor spawns
(module-level and picklable, so it works under both fork and spawn
start methods).  An incarnation always runs its shard's *entire*
journaled batch list from batch 1 on a fresh machine state: replay is
how a restart rebuilds the exact machine its dead predecessor had, and
the parent's commit watermark drops the re-delivered prefix (counting
it, see :mod:`repro.serve.journal`).

Per batch the worker feeds the packets, runs the compiled pipeline
(degree 1 = the sequential PPS) under a fresh watchdog, and ships the
*observable delta* — new TX records and trace events plus execution
counters — up its private pipe.  One writer per pipe means a SIGKILL at
any instant cannot corrupt a sibling's message stream.

Failure reporting reuses the PR 3 watchdog classification: a
:class:`~repro.errors.DeadlockError` surfaces with its ``kind``
(``deadlock`` / ``livelock``), a trap as ``trap``; the supervisor
classifies abrupt deaths (no error message, negative exitcode) as
``killed``.  Injected worker faults (:class:`WorkerFaults`) fire at
exact batch boundaries — self-SIGKILL instead of the next commit, or an
infinite sleep the heartbeat timeout must catch — so chaos runs replay
bit-identically.
"""

from __future__ import annotations

import os
import signal
import sys
import time

from repro.errors import DeadlockError, TrapError
from repro.runspec import RunSpec, app_pipeline
from repro.runtime.faults import WorkerFaults
from repro.runtime.scheduler import run_pipeline, run_sequential
from repro.runtime.state import MachineState
from repro.runtime.watchdog import DEFAULT_QUANTUM, Watchdog

#: Exit code a worker uses for classified (reported) failures.
WORKER_FAILURE_EXIT = 3

#: Seconds a hang-faulted worker sleeps per check (forever, in practice).
_HANG_NAP = 0.05


class BatchRunner:
    """One machine state fed and run to quiescence batch by batch: the
    loop a worker incarnation and the sequential oracle share, so their
    inputs (the exact ``feed`` calls) are identical by construction.

    ``stages=None`` runs the plain sequential PPS — a degree-1 worker and
    the oracle; otherwise the realized pipeline stages.
    """

    def __init__(self, app, *, stages: list | None = None,
                 watchdog_quantum: int | None = DEFAULT_QUANTUM):
        self._app = app
        self._function = app.module.pps(app.pps_name)
        self._stages = stages
        self._watchdog_quantum = watchdog_quantum
        self.state = MachineState(app.module)
        self._tx_seen = 0
        self._trace_seen: dict[int, int] = {}

    def run(self, packets: list) -> tuple[dict, dict]:
        """Feed one batch, run it, and return ``(delta, counters)``: the
        batch's new observables (TX records + trace events) and its
        execution counters."""
        state = self.state
        iterations = self._app.feed(state, packets)
        watchdog = (Watchdog(self._watchdog_quantum)
                    if self._watchdog_quantum is not None else None)
        if self._stages is None:
            stats = [run_sequential(self._function, state,
                                    iterations=iterations,
                                    watchdog=watchdog)]
            iterations = stats[0].iterations
        else:
            stats = run_pipeline(self._stages, state, iterations=iterations,
                                 watchdog=watchdog).stats.values()
        counters = {"instructions": sum(s.instructions for s in stats),
                    "weight": sum(s.weight for s in stats),
                    "iterations": iterations,
                    "dead_letters": len(state.dead_letters)}
        return self._take_delta(), counters

    def _take_delta(self) -> dict:
        """What the state observed since the previous call."""
        records = self.state.devices.tx_records
        tx = [(rec.port, rec.sop, rec.eop, bytes(rec.data))
              for rec in records[self._tx_seen:]]
        self._tx_seen = len(records)
        traces = {}
        for tag, events in self.state.traces.items():
            seen = self._trace_seen.get(tag, 0)
            if len(events) > seen:
                traces[tag] = list(events[seen:])
                self._trace_seen[tag] = len(events)
        return {"tx": tx, "traces": traces}


def _build_runner(spec: RunSpec,
                  watchdog_quantum: int | None) -> BatchRunner:
    """Compile the spec's app once per incarnation (degree 1 = the
    sequential PPS, no partitioning) and wrap it in a fresh
    :class:`BatchRunner`."""
    app = spec.build()
    if app.feed is None:
        raise ValueError(f"app {spec.app!r} has no stream/feed split")
    [degree] = spec.degrees
    stages = None
    if degree > 1:
        stages = app_pipeline(app, degree, knobs=spec.knobs,
                              cache=spec.open_cache()).stages
    return BatchRunner(app, stages=stages, watchdog_quantum=watchdog_quantum)


def worker_main(spec: RunSpec, watchdog_quantum: int | None, shard: int,
                incarnation: int, batches: list[list], conn, drain_event,
                fault: WorkerFaults | None = None) -> None:
    """Child-process body: rebuild the pipeline ``spec`` names, replay
    ``batches``, streaming deltas up ``conn``.  Never returns
    non-locally except by ``sys.exit``."""
    try:
        _worker_body(spec, watchdog_quantum, shard, incarnation, batches,
                     conn, drain_event, fault)
    except DeadlockError as exc:
        conn.send(("error", shard, incarnation, exc.kind, str(exc)))
        sys.exit(WORKER_FAILURE_EXIT)
    except TrapError as exc:
        conn.send(("error", shard, incarnation, "trap", str(exc)))
        sys.exit(WORKER_FAILURE_EXIT)
    except Exception as exc:  # classified as a generic worker error
        conn.send(("error", shard, incarnation, "error",
                   f"{type(exc).__name__}: {exc}"))
        sys.exit(1)
    finally:
        conn.close()


def _worker_body(spec, watchdog_quantum, shard, incarnation, batches, conn,
                 drain_event, fault) -> None:
    # The supervisor owns lifecycle signals; workers die by SIGKILL only.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    runner = _build_runner(spec, watchdog_quantum)
    conn.send(("ready", shard, incarnation))

    armed = fault if (fault is not None and (
        incarnation == 0 or fault.every_incarnation)) else None
    sent = 0
    for seq, packets in enumerate(batches, start=1):
        if drain_event.is_set():
            conn.send(("drained", shard, incarnation, seq))
            return
        if armed is not None and armed.hang_after_batches is not None \
                and sent == armed.hang_after_batches:
            while True:            # deliberate hang: heartbeats stop
                time.sleep(_HANG_NAP)
        conn.send(("heartbeat", shard, incarnation, seq))
        delta, counters = runner.run(packets)
        delta.update(counters)
        if armed is not None and armed.kill_after_batches is not None \
                and sent == armed.kill_after_batches:
            # Die at the exact commit boundary: batch `seq` is fully
            # processed but never reported, so the restart must replay.
            os.kill(os.getpid(), signal.SIGKILL)
        conn.send(("result", shard, incarnation, seq, delta))
        sent += 1
    conn.send(("done", shard, incarnation))
