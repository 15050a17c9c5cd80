"""The serve worker: one process, one shard, deterministic batch loop.

``worker_main`` is the body of a child the supervisor *forks* after it
has compiled the app, partitioned it and journaled the stream: an
incarnation inherits all of that and builds nothing — no compile, no
cut search, no cache read.  It always runs its shard's *entire*
journaled batch list from batch 1 on a fresh machine state: replay is
how a restart rebuilds the exact machine its dead predecessor had, and
the parent's commit watermark drops the re-delivered prefix (counting
it, see :mod:`repro.serve.journal`).

Per batch the worker feeds the packets, runs the compiled pipeline
(degree 1 = the sequential PPS), and ships the *observable delta* —
new TX records and trace events, a digest of the messages forwarded on
the program's own pipes (with the packets they name), and execution
counters — up its private pipe.  One writer per pipe means a SIGKILL
at any instant cannot corrupt a sibling's message stream.

Failure reporting reuses the PR 3 watchdog classification: a
:class:`~repro.errors.DeadlockError` surfaces with its ``kind``
(``deadlock`` / ``livelock``), a trap as ``trap``; the supervisor
classifies abrupt deaths (no error message, negative exitcode) as
``killed``.  Injected worker faults (:class:`WorkerFaults`) fire at
exact batch boundaries — self-SIGKILL instead of the next commit, or an
infinite sleep the hang timeout must catch — so chaos runs replay
bit-identically.  A worker sends no heartbeat: ``ready`` and each
``result`` already tell the supervisor it is alive, so a hung or killed
worker goes silent at the same point either way.
"""

from __future__ import annotations

import os
import signal
import sys
import time

from repro.errors import DeadlockError, TrapError
from repro.runtime.equivalence import is_external, packet_view
from repro.runtime.faults import WorkerFaults
from repro.runtime.scheduler import run_pipeline, run_sequential
from repro.runtime.state import MachineState

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

    def __init__(self, app, *, stages: list | None = None):
        self._app = app
        self._function = app.module.pps(app.pps_name)
        self._stages = stages
        self.state = MachineState(app.module)
        self._tx_seen = 0
        self._trace_seen: dict[int, int] = {}
        self._sent_seen: dict[str, int] = {}

    def run(self, packets: list) -> tuple[dict, dict]:
        """Feed one batch, run it, and return ``(delta, counters)``: the
        batch's new observables (TX records, trace events, forwarded
        messages) and its execution counters."""
        state = self.state
        iterations = self._app.feed(state, packets)
        if self._stages is None:
            stats = [run_sequential(self._function, state,
                                    iterations=iterations)]
            iterations = stats[0].iterations
        else:
            stats = run_pipeline(self._stages, state,
                                 iterations=iterations).stats.values()
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
        return {"tx": tx, "traces": traces, "forwarded": self._forwarded()}

    def _forwarded(self) -> tuple[int, int]:
        """What the program forwarded since the previous call: the
        messages sent on its own pipes and still queued, with the bytes
        and metadata of the packets they name (ipv4 emits no TX record),
        as their count and a digest.  Whole, they would cost microseconds
        per packet to pickle, ship and compare.  The digest is ``hash``,
        salted per interpreter: a worker is a fork of the supervisor,
        whose oracle digests with the same salt."""
        forwarded, count = [], 0
        for name, pipe in sorted(self.state.pipes.items()):
            queue, seen = pipe.queue, self._sent_seen.get(name, 0)
            self._sent_seen[name] = pipe.sent
            new = min(pipe.sent - seen, len(queue))
            if new and is_external(name):
                messages = tuple(queue[index] for index
                                 in range(len(queue) - new, len(queue)))
                view = packet_view(self.state, messages)
                forwarded.append((name, messages, tuple(view.items())))
                count += new
        return count, hash(tuple(forwarded))


def worker_main(app, stages: list | None, shard: int, incarnation: int,
                batches: list[list], conn, drain_event,
                fault: WorkerFaults | None = None) -> None:
    """Child-process body: replay ``batches`` through the inherited
    ``app`` (``stages=None``: its sequential PPS), streaming deltas up
    ``conn``.  Never returns non-locally except by ``sys.exit``."""
    try:
        _worker_body(app, stages, shard, incarnation, batches, conn,
                     drain_event, fault)
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


def _worker_body(app, stages, shard, incarnation, batches, conn,
                 drain_event, fault) -> None:
    # The supervisor owns lifecycle signals; workers die by SIGKILL only.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    runner = BatchRunner(app, stages=stages)
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
            while True:            # deliberate hang: messages stop
                time.sleep(_HANG_NAP)
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
