"""Deadlock and livelock detection for the event-driven scheduler.

The scheduler's notion of quiescence — "the ready deque is empty" — is
deliberately permissive: a finished run, a drained pipeline waiting for
more input, and a mis-wired pipeline deadlocked on a cyclic pipe wait
all look the same.  Every :func:`~repro.runtime.scheduler.run_group`
builds a :class:`Watchdog`, which classifies the parked waiters at
quiescence and raises a structured :class:`~repro.errors.DeadlockError`
when at least one of them is *stuck*.  Over blocking FIFOs a quiescent
network is either drained or blocked whatever the schedule was, so the
one judgement holds for every run: a producer parked on a full sink
pipe, say, is done.

Classification is a least fixpoint of "done" (its wait is a normal
end-of-run condition), seeded with the finished interpreters:

* parked on ``("recv", pipe)`` with the pipe empty and every static
  writer of the pipe done → end of stream, done.  Doneness cascades
  down a drained pipeline: stage 2 waiting on finished stage 1 is done,
  which makes stage 3's wait on stage 2 done, and so on.
* parked on ``("send", pipe)`` with the pipe full and every static
  reader of the pipe done (vacuously: no reader at all) → sink
  backpressure, done.
* parked on ``("rbuf", port)`` with the port idle → input exhausted,
  done.
* parked on ``("seq", resource)`` → never done: a replication sequencer
  only advances when a peer runs.

A function's static readers and writers are the pipe directions its
compilation records once (:func:`repro.runtime.compile.pipe_directions`).

Everything still parked but not done at the fixpoint — wait cycles,
starved stages, sequencer waits — is an offender, as is any *lost
wakeup*: a waiter parked on a resource that is actually ready (messages
queued, pipe accepting, mpackets available).

Livelock is the complementary failure: the scheduler keeps stepping but
no interpreter retires instructions.  Every :data:`QUANTUM` scheduler
steps the scheduler calls :meth:`Watchdog.check_progress`, which samples
total retired instructions and raises ``DeadlockError(kind="livelock")``
when a whole quantum passed without progress.  A step runs one
interpreter until it blocks or ends a burst (``interp.BURST`` loop
iterations), and a blocked interpreter is parked until what it waits
for changes, so a run that can move retires instructions in nearly
every step.

The raised error carries the full parked inventory, the offending
subset, and the run's :class:`~repro.obs.report.RuntimeReport`, so a
hang is diagnosable post-mortem instead of being a silent wrong answer.
"""

from __future__ import annotations

from repro.errors import DeadlockError
from repro.runtime.compile import compile_function


#: Scheduler steps between livelock checks (read when a run starts, so
#: a test may patch it the way it patches ``interp.BURST``).
QUANTUM = 200_000


class Watchdog:
    """Judges one scheduler run's instruction progress and quiescence."""

    def __init__(self):
        #: Scheduler steps between the run's livelock checks.
        self.quantum = QUANTUM
        self._last_progress = -1

    # -- livelock --------------------------------------------------------------

    def check_progress(self, interpreters: dict) -> None:
        """Raise when no instruction retired since the previous check
        (the scheduler calls this every :attr:`quantum` steps)."""
        progress = sum(interp.stats.instructions
                       for interp in interpreters.values())
        if progress == self._last_progress:
            parked = _parked_inventory(interpreters)
            raise DeadlockError(
                f"livelock: no instruction progress in {self.quantum} "
                f"scheduler steps (total retired: {progress})",
                kind="livelock", parked=parked, offenders=parked,
                report=_build_report(interpreters))
        self._last_progress = progress

    # -- deadlock --------------------------------------------------------------

    def check_quiescence(self, interpreters: dict) -> None:
        """Classify a quiescent scheduler; raise if any waiter is stuck.

        Classification is a least fixpoint of "done": an interpreter is
        done when it finished, or when it waits on input that has
        demonstrably ended — an empty pipe all of whose writers are done,
        an idle device port, a full pipe all of whose readers are done
        (sink backpressure).  Doneness propagates down a drained
        pipeline: stage 2 waiting on finished stage 1 is done, which
        makes stage 3's wait on stage 2 done, and so on.  Whatever is
        parked but *not* done at the fixpoint — wait cycles, starved
        stages, sequencer waits, lost wakeups — is an offender.
        """
        parked = _parked_inventory(interpreters)
        if not parked:
            return
        readers: dict[str, set[str]] = {}
        writers: dict[str, set[str]] = {}
        for name, interp in interpreters.items():
            program = compile_function(interp.function)
            for pipe_name in program.pipe_reads:
                readers.setdefault(pipe_name, set()).add(name)
            for pipe_name in program.pipe_writes:
                writers.setdefault(pipe_name, set()).add(name)
        offenders: dict[str, tuple] = {}
        reasons: list[str] = []
        for name, key in parked.items():
            reason = self._lost_wakeup(key, interpreters[name].state)
            if reason is not None:
                offenders[name] = key
                reasons.append(f"{name}: {reason}")
        done = {name for name, interp in interpreters.items()
                if interp.finished}
        changed = True
        while changed:
            changed = False
            for name, key in parked.items():
                if name in done or name in offenders:
                    continue
                if self._wait_ended(key, readers, writers, done):
                    done.add(name)
                    changed = True
        for name, key in parked.items():
            if name in done or name in offenders:
                continue
            offenders[name] = key
            reasons.append(f"{name}: {self._stuck_reason(key, readers, writers, done)}")
        if offenders:
            raise DeadlockError(
                "deadlock: scheduler quiescent with unwakeable waiters — "
                + "; ".join(sorted(reasons)),
                kind="deadlock", parked=parked, offenders=offenders,
                report=_build_report(interpreters))

    @staticmethod
    def _lost_wakeup(key: tuple, state) -> str | None:
        """A parked waiter whose resource is actually ready means a wake
        notification was lost — always an offender."""
        kind, target = key[0], key[1]
        if kind == "send":
            pipe = state.pipes.get(target)
            if pipe is not None and pipe.can_send():
                return (f"parked on send of {target!r} though the pipe "
                        f"can accept (lost wakeup)")
        elif kind == "recv":
            pipe = state.pipes.get(target)
            if pipe is not None and pipe.can_recv():
                return (f"parked on recv of {target!r} though messages "
                        f"are queued (lost wakeup)")
        elif kind == "rbuf":
            if state.devices.rx_available(target):
                return (f"parked on rbuf port {target} though mpackets "
                        f"are queued (lost wakeup)")
        return None

    @staticmethod
    def _wait_ended(key: tuple, readers: dict, writers: dict,
                    done: set) -> bool:
        """True when ``key`` is a normal end-of-run wait given the
        currently known done set."""
        kind = key[0]
        if kind == "recv":
            # Empty pipe (lost wakeups already filtered) whose writers
            # can all never produce again: end of stream.
            return writers.get(key[1], set()) <= done
        if kind == "send":
            # Full pipe nobody live will ever drain: sink backpressure,
            # the documented normal quiescence of bounded sink pipes.
            return readers.get(key[1], set()) <= done
        if kind == "rbuf":
            return True  # idle port: input exhausted
        return False  # seq (or unknown): only a running peer could help

    @staticmethod
    def _stuck_reason(key: tuple, readers: dict, writers: dict,
                      done: set) -> str:
        kind, target = key[0], key[1]
        if kind == "recv":
            pending = sorted(writers.get(target, set()) - done)
            return (f"waiting on empty pipe {target!r} whose writers "
                    f"{pending} are also stuck (wait cycle / starved)")
        if kind == "send":
            pending = sorted(readers.get(target, set()) - done)
            return (f"waiting to send on full pipe {target!r} whose "
                    f"readers {pending} are also stuck (wait cycle)")
        if kind == "seq":
            return (f"waiting on sequencer {target!r} that no running "
                    f"replica can advance")
        return f"parked on unknown wait key {key!r}"


def _parked_inventory(interpreters: dict) -> dict[str, tuple]:
    """name -> wait key for every currently parked interpreter."""
    return {name: interp.wait_key
            for name, interp in interpreters.items()
            if not interp.finished and interp.wait_key is not None}


def _build_report(interpreters: dict):
    """Assemble the runtime report for a DeadlockError (cold path)."""
    from repro.obs.report import runtime_report

    states = {}
    for interp in interpreters.values():
        states[id(interp.state)] = interp.state
    state = next(iter(states.values()), None)
    if state is None:
        return None
    stats = {name: interp.stats for name, interp in interpreters.items()}
    return runtime_report(stats, state)

