"""The shared exception hierarchy.

Every failure the toolchain can signal derives from :class:`ReproError`,
so embedders can catch one base class, and the CLI can map families to
distinct exit codes (see :mod:`repro.cli`):

* usage errors (``CLIError``, ``FaultPlanError``) — exit 2;
* compile/partition failures (``FrontendError``, ``PipelineError``) —
  exit 1;
* runtime traps and scheduler hangs (``TrapError`` and its device/packet
  subclasses, ``DeadlockError``) — exit 3;
* degraded success (``EXIT_DEGRADED``) — exit 4: the run *completed*,
  but the partition supervisor had to degrade to a lower pipelining
  degree than requested (see ``repro.pipeline.supervisor``).  Not an
  exception family: commands return the code after printing a one-line
  warning.
* degraded serving (``EXIT_DEGRADED_SERVE``) — exit 5: a ``repro
  serve`` run *delivered every committed batch*, but only by degrading
  the pool — a shard exhausted its restart budget and was re-sharded
  onto survivors, or a drain left undelivered batches behind (see
  ``repro.serve.supervise``).  Like exit 4, not an exception family:
  the command returns the code after a one-line stderr warning.

This module must stay dependency-free: it is imported by the lowest
layers (state, devices, packets) and by the front end.
"""

from __future__ import annotations

#: CLI exit-code families (kept here so embedders need not import the CLI).
EXIT_OK = 0
EXIT_FAILURE = 1        # compile / partition / IO / sweep failure
EXIT_USAGE = 2          # bad flag value, unknown PPS, malformed plan
EXIT_RUNTIME = 3        # interpreter trap, deadlock / livelock
EXIT_DEGRADED = 4       # success at a lower pipelining degree than asked
EXIT_DEGRADED_SERVE = 5  # serve completed, but resharded or part-drained


class ReproError(Exception):
    """Base class of every error raised by the repro toolchain."""


class TrapError(ReproError):
    """A trap raised by the interpreter (bad memory access, injected
    fault, out-of-fuel, ...)."""


class FaultPlanError(ReproError):
    """A fault-injection plan is malformed (bad JSON, unknown fault kind,
    out-of-range rate)."""


class DeadlockError(ReproError):
    """The scheduler watchdog detected a deadlock or livelock.

    ``parked`` maps every parked interpreter name to its wait key;
    ``offenders`` is the subset the watchdog classified as unwakeable;
    ``kind`` is ``"deadlock"`` (quiescence with unwakeable waiters) or
    ``"livelock"`` (no instruction progress within the quantum);
    ``report`` carries the run's :class:`~repro.obs.report.RuntimeReport`
    (WakeHub and Pipe counters) when one could be assembled.
    """

    def __init__(self, message: str, *, kind: str = "deadlock",
                 parked: dict | None = None,
                 offenders: dict | None = None,
                 report=None):
        super().__init__(message)
        self.kind = kind
        self.parked = dict(parked or {})
        self.offenders = dict(offenders or {})
        self.report = report
