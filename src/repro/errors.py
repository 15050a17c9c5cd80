"""The shared exception hierarchy.

Every failure the toolchain can signal derives from :class:`ReproError`,
so embedders can catch one base class, and the CLI can map families to
distinct exit codes (see :mod:`repro.cli`):

* usage errors (``CLIError``, ``FaultPlanError``) — exit 2;
* compile/partition failures, a verifier rejection included
  (``FrontendError``, ``PipelineError``) — exit 1;
* runtime traps and scheduler hangs (``TrapError`` and its device/packet
  subclasses, ``DeadlockError``), and a ``repro serve`` shard that
  exhausted its restart budget (``repro.serve.ServeError``) — exit 3.

This module must stay dependency-free: it is imported by the lowest
layers (state, devices, packets) and by the front end.
"""

from __future__ import annotations

#: CLI exit-code families (kept here so embedders need not import the CLI).
EXIT_OK = 0
EXIT_FAILURE = 1        # compile / partition / IO / sweep failure
EXIT_USAGE = 2          # bad flag value, unknown PPS, malformed plan
EXIT_RUNTIME = 3        # trap, deadlock / livelock, serve shard failed


class ReproError(Exception):
    """Base class of every error raised by the repro toolchain."""


class TrapError(ReproError):
    """A trap raised by the interpreter (bad memory access, injected
    fault, out-of-fuel, ...)."""


class FaultPlanError(ReproError):
    """A fault-injection plan is unknown (no such name or file) or
    malformed (bad JSON, unknown fault kind, out-of-range rate)."""


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
