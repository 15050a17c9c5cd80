"""The sweep runner: an ordered map of tasks over worker processes.

``repro explore`` and ``repro fuzz`` each describe their work as a list
of tasks and hand it to :func:`run_sweep`, which runs them inline or on
a ``concurrent.futures.ProcessPoolExecutor`` (``-j N`` on the CLI).  The
runner knows nothing about what a task does; each command owns its task
type (``repro.eval.explore.ExploreRow``, ``repro.eval.fuzz.FuzzCase``)
and what a failed task means for its report.  With:

* **deterministic merge** — results come back in *task order* no matter
  which worker finishes first, so ``-j 4`` output is byte-identical to
  ``-j 1`` modulo the fields a task marks as wall-clock;
* **one failure path** — whatever a task raised, a trap or deadlock
  included, or a worker process that died (OOM-killed, segfault), its
  slot holds a :class:`SweepError` naming the task, identically at
  every ``-j`` level; the runner never raises for a task and never
  hangs on a dead worker.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool

from repro.errors import ReproError


class SweepError(ReproError):
    """A sweep task failed or its worker process died.

    The message always carries the failing task's description, seed
    and full argument tuple plus a copy-paste reproduction command, so
    any sweep failure reproduces inline with a one-liner.  ``task``
    holds the task itself when one is attributable.
    """

    def __init__(self, message: str, *, task=None):
        super().__init__(message)
        self.task = task

    @classmethod
    def naming(cls, task, exc: Exception) -> "SweepError":
        """The one failure classification, whatever ran the task: ``exc``
        as a :class:`SweepError` naming ``task`` (one passes through)."""
        if isinstance(exc, SweepError):
            return exc
        detail = (f"seed={task.spec.seed} args={task!r}; "
                  f"reproduce: {task.repro_command()}")
        if isinstance(exc, BrokenProcessPool):
            # The pool breaks for every task it holds: this one may have
            # died, or only been running or queued beside the one that did.
            return cls(f"sweep worker process died before "
                       f"{task.describe()} finished (killed or crashed); "
                       f"{detail}", task=task)
        return cls(f"sweep task {task.describe()} failed: {exc}; {detail}",
                   task=task)


def run_sweep(tasks, *, jobs: int = 1) -> list:
    """Run every task; one entry per task comes back, in *task order*.

    A task is a picklable object with ``run()`` (its record), a
    :class:`~repro.runspec.RunSpec` as ``spec``, ``describe()`` and
    ``repro_command()`` (a one-liner that re-runs it alone at ``-j 1``).
    An entry is the task's record, or the :class:`SweepError` naming it
    when ``run()`` raised or the worker running it died; a broken pool
    fills every slot it left unfinished the same way.  ``jobs <= 1``
    runs inline through the same settling, so the parallel path cannot
    diverge from the sequential one.
    """
    tasks = list(tasks)
    if jobs <= 1:
        return [_settle(task, task.run) for task in tasks]
    results: list = [None] * len(tasks)
    with ProcessPoolExecutor(max_workers=jobs) as pool:

        def submit(task) -> Future:
            # A worker that has already died broke the pool: later
            # submits raise instead of returning a future to settle.
            try:
                return pool.submit(task.run)
            except BrokenProcessPool as exc:
                dead = Future()
                dead.set_exception(exc)
                return dead

        futures = {submit(task): index for index, task in enumerate(tasks)}
        for future in as_completed(futures):
            index = futures[future]
            results[index] = _settle(tasks[index], future.result)
    return results


def _settle(task, outcome):
    """``outcome()``, or the :class:`SweepError` naming ``task`` if it
    raised: the boundary where a task's failure becomes its slot."""
    try:
        return outcome()
    except Exception as exc:
        return SweepError.naming(task, exc)
