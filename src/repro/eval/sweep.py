"""Parallel sweep runner: fan (app, degree) measurements over processes.

Fig-19-style sweeps re-partition the same four NPF apps over and over;
each (app, D) cell is independent, deterministic given its seed, and
dominated by the balanced-cut search — an embarrassingly parallel
workload.  :func:`run_sweep` is the one multi-cell path: ``repro
explore`` and ``repro fuzz`` both describe their work as
:class:`SweepTask` cells and run them here, inline or on a
``concurrent.futures.ProcessPoolExecutor`` (``-j N`` on the CLI).  The
paper's cost model has one row function, :func:`_score_cells` —
supervised partition, then simulation checked for equivalence — which
``explore`` runs over its search space (the paper's figures are its
default space).  With:

* **deterministic merge** — results are returned in *task order* (the
  builders emit tasks ordered by (app, D)) no matter which worker
  finishes first, so ``-j 4`` output is byte-identical to ``-j 1``
  modulo the explicitly nondeterministic ``timing`` / ``cache`` fields;
* **seeds as given** — an explore cell runs at the seed the command was
  given and a fuzz case at its own, so a cell reproduces inline under
  any parallelism and two commands at equal packets, seed and knobs
  share cache entries;
* **structured failure** — a worker exception or a hard worker crash
  (OOM-killed, segfault) surfaces as :class:`SweepError` (a
  :class:`~repro.errors.ReproError`, CLI exit 1), never a hang, and
  identically at every ``-j`` level;
* **shared artifact cache** — workers open the same on-disk
  :class:`~repro.cache.CompileCache` (atomic writes make racing safe),
  so repeated cells cost one partition across the whole sweep.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from time import perf_counter

from repro.errors import ReproError
from repro.eval.explore import cell_dims, cell_name
from repro.runspec import RunSpec


class SweepError(ReproError):
    """A sweep task failed or its worker process died.

    The message always carries the failing task's seed and its
    full argument tuple plus a copy-paste reproduction command, so any
    sweep failure reproduces inline with a one-liner.  ``task`` holds
    the :class:`SweepTask` itself when one is attributable.
    """

    def __init__(self, message: str, *, task: "SweepTask | None" = None):
        super().__init__(message)
        self.task = task


@dataclass(frozen=True)
class SweepTask:
    """One self-contained sweep cell, picklable for worker dispatch: the
    :class:`~repro.runspec.RunSpec` it runs and what its kind adds."""

    kind: str                       # a key of _SCORERS
    spec: RunSpec
    plans: tuple | None = None      # fuzz: fault plan names or JSON
    #                                 files (None = every builtin plan)
    keep_going: bool = False        # explore: record failed degree cells
    #                                 instead of failing the whole row
    shrink_tests: int = 0           # fuzz: shrink budget (0 = unshrunk)

    def describe(self) -> str:
        spec = self.spec
        knobs = (" " + "/".join(fragment for _, _, fragment, _
                                in cell_dims(spec.knobs))
                 if self.kind == "explore" else "")
        return (f"{self.kind} {spec.app} "
                f"D={','.join(map(str, spec.degrees))}{knobs}")

    def repro_command(self) -> str:
        """A copy-paste one-liner that re-runs this exact cell inline."""
        spec = self.spec
        degrees = ",".join(map(str, spec.degrees))
        if self.kind == "fuzz":
            from repro.eval.fuzz import PROGEN

            apps = "" if spec.app == PROGEN else f" --apps {spec.app}"
            faults = (" --faults " + ",".join(self.plans)
                      if self.plans else "")
            return (f"repro fuzz{apps} --seeds 1 --start-seed {spec.seed} "
                    f"--degrees {degrees} --packets {spec.packets}{faults}")
        knobs = " ".join(flag for _, _, _, flag in cell_dims(spec.knobs))
        return (f"repro explore --apps {spec.app} --degrees {degrees} "
                f"{knobs} --packets {spec.packets} --seed {spec.seed} -j 1")

    def detail(self) -> str:
        """The failure context every SweepError message must carry:
        the seed and the full argument tuple."""
        return (f"seed={self.spec.seed} args={self!r}; "
                f"reproduce: {self.repro_command()}")


# -- task builders ----------------------------------------------------------


def explore_tasks(space, *, keep_going: bool = False) -> list[SweepTask]:
    """Explore cells: one task per (app, knob combo), covering the whole
    degree row.

    A task keeps all of a combo's degrees together so the worker shares
    one analysis context and one baseline measurement across the row;
    parallelism fans the (app, combo) pairs.  ``space`` is a
    :class:`repro.eval.explore.SearchSpace`.
    """
    return [SweepTask("explore",
                      RunSpec(app, space.packets, space.seed,
                              tuple(space.degrees), knobs),
                      keep_going=keep_going)
            for app in space.apps
            for knobs in space.combos()]


def fuzz_tasks(programs, seeds, degrees, *, packets: int,
               plans: tuple | None = None,
               shrink_tests: int = 0) -> list[SweepTask]:
    """Fuzz cases, one task per (program, seed, degree) in that order, the
    programs (:data:`repro.eval.fuzz.PROGEN` or stream apps) sorted."""
    return [SweepTask("fuzz", RunSpec(program, packets, seed, (degree,)),
                      plans=plans, shrink_tests=shrink_tests)
            for program in sorted(programs)
            for seed in seeds
            for degree in degrees]


# -- workers ----------------------------------------------------------------


def _timed(function, *args, **kwargs):
    """``(function(*args, **kwargs), wall seconds it took)``."""
    start = perf_counter()
    value = function(*args, **kwargs)
    return value, perf_counter() - start


def _execute(task: SweepTask) -> dict:
    """Run one cell; module-level so the pool can pickle it by name.

    Every kind shares this frame — open the task's cache, score, report
    what the cache saw — and differs only in its scorer, which returns
    the kind's record fields and its ``timing`` dict.
    """
    score = _SCORERS.get(task.kind)
    if score is None:
        raise SweepError(f"unknown sweep task kind {task.kind!r}")
    cache = task.spec.open_cache()
    fields, timing = score(task, cache)
    return {
        "kind": task.kind,
        "app": task.spec.app,
        "seed": task.spec.seed,
        **fields,
        "timing": timing,
        # A cache opened for this cell alone: its counters are the cell's.
        "cache": cache.counters() if cache is not None else None,
    }


def _partition_cell(task: SweepTask, app, context, degree: int, cache):
    """One degree of the task's row through the supervisor: the cell's
    record — name, partition work under ``metrics``, wall seconds under
    ``timing`` — and the verified result behind it (``None`` at degree
    1, the sequential "pipeline": always valid, nothing cut).  A
    rejected partition raises, and the caller records a failed cell."""
    from repro.pipeline.supervisor import supervise_partition

    spec = task.spec
    cell = cell_name(spec.app, degree, spec.knobs)
    if degree <= 1:
        return {**cell,
                "metrics": {"stages": 1, "cut_iterations": 0, "pr_work": 0},
                "timing": {"partition_seconds": 0.0}}, None
    outcome, seconds = _timed(
        supervise_partition, app.module, app.pps_name, degree,
        knobs=spec.knobs, profiler=app.profiler, cache=cache,
        context=context)
    diagnostics = outcome.result.assignment.diagnostics
    cell["metrics"] = {
        "stages": degree,
        "cut_iterations": sum(diag.iterations for diag in diagnostics),
        "pr_work": sum(diag.pr_work for diag in diagnostics),
    }
    cell["timing"] = {"partition_seconds": round(seconds, 4)}
    return cell, outcome.result


def _score_cells(task: SweepTask, cache):
    """The one (app, knobs) degree row of the paper's cost model, behind
    ``repro explore``.

    Every degree is partitioned and verified through the *supervisor*,
    sharing one analysis context, then simulated against the row's
    sequential baseline with the observational-equivalence check on.
    The record carries one cell dict per degree; its ``metrics`` are
    pure functions of the task, and the nondeterministic partition wall
    seconds live under each cell's ``timing``.  A failed degree is a
    :class:`SweepError` naming that degree alone — raised, or recorded
    under ``cell_failures`` when the sweep keeps going.
    """
    from repro.analysis.context import AnalysisContext
    from repro.eval.metrics import measure_pipeline, measure_sequential

    spec = task.spec
    app, build_seconds = _timed(spec.build)
    # Normalize, profile, SSA and the dependence model once per row.
    context = AnalysisContext(app.module, app.pps_name,
                              spec.knobs.max_block_instructions)
    baseline = measure_sequential(app)

    cells = []
    cell_failures = []
    for degree in sorted(set(spec.degrees)):
        try:
            cell, result = _partition_cell(task, app, context, degree,
                                           cache)
            measured = measure_pipeline(app, degree, baseline=baseline,
                                        transform=result)
            cell["metrics"].update({
                "speedup": round(measured.speedup, 4),
                # Six places: frontier.md prints three, and four would
                # round twice (0.33149 -> 0.3315 -> "0.332").
                "overhead": round(measured.overhead_ratio, 6),
                "transmitted_words": sum(measured.message_words),
                "longest_stage": round(measured.longest_stage, 4),
                "simulated_instructions": measured.total_instructions,
            })
            cells.append(cell)
        except Exception as exc:
            # A failed grid cell (partitioner bug, verifier rejection,
            # measurement fault) is named by its own degree; keep-going
            # records it and measures the row's other degrees.
            cell_task = replace(task, spec=replace(spec, degrees=(degree,)))
            error = _classify(cell_task, exc)
            if not task.keep_going:
                raise error from exc
            record = _failure_record(cell_task, error)
            record["cell"] = cell_name(spec.app, degree, spec.knobs)["id"]
            cell_failures.append(record)

    return ({"cells": cells, "cell_failures": cell_failures},
            {"build_seconds": round(build_seconds, 4),
             "partition_seconds": round(sum(
                 cell["timing"]["partition_seconds"] for cell in cells), 4)})


def _score_fuzz(task: SweepTask, cache):
    """One fuzz case: the program ``task.spec.app`` at its one degree; the
    record is :func:`~repro.eval.fuzz.fuzz_case`'s."""
    from repro.eval.fuzz import fuzz_case

    spec = task.spec
    [degree] = spec.degrees
    return fuzz_case(spec.seed, degree, spec.packets, task.shrink_tests,
                     program=spec.app, plans=task.plans), {}


_SCORERS = {
    "explore": _score_cells,
    "fuzz": _score_fuzz,
}


# -- the runner -------------------------------------------------------------


def run_sweep(tasks, *, jobs: int = 1, worker=None,
              keep_going: bool = False, cache=None) -> list[dict]:
    """Execute every task; results come back in *task order*.

    ``jobs <= 1`` runs inline through the exact same worker function and
    the exact same failure handling, so the parallel path cannot diverge
    from the sequential one.  ``worker`` is a test seam (must be a
    picklable module-level callable).  ``cache`` (a
    :class:`~repro.cache.CompileCache`) is the artifact cache every cell
    shares: workers open its directory, and the counters they report
    are folded back into it.

    ``keep_going=False`` (the default) fails fast: the first failing
    task raises :class:`SweepError` and sibling results are discarded.
    ``keep_going=True`` records each failure as a placeholder dict
    (``{"failed": True, "ok": False, "error", "task", "seed",
    "repro"}``) in its task-order slot and keeps running, so one bad
    cell no longer costs the rest of the sweep.
    """
    tasks = list(tasks)
    if cache is not None:
        tasks = [replace(task, spec=replace(task.spec,
                                            cache_dir=str(cache.root)))
                 for task in tasks]
    worker = worker or _execute
    results: list = [None] * len(tasks)

    def settle(index: int, outcome) -> None:
        task = tasks[index]
        try:
            results[index] = outcome()
        except Exception as exc:
            error = _classify(task, exc)
            if keep_going:
                results[index] = _failure_record(task, error)
            elif error is exc:
                raise
            else:
                raise error from exc

    if jobs <= 1:
        for index, task in enumerate(tasks):
            settle(index, lambda: worker(task))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:

            def submit(task: SweepTask) -> Future:
                # A worker that has already died broke the pool: later
                # submits raise instead of returning a future to settle.
                try:
                    return pool.submit(worker, task)
                except BrokenProcessPool as exc:
                    dead = Future()
                    dead.set_exception(exc)
                    return dead

            futures = {submit(task): index
                       for index, task in enumerate(tasks)}
            try:
                for future in as_completed(futures):
                    settle(futures[future], future.result)
            except SweepError:
                # Failing fast: do not run what has not started.
                for pending in futures:
                    pending.cancel()
                raise

    if cache is not None:
        for entry in results:
            if entry.get("cache"):
                cache.merge_counters(entry["cache"])
    return results


def _classify(task: SweepTask, exc: Exception) -> SweepError:
    """The one failure classification, whatever ran the task: every
    worker failure becomes a :class:`SweepError` naming the task, its
    seed and its reproduce one-liner (a ``SweepError`` passes through)."""
    if isinstance(exc, SweepError):
        return exc
    if isinstance(exc, BrokenProcessPool):
        return SweepError(
            f"sweep worker process died while running {task.describe()} "
            f"(killed or crashed); {task.detail()}", task=task)
    return SweepError(f"sweep task {task.describe()} failed: {exc}; "
                      f"{task.detail()}", task=task)


def _failure_record(task: SweepTask, error: Exception) -> dict:
    """The task-order placeholder a ``keep_going`` sweep returns for a
    failed cell."""
    return {
        "kind": task.kind,
        "app": task.spec.app,
        "seed": task.spec.seed,
        "ok": False,
        "failed": True,
        "error": str(error),
        "task": task.describe(),
        "repro": task.repro_command(),
    }

