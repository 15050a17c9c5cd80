"""Parallel sweep runner: fan (app, degree) measurements over processes.

Fig-19-style sweeps re-partition the same four NPF apps over and over;
each (app, D) cell is independent, deterministic given its seed, and
dominated by the balanced-cut search — an embarrassingly parallel
workload.  :func:`run_sweep` is the one multi-cell path: ``repro figures``,
``plan``, ``explore``, ``chaos --sweep`` and ``fuzz`` all describe their
work as :class:`SweepTask` cells and run them here, inline or on a
``concurrent.futures.ProcessPoolExecutor`` (``-j N`` on the CLI), with:

* **deterministic merge** — results are returned in *task order* (the
  builders emit tasks ordered by (app, D)) no matter which worker
  finishes first, so ``-j 4`` output is byte-identical to ``-j 1``
  modulo the explicitly nondeterministic ``timing`` / ``cache`` fields
  (strip them with :func:`deterministic_view`);
* **per-task seed threading** — :func:`derive_seed` gives every cell a
  stable seed derived from the base seed and the cell identity, so
  chaos sweeps stay reproducible under any parallelism;
* **structured failure** — a worker exception or a hard worker crash
  (OOM-killed, segfault) surfaces as :class:`SweepError` (a
  :class:`~repro.errors.ReproError`, CLI exit 1), never a hang, and
  identically at every ``-j`` level;
* **shared artifact cache** — workers open the same on-disk
  :class:`~repro.cache.CompileCache` (atomic writes make racing safe),
  so repeated cells cost one partition across the whole sweep.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from time import perf_counter

from repro.errors import ReproError
from repro.eval.explore import cell_dims, cell_name
from repro.runspec import RunSpec


class SweepError(ReproError):
    """A sweep task failed or its worker process died.

    The message always carries the failing task's derived seed and its
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
    plans: tuple | None = None      # chaos: builtin plan names (None = all)
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
        if self.kind == "chaos":
            plans = (" --plans " + " ".join(self.plans)
                     if self.plans else "")
            return (f"repro chaos --app {spec.app} --degrees {degrees} "
                    f"--packets {spec.packets} --seed {spec.seed}{plans}")
        if self.kind == "fuzz":
            return (f"repro fuzz --seeds 1 --start-seed {spec.seed} "
                    f"--degrees {degrees} --packets {spec.packets}")
        if self.kind == "partition":
            return (f"repro plan --apps {spec.app} --degrees {degrees} "
                    f"--packets {spec.packets} --seed {spec.seed} -j 1")
        if self.kind == "explore":
            knobs = " ".join(flag for _, _, _, flag
                             in cell_dims(spec.knobs))
            return (f"repro explore --apps {spec.app} --degrees {degrees} "
                    f"{knobs} --packets {spec.packets} --seed {spec.seed} "
                    f"-j 1")
        return (f"repro figures --packets {spec.packets} "
                f"--degrees {degrees} -j 1  "
                f"# cell: app={spec.app} seed={spec.seed}")

    def detail(self) -> str:
        """The failure context every SweepError message must carry:
        the derived seed and the full argument tuple."""
        return (f"seed={self.spec.seed} args={self!r}; "
                f"reproduce: {self.repro_command()}")


def derive_seed(base: int, *parts) -> int:
    """A stable per-task seed from the base seed and the task identity.

    Pure function of its arguments (no global RNG state), so a sweep is
    reproducible regardless of worker scheduling or ``-j`` level.
    """
    text = ":".join([str(base), *(str(part) for part in parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


# -- task builders ----------------------------------------------------------


def app_tasks(kind: str, apps: list[str], degrees, *, packets: int,
              seed: int) -> list[SweepTask]:
    """``figures`` / ``partition`` cells: one per app, in the given app
    order, covering its whole degree row.

    A cell keeps all of an app's degrees together so the worker shares
    one :class:`~repro.analysis.context.AnalysisContext` across the row
    — normalize, profile, SSA and the dependence model once per app;
    parallelism comes from fanning the *apps*.
    """
    return [SweepTask(kind, RunSpec(app, packets, seed, tuple(degrees)))
            for app in apps]


def explore_tasks(space, *, keep_going: bool = False) -> list[SweepTask]:
    """Explore cells: one task per (app, knob combo), covering the whole
    degree row.

    Like :func:`app_tasks`, a task keeps all of a combo's degrees
    together so the worker shares one analysis context and one baseline
    measurement across the row; parallelism fans the (app, combo) pairs.
    ``space`` is a :class:`repro.eval.explore.SearchSpace`.
    """
    return [SweepTask("explore",
                      RunSpec(app, space.packets, space.seed,
                              tuple(space.degrees), knobs),
                      keep_going=keep_going)
            for app in space.apps
            for knobs in space.combos()]


def chaos_tasks(apps: list[str], degrees: tuple, *, packets: int, seed: int,
                plans: tuple | None = None) -> list[SweepTask]:
    """Chaos cells ordered by app, each with its own derived seed."""
    return [SweepTask("chaos",
                      RunSpec(app, packets, derive_seed(seed, "chaos", app),
                              tuple(degrees)),
                      plans=plans)
            for app in sorted(apps)]


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


def _partition_row(task: SweepTask, cache):
    """Build the task's app and partition its whole degree row."""
    from repro.eval.metrics import partition_app

    app = task.spec.build()
    transforms, breakdown = partition_app(app, task.spec.degrees,
                                          cache=cache,
                                          knobs=task.spec.knobs)
    return app, transforms, breakdown


def _score_partition(task: SweepTask, cache):
    """The planner cell: the results land in the shared compile cache,
    so a following explore / chaos / serve phase over the same apps,
    traffic and knobs gets pure cache hits; the record carries the
    per-degree breakdown for profiling output."""
    _, _, breakdown = _partition_row(task, cache)
    return {"partition_breakdown": breakdown}, {}


def _score_figures(task: SweepTask, cache):
    """The paper's numbers for one app: partition the degree row, then
    simulate every degree against the sequential baseline
    (equivalence-checked).  Every field is a pure function of the task
    when ``cache`` is ``None`` — a cached artifact carries the work
    counters of whichever command solved it first."""
    from repro.eval.metrics import measure_pipeline, measure_sequential

    app, transforms, breakdown = _partition_row(task, cache)
    baseline = measure_sequential(app)
    instructions = baseline.total_instructions
    speedups: dict[int, float] = {}
    overheads: dict[int, float] = {}
    for degree in sorted(task.spec.degrees):
        measured = measure_pipeline(app, degree, baseline=baseline,
                                    transform=transforms.get(degree))
        instructions += measured.total_instructions
        speedups[degree] = round(measured.speedup, 4)
        # Six places: the figures print three, and four would round
        # twice (0.33149 -> 0.3315 -> "0.332").
        overheads[degree] = round(measured.overhead_ratio, 6)
    work = {degree: {key: value for key, value in cell.items()
                     if key != "seconds"}
            for degree, cell in breakdown.items()}
    return {"partition_breakdown": work,
            "speedup_by_degree": speedups,
            "overhead_by_degree": overheads,
            "simulated_instructions": instructions}, {}


def _score_explore(task: SweepTask, cache):
    """Evaluate one (app, knob combo) row of a design-space exploration.

    Every degree of the row goes through the *supervised* pipeline —
    partition, independent verification, graceful degradation — and is
    then simulated with the observational-equivalence check on.  The
    record carries one cell dict per degree; the nondeterministic
    numbers (partition wall seconds) live under each cell's ``timing``
    key so the frontier artifact can strip them.
    """
    from repro.analysis.context import AnalysisContext
    from repro.eval.metrics import measure_pipeline, measure_sequential
    from repro.pipeline.supervisor import supervise_partition

    spec, knobs = task.spec, task.spec.knobs
    app, build_seconds = _timed(spec.build)
    baseline = measure_sequential(app)
    context = AnalysisContext(app.module, app.pps_name,
                              knobs.max_block_instructions)

    cells = []
    cell_failures = []
    partition_total = 0.0
    for degree in sorted(set(spec.degrees)):
        if degree <= 1:
            # The sequential "pipeline": always valid, nothing transmitted.
            cells.append({
                **cell_name(spec.app, 1, knobs),
                "verified": True,
                "degraded": False,
                "achieved_degree": 1,
                "metrics": {
                    "speedup": 1.0,
                    "transmitted_words": 0,
                    "stages": 1,
                    "longest_stage": round(baseline.per_packet, 4),
                },
                "timing": {"partition_seconds": 0.0},
            })
            continue
        try:
            outcome, partition_seconds = _timed(
                supervise_partition, app.module, app.pps_name, degree,
                knobs=knobs, profiler=app.profiler, cache=cache,
                context=context)
            partition_total += partition_seconds
            cell = {
                **cell_name(spec.app, degree, knobs),
                "verified": outcome.ok,
                "degraded": outcome.degraded,
                "achieved_degree": outcome.achieved_degree,
            }
            if not outcome.ok:
                cell["error"] = outcome.summary()
                cell["metrics"] = None
            else:
                achieved = outcome.achieved_degree
                measured = measure_pipeline(app, achieved,
                                            baseline=baseline,
                                            transform=outcome.result)
                cell["metrics"] = {
                    "speedup": round(measured.speedup, 4),
                    "transmitted_words": sum(measured.message_words),
                    "stages": achieved,
                    "longest_stage": round(measured.longest_stage, 4),
                }
            if len(outcome.attempts) > 1:
                cell["attempts"] = len(outcome.attempts)
            cell["timing"] = {
                "partition_seconds": round(partition_seconds, 4)}
            cells.append(cell)
        except Exception as exc:
            # A single grid cell crashing (partitioner bug, measurement
            # fault) must not take out the row's other degrees when the
            # sweep runs keep-going; record it with a degree-exact repro
            # one-liner instead.
            if not task.keep_going:
                raise
            cell_task = replace(task, spec=replace(spec, degrees=(degree,)))
            record = _failure_record(cell_task, _classify(cell_task, exc))
            record["cell"] = cell_name(spec.app, degree, knobs)["id"]
            cell_failures.append(record)

    return ({"cells": cells, "cell_failures": cell_failures},
            {"build_seconds": round(build_seconds, 4),
             "partition_seconds": round(partition_total, 4)})


def _score_chaos(task: SweepTask, cache):
    from repro.eval.chaos import chaos_differential
    from repro.runtime.faults import builtin_plans

    plans = None
    if task.plans is not None:
        available = builtin_plans()
        unknown = [name for name in task.plans if name not in available]
        if unknown:
            raise SweepError(f"unknown builtin fault plans: "
                             f"{', '.join(unknown)}")
        plans = {name: available[name] for name in task.plans}
    letters: list = []
    spec = task.spec
    report, wall = _timed(chaos_differential, spec.app, plans=plans,
                          degrees=spec.degrees, packets=spec.packets,
                          seed=spec.seed, collect_letters=letters,
                          cache=cache)
    return ({"ok": report.ok,
             "report": report.as_dict(),
             "dead_letters": letters,
             "rendered": report.render()},
            {"wall_seconds": wall})


def _score_fuzz(task: SweepTask, cache):
    """One generated program (``task.spec.seed``) at one degree; the record's
    ``failure`` is a :class:`~repro.eval.fuzz.FuzzFailure` or ``None``."""
    from repro.eval.fuzz import fuzz_case

    [degree] = task.spec.degrees
    failure = fuzz_case(task.spec.seed, degree, task.spec.packets,
                        task.shrink_tests)
    return {"failure": failure}, {}


_SCORERS = {
    "chaos": _score_chaos,
    "explore": _score_explore,
    "figures": _score_figures,
    "fuzz": _score_fuzz,
    "partition": _score_partition,
}


# -- the partition planner --------------------------------------------------


def plan_partitions(apps: list[str], degrees, *, packets: int, seed: int,
                    jobs: int = 1, cache=None,
                    keep_going: bool = False) -> list[dict]:
    """Partition the whole (app x degree) matrix up front, in parallel.

    Fans one ``partition`` cell per app over the sweep runner (``jobs``
    worker processes) with all results stored through the shared on-disk
    compile ``cache`` — after planning, a cold ``repro explore`` / ``repro
    chaos`` / ``repro run`` gets pure cache hits for every partition it
    needs.  Within each cell the worker shares one analysis context
    across the degree row; the parallel plan produces partitions
    bit-identical to a serial sweep (and to each degree partitioned
    alone).

    Returns the task-order list of worker records (app, per-degree
    breakdown, timings, cache counters).  ``cache`` may be ``None`` (the
    plan then only returns the breakdown — nothing persists), but that
    defeats the point when ``jobs > 1``.
    """
    tasks = app_tasks("partition", sorted(set(apps)), degrees,
                      packets=packets, seed=seed)
    return run_sweep(tasks, jobs=jobs, keep_going=keep_going, cache=cache)


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


def deterministic_view(results: list[dict]) -> list[dict]:
    """Results with the nondeterministic fields (wall-clock timing,
    cache hit patterns, the per-degree partition breakdown — it embeds
    wall seconds) stripped — the byte-identical part of a sweep."""
    return [{key: value for key, value in result.items()
             if key not in ("timing", "cache", "partition_breakdown")}
            for result in results]
