"""Cost-aware design-space exploration (``repro explore``).

Kugelblitz (PAPERS.md) argues packet pipelines should be *searched* over
executable cost models rather than hand-tuned; the pipelined-DNN
stage-guarantee line shows that stage counts picked from a measured
frontier beat fixed-k heuristics.  This module is that search for PPS-C:

1. **enumerate** a declarative :class:`SearchSpace` per app — pipeline
   degree D, balance slack ε, the block-split threshold
   (``max_block_instructions``), and named machine cost tables
   (:mod:`repro.machine.costs` registry, e.g. NN vs scratch rings) —
   only inputs that can move a partition; how the solver reaches a cut
   (§3.3's resumed preflow) is not a dimension;
2. **evaluate** every cell through the cached, parallel,
   supervisor-verified pipeline (:class:`ExploreRow` tasks fanned out by
   :mod:`repro.eval.sweep`): each cell is partitioned via
   :func:`~repro.pipeline.supervisor.supervise_partition` (one
   partition, independently verified; a rejection fails the cell) and
   simulated with the observational-equivalence check on.  A failed
   cell is a record under ``failures`` — its id, error and a one-liner
   that re-runs that degree alone — and never ends the grid;
3. **score** each cell on (simulated throughput — the speedup over the
   sequential PPS, transmitted live-set words, realized stage count);
   the cell also records the live-set overhead and the partition and
   simulation work, and keeps ``partition_seconds`` as nondeterministic
   context;
4. **emit** a per-app Pareto frontier (JSON + markdown, the markdown
   with the speedup and live-set overhead of every app by degree — at
   the default space, the paper's Figures 19–22 and its d=9 headline)
   and an **auto-pick**: the best-scoring verified cell per app under
   one fixed objective (:data:`WEIGHTS`), read off the whole grid, with
   a dominated-by or outscored-by note for every cell it passed over.
   It is the one rule: the search runs over one executable cost model
   (Kugelblitz, PAPERS.md), not a menu of objectives.

Determinism: the scored metrics are exactly the deterministic outputs of
the partitioner + simulator, so the frontier artifact produced by
:func:`deterministic_report` is byte-identical across repeated runs and
across ``-j`` levels (wall-clock timings and cache counters are confined
to the separately written timings report).  The default space's report
is the committed ``BENCH_headline.json``, which tier-1 regenerates
through a cold ``repro explore`` (``tests/test_paper_numbers.py``) and
CI through a warm ``-j 2`` one, both byte for byte.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from time import perf_counter

from repro.errors import ReproError
from repro.runspec import Knobs, RunSpec

#: Version of the frontier-report schema; bump on layout changes, with
#: the regenerated ``BENCH_headline.json`` in the same commit.
#: v4: a cell's ``metrics`` also carry what the figures read off it —
#: ``overhead``, ``cut_iterations``, ``pr_work`` and
#: ``simulated_instructions``.
#: v5: this report is ``BENCH_headline.json`` (no projected layout), and
#: a space's apps are de-duplicated.
#: v6: a cell loses its verdict and retry keys: every recorded cell is
#: verified at its degree, and a rejected one is a failed cell.
#: v7: the pick is the app's best-scoring cell (the per-combo degree
#: climb and its trace key go), and a passed-over cell's note reads
#: "outscored by" unless the cell is dominated.
EXPLORE_SCHEMA_VERSION = 7

#: Objective directions: maximize speedup, minimize words and stages.
OBJECTIVES = ("speedup", "transmitted_words", "stages")


class ExploreError(ReproError):
    """A malformed search space or an exploration failure."""


# -- the declarative search space --------------------------------------------


@dataclass(frozen=True)
class SearchSpace:
    """One declarative (app x degree x knob x cost-table) search space.

    ``degrees`` should normally include 1: the sequential PPS is the
    always-valid floor every pipelined cell is judged against (so apps
    that do not pipeline — scheduler, qm — pick degree 1 instead of a
    losing cell).  ``apps`` is de-duplicated in order: an app named
    twice is one row.
    """

    apps: tuple
    degrees: tuple
    rings: tuple = (Knobs.costs.name,)
    epsilons: tuple = (Knobs.epsilon,)
    max_block_instructions: tuple = (Knobs.max_block_instructions,)
    packets: int = 60
    seed: int = 7

    def __post_init__(self):
        object.__setattr__(self, "apps", tuple(dict.fromkeys(self.apps)))

    def validate(self) -> "SearchSpace":
        """Check the space is well-formed; returns self for chaining.

        A bad app or degree is an :class:`ExploreError`; a knob its
        :class:`~repro.runspec.Knobs` rejects, or an unknown cost table,
        a ``ValueError``.  Also asserts that every selected cost table
        has a *distinct* compile-cache identity
        (:func:`repro.cache.key.cost_identity`) — the cache is salted
        with the full cost table, and this is where that invariant is
        checked before a search relies on it.
        """
        from repro.apps.suite import APPS
        from repro.cache.key import cost_identity
        from repro.machine.costs import cost_table

        if not self.apps:
            raise ExploreError("search space has no apps")
        for app in self.apps:
            if app not in APPS:
                raise ExploreError(f"unknown app {app!r} "
                                   f"(apps: {', '.join(APPS)})")
        if not self.degrees:
            raise ExploreError("search space has no degrees")
        for degree in self.degrees:
            if not isinstance(degree, int) or degree < 1:
                raise ExploreError(f"bad degree {degree!r}: must be an "
                                   f"integer >= 1")
        self.combos()  # Knobs and cost_table raise ValueError on bad knobs
        identities: dict[str, str] = {}
        for ring in self.rings:
            table = cost_table(ring)
            # Compare the cost *parameters* (identity minus the name):
            # two same-parameter tables are distinct cache addresses —
            # the key is salted with the name — but exploring both would
            # evaluate identical cells under two labels.
            fields = {key: value
                      for key, value in cost_identity(table).items()
                      if key != "name"}
            identity = json.dumps(fields, sort_keys=True)
            clash = identities.get(identity)
            if clash is not None and clash != table.name:
                raise ExploreError(
                    f"cost tables {clash!r} and {table.name!r} have "
                    f"identical cost parameters; exploring both would "
                    f"duplicate every cell under two labels")
            identities[identity] = table.name
        return self

    def combos(self) -> list[Knobs]:
        """Deterministic ring x epsilon x block-split
        :class:`~repro.runspec.Knobs` combinations.

        Ring order follows the caller's ``rings`` tuple (canonicalized);
        the numeric knobs are sorted so the same space always enumerates
        in the same order regardless of how it was written down.
        """
        from repro.machine.costs import cost_table

        return [Knobs(costs=cost_table(ring), epsilon=epsilon,
                      max_block_instructions=mbi)
                for ring, epsilon, mbi in itertools.product(
                    self.canonical_rings(),
                    sorted(set(self.epsilons)),
                    sorted(set(self.max_block_instructions)))]

    def cell_count(self) -> int:
        return len(self.apps) * len(set(self.degrees)) * len(self.combos())

    def rows(self, cache_dir: str | None = None) -> list["ExploreRow"]:
        """The space's sweep tasks: one :class:`ExploreRow` per (app, knob
        combo), each covering the whole degree row, in (app, combo)
        order; ``cache_dir`` is the artifact cache every row shares."""
        return [ExploreRow(RunSpec(app, self.packets, self.seed,
                                   tuple(self.degrees), knobs, cache_dir))
                for app in self.apps
                for knobs in self.combos()]

    def canonical_rings(self) -> list[str]:
        from repro.machine.costs import cost_table

        rings = []
        for ring in self.rings:
            name = cost_table(ring).name
            if name not in rings:
                rings.append(name)
        return rings

    def as_dict(self) -> dict:
        return {
            "apps": list(self.apps),
            "degrees": sorted(set(self.degrees)),
            "rings": self.canonical_rings(),
            "epsilons": sorted(set(self.epsilons)),
            "max_block_instructions": sorted(
                set(self.max_block_instructions)),
            "packets": self.packets,
            "seed": self.seed,
        }


def cell_dims(knobs: Knobs) -> tuple:
    """Which knobs name an explore cell, declared once: per search
    dimension beside the degree, in id order, ``(config key, value, id
    fragment, CLI spelling)``.  A cell's ``id`` and ``config``, the
    figure tables' grouping and a sweep task's description and reproduce
    one-liner are all read off this, so a dimension is added or removed
    here and as a :class:`SearchSpace` field, nowhere else."""
    ring, eps = knobs.costs.name, f"{knobs.epsilon:g}"
    mbi = knobs.max_block_instructions
    return (
        ("ring", ring, ring, f"--rings {ring}"),
        ("epsilon", knobs.epsilon, f"e{eps}", f"--epsilons {eps}"),
        ("max_block_instructions", mbi, f"b{mbi}",
         f"--max-block-instructions {mbi}"),
    )


def cell_name(app: str, degree: int, knobs: Knobs) -> dict:
    """The naming fields of a cell record: ``id``, ``app``, ``config``."""
    dims = cell_dims(knobs)
    ring, *rest = (fragment for _, _, fragment, _ in dims)
    return {"id": "/".join([app, ring, f"d{degree}", *rest]),
            "app": app,
            "config": {"degree": degree,
                       **{key: value for key, value, _, _ in dims}}}


# -- a degree row: the sweep task -------------------------------------------


@dataclass(frozen=True)
class ExploreRow:
    """One (app, knobs) degree row of the paper's cost model, the sweep
    task behind ``repro explore``: picklable for worker dispatch.

    A row keeps all of a combo's degrees together so the worker shares
    one analysis context and one baseline measurement across the row;
    parallelism fans the (app, combo) pairs.  ``spec.knobs`` *are* the
    combo.
    """

    spec: RunSpec

    def describe(self) -> str:
        spec = self.spec
        knobs = "/".join(fragment for _, _, fragment, _
                         in cell_dims(spec.knobs))
        return (f"explore {spec.app} "
                f"D={','.join(map(str, spec.degrees))} {knobs}")

    def repro_command(self) -> str:
        """A copy-paste one-liner that re-runs this exact row inline."""
        spec = self.spec
        degrees = ",".join(map(str, spec.degrees))
        knobs = " ".join(flag for _, _, _, flag in cell_dims(spec.knobs))
        return (f"repro explore --apps {spec.app} --degrees {degrees} "
                f"{knobs} --packets {spec.packets} --seed {spec.seed} -j 1")

    def cell(self, degree: int) -> "ExploreRow":
        """The row narrowed to one degree: what names a failed cell."""
        return replace(self, spec=replace(self.spec, degrees=(degree,)))

    def failed_cell(self, degree: int, error: Exception) -> dict:
        """The record of a cell that failed with ``error``: its id and the
        one-liner that re-runs that degree alone."""
        cell = self.cell(degree)
        return {
            "cell": cell_name(self.spec.app, degree, self.spec.knobs)["id"],
            "app": self.spec.app,
            "seed": self.spec.seed,
            "error": str(error),
            "task": cell.describe(),
            "repro": cell.repro_command(),
        }

    def run(self) -> dict:
        """Every degree is partitioned and verified through the
        *supervisor*, sharing one analysis context, then simulated
        against the row's sequential baseline with the
        observational-equivalence check on.

        The record carries one cell dict per degree; its ``metrics`` are
        pure functions of the task, and the nondeterministic partition
        wall seconds live under each cell's ``timing``.  A failed degree
        is recorded under ``failures`` (:meth:`failed_cell`) and the
        row's other degrees are still measured; a failure before the
        degree loop (app build, baseline) raises, and fails every cell.
        """
        from repro.analysis.context import AnalysisContext
        from repro.eval.metrics import measure_pipeline, measure_sequential
        from repro.eval.sweep import SweepError

        spec = self.spec
        cache = spec.open_cache()
        app, build_seconds = _timed(spec.build)
        # Normalize, profile, SSA and the dependence model once per row.
        context = AnalysisContext(app.module, app.pps_name,
                                  spec.knobs.max_block_instructions)
        baseline = measure_sequential(app)

        cells = []
        failures = []
        for degree in sorted(set(spec.degrees)):
            try:
                cell, result = self._partition_cell(app, context, degree,
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
                # measurement fault) is named by its own degree.
                failures.append(self.failed_cell(
                    degree, SweepError.naming(self.cell(degree), exc)))

        return {
            "app": spec.app,
            "cells": cells,
            "failures": failures,
            "timing": {
                "build_seconds": round(build_seconds, 4),
                "partition_seconds": round(sum(
                    cell["timing"]["partition_seconds"] for cell in cells),
                    4)},
            # A cache opened for this row alone: its counters are the row's.
            "cache": cache.counters() if cache is not None else None,
        }

    def _partition_cell(self, app, context, degree: int, cache):
        """One degree of the row through the supervisor: the cell's
        record — name, partition work under ``metrics``, wall seconds
        under ``timing`` — and the verified result behind it (``None`` at
        degree 1, the sequential "pipeline": always valid, nothing cut).
        A rejected partition raises, and the row records a failed cell."""
        from repro.pipeline.supervisor import supervise_partition

        spec = self.spec
        cell = cell_name(spec.app, degree, spec.knobs)
        if degree <= 1:
            return {**cell,
                    "metrics": {"stages": 1, "cut_iterations": 0,
                                "pr_work": 0},
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


def _timed(function, *args, **kwargs):
    """``(function(*args, **kwargs), wall seconds it took)``."""
    start = perf_counter()
    value = function(*args, **kwargs)
    return value, perf_counter() - start


# -- the objective -----------------------------------------------------------


#: The one objective, ``score = speedup - 0.005*words - 0.01*stages``:
#: one transmitted live-set word is worth 0.005 speedup and one pipeline
#: stage 0.01 — small enough that real speedup always wins, large enough
#: that a flat curve stops paying for stages and ring traffic.
#: ``partition_seconds`` is deliberately not scored: it is wall-clock
#: noise, and weighting it would make auto-pick nondeterministic.
WEIGHTS = {"speedup": 1.0, "words": 0.005, "stages": 0.01}


def score(metrics: dict) -> float:
    """A cell's objective value under :data:`WEIGHTS`."""
    return round(
        WEIGHTS["speedup"] * metrics["speedup"]
        - WEIGHTS["words"] * metrics["transmitted_words"]
        - WEIGHTS["stages"] * metrics["stages"], 6)


# -- Pareto dominance --------------------------------------------------------


def dominates(a: dict, b: dict) -> bool:
    """True when metrics ``a`` Pareto-dominates ``b``: no worse on every
    objective (speedup up, transmitted words down, stages down) and
    strictly better on at least one."""
    no_worse = (a["speedup"] >= b["speedup"]
                and a["transmitted_words"] <= b["transmitted_words"]
                and a["stages"] <= b["stages"])
    better = (a["speedup"] > b["speedup"]
              or a["transmitted_words"] < b["transmitted_words"]
              or a["stages"] < b["stages"])
    return no_worse and better


def pareto_flags(metrics: list[dict]) -> list[bool]:
    """``flags[i]`` is True iff ``metrics[i]`` is on the Pareto frontier.

    Sorted-sweep filter: cells are visited by descending speedup (ties
    broken toward cheaper cells), so a cell can only be dominated by one
    already kept — each candidate is tested against the running skyline
    instead of every other cell.  ``tests/test_explore.py`` property-
    checks this against the brute-force all-pairs dominance definition.
    """
    order = sorted(range(len(metrics)),
                   key=lambda i: (-metrics[i]["speedup"],
                                  metrics[i]["transmitted_words"],
                                  metrics[i]["stages"], i))
    flags = [False] * len(metrics)
    skyline: list[dict] = []
    for index in order:
        candidate = metrics[index]
        if any(dominates(kept, candidate) for kept in skyline):
            continue
        flags[index] = True
        skyline.append(candidate)
    return flags


def _dominator_id(cell: dict, cells: list[dict]) -> str | None:
    """The id of the strongest cell dominating ``cell`` (deterministic:
    best (speedup, -words, -stages), then smallest id)."""
    dominators = [other for other in cells
                  if dominates(other["metrics"], cell["metrics"])]
    if not dominators:
        return None
    best = min(dominators,
               key=lambda other: (-other["metrics"]["speedup"],
                                  other["metrics"]["transmitted_words"],
                                  other["metrics"]["stages"], other["id"]))
    return best["id"]


# -- auto-pick ---------------------------------------------------------------


def _combo_key(cell: dict) -> tuple:
    """A cell's knob combo: every ``config`` entry but the degree, as
    sorted ``(key, value)`` pairs."""
    return tuple(sorted((key, value) for key, value in cell["config"].items()
                        if key != "degree"))


def _tie_key(cell: dict, value: float) -> tuple:
    """Deterministic total order on candidates: higher score first, then
    fewer stages, fewer words, higher speedup, and finally the id."""
    metrics = cell["metrics"]
    return (-value, metrics["stages"], metrics["transmitted_words"],
            -metrics["speedup"], cell["id"])


def auto_pick(cells: list[dict]) -> dict | None:
    """Select the best verified configuration among one app's cells.

    The pick is the best-scoring cell of the whole grid, ties broken by
    :func:`_tie_key`.  Annotates the pick and every passed-over cell
    that is not dominated (a dominated cell's note is its dominator)
    with a ``pick`` note, and returns the pick record (or ``None`` when
    there is no cell: every one failed).
    """
    if not cells:
        return None
    scores = {cell["id"]: score(cell["metrics"]) for cell in cells}
    ranked = sorted(cells, key=lambda cell: _tie_key(cell, scores[cell["id"]]))
    picked, others = ranked[0], ranked[1:]
    outscored = f"outscored by {picked['id']} ({scores[picked['id']]:.4f})"
    for cell in others:
        if not cell.get("dominated_by"):
            cell["pick"] = outscored
    picked["pick"] = f"picked (score {scores[picked['id']]:.4f})"
    pick = {
        "id": picked["id"],
        "config": dict(picked["config"]),
        "metrics": dict(picked["metrics"]),
        "score": scores[picked["id"]],
        "why": f"best score of {len(cells)} cell(s)",
    }
    if others:
        runner_up = others[0]
        pick["why"] += (f"; runner-up {runner_up['id']} "
                        f"({scores[runner_up['id']]:.4f})")
        pick["runner_up"] = {"id": runner_up["id"],
                             "score": scores[runner_up["id"]]}
        if scores[runner_up["id"]] == scores[picked["id"]]:
            pick["tie_break"] = (f"tied score with {runner_up['id']}; fewer "
                                 f"stages, then fewer words, then id order "
                                 f"decided")
    return pick


# -- the exploration driver --------------------------------------------------


def explore(space: SearchSpace, *, jobs: int = 1, cache=None) -> dict:
    """Evaluate ``space`` and return the full exploration report.

    The report is JSON-serializable: per app the cell list (task order —
    deterministic at any ``jobs`` level), the Pareto frontier ids, and
    the auto-pick with provenance; plus every failed cell under
    ``failures`` and the nondeterministic timing/cache numbers that
    :func:`deterministic_report` strips for the frontier artifact.  A
    failure never ends the grid: a failed degree is its own record, and
    a row that failed before its degree loop, or whose worker died,
    records each of its cells.  ``cache`` (a
    :class:`~repro.cache.CompileCache`) is the artifact cache every row
    shares; the counters the rows report are folded back into it.
    """
    # Imported here so that importing repro.eval (for its metrics) does
    # not import the process pool.
    from repro.eval.sweep import SweepError, run_sweep

    space.validate()
    rows = space.rows(str(cache.root) if cache is not None else None)

    by_app: dict[str, list[dict]] = {app: [] for app in space.apps}
    failures: list[dict] = []
    timing = {"build_seconds": 0.0, "partition_seconds": 0.0}
    for row, entry in zip(rows, run_sweep(rows, jobs=jobs)):
        if isinstance(entry, SweepError):
            failures += [row.failed_cell(degree, entry)
                         for degree in sorted(set(row.spec.degrees))]
            continue
        by_app[entry["app"]].extend(entry["cells"])
        failures += entry["failures"]
        for key in timing:
            timing[key] += entry["timing"][key]
        if cache is not None and entry["cache"]:
            cache.merge_counters(entry["cache"])

    apps: dict[str, dict] = {}
    for app, cells in by_app.items():
        flags = pareto_flags([cell["metrics"] for cell in cells])
        for cell, on_front in zip(cells, flags):
            cell["pareto"] = on_front
            if not on_front:
                cell["dominated_by"] = _dominator_id(cell, cells)
        pick = auto_pick(cells)
        apps[app] = {
            "cells": cells,
            "frontier": [cell["id"] for cell in cells if cell["pareto"]],
            "pick": pick,
        }

    report = {
        "schema": EXPLORE_SCHEMA_VERSION,
        "space": space.as_dict(),
        "weights": dict(WEIGHTS),
        "apps": apps,
        "timing": {key: round(value, 4) for key, value in timing.items()},
    }
    if failures:
        report["failures"] = failures
    if cache is not None:
        report["cache"] = cache.counters()
    return report


def deterministic_report(report: dict) -> dict:
    """The byte-identical subset of an exploration report.

    Strips wall-clock timings and cache counters (top level and per
    cell); everything left is a pure function of the search space, so
    repeated runs — at any ``-j`` level, cold or cached — produce the
    same bytes.  This is what ``repro explore`` writes to
    ``frontier.json``.
    """
    clean = {key: value for key, value in report.items()
             if key not in ("timing", "cache")}
    clean["apps"] = {}
    for app, entry in report["apps"].items():
        cells = []
        for cell in entry["cells"]:
            cells.append({key: value for key, value in cell.items()
                          if key != "timing"})
        clean["apps"][app] = {**entry, "cells": cells}
    return clean


# -- rendering ---------------------------------------------------------------


#: The by-degree tables of ``frontier.md`` as (title, cell metric, value
#: format): at the default space, Figures 19/20 and 21/22.
FIGURE_TABLES = (
    ("Speedup by degree", "speedup", "{:6.2f}"),
    ("Live-set overhead by degree", "overhead", "{:6.3f}"),
)


def figure_series(record: dict, apps, metric: str) -> dict:
    """``{app: {degree: value}}`` of one cell metric over ``apps`` of a
    one-combo record: a figure's curves, or the headline at the top
    degree."""
    return {app: {cell["config"]["degree"]: cell["metrics"][metric]
                  for cell in record["apps"][app]["cells"]}
            for app in apps}


def render_markdown(report: dict) -> str:
    """The frontier as a markdown document: one pair of by-degree tables
    (:data:`FIGURE_TABLES`) per knob combo, then one table per app."""
    from repro.eval.report import render_figure

    space = report["space"]
    weights = report["weights"]
    lines = ["# repro explore — Pareto frontier", ""]
    lines.append(
        f"Space: apps={','.join(space['apps'])} "
        f"degrees={','.join(map(str, space['degrees']))} "
        f"rings={','.join(space['rings'])} "
        f"epsilons={','.join(format(e, 'g') for e in space['epsilons'])} "
        f"packets={space['packets']} seed={space['seed']}")
    lines.append(
        f"Objective: {weights['speedup']:g}*speedup "
        f"- {weights['words']:g}*words - {weights['stages']:g}*stages "
        f"(pick: each app's best-scoring cell)")
    lines.append("")
    combos = dict.fromkeys(_combo_key(cell)
                           for entry in report["apps"].values()
                           for cell in entry["cells"])
    for combo in combos:
        lines.append("## By degree: " + " ".join(
            f"{key}={value}" for key, value in combo))
        lines.append("")
        view = {"apps": {app: {"cells": [cell for cell in entry["cells"]
                                         if _combo_key(cell) == combo]}
                         for app, entry in report["apps"].items()}}
        for title, metric, value_format in FIGURE_TABLES:
            series = figure_series(view, view["apps"], metric)
            lines += ["```", render_figure(title, series,
                                           value_format=value_format),
                      "```", ""]
    for app, entry in report["apps"].items():
        pick = entry["pick"]
        if pick is not None:
            lines.append(f"## {app} — pick: `{pick['id']}` "
                         f"(score {pick['score']:.4f})")
            lines.append("")
            lines.append(f"{pick['why']}")
        else:
            lines.append(f"## {app} — no eligible configuration")
        lines.append("")
        lines.append("| cell | speedup | words | stages | pareto | note |")
        lines.append("|---|---|---|---|---|---|")
        for cell in entry["cells"]:
            metrics = cell["metrics"]
            note = (f"dominated by {cell['dominated_by']}"
                    if cell.get("dominated_by") else cell.get("pick", ""))
            lines.append(
                f"| {cell['id']} | {metrics['speedup']:.4f} "
                f"| {metrics['transmitted_words']} | {metrics['stages']} "
                f"| {'yes' if cell.get('pareto') else 'no'} | {note} |")
        lines.append("")
    if report.get("failures"):
        lines.append(f"**{len(report['failures'])} sweep cells failed**; "
                     f"reproduce with:")
        lines.append("")
        for failure in report["failures"]:
            lines.append(f"- `{failure['repro']}`")
        lines.append("")
    return "\n".join(lines)


def render_summary(report: dict) -> str:
    """The one-screen ``repro explore`` stdout summary."""
    lines = []
    cell_count = sum(len(entry["cells"])
                     for entry in report["apps"].values())
    frontier_count = sum(len(entry["frontier"])
                         for entry in report["apps"].values())
    lines.append(f"explore: {cell_count} cells -> {frontier_count} on the "
                 f"frontier across {len(report['apps'])} apps")
    for app, entry in report["apps"].items():
        pick = entry["pick"]
        if pick is None:
            lines.append(f"  {app:10s} no eligible configuration (every "
                         f"cell failed)")
            continue
        metrics = pick["metrics"]
        lines.append(
            f"  {app:10s} pick d={metrics['stages']} "
            f"{pick['config']['ring']:12s} speedup {metrics['speedup']:5.2f}x "
            f"words {metrics['transmitted_words']:3d} "
            f"score {pick['score']:.4f}")
        lines.append(f"    {pick['id']} — {pick['why']}")
        if pick.get("tie_break"):
            lines.append(f"    tie-break: {pick['tie_break']}")
    if report.get("failures"):
        lines.append(f"  {len(report['failures'])} cells FAILED")
    return "\n".join(lines)
