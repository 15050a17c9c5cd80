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
   (§3.3's resumed preflow, warm starts) is not a dimension;
2. **evaluate** every cell through the cached, parallel,
   supervisor-verified pipeline (:mod:`repro.eval.sweep` fan-out): each
   cell is partitioned via :func:`~repro.pipeline.supervisor.supervise_partition`
   (independent verification + graceful degradation) and simulated with
   the observational-equivalence check on;
3. **score** each cell on (simulated throughput — the speedup over the
   sequential PPS, transmitted live-set words, realized stage count) and
   keep ``partition_seconds`` as nondeterministic context;
4. **emit** a per-app Pareto frontier (JSON + markdown) and an
   **auto-pick**: the best verified configuration per app under a
   user-weighted objective, with dominated-by / plateau / tie-break
   provenance for every cell it passed over.

Determinism: the scored metrics are exactly the deterministic outputs of
the partitioner + simulator, so the frontier artifact produced by
:func:`deterministic_report` is byte-identical across repeated runs and
across ``-j`` levels (wall-clock timings and cache counters are confined
to the separately written timings report).  CI diffs two back-to-back
runs to hold that line, and tier-1 regenerates the default grid and
requires the committed ``EXPLORE_frontier.json`` back byte for byte
(``tests/test_paper_numbers.py``).

Why the default pick rule is *marginal* (a knee finder): speedup curves
in this domain flatten when per-stage live-set transmission stops
shrinking while compute does (paper Fig. 19/21 — "the speedup of the RX
and TX PPSes ... scales well up to pipelining degree 5, after which the
speedup levels off").  The marginal rule climbs an app's degree ladder
and stops at the first degree whose *weighted* score does not improve —
rx parks at 5 where its curve plateaus, while ipv4's monotone curve
climbs to 9.  ``rule="score"`` is the plain argmax alternative.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from repro.errors import ReproError
from repro.runspec import Knobs

#: Version of the frontier-report schema; bump on layout changes, with
#: the regenerated ``EXPLORE_frontier.json`` in the same commit.
EXPLORE_SCHEMA_VERSION = 2

#: Objective directions: maximize speedup, minimize words and stages.
OBJECTIVES = ("speedup", "transmitted_words", "stages")


class ExploreError(ReproError):
    """A malformed search space, weights spec, or exploration failure."""


# -- the declarative search space --------------------------------------------


@dataclass(frozen=True)
class SearchSpace:
    """One declarative (app x degree x knob x cost-table) search space.

    ``degrees`` should normally include 1: the sequential PPS is the
    always-valid floor every pipelined cell is judged against, and the
    auto-pick ladder starts from it (so apps that do not pipeline —
    scheduler, qm — pick degree 1 instead of a losing cell).
    """

    apps: tuple
    degrees: tuple
    rings: tuple = (Knobs.costs.name,)
    epsilons: tuple = (Knobs.epsilon,)
    max_block_instructions: tuple = (Knobs.max_block_instructions,)
    packets: int = 60
    seed: int = 7

    def validate(self) -> "SearchSpace":
        """Check the space is well-formed; returns self for chaining.

        Also asserts that every selected cost table has a *distinct*
        compile-cache identity (:func:`repro.cache.key.cost_identity`) —
        the cache is salted with the full cost table, and this is where
        that invariant is checked before a search relies on it.
        """
        from repro.cache.key import cost_identity
        from repro.machine.costs import cost_table

        if not self.apps:
            raise ExploreError("search space has no apps")
        if not self.degrees:
            raise ExploreError("search space has no degrees")
        for degree in self.degrees:
            if not isinstance(degree, int) or degree < 1:
                raise ExploreError(f"bad degree {degree!r}: must be an "
                                   f"integer >= 1")
        for epsilon in self.epsilons:
            if not epsilon > 0:
                raise ExploreError(f"bad epsilon {epsilon!r}: must be > 0")
        for mbi in self.max_block_instructions:
            if not isinstance(mbi, int) or mbi < 0:
                raise ExploreError(f"bad max_block_instructions {mbi!r}")
        identities: dict[str, str] = {}
        for ring in self.rings:
            table = cost_table(ring)  # raises ValueError on unknown names
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

    @classmethod
    def from_dict(cls, data: dict) -> "SearchSpace":
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(data) - known)
        if unknown:
            raise ExploreError(f"unknown search-space keys: "
                               f"{', '.join(unknown)}")
        kwargs = {key: (tuple(value) if isinstance(value, list) else value)
                  for key, value in data.items()}
        return cls(**kwargs).validate()


def cell_dims(knobs: Knobs) -> tuple:
    """Which knobs name an explore cell, declared once: per search
    dimension beside the degree, in id order, ``(config key, value, id
    fragment, CLI spelling)``.  A cell's ``id`` and ``config``, the pick
    ladders' grouping and a sweep task's description and reproduce
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


# -- the user-weighted objective ---------------------------------------------


@dataclass(frozen=True)
class Weights:
    """Scalarization weights over the deterministic cell metrics.

    ``score = speedup*s - words*w - stages*d``.  The defaults make one
    transmitted live-set word worth 0.005 speedup and one pipeline stage
    worth 0.01 — small enough that real speedup always wins, large
    enough that a flat curve stops paying for stages and ring traffic.
    ``partition_seconds`` is deliberately not scorable: it is wall-clock
    noise, and weighting it would make auto-pick nondeterministic.
    """

    speedup: float = 1.0
    words: float = 0.005
    stages: float = 0.01

    def score(self, metrics: dict) -> float:
        return round(
            self.speedup * metrics["speedup"]
            - self.words * metrics["transmitted_words"]
            - self.stages * metrics["stages"], 6)

    def as_dict(self) -> dict:
        return {"speedup": self.speedup, "words": self.words,
                "stages": self.stages}

    @classmethod
    def parse(cls, text: str) -> "Weights":
        """Parse ``speedup=1,words=0.005,stages=0.01`` (any subset)."""
        values = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ExploreError(f"--weights expects name=value pairs "
                                   f"(got {part!r})")
            name, _, value = part.partition("=")
            name = name.strip()
            if name not in ("speedup", "words", "stages"):
                raise ExploreError(f"unknown objective weight {name!r} "
                                   f"(expected speedup, words, stages)")
            try:
                values[name] = float(value)
            except ValueError as exc:
                raise ExploreError(f"bad weight value in {part!r}: "
                                   f"{exc}") from exc
        weights = cls(**values)
        if weights.speedup <= 0:
            raise ExploreError("the speedup weight must be positive")
        if weights.words < 0 or weights.stages < 0:
            raise ExploreError("words/stages weights must be >= 0 "
                               "(they are penalties)")
        return weights


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
                  if other["metrics"] is not None
                  and dominates(other["metrics"], cell["metrics"])]
    if not dominators:
        return None
    best = min(dominators,
               key=lambda other: (-other["metrics"]["speedup"],
                                  other["metrics"]["transmitted_words"],
                                  other["metrics"]["stages"], other["id"]))
    return best["id"]


# -- auto-pick ---------------------------------------------------------------


def _combo_key(cell: dict) -> tuple:
    """A cell's ladder: every ``config`` entry but the degree."""
    return tuple(value for key, value in sorted(cell["config"].items())
                 if key != "degree")


def _tie_key(cell: dict, score: float) -> tuple:
    """Deterministic total order on candidates: higher score first, then
    fewer stages, fewer words, higher speedup, and finally the id."""
    metrics = cell["metrics"]
    return (-score, metrics["stages"], metrics["transmitted_words"],
            -metrics["speedup"], cell["id"])


def auto_pick(cells: list[dict], weights: Weights, *,
              rule: str = "marginal", min_gain: float = 0.0) -> dict | None:
    """Select the best verified configuration among one app's cells.

    ``rule="marginal"`` (default) climbs each knob combo's degree ladder
    and keeps the last degree whose weighted score improved by more than
    ``min_gain`` — the first plateau ends the climb (the paper's "levels
    off" knee).  ``rule="score"`` is the plain argmax over all cells.
    Degraded or unverified cells are never picked; annotates every cell
    with a ``pick`` provenance note and returns the pick record (or
    ``None`` when no cell qualifies).
    """
    if rule not in ("marginal", "score"):
        raise ExploreError(f"unknown pick rule {rule!r} "
                           f"(expected marginal or score)")
    eligible = []
    for cell in cells:
        if not cell["verified"]:
            cell["pick"] = "ineligible: unverified (partitioning failed)"
        elif cell["degraded"]:
            cell["pick"] = (f"ineligible: degraded to "
                            f"{cell['achieved_degree']} stages "
                            f"(duplicates a lower-degree cell)")
        else:
            eligible.append(cell)
    if not eligible:
        return None
    scores = {cell["id"]: weights.score(cell["metrics"])
              for cell in eligible}

    if rule == "score":
        candidates = {cell["id"]: cell for cell in eligible}
        ladders: dict[tuple, list] = {}
    else:
        candidates = {}
        ladders = {}
        combos: dict[tuple, list] = {}
        for cell in eligible:
            combos.setdefault(_combo_key(cell), []).append(cell)
        for combo, row in combos.items():
            row.sort(key=lambda cell: cell["config"]["degree"])
            incumbent = row[0]
            trace = [{"id": incumbent["id"],
                      "degree": incumbent["config"]["degree"],
                      "score": scores[incumbent["id"]],
                      "decision": "start"}]
            for cell in row[1:]:
                gain = round(scores[cell["id"]]
                             - scores[incumbent["id"]], 6)
                if gain > min_gain:
                    trace.append({"id": cell["id"],
                                  "degree": cell["config"]["degree"],
                                  "score": scores[cell["id"]],
                                  "gain": gain, "decision": "accept"})
                    incumbent = cell
                else:
                    trace.append({"id": cell["id"],
                                  "degree": cell["config"]["degree"],
                                  "score": scores[cell["id"]],
                                  "gain": gain, "decision": "stop"})
                    cell["pick"] = (
                        f"plateau: score gain {gain:+.4f} <= "
                        f"{min_gain:g} over {incumbent['id']} — the "
                        f"ladder stopped at degree "
                        f"{incumbent['config']['degree']}")
                    for later in row[row.index(cell) + 1:]:
                        later["pick"] = (
                            f"beyond the plateau at degree "
                            f"{cell['config']['degree']} (ladder stopped "
                            f"at {incumbent['id']})")
                    break
            candidates[incumbent["id"]] = incumbent
            ladders[combo] = trace

    ranked = sorted(candidates.values(),
                    key=lambda cell: _tie_key(cell, scores[cell["id"]]))
    picked = ranked[0]
    for cell in eligible:
        if cell["id"] == picked["id"]:
            continue
        if cell["id"] in candidates:
            cell["pick"] = (f"candidate (score "
                            f"{scores[cell['id']]:.4f}) outscored by "
                            f"{picked['id']} ({scores[picked['id']]:.4f})")
        elif "pick" not in cell:
            cell["pick"] = (f"below the pick on its ladder "
                            f"(score {scores[cell['id']]:.4f})")
    runner_up = ranked[1] if len(ranked) > 1 else None
    tie_break = None
    if (runner_up is not None
            and scores[runner_up["id"]] == scores[picked["id"]]):
        tie_break = (f"tied score with {runner_up['id']}; fewer stages, "
                     f"then fewer words, then id order decided")
    picked["pick"] = f"picked (score {scores[picked['id']]:.4f})"
    pick = {
        "id": picked["id"],
        "config": dict(picked["config"]),
        "metrics": dict(picked["metrics"]),
        "score": scores[picked["id"]],
        "rule": rule,
        "why": _explain_pick(picked, scores, ladders, ranked, rule),
    }
    if tie_break:
        pick["tie_break"] = tie_break
    if ladders:
        pick["ladder"] = ladders[_combo_key(picked)]
    if runner_up is not None:
        pick["runner_up"] = {"id": runner_up["id"],
                             "score": scores[runner_up["id"]]}
    return pick


def _explain_pick(picked: dict, scores: dict, ladders: dict,
                  ranked: list, rule: str) -> str:
    parts = []
    if rule == "marginal":
        trace = ladders[_combo_key(picked)]
        climbed = [str(step["degree"]) for step in trace
                   if step["decision"] in ("start", "accept")]
        parts.append(f"climbed degree {' -> '.join(climbed)}")
        stopped = [step for step in trace if step["decision"] == "stop"]
        if stopped:
            step = stopped[0]
            parts.append(f"stopped: degree {step['degree']} gained "
                         f"{step['gain']:+.4f}")
        else:
            parts.append("reached the top of the degree grid still "
                         "improving")
    else:
        parts.append(f"argmax weighted score over "
                     f"{len(scores)} eligible cells")
    others = [cell for cell in ranked[1:]]
    if others:
        best = others[0]
        parts.append(f"beat {len(others)} other candidate(s), next: "
                     f"{best['id']} ({scores[best['id']]:.4f})")
    return "; ".join(parts)


# -- the exploration driver --------------------------------------------------


def explore(space: SearchSpace, *, weights: Weights | None = None,
            rule: str = "marginal", min_gain: float = 0.0,
            jobs: int = 1, cache=None,
            keep_going: bool = False) -> dict:
    """Evaluate ``space`` and return the full exploration report.

    The report is JSON-serializable: per app the cell list (task order —
    deterministic at any ``jobs`` level), the Pareto frontier ids, and
    the auto-pick with provenance; plus sweep failures (``keep_going``)
    and the nondeterministic timing/cache numbers that
    :func:`deterministic_report` strips for the frontier artifact.
    """
    from repro.eval.sweep import explore_tasks, run_sweep

    space.validate()
    weights = weights or Weights()
    tasks = explore_tasks(space, keep_going=keep_going)
    results = run_sweep(tasks, jobs=jobs, keep_going=keep_going,
                        cache=cache)

    failures = [entry for entry in results if entry.get("failed")]
    completed = [entry for entry in results if not entry.get("failed")]
    # Cell-level keep-going: a row that survived may still carry failed
    # degree cells; they join the artifact's ``failures`` list.
    for entry in completed:
        failures.extend(entry.get("cell_failures") or [])

    by_app: dict[str, list[dict]] = {app: [] for app in space.apps}
    timing = {"build_seconds": 0.0, "partition_seconds": 0.0}
    for entry in completed:
        by_app[entry["app"]].extend(entry["cells"])
        for key in timing:
            timing[key] += entry["timing"][key]

    apps: dict[str, dict] = {}
    for app, cells in by_app.items():
        scored = [cell for cell in cells if cell["metrics"] is not None]
        flags = pareto_flags([cell["metrics"] for cell in scored])
        for cell, on_front in zip(scored, flags):
            cell["pareto"] = on_front
            if not on_front:
                cell["dominated_by"] = _dominator_id(cell, scored)
        pick = auto_pick(cells, weights, rule=rule, min_gain=min_gain)
        apps[app] = {
            "cells": cells,
            "frontier": [cell["id"] for cell in scored if cell["pareto"]],
            "pick": pick,
        }

    report = {
        "schema": EXPLORE_SCHEMA_VERSION,
        "space": space.as_dict(),
        "weights": weights.as_dict(),
        "rule": rule,
        "min_gain": min_gain,
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
    ``frontier.json``, what the CI determinism diff compares and what
    tier-1 holds ``EXPLORE_frontier.json`` to.
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


def render_markdown(report: dict) -> str:
    """The frontier as a markdown document (one table per app)."""
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
        f"(rule: {report['rule']})")
    lines.append("")
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
        lines.append("| cell | speedup | words | stages | verified "
                     "| pareto | note |")
        lines.append("|---|---|---|---|---|---|---|")
        for cell in entry["cells"]:
            metrics = cell["metrics"]
            if metrics is None:
                lines.append(f"| {cell['id']} | — | — | — | no | — "
                             f"| {cell.get('error', 'failed')} |")
                continue
            note = cell.get("pick", "")
            if not cell.get("pareto", False) and cell.get("dominated_by"):
                note = (f"dominated by {cell['dominated_by']}"
                        + (f"; {note}" if note else ""))
            lines.append(
                f"| {cell['id']} | {metrics['speedup']:.4f} "
                f"| {metrics['transmitted_words']} | {metrics['stages']} "
                f"| {'yes' if cell['verified'] else 'no'} "
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
            lines.append(f"  {app:10s} no eligible configuration (no "
                         f"verified, non-degraded cell in the space)")
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
