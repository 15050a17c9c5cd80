"""The sweep runner (src/repro/eval/sweep.py).

The contract under test:

* ``run_sweep`` is an ordered map: one entry per task, in task order,
  and ``-j 4`` output is byte-identical to ``-j 1`` once the explicitly
  nondeterministic ``timing`` / ``cache`` fields are stripped,
  regardless of completion order;
* a task that raises, or whose worker process dies, leaves a
  :class:`SweepError` in its slot — a structured failure, never a hang
  and never a raise, and the same failure at every ``-j`` level;
* the reproduce one-liners come from the commands' own tasks
  (``ExploreRow``, ``FuzzCase``) and re-run just the failed cell;
* every cell runs at its seed as given, so a fuzz case of a stream app
  reproduces inline under any parallelism;
* the figure PPSes explore to one record at every ``-j`` level, and a
  cell the verifier does not pass is recorded naming its degree.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import pytest

from repro.errors import FaultPlanError, TrapError
from repro.eval.explore import ExploreRow, SearchSpace
from repro.eval.fuzz import FuzzCase, run_fuzz
from repro.eval.sweep import SweepError, run_sweep
from repro.runspec import Knobs, RunSpec
from repro.runtime.faults import resolve_plan


def without_clock(node):
    """A sweep result minus its nondeterministic fields — wall-clock
    ``timing`` and the ``cache`` counters, at every level (an explore
    row times each cell too) — as JSON, so two runs compare byte for
    byte."""

    def strip(node):
        if isinstance(node, dict):
            return {key: strip(value) for key, value in node.items()
                    if key not in ("timing", "cache")}
        if isinstance(node, list):
            return [strip(value) for value in node]
        return node
    return json.dumps(strip(node), sort_keys=True)


def plans(*names) -> dict:
    return {name: resolve_plan(name) for name in names}


# -- seeds ------------------------------------------------------------------


def test_fuzz_tasks_carry_the_base_seed_in_sorted_order(monkeypatch):
    """Fuzz cases of stream apps: one task per (app, seed, degree), the
    apps sorted, each at the seed as given."""
    import repro.eval.fuzz as fuzz_module

    sent = []

    def sweep(tasks, jobs):
        sent.extend(tasks)
        return [{"failure": None, "runs": []} for _ in tasks]

    monkeypatch.setattr(fuzz_module, "run_sweep", sweep)
    run_fuzz(1, start_seed=7, degrees=(1, 2), packets=8,
             programs=("tx", "rx"))
    assert [task.spec.app for task in sent] == ["rx", "rx", "tx", "tx"]
    assert [task.spec.seed for task in sent] == [7, 7, 7, 7]
    assert [task.spec.degrees for task in sent] == [(1,), (2,)] * 2


# -- the ordered map --------------------------------------------------------

# Module-level so ProcessPoolExecutor workers can pickle them by name.


@dataclass(frozen=True)
class Probe:
    """A test task: ``spec.app`` says what ``run()`` does."""

    spec: RunSpec

    def run(self) -> dict:
        app = self.spec.app
        if app == "bad":
            raise ValueError("synthetic task failure")
        if app == "trap":
            raise TrapError("synthetic trap")
        if app == "crash":
            os._exit(13)  # hard death: no exception, no cleanup
        # Later-submitted tasks finish first: exercises out-of-order
        # completion against the task-order merge.
        time.sleep(0.05 * max(0, 3 - self.spec.seed % 10))
        return {"app": app, "seed": self.spec.seed,
                "timing": {"wall_seconds": time.perf_counter()}}

    def describe(self) -> str:
        return f"probe {self.spec.app}"

    def repro_command(self) -> str:
        return f"repro probe {self.spec.app} --seed {self.spec.seed}"


def _tasks(apps):
    return [Probe(RunSpec(app, 1, index, (1,)))
            for index, app in enumerate(apps)]


def test_results_come_back_in_task_order_despite_completion_order():
    tasks = _tasks(["a", "b", "c", "d"])
    inline = run_sweep(tasks, jobs=1)
    fanned = run_sweep(tasks, jobs=4)
    assert [r["app"] for r in fanned] == ["a", "b", "c", "d"]
    assert without_clock(fanned) == without_clock(inline)


def test_worker_exception_is_a_structured_sweep_error():
    tasks = _tasks(["good", "bad"])
    for jobs in (2, 1):
        error = run_sweep(tasks, jobs=jobs)[1]
        assert isinstance(error, SweepError)
        assert "probe bad" in str(error)


def test_keep_going_records_failures_and_keeps_sibling_results():
    """A failed task is its slot, and its siblings keep their results:
    every sweep keeps going past a failure."""
    tasks = _tasks(["good", "bad", "also-good"])
    for jobs in (1, 2):
        good, bad, also_good = run_sweep(tasks, jobs=jobs)
        assert (good["app"], also_good["app"]) == ("good", "also-good")
        assert isinstance(bad, SweepError)
        assert bad.task == tasks[1]
        message = str(bad)
        assert f"seed={tasks[1].spec.seed}" in message
        assert tasks[1].describe() in message
        assert tasks[1].repro_command() in message
        assert "synthetic task failure" in message


def test_sweep_error_carries_seed_args_and_repro_command():
    tasks = _tasks(["good", "bad"])
    for jobs in (1, 2):
        error = run_sweep(tasks, jobs=jobs)[1]
        message = str(error)
        assert error.task == tasks[1]
        assert f"seed={tasks[1].spec.seed}" in message
        assert repr(tasks[1]) in message               # full arg tuple
        assert f"reproduce: {tasks[1].repro_command()}" in message


@pytest.mark.parametrize("app", ["bad", "trap"])
def test_failure_is_the_same_at_every_jobs_level(app):
    """Whatever the task raised — a toolchain error like TrapError
    included — the slot's type, message and task do not depend on
    ``jobs``."""
    tasks = _tasks(["good", app])
    slots = []
    for jobs in (1, 2):
        error = run_sweep(tasks, jobs=jobs)[1]
        slots.append((type(error), str(error), error.task))
    assert slots[0] == slots[1]
    assert slots[0][0] is SweepError
    assert f"seed={tasks[1].spec.seed}" in slots[0][1]


def test_worker_crash_is_a_sweep_error_not_a_hang():
    """A worker that dies breaks the pool: the crashed task's slot is a
    SweepError naming it, every task the pool left unfinished runs again
    and keeps its record, and nothing raises."""
    tasks = _tasks(["a", "crash", "b", "c", "d"])
    results = run_sweep(tasks, jobs=2)
    entry = results[1]
    assert isinstance(entry, SweepError) and entry.task == tasks[1]
    message = str(entry)
    assert "sweep worker process died" in message
    assert f"seed={tasks[1].spec.seed}" in message
    assert repr(tasks[1]) in message
    assert f"reproduce: {tasks[1].repro_command()}" in message
    assert [entry["app"] for index, entry in enumerate(results)
            if index != 1] == ["a", "b", "c", "d"]


def test_fuzz_app_repro_command_is_a_fuzz_one_liner():
    """A fuzz case of a stream app under named plans reproduces with a
    ``repro fuzz --apps`` one-liner naming the app, seed and plans; at
    every builtin plan it names none."""
    case = FuzzCase(RunSpec("rx", 8, 7, (2,)),
                    plans("drop-light", "trap-storm"))
    command = case.repro_command()
    assert command.startswith("repro fuzz --apps rx --seeds 1 "
                              "--start-seed 7 --degrees 2")
    assert "--faults drop-light,trap-storm" in command
    every = FuzzCase(RunSpec("progen", 8, 7, (2,)),
                     plans("drop-light", "delay-stall", "mixed-loss",
                           "trap-storm"))
    assert every.repro_command() == \
        "repro fuzz --seeds 1 --start-seed 7 --degrees 2 --packets 8"


def test_every_repro_command_parses_and_round_trips_the_cell():
    """Whatever command owns the task, the one-liner is a real command
    line: it parses and names the failing cell's packets, degrees and
    seed — not a wider sweep than the cell that failed — and an explore
    row's one-liner names its three knob values."""
    import shlex

    from repro.cli import build_parser
    from repro.machine.costs import SCRATCH_RING

    parser = build_parser()
    knobs = Knobs(costs=SCRATCH_RING, epsilon=0.125,
                  max_block_instructions=8)
    explore_row = ExploreRow(RunSpec("rx", 8, 1234, (2, 3), knobs))
    fuzz_case = FuzzCase(RunSpec("rx", 8, 1234, (3,)), plans("drop-light"))
    for task, seed_attribute in ((explore_row, "seed"),
                                 (fuzz_case, "start_seed")):
        program, *argv = shlex.split(task.repro_command(), comments=True)
        assert program == "repro"
        args = parser.parse_args(argv)
        assert args.command == task.describe().split()[0]
        assert args.packets == 8
        assert tuple(map(int, args.degrees.split(","))) == \
            task.spec.degrees
        assert getattr(args, seed_attribute) == 1234
        assert args.apps == ["rx"]
    args = parser.parse_args(shlex.split(fuzz_case.repro_command())[1:])
    assert (args.seeds, args.faults) == (1, "drop-light")
    args = parser.parse_args(shlex.split(explore_row.repro_command())[1:])
    assert (args.rings, float(args.epsilons),
            int(args.max_block_instructions)) == ("scratch-ring", 0.125, 8)
    assert explore_row.describe() == "explore rx D=2,3 scratch-ring/e0.125/b8"
    assert explore_row.cell(3).repro_command().startswith(
        "repro explore --apps rx --degrees 3 ")


def test_an_owner_task_that_raises_names_its_own_one_liner():
    """The runner writes no one-liner of its own: an explore row whose
    app does not build is a slot carrying the explore one-liner."""
    row = ExploreRow(RunSpec("nope", 4, 7, (1, 2)))
    for jobs in (1, 2):
        [error] = run_sweep([row], jobs=jobs)
        assert isinstance(error, SweepError)
        assert f"reproduce: {row.repro_command()}" in str(error)
        assert str(error).startswith("sweep task explore nope D=1,2 ")


def test_unknown_chaos_plan_rejected():
    """``run_fuzz`` resolves every plan before any case runs: an unknown
    plan is a FaultPlanError, not a failed case."""
    with pytest.raises(FaultPlanError, match="no-such-plan"):
        run_fuzz(1, degrees=(1,), packets=4, programs=("rx",),
                 plans=("drop-light", "no-such-plan"))


# -- real cells: -j 4 byte-identical to -j 1 --------------------------------


def test_bench_sweep_parallel_identical_to_inline(tmp_path):
    space = SearchSpace(apps=("rx", "tx"), degrees=(1, 2), packets=4)
    inline = run_sweep(space.rows(str(tmp_path / "inline-cache")), jobs=1)
    fanned = run_sweep(space.rows(str(tmp_path / "fanned-cache")), jobs=4)
    # Everything but the clock agrees, partition work included.
    assert without_clock(fanned) == without_clock(inline)
    for result in inline:
        assert [cell["config"]["degree"] for cell in result["cells"]] == \
            [1, 2]
        assert result["cells"][1]["metrics"]["pr_work"] > 0
        assert result["failures"] == []
        assert result["cache"]["misses"] > 0


def test_chaos_sweep_parallel_identical_to_inline():
    tasks = [FuzzCase(RunSpec("rx", 8, 7, (degree,)), plans("drop-light"))
             for degree in (1, 2)]
    inline = run_sweep(tasks, jobs=1)
    fanned = run_sweep(tasks, jobs=2)
    assert without_clock(fanned) == without_clock(inline)
    assert [result["failure"] for result in inline] == [None, None]
    assert [[(run["plan"], run["seed"]) for run in result["runs"]]
            for result in inline] == [[("drop-light", 7)]] * 2


def test_figure_apps_explore_to_one_record_at_every_jobs_level():
    """The figure PPSes explore to the same record — every field of it —
    inline or fanned out, one row per distinct app."""
    from repro.apps.suite import FIGURE_APPS
    from repro.eval.explore import deterministic_report, explore

    space = SearchSpace(apps=FIGURE_APPS, degrees=(1, 2), packets=4)
    inline = deterministic_report(explore(space, jobs=1))
    fanned = deterministic_report(explore(space, jobs=2))
    assert json.dumps(inline) == json.dumps(fanned)
    assert list(inline["apps"]) == list(FIGURE_APPS)
    for app, entry in inline["apps"].items():
        assert [cell["id"] for cell in entry["cells"]] == [
            f"{app}/nn-ring/d{degree}/e0.0625/b12" for degree in (1, 2)]
        assert entry["pick"] is not None


@pytest.mark.parametrize("jobs", [1, 2])
def test_explore_names_the_degree_the_verifier_rejects(monkeypatch, jobs):
    """Every explore cell goes through the supervisor, which verifies it
    once.  A verifier that rejects tx at D = 2 fails that cell loudly —
    a record naming the cell, the finding and a one-liner for that
    degree alone — instead of printing a number for it."""
    import repro.pipeline.supervisor as supervisor_mod
    from repro.eval.explore import explore
    from repro.pipeline.verify import VerifyFinding, VerifyVerdict

    real = supervisor_mod.supervise_partition

    def verifier(result, **kwargs):
        if (result.pps_name, result.degree) == ("tx", 2):
            return VerifyVerdict(
                pps_name=result.pps_name, degree=result.degree,
                findings=[VerifyFinding(check="liveness",
                                        detail="synthetic rejection")])
        return supervisor_mod.verify_partition(result, **kwargs)

    def supervised(*args, **kwargs):
        return real(*args, verifier=verifier, **kwargs)

    monkeypatch.setattr(supervisor_mod, "supervise_partition", supervised)
    report = explore(SearchSpace(apps=("rx", "tx"), degrees=(1, 2),
                                 packets=4), jobs=jobs)
    [failure] = report["failures"]
    assert failure["cell"] == "tx/nn-ring/d2/e0.0625/b12"
    assert "tx x2: REJECTED" in failure["error"]
    assert "[liveness] synthetic rejection" in failure["error"]
    assert failure["repro"].startswith("repro explore --apps tx --degrees 2 ")
    assert [cell["id"] for cell in report["apps"]["tx"]["cells"]] == \
        ["tx/nn-ring/d1/e0.0625/b12"]
