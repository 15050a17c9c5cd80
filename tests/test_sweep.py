"""The parallel sweep runner (src/repro/eval/sweep.py).

The contract under test:

* ``-j 4`` output is byte-identical to ``-j 1`` once the explicitly
  nondeterministic ``timing`` / ``cache`` fields are stripped,
  regardless of completion order;
* a worker exception or a hard worker crash surfaces as
  :class:`SweepError` — a structured failure, never a hang, and the
  same failure at every ``-j`` level;
* every cell runs at its seed as given, so a fuzz case of a stream app
  reproduces inline under any parallelism;
* the figure PPSes explore to one record at every ``-j`` level, and a
  cell the verifier does not pass fails the sweep naming its degree.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.cache import CompileCache
from repro.errors import TrapError
from repro.eval.explore import SearchSpace
from repro.eval.sweep import (
    SweepError,
    SweepTask,
    explore_tasks,
    fuzz_tasks,
    run_sweep,
)
from repro.runspec import Knobs, RunSpec


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


# -- seeds ------------------------------------------------------------------


def test_fuzz_tasks_carry_the_base_seed_in_sorted_order():
    """Fuzz cases of stream apps: one task per (app, seed, degree), the
    apps sorted, each at the seed as given."""
    tasks = fuzz_tasks(["tx", "rx"], range(7, 8), (1, 2), packets=8)
    assert [task.spec.app for task in tasks] == ["rx", "rx", "tx", "tx"]
    assert [task.spec.seed for task in tasks] == [7, 7, 7, 7]
    assert [task.spec.degrees for task in tasks] == [(1,), (2,)] * 2


# -- deterministic merge ----------------------------------------------------

# Module-level so ProcessPoolExecutor workers can pickle them by name.


def _echo_worker(task: SweepTask) -> dict:
    # Later-submitted tasks finish first: exercises out-of-order
    # completion against the task-order merge.
    time.sleep(0.05 * max(0, 3 - task.spec.seed % 10))
    return {"app": task.spec.app, "seed": task.spec.seed,
            "timing": {"wall_seconds": time.perf_counter()}}


def _failing_worker(task: SweepTask) -> dict:
    if task.spec.app == "bad":
        raise ValueError("synthetic task failure")
    if task.spec.app == "trap":
        raise TrapError("synthetic trap")
    return {"app": task.spec.app}


def _crashing_worker(task: SweepTask) -> dict:
    os._exit(13)  # hard death: no exception, no cleanup


def _tasks(apps):
    return [SweepTask("explore", RunSpec(app, 1, index, (1,)))
            for index, app in enumerate(apps)]


def test_results_come_back_in_task_order_despite_completion_order():
    tasks = _tasks(["a", "b", "c", "d"])
    inline = run_sweep(tasks, jobs=1, worker=_echo_worker)
    fanned = run_sweep(tasks, jobs=4, worker=_echo_worker)
    assert [r["app"] for r in fanned] == ["a", "b", "c", "d"]
    assert without_clock(fanned) == without_clock(inline)


def test_worker_exception_is_a_structured_sweep_error():
    tasks = _tasks(["good", "bad"])
    with pytest.raises(SweepError, match="bad"):
        run_sweep(tasks, jobs=2, worker=_failing_worker)
    with pytest.raises(SweepError, match="bad"):
        run_sweep(tasks, jobs=1, worker=_failing_worker)


def test_sweep_error_carries_seed_args_and_repro_command():
    tasks = _tasks(["good", "bad"])
    for jobs in (1, 2):
        with pytest.raises(SweepError) as excinfo:
            run_sweep(tasks, jobs=jobs, worker=_failing_worker)
        message = str(excinfo.value)
        task = excinfo.value.task
        assert task is tasks[1] or task == tasks[1]
        assert f"seed={tasks[1].spec.seed}" in message  # derived seed
        assert repr(tasks[1]) in message               # full arg tuple
        assert "reproduce:" in message                 # one-liner
        assert tasks[1].repro_command() in message


@pytest.mark.parametrize("app", ["bad", "trap"])
def test_failure_is_the_same_at_every_jobs_level(app):
    """Whatever the worker raised — a toolchain error like TrapError
    included — the exception type, message and keep-going record do not
    depend on ``jobs``."""
    tasks = _tasks(["good", app])
    raised, recorded = [], []
    for jobs in (1, 2):
        with pytest.raises(SweepError, match="reproduce:") as excinfo:
            run_sweep(tasks, jobs=jobs, worker=_failing_worker)
        raised.append((type(excinfo.value), str(excinfo.value),
                       excinfo.value.task))
        recorded.append(run_sweep(tasks, jobs=jobs, worker=_failing_worker,
                                  keep_going=True))
    assert raised[0] == raised[1]
    assert recorded[0] == recorded[1]
    assert f"seed={tasks[1].spec.seed}" in raised[0][1]
    assert recorded[0][1]["failed"] and raised[0][1] == \
        recorded[0][1]["error"]


def test_worker_crash_is_a_sweep_error_not_a_hang():
    tasks = _tasks(["a", "b"])
    with pytest.raises(SweepError, match="reproduce:"):
        run_sweep(tasks, jobs=2, worker=_crashing_worker)


def test_fuzz_app_repro_command_is_a_fuzz_one_liner():
    """A fuzz case of a stream app under named plans reproduces with a
    ``repro fuzz --apps`` one-liner naming the app, seed and plans."""
    [task] = fuzz_tasks(["rx"], range(7, 8), (2,), packets=8,
                        plans=("drop-light", "trap-storm"))
    command = task.repro_command()
    assert command.startswith("repro fuzz --apps rx --seeds 1 "
                              "--start-seed 7 --degrees 2")
    assert "--faults drop-light,trap-storm" in command


def test_every_repro_command_parses_and_round_trips_the_cell():
    """Whatever the kind, the one-liner is a real command line: it parses
    and names the failing cell's packets, degrees and (where the command
    takes one) seed — not a wider sweep than the cell that failed — and
    an explore cell's one-liner names its three knob values."""
    import shlex

    from repro.cli import build_parser
    from repro.eval.sweep import _SCORERS
    from repro.machine.costs import SCRATCH_RING

    parser = build_parser()
    knobs = Knobs(costs=SCRATCH_RING, epsilon=0.125,
                  max_block_instructions=8)
    seed_attribute = {"fuzz": "start_seed"}
    for kind in _SCORERS:
        degrees = (3,) if kind == "fuzz" else (2, 3)
        task = SweepTask(
            kind,
            RunSpec("rx", 8, 1234, degrees,
                    knobs if kind == "explore" else Knobs()),
            plans=("drop-light",) if kind == "fuzz" else None)
        program, *argv = shlex.split(task.repro_command(), comments=True)
        assert program == "repro"
        args = parser.parse_args(argv)
        assert args.packets == 8, kind
        assert tuple(map(int, args.degrees.split(","))) == degrees, kind
        assert getattr(args, seed_attribute.get(kind, "seed")) == 1234, kind
        assert args.apps == ["rx"], kind
        if kind == "fuzz":
            assert (args.seeds, args.faults) == (1, "drop-light")
        if kind == "explore":
            assert (args.rings, float(args.epsilons),
                    int(args.max_block_instructions)) == \
                ("scratch-ring", 0.125, 8)
            assert task.describe() == \
                "explore rx D=2,3 scratch-ring/e0.125/b8"


# -- keep_going ---------------------------------------------------------------


def test_keep_going_records_failures_and_keeps_sibling_results():
    tasks = _tasks(["good", "bad", "also-good"])
    for jobs in (1, 2):
        results = run_sweep(tasks, jobs=jobs, worker=_failing_worker,
                            keep_going=True)
        assert [r.get("failed", False) for r in results] == \
            [False, True, False]
        assert results[0]["app"] == "good"
        assert results[2]["app"] == "also-good"
        record = results[1]
        assert record["ok"] is False
        assert record["seed"] == tasks[1].spec.seed
        assert record["task"] == tasks[1].describe()
        assert record["repro"] == tasks[1].repro_command()
        assert "synthetic task failure" in record["error"]


def test_keep_going_default_stays_fail_fast():
    tasks = _tasks(["good", "bad"])
    with pytest.raises(SweepError):
        run_sweep(tasks, jobs=1, worker=_failing_worker)


def test_unknown_task_kind_rejected():
    task = SweepTask("nonsense", RunSpec("x", 1, 0, (1,)))
    with pytest.raises(SweepError, match="nonsense"):
        run_sweep([task], jobs=1)


def test_unknown_chaos_plan_rejected():
    task = SweepTask("fuzz", RunSpec("rx", 4, 7, (1,)),
                     plans=("no-such-plan",))
    with pytest.raises(SweepError, match="no-such-plan"):
        run_sweep([task], jobs=1)


# -- real cells: -j 4 byte-identical to -j 1 --------------------------------


def test_bench_sweep_parallel_identical_to_inline(tmp_path):
    tasks = explore_tasks(SearchSpace(apps=("rx", "tx"), degrees=(1, 2),
                                      packets=4))
    inline = run_sweep(tasks, jobs=1,
                       cache=CompileCache(tmp_path / "inline-cache"))
    fanned = run_sweep(tasks, jobs=4,
                       cache=CompileCache(tmp_path / "fanned-cache"))
    # Everything but the clock agrees, partition work included.
    assert without_clock(fanned) == without_clock(inline)
    for result in inline:
        assert [cell["config"]["degree"] for cell in result["cells"]] == \
            [1, 2]
        assert result["cells"][1]["metrics"]["pr_work"] > 0


def test_chaos_sweep_parallel_identical_to_inline():
    tasks = fuzz_tasks(["rx"], range(7, 8), (1, 2), packets=8,
                       plans=("drop-light",))
    inline = run_sweep(tasks, jobs=1)
    fanned = run_sweep(tasks, jobs=2)
    assert without_clock(fanned) == without_clock(inline)
    assert [result["failure"] for result in inline] == [None, None]
    assert [result["seed"] for result in inline] == [7, 7]
    assert [[run["plan"] for run in result["runs"]]
            for result in inline] == [["drop-light"]] * 2


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
    once.  A verifier that rejects tx at D = 2 fails the sweep loudly,
    naming the cell, the finding and a one-liner for that degree alone,
    instead of printing a number for it."""
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
    with pytest.raises(SweepError) as excinfo:
        explore(SearchSpace(apps=("rx", "tx"), degrees=(1, 2), packets=4),
                jobs=jobs)
    message = str(excinfo.value)
    assert "tx x2: REJECTED" in message
    assert "[liveness] synthetic rejection" in message
    assert "repro explore --apps tx --degrees 2 " in message
