"""The parallel sweep runner (src/repro/eval/sweep.py).

The contract under test:

* ``-j 4`` output is byte-identical to ``-j 1`` once the explicitly
  nondeterministic ``timing`` / ``cache`` fields are stripped
  (:func:`deterministic_view`), regardless of completion order;
* a worker exception or a hard worker crash surfaces as
  :class:`SweepError` — a structured failure, never a hang, and the
  same failure at every ``-j`` level;
* per-task seeds derive deterministically from the base seed and the
  task identity, so chaos sweeps reproduce under any parallelism.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.cache import CompileCache
from repro.errors import TrapError
from repro.eval.sweep import (
    SweepError,
    SweepTask,
    app_tasks,
    chaos_tasks,
    derive_seed,
    deterministic_view,
    run_sweep,
)
from repro.runspec import Knobs, RunSpec


# -- seeds ------------------------------------------------------------------


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, "chaos", "rx") == derive_seed(7, "chaos", "rx")
    assert derive_seed(7, "chaos", "rx") != derive_seed(7, "chaos", "tx")
    assert derive_seed(7, "chaos", "rx") != derive_seed(8, "chaos", "rx")
    assert 0 <= derive_seed(7, "chaos", "rx") < 2**32


def test_chaos_tasks_thread_derived_seeds_in_sorted_order():
    tasks = chaos_tasks(["tx", "rx"], (1, 2), packets=8, seed=7)
    assert [task.spec.app for task in tasks] == ["rx", "tx"]
    assert tasks[0].spec.seed == derive_seed(7, "chaos", "rx")
    assert tasks[1].spec.seed == derive_seed(7, "chaos", "tx")


def test_app_tasks_preserve_app_order():
    tasks = app_tasks("figures", ["tx", "rx"], [1, 2], packets=8, seed=7)
    assert [task.spec.app for task in tasks] == ["tx", "rx"]
    assert all(task.kind == "figures" and task.spec.degrees == (1, 2)
               for task in tasks)


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
    return [SweepTask("figures", RunSpec(app, 1, index, (1,)))
            for index, app in enumerate(apps)]


def test_results_come_back_in_task_order_despite_completion_order():
    tasks = _tasks(["a", "b", "c", "d"])
    inline = run_sweep(tasks, jobs=1, worker=_echo_worker)
    fanned = run_sweep(tasks, jobs=4, worker=_echo_worker)
    assert [r["app"] for r in fanned] == ["a", "b", "c", "d"]
    assert json.dumps(deterministic_view(fanned), sort_keys=True) == \
        json.dumps(deterministic_view(inline), sort_keys=True)


def test_deterministic_view_strips_timing_and_cache():
    view = deterministic_view([{"app": "x", "timing": {"wall_seconds": 1},
                                "cache": {"hits": 3}, "ok": True}])
    assert view == [{"app": "x", "ok": True}]


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


def test_chaos_repro_command_is_a_chaos_one_liner():
    [task] = chaos_tasks(["rx"], (1, 2), packets=8, seed=7,
                         plans=("drop-light",))
    command = task.repro_command()
    assert command.startswith("repro chaos --app rx --degrees 1,2")
    assert f"--seed {task.spec.seed}" in command
    assert "--plans drop-light" in command


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
    seed_attribute = {"fuzz": "start_seed", "figures": None}
    for kind in _SCORERS:
        degrees = (3,) if kind == "fuzz" else (2, 3)
        task = SweepTask(
            kind,
            RunSpec("rx", 8, 1234, degrees,
                    knobs if kind == "explore" else Knobs()),
            plans=("drop-light",) if kind == "chaos" else None)
        program, *argv = shlex.split(task.repro_command(), comments=True)
        assert program == "repro"
        args = parser.parse_args(argv)
        assert args.packets == 8, kind
        assert tuple(map(int, args.degrees.split(","))) == degrees, kind
        attribute = seed_attribute.get(kind, "seed")
        if attribute is not None:
            assert getattr(args, attribute) == 1234, kind
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
    task = SweepTask("chaos", RunSpec("rx", 4, 7, (1,)),
                     plans=("no-such-plan",))
    with pytest.raises(SweepError, match="no-such-plan"):
        run_sweep([task], jobs=1)


# -- real cells: -j 4 byte-identical to -j 1 --------------------------------


def test_bench_sweep_parallel_identical_to_inline(tmp_path):
    tasks = app_tasks("figures", ["rx", "tx"], [1, 2], packets=4, seed=7)
    inline = run_sweep(tasks, jobs=1,
                       cache=CompileCache(tmp_path / "inline-cache"))
    fanned = run_sweep(tasks, jobs=4,
                       cache=CompileCache(tmp_path / "fanned-cache"))
    assert json.dumps(deterministic_view(fanned), sort_keys=True) == \
        json.dumps(deterministic_view(inline), sort_keys=True)
    for result in inline:
        assert set(result["speedup_by_degree"]) == {1, 2}


def test_chaos_sweep_parallel_identical_to_inline(tmp_path):
    tasks = chaos_tasks(["rx"], (1, 2), packets=8, seed=7,
                        plans=("drop-light",))
    cache = CompileCache(tmp_path / "cache")
    inline = run_sweep(tasks, jobs=1, cache=cache)
    fanned = run_sweep(tasks, jobs=2, cache=cache)
    assert json.dumps(deterministic_view(fanned), sort_keys=True) == \
        json.dumps(deterministic_view(inline), sort_keys=True)
    assert inline[0]["ok"] is True
    assert inline[0]["seed"] == derive_seed(7, "chaos", "rx")


def test_figures_record_is_one_path_at_every_jobs_level():
    """``repro figures``: the same record — every field of it — and each
    distinct app partitioned once, whether inline or fanned out."""
    from repro.eval.experiments import figures_record

    inline = figures_record(packets=4, degrees=[1, 2], jobs=1)
    fanned = figures_record(packets=4, degrees=[1, 2], jobs=2)
    assert json.dumps(inline) == json.dumps(fanned)
    assert list(inline) == ["config", "partition_breakdown", "figures",
                            "headline_speedup_degree2"]
    assert inline["config"] == {"packets": 4, "seed": 7, "degrees": [1, 2]}
    assert sorted(inline["partition_breakdown"]) == \
        ["ip_v4", "ip_v6", "ipv4", "qm", "rx", "scheduler", "tx"]
    assert set(inline["partition_breakdown"]["rx"]["2"]) == \
        {"cut_iterations", "pr_work"}
    for metric in ("speedup_by_degree", "overhead_by_degree"):
        assert set(inline["figures"]["figure20"][metric]) == \
            {"rx", "ip_v4", "ip_v6", "tx"}


# -- the partition planner ---------------------------------------------------


def test_plan_partitions_parallel_matches_serial(tmp_path):
    from repro.eval.sweep import plan_partitions

    serial_cache = CompileCache(tmp_path / "serial")
    parallel_cache = CompileCache(tmp_path / "parallel")
    serial = plan_partitions(["rx", "tx"], [2, 3], packets=8, seed=7,
                             jobs=1, cache=serial_cache)
    parallel = plan_partitions(["rx", "tx"], [2, 3], packets=8, seed=7,
                               jobs=2, cache=parallel_cache)
    assert deterministic_view(serial) == deterministic_view(parallel)
    # The identity-bearing part of the breakdown (everything but wall
    # seconds) must agree too: same cuts, same work, under any -j.
    def work_view(results):
        return [{degree: {k: v for k, v in cell.items() if k != "seconds"}
                 for degree, cell in entry["partition_breakdown"].items()}
                for entry in results]
    assert work_view(serial) == work_view(parallel)


def test_plan_partitions_prewarms_the_compile_cache(tmp_path):
    from repro.apps.suite import build_app
    from repro.eval.metrics import partition_app
    from repro.eval.sweep import plan_partitions

    cache = CompileCache(tmp_path / "cache")
    plan_partitions(["rx"], [2, 3], packets=8, seed=7, jobs=2, cache=cache)
    assert cache.counters()["stores"] > 0
    # A cold consumer following the plan gets pure hits.
    app = build_app("rx", packets=8, seed=7)
    before = cache.counters()["misses"]
    partition_app(app, [2, 3], cache=cache)
    assert cache.counters()["misses"] == before
    assert cache.counters()["hits"] >= 2
