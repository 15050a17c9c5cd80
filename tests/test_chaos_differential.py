"""The ``faults`` family of ``repro fuzz`` on the stream apps: pipelining
stays faithful under seeded faults."""

import pytest

from repro.eval.fuzz import run_fuzz


def _fuzz(app, plans, degrees, packets, seed):
    """One app's fuzz report at one seed."""
    return run_fuzz(1, start_seed=seed, degrees=degrees, packets=packets,
                    programs=(app,), plans=plans)


def test_chaos_smoke_drop_light():
    # Tier-1 sized: one plan, two degrees, a short stream.
    report = _fuzz("ipv4", ("drop-light",), (1, 2), 12, 3)
    assert report.ok, report.render()
    runs = report.runs
    assert [run["degree"] for run in runs] == [1, 2]
    for run in runs:
        assert run["semantics_preserving"]
        assert run["faults"]["drops"] > 0  # the plan actually bit
        assert 0 < run["fed"] < 12


def test_chaos_trap_plan_quarantines_everywhere():
    report = _fuzz("ipv4", ("trap-storm",), (1, 2), 12, 3)
    assert report.ok, report.render()
    runs = report.runs
    assert [run["degree"] for run in runs] == [1, 2]
    for run in runs:
        assert not run["semantics_preserving"]
        assert run["oracle_dead_letters"] >= 1
        assert run["dead_letters"] >= 1
        assert run["traps"] >= 1
    letters = report.dead_letters
    assert letters
    assert {"stage", "cause", "plan", "pipeline_degree", "program"} <= \
        set(letters[0])


@pytest.mark.chaos
def test_chaos_full_matrix():
    # Every builtin plan (the default), degrees {1, 2, 4}.
    report = _fuzz("ipv4", None, (1, 2, 4), 40, 7)
    assert report.ok, report.render()
    runs = report.runs
    assert {"drop-light", "delay-stall", "mixed-loss",
            "trap-storm"} <= {run["plan"] for run in runs}
    for degree in (1, 2, 4):
        assert {run["plan"] for run in runs if run["degree"] == degree} \
            == {run["plan"] for run in runs}
    for run in runs:
        if run["plan"] == "delay-stall":
            assert run["faults"]["delays"] > 0
        if run["plan"] == "trap-storm":
            assert run["dead_letters"] >= 1
    assert any(record["plan"] == "trap-storm"
               for record in report.dead_letters)


@pytest.mark.chaos
@pytest.mark.parametrize("app_name", ["rx", "ip_v6"])
def test_chaos_other_apps_drop_light(app_name):
    report = _fuzz(app_name, ("drop-light",), (1, 2), 16, 5)
    assert report.ok, report.render()
