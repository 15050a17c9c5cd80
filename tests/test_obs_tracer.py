"""Unit tests for the observability core (repro.obs)."""

import json

import pytest

from repro.obs import (
    TID_COMPILE,
    TID_RUNTIME,
    Tracer,
    active,
    runtime_report,
    tracing,
)
from repro.obs import tracer as tracer_mod
from repro.runtime.state import MachineState, Pipe, WakeHub


# -- hooks and installation ---------------------------------------------------


def test_disabled_hooks_are_noops():
    assert active() is None
    span = tracer_mod.span("anything", cat="x", arg=1)
    assert span is tracer_mod._NULL_SPAN  # the shared singleton, no allocation
    with span:
        pass
    tracer_mod.instant("nothing", cat="x")
    tracer_mod.counter("nothing", {"v": 1})
    assert active() is None


def test_tracing_installs_and_restores():
    assert active() is None
    with tracing() as tracer:
        assert active() is tracer
        with tracing() as inner:
            assert active() is inner
        assert active() is tracer
    assert active() is None


def test_tracing_disabled_installs_nothing():
    with tracing(enabled=False) as tracer:
        assert tracer is None
        assert active() is None
        assert tracer_mod.span("x") is tracer_mod._NULL_SPAN


def test_tracing_restores_on_exception():
    with pytest.raises(RuntimeError):
        with tracing():
            raise RuntimeError("boom")
    assert active() is None


# -- event shapes -------------------------------------------------------------


def test_span_event_shape():
    tracer = Tracer()
    with tracer.span("work", cat="compile", tid=TID_COMPILE, stage=2):
        pass
    (event,) = tracer.events
    assert event["name"] == "work"
    assert event["cat"] == "compile"
    assert event["ph"] == "X"
    assert event["tid"] == TID_COMPILE
    assert event["args"] == {"stage": 2}
    assert event["dur"] >= 0
    assert event["ts"] >= 0


def test_instant_and_counter_shapes():
    tracer = Tracer()
    tracer.instant("tick", cat="flownet", iteration=3)
    tracer.counter("pipe q", {"depth": 4}, tid=TID_RUNTIME)
    instant, counter = tracer.events
    assert instant["ph"] == "i" and instant["s"] == "t"
    assert instant["args"] == {"iteration": 3}
    assert counter["ph"] == "C"
    assert counter["tid"] == TID_RUNTIME
    assert counter["args"] == {"depth": 4}


def test_module_hooks_record_on_installed_tracer():
    with tracing() as tracer:
        with tracer_mod.span("outer", cat="compile"):
            tracer_mod.instant("inner", cat="compile")
    names = [event["name"] for event in tracer.events]
    assert names == ["inner", "outer"]  # span closes after its instant


def test_to_chrome_sorted_with_thread_names(tmp_path):
    tracer = Tracer()
    tracer.instant("late")
    with tracer.span("early"):  # opens before "late"... but closes after;
        pass                    # sorting is by ts, so "early" may follow
    doc = tracer.to_chrome()
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    metadata = [event for event in events if event["ph"] == "M"]
    assert {meta["args"]["name"] for meta in metadata} == {"compile", "runtime"}
    real = [event for event in events if event["ph"] != "M"]
    assert [event["ts"] for event in real] == sorted(e["ts"] for e in real)

    path = tmp_path / "trace.json"
    tracer.write(str(path))
    assert json.loads(path.read_text()) == doc


# -- runtime counters and report ---------------------------------------------


def test_pipe_counters_track_traffic():
    pipe = Pipe("q")
    pipe.send(1)
    pipe.send(2)
    pipe.recv()
    pipe.send(3)
    assert pipe.sent == 3
    assert pipe.received == 1
    assert pipe.high_water == 2


def test_wake_hub_counters():
    hub = WakeHub()
    hub.notify(("recv", "q"))          # nobody parked: not counted
    hub.park(("recv", "q"), "stage1")
    hub.park(("recv", "q"), "stage2")
    woken = []
    hub.attach(woken.append)
    hub.notify(("recv", "q"))
    hub.detach()
    assert hub.parks == 2
    assert hub.notifies == 1
    assert hub.wakes == 2
    assert sorted(woken) == ["stage1", "stage2"]


def test_runtime_report_skips_untouched_pipes():
    from repro.runtime.interp import InterpStats

    class _Module:
        pipes = {"used": None, "idle": None}
        regions = {}
        devices = {}
        sequencers = {}

    state = MachineState.__new__(MachineState)
    state.pipes = {"used": Pipe("used"), "idle": Pipe("idle")}
    state.wake_hub = WakeHub()
    state.pipes["used"].send(5)
    stats = InterpStats()
    stats.instructions = 10
    stats.weight = 20
    report = runtime_report({"main": stats}, state)
    assert [pipe.name for pipe in report.pipes] == ["used"]
    assert report.stages[0].name == "main"
    assert report.stages[0].dispatches is None  # no function was named
    payload = report.as_dict()
    assert payload["wake_hub"] == {"parks": 0, "notifies": 0, "wakes": 0,
                                   "stranded": 0}
    assert payload["pipes"][0]["sent"] == 1
    text = report.render()
    assert "runtime profile:" in text
    assert "used" in text and "idle" not in text


def test_runtime_report_derives_dispatches_from_region_roots():
    from repro.runtime import run_sequential
    from repro.runtime.compile import compile_function

    from helpers import STANDARD_PPS, compile_module, standard_setup

    module = compile_module(STANDARD_PPS)
    function = module.pps("worker")
    state = MachineState(module)
    standard_setup(state, 10)
    stats = run_sequential(function, state, iterations=10)
    report = runtime_report({"worker": stats}, state, functions=[function])
    roots = set(compile_function(function).blocks)
    assert roots < set(stats.block_counts)  # most blocks ran inline
    dispatches = sum(stats.block_counts[root] for root in roots)
    assert report.stages[0].dispatches == dispatches
    assert report.as_dict()["stages"][0]["dispatches"] == dispatches
    assert 10 <= dispatches < sum(stats.block_counts.values())
    assert f"{dispatches:>11}" in report.render().splitlines()[2]
