"""The deadlock/livelock watchdog every ``run_group`` builds:
adversarial pipelines and clean runs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.cfg import find_pps_loop
from repro.errors import DeadlockError
from repro.pipeline.transform import pipeline_pps
from repro.runtime.interp import BURST, Interpreter, InterpStats
from repro.runtime.scheduler import run_group, run_pipeline, run_sequential
from repro.runtime.state import MachineState
from repro.runtime.watchdog import Watchdog
from repro.testing import random_pps_source

from helpers import STANDARD_PPS, compile_module, standard_setup


def _interp(module, pps_name, state, **kwargs):
    function = module.pps(pps_name)
    loop = find_pps_loop(function)
    return Interpreter(function, state, loop_start=loop.header, **kwargs)


# -- adversarial hand-wired pipelines -----------------------------------------


def _pipe_wait_cycle() -> dict:
    """alpha waits on beta's pipe, beta on alpha's: nothing ever moves."""
    module = compile_module("""
        pipe a2b; pipe b2a;
        pps alpha { for (;;) { int v = pipe_recv(b2a);
                               pipe_send(a2b, v + 1); } }
        pps beta  { for (;;) { int v = pipe_recv(a2b);
                               pipe_send(b2a, v + 1); } }
    """)
    state = MachineState(module)
    return {"alpha": _interp(module, "alpha", state),
            "beta": _interp(module, "beta", state)}


def test_every_run_group_is_watched():
    """No run opts out: ``run_group`` takes no watchdog to turn off, and
    given nothing but the interpreters it judges the cycle a deadlock
    instead of returning a short run."""
    interpreters = _pipe_wait_cycle()
    with pytest.raises(TypeError):
        run_group(interpreters, watchdog=None)
    with pytest.raises(DeadlockError) as excinfo:
        run_group(interpreters)
    assert excinfo.value.kind == "deadlock"


def test_cyclic_pipe_wait_is_a_deadlock():
    interpreters = _pipe_wait_cycle()
    with pytest.raises(DeadlockError) as excinfo:
        run_group(interpreters)
    exc = excinfo.value
    assert exc.kind == "deadlock"
    assert exc.parked == {"alpha": ("recv", "b2a"),
                          "beta": ("recv", "a2b")}
    assert set(exc.offenders) == {"alpha", "beta"}
    assert "wait cycle" in str(exc)
    assert exc.report is not None  # WakeHub/Pipe counters ride along
    assert exc.report.wake_parks == 2


def test_bounded_capacity_cycle_is_a_deadlock():
    # The producer fills the capacity-1 data pipe and blocks before ever
    # writing the trigger; the consumer insists on the trigger first.
    module = compile_module("""
        pipe in_q; pipe data; pipe trigger;
        pps producer { for (;;) { int v = pipe_recv(in_q);
                                  pipe_send(data, v);
                                  pipe_send(data, v + 1);
                                  pipe_send(trigger, v); } }
        pps consumer { for (;;) { int t = pipe_recv(trigger);
                                  int a = pipe_recv(data);
                                  int b = pipe_recv(data);
                                  trace(1, t + a + b); } }
    """)
    state = MachineState(module)
    for pipe in state.pipes.values():
        pipe.capacity = 1
    state.feed_pipe("in_q", [10, 20])
    interpreters = {
        "producer": _interp(module, "producer", state, max_iterations=2),
        "consumer": _interp(module, "consumer", state),
    }
    with pytest.raises(DeadlockError) as excinfo:
        run_group(interpreters)
    exc = excinfo.value
    assert exc.parked["producer"] == ("send", "data")
    assert exc.parked["consumer"] == ("recv", "trigger")
    assert set(exc.offenders) == {"producer", "consumer"}


def test_never_consuming_stage_deadlocks_its_upstream():
    # The lazy stage statically reads `data` (so it is not a sink) but
    # the branch never fires, so the producer wedges on the full pipe.
    module = compile_module("""
        pipe in_q; pipe data; pipe gate;
        pps producer { for (;;) { int v = pipe_recv(in_q);
                                  pipe_send(data, v);
                                  pipe_send(gate, v); } }
        pps lazy { for (;;) { int t = pipe_recv(gate);
                              if (t < 0) { trace(2, pipe_recv(data)); }
                              trace(2, t); } }
    """)
    state = MachineState(module)
    for pipe in state.pipes.values():
        pipe.capacity = 1
    state.feed_pipe("in_q", [1, 2, 3])
    interpreters = {
        "producer": _interp(module, "producer", state, max_iterations=3),
        "lazy": _interp(module, "lazy", state),
    }
    with pytest.raises(DeadlockError) as excinfo:
        run_group(interpreters)
    exc = excinfo.value
    assert set(exc.offenders) == {"producer", "lazy"}
    assert exc.parked["producer"] == ("send", "data")


def test_lost_wakeup_is_flagged_even_with_messages_queued():
    module = compile_module(STANDARD_PPS)
    state = MachineState(module)
    state.feed_pipe("in_q", [1, 2, 3])
    interp = _interp(module, "worker", state)
    # Simulate a scheduler bug: parked on a pipe that has messages.
    interp.wait_key = ("recv", "in_q")
    with pytest.raises(DeadlockError, match="lost wakeup"):
        Watchdog().check_quiescence({"worker": interp})


def test_sequencer_wait_is_always_an_offender():
    module = compile_module(STANDARD_PPS)
    state = MachineState(module)
    interp = _interp(module, "worker", state)
    interp.wait_key = ("seq", "tbl")
    with pytest.raises(DeadlockError, match="sequencer"):
        Watchdog().check_quiescence({"worker": interp})


# -- normal quiescence must NOT trip ------------------------------------------


def test_drained_pipeline_cascade_is_normal():
    module = compile_module(STANDARD_PPS)
    result = pipeline_pps(module, "worker", 3)
    state = MachineState(module)
    iterations = standard_setup(state)
    run_pipeline(result.stages, state, iterations=iterations)
    # Downstream stages end parked on their drained input pipes; the
    # done-fixpoint must cascade past the finished stage 1.
    assert state.pipe("out_q").sent == iterations


def test_sink_backpressure_is_normal():
    module = compile_module("""
        pipe mid; pipe in_q;
        pps producer { for (;;) { int v = pipe_recv(in_q);
                                  pipe_send(mid, v); } }
    """)
    state = MachineState(module)
    for pipe in state.pipes.values():
        pipe.capacity = 2
    state.feed_pipe("in_q", [1, 2, 3, 4, 5])
    run_sequential(module.pps("producer"), state, iterations=5)
    assert len(state.pipe("mid").queue) == 2  # quiesced full, no error


def test_exhausted_device_input_is_normal():
    module = compile_module("""
        pps rxlike {
            for (;;) {
                int e = rbuf_next(0);
                int s = rbuf_status(e);
                rbuf_free(e);
                trace(1, s);
            }
        }
    """)
    state = MachineState(module)
    state.devices.feed_packet(0, b"ab")
    interpreters = {"rxlike": _interp(module, "rxlike", state)}
    run_group(interpreters)  # parks on idle port


def test_zero_packet_run_is_classified_as_end_of_stream():
    # Zero traffic: every stage parks on a recv immediately, before a
    # single packet moves.  The host-fed in_q has no in-run writer, so
    # the done-fixpoint must classify stage 1 as end-of-stream and
    # cascade down the (vacuously) drained pipeline — not a deadlock.
    module = compile_module(STANDARD_PPS)
    state = MachineState(module)
    state.load_region("tbl", [(i * 7 + 3) % 50 for i in range(64)])
    run_sequential(module.pps("worker"), state, iterations=5)
    assert state.pipe("out_q").sent == 0

    result = pipeline_pps(module, "worker", 3)
    state2 = MachineState(module)
    state2.load_region("tbl", [(i * 7 + 3) % 50 for i in range(64)])
    run_pipeline(result.stages, state2, iterations=5)
    assert state2.pipe("out_q").sent == 0


def test_detach_during_active_quarantine_reconciles_cleanly():
    # A mid-pipeline stage traps while quarantine is active: its
    # generator is rebuilt while sibling stages sit parked on the wake
    # hub.  The teardown detach must reconcile the drained wait sets
    # against the scheduler's parked set (no lost-wakeup TrapError) and
    # tally the end-of-stream waiters as stranded.
    from repro.runtime.faults import FaultInjector, FaultPlan

    module = compile_module(STANDARD_PPS)
    plan = FaultPlan.from_dict({"stages": {"*s2of3": {"trap_at": 40}}})
    result = pipeline_pps(module, "worker", 3)
    state = MachineState(module)
    FaultInjector(plan).arm(state)
    iterations = standard_setup(state)
    run = run_pipeline(result.stages, state, iterations=iterations,
                       isolate_traps=True)
    assert sum(stats.traps for stats in run.stats.values()) >= 1
    assert state.dead_letters
    hub = state.wake_hub
    # Teardown already detached: wait sets empty, strands tallied.
    assert hub.parked() == {}
    assert hub.stranded >= 1
    assert hub.detach() == {}  # idempotent on a drained hub
    # The quarantined iterations are the only losses.
    assert state.pipe("out_q").sent >= iterations - len(state.dead_letters)


# -- livelock -----------------------------------------------------------------


class _SpinningInterp:
    """An interpreter double that yields forever without retiring
    instructions — the shape of a genuine scheduler livelock."""

    def __init__(self, state):
        self.state = state
        self.stats = InterpStats()
        self.finished = False
        self.wait_key = None
        self.resumes = 0

    def run(self):
        while True:
            self.resumes += 1
            yield


def test_livelock_raises_within_the_quantum(monkeypatch):
    monkeypatch.setattr("repro.runtime.watchdog.QUANTUM", 50)
    module = compile_module(STANDARD_PPS)
    state = MachineState(module)
    spinner = _SpinningInterp(state)
    with pytest.raises(DeadlockError) as excinfo:
        run_group({"spinner": spinner})
    assert excinfo.value.kind == "livelock"
    assert "no instruction progress in 50 scheduler steps" \
        in str(excinfo.value)
    # The first check records the baseline, the second finds no progress.
    assert 50 < spinner.resumes < 2 * 50


def test_spinner_beside_a_drained_stage_is_a_livelock(monkeypatch):
    """Progress is summed over the group: the check stays quiet while
    the real PPS retires instructions and fires once only the spinner
    is left stepping."""
    monkeypatch.setattr("repro.runtime.watchdog.QUANTUM", 8)
    module = compile_module(STANDARD_PPS)
    state = MachineState(module)
    # 20 bursts of the worker, interleaved with the spinner: 5 quanta.
    iterations = standard_setup(state, count=20 * BURST)
    worker = _interp(module, "worker", state, max_iterations=iterations)
    with pytest.raises(DeadlockError) as excinfo:
        run_group({"worker": worker, "spinner": _SpinningInterp(state)})
    assert excinfo.value.kind == "livelock"
    assert worker.finished
    assert state.pipe("out_q").sent == iterations


def test_progressing_run_never_trips_the_livelock_check(monkeypatch):
    # Tiny quantum: every check must still observe fresh progress.
    monkeypatch.setattr("repro.runtime.watchdog.QUANTUM", 5)
    module = compile_module(STANDARD_PPS)
    state = MachineState(module)
    iterations = standard_setup(state)
    run_sequential(module.pps("worker"), state, iterations=iterations)


# -- property: fault-free seeded runs never trip ------------------------------


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=40))
def test_fault_free_runs_never_trip_the_watchdog(seed):
    module = compile_module(random_pps_source(seed))
    state = MachineState(module)
    for table in range(2):
        if f"tab{table}" in state.regions:
            state.load_region(f"tab{table}",
                              [((i * 13 + table) % 97) for i in range(32)])
    if "flow_state" in state.regions:
        state.load_region("flow_state", [0] * 16)
    state.feed_pipe("in_q", [((i * 31 + seed) % 251) for i in range(20)])
    run_sequential(module.pps("generated"), state, iterations=20)

    result = pipeline_pps(module, "generated", 2)
    state2 = MachineState(module)
    for table in range(2):
        if f"tab{table}" in state2.regions:
            state2.load_region(f"tab{table}",
                               [((i * 13 + table) % 97) for i in range(32)])
    if "flow_state" in state2.regions:
        state2.load_region("flow_state", [0] * 16)
    state2.feed_pipe("in_q", [((i * 31 + seed) % 251) for i in range(20)])
    run_pipeline(result.stages, state2, iterations=20)
