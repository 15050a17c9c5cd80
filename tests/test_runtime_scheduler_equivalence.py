"""Tests for the cooperative scheduler and the equivalence checker."""

import pytest

from repro.pipeline.transform import pipeline_pps
from repro.runtime import (
    MachineState,
    assert_equivalent,
    compare,
    observe,
    run_pipeline,
    run_sequential,
)

from helpers import STANDARD_PPS, compile_module, standard_setup


def test_two_communicating_ppses_run_together():
    module = compile_module("""
        pipe mid;
        pipe out_q;
        pipe in_q;
        pps producer { for (;;) { int v = pipe_recv(in_q);
                                  pipe_send(mid, v * 2); } }
        pps consumer { for (;;) { int v = pipe_recv(mid);
                                  pipe_send(out_q, v + 1); } }
    """)
    from repro.analysis.cfg import find_pps_loop
    from repro.runtime.interp import Interpreter
    from repro.runtime.scheduler import run_group

    state = MachineState(module)
    state.feed_pipe("in_q", [1, 2, 3])
    interps = {}
    for name in ("producer", "consumer"):
        function = module.pps(name)
        loop = find_pps_loop(function)
        bound = 3 if name == "producer" else None
        interps[name] = Interpreter(function, state, loop_start=loop.header,
                                    max_iterations=bound)
    run_group(interps)
    assert list(state.pipe("out_q").queue) == [3, 5, 7]


def test_bounded_pipe_backpressure():
    module = compile_module("""
        pipe mid;
        pipe in_q;
        pps producer { for (;;) { int v = pipe_recv(in_q);
                                  pipe_send(mid, v); } }
    """)
    state = MachineState(module)
    for pipe in state.pipes.values():
        pipe.capacity = 2
    state.feed_pipe("in_q", [1, 2, 3, 4, 5])
    run_sequential(module.pps("producer"), state, iterations=5)
    # mid is full at 2; the producer blocks and the run quiesces.
    assert len(state.pipe("mid").queue) == 2
    assert len(state.pipe("in_q").queue) == 5 - 2 - 1  # one in flight


def test_observation_captures_all_channels():
    module = compile_module(STANDARD_PPS)
    state = MachineState(module)
    standard_setup(state, 10)
    run_sequential(module.pps("worker"), state, iterations=10)
    snapshot = observe(state)
    assert snapshot.traces
    assert "out_q" in snapshot.pipes
    assert "in_q" in snapshot.pipes


def test_internal_stage_pipes_excluded_from_observation():
    module = compile_module(STANDARD_PPS)
    result = pipeline_pps(module, "worker", 3)
    state = MachineState(module)
    standard_setup(state, 10)
    run_pipeline(result.stages, state, iterations=10)
    snapshot = observe(state)
    assert not any(".xfer" in name for name in snapshot.pipes)


def test_compare_reports_mismatches():
    module = compile_module(STANDARD_PPS)

    def run(count):
        state = MachineState(module)
        standard_setup(state, count)
        run_sequential(module.pps("worker"), state, iterations=count)
        return observe(state)

    same = compare(run(8), run(8))
    assert same == []
    different = compare(run(8), run(9))
    assert different
    with pytest.raises(AssertionError, match="observations differ"):
        assert_equivalent(run(8), run(9))


def test_mismatch_messages_are_readable():
    module = compile_module(STANDARD_PPS)
    state_a = MachineState(module)
    standard_setup(state_a, 5)
    run_sequential(module.pps("worker"), state_a, iterations=5)
    state_b = MachineState(module)
    standard_setup(state_b, 5)
    run_sequential(module.pps("worker"), state_b, iterations=5)
    state_b.trace(1, 999)  # inject a divergence
    mismatches = compare(observe(state_a), observe(state_b))
    assert any(m.kind == "trace" for m in mismatches)
    assert "trace" in str(mismatches[0])
