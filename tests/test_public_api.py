"""Tests for the top-level package API (the README quickstart contract)."""

import pytest

import repro


def test_version_and_exports():
    assert repro.__version__
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_quickstart_roundtrip():
    module = repro.compile_module('''
        pipe in_q;
        pipe out_q;
        pps double {
            for (;;) {
                int x = pipe_recv(in_q);
                pipe_send(out_q, x * 2);
            }
        }
    ''')
    result = repro.pipeline_pps(module, "double", degree=2)
    state = repro.MachineState(module)
    state.feed_pipe("in_q", [1, 2, 3])
    repro.run_pipeline(result.stages, state, iterations=3)
    assert list(state.pipe("out_q").queue) == [2, 4, 6]


def test_compile_module_optimize_flag():
    source = "pps p { for (;;) { trace(1, 2 + 3); } }"
    optimized = repro.compile_module(source)
    plain = repro.compile_module(source, optimize=False)
    assert optimized.pps("p").weight() <= plain.pps("p").weight()


def test_observe_and_compare_api():
    module = repro.compile_module("""
        pipe q;
        pps p { for (;;) { trace(1, pipe_recv(q)); } }
    """)
    state = repro.MachineState(module)
    state.feed_pipe("q", [1])
    repro.run_sequential(module.pps("p"), state, iterations=1)
    snapshot = repro.observe(state)
    assert repro.compare(snapshot, snapshot) == []
    repro.assert_equivalent(snapshot, snapshot)


def test_pipeline_error_is_exported():
    module = repro.compile_module("pps p { for (;;) { trace(1, 0); } }")
    with pytest.raises(repro.PipelineError):
        repro.pipeline_pps(module, "missing", 2)


def test_strategies_and_cost_models_available():
    module = repro.compile_module("""
        pipe q;
        pps p { for (;;) { int v = pipe_recv(q); trace(1, v); trace(2, v+1); } }
    """)
    for strategy in repro.Strategy:
        result = repro.pipeline_pps(
            module, "p", 2,
            knobs=repro.Knobs(strategy=strategy, costs=repro.SCRATCH_RING))
        assert len(result.stages) == 2
