"""Shared helpers for the test-suite."""

from __future__ import annotations

from repro.ir.function import Module
from repro.ir.inline import inline_module
from repro.ir.lowering import lower_program
from repro.ir.optimize import optimize_module
from repro.lang import compile_source
from repro.pipeline.liveset import Strategy
from repro.pipeline.transform import PipelineResult, pipeline_pps
from repro.runspec import Knobs
from repro.runtime.equivalence import assert_equivalent, observe
from repro.runtime.scheduler import run_pipeline, run_sequential
from repro.runtime.state import MachineState


def compile_module(source: str, *, optimize: bool = False) -> Module:
    """Compile PPS-C to an inlined module (unoptimized by default so
    tests see the code shape they wrote)."""
    module = lower_program(compile_source(source))
    inline_module(module)
    if optimize:
        optimize_module(module)
    return module


def check_pipeline_equivalence(module: Module, pps_name: str, degrees,
                               setup, iterations: int,
                               strategies=(Strategy.PACKED,),
                               **transform_kwargs) -> list[PipelineResult]:
    """Pipeline ``pps_name`` at each degree/strategy and assert the
    observable behaviour matches the sequential run.

    ``setup(state)`` populates a fresh machine state.
    """
    def fresh() -> MachineState:
        state = MachineState(module)
        setup(state)
        return state

    baseline_state = fresh()
    run_sequential(module.pps(pps_name), baseline_state, iterations=iterations)
    baseline = observe(baseline_state)

    results = []
    for degree in degrees:
        for strategy in strategies:
            result = pipeline_pps(module, pps_name, degree,
                                  knobs=Knobs(strategy=strategy),
                                  **transform_kwargs)
            state = fresh()
            run_pipeline(result.stages, state, iterations=iterations)
            assert_equivalent(baseline, observe(state))
            results.append(result)
    return results


#: A PPS exercising scalars, branches, an inner loop, a table, and traces.
STANDARD_PPS = """
pipe in_q;
pipe out_q;
readonly memory tbl[64];

pps worker {
    int seq = 0;
    for (;;) {
        int v = pipe_recv(in_q);
        seq = (seq + 1) & 0xFF;
        int a = (v * 3) ^ 21;
        int b = mem_read(tbl, v & 63);
        int c = 0;
        if (a > b) { c = a - b; trace(1, c); }
        else { c = b - a + seq; trace(2, c); }
        int d = hash32(c) & 0xFF;
        int i = 0;
        while (i < (v & 7)) { d = d + b; i++; }
        pipe_send(out_q, d);
        trace(3, d);
    }
}
"""


def standard_setup(state: MachineState, count: int = 40) -> int:
    state.load_region("tbl", [(i * 7 + 3) % 50 for i in range(64)])
    state.feed_pipe("in_q", [(i * 37) % 100 for i in range(count)])
    return count
