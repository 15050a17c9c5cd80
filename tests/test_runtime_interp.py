"""Tests for the IR interpreter."""

import pytest

from repro.errors import TrapError
from repro.ir.function import Module
from repro.ir.instructions import BinOp, Return
from repro.ir.values import Const, VReg
from repro.runtime import MachineState, run_group, run_sequential
from repro.runtime.interp import Interpreter

from helpers import compile_module
from test_runtime_regions import CHAIN, chain, function_of, trace


def run_pps(source, feeds=None, regions=None, iterations=1, pps=None):
    module = compile_module(source)
    name = pps or next(iter(module.ppses))
    state = MachineState(module)
    for pipe, values in (feeds or {}).items():
        state.feed_pipe(pipe, values)
    for region, values in (regions or {}).items():
        state.load_region(region, values)
    stats = run_sequential(module.pps(name), state, iterations=iterations)
    return state, stats


def test_arithmetic_and_traces():
    state, _ = run_pps("""
        pps p { for (;;) {
            trace(1, 2 + 3 * 4);
            trace(2, (10 - 4) / 2);
            trace(3, -7 % 3);
            trace(4, 1 << 5);
            trace(5, ~0);
        } }
    """)
    assert state.traces == {1: [14], 2: [3], 3: [-1], 4: [32], 5: [-1]}


def test_signed_wraparound():
    state, _ = run_pps("""
        pps p { for (;;) { int big = 0x7FFFFFFF; trace(1, big + 1); } }
    """)
    assert state.traces[1] == [-(2**31)]


def test_division_by_zero_traps():
    module = compile_module("""
        pipe q;
        pps p { for (;;) { int v = pipe_recv(q); trace(1, 10 / v); } }
    """)
    state = MachineState(module)
    state.feed_pipe("q", [0])
    with pytest.raises(TrapError, match="division by zero"):
        run_sequential(module.pps("p"), state, iterations=1)


def test_control_flow_loops_and_breaks():
    state, _ = run_pps("""
        pps p { for (;;) {
            int s = 0;
            for (int i = 0; i < 10; i++) {
                if (i == 4) break;
                if (i == 1) continue;
                s += i;
            }
            trace(1, s);
        } }
    """)
    assert state.traces[1] == [0 + 2 + 3]


def test_switch_dispatch():
    state, _ = run_pps("""
        pipe q;
        pps p { for (;;) {
            int v = pipe_recv(q);
            switch (v) {
            case 1: trace(1, 10); break;
            case 2: trace(1, 20); break;
            default: trace(1, 99);
            }
        } }
    """, feeds={"q": [1, 2, 7]}, iterations=3)
    assert state.traces[1] == [10, 20, 99]


def test_local_arrays_zero_initialized_per_frame():
    state, _ = run_pps("""
        pps p { for (;;) {
            int a[4];
            trace(1, a[2]);
            a[2] = 5;
            trace(2, a[2]);
        } }
    """, iterations=2)
    # Arrays declared inside the loop are a per-stage frame; PPS-C
    # zero-initializes frames once (values persist across iterations of
    # the same stage, matching hardware local memory).
    assert state.traces[2] == [5, 5]


def test_array_out_of_bounds_traps():
    module = compile_module("""
        pipe q;
        pps p { for (;;) { int a[4]; int i = pipe_recv(q);
                           trace(1, a[i]); } }
    """)
    state = MachineState(module)
    state.feed_pipe("q", [9])
    with pytest.raises(TrapError, match="out of bounds"):
        run_sequential(module.pps("p"), state, iterations=1)


def test_memory_intrinsics():
    state, _ = run_pps("""
        memory m[8];
        pps p { for (;;) {
            mem_write(m, 3, 42);
            trace(1, mem_read(m, 3));
            trace(2, mem_add(m, 3, 8));
            trace(3, mem_read(m, 3));
        } }
    """)
    assert state.traces == {1: [42], 2: [42], 3: [50]}
    assert state.regions["m"][3] == 50


def test_readonly_region_write_traps():
    # The semantic checker rejects this at compile time; exercise the
    # runtime guard directly through the state API.
    module = compile_module("readonly memory r[4]; pps p { for (;;) { trace(1, mem_read(r, 0)); } }")
    state = MachineState(module)
    with pytest.raises(TrapError, match="readonly"):
        state.region_write("r", 0, 1)


def test_readonly_region_adopts_a_full_tuple_by_reference():
    from repro.ir.values import RegionRef

    module = compile_module("""
        memory r[4]; memory w[4];
        pps p { for (;;) { mem_write(r, 1, 9); } }
    """)
    # Sema rejects a guest write to a readonly region, so the region is
    # made readonly after compiling the write.
    module.regions["r"] = RegionRef("r", 4, readonly=True)
    table = (5, 6, 7, 8)
    first, second = MachineState(module), MachineState(module)
    for state in (first, second):
        state.load_region("r", table[:2])    # partial: copied
        assert state.regions["r"] == [5, 6, 0, 0]
        state.load_region("w", table)        # writable: copied
        state.load_region("r", table)
    assert first.regions["r"] is table and second.regions["r"] is table
    assert first.regions["w"] == list(table)
    assert first.regions["w"] is not second.regions["w"]
    # A later host-side write takes a private list first.
    first.load_region("r", {2: 70})
    assert first.regions["r"] == [5, 6, 70, 8]
    assert second.regions["r"] is table and table == (5, 6, 7, 8)
    second.load_region("r", [1, 2])
    assert second.regions["r"] == [1, 2, 7, 8] and table == (5, 6, 7, 8)
    # The guest still cannot write it.
    state = MachineState(module)
    state.load_region("r", table)
    with pytest.raises(TrapError, match="^write to readonly region 'r'$"):
        run_sequential(module.pps("p"), state, iterations=1)
    assert state.regions["r"] is table


def test_pipe_blocking_and_iteration_budget():
    module = compile_module("""
        pipe q;
        pps p { for (;;) { int v = pipe_recv(q); trace(1, v); } }
    """)
    state = MachineState(module)
    state.feed_pipe("q", [1, 2])
    stats = run_sequential(module.pps("p"), state, iterations=10)
    # Only two messages: the PPS blocks, the scheduler detects quiescence.
    assert state.traces[1] == [1, 2]
    assert stats.blocked > 0


def test_hash32_is_deterministic():
    state1, _ = run_pps("pps p { for (;;) { trace(1, hash32(1234)); } }")
    state2, _ = run_pps("pps p { for (;;) { trace(1, hash32(1234)); } }")
    assert state1.traces == state2.traces


def test_pipe_empty_polling():
    state, _ = run_pps("""
        pipe a;
        pipe b;
        pps p { for (;;) {
            if (pipe_empty(a) == 0) { trace(1, pipe_recv(a)); }
            else if (pipe_empty(b) == 0) { trace(2, pipe_recv(b)); }
        } }
    """, feeds={"a": [5], "b": [7, 8]}, iterations=3)
    assert state.traces == {1: [5], 2: [7, 8]}


def test_stats_weight_counts_machine_model():
    # Memory reads weigh more than plain ALU instructions.
    module = compile_module("""
        memory m[4];
        pps p { for (;;) { int a = 1 + 2; int b = mem_read(m, 0); trace(1, a + b); } }
    """)
    state = MachineState(module)
    stats = run_sequential(module.pps("p"), state, iterations=1)
    assert stats.weight > stats.instructions


def test_fuel_guard_stops_runaway(monkeypatch):
    module = compile_module("""
        pps p { for (;;) { int i = 0;
            while (i < 1000000) { i++; }
            trace(1, i); } }
    """)
    state = MachineState(module)
    from repro.analysis.cfg import find_pps_loop
    loop = find_pps_loop(module.pps("p"))
    monkeypatch.setattr("repro.runtime.interp.FUEL", 10_000)
    interp = Interpreter(module.pps("p"), state, loop_start=loop.header,
                         max_iterations=5)
    with pytest.raises(TrapError, match="fuel"):
        run_group({"p": interp})


# -- a fresh interpreter's register file ---------------------------------------


def params_function():
    """``f(p, q)``: traces ``(q + 1) * p``; ``q`` is read before ``p``.
    Returns the function and its registers ``p, q, x, y``."""
    p, q, x, y = registers = tuple(VReg(name) for name in "pqxy")
    function = function_of({"entry": (
        [BinOp(x, "+", q, Const(1)), BinOp(y, "*", x, p), trace(1, y)],
        Return())})
    function.params.extend([p, q])
    return function, registers


def test_fresh_registers_are_params_first_then_first_use_order():
    function, registers = params_function()
    interp = Interpreter(function, MachineState(Module()))
    assert list(interp.regs) == list(registers)
    assert set(interp.regs.values()) == {0}


def test_a_preloaded_param_survives_run():
    function, (p, q, _, _) = params_function()
    state = MachineState(Module())
    interp = Interpreter(function, state)
    interp.regs[p], interp.regs[q] = 6, 4
    run_group({"f": interp})
    assert state.traces == {1: [30]}


def test_a_quarantined_restart_resumes_with_zeroed_registers():
    """``carried`` is preloaded (the first trace shows it), written back
    by packet 4 and zeroed by packet 0's trap: the restart traces 0, not
    8, and the file keeps its keys and their order."""
    state = MachineState(Module())
    state.feed_pipe("q", [4, 0, 5])
    interp = Interpreter(chain(), state, **CHAIN)
    order = list(interp.regs)
    carried, = (reg for reg in order if reg.name == "carried")
    interp.regs[carried] = 99
    run_group({"f": interp}, isolate_traps=True)
    assert interp.stats.traps == 1
    assert state.traces[1][:3] == [99, 8, 0]
    assert list(interp.regs) == order
