"""Tests for the constant folder and CFG simplifier."""

from repro.analysis.cfg import find_pps_loop
from repro.ir.instructions import BinOp, Call
from repro.ir.optimize import fold_constants, optimize_module, simplify_cfg
from repro.ir.values import Const
from repro.ir.verify import verify_function
from repro.runtime import MachineState, run_sequential

from helpers import compile_module


def test_constant_expression_folds_to_move():
    module = compile_module("pps p { for (;;) { int x = 2 + 3 * 4; trace(1, x); } }")
    pps = module.pps("p")
    fold_constants(pps)
    binops = [i for i in pps.all_instructions() if isinstance(i, BinOp)]
    assert not binops
    state = MachineState(module)
    run_sequential(pps, state, iterations=1)
    assert state.traces[1] == [14]


def test_constant_trace_tags_become_literal():
    module = compile_module("pps p { for (;;) { trace(30 + 100, 1); } }")
    pps = module.pps("p")
    fold_constants(pps)
    trace = next(i for i in pps.all_instructions()
                 if isinstance(i, Call) and i.callee == "trace")
    assert isinstance(trace.args[0], Const)
    assert trace.args[0].value == 130


def test_folding_stops_at_redefinition():
    module = compile_module("""
        pipe q;
        pps p { for (;;) { int x = 5; x = pipe_recv(q); trace(1, x + 1); } }
    """)
    pps = module.pps("p")
    fold_constants(pps)
    state = MachineState(module)
    state.feed_pipe("q", [10])
    run_sequential(pps, state, iterations=1)
    assert state.traces[1] == [11]


def test_division_by_zero_not_folded_away():
    module = compile_module("pps p { for (;;) { int x = 1 / 0; trace(1, x); } }")
    pps = module.pps("p")
    fold_constants(pps)
    # The trap must survive folding.
    binops = [i for i in pps.all_instructions()
              if isinstance(i, BinOp) and i.op == "/"]
    assert binops


def test_simplify_cfg_removes_empty_forwarders():
    module = compile_module("""
        pps p { for (;;) { int x = 1;
            if (x) { ; } else { ; }
            trace(1, x); } }
    """)
    pps = module.pps("p")
    before = len(pps.blocks)
    removed = simplify_cfg(pps)
    assert removed > 0
    assert len(pps.blocks) == before - removed
    verify_function(pps)


def test_simplify_preserves_pps_skeleton():
    module = compile_module("pps p { for (;;) { ; } }")
    pps = module.pps("p")
    simplify_cfg(pps)
    loop = find_pps_loop(pps)  # must still be identifiable
    assert loop.header and loop.latch


def test_optimize_module_preserves_semantics():
    source = """
        pipe in_q;
        pipe out_q;
        pps p { for (;;) {
            int v = pipe_recv(in_q);
            int k = 3 * 4 + 1;
            if (v > k) { pipe_send(out_q, v - k); }
            else { pipe_send(out_q, k - v); }
        } }
    """
    plain = compile_module(source)
    optimized = compile_module(source)
    optimize_module(optimized)

    def run(module):
        state = MachineState(module)
        state.feed_pipe("in_q", [5, 20, 13])
        run_sequential(module.pps("p"), state, iterations=3)
        return list(state.pipe("out_q").queue)

    assert run(plain) == run(optimized) == [8, 7, 0]


def test_optimized_weight_not_larger():
    source = "pps p { for (;;) { int x = (1 + 2) * (3 + 4); trace(1, x); } }"
    plain = compile_module(source)
    optimized = compile_module(source)
    optimize_module(optimized)
    assert optimized.pps("p").weight() <= plain.pps("p").weight()


def test_dce_removes_unused_chain():
    from repro.ir.optimize import eliminate_dead_code

    module = compile_module("""
        pipe q;
        pps p { for (;;) {
            int v = pipe_recv(q);
            int dead1 = v * 99;
            int dead2 = dead1 + hash32(dead1);
            trace(1, v);
        } }
    """)
    pps = module.pps("p")
    before = pps.weight()
    removed = eliminate_dead_code(pps)
    assert removed >= 3  # the two binops, the copy chain, the hash
    assert pps.weight() < before
    verify_function(pps)
    state = MachineState(module)
    state.feed_pipe("q", [7])
    run_sequential(pps, state, iterations=1)
    assert state.traces[1] == [7]


def test_dce_keeps_side_effects():
    from repro.ir.optimize import eliminate_dead_code

    module = compile_module("""
        pipe q;
        memory m[4];
        pps p { for (;;) {
            int unused_read = pipe_recv(q);       // consumes a message!
            int unused_mem = mem_read(m, 0);      // read-write region
            trace(1, 1);
        } }
    """)
    pps = module.pps("p")
    eliminate_dead_code(pps)
    callees = [getattr(i, "callee", None) for i in pps.all_instructions()]
    assert "pipe_recv" in callees, "channel ops must survive DCE"
    assert "mem_read" in callees, "shared-memory ops must survive DCE"


def test_dce_keeps_registers_that_only_read_each_other():
    # Non-SSA and conservative: a register is dead only if nothing reads
    # it, so a cycle of otherwise unused copies stays.
    from repro.ir.optimize import eliminate_dead_code

    module = compile_module("""
        pipe q;
        pps p { int a = 0; int b = 0; for (;;) {
            a = b + 1;
            b = a + 1;
            trace(1, pipe_recv(q));
        } }
    """)
    assert eliminate_dead_code(module.pps("p")) == 0


def _suite_functions():
    """Every suite function and PPS body, lowered, inlined and folded:
    what ``eliminate_dead_code`` meets inside ``optimize_function``."""
    from repro.apps.suite import build_app

    functions = []
    for name in ("rx", "ipv4", "ip_v4", "ip_v6", "scheduler", "qm", "tx"):
        module = compile_module(build_app(name, packets=8).source)
        functions += [*module.functions.values(), *module.ppses.values()]
    for function in functions:
        fold_constants(function)
    return functions


def _count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_dce_scans_each_function_once(monkeypatch):
    from repro.ir.function import Function
    from repro.ir.optimize import eliminate_dead_code

    functions = _suite_functions()
    scans = _count_calls(monkeypatch, Function, "ordered_blocks")
    removed = [eliminate_dead_code(function) for function in functions]
    # Dead chains several links long (each link a rescan for a fixpoint
    # loop), and still one walk over the blocks per call.
    assert sum(removed) > 2 * len(functions)
    assert len(scans) == len(functions)


def test_simplify_cfg_builds_predecessors_once(monkeypatch):
    from repro.ir.function import Function
    from repro.ir.optimize import eliminate_dead_code

    functions = _suite_functions()
    for function in functions:
        eliminate_dead_code(function)
    builds = _count_calls(monkeypatch, Function, "predecessors")
    removed = [simplify_cfg(function) for function in functions]
    assert sum(removed) > 2 * len(functions)
    assert len(builds) == len(functions)
    for function in functions:
        verify_function(function)


def test_dce_respects_later_uses():
    from repro.ir.optimize import eliminate_dead_code

    module = compile_module("""
        pipe q;
        pps p { for (;;) {
            int v = pipe_recv(q);
            int kept = v + 1;
            if (v > 2) { trace(1, kept); }
        } }
    """)
    pps = module.pps("p")
    assert eliminate_dead_code(pps) == 0
