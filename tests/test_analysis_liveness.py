"""Tests for live-variable analysis."""

from repro.analysis.cfg import find_pps_loop, split_large_blocks
from repro.analysis.liveness import Liveness
from repro.ir.clone import clone_function
from repro.ssa import construct_ssa

from helpers import compile_module


def regs_named(regs, prefix):
    return {reg for reg in regs if reg.name.startswith(prefix)}


def test_straightline_liveness():
    module = compile_module("""
        pipe q;
        pps p { for (;;) { int a = pipe_recv(q); int b = a + 1; trace(1, b); } }
    """)
    pps = module.pps("p")
    liveness = Liveness(pps)
    loop = find_pps_loop(pps)
    # Nothing is live around the back edge (all per-iteration temporaries);
    # the latch's one successor is the header.
    carried = liveness.live_out[loop.latch]
    assert not regs_named(carried, "a") and not regs_named(carried, "b")


def test_loop_carried_variable_live_on_back_edge():
    module = compile_module("pps p { int n = 0; for (;;) { n = n + 1; trace(1, n); } }")
    pps = module.pps("p")
    loop = find_pps_loop(pps)
    carried = Liveness(pps).live_out[loop.latch]
    assert regs_named(carried, "n")


def test_branch_liveness_differs_per_arm():
    module = compile_module("""
        pipe q;
        pps p { for (;;) {
            int a = pipe_recv(q);
            int b = a * 2;
            int c = a * 3;
            if (a > 0) { trace(1, b); } else { trace(2, c); }
        } }
    """)
    pps = module.pps("p")
    liveness = Liveness(pps)
    then_block = next(n for n in pps.block_order if n.startswith("if_then"))
    else_block = next(n for n in pps.block_order if n.startswith("if_else"))
    assert regs_named(liveness.live_in[then_block], "b")
    assert not regs_named(liveness.live_in[then_block], "c")
    assert regs_named(liveness.live_in[else_block], "c")
    assert not regs_named(liveness.live_in[else_block], "b")


def test_phi_operands_live_on_their_edges_only():
    module = compile_module("""
        pps p { for (;;) { int x = 1;
            if (x) { x = 2; } else { x = 3; }
            trace(1, x); } }
    """)
    ssa = clone_function(module.pps("p"))
    construct_ssa(ssa)
    liveness = Liveness(ssa)
    join = next(n for n in ssa.block_order if n.startswith("if_join"))
    phi = ssa.block(join).phis()[0]
    # Each arm has the join as its one successor, so what leaves the arm
    # is what its edge carries: its own φ operand and no other.
    for pred, value in phi.incomings.items():
        live = liveness.live_out[pred]
        assert value in live
        others = [v for p, v in phi.incomings.items() if p != pred]
        for other in others:
            assert other not in live
    # The phi dest itself is defined at the join, not live into it.
    assert phi.dest not in liveness.live_in[join]


def test_live_after_tracks_instruction_granularity():
    module = compile_module("""
        pipe q;
        pps p { for (;;) { int a = pipe_recv(q); int b = a + 1;
                           trace(1, a); trace(2, b); } }
    """)
    pps = module.pps("p")
    # One instruction per block, as a cut between any two sees it.
    split_large_blocks(pps, 1)
    liveness = Liveness(pps)
    block_name = next(
        name for name in pps.block_order
        if any(getattr(inst, "callee", None) == "trace"
               and inst.args[0].value == 1
               for inst in pps.block(name).instructions)
    )
    live = liveness.live_out[block_name]
    assert regs_named(live, "b")
    assert not regs_named(live, "a")  # a is dead after its last use


def test_dead_code_not_live():
    module = compile_module("""
        pps p { for (;;) { int unused = 42; trace(1, 0); } }
    """)
    pps = module.pps("p")
    loop = find_pps_loop(pps)
    liveness = Liveness(pps)
    for name in loop.body:
        assert not regs_named(liveness.live_in[name], "unused")
