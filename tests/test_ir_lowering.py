"""Tests for AST -> IR lowering."""

import pytest

from repro import compile_module
from repro.analysis.cfg import find_pps_loop
from repro.analysis.context import AnalysisContext
from repro.analysis.dependence_graph import DepKind
from repro.ir.function import Module
from repro.ir.instructions import (
    ArrayLoad,
    ArrayStore,
    Branch,
    Call,
    Jump,
    SwitchTerm,
)
from repro.ir.lowering import lower_program
from repro.ir.values import PipeRef, RegionRef
from repro.ir.verify import verify_function
from repro.lang import compile_source


def lower(source):
    module = lower_program(compile_source(source))
    for function in list(module.functions.values()) + list(module.ppses.values()):
        verify_function(function)
    return module


def test_simple_function_shape():
    module = lower("int add(int a, int b) { return a + b; }")
    function = module.functions["add"]
    assert len(function.params) == 2
    assert function.returns_value


def test_pps_loop_has_canonical_skeleton():
    module = lower("pps p { int n = 0; for (;;) { n = n + 1; } }")
    loop = find_pps_loop(module.pps("p"))
    assert loop.header.startswith("pps_header")
    assert loop.latch.startswith("pps_latch")
    latch = module.pps("p").block(loop.latch)
    assert isinstance(latch.terminator, Jump)
    assert latch.terminator.target == loop.header


def test_pps_body_graph_is_single_entry_single_exit():
    module = lower("""
        pps p { for (;;) { int x = 1; if (x) { x = 2; } else { x = 3; } } }
    """)
    loop = find_pps_loop(module.pps("p"))
    graph = loop.body_graph()
    assert graph.entry == loop.header
    exits = [n for n in graph.nodes if not graph.succs(n)]
    assert exits == [loop.latch]


def test_short_circuit_and_lowered_to_branches():
    module = lower("""
        pps p { for (;;) { int a = 1; int b = 2; int c = a && b;
                           trace(1, c); } }
    """)
    pps = module.pps("p")
    branches = [i for i in pps.all_instructions() if isinstance(i, Branch)]
    assert branches, "&& must lower to control flow"


def test_short_circuit_skips_rhs_side_effects():
    # Verified behaviorally elsewhere; here: the rhs call sits in its own
    # block, reached only via the branch.
    module = lower("""
        pipe q;
        pps p { for (;;) { int a = pipe_recv(q);
                           int c = a && pipe_recv(q); trace(1, c); } }
    """)
    pps = module.pps("p")
    entry_calls = []
    for block in pps.ordered_blocks():
        calls = [i for i in block.instructions
                 if isinstance(i, Call) and i.callee == "pipe_recv"]
        entry_calls.append((block.name, len(calls)))
    blocks_with_calls = [name for name, n in entry_calls if n]
    assert len(blocks_with_calls) == 2, "the two receives must be in different blocks"


def test_ternary_lowered_to_diamond():
    module = lower("pps p { for (;;) { int a = 1; int b = a ? 2 : 3; trace(1, b); } }")
    pps = module.pps("p")
    names = set(pps.blocks)
    assert any(name.startswith("sel_then") for name in names)
    assert any(name.startswith("sel_else") for name in names)


def test_switch_lowered_to_switchterm():
    module = lower("""
        pps p { for (;;) { int x = 2;
            switch (x) { case 1: trace(1, x); break;
                         case 2: trace(2, x); break;
                         default: trace(3, x); } } }
    """)
    pps = module.pps("p")
    switches = [i for i in pps.all_instructions() if isinstance(i, SwitchTerm)]
    assert len(switches) == 1
    assert set(switches[0].cases) == {1, 2}


def test_array_ops_lowered():
    module = lower("""
        pps p { for (;;) { int a[8]; a[1] = 5; int y = a[1]; trace(1, y); } }
    """)
    pps = module.pps("p")
    loads = [i for i in pps.all_instructions() if isinstance(i, ArrayLoad)]
    stores = [i for i in pps.all_instructions() if isinstance(i, ArrayStore)]
    assert loads and stores
    assert loads[0].array is stores[0].array


#: One array, written in a branch arm and read after the join, declared
#: in the PPS prologue, in the loop body, and in an inlined callee.
ARRAY_PLACES = {
    "prologue": """
        pipe q;
        pps p { int seen[4]; for (;;) { int v = pipe_recv(q);
            if (v > 3) { seen[v & 3] = v; }
            trace(1, seen[0]); } }
    """,
    "loop-body": """
        pipe q;
        pps p { for (;;) { int v = pipe_recv(q); int seen[4];
            if (v > 3) { seen[v & 3] = v; }
            trace(1, seen[0]); } }
    """,
    "callee": """
        pipe q;
        int note(int v) { int seen[4]; if (v > 3) { seen[v & 3] = v; }
            return seen[0]; }
        pps p { for (;;) { int v = pipe_recv(q); trace(1, note(v)); } }
    """,
}


@pytest.mark.parametrize("place", sorted(ARRAY_PLACES))
def test_every_array_is_loop_carried(place):
    """An array is storage for the PPS's lifetime wherever it is declared:
    the dependence model colocates its write with its read, so no stage
    reads a value another stage wrote in an earlier iteration."""
    model = AnalysisContext(compile_module(ARRAY_PLACES[place]), "p").model
    nodes = {model.node_of_block(name) for name in model.loop.body
             if any(isinstance(inst, (ArrayLoad, ArrayStore))
                    for inst in model.ssa.block(name).instructions)}
    assert len(nodes) == 2  # the write's arm and the read's join
    assert len({model.unit_of_node(node) for node in nodes}) == 1
    assert any(edge.kind is DepKind.COLOCATE and {edge.src, edge.dst} == nodes
               for edge in model.edges)


def test_intrinsic_resource_operands():
    module = lower("""
        pipe q;
        memory m[16];
        pps p { for (;;) { int v = pipe_recv(q); mem_write(m, 0, v); } }
    """)
    pps = module.pps("p")
    calls = {i.callee: i for i in pps.all_instructions() if isinstance(i, Call)}
    assert isinstance(calls["pipe_recv"].args[0], PipeRef)
    assert isinstance(calls["mem_write"].args[0], RegionRef)
    assert calls["mem_write"].args[0].size == 16


def test_compound_assignment_reads_then_writes():
    module = lower("pps p { for (;;) { int x = 1; x += 2; trace(1, x); } }")
    # Just verifying it lowers and verifies; semantic checks are in the
    # interpreter tests.
    assert module.pps("p")


def test_continue_jumps_to_latch():
    module = lower("""
        pps p { for (;;) { int x = 1; if (x) continue; trace(1, x); } }
    """)
    pps = module.pps("p")
    loop = find_pps_loop(pps)
    # Some block other than the latch jumps directly to the latch.
    jumpers = [block.name for block in pps.ordered_blocks()
               if block.name != loop.latch
               and loop.latch in block.successors()]
    assert jumpers


def test_for_loop_structure():
    module = lower("""
        pps p { for (;;) { int s = 0;
            for (int i = 0; i < 4; i++) { s += i; }
            trace(1, s); } }
    """)
    names = set(module.pps("p").blocks)
    assert any(name.startswith("for_header") for name in names)
    assert any(name.startswith("for_step") for name in names)


def test_do_while_executes_body_first():
    module = lower("""
        pps p { for (;;) { int i = 0; do { i++; } while (i < 3); trace(1, i); } }
    """)
    names = set(module.pps("p").blocks)
    assert any(name.startswith("do_body") for name in names)


def test_unreachable_code_dropped():
    module = lower("""
        int f(void) { return 1; }
        pps p { for (;;) { int x = f(); trace(1, x); } }
    """)
    function = module.functions["f"]
    # Exactly one return path; no dangling blocks.
    verify_function(function)


def test_module_registry():
    module = lower("""
        pipe a;
        pipe b;
        memory m[4];
        readonly memory r[4];
        pps p { for (;;) { int x = pipe_recv(a); pipe_send(b, x); } }
    """)
    assert set(module.pipes) == {"a", "b"}
    assert module.regions["r"].readonly and not module.regions["m"].readonly
    assert isinstance(module, Module)
