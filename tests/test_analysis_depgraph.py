"""Tests for the loop dependence model (paper step 1)."""

from repro.analysis.cfg import find_pps_loop
from repro.analysis.dependence_graph import DepKind, LoopDependenceModel
from repro.ir.clone import clone_function
from repro.ssa import construct_ssa

from helpers import compile_module


def model_of(source, pps_name=None):
    module = compile_module(source)
    name = pps_name or next(iter(module.ppses))
    ssa = clone_function(module.pps(name))
    construct_ssa(ssa)
    return LoopDependenceModel(ssa, find_pps_loop(ssa))


def test_inner_loop_is_one_summarized_node():
    model = model_of("""
        pps p { for (;;) { int s = 0;
            for (int i = 0; i < 4; i++) { s += i; }
            trace(1, s); } }
    """)
    sizes = [len(members) for members in model.summary.members.values()]
    assert max(sizes) > 1  # the inner loop collapsed


def test_loop_carried_scalar_colocates_with_header():
    # The increment lives in a later block than the header, so keeping it
    # in stage 1 requires an explicit colocation edge.
    model = model_of("""
        pps p { int n = 0; for (;;) {
            trace(5, 0);
            if (n > 3) { trace(1, n); }
            n = n + 1;
        } }
    """)
    colocates = [e for e in model.edges if e.kind is DepKind.COLOCATE]
    header_edges = [e for e in colocates if e.dst == model.header_node]
    assert header_edges
    # ... and the def lands in the header's unit.
    header_unit = model.header_unit
    for edge in header_edges:
        assert model.unit_of_node(edge.src) == header_unit


def test_shared_memory_collapses_units():
    model = model_of("""
        memory state[8];
        pps p { for (;;) {
            int v = mem_read(state, 0);
            int w = v * 3 + 1;
            mem_write(state, 0, w);
            trace(1, w);
        } }
    """)
    # Read and write of the shared region must share a unit.
    read_unit = None
    write_unit = None
    for name in model.loop.body:
        for inst in model.ssa.block(name).all_instructions():
            callee = getattr(inst, "callee", None)
            if callee == "mem_read":
                read_unit = model.unit_of_node(model.node_of_block(name))
            if callee == "mem_write":
                write_unit = model.unit_of_node(model.node_of_block(name))
    assert read_unit is not None and read_unit == write_unit


def test_readonly_memory_does_not_collapse():
    model = model_of("""
        pipe q;
        readonly memory tbl[8];
        pps p { for (;;) {
            int v = pipe_recv(q);
            int a = mem_read(tbl, v & 7);
            int b = a * 2;
            int c = mem_read(tbl, b & 7);
            trace(1, c);
        } }
    """)
    # Readonly lookups carry no ordering/colocation constraints.
    assert not any(e.kind in (DepKind.ORDER, DepKind.COLOCATE)
                   and isinstance(e.payload, tuple)
                   and e.payload and e.payload[0] == "mem"
                   for e in model.edges)


def test_data_edges_track_ssa_values():
    model = model_of("""
        pipe q;
        pps p { for (;;) { int v = pipe_recv(q);
            int a = v + 1;
            if (a > 3) { trace(1, a); } else { trace(2, v); }
        } }
    """)
    data = [e for e in model.edges if e.kind is DepKind.DATA]
    assert data
    for edge in data:
        info = model.variables[edge.payload]
        assert model.unit_of_node(info.def_node) is not None
        assert edge.dst in info.use_nodes or edge.dst == info.def_node


def test_control_edges_from_branches():
    model = model_of("""
        pipe q;
        pps p { for (;;) { int v = pipe_recv(q);
            if (v > 0) { trace(1, v); } else { trace(2, v); }
        } }
    """)
    control = [e for e in model.edges if e.kind is DepKind.CONTROL]
    assert control
    assert model.controlled  # at least one branching summarized node


def test_units_graph_is_acyclic():
    model = model_of("""
        pipe q;
        pps p { int n = 0; for (;;) { int v = pipe_recv(q);
            n = (n + v) & 255;
            int s = 0;
            for (int i = 0; i < 3; i++) { s += v; }
            trace(1, s + n);
        } }
    """)
    model.units.graph.topological_order()  # raises ValueError on a cycle


def test_unit_weights_partition_total():
    model = model_of("""
        pipe q;
        pps p { for (;;) { int v = pipe_recv(q);
            if (v) { trace(1, v); } else { trace(2, v); } } }
    """)
    total = sum(model.ssa.block(b).weight() for b in model.loop.body)
    assert model.total_weight() == total
    assert sum(model.unit_weight(u) for u in model.units.members) == total


def test_header_and_latch_units_exist():
    model = model_of("pps p { for (;;) { trace(1, 0); } }")
    assert model.header_unit in model.units.members
    assert model.latch_unit in model.units.members
