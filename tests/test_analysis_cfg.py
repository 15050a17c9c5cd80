"""Tests for CFG views, PPS-loop discovery, and block splitting."""

import pytest

from repro.analysis.cfg import cfg_of, find_pps_loop, split_large_blocks
from repro.ir.verify import verify_function
from repro.runtime import MachineState, observe, run_sequential

from helpers import STANDARD_PPS, compile_module, standard_setup


def test_cfg_mirrors_successors():
    module = compile_module(STANDARD_PPS)
    pps = module.pps("worker")
    graph = cfg_of(pps)
    for block in pps.ordered_blocks():
        assert graph.succs(block.name) == block.successors() or \
            set(graph.succs(block.name)) == set(block.successors())


def test_find_pps_loop_shape():
    module = compile_module(STANDARD_PPS)
    loop = find_pps_loop(module.pps("worker"))
    assert loop.header in loop.body
    assert loop.latch in loop.body
    assert loop.body[0] == loop.header


def test_pps_loop_header_heads_a_natural_loop():
    """On a real PPS the header ``find_pps_loop`` names heads a natural
    loop of ``cfg_of``: latch → header is a back edge (the header
    dominates the latch) and the header dominates the whole body."""
    from repro.analysis.dominance import DominatorTree

    pps = compile_module(STANDARD_PPS).pps("worker")
    loop = find_pps_loop(pps)
    graph = cfg_of(pps)
    assert graph.has_edge(loop.latch, loop.header)
    dominators = DominatorTree.compute(graph)
    assert all(dominators.dominates(loop.header, name) for name in loop.body)


def test_body_graph_excludes_back_edge():
    module = compile_module(STANDARD_PPS)
    loop = find_pps_loop(module.pps("worker"))
    graph = loop.body_graph()
    assert not graph.has_edge(loop.latch, loop.header)
    # Inner while loop remains cyclic.
    with pytest.raises(ValueError, match="cyclic"):
        graph.topological_order()


def test_split_large_blocks_bounds_block_size():
    module = compile_module("""
        pipe q;
        pps p { for (;;) {
            int v = pipe_recv(q);
            int a = v + 1; int b = a + 2; int c = b + 3; int d = c + 4;
            int e = d + 5; int f = e + 6; int g = f + 7; int h = g + 8;
            trace(1, h);
        } }
    """)
    pps = module.pps("p")
    splits = split_large_blocks(pps, 3)
    assert splits > 0
    verify_function(pps)
    for block in pps.ordered_blocks():
        assert len(block.instructions) <= 3 + 1  # phi allowance


def test_split_preserves_semantics():
    module_a = compile_module(STANDARD_PPS)
    module_b = compile_module(STANDARD_PPS)
    split_large_blocks(module_b.pps("worker"), 2)

    def run(module):
        state = MachineState(module)
        standard_setup(state, 15)
        run_sequential(module.pps("worker"), state, iterations=15)
        return observe(state)

    a = run(module_a)
    b = run(module_b)
    assert a.traces == b.traces
    assert a.pipes == b.pipes


def test_split_preserves_loop_discovery():
    module = compile_module(STANDARD_PPS)
    pps = module.pps("worker")
    split_large_blocks(pps, 2)
    loop = find_pps_loop(pps)  # must not be confused by chunk blocks
    assert loop.header.startswith("pps_header")


def test_zero_threshold_means_no_split():
    module = compile_module(STANDARD_PPS)
    pps = module.pps("worker")
    before = len(pps.blocks)
    assert split_large_blocks(pps, 10**9) == 0
    assert len(pps.blocks) == before


# -- the header lookup the runtime uses (no CFG built) ----------------------


def test_pps_loop_header_agrees_with_find_pps_loop():
    from repro.analysis.cfg import pps_loop_header
    from repro.apps.suite import build_app

    functions = [compile_module(STANDARD_PPS).pps("worker")]
    for name in ("rx", "ipv4", "ip_v6", "qm"):
        app = build_app(name, packets=4)
        functions.append(app.module.pps(app.pps_name))
    for function in functions:
        assert pps_loop_header(function) == find_pps_loop(function).header


@pytest.mark.parametrize("extra", [None, "pps_header_again"],
                         ids=["zero-headers", "two-headers"])
def test_header_lookup_needs_exactly_one_header(extra):
    """Zero or two ``pps_header*`` blocks: the name scan raises the
    ``ValueError`` ``find_pps_loop`` always raised, and so does the
    runtime entry point that now uses it."""
    from repro.analysis.cfg import pps_loop_header

    module = compile_module(STANDARD_PPS)
    pps = module.pps("worker")
    header = find_pps_loop(pps).header
    if extra is None:
        pps.block_order.remove(header)
    else:
        pps.block_order.append(extra)
    for lookup in (pps_loop_header, find_pps_loop,
                   lambda function: run_sequential(
                       function, MachineState(module), iterations=1)):
        with pytest.raises(ValueError, match="exactly one PPS loop header"):
            lookup(pps)
