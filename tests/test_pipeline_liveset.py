"""Tests for live-set layouts, interference, and coloring."""

from repro.pipeline.coloring import color_graph
from repro.pipeline.liveset import Strategy
from repro.pipeline.transform import pipeline_pps
from repro.runspec import Knobs

from helpers import STANDARD_PPS, compile_module


def layouts_for(source, degree, pps_name=None, **kwargs):
    module = compile_module(source)
    name = pps_name or next(iter(module.ppses))
    result = pipeline_pps(module, name, degree, **kwargs)
    return result


def test_coloring_of_empty_graph():
    assert color_graph([], {}) == {}


def test_coloring_respects_conflicts():
    nodes = ["a", "b", "c", "d"]
    conflicts = {"a": {"b"}, "b": {"a", "c"}, "c": {"b"}, "d": set()}
    coloring = color_graph(nodes, conflicts)
    assert coloring["a"] != coloring["b"]
    assert coloring["b"] != coloring["c"]
    assert set(coloring.values()) <= {0, 1}


def test_coloring_clique_needs_n_colors():
    nodes = list("abc")
    conflicts = {n: set(nodes) - {n} for n in nodes}
    coloring = color_graph(nodes, conflicts)
    assert len(set(coloring.values())) == 3


def test_coloring_deterministic():
    nodes = list("abcdef")
    conflicts = {n: {m for m in nodes if m != n and (ord(n) + ord(m)) % 3 == 0}
                 for n in nodes}
    assert color_graph(nodes, conflicts) == color_graph(nodes, conflicts)


def test_cut_layout_targets_and_control_word():
    result = layouts_for(STANDARD_PPS, 3)
    assert len(result.layouts) == 2
    for layout in result.layouts:
        assert layout.targets
        for target in layout.targets:
            # The control word indexes into the target list.
            assert layout.targets[layout.target_index(target)] == target


def test_prologue_variables_never_transmitted():
    result = layouts_for("""
        pipe q;
        pps p {
            int config = 12345;
            for (;;) {
                int v = pipe_recv(q);
                trace(1, v + config);
                trace(2, v * config);
            }
        }
    """, 2)
    for layout in result.layouts:
        for reg in layout.variables:
            assert not reg.name.startswith("config")


def test_packed_never_wider_than_unified():
    result = layouts_for(STANDARD_PPS, 4)
    for layout in result.layouts:
        assert layout.words(Strategy.PACKED) <= layout.words(Strategy.UNIFIED)
        assert layout.words(Strategy.CONDITIONALIZED) <= layout.words(
            Strategy.UNIFIED)


def test_packing_shares_slots_of_exclusive_paths():
    # t2 and t3 are live on exclusive arms (the paper's Figure 9 example):
    # packing must use one slot for both.
    source = """
        pipe q;
        pps p { for (;;) {
            int v = pipe_recv(q);
            int t2 = 0;
            int t3 = 0;
            if (v > 0) { t2 = v * 3; trace(1, 0); }
            else { t3 = v ^ 5; trace(2, 0); }
            if (v > 0) { trace(3, t2 + 1); }
            else { trace(4, t3 + 1); }
        } }
    """
    module = compile_module(source)
    # Find a degree-2 split that separates the defs from the uses.
    result = pipeline_pps(module, "p", 2)
    for layout in result.layouts:
        named = {reg.name.split(".")[0] for reg in layout.variables}
        if {"t2", "t3"} <= named:
            t2 = next(r for r in layout.variables if r.name.startswith("t2"))
            t3 = next(r for r in layout.variables if r.name.startswith("t3"))
            live_together = any(
                t2 in regs and t3 in regs for regs in layout.live_sets.values()
            )
            if not live_together:
                assert layout.slot_of[t2] == layout.slot_of[t3]


def test_pessimistic_interference_degenerates_to_unified():
    module = compile_module(STANDARD_PPS)
    exact = pipeline_pps(module, "worker", 3,
                         knobs=Knobs(interference="exact"))
    pessimistic = pipeline_pps(module, "worker", 3,
                               knobs=Knobs(interference="pessimistic"))
    for exact_layout, worst_layout in zip(exact.layouts, pessimistic.layouts):
        assert worst_layout.slot_count == len(worst_layout.variables)
        assert exact_layout.slot_count <= worst_layout.slot_count


def test_live_sets_subset_of_union():
    result = layouts_for(STANDARD_PPS, 4)
    for layout in result.layouts:
        union = set(layout.variables)
        for regs in layout.live_sets.values():
            assert set(regs) <= union
