"""Tests for the Figure-5 flow-network construction."""

from repro.analysis.cfg import find_pps_loop
from repro.analysis.dependence_graph import LoopDependenceModel
from repro.flownet.model import (
    SINK,
    SOURCE,
    build_cut_network,
    unit_key,
)
from repro.flownet.network import INFINITE_CAPACITY
from repro.ir.clone import clone_function
from repro.machine.costs import NN_RING, SCRATCH_RING
from repro.ssa import construct_ssa

from helpers import STANDARD_PPS, compile_module

_INF = INFINITE_CAPACITY // 2


def model_of(source, pps=None):
    module = compile_module(source)
    name = pps or next(iter(module.ppses))
    ssa = clone_function(module.pps(name))
    construct_ssa(ssa)
    return LoopDependenceModel(ssa, find_pps_loop(ssa))


def network_for(model, costs=NN_RING, placed=None):
    remaining = set(model.units.members) - set(placed or ())
    return build_cut_network(model, remaining, set(placed or ()), costs)


def keys_of(net):
    return {net.key_of(index) for index in range(net.node_count)}


def edges_of(net):
    return [(net.key_of(e.src), net.key_of(e.dst), e.cap)
            for i, e in enumerate(net.edges) if i % 2 == 0]


def test_source_and_sink_anchors():
    model = model_of(STANDARD_PPS)
    net = network_for(model).network
    edge_list = edges_of(net)
    assert (SOURCE, unit_key(model.header_unit), INFINITE_CAPACITY) in edge_list
    assert (unit_key(model.latch_unit), SINK, INFINITE_CAPACITY) in edge_list


def test_every_remaining_unit_is_a_node():
    model = model_of(STANDARD_PPS)
    net = network_for(model).network
    for unit in model.units.members:
        assert unit_key(unit) in keys_of(net)
        index = net.node(unit_key(unit))
        assert net.weights[index] == model.unit_weight(unit)


def test_variable_nodes_carry_vcost():
    model = model_of(STANDARD_PPS)
    net = network_for(model).network
    edge_list = edges_of(net)
    var_defs = [(src, dst, cap) for src, dst, cap in edge_list
                if isinstance(dst, tuple) and dst[0] == "var"
                and src != SOURCE]
    assert var_defs, "cross-unit SSA values must appear as variable nodes"
    for src, dst, cap in var_defs:
        assert cap == NN_RING.vcost(1)
    # Variable -> use edges are uncuttable.
    var_uses = [(src, dst, cap) for src, dst, cap in edge_list
                if isinstance(src, tuple) and src[0] == "var"]
    assert var_uses
    assert all(cap >= _INF for _, _, cap in var_uses)


def test_scratch_ring_raises_definition_edge_cost():
    model = model_of(STANDARD_PPS)
    nn = network_for(model, NN_RING).network
    scratch = network_for(model, SCRATCH_RING).network

    def total_def_cost(net):
        return sum(cap for src, dst, cap in edges_of(net)
                   if isinstance(dst, tuple) and dst[0] == "var"
                   and cap < _INF)

    assert total_def_cost(scratch) > total_def_cost(nn)


def test_control_nodes_for_branches():
    model = model_of(STANDARD_PPS)
    net = network_for(model).network
    control_defs = [(src, dst, cap) for src, dst, cap in edges_of(net)
                    if isinstance(dst, tuple) and dst[0] == "ctl"]
    assert control_defs, "branch decisions must appear as control nodes"
    for _, _, cap in control_defs:
        assert cap == NN_RING.ccost


def test_constraint_back_edges_present():
    model = model_of(STANDARD_PPS)
    net = network_for(model).network
    unit_to_unit = [(src, dst, cap) for src, dst, cap in edges_of(net)
                    if isinstance(src, tuple) and src[0] == "unit"
                    and isinstance(dst, tuple) and dst[0] == "unit"]
    assert unit_to_unit
    # Unit-to-unit edges are either ∞ direction constraints or finite
    # elided single-use def edges (a cuttable transmission cost).  Every
    # finite def edge src -> dst must be protected by the matching ∞
    # back-constraint dst -> src, or a cut could order the use before
    # its def.
    constraints = {(src, dst) for src, dst, cap in unit_to_unit
                   if cap >= _INF}
    assert constraints, "direction constraints must be present"
    for src, dst, cap in unit_to_unit:
        if cap < _INF:
            assert (dst, src) in constraints, \
                "cuttable def edges need an uncuttable back-constraint"


def test_placed_units_forward_from_source():
    model = model_of(STANDARD_PPS)
    # Place the header's unit and everything only it depends on.
    placed = {model.header_unit}
    cut_net = build_cut_network(model, set(model.units.members) - placed,
                                placed, NN_RING)
    net = cut_net.network
    assert unit_key(model.header_unit) not in keys_of(net)
    forwarded = [(src, dst, cap) for src, dst, cap in edges_of(net)
                 if src == SOURCE and isinstance(dst, tuple)
                 and dst[0] in ("var", "ctl")]
    assert forwarded, "values defined in placed stages must enter from the source"
    assert all(cap < _INF for _, _, cap in forwarded), \
        "forwarding costs again (it occupies the next message too)"


def test_units_of_cut_roundtrip():
    model = model_of(STANDARD_PPS)
    cut_net = network_for(model)
    keys = {unit_key(unit) for unit in list(model.units.members)[:3]}
    keys.add(("var", 123, "%x"))
    assert cut_net.units_of_cut(keys) == set(list(model.units.members)[:3])
