"""Tests for push-relabel max-flow (cross-checked against networkx)."""

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.flownet.network import INFINITE_CAPACITY, FlowNetwork
from repro.flownet.push_relabel import PushRelabel


def make(edges, n):
    net = FlowNetwork()
    graph = nx.DiGraph()
    for node in range(n):
        net.add_node(node, weight=1)
        graph.add_node(node)
    for src, dst, cap in edges:
        net.add_edge(src, dst, cap)
        if graph.has_edge(src, dst):
            graph[src][dst]["capacity"] += cap
        else:
            graph.add_edge(src, dst, capacity=cap)
    net.set_source(0)
    net.set_sink(n - 1)
    return net, graph


def cut_value(net, source_side):
    """Capacity of the cut defined by ``source_side``."""
    return sum(edge.cap for edge in net.edges if edge.cap > 0
               and edge.src in source_side and edge.dst not in source_side)


def test_single_edge():
    net, _ = make([(0, 1, 7)], 2)
    assert PushRelabel(net).max_flow() == 7


def test_bottleneck_path():
    net, _ = make([(0, 1, 10), (1, 2, 3), (2, 3, 10)], 4)
    solver = PushRelabel(net)
    assert solver.max_flow() == 3
    side = solver.min_cut_source_side()
    assert 0 in side and 3 not in side
    assert cut_value(net, side) == 3


def test_parallel_paths_sum():
    net, _ = make([(0, 1, 4), (1, 3, 4), (0, 2, 5), (2, 3, 5)], 4)
    assert PushRelabel(net).max_flow() == 9


def test_disconnected_is_zero():
    net, _ = make([(0, 1, 5)], 3)
    solver = PushRelabel(net)
    assert solver.max_flow() == 0
    assert 2 not in solver.min_cut_source_side() or True  # any side is fine
    assert solver.flow_value() == 0


def test_resume_after_adding_source_edge():
    net, _ = make([(0, 1, 2), (1, 2, 10), (2, 3, 10)], 4)
    solver = PushRelabel(net)
    assert solver.max_flow() == 2
    net.add_edge(0, 2, 5)
    assert solver.resume() == 7


def test_resume_with_infinite_collapse_edge():
    net, _ = make([(0, 1, 2), (1, 3, 4), (2, 3, 6)], 4)
    solver = PushRelabel(net)
    assert solver.max_flow() == 2
    net.add_edge(0, 2, INFINITE_CAPACITY)  # contract node 2 into the source
    assert solver.resume() == 2 + 6


edge_strategy = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9),
              st.integers(min_value=1, max_value=25)),
    min_size=1, max_size=45,
).map(lambda items: [(s, d, c) for s, d, c in items if s != d])


@settings(max_examples=80, deadline=None)
@given(edge_strategy)
def test_max_flow_matches_networkx(edges):
    net, graph = make(edges, 10)
    got = PushRelabel(net).max_flow()
    want = nx.maximum_flow_value(graph, 0, 9)
    assert got == want


@settings(max_examples=50, deadline=None)
@given(edge_strategy)
def test_min_cut_value_equals_flow(edges):
    net, _ = make(edges, 10)
    solver = PushRelabel(net)
    flow = solver.max_flow()
    side = solver.min_cut_source_side()
    assert 0 in side and 9 not in side
    assert cut_value(net, side) == flow
    other = set(range(10)) - solver.min_cut_sink_side()
    other.add(0)
    other.discard(9)
    assert cut_value(net, other) == flow  # maximal min cut too


@settings(max_examples=40, deadline=None)
@given(edge_strategy, st.lists(st.integers(1, 8), min_size=1, max_size=3))
def test_incremental_resume_matches_scratch(edges, collapse_nodes):
    net, _ = make(edges, 10)
    solver = PushRelabel(net)
    solver.max_flow()
    reference_net, _ = make(edges, 10)
    for node in collapse_nodes:
        net.add_edge(0, node, INFINITE_CAPACITY)
        reference_net.add_edge(0, node, INFINITE_CAPACITY)
    warm = solver.resume()
    cold = PushRelabel(reference_net).max_flow()
    assert warm == cold
