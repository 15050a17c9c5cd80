"""Tests for the digraph utilities and Tarjan SCC."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.graph import Condensation, Digraph, strongly_connected_components


def build(edges, nodes=()):
    graph = Digraph()
    for node in nodes:
        graph.add_node(node)
    for src, dst in edges:
        graph.add_edge(src, dst)
    return graph


def test_basic_adjacency():
    graph = build([(1, 2), (2, 3), (1, 3)])
    assert graph.succs(1) == [2, 3]
    assert graph.preds(3) == [2, 1]
    assert graph.has_edge(1, 2)
    assert not graph.has_edge(2, 1)


def test_parallel_edges_collapse():
    graph = build([(1, 2), (1, 2)])
    assert graph.succs(1) == [2]


def test_entry_defaults_to_first_node():
    graph = build([(5, 6)])
    assert graph.entry == 5


def test_preorder_postorder_rpo():
    graph = build([(1, 2), (1, 3), (2, 4), (3, 4)])
    pre = graph.dfs_preorder(1)
    assert pre[0] == 1 and set(pre) == {1, 2, 3, 4}
    post = graph.dfs_postorder(1)
    assert post[-1] == 1
    rpo = graph.reverse_postorder(1)
    assert rpo[0] == 1
    assert rpo.index(2) < rpo.index(4)


def test_topological_order_and_cycle_detection():
    dag = build([(1, 2), (2, 3)])
    order = dag.topological_order()
    assert order.index(1) < order.index(2) < order.index(3)
    cyclic = build([(1, 2), (2, 1)])
    with pytest.raises(ValueError, match="cyclic"):
        cyclic.topological_order()


def test_scc_simple_cycle():
    graph = build([(1, 2), (2, 3), (3, 1), (3, 4)])
    components = strongly_connected_components(graph)
    as_sets = [frozenset(c) for c in components]
    assert frozenset({1, 2, 3}) in as_sets
    assert frozenset({4}) in as_sets


def test_condensation_structure():
    graph = build([(1, 2), (2, 1), (2, 3), (3, 4), (4, 3)])
    cond = Condensation(graph)
    assert len(cond) == 2
    cycle_a = cond.component_of[1]
    cycle_b = cond.component_of[3]
    assert cond.component_of[2] == cycle_a
    assert cond.graph.has_edge(cycle_a, cycle_b)
    cond.graph.topological_order()  # a DAG: raises ValueError otherwise


graph_strategy = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)),
    min_size=0, max_size=60,
)


@settings(max_examples=80, deadline=None)
@given(graph_strategy)
def test_scc_matches_networkx(edges):
    graph = build(edges, nodes=range(15))
    ours = {frozenset(c) for c in strongly_connected_components(graph)}
    reference = nx.DiGraph()
    reference.add_nodes_from(range(15))
    reference.add_edges_from(edges)
    theirs = {frozenset(c) for c in nx.strongly_connected_components(reference)}
    assert ours == theirs


@settings(max_examples=50, deadline=None)
@given(graph_strategy)
def test_scc_order_is_reverse_topological(edges):
    graph = build(edges, nodes=range(15))
    components = strongly_connected_components(graph)
    position = {}
    for index, component in enumerate(components):
        for node in component:
            position[node] = index
    # For an edge u -> v in different SCCs, v's component must come first.
    for src, dst in edges:
        if position[src] != position[dst]:
            assert position[dst] < position[src]


@settings(max_examples=50, deadline=None)
@given(graph_strategy)
def test_reversed_graph_flips_edges(edges):
    graph = build(edges, nodes=range(15))
    reverse = graph.reversed()
    for src, dst in graph.edges():
        assert reverse.has_edge(dst, src)
    assert len(reverse.edges()) == len(graph.edges())
