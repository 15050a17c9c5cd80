"""Tests for dominator trees, frontiers, and post-dominance."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.dominance import (
    VIRTUAL_EXIT,
    DominatorTree,
    post_dominator_tree,
)
from repro.analysis.graph import Digraph


def build(edges, entry):
    graph = Digraph()
    graph.add_node(entry)
    for src, dst in edges:
        graph.add_edge(src, dst)
    graph.entry = entry
    return graph


def test_diamond_dominators():
    graph = build([("e", "a"), ("e", "b"), ("a", "j"), ("b", "j")], "e")
    dom = DominatorTree.compute(graph)
    assert dom.immediate_dominator("j") == "e"
    assert dom.dominates("e", "j")
    assert not dom.dominates("a", "j")
    assert dom.dominates("e", "a") and dom.immediate_dominator("a") == "e"
    assert dom.dominates("e", "e")  # reflexive, but no strict dominator
    assert dom.immediate_dominator("e") is None


def depth(dom, node):
    """``node``'s depth in the dominator tree (the entry's is 0)."""
    steps = 0
    while (node := dom.immediate_dominator(node)) is not None:
        steps += 1
    return steps


def test_loop_dominators():
    graph = build([("e", "h"), ("h", "b"), ("b", "h"), ("h", "x")], "e")
    dom = DominatorTree.compute(graph)
    assert dom.immediate_dominator("b") == "h"
    assert dom.immediate_dominator("x") == "h"
    assert depth(dom, "x") == depth(dom, "b") == 2


def test_dominance_frontier_of_diamond():
    graph = build([("e", "a"), ("e", "b"), ("a", "j"), ("b", "j")], "e")
    frontiers = DominatorTree.compute(graph).dominance_frontiers()
    assert frontiers["a"] == {"j"}
    assert frontiers["b"] == {"j"}
    assert frontiers["e"] == set()


def test_dominance_frontier_of_loop():
    graph = build([("e", "h"), ("h", "b"), ("b", "h"), ("h", "x")], "e")
    frontiers = DominatorTree.compute(graph).dominance_frontiers()
    assert "h" in frontiers["b"]  # back edge puts the header in b's frontier
    assert "h" in frontiers["h"]  # and in its own (loop) frontier


def test_children_partition_nodes():
    graph = build([("e", "a"), ("a", "b"), ("e", "c")], "e")
    dom = DominatorTree.compute(graph)
    assert set(dom.children("e")) == {"a", "c"}
    assert dom.children("a") == ["b"]


def test_post_dominators_diamond():
    graph = build([("e", "a"), ("e", "b"), ("a", "j"), ("b", "j")], "e")
    pdom, _ = post_dominator_tree(graph)
    assert pdom.dominates("j", "e")
    assert pdom.dominates("j", "a")
    assert not pdom.dominates("a", "e")


def test_post_dominators_multi_exit_uses_virtual_exit():
    graph = build([("e", "a"), ("e", "b")], "e")  # both a and b are exits
    pdom, augmented = post_dominator_tree(graph)
    assert VIRTUAL_EXIT in augmented.nodes
    assert pdom.immediate_dominator("e") == VIRTUAL_EXIT or \
        pdom.dominates(VIRTUAL_EXIT, "e")
    assert not pdom.dominates("a", "e")


def test_post_dominance_rejects_exitless_graph():
    graph = build([("a", "b"), ("b", "a")], "a")
    with pytest.raises(ValueError):
        post_dominator_tree(graph)


def random_cfg(seed_edges):
    """A connected-ish random CFG rooted at 0."""
    graph = Digraph()
    graph.add_node(0)
    for src, dst in seed_edges:
        # Keep it rooted: only allow edges from lower ids plus extras.
        graph.add_edge(src % 10, dst % 12)
    graph.entry = 0
    # Restrict to nodes reachable from 0.
    reachable = graph.reachable_from(0)
    trimmed = Digraph()
    trimmed.add_node(0)
    for src, dst in graph.edges():
        if src in reachable and dst in reachable:
            trimmed.add_edge(src, dst)
    trimmed.entry = 0
    return trimmed


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 11)),
                min_size=1, max_size=40))
def test_idom_matches_networkx(edges):
    graph = random_cfg(edges)
    dom = DominatorTree.compute(graph)
    reference = nx.DiGraph()
    reference.add_nodes_from(graph.nodes)
    reference.add_edges_from(graph.edges())
    expected = nx.immediate_dominators(reference, 0)
    for node in graph.nodes:
        ours = dom.immediate_dominator(node)
        theirs = expected.get(node)
        if node == 0:
            assert ours is None
        else:
            assert ours == theirs, (node, ours, theirs)
