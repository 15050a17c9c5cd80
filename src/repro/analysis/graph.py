"""Lightweight directed-graph utilities shared by all analyses.

Analyses operate on a :class:`Digraph` over *block names* rather than on IR
objects directly, so the same machinery serves the CFG, the summarized CFG,
the dependence graph, and the flow network's skeleton.
"""

from __future__ import annotations

from typing import Hashable

Node = Hashable


class Digraph:
    """A directed graph with ordered adjacency and an optional entry node."""

    def __init__(self, entry: Node | None = None):
        self.entry = entry
        self._succs: dict[Node, list[Node]] = {}
        self._preds: dict[Node, list[Node]] = {}

    # -- construction ------------------------------------------------------

    def add_node(self, node: Node) -> None:
        if node not in self._succs:
            self._succs[node] = []
            self._preds[node] = []
        if self.entry is None:
            self.entry = node

    def add_edge(self, src: Node, dst: Node) -> None:
        """Add edge ``src -> dst`` (parallel edges are collapsed)."""
        self.add_node(src)
        self.add_node(dst)
        if dst not in self._succs[src]:
            self._succs[src].append(dst)
            self._preds[dst].append(src)

    # -- queries -------------------------------------------------------------

    @property
    def nodes(self) -> list[Node]:
        return list(self._succs)

    def __contains__(self, node: Node) -> bool:
        return node in self._succs

    def __len__(self) -> int:
        return len(self._succs)

    def succs(self, node: Node) -> list[Node]:
        return list(self._succs[node])

    def preds(self, node: Node) -> list[Node]:
        return list(self._preds[node])

    def edges(self) -> list[tuple[Node, Node]]:
        return [(src, dst) for src in self._succs for dst in self._succs[src]]

    def has_edge(self, src: Node, dst: Node) -> bool:
        return src in self._succs and dst in self._succs[src]

    # -- traversals ------------------------------------------------------------

    def reversed(self) -> "Digraph":
        """A new graph with every edge flipped (entry not set)."""
        result = Digraph()
        for node in self.nodes:
            result.add_node(node)
        for src, dst in self.edges():
            result.add_edge(dst, src)
        return result

    def dfs_preorder(self, start: Node | None = None) -> list[Node]:
        start = self.entry if start is None else start
        assert start is not None
        seen: set[Node] = set()
        order: list[Node] = []
        stack = [start]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            order.append(node)
            for succ in reversed(self._succs[node]):
                if succ not in seen:
                    stack.append(succ)
        return order

    def dfs_postorder(self, start: Node | None = None) -> list[Node]:
        start = self.entry if start is None else start
        assert start is not None
        seen: set[Node] = set()
        order: list[Node] = []
        stack: list[tuple[Node, int]] = [(start, 0)]
        seen.add(start)
        while stack:
            node, index = stack[-1]
            succs = self._succs[node]
            if index < len(succs):
                stack[-1] = (node, index + 1)
                succ = succs[index]
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, 0))
            else:
                stack.pop()
                order.append(node)
        return order

    def reverse_postorder(self, start: Node | None = None) -> list[Node]:
        return list(reversed(self.dfs_postorder(start)))

    def reachable_from(self, start: Node) -> set[Node]:
        return set(self.dfs_preorder(start))

    def topological_order(self) -> list[Node]:
        """Kahn topological order; raises ``ValueError`` if cyclic."""
        indegree = {node: len(self._preds[node]) for node in self.nodes}
        ready = [node for node in self.nodes if indegree[node] == 0]
        order: list[Node] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for succ in self._succs[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._succs):
            raise ValueError("graph is cyclic")
        return order

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
        except ValueError:
            return False
        return True


def strongly_connected_components(graph: Digraph) -> list[list[Node]]:
    """Tarjan's algorithm (iterative).  Components are returned in reverse
    topological order of the condensation (callees before callers)."""
    index_counter = 0
    indices: dict[Node, int] = {}
    lowlinks: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    components: list[list[Node]] = []

    for root in graph.nodes:
        if root in indices:
            continue
        work: list[tuple[Node, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                indices[node] = index_counter
                lowlinks[node] = index_counter
                index_counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            succs = graph.succs(node)
            while child_index < len(succs):
                succ = succs[child_index]
                child_index += 1
                if succ not in indices:
                    work[-1] = (node, child_index)
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlinks[node] = min(lowlinks[node], indices[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
            if lowlinks[node] == indices[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.remove(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


class Condensation:
    """The condensation (SCC quotient graph) of a digraph.

    Each SCC becomes a node identified by an integer id; ``members`` maps
    ids to the original nodes and ``component_of`` maps nodes to ids.
    """

    def __init__(self, graph: Digraph):
        components = strongly_connected_components(graph)
        self.members: dict[int, list[Node]] = {}
        self.component_of: dict[Node, int] = {}
        for cid, component in enumerate(components):
            self.members[cid] = component
            for node in component:
                self.component_of[node] = cid
        self.graph = Digraph()
        for cid in self.members:
            self.graph.add_node(cid)
        for src, dst in graph.edges():
            src_cid = self.component_of[src]
            dst_cid = self.component_of[dst]
            if src_cid != dst_cid:
                self.graph.add_edge(src_cid, dst_cid)
        if graph.entry is not None:
            self.graph.entry = self.component_of[graph.entry]

    def __len__(self) -> int:
        return len(self.members)
