"""Dominator trees, dominance frontiers, and post-dominance.

Implementation: the Cooper–Harvey–Kennedy iterative algorithm over reverse
postorder, which is simple and fast at PPS scales.  Post-dominance reuses
the same engine on the reversed graph with a virtual exit node that absorbs
every block without successors.
"""

from __future__ import annotations

from repro.analysis.graph import Digraph, Node

#: Virtual exit node used for post-dominance on multi-exit graphs.
VIRTUAL_EXIT = "<virtual-exit>"


class DominatorTree:
    """Immediate dominators, dominance queries, and dominance frontiers."""

    def __init__(self, graph: Digraph, idom: dict[Node, Node], order: list[Node]):
        self.graph = graph
        self.idom = idom  # entry maps to itself
        self.order = order  # reverse postorder
        root = graph.entry
        assert root is not None
        self._children: dict[Node, list[Node]] = {node: [] for node in order}
        for node in order:
            if node != root and node in idom:
                self._children[idom[node]].append(node)

    # -- construction ---------------------------------------------------------

    @classmethod
    def compute(cls, target) -> "DominatorTree":
        """Compute dominators for a :class:`Digraph` or an IR function."""
        if not isinstance(target, Digraph):
            from repro.analysis.cfg import cfg_of

            target = cfg_of(target)
        graph = target
        entry = graph.entry
        assert entry is not None
        order = graph.reverse_postorder()
        index = {node: position for position, node in enumerate(order)}
        idom: dict[Node, Node] = {entry: entry}

        def intersect(a: Node, b: Node) -> Node:
            while a != b:
                while index[a] > index[b]:
                    a = idom[a]
                while index[b] > index[a]:
                    b = idom[b]
            return a

        changed = True
        while changed:
            changed = False
            for node in order:
                if node == entry:
                    continue
                candidates = [pred for pred in graph.preds(node)
                              if pred in idom and pred in index]
                if not candidates:
                    continue
                new_idom = candidates[0]
                for pred in candidates[1:]:
                    new_idom = intersect(pred, new_idom)
                if idom.get(node) != new_idom:
                    idom[node] = new_idom
                    changed = True
        return cls(graph, idom, order)

    # -- queries ------------------------------------------------------------

    def dominates(self, a: Node, b: Node) -> bool:
        """True if ``a`` dominates ``b`` (reflexive)."""
        node = b
        while True:
            if node == a:
                return True
            parent = self.idom.get(node)
            if parent is None or parent == node:
                return False
            node = parent

    def immediate_dominator(self, node: Node) -> Node | None:
        parent = self.idom.get(node)
        if parent is None or parent == node:
            return None
        return parent

    def children(self, node: Node) -> list[Node]:
        return list(self._children.get(node, []))

    def dominance_frontiers(self) -> dict[Node, set[Node]]:
        """Cytron-style dominance frontiers for every node."""
        frontiers: dict[Node, set[Node]] = {node: set() for node in self.order}
        for node in self.order:
            preds = [p for p in self.graph.preds(node) if p in self.idom]
            if len(preds) < 2:
                continue
            for pred in preds:
                runner = pred
                while runner != self.idom[node]:
                    frontiers[runner].add(node)
                    runner = self.idom[runner]
        return frontiers


def post_dominator_tree(graph: Digraph) -> tuple[DominatorTree, Digraph]:
    """Post-dominators of ``graph``.

    Returns ``(tree, augmented_reverse_graph)``.  A virtual exit is added
    with an edge from every node that has no successors; the tree is the
    dominator tree of the reversed, augmented graph rooted at the virtual
    exit.  Raises ``ValueError`` if no node can reach an exit (an infinite
    region) — callers pass the PPS loop *body* graph, whose latch is always
    an exit.
    """
    exits = [node for node in graph.nodes if not graph.succs(node)]
    if not exits:
        raise ValueError("graph has no exit nodes; post-dominance undefined")
    augmented = Digraph()
    for node in graph.nodes:
        augmented.add_node(node)
    augmented.add_node(VIRTUAL_EXIT)
    for src, dst in graph.edges():
        augmented.add_edge(dst, src)
    for exit_node in exits:
        augmented.add_edge(VIRTUAL_EXIT, exit_node)
    augmented.entry = VIRTUAL_EXIT
    return DominatorTree.compute(augmented), augmented
