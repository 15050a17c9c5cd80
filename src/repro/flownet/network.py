"""Flow-network representation.

Nodes are referenced by arbitrary hashable keys; internally they are dense
integer indices.  Edges are stored as paired half-edges (an edge and its
reverse residual), the standard layout for push-relabel.

"Infinite" capacity is a large finite sentinel; a minimum cut whose value
reaches :data:`INFINITE_CAPACITY` means the requested partition is
infeasible (it would cut a dependence edge).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

#: Sentinel for uncuttable edges (dependence-direction constraints).
INFINITE_CAPACITY = 10**15

#: Capacities at or above this are treated as infinite.  An ∞ edge can
#: never saturate (total finite capacity is far below the sentinel), so
#: its forward residual status is static — the solver exploits that with
#: precomputed ∞ neighbor lists.
INF_THRESHOLD = INFINITE_CAPACITY // 2


@dataclass(slots=True)
class Edge:
    """Half of an edge pair.  ``rev`` indexes the paired reverse edge in
    ``edges``; residual capacity is ``cap - flow``."""

    src: int
    dst: int
    cap: int
    flow: int = 0
    rev: int = -1


class FlowNetwork:
    """A directed flow network with node weights (for balanced cuts)."""

    def __init__(self):
        self.edges: list[Edge] = []
        # node -> the Edge at each of its slots (forward edges and the
        # reverse stubs of its in-edges, so every slot's src is the node).
        self.adjacency_edges: list[list[Edge]] = []
        # ∞ edges never saturate, so the residual graph always contains
        # them: the BFS loops walk these static int lists for ∞ edges
        # and only pay the cap/flow check on the finite remainder.
        self.inf_out: list[list[int]] = []   # node -> dst of ∞ out-edges
        self.inf_in: list[list[int]] = []    # node -> src of ∞ in-edges
        self.fin_edges: list[list[Edge]] = []    # finite slot edges
        self.fin_redges: list[list[Edge]] = []   # finite paired reverses
        self.weights: list[int] = []
        self._keys: list[Hashable] = []
        self._index: dict[Hashable, int] = {}
        self.source: int | None = None
        self.sink: int | None = None

    # -- construction --------------------------------------------------------

    def add_node(self, key: Hashable, weight: int = 0) -> int:
        if key in self._index:
            raise ValueError(f"duplicate node key {key!r}")
        index = len(self._keys)
        self._index[key] = index
        self._keys.append(key)
        self.adjacency_edges.append([])
        self.inf_out.append([])
        self.inf_in.append([])
        self.fin_edges.append([])
        self.fin_redges.append([])
        self.weights.append(weight)
        return index

    def node(self, key: Hashable) -> int:
        return self._index[key]

    def key_of(self, index: int) -> Hashable:
        return self._keys[index]

    def add_edge(self, src: Hashable, dst: Hashable, cap: int) -> int:
        """Add a directed edge between two keys; returns the forward
        edge index."""
        return self.link(self._index[src], self._index[dst], cap)

    def link(self, u: int, v: int, cap: int) -> int:
        """Add a directed edge between two node indices; returns the
        forward edge index (even; its reverse stub is the next one)."""
        edges = self.edges
        forward_index = len(edges)
        forward = Edge(u, v, cap, 0, forward_index + 1)
        backward = Edge(v, u, 0, 0, forward_index)
        edges.append(forward)
        edges.append(backward)
        self.adjacency_edges[u].append(forward)
        self.adjacency_edges[v].append(backward)
        if cap >= INF_THRESHOLD:
            self.inf_out[u].append(v)
            self.inf_in[v].append(u)
        else:
            self.fin_edges[u].append(forward)
            self.fin_redges[v].append(forward)
        # The reverse stub (cap 0) is always a dynamically-checked slot:
        # it only has residual when the forward edge carries flow.
        self.fin_edges[v].append(backward)
        self.fin_redges[u].append(backward)
        return forward_index

    def set_source(self, key: Hashable) -> None:
        self.source = self._index[key]

    def set_sink(self, key: Hashable) -> None:
        self.sink = self._index[key]

    # -- queries ----------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._keys)

    def reset_flow(self) -> None:
        for edge in self.edges:
            edge.flow = 0
