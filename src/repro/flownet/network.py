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

    @property
    def residual(self) -> int:
        return self.cap - self.flow


class FlowNetwork:
    """A directed flow network with node weights (for balanced cuts)."""

    def __init__(self):
        self.edges: list[Edge] = []
        self.adjacency: list[list[int]] = []  # node -> edge indices
        # Object views of the adjacency, maintained in lockstep: the Edge
        # at each adjacency slot, and its paired reverse Edge.  The solver
        # hot loops (discharge, relabel BFS, residual reachability) walk
        # these to skip the index->list->index double indirection.
        self.adjacency_edges: list[list[Edge]] = []
        self.adjacency_redges: list[list[Edge]] = []
        self.forward_edges: list[Edge] = []
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
        self.adjacency.append([])
        self.adjacency_edges.append([])
        self.adjacency_redges.append([])
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

    def has_node(self, key: Hashable) -> bool:
        return key in self._index

    def add_edge(self, src: Hashable, dst: Hashable, cap: int) -> int:
        """Add a directed edge; returns the forward edge index."""
        u = self._index[src]
        v = self._index[dst]
        forward = Edge(u, v, cap)
        backward = Edge(v, u, 0)
        forward_index = len(self.edges)
        backward_index = forward_index + 1
        forward.rev = backward_index
        backward.rev = forward_index
        self.edges.append(forward)
        self.edges.append(backward)
        self.adjacency[u].append(forward_index)
        self.adjacency[v].append(backward_index)
        self.adjacency_edges[u].append(forward)
        self.adjacency_edges[v].append(backward)
        self.adjacency_redges[u].append(backward)
        self.adjacency_redges[v].append(forward)
        self.forward_edges.append(forward)
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

    def total_weight(self) -> int:
        return sum(self.weights)

    def reset_flow(self) -> None:
        for edge in self.edges:
            edge.flow = 0

    def clone(self) -> "FlowNetwork":
        """Deep copy (used to compare solver variants on the same input)."""
        copy = FlowNetwork()
        copy._keys = list(self._keys)
        copy._index = dict(self._index)
        copy.weights = list(self.weights)
        copy.adjacency = [list(edge_ids) for edge_ids in self.adjacency]
        copy.edges = [Edge(e.src, e.dst, e.cap, e.flow, e.rev) for e in self.edges]
        edges = copy.edges
        copy.adjacency_edges = [[edges[i] for i in ids]
                                for ids in copy.adjacency]
        copy.adjacency_redges = [[edges[edges[i].rev] for i in ids]
                                 for ids in copy.adjacency]
        copy.forward_edges = edges[0::2]
        copy.inf_out = [list(ids) for ids in self.inf_out]
        copy.inf_in = [list(ids) for ids in self.inf_in]
        copy.fin_edges = [[e for e in slots if e.cap < INF_THRESHOLD]
                          for slots in copy.adjacency_edges]
        copy.fin_redges = [[e for e in slots if e.cap < INF_THRESHOLD]
                           for slots in copy.adjacency_redges]
        copy.source = self.source
        copy.sink = self.sink
        return copy
