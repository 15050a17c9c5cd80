"""Goldberg–Tarjan push-relabel maximum flow (paper reference [12]).

FIFO active-node selection with current-arc discharge and periodic global
relabeling.  The solver supports *warm restarts*: after the balanced-cut
loop collapses nodes into the source (by adding an infinite-capacity edge
from the source), ``resume`` keeps the existing preflow, re-saturates the
source edges, refreshes labels, and continues — the incremental scheme the
paper describes in §3.3 (implemented with exact-distance relabeling, which
keeps the labeling valid by construction).
"""

from __future__ import annotations

from repro.flownet.network import FlowNetwork

#: Discharges between periodic global relabels, as a multiple of the node
#: count.  Any positive value yields the same maximum flow (and therefore
#: the same canonical min-cut sides); it only trades BFS passes against
#: wasted low-label discharge work.  The balanced-cut collapse loop mostly
#: re-solves after tiny perturbations, where fresh exact distances let the
#: new excess drain almost directly — measured on the benchmark suite,
#: n/2 beats the textbook 4n by ~3x less discharge work.
RELABEL_PERIOD_FACTOR = 0.5


class PushRelabel:
    """Max-flow / min-cut solver bound to one :class:`FlowNetwork`."""

    def __init__(self, network: FlowNetwork):
        assert network.source is not None and network.sink is not None
        self.network = network
        self.source = network.source
        self.sink = network.sink
        count = network.node_count
        self.excess = [0] * count
        self.label = [0] * count
        self._active: list[int] = []
        self._active_head = 0
        self._in_queue = [False] * count
        self._current = [0] * count  # current-arc position per node
        self._work_since_relabel = 0
        self._started = False
        #: Cumulative discharge operations (a machine-independent work
        #: metric; surfaced per cut in the diagnostics).
        self.work = 0

    # -- public API -------------------------------------------------------------

    def max_flow(self) -> int:
        """Compute max flow from scratch."""
        self.network.reset_flow()
        count = self.network.node_count
        self.excess = [0] * count
        self._started = True
        self._global_relabel()
        self.label[self.source] = count
        self._saturate_source()
        self._discharge_loop()
        return self.flow_value()

    def resume(self, *, relabel: bool = True) -> int:
        """Continue after network edges were added (warm restart).

        Keeps the current flow as a preflow (the excess bookkeeping stays
        exact across collapses — adding edges does not change any flow),
        saturates source edges, and recomputes exact labels (global
        relabel) so the labeling is valid.

        ``relabel=False`` skips the global relabel.  That is sound when
        every edge added since the last solve leaves the source (the
        source-collapse case): saturating those edges removes their
        forward residual, and the reverse residuals they create point
        *into* the source, which no simple augmenting path can use — so
        the pre-existing exact labeling still certifies termination at a
        maximum flow.  Edges added into the sink create forward residual
        edges that can carry new flow, so sink-side collapses must keep
        the full relabel.
        """
        if not self._started:
            return self.max_flow()
        count = self.network.node_count
        if relabel:
            self._global_relabel()
            self.label[self.source] = count
        self._saturate_source()
        excess = self.excess
        source = self.source
        sink = self.sink
        for node in range(count):
            if excess[node] > 0 and node != source and node != sink:
                self._enqueue(node)
        self._discharge_loop()
        return self.flow_value()

    def flow_value(self) -> int:
        """Current net flow into the sink."""
        total = 0
        for edge in self.network.adjacency_edges[self.sink]:
            total -= edge.flow  # reverse edges carry -inflow
        return total

    def min_cut_source_side(self) -> set[int]:
        """Nodes reachable from the source in the residual graph."""
        return self._residual_reach(self.source, forward=True)

    def min_cut_sink_side(self) -> set[int]:
        """Nodes that can reach the sink in the residual graph."""
        return self._residual_reach(self.sink, forward=False)

    def cut_value(self, source_side: set[int]) -> int:
        """Capacity of the cut defined by ``source_side``."""
        total = 0
        for edge in self.network.edges:
            if edge.cap > 0 and edge.src in source_side and edge.dst not in source_side:
                total += edge.cap
        return total

    # -- internals -------------------------------------------------------------

    def _enqueue(self, node: int) -> None:
        if not self._in_queue[node]:
            self._in_queue[node] = True
            self._active.append(node)

    def _saturate_source(self) -> None:
        edges = self.network.edges
        excess = self.excess
        source = self.source
        sink = self.sink
        for edge in self.network.adjacency_edges[source]:
            delta = edge.cap - edge.flow
            if delta <= 0:
                continue
            edge.flow += delta
            edges[edge.rev].flow -= delta
            dst = edge.dst
            excess[dst] += delta
            if dst != source and dst != sink:
                self._enqueue(dst)

    def _global_relabel(self) -> None:
        """Set labels to exact residual BFS distances.

        Nodes that can reach the sink get their residual distance to it;
        nodes that cannot get ``n + (residual distance to the source)``, the
        standard two-phase labeling that lets stranded excess drain back.
        """
        network = self.network
        inf_in = network.inf_in
        fin_redges = network.fin_redges
        count = network.node_count
        unset = 2 * count + 1
        distance = [unset] * count

        def bfs(start: int, base: int) -> None:
            if distance[start] != unset:
                return
            distance[start] = base
            queue = [start]
            head = 0
            while head < len(queue):
                node = queue[head]
                head += 1
                next_distance = distance[node] + 1
                # ∞ in-edges always have residual capacity; finite paired
                # reverses (real finite edges and stubs of our outgoing
                # edges) are checked dynamically.
                for src in inf_in[node]:
                    if distance[src] == unset:
                        distance[src] = next_distance
                        queue.append(src)
                for reverse in fin_redges[node]:
                    if reverse.cap > reverse.flow:
                        src = reverse.src
                        if distance[src] == unset:
                            distance[src] = next_distance
                            queue.append(src)

        bfs(self.sink, 0)
        bfs(self.source, count)
        for node in range(count):
            if distance[node] == unset:
                distance[node] = 2 * count
        self.label = distance
        self._current = [0] * count
        self._work_since_relabel = 0

    def _discharge_loop(self) -> None:
        network = self.network
        count = network.node_count
        relabel_period = max(int(RELABEL_PERIOD_FACTOR * count), 64)
        limit = 2 * count + 1
        source = self.source
        sink = self.sink
        active = self._active
        work = 0
        # The per-node discharge is inlined: it runs hundreds of
        # thousands of times per partition, so the name bindings are
        # hoisted out of the loop entirely.  A global relabel replaces
        # self.label / self._current (and nothing else), so only those
        # two are re-fetched, right after relabeling.
        edges = network.edges
        adjacency_all = network.adjacency_edges
        excess = self.excess
        in_queue = self._in_queue
        label = self.label
        current = self._current
        since_relabel = self._work_since_relabel
        head = self._active_head
        while head < len(active):
            node = active[head]
            head += 1
            in_queue[node] = False
            adjacency = adjacency_all[node]
            degree = len(adjacency)
            arc = current[node]
            label_node = label[node]
            remaining = excess[node]
            while remaining > 0:
                if arc >= degree:
                    # Full scan without push: relabel to the exact minimum.
                    new_label = None
                    for edge in adjacency:
                        if edge.cap > edge.flow:
                            candidate = label[edge.dst] + 1
                            if new_label is None or candidate < new_label:
                                new_label = candidate
                    if new_label is None or new_label > limit:
                        # No residual edge at all: the excess is truly
                        # stranded (only on disconnected inputs).
                        break
                    label[node] = label_node = new_label
                    arc = 0
                    continue
                edge = adjacency[arc]
                residual = edge.cap - edge.flow
                if residual > 0 and label_node == label[edge.dst] + 1:
                    delta = remaining if remaining < residual else residual
                    edge.flow += delta
                    edges[edge.rev].flow -= delta
                    remaining -= delta
                    dst = edge.dst
                    excess[dst] += delta
                    if dst != source and dst != sink and not in_queue[dst]:
                        in_queue[dst] = True
                        active.append(dst)
                else:
                    arc += 1
            excess[node] = remaining
            current[node] = arc
            work += 1
            since_relabel += 1
            if head >= len(active):
                del active[:]
                head = 0
            if since_relabel >= relabel_period:
                self._global_relabel()
                self.label[self.source] = count
                label = self.label
                current = self._current
                since_relabel = 0
        del active[:]
        self._active_head = 0
        self._work_since_relabel = since_relabel
        self.work += work

    def _residual_reach(self, start: int, *, forward: bool) -> set[int]:
        network = self.network
        seen = {start}
        queue = [start]
        head = 0
        if forward:
            inf_out = network.inf_out
            fin_edges = network.fin_edges
            while head < len(queue):
                node = queue[head]
                head += 1
                for dst in inf_out[node]:
                    if dst not in seen:
                        seen.add(dst)
                        queue.append(dst)
                for edge in fin_edges[node]:
                    if edge.cap > edge.flow:
                        dst = edge.dst
                        if dst not in seen:
                            seen.add(dst)
                            queue.append(dst)
        else:
            # Who can reach `start`: follow residual edges backwards.  ∞
            # in-edges always qualify; finite paired reverses (real
            # finite in-edges and stubs of outgoing flow) are checked.
            inf_in = network.inf_in
            fin_redges = network.fin_redges
            while head < len(queue):
                node = queue[head]
                head += 1
                for src in inf_in[node]:
                    if src not in seen:
                        seen.add(src)
                        queue.append(src)
                for reverse in fin_redges[node]:
                    if reverse.cap > reverse.flow:
                        src = reverse.src
                        if src not in seen:
                            seen.add(src)
                            queue.append(src)
        return seen
