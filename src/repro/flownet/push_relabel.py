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
        # Nodes a discharge left holding excess (no residual edge out):
        # after a discharge loop, the only non-terminal nodes with excess.
        self._stranded: list[int] = []
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
        self._stranded = []
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
        # Every other node that holds excess was stranded by an earlier
        # loop: queue those in ascending order, as a full scan would.
        excess = self.excess
        stranded, self._stranded = self._stranded, []
        for node in sorted(set(stranded)):
            if excess[node] > 0:
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
            push = queue.append
            # A list iterator sees the items appended while it runs.
            for node in queue:
                next_distance = distance[node] + 1
                # ∞ in-edges always have residual capacity; finite paired
                # reverses (real finite edges and stubs of our outgoing
                # edges) are checked dynamically.
                for src in inf_in[node]:
                    if distance[src] == unset:
                        distance[src] = next_distance
                        push(src)
                for reverse in fin_redges[node]:
                    src = reverse.src
                    if distance[src] == unset and reverse.cap > reverse.flow:
                        distance[src] = next_distance
                        push(src)

        bfs(self.sink, 0)
        bfs(self.source, count)
        self.label = [2 * count if value == unset else value
                      for value in distance]
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
            # Scan arcs from the current one; a push that leaves excess
            # saturated its edge, so the scan moves on, and one that
            # drains it keeps the arc for the next discharge.  A full
            # scan without draining relabels to the exact minimum.
            while remaining > 0:
                want = label_node - 1
                for arc in range(arc, degree):
                    edge = adjacency[arc]
                    # The label test first: most arcs fail it.
                    if label[edge.dst] != want:
                        continue
                    residual = edge.cap - edge.flow
                    if residual > 0:
                        delta = remaining if remaining < residual else residual
                        edge.flow += delta
                        edges[edge.rev].flow -= delta
                        remaining -= delta
                        dst = edge.dst
                        excess[dst] += delta
                        if (dst != source and dst != sink
                                and not in_queue[dst]):
                            in_queue[dst] = True
                            active.append(dst)
                        if not remaining:
                            break
                else:
                    new_label = min([label[edge.dst] for edge in adjacency
                                     if edge.cap > edge.flow],
                                    default=limit) + 1
                    if new_label > limit:
                        # No residual edge at all: the excess is truly
                        # stranded (only on disconnected inputs).
                        self._stranded.append(node)
                        arc = degree
                        break
                    label[node] = label_node = new_label
                    arc = 0
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
        seen = [False] * network.node_count
        seen[start] = True
        queue = [start]
        push = queue.append
        if forward:
            inf_out = network.inf_out
            fin_edges = network.fin_edges
            for node in queue:
                for dst in inf_out[node]:
                    if not seen[dst]:
                        seen[dst] = True
                        push(dst)
                for edge in fin_edges[node]:
                    dst = edge.dst
                    if not seen[dst] and edge.cap > edge.flow:
                        seen[dst] = True
                        push(dst)
        else:
            # Who can reach `start`: follow residual edges backwards.  ∞
            # in-edges always qualify; finite paired reverses (real
            # finite in-edges and stubs of outgoing flow) are checked.
            inf_in = network.inf_in
            fin_redges = network.fin_redges
            for node in queue:
                for src in inf_in[node]:
                    if not seen[src]:
                        seen[src] = True
                        push(src)
                for reverse in fin_redges[node]:
                    src = reverse.src
                    if not seen[src] and reverse.cap > reverse.flow:
                        seen[src] = True
                        push(src)
        return set(queue)
