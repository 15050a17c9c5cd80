"""Balanced minimum cuts (paper §3.3, Figures 6 and 7).

The heuristic is the iterative balanced push-relabel scheme adapted from
Yang & Wong [13]: repeatedly compute a minimum cut; while the source side
is lighter than the balance envelope, collapse the source side plus one
cut-adjacent node into the source; while it is heavier, collapse the sink
side plus one cut-adjacent node into the sink; recompute and repeat.

Collapsing a node ``v`` into the source (sink) is realized by adding an
infinite-capacity edge ``s -> v`` (``v -> t``), which is equivalent to node
contraction for min-cut purposes but keeps the graph static, so the
push-relabel solver can *warm-restart* from the existing preflow
(``incremental=True`` — the paper's §3.3 incremental scheme, implemented
with exact-distance relabeling so the labeling stays valid).

The balance envelope is ``(1 ± ε) · target`` where ε is the balance
variance (1/16 in the paper's product compiler).  When no cut lands in the
envelope (e.g. one dependence SCC holds most of the weight — the paper's
QM/Scheduler case), the feasible cut whose weight came closest is returned
with ``balanced=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Hashable

from repro.flownet.network import INFINITE_CAPACITY, FlowNetwork
from repro.flownet.push_relabel import PushRelabel
from repro.obs import tracer as obs

#: Capacity at or above this threshold is treated as uncuttable when
#: preflighting collapse feasibility.
_INF_THRESHOLD = INFINITE_CAPACITY // 2

_DST = attrgetter("dst")


@dataclass
class BalancedCutResult:
    """Outcome of one balanced minimum cut.

    ``source_side`` contains node *keys* (source/sink sentinels excluded).
    ``cut_value`` is the capacity crossing the cut; ``balanced`` tells
    whether the balance envelope was met (otherwise the closest feasible
    cut is returned).
    """

    source_side: set[Hashable]
    cut_value: int
    balanced: bool
    iterations: int = 0
    target: float = 0.0
    weight: int = 0
    dim_weights: tuple = ()
    dim_deviation: float = 0.0
    pr_work: int = 0        # push-relabel discharge operations expended


@dataclass
class BalancedCut:
    """Balanced min-cut driver over a :class:`FlowNetwork`.

    Attributes:
        epsilon: Balance variance ε ∈ [0, 1).
        incremental: Warm-restart push-relabel after each collapse (the
            paper's incremental scheme) instead of recomputing from scratch.
        max_iterations: Safety bound on collapse rounds.
    """

    epsilon: float = 1.0 / 16.0
    incremental: bool = True
    max_iterations: int = 10_000
    forceable: object = None  # predicate(key) -> bool; None = every node

    def _side_dims(self, side: set[int]) -> tuple:
        """Per-dimension weight of a cut side (empty when no dims)."""
        if not self._dims:
            return ()
        n = len(self._dim_targets)
        totals = [0.0] * n
        # Iterate the dims map, not the side: only program nodes carry
        # vectors, while sides also hold variable/control nodes.
        for node, vector in self._dims.items():
            if node in side:
                for index in range(n):
                    totals[index] += vector[index]
        return tuple(totals)

    def _deviation(self, dim_weights: tuple) -> float:
        """Worst relative deviation from the per-dimension targets."""
        if not dim_weights or not self._dim_targets:
            return 0.0
        worst = 0.0
        for value, target in zip(dim_weights, self._dim_targets):
            if target > 0:
                worst = max(worst, abs(value - target) / target)
        return worst

    def _with_dims(self, result: BalancedCutResult, side: set[int]) -> None:
        result.dim_weights = self._side_dims(side)
        result.dim_deviation = self._deviation(result.dim_weights)

    def find(self, network: FlowNetwork, target_weight: float, *,
             dims: dict[int, tuple] | None = None,
             dim_targets: tuple | None = None) -> BalancedCutResult:
        """Find a minimum cut whose source side weighs ≈ ``target_weight``.

        ``network`` is consumed (collapse edges are added); build another
        if the original must survive.

        ``dims``/``dim_targets`` optionally add *dimensional* balance (the
        paper's flexible weight function): each node carries a weight
        vector (e.g. profiled per-traffic-class instruction counts) and,
        among the scalar-balanced cuts, the one minimizing the worst
        per-dimension deviation from ``dim_targets`` is chosen.
        """
        assert network.source is not None and network.sink is not None
        weights = network.weights
        source = network.source
        low = (1.0 - self.epsilon) * target_weight
        high = (1.0 + self.epsilon) * target_weight
        self._dims = dims or {}
        self._dim_targets = dim_targets or ()
        count = network.node_count
        # Only *program* nodes may be contracted into the source or sink:
        # variable/control nodes carry ∞ edges to their consumers, and
        # forcing one would wrongly pin every consumer to that side of
        # the cut.  A node's verdict never changes during a search
        # (collapses add edges, not nodes), so it is taken once per node.
        if self.forceable is None:
            self._fmap = [True] * count
        else:
            forceable = self.forceable
            key_of = network.key_of
            self._fmap = [bool(forceable(key_of(node)))
                          for node in range(count)]
        # Edges added after this point are collapse edges (s->v / w->t);
        # a forced node always lands on its forced side of every min cut,
        # so those edges never cross a cut and the frontier only needs
        # each node's neighbors in the network as it is now.
        self._neighbors = [frozenset(map(_DST, slots))
                           for slots in network.adjacency_edges]
        self._all = frozenset(range(count))
        solver = PushRelabel(network)
        solver.max_flow()
        pr_work = 0
        source_forced: set[int] = {source}
        sink_forced: set[int] = {network.sink}
        best: BalancedCutResult | None = None
        best_nodes: set[int] = set()
        iterations = 0

        def side_weight(side: set[int]) -> int:
            # The source is on every source side and does not count.
            return sum(map(weights.__getitem__, side)) - weights[source]

        while iterations < self.max_iterations:
            iterations += 1
            cut_value = solver.flow_value()
            if cut_value >= _INF_THRESHOLD:
                break  # should not happen: collapses are preflighted
            # Every min cut lies between the minimal source side (residual
            # reachability from s) and the maximal one (complement of the
            # nodes reaching t).
            min_side = solver.min_cut_source_side()
            sink_side = solver.min_cut_sink_side()
            min_weight = side_weight(min_side)
            if len(min_side) + len(sink_side) == count:
                # The two sides coincide: one candidate, not two equal ones.
                max_side, max_weight = min_side, min_weight
                sides = ((min_side, min_weight),)
            else:
                max_side = self._all - sink_side
                max_weight = side_weight(max_side)
                sides = ((min_side, min_weight), (max_side, max_weight))
            accepted = False
            for side, weight in sides:
                # source_side stays empty until acceptance: the node->key
                # set is only materialized for the cut actually returned,
                # and the per-dimension weights only where a comparison
                # reads them (between balanced cuts).
                candidate = BalancedCutResult(
                    source_side=set(),
                    cut_value=cut_value,
                    balanced=low <= weight <= high,
                    iterations=iterations,
                    target=target_weight,
                    weight=weight,
                )
                if self._dims and candidate.balanced:
                    self._with_dims(candidate, side)
                if best is None or self._better(candidate, best, target_weight):
                    best = candidate
                    best_nodes = side
                    accepted = True
            balanced_now = (low <= min_weight <= high) or (low <= max_weight <= high)
            obs.instant("cut_iteration", cat="flownet",
                        iteration=iterations, epsilon=self.epsilon,
                        cut_value=cut_value, target=round(target_weight, 1),
                        min_weight=min_weight, max_weight=max_weight,
                        source_side=len(min_side), balanced=balanced_now,
                        accepted=accepted)
            if balanced_now and not self._dims:
                break  # FBB stops at the first balanced minimum cut
            if self._dims and min_weight > high and best is not None \
                    and best.balanced:
                break  # dimension sweep done: the band has been crossed
            if min_weight > high:
                # Even the lightest min cut is too heavy: shed nodes into
                # the sink (accepting a costlier cut).
                grew_source = False
                moved = self._grow(network, min_side, source_forced,
                                   sink_forced, to_source=False)
            elif max_weight < high:
                # Even the heaviest min cut is too light: absorb nodes into
                # the source.
                grew_source = True
                moved = self._grow(network, max_side, source_forced,
                                   sink_forced, to_source=True)
            else:
                # The balance point lies strictly between the extreme min
                # cuts: grow the minimal side one (cheap) node at a time.
                grew_source = True
                moved = self._grow(network, min_side, source_forced,
                                   sink_forced, to_source=True)
            if not moved:
                break
            if self.incremental:
                # Source-side growth only adds (saturated) source edges,
                # so the existing exact labeling stays valid and the
                # global relabel can be skipped (see PushRelabel.resume).
                solver.resume(relabel=not grew_source)
            else:
                pr_work += solver.work
                solver = PushRelabel(network)
                solver.max_flow()

        assert best is not None
        if self._dims and not best.balanced:
            self._with_dims(best, best_nodes)
        best.source_side = {network.key_of(node) for node in best_nodes
                            if node not in (network.source, network.sink)}
        best.iterations = iterations
        best.pr_work = pr_work + solver.work
        return best

    # -- collapse steps ------------------------------------------------------

    def _grow(self, network: FlowNetwork, source_side: set[int],
              source_forced: set[int], sink_forced: set[int], *,
              to_source: bool) -> bool:
        """Contract the side being grown plus one cut-adjacent node into
        the source (``to_source``) or the sink; False if no node fits."""
        frontier = self._pick(network, source_side, source_forced, sink_forced,
                              to_source=to_source)
        if frontier is None:
            return False
        side = source_side if to_source else self._all - source_side
        self._contract(network, side | {frontier},
                       source_forced if to_source else sink_forced,
                       to_source=to_source)
        return True

    def _contract(self, network: FlowNetwork, nodes: set[int],
                  forced: set[int], *, to_source: bool) -> None:
        """Contract every *ready* node of ``nodes`` into the source/sink.

        Readiness is re-evaluated to a fixpoint, so a whole closed side is
        absorbed in topological order; unready members (whose constraint
        neighbors lie outside) are simply left for later rounds.  This
        keeps the forced sets closed under the stage-order constraints —
        the invariant that makes every future contraction feasible.
        The order of the passes (ascending node order each) fixes the
        order of the collapse edges, and with it the solver's next
        discharge order.
        """
        fmap = self._fmap
        pending = {node for node in nodes - forced if fmap[node]}
        link = network.link
        source = network.source
        sink = network.sink
        changed = True
        while changed:
            changed = False
            for node in sorted(pending):
                if not self._ready(network, node, forced, to_source=to_source):
                    continue
                if to_source:
                    link(source, node, INFINITE_CAPACITY)
                else:
                    link(node, sink, INFINITE_CAPACITY)
                forced.add(node)
                pending.discard(node)
                changed = True

    def _frontier(self, network: FlowNetwork, source_side: set[int],
                  *, outward: bool) -> set[int]:
        """Forceable nodes adjacent to the cut.

        Crossing edges (in either direction — constraint edges point
        backwards) seed the search on the side being grown into; the search
        walks *through* non-forceable nodes (variable/control nodes) to the
        nearest forceable program nodes on that side.
        """
        neighbors = self._neighbors
        if outward:
            seeds = set().union(*[neighbors[node] for node in source_side])
            seeds -= source_side
        else:
            seeds = {node for node in source_side
                     if not neighbors[node] <= source_side}
        source = network.source
        sink = network.sink
        seeds.discard(source)
        seeds.discard(sink)
        fmap = self._fmap
        result: set[int] = set()
        seen: set[int] = set(seeds)
        work = list(seeds)
        while work:
            node = work.pop()
            if fmap[node]:
                result.add(node)
                continue
            # Walk through variable/control nodes to their program nodes.
            for neighbor in neighbors[node]:
                if (neighbor in seen or neighbor == source
                        or neighbor == sink):
                    continue
                if (neighbor not in source_side) == outward:
                    seen.add(neighbor)
                    work.append(neighbor)
        return result

    def _pick(self, network: FlowNetwork, source_side: set[int],
              source_forced: set[int], sink_forced: set[int],
              *, to_source: bool) -> int | None:
        """Choose the next node to contract.

        Only *ready* nodes are eligible — nodes whose every stage-order
        predecessor (source growth) / successor (sink growth) is already
        forced — so contraction always peels the constraint DAG from the
        correct end and never pins a mid-program node (which would wedge
        the search).  Cut-adjacent ready nodes are preferred (the min cut
        guides where to grow); ties go to the lightest node, then the
        smallest index for determinism.
        """
        forced = source_forced if to_source else sink_forced
        fmap = self._fmap

        def eligible(node: int) -> bool:
            return (node not in source_forced and node not in sink_forced
                    and fmap[node]
                    and self._ready(network, node, forced,
                                    to_source=to_source)
                    and self._collapse_feasible(network, node, source_forced,
                                                sink_forced,
                                                to_source=to_source))

        # Cut-adjacent candidates first: readiness/feasibility checks are
        # the expensive part, so only when no frontier node qualifies does
        # the search widen to every node (the same pool the exhaustive
        # scan would prefer anyway).
        frontier = self._frontier(network, source_side, outward=to_source)
        pool = [node for node in frontier if eligible(node)]
        if not pool:
            pool = [node for node in self._all - source_forced - sink_forced
                    if eligible(node)]
            if not pool:
                return None
        if self._dims:
            # Prefer nodes dense in the most-deficient dimension (growing
            # the source) or in the most-excessive one (shedding to the
            # sink), so growth interleaves profile classes across stages.
            side_dims = self._side_dims(source_side)
            deficit_dim = None
            worst = 0.0
            for index, target in enumerate(self._dim_targets):
                if target <= 0:
                    continue
                gap = (target - side_dims[index]) / target
                if not to_source:
                    gap = -gap
                if gap > worst:
                    worst = gap
                    deficit_dim = index

            def density(node: int) -> float:
                vector = self._dims.get(node)
                if not vector or deficit_dim is None:
                    return 0.0
                total = sum(vector) or 1.0
                return vector[deficit_dim] / total

            return min(pool, key=lambda node: (-density(node),
                                               network.weights[node], node))
        return min(pool, key=lambda node: (network.weights[node], node))

    def _ready(self, network: FlowNetwork, node: int, forced: set[int],
               *, to_source: bool) -> bool:
        """No unforced constraint neighbor blocks contracting ``node``.

        Constraint (∞) edges out of a program node point at its
        predecessors in the stage order; edges into it come from its
        successors.  A node is ready for the source when every ∞-successor
        — i.e. predecessor in stage order — is already source-forced, and
        symmetrically for the sink.
        """
        # The network maintains the ∞ neighbors as static int lists
        # (inf_out / inf_in) — ∞ edges never change, so no capacity
        # filtering is needed here.
        neighbors = network.inf_out[node] if to_source else network.inf_in[node]
        fmap = self._fmap
        for neighbor in neighbors:
            if neighbor not in forced and fmap[neighbor]:
                return False
        return True

    @staticmethod
    def _collapse_feasible(network: FlowNetwork, node: int,
                           source_forced: set[int], sink_forced: set[int],
                           *, to_source: bool) -> bool:
        """Preflight: would forcing ``node`` create an ∞-capacity s-t path?

        Forcing into the source is infeasible if an ∞-edge path leads from
        ``node`` to a sink-forced node; into the sink, if an ∞-edge path
        leads from a source-forced node to ``node`` (equivalently from
        ``node`` backwards).
        """
        seen = {node}
        queue = [node]
        blocked = sink_forced if to_source else source_forced
        # Pure int walk over the static ∞ neighbor lists: forward uses
        # inf_out, backward inf_in (∞ edges never change once added).
        adjacency = network.inf_out if to_source else network.inf_in
        for current in queue:
            if current in blocked:
                return False
            for nxt in adjacency[current]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return True

    def _better(self, a: BalancedCutResult, b: BalancedCutResult,
                target: float) -> bool:
        """Prefer balanced cuts; among balanced cuts the smallest
        per-dimension deviation (when profiling dimensions are active),
        then the smallest cut value; otherwise closeness to the target."""
        if a.balanced != b.balanced:
            return a.balanced
        gap_a = abs(a.weight - target)
        gap_b = abs(b.weight - target)
        if a.balanced and b.balanced:
            if self._dims and abs(a.dim_deviation - b.dim_deviation) > 1e-9:
                return a.dim_deviation < b.dim_deviation
            if a.cut_value != b.cut_value:
                return a.cut_value < b.cut_value
            return gap_a < gap_b
        if gap_a != gap_b:
            return gap_a < gap_b
        return a.cut_value < b.cut_value
