"""Flow-network construction from the dependence model (paper Figure 5).

The network for one cut contains:

* the unique **source** and **sink** (step 1.6.1),
* one **program node** per dependence-graph SCC ("unit") still to be
  placed (step 1.6.2), weighted by its instruction count,
* one **variable node** per SSA value whose definition and some use lie in
  different units (step 1.6.3), with a *definition edge* of capacity
  ``VCost`` from its defining program node (step 1.6.5) and ∞ edges to its
  using program nodes,
* one **control node** per summarized CFG node whose branch decision other
  units depend on (step 1.6.4), with a definition edge of capacity
  ``CCost`` (step 1.6.7) and ∞ edges to the controlled program nodes,
* ∞ *constraint* edges from each dependence target back to its source, so
  a minimum cut can never place a dependence target upstream of its source
  (the "no dependence from later stages to earlier ones" criterion),
* anchor edges ``source -> header unit`` and ``latch unit -> sink``.

Everything about the network that does not depend on the cut — each
value's unit endpoints and cost, and which unit pairs need a direction
constraint — is resolved once per model (:func:`cut_recipe`); each cut
then links only the edges whose units remain.

For the 2nd..(D−1)th successive cuts, values and control objects defined
in *already placed* stages but still used downstream get their definition
edge from the source — cutting such an edge again models the forwarding
cost through intermediate stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.dependence_graph import DepKind, LoopDependenceModel
from repro.flownet.network import INFINITE_CAPACITY, FlowNetwork
from repro.ir.values import VReg
from repro.machine.costs import CostModel

SOURCE = ("source",)
SINK = ("sink",)


def unit_key(unit: int) -> tuple:
    return ("unit", unit)


def var_key(reg: VReg) -> tuple:
    return ("var", id(reg), str(reg))


def ctl_key(node: int) -> tuple:
    return ("ctl", node)


@dataclass
class CutNetwork:
    """A flow network plus the bookkeeping to interpret its cuts."""

    network: FlowNetwork
    units: set[int]
    placed_units: set[int] = field(default_factory=set)

    def units_of_cut(self, source_side: set) -> set[int]:
        """Map a balanced-cut source side back to unit ids."""
        return {key[1] for key in source_side
                if isinstance(key, tuple) and key and key[0] == "unit"}


@dataclass
class CutRecipe:
    """What every cut network of one model is built from, in emission
    order: resolved once per model (see :func:`cut_recipe`).

    ``values`` holds one ``(origin_unit, uses, words, key)`` per variable
    (``words`` its width) and then per control object (``words`` None:
    it costs ``CCost``), ``uses`` the consuming units in ascending order,
    each paired with whether its direction constraint is the first of
    its unit pair.  ``constraints`` are the ordering and CFG
    ``(later_unit, earlier_unit)`` pairs no earlier emission covers.

    A constraint pair is emitted exactly when both its units remain, at
    every occurrence alike, so only its first occurrence can ever add
    the edge: the dedup is settled here once, not per cut.
    """

    values: list[tuple[int, tuple[tuple[int, bool], ...], int | None, tuple]]
    constraints: list[tuple[int, int]]


def cut_recipe(model: LoopDependenceModel) -> CutRecipe:
    """The model's :class:`CutRecipe`, memoized on the model."""
    if model._cut_recipe is None:
        seen_pairs: set[tuple[int, int]] = set()

        def resolve(def_unit: int, use_units: set[int]) -> tuple:
            uses = []
            for use_unit in sorted(use_units):
                pair = (use_unit, def_unit)
                uses.append((use_unit, pair not in seen_pairs))
                seen_pairs.add(pair)
            return tuple(uses)

        values = []
        # Variable nodes (step 1.6.3 / 1.6.5).
        for reg, info in model.variables.items():
            def_unit = model.unit_of_node(info.def_node)
            use_units = {model.unit_of_node(node) for node in info.use_nodes}
            use_units.discard(def_unit)
            if use_units:
                values.append((def_unit, resolve(def_unit, use_units),
                               info.words, var_key(reg)))
        # Control nodes (step 1.6.4 / 1.6.7).
        for brancher, dependents in model.controlled.items():
            branch_unit = model.unit_of_node(brancher)
            dep_units = {model.unit_of_node(node) for node in dependents}
            dep_units.discard(branch_unit)
            if dep_units:
                values.append((branch_unit, resolve(branch_unit, dep_units),
                               None, ctl_key(brancher)))

        constraints = []

        def constrain(later_unit: int, earlier_unit: int) -> None:
            pair = (later_unit, earlier_unit)
            if pair not in seen_pairs:
                seen_pairs.add(pair)
                constraints.append(pair)

        # Ordering constraints (memory / channels): direction only.
        for edge in model.unit_edges():
            if edge.kind is not DepKind.COLOCATE:  # COLOCATE: one unit
                constrain(edge.dst, edge.src)
        # Control-flow contiguity: a cut is "a set of control flow points
        # that divide the PPS loop body into two pieces" — each stage must
        # be a control-flow-closed region, so every summarized CFG edge
        # constrains its head to be no earlier than its tail.
        for src_node in model.sgraph.nodes:
            src_unit = model.unit_of_node(src_node)
            for dst_node in model.sgraph.succs(src_node):
                dst_unit = model.unit_of_node(dst_node)
                if src_unit != dst_unit:
                    constrain(dst_unit, src_unit)
        model._cut_recipe = CutRecipe(values, constraints)
    return model._cut_recipe


def build_cut_network(model: LoopDependenceModel, remaining: set[int],
                      placed: set[int], costs: CostModel) -> CutNetwork:
    """Build the Figure-5 network for one successive cut.

    ``remaining`` are the unit ids still to be partitioned; ``placed`` are
    units already assigned to earlier stages (their live values enter from
    the source).

    Each cut's network is built afresh from the model's recipe: node
    numbering and edge order fix push-relabel's discharge order, so a
    network edited from the previous cut's (which would renumber its
    nodes) would not do the same work.
    """
    recipe = cut_recipe(model)
    net = FlowNetwork()
    source = net.add_node(SOURCE)
    sink = net.add_node(SINK)
    net.set_source(SOURCE)
    net.set_sink(SINK)
    weights = model.unit_weights()
    # node[unit]: the unit's node index, or None when it is not remaining.
    node: list[int | None] = [None] * len(weights)
    for unit in sorted(remaining):
        node[unit] = net.add_node(unit_key(unit), weight=weights[unit])
    link = net.link

    # Anchors: the header starts stage 1 (only relevant for the first cut);
    # the latch ends the final stage.
    if model.header_unit in remaining and not placed:
        link(source, node[model.header_unit], INFINITE_CAPACITY)
    if model.latch_unit in remaining:
        link(node[model.latch_unit], sink, INFINITE_CAPACITY)

    # Direction constraints are ∞ edges (use_unit -> def_unit); many
    # variables/controls relate the same unit pair, and parallel ∞ edges
    # are pure redundancy — they never saturate, so reachability (and
    # with it every min-cut side) is identical with one edge per pair.
    vcost = costs.vcost
    ccost = costs.ccost
    for def_unit, uses, words, key in recipe.values:
        live = [(node[use_unit], first) for use_unit, first in uses
                if node[use_unit] is not None]
        if not live:
            continue
        origin = node[def_unit]
        constrained = origin is not None
        if origin is None:
            if def_unit not in placed:
                continue
            origin = source  # already transmitted once; forwarding costs again
        cap = ccost if words is None else vcost(words)
        if len(live) == 1:
            # Single consumer: the variable node is a degree-2 pass-through
            # (finite def edge in, one ∞ edge out), so it collapses into a
            # direct def edge of the same capacity.  Every maximum flow and
            # every residual path through the gadget maps 1:1 onto the
            # direct edge, so cuts, cut values, and the canonical min-cut
            # sides over program nodes are unchanged — the network is just
            # one node and one edge smaller for the solver's BFS loops.
            ((use, first),) = live
            link(origin, use, cap)
            if first and constrained:
                link(use, origin, INFINITE_CAPACITY)
            continue
        value = net.add_node(key)
        link(origin, value, cap)
        for use, first in live:
            link(value, use, INFINITE_CAPACITY)
            if first and constrained:
                # Direction constraint: the use can never precede the def.
                link(use, origin, INFINITE_CAPACITY)

    for later_unit, earlier_unit in recipe.constraints:
        later = node[later_unit]
        earlier = node[earlier_unit]
        if later is not None and earlier is not None:
            link(later, earlier, INFINITE_CAPACITY)

    return CutNetwork(network=net, units=set(remaining), placed_units=set(placed))
