"""The PPS-loop dependence model (paper §3.2, Figure 4).

Given a PPS body in SSA form, this module builds everything the flow
network needs:

1. the *body graph* (PPS loop minus the back edge),
2. its CFG SCCs and the summarized graph (step 1.3 — inner loops become
   single nodes so no cut can split them),
3. the dependence graph over summarized nodes (step 1.4): scalar flow
   dependences from SSA def-use chains, control dependences, memory /
   channel ordering dependences, and PPS-loop-carried flow dependences
   (which become *colocation* constraints: their endpoints are forced into
   the same dependence-graph SCC, step 1.5),
4. the dependence-graph SCCs ("units"), which are the atoms the balanced
   min-cut places into pipeline stages.

Node ids:  summarized CFG nodes are ints (SCC ids from the condensation);
units are ints as well (SCC ids of the dependence graph condensation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.analysis.cfg import PpsLoop
from repro.analysis.control_dependence import controlled_by
from repro.analysis.graph import Condensation, Digraph
from repro.analysis.memdep import Access, accesses_of, conflicts
from repro.ir.function import Function
from repro.ir.values import VReg
from repro.obs import tracer as obs


class DepKind(enum.Enum):
    """Kinds of dependence edges between summarized CFG nodes."""

    DATA = "data"          # SSA flow dependence (payload: VReg)
    CONTROL = "control"    # control dependence (payload: branch node id)
    ORDER = "order"        # memory/channel ordering (payload: resource)
    COLOCATE = "colocate"  # PPS-loop-carried: endpoints must share a stage


@dataclass(frozen=True)
class DepEdge:
    """One dependence between two summarized CFG nodes."""

    src: int
    dst: int
    kind: DepKind
    payload: object = None


@dataclass
class VariableInfo:
    """A live-set candidate: an SSA value that may cross a cut."""

    reg: VReg
    def_node: int               # summarized node that defines it
    use_nodes: set[int] = field(default_factory=set)

    @property
    def words(self) -> int:
        return self.reg.width


class LoopDependenceModel:
    """Dependence structure of one PPS loop body (SSA form)."""

    def __init__(self, ssa: Function, loop: PpsLoop):
        self.ssa = ssa
        self.loop = loop
        self.body = loop.body_graph()
        self.summary = Condensation(self.body)
        self.sgraph = self.summary.graph
        self.header_node = self.summary.component_of[loop.header]
        self.latch_node = self.summary.component_of[loop.latch]
        self.edges: list[DepEdge] = []
        self.variables: dict[VReg, VariableInfo] = {}
        self.controlled: dict[int, set[int]] = {}
        self._reach: dict[int, set[int]] = {}
        self._build()
        self.units = self._condense_units()
        # Lazy memos over the (immutable) unit structure; computed on
        # first use and shared by every cut, refinement pass, and
        # verifier check that consults the model.
        self._unit_weights: dict[int, int] | None = None
        self._unit_edges: list[DepEdge] | None = None
        self._unit_adjacency: tuple[dict, dict] | None = None
        self._cut_recipe = None  # repro.flownet.model.cut_recipe
        obs.instant("dependence_model", cat="compile",
                    function=ssa.name, nodes=len(self.sgraph),
                    dep_edges=len(self.edges),
                    variables=len(self.variables),
                    units=len(self.units.members))

    # -- helpers -----------------------------------------------------------

    def node_of_block(self, block_name: str) -> int:
        return self.summary.component_of[block_name]

    def blocks_of_node(self, node: int) -> list[str]:
        return self.summary.members[node]

    def node_weight(self, node: int) -> int:
        return sum(self.ssa.block(name).weight()
                   for name in self.summary.members[node])

    def _reaches(self, src: int, dst: int) -> bool:
        if src not in self._reach:
            self._reach[src] = self.sgraph.reachable_from(src)
        return dst in self._reach[src]

    # -- construction ----------------------------------------------------------

    def _build(self) -> None:
        self._build_scalar_flow()
        self._build_control()
        self._build_order()
        self._build_loop_carried_scalars()

    def _build_scalar_flow(self) -> None:
        """SSA def-use edges between different summarized nodes."""
        def_node: dict[VReg, int] = {}
        for name in self.loop.body:
            node = self.node_of_block(name)
            for inst in self.ssa.block(name).all_instructions():
                for dest in inst.defs():
                    def_node[dest] = node
        for name in self.loop.body:
            node = self.node_of_block(name)
            for inst in self.ssa.block(name).all_instructions():
                for reg in inst.used_regs():
                    src = def_node.get(reg)
                    if src is None:
                        # Defined in the prologue (replicated per stage) or
                        # zero-initialized: never needs transmission.
                        continue
                    info = self.variables.get(reg)
                    if info is None:
                        info = VariableInfo(reg, src)
                        self.variables[reg] = info
                    if src != node:
                        info.use_nodes.add(node)
                        self.edges.append(DepEdge(src, node, DepKind.DATA, reg))

    def _build_control(self) -> None:
        """Control dependence over the summarized graph (paper step 1.4)."""
        self.controlled = {
            node: deps for node, deps in controlled_by(self.sgraph).items() if deps
        }
        for brancher, dependents in self.controlled.items():
            for dependent in dependents:
                if dependent != brancher:
                    self.edges.append(
                        DepEdge(brancher, dependent, DepKind.CONTROL, brancher)
                    )

    def _build_order(self) -> None:
        """Memory/channel/device ordering and colocation dependences."""
        by_resource: dict[object, list[tuple[int, Access]]] = {}
        for name in self.loop.body:
            node = self.node_of_block(name)
            for inst in self.ssa.block(name).all_instructions():
                for access in accesses_of(inst):
                    by_resource.setdefault(access.resource, []).append(
                        (node, access)
                    )
        for resource, entries in by_resource.items():
            for i, (node_a, access_a) in enumerate(entries):
                for node_b, access_b in entries[i + 1 :]:
                    if node_a == node_b:
                        continue
                    if not conflicts(access_a, access_b):
                        continue
                    carried = access_a.loop_carried or access_b.loop_carried
                    if carried:
                        self.edges.append(
                            DepEdge(node_a, node_b, DepKind.COLOCATE, resource)
                        )
                    elif self._reaches(node_a, node_b):
                        self.edges.append(
                            DepEdge(node_a, node_b, DepKind.ORDER, resource)
                        )
                    elif self._reaches(node_b, node_a):
                        self.edges.append(
                            DepEdge(node_b, node_a, DepKind.ORDER, resource)
                        )
                    # No path either way: the accesses are on exclusive
                    # branches and never execute in the same iteration.

    def _build_loop_carried_scalars(self) -> None:
        """PPS-loop-carried flow dependences (paper step 1.4).

        A φ at the loop header consumes, on the back edge, a value defined
        by the previous iteration.  Source and sink of such a dependence
        must be in the same dependence-graph SCC, so the def node is
        colocated with the header.
        """
        def_node: dict[VReg, int] = {}
        for name in self.loop.body:
            node = self.node_of_block(name)
            for inst in self.ssa.block(name).all_instructions():
                for dest in inst.defs():
                    def_node[dest] = node
        header_block = self.ssa.block(self.loop.header)
        for phi in header_block.phis():
            value = phi.incomings.get(self.loop.latch)
            if isinstance(value, VReg) and value in def_node:
                src = def_node[value]
                if src != self.header_node:
                    self.edges.append(
                        DepEdge(src, self.header_node, DepKind.COLOCATE, value)
                    )

    def _condense_units(self) -> Condensation:
        """Step 1.5: SCCs of the dependence graph are the placement atoms.

        The graph condensed here carries the dependence edges (colocation
        in both directions) *plus* the summarized CFG edges: a pipeline
        stage must be a control-flow-closed region (the paper's cut is a
        set of control flow points), so summarized nodes that sit on a
        cycle of dependence and control-flow constraints can never be
        separated and are merged into one placement atom.
        """
        dep_graph = Digraph()
        for node in self.sgraph.nodes:
            dep_graph.add_node(node)
        for edge in self.edges:
            dep_graph.add_edge(edge.src, edge.dst)
            if edge.kind is DepKind.COLOCATE:
                dep_graph.add_edge(edge.dst, edge.src)
        for src, dst in self.sgraph.edges():
            dep_graph.add_edge(src, dst)
        return Condensation(dep_graph)

    # -- unit-level views (what the flow network consumes) ---------------------

    def unit_of_node(self, node: int) -> int:
        return self.units.component_of[node]

    def unit_blocks(self, unit: int) -> list[str]:
        blocks: list[str] = []
        for node in self.units.members[unit]:
            blocks.extend(self.summary.members[node])
        return blocks

    def unit_weight(self, unit: int) -> int:
        return self.unit_weights()[unit]

    def unit_weights(self) -> dict[int, int]:
        """Static weight of every unit (memoized; units are immutable)."""
        if self._unit_weights is None:
            self._unit_weights = {
                unit: sum(self.node_weight(node) for node in members)
                for unit, members in self.units.members.items()
            }
        return self._unit_weights

    def unit_edges(self) -> list[DepEdge]:
        """Dependence edges lifted to units (intra-unit edges dropped;
        memoized — callers must not mutate the returned list)."""
        if self._unit_edges is None:
            lifted = []
            for edge in self.edges:
                src = self.unit_of_node(edge.src)
                dst = self.unit_of_node(edge.dst)
                if src != dst:
                    lifted.append(DepEdge(src, dst, edge.kind, edge.payload))
            self._unit_edges = lifted
        return self._unit_edges

    def unit_adjacency(self) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
        """Constraint adjacency at unit granularity: ``(succs, preds)``.

        Combines the lifted dependence edges with the summarized CFG
        edges — the exact legality structure the flow network encodes —
        and is memoized, so cut selection, refinement, and frontier
        computation share one table per program.
        """
        if self._unit_adjacency is None:
            succs: dict[int, set[int]] = {unit: set()
                                          for unit in self.units.members}
            preds: dict[int, set[int]] = {unit: set()
                                          for unit in self.units.members}
            for edge in self.unit_edges():
                if edge.src != edge.dst:
                    succs[edge.src].add(edge.dst)
                    preds[edge.dst].add(edge.src)
            for src_node in self.sgraph.nodes:
                src_unit = self.unit_of_node(src_node)
                for dst_node in self.sgraph.succs(src_node):
                    dst_unit = self.unit_of_node(dst_node)
                    if src_unit != dst_unit:
                        succs[src_unit].add(dst_unit)
                        preds[dst_unit].add(src_unit)
            self._unit_adjacency = (succs, preds)
        return self._unit_adjacency

    @property
    def header_unit(self) -> int:
        return self.unit_of_node(self.header_node)

    @property
    def latch_unit(self) -> int:
        return self.unit_of_node(self.latch_node)

    def total_weight(self) -> int:
        return sum(self.unit_weight(unit) for unit in self.units.members)
