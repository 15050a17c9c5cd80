"""PPS replication — the multiprocessing alternative (paper §2.2, §5).

"The processing engines in the network processors can be also employed as
a pool of homogenous processors operating on distinct packets.  The
auto-partitioning C compiler is also capable of replicating a single PPS,
so that the same PPS runs on multiple threads and PEs, by inserting
proper synchronization codes."

``replicate_pps`` clones a PPS ``ways`` times.  Replica *r* processes
iterations r, r+ways, r+2·ways, ...; every access to a *serially ordered*
resource (pipes, device queues, read-write memory regions, per-tag
traces — the same effect model the pipelining transformation uses) is
wrapped in an ordered critical section:

* ``SeqWait(resource)`` blocks until the resource's global sequence
  number reaches this replica's current iteration index;
* ``SeqAdvance(resource)`` hands the resource to the next iteration.

Release placement is the interesting compiler problem: a resource is
released immediately after its unique static access (maximum overlap —
e.g. the forwarding PPS's input dequeue), but a resource with several
access sites, or sites inside inner loops, is conservatively held until
the end of the iteration (which is what serializes the paper's QM and
Scheduler PPSes under multiprocessing too).

The result models the paper's §5 tradeoff: replication has no live-set
transmission at all, but pays synchronization per serial resource and
replicates the whole code ``ways`` times ("code size implications"),
and its speedup collapses when serial sections dominate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg import find_pps_loop
from repro.analysis.memdep import accesses_of
from repro.ir.clone import clone_function
from repro.ir.function import Function, Module
from repro.ir.instructions import Call, Instruction
from repro.ir.values import Const, RegionRef, VReg
from repro.lang.errors import UNKNOWN_LOCATION
from repro.pipeline.transform import PipelineError, _check_prologue
from repro.ssa.construct import construct_ssa

#: Name suffix marking synthetic shared-state regions (excluded from the
#: observational-equivalence snapshot: sequential runs keep these values
#: in registers).
STATE_REGION_MARKER = ".__state"


class SeqWait(Instruction):
    """Block until ``resource``'s sequencer reaches this iteration."""

    __slots__ = ("resource", "cost")

    def __init__(self, resource, cost: int = 2, location=UNKNOWN_LOCATION):
        super().__init__(location)
        self.resource = resource
        self.cost = cost

    def replace_uses(self, mapping):
        pass

    def weight(self) -> int:
        return self.cost

    def __str__(self):
        return f"seq_wait({self.resource})"


class SeqAdvance(Instruction):
    """Pass ``resource`` to the next global iteration."""

    __slots__ = ("resource", "cost")

    def __init__(self, resource, cost: int = 1, location=UNKNOWN_LOCATION):
        super().__init__(location)
        self.resource = resource
        self.cost = cost

    def replace_uses(self, mapping):
        pass

    def weight(self) -> int:
        return self.cost

    def __str__(self):
        return f"seq_advance({self.resource})"


@dataclass
class ReplicaProgram:
    """One replica of the PPS (analogous to a pipeline StageProgram)."""

    index: int
    ways: int
    function: Function


@dataclass
class ReplicationResult:
    """Everything produced by one replication transformation."""

    pps_name: str
    ways: int
    replicas: list[ReplicaProgram]
    serial_resources: list = field(default_factory=list)
    held_to_latch: list = field(default_factory=list)
    shared_state_roots: list = field(default_factory=list)


def _serial_access_sites(function: Function, body: set[str]) -> dict:
    """Map serial resource -> list of (block, index) access sites."""
    sites: dict = {}
    for name in body:
        block = function.block(name)
        for index, inst in enumerate(block.instructions):
            for access in accesses_of(inst):
                if access.serial:
                    sites.setdefault(access.resource, []).append((name, index))
    return sites


def replicate_pps(module: Module, pps_name: str, ways: int, *,
                  wait_cost: int = 2, advance_cost: int = 1) -> ReplicationResult:
    """Clone PPS ``pps_name`` into ``ways`` synchronized replicas."""
    if pps_name not in module.ppses:
        raise PipelineError(f"unknown pps {pps_name!r}")
    if ways < 1:
        raise PipelineError("replication ways must be >= 1")
    source = module.pps(pps_name)
    loop = find_pps_loop(source)
    _check_prologue(source, loop)
    body = set(loop.body)
    sites = _serial_access_sites(source, body)

    # Decide release placement.  Releasing right after the access gives
    # maximal replica overlap, but is only sound when the access site
    # (a) is the unique site for the resource, (b) executes exactly once
    # per iteration — its block dominates the latch (always reached) and
    # is not part of an inner loop.  Anything else is held to the latch.
    from repro.analysis.dominance import DominatorTree
    from repro.analysis.graph import strongly_connected_components

    body_graph = loop.body_graph()
    dom = DominatorTree.compute(body_graph)
    looped_blocks = {
        node
        for component in strongly_connected_components(body_graph)
        if len(component) > 1 or body_graph.has_edge(component[0], component[0])
        for node in component
    }

    def releasable(site) -> bool:
        block_name, _ = site
        return (block_name not in looped_blocks
                and dom.dominates(block_name, loop.latch))

    def release_plan(site_map: dict) -> tuple[dict, list]:
        release_after: dict = {}
        held: list = []
        for resource, access_sites in sorted(site_map.items(),
                                             key=lambda kv: str(kv[0])):
            if len(access_sites) == 1 and releasable(access_sites[0]):
                release_after[resource] = access_sites[0]
            else:
                held.append(resource)
        return release_after, held

    _, held = release_plan(sites)

    # PPS-loop-carried scalars are shared flow state: replicas exchange
    # them through a synthetic shared region inside a sequenced critical
    # section (see _loop_carried_roots / _share_loop_state).
    roots = _loop_carried_roots(source, loop)
    state_region = None
    state_resource = None
    if roots:
        region_name = f"{pps_name}{STATE_REGION_MARKER}"
        state_region = RegionRef(region_name, len(roots), readonly=False)
        module.regions[region_name] = state_region
        state_resource = ("replica-state", pps_name)

    replicas = []
    for index in range(ways):
        replica = clone_function(source)
        replica.name = f"{pps_name}.r{index + 1}of{ways}"
        if roots:
            _share_loop_state(replica, loop, roots, state_region,
                              state_resource, dom, looped_blocks,
                              init_owner=(index == 0),
                              wait_cost=wait_cost,
                              advance_cost=advance_cost)
        exclude = ({("mem", state_region.name)} if state_region is not None
                   else set())
        # Recompute sites on the (state-instrumented) replica: state
        # sharing shifted instruction indices within the header block.
        replica_sites = {
            resource: access_sites
            for resource, access_sites in _serial_access_sites(replica,
                                                               body).items()
            if resource not in exclude
        }
        replica_release, replica_held = release_plan(replica_sites)
        _instrument(replica, body, loop.latch, replica_sites,
                    replica_release, replica_held, wait_cost, advance_cost,
                    exclude)
        replicas.append(ReplicaProgram(index=index + 1, ways=ways,
                                       function=replica))
    return ReplicationResult(
        pps_name=pps_name,
        ways=ways,
        replicas=replicas,
        serial_resources=sorted(sites, key=str)
        + ([state_resource] if state_resource else []),
        held_to_latch=held,
        shared_state_roots=[reg.name for reg in roots],
    )


def _loop_carried_roots(source: Function, loop) -> list[VReg]:
    """The source-level registers carried around the PPS back edge.

    Computed on a throwaway SSA copy: a φ at the loop header whose back-
    edge operand is defined in the body renames a loop-carried scalar;
    ``VReg.root()`` maps it back to the non-SSA register.
    """
    ssa = clone_function(source)
    construct_ssa(ssa)
    ssa_loop = find_pps_loop(ssa)
    defined_in_body: set[VReg] = set()
    for name in ssa_loop.body:
        for inst in ssa.block(name).all_instructions():
            defined_in_body.update(inst.defs())
    roots: list[VReg] = []
    seen: set[VReg] = set()
    for phi in ssa.block(ssa_loop.header).phis():
        value = phi.incomings.get(ssa_loop.latch)
        if isinstance(value, VReg) and value in defined_in_body:
            root = phi.dest.root()
            if root not in seen:
                seen.add(root)
                roots.append(root)
    return roots


def _share_loop_state(replica: Function, loop, roots: list[VReg],
                      region: RegionRef, resource, dom, looped_blocks,
                      *, init_owner: bool, wait_cost: int,
                      advance_cost: int) -> None:
    """Route loop-carried scalars through the shared state region.

    Entry: at the loop header, wait for the state sequencer and load every
    root from the region.  Exit: store the roots back and advance — right
    after the last write when all writes sit in one always-executed block
    outside inner loops, otherwise at the latch.  Replica 1 additionally
    seeds the region from its (replicated, pure) prologue values.
    """
    body = set(loop.body)
    index_of = {root: position for position, root in enumerate(roots)}

    def loads():
        return [Call(root, "mem_read", [region, Const(index_of[root])])
                for root in roots]

    def stores():
        return [Call(None, "mem_write", [region, Const(index_of[root]), root])
                for root in roots]

    # Entry: wait + load at the head of the header block (after any phis —
    # none exist in non-SSA form).
    header_block = replica.block(loop.header)
    header_block.instructions = ([SeqWait(resource, cost=wait_cost)]
                                 + loads() + header_block.instructions)

    # Find the release point: the unique block holding every write.
    write_sites: list[tuple[str, int]] = []
    root_set = set(roots)
    for name in loop.body:
        block = replica.block(name)
        for position, inst in enumerate(block.instructions):
            if any(dest in root_set for dest in inst.defs()):
                write_sites.append((name, position))
    write_blocks = {name for name, _ in write_sites}
    release_block = None
    if len(write_blocks) == 1:
        candidate = next(iter(write_blocks))
        if (candidate not in looped_blocks
                and dom.dominates(candidate, loop.latch)):
            release_block = candidate
    if release_block is not None:
        block = replica.block(release_block)
        last_write = max(position for name, position in write_sites
                         if name == release_block)
        # Positions shift if the release block is the header (loads were
        # prepended there).
        shift = (1 + len(roots)) if release_block == loop.header else 0
        insert_at = last_write + shift + 1
        block.instructions[insert_at:insert_at] = (
            stores() + [SeqAdvance(resource, cost=advance_cost)])
    else:
        latch_block = replica.block(loop.latch)
        latch_block.instructions = (stores()
                                    + [SeqAdvance(resource, cost=advance_cost)]
                                    + latch_block.instructions)

    if init_owner:
        # Seed the shared cells from the prologue's values, on every edge
        # entering the loop from outside.
        preds = replica.predecessors()
        for pred_name in preds[loop.header]:
            if pred_name in body:
                continue
            replica.block(pred_name).instructions.extend(stores())


def _instrument(function: Function, body: set[str], latch: str,
                sites: dict, release_after: dict, held: list,
                wait_cost: int, advance_cost: int,
                exclude: set = frozenset()) -> None:
    """Insert SeqWait before accesses and SeqAdvance at release points."""
    for name in body:
        block = function.block(name)
        rebuilt = []
        for index, inst in enumerate(block.instructions):
            serial_here = [access.resource for access in accesses_of(inst)
                           if access.serial and access.resource not in exclude]
            for resource in serial_here:
                rebuilt.append(SeqWait(resource, cost=wait_cost,
                                       location=inst.location))
            rebuilt.append(inst)
            for resource in serial_here:
                if release_after.get(resource) == (name, index):
                    rebuilt.append(SeqAdvance(resource, cost=advance_cost,
                                              location=inst.location))
        block.instructions = rebuilt
    # Held resources advance at the latch, in deterministic order.
    latch_block = function.block(latch)
    head = [SeqAdvance(resource, cost=advance_cost)
            for resource in sorted(held, key=str)]
    latch_block.instructions = head + latch_block.instructions
