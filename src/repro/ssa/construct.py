"""Pruned SSA construction (Cytron et al. with liveness pruning).

The paper's flow-network model is built from "the single static assignment
(SSA) form of the program" (step 1.1 in its Figure 4): after SSA, every
variable has exactly one definition point, so the flow network can attach
one *definition edge* per variable whose weight is the cost of transmitting
it across a cut.

φ placement uses iterated dominance frontiers, pruned by liveness (a φ is
placed only where the variable is live-in).  Renaming is the standard
dominator-tree walk with version stacks.  New SSA registers carry
``base=original`` so ``VReg.root()`` recovers the source variable.
"""

from __future__ import annotations

from repro.analysis.cfg import cfg_of
from repro.analysis.dominance import DominatorTree
from repro.analysis.liveness import Liveness
from repro.ir.function import Function
from repro.ir.instructions import Phi
from repro.ir.values import Const, Value, VReg
from repro.obs import tracer as obs


def construct_ssa(function: Function,
                  liveness: Liveness | None = None) -> None:
    """Rewrite ``function`` into pruned SSA form, in place.  ``liveness``
    is that of ``function`` as it stands, or of the function it was
    cloned from (same block names, same registers), if the caller has
    it already."""
    graph = cfg_of(function)
    dom = DominatorTree.compute(graph)
    frontiers = dom.dominance_frontiers()
    if liveness is None:
        liveness = Liveness(function)

    # 1. Collect definition sites per original register.
    def_blocks: dict[VReg, set[str]] = {}
    for param in function.params:
        def_blocks.setdefault(param, set()).add(function.entry)
    for block in function.ordered_blocks():
        for inst in block.all_instructions():
            for dest in inst.defs():
                def_blocks.setdefault(dest, set()).add(block.name)

    # 2. Place φs at iterated dominance frontiers (pruned by liveness).
    phi_sites: dict[str, list[VReg]] = {name: [] for name in function.block_order}
    for reg, blocks in def_blocks.items():
        placed: set[str] = set()
        work = list(blocks)
        while work:
            block_name = work.pop()
            for frontier in frontiers.get(block_name, ()):
                if frontier in placed:
                    continue
                placed.add(frontier)
                if reg in liveness.live_in[frontier]:
                    phi_sites[frontier].append(reg)
                # Even a pruned-away φ is itself a definition site for the
                # iteration (standard pruned-SSA subtlety).
                if frontier not in blocks:
                    work.append(frontier)

    preds = function.predecessors()
    pending_phis: dict[str, dict[VReg, Phi]] = {}
    for name, regs in phi_sites.items():
        pending = {}
        for reg in regs:
            phi = Phi(VReg("<placeholder>"),
                      {pred: Const(0) for pred in preds[name]})
            pending[reg] = phi
        pending_phis[name] = pending
        block = function.block(name)
        block.instructions = list(pending.values()) + block.instructions

    # 3. Rename along the dominator tree.
    counters: dict[VReg, int] = {}
    stacks: dict[VReg, list[Value]] = {}

    def fresh_version(reg: VReg) -> VReg:
        counter = counters.get(reg, 0)
        counters[reg] = counter + 1
        return VReg(f"{reg.name}#{counter}", base=reg, width=reg.width)

    def current(reg: VReg) -> Value:
        stack = stacks.get(reg)
        if not stack:
            # Use on a path with no prior definition: PPS-C zero-initializes.
            return Const(0)
        return stack[-1]

    for param in function.params:
        version = fresh_version(param)
        stacks.setdefault(param, []).append(version)
    new_params = [stacks[param][-1] for param in function.params]

    def rename_block(name: str) -> None:
        pushed: list[VReg] = []
        block = function.block(name)
        reverse_pending = {phi: reg for reg, phi in pending_phis[name].items()}
        for inst in block.all_instructions():
            if isinstance(inst, Phi) and inst in reverse_pending:
                reg = reverse_pending[inst]
                version = fresh_version(reg)
                inst.dest = version
                stacks.setdefault(reg, []).append(version)
                pushed.append(reg)
                continue
            mapping = {}
            for used in set(inst.used_regs()):
                mapping[used] = current(used)
            if mapping and not isinstance(inst, Phi):
                inst.replace_uses(mapping)
            for position, dest in enumerate(inst.defs()):
                version = fresh_version(dest)
                inst.replace_defs({dest: version})
                stacks.setdefault(dest, []).append(version)
                pushed.append(dest)
        for succ in block.successors():
            for reg, phi in pending_phis[succ].items():
                phi.incomings[name] = current(reg)
        for child in dom.children(name):
            rename_block(child)
        for reg in reversed(pushed):
            stacks[reg].pop()

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 10000 + 10 * len(function.blocks)))
    try:
        rename_block(function.entry)
    finally:
        sys.setrecursionlimit(old_limit)
    function.params = new_params
    obs.instant("ssa_constructed", cat="compile", function=function.name,
                blocks=len(function.blocks),
                phis=sum(len(pending) for pending in pending_phis.values()),
                versions=sum(counters.values()))

    # Drop φs whose block became unreachable artifacts (none expected), and
    # normalize instruction order (φs first) — placement already ensures it.
