"""Classic backward live-variable analysis over IR functions.

Works on both SSA and non-SSA form.  φ-functions are handled edge-wise:
the value incoming from predecessor ``p`` is live-out of ``p`` (not live-in
of the φ's block), which is the standard convention.

``Liveness`` exposes block-level ``live_in`` / ``live_out``, which the
live-set computation of the pipelining transformation uses (the paper's
"data that are alive at the cut ... the contents of live registers").
"""

from __future__ import annotations

from repro.ir.function import Function
from repro.ir.instructions import Phi
from repro.ir.values import VReg


class Liveness:
    """Live-variable sets for every block of a function."""

    def __init__(self, function: Function):
        self.function = function
        self.live_in: dict[str, frozenset[VReg]] = {}
        self.live_out: dict[str, frozenset[VReg]] = {}
        self._compute()

    def _block_summary(self, name: str) -> tuple[set[VReg], set[VReg], dict[str, set[VReg]]]:
        """(use, def, phi_uses_by_pred) for one block.

        ``use`` contains registers read before any write in the block
        (excluding φ operands); ``phi_uses_by_pred`` maps predecessor names
        to φ operands consumed on that edge.
        """
        block = self.function.block(name)
        uses: set[VReg] = set()
        defs: set[VReg] = set()
        phi_uses: dict[str, set[VReg]] = {}
        for inst in block.all_instructions():
            if isinstance(inst, Phi):
                for pred, value in inst.incomings.items():
                    if isinstance(value, VReg):
                        phi_uses.setdefault(pred, set()).add(value)
                defs.add(inst.dest)
                continue
            for reg in inst.used_regs():
                if reg not in defs:
                    uses.add(reg)
            for reg in inst.defs():
                defs.add(reg)
        return uses, defs, phi_uses

    def _compute(self) -> None:
        order = self.function.block_order
        summaries = {name: self._block_summary(name) for name in order}
        live_in: dict[str, set[VReg]] = {name: set() for name in order}
        live_out: dict[str, set[VReg]] = {name: set() for name in order}
        changed = True
        while changed:
            changed = False
            for name in reversed(order):
                uses, defs, _ = summaries[name]
                block = self.function.block(name)
                out: set[VReg] = set()
                for succ in block.successors():
                    out |= live_in[succ]
                    _, _, succ_phi_uses = summaries[succ]
                    out |= succ_phi_uses.get(name, set())
                    # φ dests are defined at the head of succ, so they are
                    # not live into succ; live_in already excludes them.
                new_in = uses | (out - defs)
                if out != live_out[name] or new_in != live_in[name]:
                    live_out[name] = out
                    live_in[name] = new_in
                    changed = True
        self.live_in = {name: frozenset(values) for name, values in live_in.items()}
        self.live_out = {name: frozenset(values) for name, values in live_out.items()}
