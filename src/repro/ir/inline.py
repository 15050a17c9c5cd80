"""Whole-program inlining.

The pipelining transformation needs the entire packet-processing work of a
PPS to be visible in one CFG (the paper's applications have ~100 routines
fully inlined by the product compiler).  PPS-C forbids recursion, so every
user call can be inlined; after :func:`inline_module`, the only calls left
anywhere are intrinsic calls.

Inlining is performed bottom-up over the call graph (callees first), so a
callee's body is already call-free when spliced into its callers.
"""

from __future__ import annotations

from repro.analysis.graph import Digraph
from repro.ir.clone import clone_instruction, clone_terminator
from repro.ir.function import BasicBlock, Function, Module
from repro.ir.instructions import (
    ArrayLoad,
    ArrayStore,
    Assign,
    Call,
    Instruction,
    Jump,
    Phi,
    Return,
    Terminator,
)
from repro.ir.values import ArrayRef, Const, Value, VReg


class _Cloner:
    """Clones a callee body into a caller with fresh registers/blocks/arrays."""

    def __init__(self, caller: Function, callee: Function, tag: str):
        self.caller = caller
        self.callee = callee
        self.tag = tag
        self.reg_map: dict[VReg, VReg] = {}
        self.array_map: dict[ArrayRef, ArrayRef] = {}
        self.block_map: dict[str, str] = {}

    def map_reg(self, reg: VReg) -> VReg:
        if reg not in self.reg_map:
            self.reg_map[reg] = self.caller.new_reg(f"{self.tag}.{reg.name}")
        return self.reg_map[reg]

    def map_value(self, value: Value) -> Value:
        if isinstance(value, VReg):
            return self.map_reg(value)
        return value

    def map_array(self, array: ArrayRef) -> ArrayRef:
        if array not in self.array_map:
            self.array_map[array] = self.caller.new_array(
                f"{self.tag}.{array.name}", array.size)
        return self.array_map[array]

    def clone_blocks(self) -> None:
        for name in self.callee.block_order:
            block = self.caller.new_block(f"{self.tag}_{name}_")
            self.block_map[name] = block.name

    def rename(self, inst: Instruction, clone: Instruction) -> Instruction:
        """Point ``clone`` (a copy of ``inst``) at fresh registers,
        allocated for ``inst``'s defs, then its uses, as they appear."""
        for reg in inst.defs():
            self.map_reg(reg)
        for value in inst.uses():
            self.map_value(value)
        clone.replace_defs(self.reg_map)
        clone.replace_uses(self.reg_map)
        return clone

    def clone_instruction(self, inst: Instruction) -> Instruction:
        clone = self.rename(inst, clone_instruction(inst))
        if isinstance(clone, (ArrayLoad, ArrayStore)):
            clone.array = self.map_array(clone.array)
        return clone

    def clone_terminator(self, term: Terminator, return_to: str,
                         result_reg: VReg | None) -> tuple[list[Instruction], Terminator]:
        """Clone a terminator; returns (extra tail instructions, terminator)."""
        if isinstance(term, Return):
            extra: list[Instruction] = []
            if result_reg is not None:
                value = (self.map_value(term.value)
                         if term.value is not None else Const(0))
                extra.append(Assign(result_reg, value, location=term.location))
            return extra, Jump(return_to, location=term.location)
        clone = self.rename(term, clone_terminator(term))
        clone.retarget(self.block_map)
        return [], clone


def _find_user_call(function: Function,
                    known: dict[str, Function]) -> tuple[BasicBlock, int] | None:
    for block in function.ordered_blocks():
        for index, inst in enumerate(block.instructions):
            if isinstance(inst, Call) and inst.callee in known:
                return block, index
    return None


def inline_calls(function: Function, module: Module) -> int:
    """Inline every user call in ``function``; returns the number inlined.

    Callee bodies must already be call-free (the bottom-up driver in
    :func:`inline_module` guarantees this).
    """
    count = 0
    while True:
        found = _find_user_call(function, module.functions)
        if found is None:
            return count
        block, index = found
        call = block.instructions[index]
        assert isinstance(call, Call)
        callee = module.functions[call.callee]
        count += 1
        cloner = _Cloner(function, callee, f"in{count}.{call.callee}")

        # Split the caller block around the call.
        tail = function.new_block(f"ret_{call.callee}_")
        tail.instructions = block.instructions[index + 1 :]
        tail.terminator = block.terminator
        block.instructions = block.instructions[:index]
        block.terminator = None
        for phi_succ in (tail.terminator.successors() if tail.terminator else []):
            for phi in function.block(phi_succ).phis():
                if block.name in phi.incomings:
                    phi.incomings[tail.name] = phi.incomings.pop(block.name)

        # Bind arguments to fresh parameter registers.
        assert len(call.args) == len(callee.params)
        for param, arg in zip(callee.params, call.args):
            block.append(Assign(cloner.map_reg(param), arg,
                                location=call.location))

        cloner.clone_blocks()
        assert callee.entry is not None
        block.set_terminator(Jump(cloner.block_map[callee.entry],
                                  location=call.location))

        for name in callee.block_order:
            source = callee.block(name)
            target = function.block(cloner.block_map[name])
            assert not any(isinstance(inst, Phi) for inst in source.instructions), \
                "inlining must run before SSA construction"
            for inst in source.instructions:
                target.append(cloner.clone_instruction(inst))
            assert source.terminator is not None
            extra, terminator = cloner.clone_terminator(
                source.terminator, tail.name, call.dest
            )
            for inst in extra:
                target.append(inst)
            target.set_terminator(terminator)


def inline_module(module: Module) -> None:
    """Inline all user calls everywhere (functions and PPS bodies)."""
    # Bottom-up over the call graph.
    call_graph = Digraph()
    for name, function in module.functions.items():
        call_graph.add_node(name)
        for inst in function.all_instructions():
            if isinstance(inst, Call) and inst.callee in module.functions:
                call_graph.add_edge(name, inst.callee)
    order = []
    seen: set[str] = set()

    def visit(name: str) -> None:
        if name in seen:
            return
        seen.add(name)
        for callee in call_graph.succs(name):
            visit(callee)
        order.append(name)

    for name in module.functions:
        visit(name)
    for name in order:
        inline_calls(module.functions[name], module)
    for pps in module.ppses.values():
        inline_calls(pps, module)
        pps.remove_unreachable_blocks()
