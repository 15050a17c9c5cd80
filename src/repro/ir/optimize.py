"""Simple IR optimizations.

``fold_constants`` performs block-local constant folding and copy/constant
propagation (non-SSA-safe: facts never cross block boundaries and die at
redefinitions).  Besides shrinking trivial address arithmetic, folding is
load-bearing for the dependence analysis: a ``trace(BASE + K, v)`` call
must present a *constant* tag so the effect model can give each trace site
its own serially-ordered resource.

``simplify_cfg`` collapses trivial forwarding blocks (empty block with an
unconditional jump) — mostly a cosmetic cleanup that also sharpens block
weights.
"""

from __future__ import annotations

from repro.ir.function import BasicBlock, Function, Module
from repro.ir.instructions import Assign, BinOp, Instruction, Jump, Phi, UnOp
from repro.ir.types import eval_binary, eval_unary
from repro.ir.values import Const, VReg


def fold_constants(function: Function) -> int:
    """Block-local constant folding; returns the number of rewrites."""
    rewrites = 0
    for block in function.ordered_blocks():
        known: dict[VReg, Const] = {}
        for inst in block.all_instructions():
            if isinstance(inst, Phi):
                continue
            mapping = {reg: known[reg] for reg in inst.used_regs()
                       if reg in known}
            if mapping:
                inst.replace_uses(mapping)
                rewrites += len(mapping)
            if isinstance(inst, BinOp) and isinstance(inst.lhs, Const) \
                    and isinstance(inst.rhs, Const):
                try:
                    value = eval_binary(inst.op, inst.lhs.value, inst.rhs.value)
                except ZeroDivisionError:
                    value = None  # preserve the trap at runtime
                if value is not None:
                    known[inst.dest] = Const(value)
                    continue
            if isinstance(inst, UnOp) and isinstance(inst.operand, Const):
                known[inst.dest] = Const(eval_unary(inst.op, inst.operand.value))
                continue
            if isinstance(inst, Assign) and isinstance(inst.src, Const):
                known[inst.dest] = inst.src
                continue
            for dest in inst.defs():
                known.pop(dest, None)
    # Second pass: instructions whose dest is now a known constant become
    # plain constant moves (keeps the weight model honest).
    for block in function.ordered_blocks():
        new_instructions = []
        for inst in block.instructions:
            if (isinstance(inst, BinOp) and isinstance(inst.lhs, Const)
                    and isinstance(inst.rhs, Const)
                    and (inst.op not in ("/", "%") or inst.rhs.value != 0)):
                value = eval_binary(inst.op, inst.lhs.value, inst.rhs.value)
                new_instructions.append(Assign(inst.dest, Const(value),
                                               location=inst.location))
                rewrites += 1
                continue
            if isinstance(inst, UnOp) and isinstance(inst.operand, Const):
                value = eval_unary(inst.op, inst.operand.value)
                new_instructions.append(Assign(inst.dest, Const(value),
                                               location=inst.location))
                rewrites += 1
                continue
            new_instructions.append(inst)
        block.instructions = new_instructions
    return rewrites


def simplify_cfg(function: Function) -> int:
    """Collapse empty blocks that just jump onward; returns removals.

    A block is collapsible when it has no instructions and ends in an
    unconditional jump to a *different* block with no φ-functions.  The
    entry block is preserved.

    Collapsing a block retargets its predecessors onto its own target,
    which has no φ-functions, and that never makes another block
    collapsible: a jump into a φ block keeps its target (a φ block is not
    empty, so it is never collapsed), and a jump that becomes a self-loop
    only stops being collapsible.  One walk in block order therefore
    removes what restarting after every removal would, with one
    predecessor map kept up to date as it goes.
    """
    preds = {name: dict.fromkeys(names)
             for name, names in function.predecessors().items()}
    removed = 0
    for name in list(function.block_order):
        if name == function.entry:
            continue
        if name.startswith(("pps_header", "pps_latch")):
            continue  # the PPS loop skeleton must survive
        block = function.blocks[name]
        if block.instructions:
            continue
        if not isinstance(block.terminator, Jump):
            continue
        target = block.terminator.target
        if target == name:
            continue
        if function.block(target).phis():
            continue
        into_target = preds[target]
        del into_target[name]
        for pred_name in preds.pop(name):
            function.blocks[pred_name].terminator.retarget({name: target})
            into_target[pred_name] = None
        del function.blocks[name]
        removed += 1
    if removed:
        function.block_order = [name for name in function.block_order
                                if name in function.blocks]
    function.remove_unreachable_blocks(preds)
    return removed


def eliminate_dead_code(function: Function) -> int:
    """Remove pure instructions whose results are never used.

    Conservative and non-SSA-safe: a register is dead only if *no*
    instruction in the whole function reads it.  Only side-effect-free
    instructions are candidates (copies, ALU ops, array loads, pure
    intrinsic calls, φs).  One scan counts every register's reads and
    files each candidate under the registers it writes; removing an
    instruction gives its reads back, and a register whose count reaches
    zero puts its writers on the worklist, so chains of dead computation
    disappear without another scan.  Returns the number of removed
    instructions.
    """
    from repro.ir.instructions import ArrayLoad, Call
    from repro.lang.intrinsics import Effect, get_intrinsic

    def is_pure(inst) -> bool:
        if isinstance(inst, (Assign, UnOp, BinOp, ArrayLoad, Phi)):
            return True
        if isinstance(inst, Call) and inst.is_intrinsic:
            return get_intrinsic(inst.callee).effect is Effect.PURE
        return False

    reads: dict[VReg, int] = dict.fromkeys(function.params, 1)  # always live
    writers: dict[VReg, list[Instruction]] = {}
    home: dict[Instruction, BasicBlock] = {}  # candidate -> its block
    for block in function.ordered_blocks():
        for inst in block.all_instructions():
            for reg in inst.used_regs():
                reads[reg] = reads.get(reg, 0) + 1
            if is_pure(inst) and inst.defs():
                home[inst] = block
                for reg in inst.defs():
                    writers.setdefault(reg, []).append(inst)

    def dead(inst) -> bool:
        return not any(reads.get(reg) for reg in inst.defs())

    worklist = [inst for inst in home if dead(inst)]
    removed: dict[Instruction, None] = {}
    while worklist:
        inst = worklist.pop()
        if inst in removed:
            continue
        removed[inst] = None
        for reg in inst.used_regs():
            reads[reg] -= 1
            if not reads[reg]:
                worklist.extend(writer for writer in writers.get(reg, ())
                                if writer not in removed and dead(writer))
    for block in {home[inst]: None for inst in removed}:
        block.instructions = [inst for inst in block.instructions
                              if inst not in removed]
    return len(removed)


def optimize_function(function: Function) -> None:
    """Run the standard post-inline cleanup pipeline on one function."""
    fold_constants(function)
    eliminate_dead_code(function)
    simplify_cfg(function)


def optimize_module(module: Module) -> None:
    """Optimize every function and PPS body of ``module``."""
    for function in module.functions.values():
        optimize_function(function)
    for pps in module.ppses.values():
        optimize_function(pps)
