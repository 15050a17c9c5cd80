"""Basic blocks, functions, and modules of the PPS-C IR."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.instructions import Instruction, Phi, Terminator
from repro.ir.values import ArrayRef, PipeRef, RegionRef, VReg


class BasicBlock:
    """A straight-line instruction sequence ending in one terminator."""

    __slots__ = ("name", "instructions", "terminator")

    def __init__(self, name: str):
        self.name = name
        self.instructions: list[Instruction] = []
        self.terminator: Terminator | None = None

    def append(self, instruction: Instruction) -> None:
        """Append a non-terminator instruction."""
        assert not instruction.is_terminator
        self.instructions.append(instruction)

    def set_terminator(self, terminator: Terminator) -> None:
        assert self.terminator is None, f"block {self.name} already terminated"
        self.terminator = terminator

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def successors(self) -> list[str]:
        if self.terminator is None:
            return []
        return self.terminator.successors()

    def phis(self) -> list[Phi]:
        """The φ-functions at the head of this block (SSA form only)."""
        result = []
        for instruction in self.instructions:
            if isinstance(instruction, Phi):
                result.append(instruction)
            else:
                break
        return result

    def all_instructions(self) -> list[Instruction]:
        """Instructions including the terminator (if set)."""
        result = list(self.instructions)
        if self.terminator is not None:
            result.append(self.terminator)
        return result

    def weight(self) -> int:
        """Static instruction-count weight of this block."""
        return sum(inst.weight() for inst in self.all_instructions())

    def __repr__(self) -> str:
        return f"<BasicBlock {self.name}>"


class Function:
    """An IR function: an entry block plus a set of reachable blocks.

    PPS bodies are lowered to functions whose CFG contains the PPS loop;
    :meth:`repro.pipeline.transform` operates on the loop body.
    """

    def __init__(self, name: str, params: list[VReg] | None = None,
                 returns_value: bool = False):
        self.name = name
        self.params = list(params or [])
        self.returns_value = returns_value
        self.blocks: dict[str, BasicBlock] = {}
        self.block_order: list[str] = []
        self.entry: str | None = None
        self.arrays: dict[str, ArrayRef] = {}
        self._next_reg = 0
        self._next_block = 0

    # -- construction helpers ---------------------------------------------

    def new_block(self, hint: str = "bb") -> BasicBlock:
        name = f"{hint}{self._next_block}"
        self._next_block += 1
        block = BasicBlock(name)
        self.blocks[name] = block
        self.block_order.append(name)
        if self.entry is None:
            self.entry = name
        return block

    def adopt_block(self, block: BasicBlock) -> None:
        """Register an externally created block (used by inlining)."""
        assert block.name not in self.blocks, block.name
        self.blocks[block.name] = block
        self.block_order.append(block.name)

    def new_reg(self, hint: str = "t", base: VReg | None = None) -> VReg:
        name = f"{hint}.{self._next_reg}"
        self._next_reg += 1
        return VReg(name, base=base)

    def new_array(self, name: str, size: int) -> ArrayRef:
        unique = name
        counter = 0
        while unique in self.arrays:
            counter += 1
            unique = f"{name}.{counter}"
        array = ArrayRef(unique, size)
        self.arrays[unique] = array
        return array

    # -- traversal ----------------------------------------------------------

    def block(self, name: str) -> BasicBlock:
        return self.blocks[name]

    def ordered_blocks(self) -> list[BasicBlock]:
        """Blocks in creation order, entry first."""
        return [self.blocks[name] for name in self.block_order]

    def predecessors(self) -> dict[str, list[str]]:
        """Map block name -> predecessor block names (in block order)."""
        preds: dict[str, list[str]] = {name: [] for name in self.block_order}
        for block in self.ordered_blocks():
            for successor in block.successors():
                preds[successor].append(block.name)
        return preds

    def reachable_blocks(self) -> list[str]:
        """Block names reachable from entry, in DFS preorder."""
        assert self.entry is not None
        seen: set[str] = set()
        order: list[str] = []
        stack = [self.entry]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            order.append(name)
            for successor in reversed(self.blocks[name].successors()):
                if successor not in seen:
                    stack.append(successor)
        return order

    def remove_unreachable_blocks(self, preds=None) -> list[str]:
        """Delete unreachable blocks; returns the removed names.

        ``preds`` maps each block name to its predecessors' names, for a
        caller that already keeps that map current; by default it is built.
        """
        if preds is None:
            preds = self.predecessors()
        reachable = set(self.reachable_blocks())
        removed = [name for name in self.block_order if name not in reachable]
        for name in removed:
            del self.blocks[name]
        self.block_order = [name for name in self.block_order if name in reachable]
        # Drop φ-incomings that no reachable predecessor supplies.
        for block in self.ordered_blocks():
            into = preds[block.name]
            for phi in block.phis():
                phi.incomings = {
                    pred: value for pred, value in phi.incomings.items()
                    if pred in reachable and pred in into
                }
        return removed

    def all_instructions(self) -> list[Instruction]:
        result = []
        for block in self.ordered_blocks():
            result.extend(block.all_instructions())
        return result

    def weight(self) -> int:
        return sum(block.weight() for block in self.ordered_blocks())

    def __repr__(self) -> str:
        return f"<Function {self.name} ({len(self.blocks)} blocks)>"


@dataclass
class Module:
    """A compiled PPS-C translation unit.

    ``functions`` hold user functions (before inlining); ``ppses`` hold the
    lowered PPS bodies.  ``pipes`` and ``regions`` are the global resources.
    """

    name: str = "<module>"
    functions: dict[str, Function] = field(default_factory=dict)
    ppses: dict[str, Function] = field(default_factory=dict)
    pipes: dict[str, PipeRef] = field(default_factory=dict)
    regions: dict[str, RegionRef] = field(default_factory=dict)

    def pps(self, name: str) -> Function:
        return self.ppses[name]

