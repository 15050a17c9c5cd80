"""Operand values of the PPS-C IR.

Instructions operate on :class:`Const` (immediate words), :class:`VReg`
(virtual registers — unlimited, like MicroEngine GPRs before allocation),
and a few *symbolic* operands that name non-register resources:
:class:`RegionRef` (shared memory), :class:`PipeRef` (inter-PPS channels),
and :class:`ArrayRef` (a function-local array frame).
"""

from __future__ import annotations

from dataclasses import dataclass


class Value:
    """Base class of all IR operands."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Const(Value):
    """An immediate 32-bit constant."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


class VReg(Value):
    """A virtual register.

    Identity matters: two ``VReg`` objects are distinct registers even if
    they share a name.  ``base`` links SSA versions back to the source-level
    variable they renamed (used for live-set packing and for readable
    output); for non-SSA registers ``base`` is ``None``.
    """

    __slots__ = ("name", "base", "width")

    def __init__(self, name: str, base: "VReg | None" = None, width: int = 1):
        self.name = name
        self.base = base
        self.width = width  # words transmitted if this register crosses a cut

    def root(self) -> "VReg":
        """The original (pre-SSA) register this one renames, or itself."""
        reg: VReg = self
        while reg.base is not None:
            reg = reg.base
        return reg

    def __repr__(self) -> str:
        return f"%{self.name}"

    def __str__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True, slots=True)
class RegionRef(Value):
    """A reference to a declared shared-memory region."""

    name: str
    size: int = 0
    readonly: bool = False

    def __str__(self) -> str:
        return f"@{self.name}"


@dataclass(frozen=True, slots=True)
class PipeRef(Value):
    """A reference to a declared inter-PPS pipe."""

    name: str

    def __str__(self) -> str:
        return f"${self.name}"


class ArrayRef(Value):
    """A function-local fixed-size array (its own little memory frame).

    Identity equality: every declared array is a distinct frame.  Its
    storage lives as long as the PPS, wherever it is declared.
    """

    __slots__ = ("name", "size")

    def __init__(self, name: str, size: int):
        self.name = name
        self.size = size

    def __repr__(self) -> str:
        return f"&{self.name}"

    def __str__(self) -> str:
        return f"&{self.name}"
