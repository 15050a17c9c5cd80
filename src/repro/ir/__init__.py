"""Three-address IR for PPS-C: values, instructions, CFGs, lowering."""

from __future__ import annotations

from repro.ir.function import BasicBlock, Function, Module
from repro.ir.inline import inline_calls, inline_module
from repro.ir.instructions import (
    ArrayLoad,
    ArrayStore,
    Assign,
    BinOp,
    Branch,
    Call,
    Instruction,
    Jump,
    Phi,
    PipeIn,
    PipeOut,
    Return,
    SwitchTerm,
    Terminator,
    UnOp,
)
from repro.ir.lowering import lower_program
from repro.ir.printer import format_function, format_module
from repro.ir.types import eval_binary, eval_unary, wrap32
from repro.ir.values import ArrayRef, Const, PipeRef, RegionRef, Value, VReg
from repro.ir.verify import VerificationError, verify_function

__all__ = [
    "ArrayLoad",
    "ArrayRef",
    "ArrayStore",
    "Assign",
    "BasicBlock",
    "BinOp",
    "Branch",
    "Call",
    "Const",
    "Function",
    "Instruction",
    "Jump",
    "Module",
    "Phi",
    "PipeIn",
    "PipeOut",
    "PipeRef",
    "RegionRef",
    "Return",
    "SwitchTerm",
    "Terminator",
    "UnOp",
    "VReg",
    "Value",
    "VerificationError",
    "eval_binary",
    "eval_unary",
    "format_function",
    "format_module",
    "inline_calls",
    "inline_module",
    "lower_program",
    "verify_function",
    "wrap32",
]
