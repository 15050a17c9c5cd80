"""Threaded-code compilation of IR functions for the interpreter.

Walking the IR means an ``isinstance`` chain and an operand re-resolution
on every executed instruction.  This module performs that work *once per
function*: each basic block becomes a tuple of per-instruction
closures with operand accessors (Const/VReg/array/pipe/intrinsic) already
bound, and each terminator becomes a closure returning the next block
name.  Executing a block is then a plain loop over precompiled callables
— the classic threaded-code technique.

Statistics accounting is hoisted out of the per-instruction closures:
consecutive non-blocking instructions form a *segment* whose instruction
count and weight are pre-summed and charged once per execution.  Ops that
can block (pipe in/out, ``pipe_recv``/``pipe_send``/``rbuf_next``, the
replication sequencer waits) still account themselves only once they
succeed, exactly like the instruction-by-instruction oracle in
:mod:`repro.testing.reference`, so completed runs produce bit-identical
statistics (same counters, same traps, same message formats); the
differential tests in ``tests/test_runtime_compiled_differential.py``
enforce this over randomized programs.

Blocking is expressed without generators: an op that cannot proceed
returns the *wait key* of the resource it needs — ``("recv", pipe)``,
``("send", pipe)``, ``("rbuf", port)``, ``("seq", resource)`` — and the
interpreter driver yields to the scheduler, which parks the interpreter
on that key until the resource is notified (see
:class:`repro.runtime.state.WakeHub`).

Compiled functions are cached per :class:`~repro.ir.function.Function`
object (weakly keyed), so repeated runs of the same function — the bench
fixtures sweep degrees 1-10 over the same apps — pay compilation once.
Callers that mutate a function's IR after executing it must call
:func:`invalidate` (the in-tree transformations always build fresh
functions, so this never happens in normal operation).
"""

from __future__ import annotations

import weakref

from repro.errors import TrapError
from repro.ir.function import Function
from repro.ir.instructions import (
    ArrayLoad,
    ArrayStore,
    Assign,
    BinOp,
    Branch,
    Call,
    Jump,
    Phi,
    PipeIn,
    PipeOut,
    Return,
    SwitchTerm,
    UnOp,
)
from repro.ir.types import binary_func, unary_func, wrap32
from repro.ir.values import Const, PipeRef, RegionRef, VReg


class CompiledBlock:
    """One basic block as per-instruction closures plus a terminator.

    ``ops`` holds one closure per IR instruction, in order.  ``steps`` is
    the execution plan the driver actually runs: non-blocking runs of ops
    are wrapped in a segment closure that charges their pre-summed
    statistics once, while blocking-capable ops stand alone.  Each step
    takes the interpreter and returns ``None`` (executed) or a wait key
    (blocked, nothing consumed, nothing accounted).  ``term`` returns the
    next block name, or ``None`` for function return; its statistics ride
    on the block's trailing segment.  ``cost`` is the fuel charged per
    execution of the block.
    """

    __slots__ = ("name", "ops", "steps", "term", "cost")

    def __init__(self, name: str, ops, steps, term):
        self.name = name
        self.ops = tuple(ops)
        self.steps = tuple(steps)
        self.term = term
        self.cost = len(self.ops) + 1  # +1 guards empty-block cycles


class CompiledFunction:
    """All blocks of one function, plus the pipes it touches."""

    __slots__ = ("entry", "blocks", "pipe_names", "registers")

    def __init__(self, entry: str, blocks: dict, pipe_names, registers=()):
        self.entry = entry
        self.blocks = blocks
        self.pipe_names = tuple(pipe_names)
        # Every VReg the function reads or writes. The driver seeds them
        # all to 0 before running, so the compiled closures can use plain
        # subscripts instead of ``regs.get(reg, 0)`` on every read.
        self.registers = tuple(registers)


_CACHE: "weakref.WeakKeyDictionary[Function, CompiledFunction]" = (
    weakref.WeakKeyDictionary()
)


def compile_function(function: Function) -> CompiledFunction:
    """Compile (or fetch the cached compilation of) ``function``."""
    compiled = _CACHE.get(function)
    if compiled is None:
        compiled = _compile(function)
        _CACHE[function] = compiled
    return compiled


def invalidate(function: Function) -> None:
    """Drop the cached compilation after mutating a function's IR."""
    _CACHE.pop(function, None)


def clear_cache() -> None:
    _CACHE.clear()


# -- operand accessors -------------------------------------------------------


def _reader(value):
    """A closure ``regs -> int`` for one operand, pre-resolved by kind."""
    if isinstance(value, Const):
        const = wrap32(value.value)
        def read(regs, _const=const):
            return _const
        return read
    if isinstance(value, VReg):
        def read(regs, _reg=value):
            return regs[_reg]
        return read
    raise TrapError(f"cannot evaluate operand {value!r}")


# -- straight-line instructions ----------------------------------------------
#
# These ops never block; their statistics are charged by the enclosing
# segment, so the closures are pure data movement with register reads
# inlined by operand kind.


def _compile_assign(inst: Assign):
    dest, src = inst.dest, inst.src
    if isinstance(src, Const):
        value = wrap32(src.value)

        def op(interp):
            interp.regs[dest] = value
        return op
    if isinstance(src, VReg):
        def op(interp):
            regs = interp.regs
            regs[dest] = regs[src]
        return op
    raise TrapError(f"cannot evaluate operand {src!r}")


def _compile_binop(inst: BinOp):
    dest, func = inst.dest, binary_func(inst.op)
    lhs, rhs = inst.lhs, inst.rhs
    if inst.op in ("/", "%"):
        read_lhs, read_rhs = _reader(lhs), _reader(rhs)
        location = inst.location

        def op(interp):
            regs = interp.regs
            try:
                regs[dest] = func(read_lhs(regs), read_rhs(regs))
            except ZeroDivisionError as exc:
                raise TrapError(
                    f"{interp.function.name}: {exc} at {location}"
                ) from exc
        return op

    lhs_const = isinstance(lhs, Const)
    rhs_const = isinstance(rhs, Const)
    if not lhs_const and not rhs_const:
        def op(interp):
            regs = interp.regs
            regs[dest] = func(regs[lhs], regs[rhs])
    elif not lhs_const:
        rval = wrap32(rhs.value)

        def op(interp):
            regs = interp.regs
            regs[dest] = func(regs[lhs], rval)
    elif not rhs_const:
        lval = wrap32(lhs.value)

        def op(interp):
            regs = interp.regs
            regs[dest] = func(lval, regs[rhs])
    else:
        value = func(wrap32(lhs.value), wrap32(rhs.value))

        def op(interp):
            interp.regs[dest] = value
    return op


def _compile_unop(inst: UnOp):
    dest, func, operand = inst.dest, unary_func(inst.op), inst.operand
    if isinstance(operand, Const):
        value = func(wrap32(operand.value))

        def op(interp):
            interp.regs[dest] = value
        return op

    def op(interp):
        regs = interp.regs
        regs[dest] = func(regs[operand])
    return op


def _compile_array_load(inst: ArrayLoad):
    array_name, read_index = inst.array.name, _reader(inst.index)
    dest = inst.dest

    def op(interp):
        regs = interp.regs
        index = read_index(regs)
        frame = interp.arrays[array_name]
        if not 0 <= index < len(frame):
            raise TrapError(
                f"{interp.function.name}: {array_name}[{index}] out of bounds"
            )
        regs[dest] = frame[index]
    return op


def _compile_array_store(inst: ArrayStore):
    array_name = inst.array.name
    read_index, read_value = _reader(inst.index), _reader(inst.value)

    def op(interp):
        regs = interp.regs
        index = read_index(regs)
        frame = interp.arrays[array_name]
        if not 0 <= index < len(frame):
            raise TrapError(
                f"{interp.function.name}: {array_name}[{index}] out of bounds"
            )
        frame[index] = read_value(regs)
    return op


def _compile_phi(inst: Phi):
    readers = {pred: _reader(value) for pred, value in inst.incomings.items()}
    dest = inst.dest

    def op(interp):
        read = readers.get(interp.prev_block)
        if read is None:
            raise TrapError(
                f"phi in {interp.function.name} has no incoming for "
                f"{interp.prev_block}"
            )
        regs = interp.regs
        regs[dest] = read(regs)
    return op


# -- blocking pseudo-ops -----------------------------------------------------
#
# These account for themselves only once they succeed (the reference oracle
# does the same: a blocked instruction adds nothing until it executes).


def _compile_pipe_in(inst: PipeIn):
    pipe_name, dests, weight = inst.pipe.name, tuple(inst.dests), inst.weight()
    count, wait = len(dests), ("recv", inst.pipe.name)

    def op(interp):
        pipe = interp.pipes[pipe_name]
        if not pipe.queue:
            return wait
        message = pipe.recv()
        if not isinstance(message, tuple):
            message = (message,)
        if len(message) != count:
            raise TrapError(
                f"{interp.function.name}: pipe_in expected "
                f"{count} words, got {len(message)}"
            )
        stats = interp.stats
        stats.instructions += 1
        stats.weight += weight
        stats.transmission_weight += weight
        regs = interp.regs
        for dest, word in zip(dests, message):
            regs[dest] = wrap32(word)
    return op


def _compile_pipe_out(inst: PipeOut):
    pipe_name, weight = inst.pipe.name, inst.weight()
    readers, wait = tuple(_reader(v) for v in inst.values), ("send", inst.pipe.name)
    if len(readers) == 1:
        read_a, = readers

        def message(regs):
            return (read_a(regs),)
    elif len(readers) == 2:
        read_a, read_b = readers

        def message(regs):
            return (read_a(regs), read_b(regs))
    elif len(readers) == 3:
        read_a, read_b, read_c = readers

        def message(regs):
            return (read_a(regs), read_b(regs), read_c(regs))
    else:
        def message(regs):
            return tuple(read(regs) for read in readers)

    def op(interp):
        pipe = interp.pipes[pipe_name]
        if not pipe.can_send():
            return wait
        stats = interp.stats
        stats.instructions += 1
        stats.weight += weight
        stats.transmission_weight += weight
        pipe.send(message(interp.regs))
    return op


# -- intrinsic calls ---------------------------------------------------------


def _compile_call(inst: Call):
    if not inst.is_intrinsic:
        callee = inst.callee

        def op(interp):
            raise TrapError(
                f"{interp.function.name}: user call {callee!r} reached the "
                f"interpreter (inlining missed it)"
            )
        return op

    name, dest, weight = inst.callee, inst.dest, inst.weight()

    # Blocking intrinsics (they must not consume or account until ready).
    if name == "pipe_recv":
        pipe_ref = inst.args[0]
        assert isinstance(pipe_ref, PipeRef)
        pipe_name, wait = pipe_ref.name, ("recv", pipe_ref.name)

        def op(interp):
            pipe = interp.pipes[pipe_name]
            if not pipe.queue:
                return wait
            stats = interp.stats
            stats.instructions += 1
            stats.weight += weight
            message = pipe.recv()
            if isinstance(message, tuple):
                raise TrapError(
                    f"pipe_recv on {pipe_name} found a multi-word message"
                )
            if dest is not None:
                interp.regs[dest] = wrap32(message)
        return op

    if name == "pipe_send":
        pipe_ref = inst.args[0]
        assert isinstance(pipe_ref, PipeRef)
        pipe_name, wait = pipe_ref.name, ("send", pipe_ref.name)
        read_value = _reader(inst.args[1])

        def op(interp):
            pipe = interp.pipes[pipe_name]
            if not pipe.can_send():
                return wait
            stats = interp.stats
            stats.instructions += 1
            stats.weight += weight
            pipe.send(read_value(interp.regs))
        return op

    if name == "rbuf_next":
        read_port = _reader(inst.args[0])

        def op(interp):
            port = read_port(interp.regs)
            element = interp.state.devices.rbuf_next(port)
            if element is None:
                return ("rbuf", port)
            stats = interp.stats
            stats.instructions += 1
            stats.weight += weight
            if dest is not None:
                interp.regs[dest] = wrap32(element)
        return op

    # Non-blocking intrinsics (the segment accounts for them): each
    # compiles to one fused closure — arguments read, method applied, and
    # the 32-bit wrap of the result inlined.
    if name == "pipe_empty":
        pipe_ref = inst.args[0]
        assert isinstance(pipe_ref, PipeRef)
        pipe_name = pipe_ref.name
        if dest is None:
            def op(interp):
                pass
            return op

        def op(interp):
            interp.regs[dest] = 0 if interp.pipes[pipe_name].queue else 1
        return op

    if name == "hash32":
        read_value = _reader(inst.args[0])
        if dest is None:
            def op(interp):
                pass
            return op

        def op(interp):
            regs = interp.regs
            value = ((read_value(regs) & 0xFFFFFFFF)
                     * 2654435761) & 0xFFFFFFFF
            if value > 0x7FFFFFFF:
                value -= 0x100000000
            regs[dest] = value
        return op

    if name == "mem_read":
        region = inst.args[0]
        assert isinstance(region, RegionRef)
        region_name = region.name
        read_addr = _reader(inst.args[1])

        # The bounds protocol of MachineState.region_read, inlined (the
        # trap messages must match it exactly).
        def op(interp):
            regs = interp.regs
            frame = interp.state.regions.get(region_name)
            if frame is None:
                raise TrapError(f"unknown memory region {region_name!r}")
            addr = read_addr(regs)
            if not 0 <= addr < len(frame):
                raise TrapError(f"{region_name}[{addr}] out of bounds "
                                    f"({len(frame)} words)")
            value = frame[addr] & 0xFFFFFFFF
            if value > 0x7FFFFFFF:
                value -= 0x100000000
            if dest is not None:
                regs[dest] = value
        return op

    if name == "mem_write":
        region = inst.args[0]
        assert isinstance(region, RegionRef)
        region_name = region.name
        read_addr, read_value = _reader(inst.args[1]), _reader(inst.args[2])

        def op(interp):
            regs = interp.regs
            interp.state.region_write(region_name, read_addr(regs),
                                      wrap32(read_value(regs)))
        return op

    if name == "mem_add":
        region = inst.args[0]
        assert isinstance(region, RegionRef)
        region_name = region.name
        read_addr, read_delta = _reader(inst.args[1]), _reader(inst.args[2])

        def op(interp):
            regs = interp.regs
            state = interp.state
            addr = read_addr(regs)
            old = state.region_read(region_name, addr)
            state.region_write(region_name, addr,
                               wrap32(old + read_delta(regs)))
            if dest is not None:
                value = old & 0xFFFFFFFF
                if value > 0x7FFFFFFF:
                    value -= 0x100000000
                regs[dest] = value
        return op

    if name == "trace":
        read_tag, read_value = _reader(inst.args[0]), _reader(inst.args[1])

        def op(interp):
            regs = interp.regs
            interp.state.trace(read_tag(regs), read_value(regs))
        return op

    if name in _PACKET_OPS:
        return _PACKET_OPS[name](tuple(_reader(arg) for arg in inst.args),
                                 dest)
    if name in _DEVICE_OPS:
        return _DEVICE_OPS[name](tuple(_reader(arg) for arg in inst.args),
                                 dest)

    def op(interp):  # pragma: no cover - the verifier rejects earlier
        raise TrapError(f"unimplemented intrinsic {name!r}")
    return op


def _packet_op(method, arity):
    """Build a fused op factory for one PacketStore method."""
    def make(readers, dest):
        if arity == 1:
            read_a, = readers
            if dest is None:
                def op(interp):
                    method(interp.state.packets, read_a(interp.regs))
            else:
                def op(interp):
                    regs = interp.regs
                    value = method(interp.state.packets,
                                   read_a(regs)) & 0xFFFFFFFF
                    if value > 0x7FFFFFFF:
                        value -= 0x100000000
                    regs[dest] = value
        elif arity == 2:
            read_a, read_b = readers
            if dest is None:
                def op(interp):
                    regs = interp.regs
                    method(interp.state.packets, read_a(regs), read_b(regs))
            else:
                def op(interp):
                    regs = interp.regs
                    value = method(interp.state.packets, read_a(regs),
                                   read_b(regs)) & 0xFFFFFFFF
                    if value > 0x7FFFFFFF:
                        value -= 0x100000000
                    regs[dest] = value
        else:
            read_a, read_b, read_c = readers
            if dest is None:
                def op(interp):
                    regs = interp.regs
                    method(interp.state.packets, read_a(regs), read_b(regs),
                           read_c(regs))
            else:
                def op(interp):
                    regs = interp.regs
                    value = method(interp.state.packets, read_a(regs),
                                   read_b(regs), read_c(regs)) & 0xFFFFFFFF
                    if value > 0x7FFFFFFF:
                        value -= 0x100000000
                    regs[dest] = value
        return op
    return make


def _device_op(method, arity):
    """Build a fused op factory for one DeviceModel method."""
    def make(readers, dest):
        if arity == 1:
            read_a, = readers
            if dest is None:
                def op(interp):
                    method(interp.state.devices, read_a(interp.regs))
            else:
                def op(interp):
                    regs = interp.regs
                    value = method(interp.state.devices,
                                   read_a(regs)) & 0xFFFFFFFF
                    if value > 0x7FFFFFFF:
                        value -= 0x100000000
                    regs[dest] = value
        elif arity == 2:
            read_a, read_b = readers
            if dest is None:
                def op(interp):
                    regs = interp.regs
                    method(interp.state.devices, read_a(regs), read_b(regs))
            else:
                def op(interp):
                    regs = interp.regs
                    value = method(interp.state.devices, read_a(regs),
                                   read_b(regs)) & 0xFFFFFFFF
                    if value > 0x7FFFFFFF:
                        value -= 0x100000000
                    regs[dest] = value
        else:
            read_a, read_b, read_c = readers
            if dest is None:
                def op(interp):
                    regs = interp.regs
                    method(interp.state.devices, read_a(regs), read_b(regs),
                           read_c(regs))
            else:
                def op(interp):
                    regs = interp.regs
                    value = method(interp.state.devices, read_a(regs),
                                   read_b(regs), read_c(regs)) & 0xFFFFFFFF
                    if value > 0x7FFFFFFF:
                        value -= 0x100000000
                    regs[dest] = value
        return op
    return make


def _packet_table():
    from repro.runtime.packets import PacketStore

    return {
        "pkt_alloc": _packet_op(PacketStore.alloc, 1),
        "pkt_free": _packet_op(PacketStore.free, 1),
        "pkt_len": _packet_op(PacketStore.length, 1),
        "pkt_load": _packet_op(PacketStore.load, 2),
        "pkt_store": _packet_op(PacketStore.store, 3),
        "pkt_load_u16": _packet_op(PacketStore.load_u16, 2),
        "pkt_store_u16": _packet_op(PacketStore.store_u16, 3),
        "pkt_load_u32": _packet_op(PacketStore.load_u32, 2),
        "pkt_store_u32": _packet_op(PacketStore.store_u32, 3),
        "pkt_meta_get": _packet_op(PacketStore.meta_get, 2),
        "pkt_meta_set": _packet_op(PacketStore.meta_set, 3),
    }


_PACKET_OPS = _packet_table()

def _device_table():
    from repro.runtime.devices import DeviceModel

    return {
        "rbuf_status": _device_op(DeviceModel.rbuf_status, 1),
        "rbuf_load": _device_op(DeviceModel.rbuf_load, 2),
        "rbuf_free": _device_op(DeviceModel.rbuf_free, 1),
        "tbuf_alloc": _device_op(DeviceModel.tbuf_alloc, 1),
        "tbuf_store": _device_op(DeviceModel.tbuf_store, 3),
        "tbuf_commit": _device_op(DeviceModel.tbuf_commit, 2),
    }


_DEVICE_OPS = _device_table()


# -- replication pseudo-instructions -----------------------------------------
#
# Both self-account: SeqWait because it blocks, SeqAdvance because the
# critical-section bookkeeping reads ``stats.weight`` and must see exactly
# the weight the reference oracle would at the same point.


def _compile_seq_wait(inst):
    resource, weight = inst.resource, inst.weight()
    wait = ("seq", resource)

    def op(interp):
        target = (interp.stats.iterations - 1) * interp.seq_stride \
            + interp.seq_offset
        if interp.state.sequencers.get(resource, 0) != target:
            return wait
        stats = interp.stats
        stats.instructions += 1
        stats.weight += weight
        # First wait of the iteration acquires the resource.
        interp._held.setdefault(resource, stats.weight)
    return op


def _compile_seq_advance(inst):
    resource, weight = inst.resource, inst.weight()

    def op(interp):
        stats = interp.stats
        stats.instructions += 1
        stats.weight += weight
        state = interp.state
        current = state.sequencers.get(resource, 0)
        expected = (stats.iterations - 1) * interp.seq_stride \
            + interp.seq_offset
        if current != expected:
            raise TrapError(
                f"{interp.function.name}: sequencer for {resource} "
                f"advanced out of order ({current} != {expected})"
            )
        state.advance_sequencer(resource, current + 1)
        start = interp._held.pop(resource, None)
        if start is not None:
            section = stats.weight - start
            stats.serial_weight[resource] = (
                stats.serial_weight.get(resource, 0) + section)
            stats.serial_sections[resource] = (
                stats.serial_sections.get(resource, 0) + 1)
    return op


# -- terminators -------------------------------------------------------------
#
# Terminator statistics ride on the block's trailing segment, so the
# closures only pick the successor.


def _compile_terminator(term):
    if isinstance(term, Jump):
        target = term.target

        def run(interp):
            return target
        return run
    if isinstance(term, Branch):
        cond = term.cond
        if_true, if_false = term.if_true, term.if_false
        if isinstance(cond, Const):
            taken = if_true if wrap32(cond.value) != 0 else if_false

            def run(interp):
                return taken
            return run

        def run(interp):
            return if_true if interp.regs[cond] != 0 else if_false
        return run
    if isinstance(term, SwitchTerm):
        cases, default = dict(term.cases), term.default
        value = term.value
        if isinstance(value, Const):
            target = cases.get(wrap32(value.value), default)

            def run(interp):
                return target
            return run

        def run(interp):
            return cases.get(interp.regs[value], default)
        return run
    if isinstance(term, Return):
        def run(interp):
            return None
        return run
    raise TrapError(f"unknown terminator {term}")


# -- the compiler ------------------------------------------------------------

_SIMPLE = {
    Assign: _compile_assign,
    BinOp: _compile_binop,
    UnOp: _compile_unop,
    ArrayLoad: _compile_array_load,
    ArrayStore: _compile_array_store,
    Phi: _compile_phi,
    PipeIn: _compile_pipe_in,
    PipeOut: _compile_pipe_out,
    Call: _compile_call,
}

_BLOCKING_INTRINSICS = frozenset({"pipe_recv", "pipe_send", "rbuf_next"})


def _compile_instruction(inst):
    """Compile one instruction to ``(op, self_accounting)``."""
    maker = _SIMPLE.get(type(inst))
    if maker is not None:
        if isinstance(inst, (PipeIn, PipeOut)):
            return maker(inst), True
        if isinstance(inst, Call) and inst.callee in _BLOCKING_INTRINSICS:
            return maker(inst), True
        return maker(inst), False
    # Extension pseudo-instructions (imported lazily: replicate depends on
    # the runtime for its own tests).
    from repro.pipeline.replicate import SeqAdvance, SeqWait

    if isinstance(inst, SeqWait):
        return _compile_seq_wait(inst), True
    if isinstance(inst, SeqAdvance):
        return _compile_seq_advance(inst), True

    def op(interp):
        raise TrapError(f"unknown instruction {inst}")
    return op, False


def _segment(ops, instructions, weight):
    """One non-blocking run of ops, accounted in a single charge."""
    if not ops:
        def step(interp):
            stats = interp.stats
            stats.instructions += instructions
            stats.weight += weight
        return step
    if len(ops) == 1:
        only = ops[0]

        def step(interp):
            stats = interp.stats
            stats.instructions += instructions
            stats.weight += weight
            only(interp)
        return step
    if len(ops) == 2:
        first, second = ops

        def step(interp):
            stats = interp.stats
            stats.instructions += instructions
            stats.weight += weight
            first(interp)
            second(interp)
        return step
    if len(ops) == 3:
        first, second, third = ops

        def step(interp):
            stats = interp.stats
            stats.instructions += instructions
            stats.weight += weight
            first(interp)
            second(interp)
            third(interp)
        return step

    def step(interp):
        stats = interp.stats
        stats.instructions += instructions
        stats.weight += weight
        for op in ops:
            op(interp)
    return step


def _collect_registers(function: Function):
    registers = []
    seen = set()
    for block in function.ordered_blocks():
        for inst in list(block.instructions) + [block.terminator]:
            if inst is None:
                continue
            for value in list(inst.uses()) + list(inst.defs()):
                if isinstance(value, VReg) and value not in seen:
                    seen.add(value)
                    registers.append(value)
    return registers


def _collect_pipe_names(function: Function):
    names = []
    for inst in function.all_instructions():
        pipe = None
        if isinstance(inst, (PipeIn, PipeOut)):
            pipe = inst.pipe.name
        elif (isinstance(inst, Call) and inst.args
                and isinstance(inst.args[0], PipeRef)):
            pipe = inst.args[0].name
        if pipe is not None and pipe not in names:
            names.append(pipe)
    return names


def _compile(function: Function) -> CompiledFunction:
    assert function.entry is not None
    blocks: dict[str, CompiledBlock] = {}
    for block in function.ordered_blocks():
        ops = []
        steps = []
        seg_ops: list = []
        seg_n = seg_w = 0
        for inst in block.instructions:
            op, self_accounting = _compile_instruction(inst)
            ops.append(op)
            if self_accounting:
                if seg_ops:
                    steps.append(_segment(tuple(seg_ops), seg_n, seg_w))
                    seg_ops, seg_n, seg_w = [], 0, 0
                steps.append(op)
            else:
                seg_ops.append(op)
                seg_n += 1
                seg_w += inst.weight()
        assert block.terminator is not None, block.name
        # The terminator's statistics fold into the trailing segment (an
        # op-less segment when the block ends with a blocking op).
        seg_n += 1
        seg_w += block.terminator.weight()
        steps.append(_segment(tuple(seg_ops), seg_n, seg_w))
        term = _compile_terminator(block.terminator)
        blocks[block.name] = CompiledBlock(block.name, ops, steps, term)
    return CompiledFunction(function.entry, blocks,
                            _collect_pipe_names(function),
                            _collect_registers(function))
