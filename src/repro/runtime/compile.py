"""Generated-code compilation of IR functions for the interpreter.

Walking the IR means an ``isinstance`` chain and an operand re-resolution
on every executed instruction, and one closure per instruction still pays
a Python call per instruction.  This module instead writes *Python source*
for each basic block and compiles it: a run of non-blocking instructions
(a *segment*) becomes one function in which register operands are read
once into locals and written through to ``interp.regs``, constants are
literals, the 32-bit wrap is an inline expression, bounds checks and
their trap messages are inline, and intrinsics are direct method calls
on the machine state.  The block's trailing segment also evaluates the
terminator and returns the successor's name (``None`` for return), so a
block with no blocking instruction executes in one call.

Statistics accounting is per segment: the instruction count and weight
of a segment (and of the terminator, on the trailing one) are pre-summed
and charged before its first instruction executes.  Instructions that
can block (pipe in/out, ``pipe_recv``/``pipe_send``/``rbuf_next``, the
replication sequencer waits) are steps of their own and account for
themselves only once they succeed, exactly like the
instruction-by-instruction oracle in :mod:`repro.testing.reference`, so
completed runs produce bit-identical statistics (same counters, same
traps, same message formats); the differential tests in
``tests/test_runtime_compiled_differential.py`` enforce this over
randomized programs.

Blocking is expressed without generators: a step that cannot proceed
returns the *wait key* of the resource it needs — ``("recv", pipe)``,
``("send", pipe)``, ``("rbuf", port)``, ``("seq", resource)`` — and the
interpreter driver yields to the scheduler, which parks the interpreter
on that key until the resource is notified (see
:class:`repro.runtime.state.WakeHub`).

``compile()`` is several times dearer than building closures, so it is
paid lazily and shared: :func:`compile_function` only collects the
function's registers and pipes (cached weakly per
:class:`~repro.ir.function.Function` object), a block is generated the
first time the driver looks it up, and code objects are memoised by
source text — registers and switch tables enter through each step's
globals, so the many blocks that realize copies unchanged into stages
share one code object.  ``CompiledBlock.source`` keeps the text
for debugging.
"""

from __future__ import annotations

import weakref
from functools import lru_cache

from repro.errors import TrapError
from repro.ir.function import BasicBlock, Function
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
from repro.ir.types import COMPARISON_OPS, binary_func, wrap32
from repro.ir.values import Const, PipeRef, RegionRef, VReg


class CompiledBlock:
    """One basic block as generated step functions.

    ``steps`` are the segments and blocking instructions before the
    trailing segment: each takes the interpreter and returns ``None``
    (executed) or a wait key (blocked, nothing consumed, nothing
    accounted).  ``last`` is the trailing segment; it returns the next
    block's name, or ``None`` for function return.  ``cost`` is the fuel
    charged per execution of the block and ``source`` the generated text.
    """

    __slots__ = ("name", "steps", "last", "cost", "source")

    def __init__(self, name: str, steps, last, cost: int, source: str):
        self.name = name
        self.steps = tuple(steps)
        self.last = last
        self.cost = cost
        self.source = source


class _LazyBlocks(dict):
    """``name -> CompiledBlock``, each generated on its first lookup.

    The function is held weakly: the running interpreter owns it, and a
    strong reference from here would keep every key of the weak-keyed
    compilation cache alive.
    """

    __slots__ = ("_function",)

    def __init__(self, function: Function):
        self._function = weakref.ref(function)

    def __missing__(self, name: str) -> CompiledBlock:
        block = self[name] = _compile_block(self._function().block(name))
        return block


class CompiledFunction:
    """The lazily generated blocks of one function, plus what the driver
    needs before the first of them runs."""

    __slots__ = ("entry", "blocks", "pipe_names", "registers")

    def __init__(self, function: Function):
        assert function.entry is not None
        self.entry = function.entry
        self.blocks = _LazyBlocks(function)
        self.pipe_names = tuple(_collect_pipe_names(function))
        # Every VReg the function reads or writes. The driver seeds them
        # all to 0 before running, so generated code can use plain
        # subscripts instead of ``regs.get(reg, 0)`` on every read.
        self.registers = tuple(_collect_registers(function))


_CACHE: "weakref.WeakKeyDictionary[Function, CompiledFunction]" = (
    weakref.WeakKeyDictionary()
)


def compile_function(function: Function) -> CompiledFunction:
    """Compile (or fetch the cached compilation of) ``function``."""
    compiled = _CACHE.get(function)
    if compiled is None:
        compiled = _CACHE[function] = CompiledFunction(function)
    return compiled


def _collect_registers(function: Function):
    registers = []
    seen = set()
    for block in function.ordered_blocks():
        for inst in block.all_instructions():
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


# -- the source writer -------------------------------------------------------

#: ``wrap32`` of an expression, inline.
_WRAP = "((%s) + 0x80000000 & 0xFFFFFFFF) - 0x80000000"

#: Locals a step binds before its first line, when it uses them.
_PROLOGUE = {
    "regs": "interp.regs",
    "state": "interp.state",
    "packets": "interp.state.packets",
    "devices": "interp.state.devices",
}


@lru_cache(maxsize=4096)
def _code(source: str):
    """The code object of one step's text, shared by every step that
    generates the same text."""
    return compile(source, "<repro.runtime.compile>", "exec")


def _lit(text: str) -> str:
    """``text`` escaped for the inside of a generated ``f"..."``."""
    text = text.encode("unicode_escape").decode("ascii")
    return text.replace('"', '\\"').replace("{", "{{").replace("}", "}}")


class _Step:
    """The text and globals of one step function while it is written.

    Registers are numbered in order of first appearance: register ``n``
    is global ``Kn`` (the :class:`VReg` key into ``interp.regs``) and,
    once read or written, local ``rn``.  Register values are always
    wrapped 32-bit words — every write below stores one — which is why
    ``& | ^ >> ~`` need no wrap of their own.
    """

    def __init__(self):
        self.lines: list[str] = []
        self.env: dict = {"TrapError": TrapError}
        self.slots: dict[VReg, int] = {}  # registers that live in a local
        self.prologue: dict[str, None] = {}

    def _slot(self, reg: VReg) -> int:
        slot = self.slots.get(reg)
        if slot is None:
            slot = self.slots[reg] = len(self.slots)
            self.env[f"K{slot}"] = reg
            self.prologue["regs"] = None
        return slot

    def read(self, value) -> str:
        """The expression for one operand (loading a register's local
        on its first use)."""
        if isinstance(value, Const):
            word = wrap32(value.value)
            return str(word) if word >= 0 else f"({word})"
        if isinstance(value, RegionRef):
            return repr(value.name)
        if not isinstance(value, VReg):
            raise TrapError(f"cannot evaluate operand {value!r}")
        fresh = value not in self.slots
        slot = self._slot(value)
        if fresh:
            self.lines.append(f"r{slot} = regs[K{slot}]")
        return f"r{slot}"

    def store(self, dest: VReg, expr: str) -> str:
        """The statement writing ``expr`` (a wrapped word) to ``dest``."""
        slot = self._slot(dest)
        return f"regs[K{slot}] = r{slot} = {expr}"

    def write(self, dest: VReg | None, expr: str) -> None:
        if dest is not None:
            self.lines.append(self.store(dest, expr))

    def charge(self, instructions: int, weight: int, *,
               transmission: bool = False) -> None:
        self.lines += ["stats = interp.stats",
                       f"stats.instructions += {instructions}",
                       f"stats.weight += {weight}"]
        if transmission:
            self.lines.append(f"stats.transmission_weight += {weight}")

    def pipe(self, name: str, kind: str) -> None:
        """Bind ``pipe``; return its wait key unless it is ready to
        ``kind`` (``"recv"`` or ``"send"``)."""
        ready = "pipe.queue" if kind == "recv" else "pipe.can_send()"
        self.lines += [f"pipe = interp.pipes[{name!r}]",
                       f"if not {ready}: return {(kind, name)!r}"]

    def finish(self):
        """Compile the text; returns ``(function, source)``."""
        body = [f"{name} = {_PROLOGUE[name]}" for name in self.prologue]
        source = "def step(interp):\n" + "".join(
            f"    {line}\n" for line in body + self.lines)
        exec(_code(source), self.env)
        return self.env.pop("step"), source


# -- straight-line instructions ----------------------------------------------
#
# These never block; the enclosing segment has charged their statistics
# before the first of them runs.


def _emit_assign(step: _Step, inst: Assign) -> None:
    step.write(inst.dest, step.read(inst.src))


def _emit_binop(step: _Step, inst: BinOp) -> None:
    op, lhs = inst.op, step.read(inst.lhs)
    if op in ("<<", ">>"):
        # Shift counts are masked to 5 bits, as on the IXP ALU.
        rhs = (str(wrap32(inst.rhs.value) & 31) if isinstance(inst.rhs, Const)
               else f"({step.read(inst.rhs)} & 31)")
    else:
        rhs = step.read(inst.rhs)
    if op in ("/", "%"):
        func = "div32" if op == "/" else "mod32"
        step.env[func] = binary_func(op)
        step.lines += [
            "try:",
            "    " + step.store(inst.dest, f"{func}({lhs}, {rhs})"),
            "except ZeroDivisionError as exc:",
            '    raise TrapError(f"{interp.function.name}: {exc} at %s") '
            "from exc" % _lit(str(inst.location)),
        ]
    elif op in COMPARISON_OPS:
        step.write(inst.dest, f"1 if {lhs} {op} {rhs} else 0")
    elif op in ("+", "-", "*", "<<"):
        step.write(inst.dest, _WRAP % f"{lhs} {op} {rhs}")
    elif op in ("&", "|", "^", ">>"):
        step.write(inst.dest, f"{lhs} {op} {rhs}")
    else:
        raise ValueError(f"unknown binary operator {op!r}")


def _emit_unop(step: _Step, inst: UnOp) -> None:
    operand = step.read(inst.operand)
    if inst.op == "-":
        step.write(inst.dest, _WRAP % f"-{operand}")
    elif inst.op == "~":
        step.write(inst.dest, f"~{operand}")
    elif inst.op == "!":
        step.write(inst.dest, f"1 if {operand} == 0 else 0")
    else:
        raise ValueError(f"unknown unary operator {inst.op!r}")


def _emit_element(step: _Step, array, index: str) -> None:
    """Bind ``frame`` to the scratch array and bounds-check ``index``."""
    step.lines += [
        f"frame = interp.arrays[{array.name!r}]",
        "if not 0 <= %s < len(frame): raise TrapError("
        'f"{interp.function.name}: %s[{%s}] out of bounds")'
        % (index, _lit(array.name), index),
    ]


def _emit_array_load(step: _Step, inst: ArrayLoad) -> None:
    index = step.read(inst.index)
    _emit_element(step, inst.array, index)
    step.write(inst.dest, f"frame[{index}]")


def _emit_array_store(step: _Step, inst: ArrayStore) -> None:
    index, value = step.read(inst.index), step.read(inst.value)
    _emit_element(step, inst.array, index)
    step.lines.append(f"frame[{index}] = {value}")


def _emit_phi(step: _Step, inst: Phi) -> None:
    # Every incoming is read before the chain: a branch's store must not
    # pass for the load of a register a later branch reads.
    incomings = [(pred, step.read(value))
                 for pred, value in inst.incomings.items()]
    step.lines.append("pred = interp.prev_block")
    for number, (pred, value) in enumerate(incomings):
        step.lines.append(f"{'elif' if number else 'if'} pred == {pred!r}: "
                          + step.store(inst.dest, value))
    step.lines.append(
        f"{'else: ' if incomings else ''}raise TrapError("
        'f"phi in {interp.function.name} has no incoming for {pred}")')


#: Non-blocking intrinsics that are one method call on the machine state
#: (a region argument is passed by name).
_METHODS = {
    "pkt_alloc": "packets.alloc",
    "pkt_free": "packets.free",
    "pkt_len": "packets.length",
    "pkt_load": "packets.load",
    "pkt_store": "packets.store",
    "pkt_load_u16": "packets.load_u16",
    "pkt_store_u16": "packets.store_u16",
    "pkt_load_u32": "packets.load_u32",
    "pkt_store_u32": "packets.store_u32",
    "pkt_meta_get": "packets.meta_get",
    "pkt_meta_set": "packets.meta_set",
    "rbuf_status": "devices.rbuf_status",
    "rbuf_load": "devices.rbuf_load",
    "rbuf_free": "devices.rbuf_free",
    "tbuf_alloc": "devices.tbuf_alloc",
    "tbuf_store": "devices.tbuf_store",
    "tbuf_commit": "devices.tbuf_commit",
    "mem_write": "state.region_write",
    "trace": "state.trace",
}


def _emit_call(step: _Step, inst: Call) -> None:
    name, dest = inst.callee, inst.dest
    if not inst.is_intrinsic:
        step.lines.append(
            'raise TrapError(f"{interp.function.name}: user call %s reached '
            'the interpreter (inlining missed it)")' % _lit(repr(name)))
        return
    args = [step.read(arg) for arg in inst.args
            if not isinstance(arg, PipeRef)]
    method = _METHODS.get(name)
    if method is not None:
        step.prologue[method.split(".")[0]] = None
        call = f"{method}({', '.join(args)})"
        if dest is None:
            step.lines.append(call)
        else:
            step.write(dest, _WRAP % call)
    elif name == "pipe_empty":
        step.write(dest, f"0 if interp.pipes[{inst.args[0].name!r}].queue "
                         f"else 1")
    elif name == "hash32":
        step.write(dest, _WRAP % f"({args[0]} & 0xFFFFFFFF) * 2654435761")
    elif name == "mem_read":
        # The bounds protocol of MachineState.region_read, inlined (the
        # trap messages must match it exactly).
        region, addr = inst.args[0].name, args[1]
        step.prologue["state"] = None
        step.lines += [
            f"frame = state.regions.get({region!r})",
            "if frame is None: raise TrapError(%r)"
            % f"unknown memory region {region!r}",
            "if not 0 <= %s < len(frame): raise TrapError("
            'f"%s[{%s}] out of bounds ({len(frame)} words)")'
            % (addr, _lit(region), addr),
        ]
        step.write(dest, _WRAP % f"frame[{addr}]")
    elif name == "mem_add":
        region, addr, delta = args
        step.prologue["state"] = None
        step.lines += [
            f"old = state.region_read({region}, {addr})",
            f"state.region_write({region}, {addr}, "
            + _WRAP % f"old + {delta}" + ")",
        ]
        step.write(dest, _WRAP % "old")
    else:  # pragma: no cover - the verifier rejects earlier
        step.lines.append("raise TrapError(%r)"
                          % f"unimplemented intrinsic {name!r}")


def _emit_terminator(step: _Step, term) -> None:
    if isinstance(term, Jump):
        step.lines.append(f"return {term.target!r}")
    elif isinstance(term, Branch):
        step.lines.append(f"return {term.if_true!r} if {step.read(term.cond)}"
                          f" else {term.if_false!r}")
    elif isinstance(term, SwitchTerm):
        step.env["CASES"] = dict(term.cases)
        step.lines.append(f"return CASES.get({step.read(term.value)}, "
                          f"{term.default!r})")
    elif isinstance(term, Return):
        step.lines.append("return None")
    else:
        raise TrapError(f"unknown terminator {term}")


_EMIT = {
    Assign: _emit_assign,
    BinOp: _emit_binop,
    UnOp: _emit_unop,
    ArrayLoad: _emit_array_load,
    ArrayStore: _emit_array_store,
    Phi: _emit_phi,
    Call: _emit_call,
}


def _segment(instructions, terminator=None):
    """One non-blocking run of instructions (and the block's terminator,
    on the trailing segment), accounted in a single charge."""
    step = _Step()
    charged = instructions + ([terminator] if terminator is not None else [])
    step.charge(len(charged), sum(inst.weight() for inst in charged))
    for inst in instructions:
        emit = _EMIT.get(type(inst))
        if emit is None:
            step.lines.append("raise TrapError(%r)"
                              % f"unknown instruction {inst}")
        else:
            emit(step, inst)
    if terminator is not None:
        _emit_terminator(step, terminator)
    return step.finish()


# -- blocking instructions ---------------------------------------------------
#
# Steps of their own: they return their wait key while the resource is
# not ready and account for themselves only once they succeed (the
# reference oracle does the same: a blocked instruction adds nothing
# until it executes).


def _pipe_in_step(inst: PipeIn):
    step, count = _Step(), len(inst.dests)
    step.pipe(inst.pipe.name, "recv")
    step.lines += [
        "message = pipe.recv()",
        "if not isinstance(message, tuple): message = (message,)",
        "if len(message) != %d: raise TrapError(f\"{interp.function.name}: "
        'pipe_in expected %d words, got {len(message)}")' % (count, count),
    ]
    step.charge(1, inst.weight(), transmission=True)
    words = [f"w{number}" for number in range(count)]
    if words:
        step.lines.append(f"{', '.join(words)}, = message")
    for dest, word in zip(inst.dests, words):
        step.write(dest, _WRAP % word)
    return step.finish()


def _pipe_out_step(inst: PipeOut):
    step = _Step()
    step.pipe(inst.pipe.name, "send")
    step.charge(1, inst.weight(), transmission=True)
    words = [step.read(value) for value in inst.values]
    step.lines.append(f"pipe.send(({''.join(word + ', ' for word in words)}))")
    return step.finish()


def _pipe_recv_step(inst: Call):
    step, name = _Step(), inst.args[0].name
    step.pipe(name, "recv")
    step.charge(1, inst.weight())
    step.lines += [
        "message = pipe.recv()",
        "if isinstance(message, tuple): raise TrapError(%r)"
        % f"pipe_recv on {name} found a multi-word message",
    ]
    step.write(inst.dest, _WRAP % "message")
    return step.finish()


def _pipe_send_step(inst: Call):
    step = _Step()
    step.pipe(inst.args[0].name, "send")
    step.charge(1, inst.weight())
    step.lines.append(f"pipe.send({step.read(inst.args[1])})")
    return step.finish()


def _rbuf_next_step(inst: Call):
    step = _Step()
    port = step.read(inst.args[0])
    step.lines += [f"element = interp.state.devices.rbuf_next({port})",
                   f"if element is None: return ('rbuf', {port})"]
    step.charge(1, inst.weight())
    step.write(inst.dest, _WRAP % "element")
    return step.finish()


# The replication pseudo-instructions stay closures: they read no
# operand.  SeqAdvance never blocks but accounts for itself, because the
# critical-section bookkeeping reads ``stats.weight`` and must see
# exactly the weight the reference oracle would at the same point.


def _seq_wait_step(inst):
    resource, weight = inst.resource, inst.weight()
    wait = ("seq", resource)

    def step(interp):
        target = (interp.stats.iterations - 1) * interp.seq_stride \
            + interp.seq_offset
        if interp.state.sequencers.get(resource, 0) != target:
            return wait
        stats = interp.stats
        stats.instructions += 1
        stats.weight += weight
        # First wait of the iteration acquires the resource.
        interp._held.setdefault(resource, stats.weight)
    return step, f"# closure: {inst}\n"


def _seq_advance_step(inst):
    resource, weight = inst.resource, inst.weight()

    def step(interp):
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
    return step, f"# closure: {inst}\n"


_BLOCKING_CALLS = {
    "pipe_recv": _pipe_recv_step,
    "pipe_send": _pipe_send_step,
    "rbuf_next": _rbuf_next_step,
}


def _own_step(inst):
    """The builder of the step ``inst`` forms on its own, or ``None``
    for an instruction that rides in a segment."""
    if isinstance(inst, PipeIn):
        return _pipe_in_step
    if isinstance(inst, PipeOut):
        return _pipe_out_step
    if isinstance(inst, Call):
        return _BLOCKING_CALLS.get(inst.callee) if inst.is_intrinsic else None
    if type(inst) in _EMIT:
        return None
    # Extension pseudo-instructions (imported lazily: replicate depends on
    # the runtime for its own tests).
    from repro.pipeline.replicate import SeqAdvance, SeqWait

    if isinstance(inst, SeqWait):
        return _seq_wait_step
    if isinstance(inst, SeqAdvance):
        return _seq_advance_step
    return None


def _compile_block(block: BasicBlock) -> CompiledBlock:
    assert block.terminator is not None, block.name
    built, run = [], []
    for inst in block.instructions:
        own = _own_step(inst)
        if own is None:
            run.append(inst)
            continue
        if run:
            built.append(_segment(run))
            run = []
        built.append(own(inst))
    # The terminator's statistics ride on the trailing segment (an
    # instruction-less one when the block ends with a blocking step).
    last, last_source = _segment(run, block.terminator)
    return CompiledBlock(
        block.name, [step for step, _ in built], last,
        len(block.instructions) + 1,  # +1 guards empty-block cycles
        "".join(source for _, source in built) + last_source)
