"""Generated-code compilation of IR functions for the interpreter.

Walking the IR means an ``isinstance`` chain and an operand re-resolution
on every executed instruction, and one closure per instruction still pays
a Python call per instruction.  This module instead writes *Python source*
and compiles it.  The unit is the *region* (an extended basic block): a
block's trailing run of instructions plus, inline in the same function,
every successor that has exactly one predecessor, cannot block, and is
not a block the driver must see (the entry, an interpreter's
``loop_start``) — a ``Jump`` falls through, a ``Branch`` is an ``if``
whose nested side ends in ``return`` — up to :data:`_MAX_INSTRUCTIONS`
and :data:`_MAX_DEPTH`, no block twice.  Inside a region a register
lives in a Python local: loaded from ``interp.regs`` at most once per
path, written back only where control leaves the region and only if it
is live on that edge (a trap drops the rest: quarantine zeroes ``regs``
and an aborting trap never reads them).  Constants are literals, the
32-bit wrap is an inline expression, bounds checks and their trap
messages are inline, and intrinsics are direct method calls on the
machine state.  A region returns the name of the block the driver runs
next (``None`` for return).

Statistics accounting is per *run* of non-blocking instructions: its
instruction count and weight (and the terminator's, on a block's
trailing run) are pre-summed and charged before its first instruction
executes.  An inlined block first does what the driver does for a block
it sees — ``prev_block``, ``block_counts``, the ``fuel`` charge and
test — so counters, traps and injected-trap firing points stay where
the instruction-by-instruction oracle in :mod:`repro.testing.reference`
puts them.  Instructions that can block (pipe in/out,
``pipe_recv``/``pipe_send``/``rbuf_next``, the replication sequencer
waits) account for themselves only once they succeed, exactly like the
oracle, so completed runs produce bit-identical statistics (same
counters, same traps, same message formats); the differential tests in
``tests/test_runtime_compiled_differential.py`` enforce this over
randomized programs.

Blocking is expressed without generators: a blocking instruction heads
the step of the run behind it, and a step that cannot proceed returns
the *wait key* of the resource it needs — ``("recv", pipe)``,
``("send", pipe)``, ``("rbuf", port)``, ``("seq", resource)`` — having
consumed and accounted nothing, so calling it again is idempotent; the
interpreter driver yields to the scheduler, which parks the interpreter
on that key until the resource is notified (see
:class:`repro.runtime.state.WakeHub`).

``compile()`` is several times dearer than building closures, so it is
paid lazily and shared: :func:`compile_function` only collects the
function's registers and pipes (cached weakly per
:class:`~repro.ir.function.Function` object), predecessors and liveness
are taken at the function's first block lookup, a region is generated
the first time the driver looks up its root, and code objects are
memoised by source text — registers and switch tables enter through
each step's globals, so the many blocks that realize copies unchanged
into stages share one code object.  ``CompiledBlock.source`` keeps the
text, and each function is named after its block, which is what a
profile or a traceback shows.
"""

from __future__ import annotations

import re
import weakref
from functools import lru_cache

from repro.analysis.liveness import Liveness
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

#: A region stops growing at this many IR instructions and nested ``if``s
#: (well inside CPython's limits on indentation and nested blocks).
_MAX_INSTRUCTIONS, _MAX_DEPTH = 400, 12


class CompiledBlock:
    """One basic block as generated step functions.

    Each of ``steps`` takes the interpreter and runs up to the next
    blocking instruction; it returns the wait key (a tuple) of the one at
    its own head while that cannot proceed — nothing consumed, nothing
    accounted — and otherwise ``None``, except the last: that is the
    region (the block's trailing run, then the blocks of ``region``
    after the first, inline) and returns the next block's name, ``None``
    for function return.  ``cost`` is the fuel the driver charges per
    execution of the block and ``source`` the generated text.
    """

    __slots__ = ("name", "steps", "cost", "source", "region")

    def __init__(self, name: str, steps, cost: int, source: str, region):
        self.name = name
        self.steps = tuple(steps)
        self.cost = cost
        self.source = source
        self.region = tuple(region)


class _LazyBlocks(dict):
    """``name -> CompiledBlock``, each generated on its first lookup.
    The first of all also takes what regions need of the whole function:
    the blocks that may run inline (``inlinable``) and the registers live
    into each block, as ``int`` masks (bit ``index[reg]``) — a
    :class:`Liveness` kept per function was a tenth of a simulation's
    memory.

    The function is held weakly: the running interpreter owns it, and a
    strong reference from here would keep every key of the weak-keyed
    compilation cache alive.
    """

    __slots__ = ("_function", "_registers", "pinned", "index", "inlinable",
                 "_live_in")

    def __init__(self, function: Function, registers: tuple):
        self._function = weakref.ref(function)
        self._registers = registers
        self.pinned: set = set()  # loop starts: the driver must see them
        self.index = None

    def __missing__(self, name: str) -> CompiledBlock:
        function = self._function()
        if self.index is None:
            self.index = {reg: number
                          for number, reg in enumerate(self._registers)}
            self._live_in = {
                block: sum(1 << self.index[reg] for reg in live)
                for block, live in Liveness(function).live_in.items()}
            self.inlinable = frozenset(
                block for block, preds in function.predecessors().items()
                if len(preds) == 1 and block != function.entry
                and not any(map(_own_step,
                                function.block(block).instructions)))
        block = self[name] = _compile_block(self, function,
                                            function.block(name))
        return block

    def live_on(self, block: BasicBlock, targets) -> int:
        """The registers live on the edges from ``block`` to ``targets``."""
        live = 0
        for target in targets:
            live |= self._live_in[target]
            for phi in self._function().block(target).phis():
                value = phi.incomings.get(block.name)
                if isinstance(value, VReg):
                    live |= 1 << self.index[value]
        return live


class CompiledFunction:
    """The lazily generated blocks of one function, plus what the driver
    needs before the first of them runs."""

    __slots__ = ("entry", "blocks", "pipe_names", "registers")

    def __init__(self, function: Function):
        assert function.entry is not None
        self.entry = function.entry
        self.pipe_names = tuple(_collect_pipe_names(function))
        # Every VReg the function reads or writes. The driver seeds them
        # all to 0 before running, so generated code can use plain
        # subscripts instead of ``regs.get(reg, 0)`` on every read.
        self.registers = tuple(_collect_registers(function))
        self.blocks = _LazyBlocks(function, self.registers)

    def pin(self, name: str | None) -> None:
        """Keep ``name`` out of every region: the driver counts an
        iteration each time it sees it (regions that inlined it are
        generated again)."""
        if name not in self.blocks.pinned:
            self.blocks.pinned.add(name)
            self.blocks.clear()


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

#: Locals a step binds before its first line, when its text names them.
_PROLOGUE = {
    "regs": "interp.regs",
    "state": "interp.state",
    "packets": "interp.state.packets",
    "devices": "interp.state.devices",
    "stats": "interp.stats",
    "counts": "interp.stats.block_counts",
}
#: ... found by name (a hit inside a trap message only binds one too many).
_NAMED = re.compile(r"(?<![.\w])(%s)\b" % "|".join(_PROLOGUE))


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
    ``& | ^ >> ~`` need no wrap of their own.  ``loaded`` and ``dirty``
    describe the path being written: a nested ``if`` side ends in
    ``return``, so whoever opens one restores both (and ``indent``)
    behind it.
    """

    def __init__(self, blocks: _LazyBlocks, function: Function, root: str):
        self.blocks, self.function = blocks, function
        self.lines: list[str] = []
        self.env: dict = {"TrapError": TrapError}
        self.slots: dict[VReg, int] = {}
        self.indent = "    "
        self.loaded: set[int] = set()  # slots whose local is current
        self.dirty: set[int] = set()   # ... and newer than interp.regs
        self.region = [root]           # the blocks written so far
        self.size = 0                  # ... and their IR instructions
        self.pred: str | None = None   # of the block being written, if inline

    def emit(self, *lines: str) -> None:
        self.lines += [self.indent + line for line in lines]

    def _slot(self, reg: VReg) -> int:
        slot = self.slots.get(reg)
        if slot is None:
            slot = self.slots[reg] = len(self.slots)
            self.env[f"K{slot}"] = reg
        return slot

    def read(self, value) -> str:
        """The expression for one operand (loading a register's local
        on its first use on this path)."""
        if isinstance(value, Const):
            word = wrap32(value.value)
            return str(word) if word >= 0 else f"({word})"
        if isinstance(value, RegionRef):
            return repr(value.name)
        if not isinstance(value, VReg):
            raise TrapError(f"cannot evaluate operand {value!r}")
        slot = self._slot(value)
        if slot not in self.loaded:
            self.loaded.add(slot)
            self.emit(f"r{slot} = regs[K{slot}]")
        return f"r{slot}"

    def store(self, dest: VReg, expr: str) -> str:
        """The statement writing ``expr`` (a wrapped word) to ``dest``."""
        slot = self._slot(dest)
        self.loaded.add(slot)
        self.dirty.add(slot)
        return f"r{slot} = {expr}"

    def write(self, dest: VReg | None, expr: str) -> None:
        if dest is not None:
            self.emit(self.store(dest, expr))

    def flush(self, live: int = -1) -> None:
        """Write back what this path changed and ``live`` (a mask; all
        registers by default) holds."""
        index, env = self.blocks.index, self.env
        for slot in sorted(self.dirty):
            if live >> index[env[f"K{slot}"]] & 1:
                self.emit(f"regs[K{slot}] = r{slot}")

    def charge(self, instructions: int, weight: int, *,
               transmission: bool = False) -> None:
        self.emit(f"stats.instructions += {instructions}",
                  f"stats.weight += {weight}")
        if transmission:
            self.emit(f"stats.transmission_weight += {weight}")

    def pipe(self, name: str, kind: str) -> None:
        """Bind ``pipe``; return its wait key unless it is ready to
        ``kind`` (``"recv"`` or ``"send"``)."""
        ready = "pipe.queue" if kind == "recv" else "pipe.can_send()"
        self.emit(f"pipe = interp.pipes[{name!r}]",
                  f"if not {ready}: return {(kind, name)!r}")

    def finish(self):
        """Compile the text as a function named after the root block;
        returns ``(function, source)``."""
        name = "at_" + re.sub(r"\W", "_", self.region[0])
        text = "".join(line + "\n" for line in self.lines)
        named = set(_NAMED.findall(text))
        body = "".join(f"    {local} = {value}\n"
                       for local, value in _PROLOGUE.items() if local in named)
        source = f"def {name}(interp):\n{body}{text}"
        exec(_code(source), self.env)
        return self.env.pop(name), source


# -- straight-line instructions ----------------------------------------------
#
# These never block; the enclosing run has charged their statistics
# before the first of them executes.


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
        step.emit(
            "try:",
            "    " + step.store(inst.dest, f"{func}({lhs}, {rhs})"),
            "except ZeroDivisionError as exc:",
            '    raise TrapError(f"{interp.function.name}: {exc} at %s") '
            "from exc" % _lit(str(inst.location)),
        )
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
    step.emit(
        f"frame = interp.arrays[{array.name!r}]",
        "if not 0 <= %s < len(frame): raise TrapError("
        'f"{interp.function.name}: %s[{%s}] out of bounds")'
        % (index, _lit(array.name), index),
    )


def _emit_array_load(step: _Step, inst: ArrayLoad) -> None:
    index = step.read(inst.index)
    _emit_element(step, inst.array, index)
    step.write(inst.dest, f"frame[{index}]")


def _emit_array_store(step: _Step, inst: ArrayStore) -> None:
    index, value = step.read(inst.index), step.read(inst.value)
    _emit_element(step, inst.array, index)
    step.emit(f"frame[{index}] = {value}")


def _emit_phi(step: _Step, inst: Phi) -> None:
    missing = ('raise TrapError(f"phi in {interp.function.name} has no '
               'incoming for %s")')
    if step.pred is not None:  # inline: the one predecessor is known
        if step.pred in inst.incomings:
            step.write(inst.dest, step.read(inst.incomings[step.pred]))
        else:
            step.emit(missing % _lit(step.pred))
        return
    # Every incoming is read before the chain: a branch's store must not
    # pass for the load of a register a later branch reads.
    incomings = [(pred, step.read(value))
                 for pred, value in inst.incomings.items()]
    step.emit("pred = interp.prev_block")
    for number, (pred, value) in enumerate(incomings):
        step.emit(f"{'elif' if number else 'if'} pred == {pred!r}: "
                  + step.store(inst.dest, value))
    step.emit(("else: " if incomings else "") + missing % "{pred}")


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
        step.emit(
            'raise TrapError(f"{interp.function.name}: user call %s reached '
            'the interpreter (inlining missed it)")' % _lit(repr(name)))
        return
    args = [step.read(arg) for arg in inst.args
            if not isinstance(arg, PipeRef)]
    method = _METHODS.get(name)
    if method is not None:
        call = f"{method}({', '.join(args)})"
        if dest is None:
            step.emit(call)
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
        step.emit(
            f"frame = state.regions.get({region!r})",
            "if frame is None: raise TrapError(%r)"
            % f"unknown memory region {region!r}",
            "if not 0 <= %s < len(frame): raise TrapError("
            'f"%s[{%s}] out of bounds ({len(frame)} words)")'
            % (addr, _lit(region), addr),
        )
        step.write(dest, _WRAP % f"frame[{addr}]")
    elif name == "mem_add":
        region, addr, delta = args
        step.emit(
            f"old = state.region_read({region}, {addr})",
            f"state.region_write({region}, {addr}, "
            + _WRAP % f"old + {delta}" + ")",
        )
        step.write(dest, _WRAP % "old")
    else:  # pragma: no cover - the verifier rejects earlier
        step.emit("raise TrapError(%r)" % f"unimplemented intrinsic {name!r}")


_EMIT = {
    Assign: _emit_assign,
    BinOp: _emit_binop,
    UnOp: _emit_unop,
    ArrayLoad: _emit_array_load,
    ArrayStore: _emit_array_store,
    Phi: _emit_phi,
    Call: _emit_call,
}


def _emit_run(step: _Step, instructions, terminator=None) -> None:
    """One non-blocking run of instructions, accounted in a single
    charge (with the block's terminator, on its trailing run)."""
    charged = instructions + ([terminator] if terminator is not None else [])
    if charged:
        step.charge(len(charged), sum(inst.weight() for inst in charged))
    for inst in instructions:
        emit = _EMIT.get(type(inst))
        if emit is None:
            step.emit("raise TrapError(%r)" % f"unknown instruction {inst}")
        else:
            emit(step, inst)


# -- regions -----------------------------------------------------------------


def _inlines(step: _Step, target: str, depth: int) -> bool:
    """Whether ``target`` may run inline at this point of the region."""
    return (target in step.blocks.inlinable
            and target not in step.blocks.pinned
            and target not in step.region and depth <= _MAX_DEPTH
            and step.size + len(step.function.block(target).instructions)
            < _MAX_INSTRUCTIONS)


def _emit_exit(step: _Step, block: BasicBlock, targets, result: str) -> None:
    """Leave the region from ``block`` for one of ``targets``."""
    step.flush(step.blocks.live_on(block, targets))
    step.emit(f"interp.prev_block = {block.name!r}", f"return {result}")


def _emit_edge(step: _Step, block: BasicBlock, target: str,
               depth: int) -> None:
    """Control passes from ``block`` to ``target``: inline, after what
    the driver does for a block it sees, or back to the driver."""
    if not _inlines(step, target, depth):
        _emit_exit(step, block, [target], repr(target))
        return
    successor = step.function.block(target)
    step.region.append(target)
    step.emit(f"interp.prev_block = {block.name!r}",
              f"counts[{target!r}] = counts.get({target!r}, 0) + 1",
              f"interp.fuel = fuel = interp.fuel - "
              f"{len(successor.instructions) + 1}",
              "if fuel <= 0: raise interp._fuel_exhausted()")
    step.pred = block.name
    _emit_block(step, successor, successor.instructions, depth)


def _emit_block(step: _Step, block: BasicBlock, run, depth: int) -> None:
    """``run`` (the trailing instructions of ``block``), its terminator
    and everything that inlines behind it."""
    term = block.terminator
    step.size += len(run) + 1
    _emit_run(step, run, term)
    if isinstance(term, Jump):
        _emit_edge(step, block, term.target, depth)
    elif isinstance(term, Branch):
        cond, nested, flat = step.read(term.cond), term.if_true, term.if_false
        if _inlines(step, nested, depth + 1) and not _inlines(step, flat,
                                                              depth):
            # A guard: the side that leaves nests, the chain stays flat.
            cond, nested, flat = f"not {cond}", flat, nested
        saved = step.indent, set(step.loaded), set(step.dirty)
        step.emit(f"if {cond}:")
        step.indent += "    "
        _emit_edge(step, block, nested, depth + 1)
        step.indent, step.loaded, step.dirty = saved
        _emit_edge(step, block, flat, depth)
    elif isinstance(term, SwitchTerm):
        cases = f"CASES{len(step.env)}"
        step.env[cases] = dict(term.cases)
        _emit_exit(step, block, term.successors(), f"{cases}.get("
                   f"{step.read(term.value)}, {term.default!r})")
    elif isinstance(term, Return):
        _emit_exit(step, block, [], "None")
    else:
        raise TrapError(f"unknown terminator {term}")


# -- blocking instructions ---------------------------------------------------
#
# Each heads the step of the run behind it: it returns its wait key while
# the resource is not ready and accounts for itself only once it succeeds
# (the reference oracle does the same: a blocked instruction adds nothing
# until it executes).


def _emit_pipe_in(step: _Step, inst: PipeIn) -> None:
    count = len(inst.dests)
    step.pipe(inst.pipe.name, "recv")
    step.emit(
        "message = pipe.recv()",
        "if not isinstance(message, tuple): message = (message,)",
        "if len(message) != %d: raise TrapError(f\"{interp.function.name}: "
        'pipe_in expected %d words, got {len(message)}")' % (count, count),
    )
    step.charge(1, inst.weight(), transmission=True)
    words = [f"w{number}" for number in range(count)]
    if words:
        step.emit(f"{', '.join(words)}, = message")
    for dest, word in zip(inst.dests, words):
        step.write(dest, _WRAP % word)


def _emit_pipe_out(step: _Step, inst: PipeOut) -> None:
    step.pipe(inst.pipe.name, "send")
    step.charge(1, inst.weight(), transmission=True)
    words = [step.read(value) for value in inst.values]
    step.emit(f"pipe.send(({''.join(word + ', ' for word in words)}))")


def _emit_pipe_recv(step: _Step, inst: Call) -> None:
    name = inst.args[0].name
    step.pipe(name, "recv")
    step.charge(1, inst.weight())
    step.emit(
        "message = pipe.recv()",
        "if isinstance(message, tuple): raise TrapError(%r)"
        % f"pipe_recv on {name} found a multi-word message",
    )
    step.write(inst.dest, _WRAP % "message")


def _emit_pipe_send(step: _Step, inst: Call) -> None:
    step.pipe(inst.args[0].name, "send")
    step.charge(1, inst.weight())
    step.emit(f"pipe.send({step.read(inst.args[1])})")


def _emit_rbuf_next(step: _Step, inst: Call) -> None:
    port = step.read(inst.args[0])
    step.emit(f"element = interp.state.devices.rbuf_next({port})",
              f"if element is None: return ('rbuf', {port})")
    step.charge(1, inst.weight())
    step.write(inst.dest, _WRAP % "element")


# The replication pseudo-instructions stay closures, steps of their own
# (what they return is that step): they read no operand.  SeqAdvance
# never blocks but accounts for itself, because the critical-section
# bookkeeping reads ``stats.weight`` and must see exactly the weight the
# reference oracle would at the same point.


def _seq_wait_step(_, inst):
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


def _seq_advance_step(_, inst):
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
    "pipe_recv": _emit_pipe_recv,
    "pipe_send": _emit_pipe_send,
    "rbuf_next": _emit_rbuf_next,
}


def _own_step(inst):
    """``head`` when ``inst`` starts a step — ``head(step, inst)`` writes
    it at the top of ``step``, or returns the finished step a closure
    is on its own — and ``None`` for an instruction that rides in a run."""
    if isinstance(inst, PipeIn):
        return _emit_pipe_in
    if isinstance(inst, PipeOut):
        return _emit_pipe_out
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


def _compile_block(blocks: _LazyBlocks, function: Function,
                   block: BasicBlock) -> CompiledBlock:
    assert block.terminator is not None, block.name
    built, run = [], []
    step = _Step(blocks, function, block.name)
    for inst in block.instructions:
        head = _own_step(inst)
        if head is None:
            run.append(inst)
            continue
        if run or step.lines:
            # The step in front ends here, and the next reads interp.regs.
            _emit_run(step, run)
            step.flush()
            built.append(step.finish())
            step, run = _Step(blocks, function, block.name), []
        alone = head(step, inst)
        if alone is not None:
            built.append(alone)
    # The terminator's statistics ride on the trailing run (an
    # instruction-less one when the block ends with a blocking step).
    _emit_block(step, block, run, 0)
    built.append(step.finish())
    return CompiledBlock(
        block.name, [function for function, _ in built],
        len(block.instructions) + 1,  # +1 guards empty-block cycles
        "".join(text for _, text in built), step.region)
