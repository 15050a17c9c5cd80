"""Generated-code compilation of IR functions for the interpreter.

Walking the IR means an ``isinstance`` chain and an operand re-resolution
on every executed instruction, and one closure per instruction still pays
a Python call per instruction.  This module instead writes *Python source*
and compiles it.  The unit is the *region*: a root block and, inline in
the same function, every block all of whose predecessors are in the
region already — a single-entry, acyclic piece of the CFG, typically a
whole loop body, written as structured code.  A ``Jump`` falls through; a
``Branch`` is an ``if`` whose nested side ends in ``return`` while the
other stays flat, or an ``if``/``else`` when both sides meet again; a
``SwitchTerm`` is an ``if``/``elif`` chain; and a *join* — a block with
several predecessors — is written once, behind the construct of the
nearest block that dominates them all, where its paths fall out to (if
paths bound for different joins fall out together, each sets a local
``nxt`` and a join sits under ``if nxt == n``).  Regions are planned for
the whole function before any text is written (:meth:`_LazyBlocks._plan`,
within :data:`_MAX_INSTRUCTIONS` and :data:`_MAX_DEPTH`), so no block is
in two; the entry, an interpreter's ``loop_start``, loop headers and
blocks that wait on a device or a sequencer are always roots.

Inside a region a register lives in a Python local: loaded from
``interp.regs`` at most once per path, written back only where control
leaves the region and only if it is live on that edge (a trap drops the
rest: quarantine zeroes ``regs`` and an aborting trap never reads them).
At a join a local survives iff it is current on every incoming path; what
only some paths changed and the join still needs is written back where
those paths end.  Constants are literals, the 32-bit wrap, bounds checks
and trap messages are inline, and intrinsics are direct method calls on
the machine state.  A region returns the name of the block the driver
runs next (``None`` for return).

Statistics accounting is per *run* of non-blocking instructions: its
instruction count and weight (and the terminator's, on a block's
trailing run) are pre-summed and charged before its first instruction
executes.  An inlined block first does what the driver does for a block
it sees — ``prev_block``, ``block_counts``, the ``fuel`` charge and
test — so counters, traps and injected-trap firing points stay where
the instruction-by-instruction oracle in :mod:`repro.testing.reference`
puts them.  Instructions that can block account for themselves only once
they succeed, exactly like the oracle, so completed runs produce
bit-identical statistics, traps and messages;
``tests/test_runtime_compiled_differential.py`` enforces this over
randomized programs.

Blocking is expressed without generators: in a root, a blocking
instruction heads the step of the run behind it, and a step that cannot
proceed returns the *wait key* of the resource it needs —
``("recv", pipe)``, ``("send", pipe)``, ``("rbuf", port)``,
``("seq", resource)`` — having consumed and accounted nothing, so calling
it again is idempotent; the driver yields to the scheduler, which parks
the interpreter on that key until the resource is notified
(:class:`repro.runtime.state.WakeHub`).  A block that waits on pipes only
may still run inline: its pipes are tested, without side effect, before
anything of it is accounted, and if one is not ready the region exits to
that block — generated then, alone, as a root, where the driver blocks.

``compile()`` is several times dearer than building closures, so it is
paid lazily and shared: :func:`compile_function` only collects registers
and pipes (cached weakly per ``Function`` object), liveness and the plan
are taken at the function's first block lookup, a region is generated
when the driver first looks up its root, and code objects are memoised by
source text (registers enter through each step's globals).
``CompiledBlock.source`` keeps the text, and each function is named after
its block, which is what a profile or a traceback shows.
"""

from __future__ import annotations

import re
import weakref
from contextlib import contextmanager
from functools import lru_cache

from repro.analysis.cfg import cfg_of
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

#: A region stops growing at this many IR instructions (`compile()` of a
#: longer function is what `peak_rss_mb` sees) and this many nested ``if``s.
_MAX_INSTRUCTIONS, _MAX_DEPTH = 250, 12


class CompiledBlock:
    """One region root as generated step functions.

    Each of ``steps`` takes the interpreter and runs up to the next
    blocking instruction; it returns the wait key (a tuple) of the one at
    its own head while that cannot proceed — nothing consumed, nothing
    accounted — and otherwise ``None``, except the last: that is the
    region (the block's trailing run, then the rest of ``region``,
    inline) and returns the next block's name, ``None`` for return.
    ``cost`` is the fuel the driver charges per execution of the block
    and ``source`` the generated text."""

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
    the plan, and the registers ``live`` into each block as ``int`` masks
    (bit ``index[reg]``) — a :class:`Liveness` kept per function was a
    tenth of a simulation's memory.  The function is held weakly: the
    running interpreter owns it, and a strong reference from here would
    keep every key of the weak-keyed compilation cache alive."""

    __slots__ = ("_function", "_registers", "pinned", "index", "live",
                 "owner", "parent", "joins", "merges", "arms", "tagged")

    def __init__(self, function: Function, registers: tuple):
        self._function = weakref.ref(function)
        self._registers = registers
        self.pinned: set = set()  # loop starts: the driver must see them
        self.index = None

    def __missing__(self, name: str) -> CompiledBlock:
        function = self._function()
        if self.index is None:
            self._plan(function)
            index = self.index = {reg: number for number, reg
                                  in enumerate(self._registers)}
            self.live = {}
            for block, live in Liveness(function).live_in.items():
                # ... and what its phis read, whichever edge is taken.
                live = set(live).union(
                    value for phi in function.block(block).phis()
                    for value in phi.incomings.values()
                    if isinstance(value, VReg))
                self.live[block] = sum(1 << index[reg] for reg in live)
        block = self[name] = _compile_block(self, function,
                                            function.block(name))
        return block

    def _plan(self, function: Function) -> None:
        """Decide every region of ``function`` before any is written, in
        reverse postorder (nothing here depends on hashing).  A block is
        a root when it must be (the entry, pinned, waits on more than
        pipes, a loop header), when its predecessors sit in different
        regions or theirs is full; otherwise ``owner`` is their region's
        root and ``parent`` their nearest common dominator, whose
        ``joins`` it is one of when they are several (``merges``: all of
        those).  Bottom-up, ``falls`` holds the joins control may fall
        out to from a block's text and all it dominates; where several
        are awaited at once all are ``tagged`` — every edge to one sets
        ``nxt``, and it is written under ``if nxt == n`` — and ``arms``
        says how a ``Branch`` is written, ``(nested, other, flat)``: the
        side that cannot fall out nests under the ``if`` (of two such, one
        that leaves the region) and ``other`` follows at the ``if``'s
        level, or under ``else`` when both fall out.  A block that would
        nest deeper than ``_MAX_DEPTH`` becomes a root: plan again."""
        blocks, graph = function.blocks, cfg_of(function)
        order = graph.reverse_postorder()
        number = {name: position for position, name in enumerate(order)}
        roots = {function.entry, *self.pinned}.union(
            name for name in order if not _may_inline(blocks[name]))
        while True:
            owner, parent, joins, size = {}, {}, {}, {}
            falls, tagged, arms = {}, set(), {}
            self.owner, self.parent, self.joins = owner, parent, joins
            self.tagged, self.arms = tagged, arms
            for name in order:
                sources = graph.preds(name)
                size[name] = cost = len(blocks[name].instructions) + 1
                home = owner.get(sources[0], sources[0]) if sources else name
                if (name in roots
                        or size.get(home, cost) + cost >= _MAX_INSTRUCTIONS
                        or any(owner.get(source, source) != home
                               or number.get(source, number[name])
                               >= number[name] for source in sources)):
                    continue
                owner[name] = home
                size[home] += cost
                above = sources[0]
                for other in sources[1:]:
                    while above != other:
                        if number[above] > number[other]:
                            above = parent[above]
                        else:
                            other = parent[other]
                parent[name] = above
                if len(sources) > 1:
                    joins.setdefault(above, []).append(name)
            merges = self.merges = {join for below in joins.values()
                                    for join in below}
            for name in reversed(order):
                home, pending, keys = owner.get(name, name), set(), []
                sides = blocks[name].successors()
                for side in sides:
                    stays = self.inline(home, side)
                    fall = () if not stays else {side} if side in merges \
                        else falls.get(side, ())
                    pending.update(fall)
                    keys.append((bool(fall), stays))
                for join in joins.get(name, ()):
                    if len(pending) > 1:
                        tagged |= pending
                    pending = pending - {join} | falls.get(join, set())
                if pending:
                    falls[name] = pending
                if isinstance(blocks[name].terminator, Branch):
                    if keys[1] < keys[0]:
                        sides.reverse()
                    arms[name] = *sides, not (keys[0][0] and keys[1][0])
            depth, deep = {}, set()
            for name in order:
                above = parent.get(name)
                if above is None:
                    depth[name] = 0
                    continue
                nests = name in tagged if name in merges else (
                    not isinstance(blocks[above].terminator, Jump)
                    and arms.get(above, ())[1:] != (name, True))
                depth[name] = depth[above] + nests
                if depth[name] > _MAX_DEPTH >= depth[above]:
                    deep.add(name)
            if not deep:
                return
            roots |= deep

    def inline(self, home: str | None, target: str) -> bool:
        """Whether ``target`` runs inline in the region of root ``home``
        (``None``: a block on its own after a not-ready exit)."""
        return home is not None and self.owner.get(target) == home


class CompiledFunction:
    """The lazily generated blocks of one function, plus what the driver
    needs before the first of them runs."""

    __slots__ = ("entry", "blocks", "pipe_names", "registers")

    def __init__(self, function: Function):
        assert function.entry is not None
        self.entry = function.entry
        pipes = (inst.pipe if isinstance(inst, (PipeIn, PipeOut))
                 else inst.args[0] for inst in function.all_instructions()
                 if isinstance(inst, (PipeIn, PipeOut))
                 or isinstance(inst, Call) and inst.args)
        self.pipe_names = tuple(dict.fromkeys(
            pipe.name for pipe in pipes if isinstance(pipe, PipeRef)))
        # Every VReg the function reads or writes. The driver seeds them
        # all to 0 before running, so generated code can use plain
        # subscripts instead of ``regs.get(reg, 0)`` on every read.
        self.registers = tuple(dict.fromkeys(
            value for block in function.ordered_blocks()
            for inst in block.all_instructions()
            for value in (*inst.uses(), *inst.defs())
            if isinstance(value, VReg)))
        self.blocks = _LazyBlocks(function, self.registers)

    def pin(self, name: str | None) -> None:
        """Keep ``name`` out of every region: the driver counts an
        iteration each time it sees it (the plan is made again)."""
        if name not in self.blocks.pinned:
            self.blocks.pinned.add(name)
            self.blocks.clear()
            self.blocks.index = None

    def dispatches(self, counts: dict) -> int:
        """The driver's round trips behind ``counts`` (a ``block_counts``):
        the executions of the blocks it looked up.  Exact, unless a block
        ran inline and, after a not-ready exit, as a root: an upper bound."""
        return sum(counts.get(name, 0) for name in self.blocks)


_CACHE: "weakref.WeakKeyDictionary[Function, CompiledFunction]" = (
    weakref.WeakKeyDictionary()
)


def compile_function(function: Function) -> CompiledFunction:
    """Compile (or fetch the cached compilation of) ``function``."""
    compiled = _CACHE.get(function)
    if compiled is None:
        compiled = _CACHE[function] = CompiledFunction(function)
    return compiled


# -- the source writer -------------------------------------------------------

#: One level of indentation (with four blanks, a fifth of the text).
_INDENT = "\t"

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


@lru_cache(maxsize=1024)  # a region is a few blocks' text: was 4096 of those
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
    describe the path being written: whoever opens a nested side
    restores both (and ``indent``) behind it, and a join takes them from
    the ``sites`` its incoming paths left — each a hole in ``lines`` for
    that path's write-backs, its indentation, ``loaded`` and ``dirty``."""

    def __init__(self, blocks: _LazyBlocks, function: Function, root: str):
        self.blocks, self.function = blocks, function
        self.lines: list = []          # text, and the holes of open sites
        self.env: dict = {"TrapError": TrapError}
        self.slots: dict[VReg, int] = {}
        self.indent = _INDENT
        self.loaded: set[int] = set()  # slots whose local is current
        self.dirty: set[int] = set()   # ... and newer than interp.regs
        self.region = [root]           # the blocks written so far
        self.home = None if root in blocks.owner else root
        self.sites: dict[str, list] = {}  # join -> its paths so far
        self.tags: dict[str, int] = {}    # join -> its value of ``nxt``
        self.pred: str | None = None   # of the block being written, if known

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

    def spills(self, slots, live: int) -> list[str]:
        """The write-backs of those of ``slots`` that ``live`` (a mask)
        holds."""
        index, env = self.blocks.index, self.env
        return [f"regs[K{slot}] = r{slot}" for slot in sorted(slots)
                if live >> index[env[f"K{slot}"]] & 1]

    def flush(self, live: int = -1) -> None:
        """Write back what this path changed and ``live`` holds."""
        self.emit(*self.spills(self.dirty, live))

    def charge(self, instructions: int, weight: int, *,
               transmission: bool = False) -> None:
        self.emit(f"stats.instructions += {instructions}",
                  f"stats.weight += {weight}")
        if transmission:
            self.emit(f"stats.transmission_weight += {weight}")

    @contextmanager
    def side(self, test: str, state):
        """A nested side, entered on ``test`` with the registers as
        ``state`` (``loaded``, ``dirty``) has them."""
        indent, self.loaded, self.dirty = self.indent, *map(set, state)
        self.emit(test)
        self.indent += _INDENT
        yield
        self.indent = indent

    def finish(self):
        """Compile the text as a function named after the root block;
        returns ``(function, source)``."""
        name = "at_" + re.sub(r"\W", "_", self.region[0])
        text = "".join(line + "\n" for entry in self.lines for line in
                       ([entry] if entry.__class__ is str else entry))
        named = set(_NAMED.findall(text))
        body = "".join(f"{_INDENT}{local} = {value}\n"
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
            _INDENT + step.store(inst.dest, f"{func}({lhs}, {rhs})"),
            "except ZeroDivisionError as exc:",
            _INDENT + 'raise TrapError(f"{interp.function.name}: {exc} at %s") '
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


def _emit_exit(step: _Step, block: BasicBlock, target: str | None) -> None:
    """Leave the region from ``block`` for ``target`` (``None``: return)."""
    step.flush(step.blocks.live.get(target, 0))
    step.emit(f"interp.prev_block = {block.name!r}", f"return {target!r}")


def _emit_edge(step: _Step, block: BasicBlock, target: str) -> str | None:
    """Control passes from ``block`` to ``target``: back to the driver,
    out to a join written further down, or on into ``target``, which is
    then returned for the caller to write at the level it chooses."""
    plan = step.blocks
    if not plan.inline(step.home, target):
        return _emit_exit(step, block, target)
    step.emit(f"interp.prev_block = {block.name!r}")
    if target not in plan.merges:
        return target
    hole: list[str] = []
    step.lines.append(hole)
    step.sites.setdefault(target, []).append(
        (hole, step.indent, set(step.loaded), set(step.dirty)))
    if target in plan.tagged:
        step.emit(f"nxt = {step.tags.setdefault(target, len(step.tags))}")
    return None


def _emit_side(step: _Step, block: BasicBlock, target: str, test: str,
               state) -> None:
    """One nested side of ``block``'s terminator: the edge to ``target``
    and, if that runs inline and has one predecessor, all of it."""
    with step.side(test, state):
        inner = _emit_edge(step, block, target)
        if inner is not None:
            _emit_nodes(step, inner)


def _emit_block(step: _Step, block: BasicBlock, run) -> str | None:
    """``run`` (instructions of ``block``; the pipes of those that wait
    are ready), the terminator and the sides that nest under it; returns
    the block, if any, that follows inline at this level."""
    plan, term, ahead = step.blocks, block.terminator, []
    for inst in run:
        head = _own_step(inst)
        if head is None:
            ahead.append(inst)
            continue
        _emit_run(step, ahead)
        step.emit(f"pipe = interp.pipes[{_pipe_wait(inst)[1]!r}]")
        head(step, inst)
        ahead = []
    _emit_run(step, ahead, term)
    state = set(step.loaded), set(step.dirty)
    if isinstance(term, Branch) and term.if_true != term.if_false:
        nested, other, flat = plan.arms[block.name]
        test = step.read(term.cond)
        _emit_side(step, block, nested, f"if {test}:" if nested
                   == term.if_true else f"if not {test}:", state)
        if flat:
            step.loaded, step.dirty = state
            return _emit_edge(step, block, other)
        _emit_side(step, block, other, "else:", state)
    elif isinstance(term, (Jump, Branch)):
        return _emit_edge(step, block, term.successors()[0])
    elif isinstance(term, SwitchTerm):
        value, sides = step.read(term.value), {}
        for case, target in term.cases.items():
            if target != term.default:
                sides.setdefault(target, []).append(case)
        if not sides:
            return _emit_edge(step, block, term.default)
        for number, (target, cases) in enumerate(sides.items()):
            test = f"== {cases[0]}" if len(cases) == 1 else f"in {tuple(cases)}"
            _emit_side(step, block, target, f"{'el' if number else ''}if "
                       f"{value} {test}:", state)
        _emit_side(step, block, term.default, "else:", state)
    elif isinstance(term, Return):
        _emit_exit(step, block, None)
    else:
        raise TrapError(f"unknown terminator {term}")
    return None


def _emit_nodes(step: _Step, name: str, run=None) -> None:
    """Block ``name`` and all it dominates in the region, at this level;
    ``run`` is what is left of a root, which the driver has entered."""
    plan, todo = step.blocks, [name]
    while todo:
        name = todo.pop()
        if name is None:  # the end of a guarded join
            step.indent = step.indent[:-1]
            continue
        block = step.function.block(name)
        if run is None:
            step.region.append(name)
            step.pred = plan.parent[name]
            sites = step.sites.pop(name, None)
            if sites:  # they meet: what survives, what is written back
                step.pred, live = None, plan.live[name]
                step.loaded = set.intersection(*(site[2] for site in sites))
                step.dirty = step.loaded.intersection(
                    slot for site in sites for slot in site[3])
                for hole, indent, _, dirty in sites:
                    hole += [indent + line for line
                             in step.spills(dirty - step.loaded, live)]
                if name in plan.tagged:
                    step.emit(f"if nxt == {step.tags[name]}:")
                    step.indent += _INDENT
                    todo.append(None)
            # What the driver does for a block it sees, pipes ready.
            waits = [_READY[kind] % f"interp.pipes[{pipe!r}]" for kind, pipe
                     in filter(None, map(_pipe_wait, block.instructions))]
            if waits:
                with step.side(f"if not ({' and '.join(waits)}):",
                               (step.loaded, step.dirty)):
                    step.flush(plan.live[name])
                    step.emit(f"return {name!r}")
            step.emit(f"counts[{name!r}] = counts.get({name!r}, 0) + 1",
                      f"interp.fuel = fuel = interp.fuel - "
                      f"{len(block.instructions) + 1}",
                      "if fuel <= 0: raise interp._fuel_exhausted()")
            run = block.instructions
        follows, run = _emit_block(step, block, run), None
        if step.home is not None:
            todo += reversed(plan.joins.get(name, ()))
        if follows is not None:
            todo.append(follows)


# -- blocking instructions ---------------------------------------------------
#
# In a root each heads the step of the run behind it: it returns its wait
# key while the resource is not ready and accounts for itself only once it
# succeeds (as the reference oracle does).


def _emit_pipe_in(step: _Step, inst: PipeIn) -> None:
    count = len(inst.dests)
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
    step.charge(1, inst.weight(), transmission=True)
    words = [step.read(value) for value in inst.values]
    step.emit(f"pipe.send(({''.join(word + ', ' for word in words)}))")


def _emit_pipe_recv(step: _Step, inst: Call) -> None:
    name = inst.args[0].name
    step.charge(1, inst.weight())
    step.emit(
        "message = pipe.recv()",
        "if isinstance(message, tuple): raise TrapError(%r)"
        % f"pipe_recv on {name} found a multi-word message",
    )
    step.write(inst.dest, _WRAP % "message")


def _emit_pipe_send(step: _Step, inst: Call) -> None:
    step.charge(1, inst.weight())
    step.emit(f"pipe.send({step.read(inst.args[1])})")


def _emit_rbuf_next(step: _Step, inst: Call) -> None:
    port = step.read(inst.args[0])
    step.emit(f"element = interp.state.devices.rbuf_next({port})",
              f"if element is None: return ('rbuf', {port})")
    step.charge(1, inst.weight())
    step.write(inst.dest, _WRAP % "element")


# The replication pseudo-instructions: their resource enters through the
# step's globals.  SeqAdvance never blocks but accounts for itself: the
# critical-section bookkeeping reads ``stats.weight`` and must see exactly
# the weight the reference oracle would at the same point.

#: The value of a resource's sequencer at this interpreter's turn.
_TURN = "(stats.iterations - 1) * interp.seq_stride + interp.seq_offset"


def _emit_seq_wait(step: _Step, inst) -> None:
    resource = f"RES{len(step.env)}"
    step.env[resource] = inst.resource
    step.emit(f"if state.sequencers.get({resource}, 0) != {_TURN}: "
              f"return ('seq', {resource})")
    step.charge(1, inst.weight())
    # First wait of the iteration acquires the resource.
    step.emit(f"interp._held.setdefault({resource}, stats.weight)")


def _emit_seq_advance(step: _Step, inst) -> None:
    resource = f"RES{len(step.env)}"
    step.env[resource] = inst.resource
    step.charge(1, inst.weight())
    step.emit(
        f"current, expected = state.sequencers.get({resource}, 0), {_TURN}",
        'if current != expected: raise TrapError(f"{interp.function.name}: '
        "sequencer for {%s} advanced out of order ({current} != {expected})"
        '")' % resource,
        f"state.advance_sequencer({resource}, current + 1)",
        f"start = interp._held.pop({resource}, None)",
        "if start is not None:",
        f"{_INDENT}stats.serial_weight[{resource}] = stats.serial_weight"
        f".get({resource}, 0) + stats.weight - start",
        f"{_INDENT}stats.serial_sections[{resource}] = stats.serial_sections"
        f".get({resource}, 0) + 1")


_BLOCKING_CALLS = {
    "pipe_recv": _emit_pipe_recv,
    "pipe_send": _emit_pipe_send,
    "rbuf_next": _emit_rbuf_next,
}

#: Whether ``%s``, a pipe, is ready for either kind of wait.
_READY = {"recv": "%s.queue", "send": "%s.can_send()"}


def _pipe_wait(inst):
    """The wait key of a pipe instruction, ``None`` for any other."""
    if isinstance(inst, (PipeIn, PipeOut)):
        return ("recv" if isinstance(inst, PipeIn) else "send"), inst.pipe.name
    if (isinstance(inst, Call) and inst.is_intrinsic
            and inst.callee in ("pipe_recv", "pipe_send")):
        return inst.callee[5:], inst.args[0].name
    return None


def _may_inline(block: BasicBlock) -> bool:
    """Whether ``block`` can run inline: all that waits in it waits on a
    pipe, each on one of its own — so one test at the block's head,
    before anything is accounted, answers for all of them."""
    heads = [inst for inst in block.instructions if _own_step(inst)]
    pipes = {wait[1] for wait in map(_pipe_wait, heads) if wait}
    return len(pipes) == len(heads)


def _own_step(inst):
    """``head`` when ``inst`` starts a step — ``head(step, inst)`` writes
    it at the top of ``step`` — and ``None`` for one that rides in a run."""
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
        return _emit_seq_wait
    return _emit_seq_advance if isinstance(inst, SeqAdvance) else None


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
        key = _pipe_wait(inst)
        if key:  # bind ``pipe``; its wait key unless it is ready
            step.emit(f"pipe = interp.pipes[{key[1]!r}]", "if not "
                      f"{_READY[key[0]] % 'pipe'}: return {key!r}")
        head(step, inst)
    # The terminator's statistics ride on the trailing run (an
    # instruction-less one when the block ends with a blocking step).
    _emit_nodes(step, block.name, run)
    built.append(step.finish())
    return CompiledBlock(
        block.name, [function for function, _ in built],
        len(block.instructions) + 1,  # +1 guards empty-block cycles
        "".join(text for _, text in built), step.region)
