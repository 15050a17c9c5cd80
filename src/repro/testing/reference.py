"""The differential tests' oracle: an ``isinstance`` evaluator under a
round-robin polling loop.

:mod:`repro.runtime` has one execution core — generated code
(:mod:`repro.runtime.compile`) driven by a ready-deque scheduler.  This
module is the independent second opinion it is tested against: it walks
the IR instruction by instruction, re-resolving every operand, and steps
every live interpreter each round until a full round makes no progress.
It shares no generator, region or wake-up logic with the production core,
so a wrongly emitted intrinsic, a mis-summed run, a register a region did
not write back or a lost wakeup shows as a difference in statistics or
observable state (``tests/test_runtime_compiled_differential.py``).

It is test equipment: nothing under ``src/repro/`` outside
``repro.testing`` imports it, and it carries no fault-injection,
watchdog or quarantine hooks.  The entry points mirror the production
ones and evaluate the very :class:`~repro.runtime.interp.Interpreter`
objects those would run — built by the same
``*_interpreters`` functions of :mod:`repro.runtime.scheduler` — so
iteration bounds and replica shares are never restated here.
"""

from __future__ import annotations

from typing import Iterator

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
from repro.ir.types import eval_binary, eval_unary, wrap32
from repro.ir.values import ArrayRef, Const, PipeRef, RegionRef, Value, VReg
from repro.pipeline.replicate import SeqAdvance, SeqWait
from repro.runtime.interp import Interpreter, InterpStats
from repro.runtime.scheduler import (
    RunResult,
    pipeline_interpreters,
    replica_interpreters,
    sequential_interpreter,
)
from repro.runtime.state import MachineState

#: Livelock guard of the polling loop, in rounds over every interpreter.
MAX_ROUNDS = 10_000_000


class ReferenceInterpreter:
    """Evaluates one configured :class:`Interpreter` by walking its IR.

    Registers, scratch arrays and statistics are the configured
    interpreter's own objects, so results are read off it afterwards.
    """

    def __init__(self, config: Interpreter):
        self.function = config.function
        self.state = config.state
        self.loop_start = config.loop_start
        self.max_iterations = config.max_iterations
        self.seq_offset = config.seq_offset
        self.seq_stride = config.seq_stride
        self.fuel = config.limit
        self.regs = config.regs
        self.arrays = config.arrays
        self.stats = config.stats
        self._held: dict = {}  # serially held resources -> weight mark

    # -- value plumbing ----------------------------------------------------------

    def value(self, operand: Value) -> int:
        if isinstance(operand, Const):
            return wrap32(operand.value)
        if isinstance(operand, VReg):
            return self.regs.get(operand, 0)
        raise TrapError(f"cannot evaluate operand {operand!r}")

    def set_reg(self, reg: VReg, value: int) -> None:
        self.regs[reg] = wrap32(value)

    def _account(self, inst) -> None:
        self.stats.instructions += 1
        weight = inst.weight()
        self.stats.weight += weight
        if isinstance(inst, (PipeIn, PipeOut)):
            self.stats.transmission_weight += weight

    # -- driver -----------------------------------------------------------------

    def run(self) -> Iterator[None]:
        """Generator: executes until return / iteration budget / fuel, and
        yields once per loop iteration and whenever blocked."""
        block_name = self.function.entry
        prev_name: str | None = None
        number, hits = self.stats.block_names, self.stats.block_hits
        while True:
            if block_name == self.loop_start:
                self.stats.iterations += 1
                if (self.max_iterations is not None
                        and self.stats.iterations > self.max_iterations):
                    return
                yield
            block = self.function.block(block_name)
            hits[number[block_name]] += 1
            for inst in block.instructions:
                if self.fuel <= 0:
                    raise TrapError(
                        f"{self.function.name}: out of fuel (livelock?)")
                self.fuel -= 1
                if isinstance(inst, Phi):
                    self._exec_phi(inst, prev_name)
                else:
                    yield from self._exec(inst)
            terminator = block.terminator
            self._account(terminator)
            prev_name = block_name
            if isinstance(terminator, Jump):
                block_name = terminator.target
            elif isinstance(terminator, Branch):
                taken = self.value(terminator.cond) != 0
                block_name = terminator.if_true if taken else terminator.if_false
            elif isinstance(terminator, SwitchTerm):
                selector = self.value(terminator.value)
                block_name = terminator.cases.get(selector, terminator.default)
            elif isinstance(terminator, Return):
                return
            else:  # pragma: no cover
                raise TrapError(f"unknown terminator {terminator}")

    def _exec_phi(self, phi: Phi, prev_name: str | None) -> None:
        self._account(phi)
        if prev_name is None or prev_name not in phi.incomings:
            raise TrapError(
                f"phi in {self.function.name} has no incoming for {prev_name}"
            )
        self.set_reg(phi.dest, self.value(phi.incomings[prev_name]))

    # -- instruction execution ------------------------------------------------------

    def _exec(self, inst) -> Iterator[None]:
        if isinstance(inst, Assign):
            self._account(inst)
            self.set_reg(inst.dest, self.value(inst.src))
        elif isinstance(inst, BinOp):
            self._account(inst)
            try:
                result = eval_binary(inst.op, self.value(inst.lhs),
                                     self.value(inst.rhs))
            except ZeroDivisionError as exc:
                raise TrapError(
                    f"{self.function.name}: {exc} at {inst.location}"
                ) from exc
            self.set_reg(inst.dest, result)
        elif isinstance(inst, UnOp):
            self._account(inst)
            self.set_reg(inst.dest, eval_unary(inst.op, self.value(inst.operand)))
        elif isinstance(inst, ArrayLoad):
            self._account(inst)
            frame, index = self._element(inst.array, self.value(inst.index))
            self.set_reg(inst.dest, frame[index])
        elif isinstance(inst, ArrayStore):
            self._account(inst)
            frame, index = self._element(inst.array, self.value(inst.index))
            frame[index] = self.value(inst.value)
        elif isinstance(inst, PipeIn):
            pipe = self.state.pipe(inst.pipe.name)
            while not pipe.can_recv():
                yield
            message = pipe.recv()
            if not isinstance(message, tuple):
                message = (message,)
            if len(message) != len(inst.dests):
                raise TrapError(
                    f"{self.function.name}: pipe_in expected "
                    f"{len(inst.dests)} words, got {len(message)}"
                )
            self._account(inst)
            for dest, word in zip(inst.dests, message):
                self.set_reg(dest, word)
        elif isinstance(inst, PipeOut):
            pipe = self.state.pipe(inst.pipe.name)
            while not pipe.can_send():
                yield
            self._account(inst)
            pipe.send(tuple(self.value(value) for value in inst.values))
        elif isinstance(inst, Call):
            yield from self._exec_call(inst)
        elif isinstance(inst, SeqWait):
            target = self._global_iteration()
            while self.state.sequencers.get(inst.resource, 0) != target:
                yield
            self._account(inst)
            # First wait of the iteration acquires the resource.
            self._held.setdefault(inst.resource, self.stats.weight)
        elif isinstance(inst, SeqAdvance):
            self._exec_seq_advance(inst)
        else:
            raise TrapError(f"unknown instruction {inst}")

    def _element(self, array: ArrayRef, index: int) -> tuple[list[int], int]:
        frame = self.arrays[array.name]
        if not 0 <= index < len(frame):
            raise TrapError(
                f"{self.function.name}: {array.name}[{index}] out of bounds"
            )
        return frame, index

    def _global_iteration(self) -> int:
        """The global iteration index of the current loop pass (replicas
        interleave: replica r of N handles r-1, r-1+N, ...)."""
        return (self.stats.iterations - 1) * self.seq_stride + self.seq_offset

    def _exec_seq_advance(self, inst: SeqAdvance) -> None:
        self._account(inst)
        current = self.state.sequencers.get(inst.resource, 0)
        expected = self._global_iteration()
        if current != expected:
            raise TrapError(
                f"{self.function.name}: sequencer for {inst.resource} "
                f"advanced out of order ({current} != {expected})"
            )
        self.state.advance_sequencer(inst.resource, current + 1)
        start = self._held.pop(inst.resource, None)
        if start is not None:
            stats = self.stats
            stats.serial_weight[inst.resource] = (
                stats.serial_weight.get(inst.resource, 0)
                + stats.weight - start)
            stats.serial_sections[inst.resource] = (
                stats.serial_sections.get(inst.resource, 0) + 1)

    # -- intrinsics -----------------------------------------------------------------

    def _exec_call(self, inst: Call) -> Iterator[None]:
        name = inst.callee
        state = self.state
        if not inst.is_intrinsic:
            raise TrapError(
                f"{self.function.name}: user call {name!r} reached the "
                f"interpreter (inlining missed it)"
            )

        def arg(position: int) -> int:
            return self.value(inst.args[position])

        def named(kind: type) -> str:
            ref = inst.args[0]
            assert isinstance(ref, kind)
            return ref.name

        def result(value: int) -> None:
            if inst.dest is not None:
                self.set_reg(inst.dest, value)

        # Blocking intrinsics first (they must yield before consuming).
        if name == "pipe_recv":
            pipe = state.pipe(named(PipeRef))
            while not pipe.can_recv():
                yield
            self._account(inst)
            message = pipe.recv()
            if isinstance(message, tuple):
                raise TrapError(
                    f"pipe_recv on {pipe.name} found a multi-word message"
                )
            result(message)
            return
        if name == "pipe_send":
            pipe = state.pipe(named(PipeRef))
            while not pipe.can_send():
                yield
            self._account(inst)
            pipe.send(arg(1))
            return
        if name == "rbuf_next":
            port = arg(0)
            element = state.devices.rbuf_next(port)
            while element is None:
                yield
                element = state.devices.rbuf_next(port)
            self._account(inst)
            result(element)
            return

        self._account(inst)
        if name == "pipe_empty":
            result(0 if state.pipe(named(PipeRef)).can_recv() else 1)
        elif name == "hash32":
            result(wrap32((arg(0) & 0xFFFFFFFF) * 2654435761))
        elif name == "pkt_alloc":
            result(state.packets.alloc(arg(0)))
        elif name == "pkt_free":
            state.packets.free(arg(0))
        elif name == "pkt_len":
            result(state.packets.length(arg(0)))
        elif name == "pkt_load":
            result(state.packets.load(arg(0), arg(1)))
        elif name == "pkt_store":
            state.packets.store(arg(0), arg(1), arg(2))
        elif name == "pkt_load_u16":
            result(state.packets.load_u16(arg(0), arg(1)))
        elif name == "pkt_store_u16":
            state.packets.store_u16(arg(0), arg(1), arg(2))
        elif name == "pkt_load_u32":
            result(state.packets.load_u32(arg(0), arg(1)))
        elif name == "pkt_store_u32":
            state.packets.store_u32(arg(0), arg(1), arg(2))
        elif name == "pkt_meta_get":
            result(state.packets.meta_get(arg(0), arg(1)))
        elif name == "pkt_meta_set":
            state.packets.meta_set(arg(0), arg(1), arg(2))
        elif name == "mem_read":
            result(state.region_read(named(RegionRef), arg(1)))
        elif name == "mem_write":
            state.region_write(named(RegionRef), arg(1), wrap32(arg(2)))
        elif name == "mem_add":
            region = named(RegionRef)
            old = state.region_read(region, arg(1))
            state.region_write(region, arg(1), wrap32(old + arg(2)))
            result(old)
        elif name == "rbuf_status":
            result(state.devices.rbuf_status(arg(0)))
        elif name == "rbuf_load":
            result(state.devices.rbuf_load(arg(0), arg(1)))
        elif name == "rbuf_free":
            state.devices.rbuf_free(arg(0))
        elif name == "tbuf_alloc":
            result(state.devices.tbuf_alloc(arg(0)))
        elif name == "tbuf_store":
            state.devices.tbuf_store(arg(0), arg(1), arg(2))
        elif name == "tbuf_commit":
            state.devices.tbuf_commit(arg(0), arg(1))
        elif name == "trace":
            state.trace(arg(0), arg(1))
        else:  # pragma: no cover
            raise TrapError(f"unimplemented intrinsic {name!r}")


# -- the polling scheduler -------------------------------------------------------


def run_group(interpreters: dict[str, Interpreter]) -> RunResult:
    """Evaluate configured interpreters together: poll every live one
    each round until all finish or a full round executes no instruction
    (global quiescence: everyone is blocked)."""
    result = RunResult(stats={name: interp.stats
                              for name, interp in interpreters.items()})
    live = {name: ReferenceInterpreter(interp).run()
            for name, interp in interpreters.items()}
    rounds = 0
    while live:
        rounds += 1
        if rounds > MAX_ROUNDS:
            raise TrapError("polling loop exceeded MAX_ROUNDS (livelock?)")
        before = {name: result.stats[name].instructions for name in live}
        for name in list(live):
            try:
                next(live[name])
            except StopIteration:
                del live[name]
        if all(result.stats[name].instructions == count
               for name, count in before.items()):
            break
    return result


def run_sequential(function: Function, state: MachineState, *,
                   iterations: int) -> InterpStats:
    interp = sequential_interpreter(function, state, iterations)
    run_group({function.name: interp})
    return interp.stats


def run_pipeline(stages: list, state: MachineState, *,
                 iterations: int) -> RunResult:
    return run_group(pipeline_interpreters(stages, state, iterations))


def run_replicas(replicas: list, state: MachineState, *,
                 iterations: int) -> RunResult:
    return run_group(replica_interpreters(replicas, state, iterations))
