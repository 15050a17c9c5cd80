"""The IR interpreter.

Each :class:`Interpreter` executes one IR function (a PPS or a realized
pipeline stage) against a shared :class:`~repro.runtime.state.MachineState`.
Execution is a Python generator: the interpreter *yields* whenever it would
block (empty pipe, idle device port, full bounded pipe), letting the
scheduler interleave stages.  Instruction-count weights are accumulated
per interpreter — the evaluation metric of the paper ("the number of
instructions required for processing a minimum sized packet").

Dispatch is generated code: :meth:`Interpreter.run` drives the step
functions that :mod:`repro.runtime.compile` writes the first time a
block runs — one call per region (a root block and every block whose
predecessors are all inside: typically a whole loop body), operands
pre-resolved, registers in locals, ``prev_block`` kept by the generated
code.  A block entry traps once ``stats.instructions`` plus the block's
cost reaches ``limit`` (:data:`FUEL`, or lower while an injected trap is
armed).  While the count plus the region's ``fuel_bound`` stays below
it, no entry inside can reach it and the step the driver runs tests
nothing; otherwise the driver tests the root's entry and runs the
region's checked text, which tests every inline entry.  While blocked,
the driver publishes what it waits for in ``wait_key`` (``("recv",
pipe)``, ``("send", pipe)``, ``("rbuf", port)``, ``("seq", resource)``,
or ``None`` for a voluntary yield, once every :data:`BURST` loop
iterations), which the scheduler uses to park and wake interpreters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import TrapError
from repro.ir.function import Function
from repro.ir.values import VReg
from repro.runtime.compile import compile_function
from repro.runtime.state import MachineState

#: Loop iterations a stage runs per scheduler turn: ``Interpreter.run``
#: yields voluntarily at every ``BURST``-th loop start (and whenever a
#: step blocks), so an unbounded stage ring holds ``BURST`` messages in
#: steady state.  Blocking FIFOs make the answer schedule-independent.
BURST = 32

#: The livelock guard: a block entry that would take an interpreter's
#: instruction count to this many traps "out of fuel".
FUEL = 100_000_000


@dataclass(slots=True)
class InterpStats:
    """Execution counters for one interpreter.

    ``block_hits[k]`` counts the executions of the block that
    ``block_names`` (its :class:`CompiledFunction`'s) numbers ``k``;
    ``block_counts`` reads them as ``name -> executions`` of the blocks
    that ran, in block order (the order of ``block_names``)."""

    instructions: int = 0          # raw instruction count
    weight: int = 0                # machine-model weighted count
    iterations: int = 0            # completed passes through the loop start
    transmission_weight: int = 0   # weight spent in PipeIn/PipeOut pseudo-ops
    blocked: int = 0               # times the interpreter had to wait
    traps: int = 0                 # quarantined traps (scheduler isolation)
    block_names: dict = field(default_factory=dict)  # block name -> number
    block_hits: list = field(default_factory=list)   # number -> executions
    # Replication: accumulated weight spent while holding each serially
    # ordered resource (critical-section size), and the section count.
    serial_weight: dict = field(default_factory=dict)
    serial_sections: dict = field(default_factory=dict)

    @property
    def block_counts(self) -> dict:
        return {name: hits for name, hits
                in zip(self.block_names, self.block_hits) if hits}


class Interpreter:
    """Executes one function as a cooperative coroutine."""

    def __init__(self, function: Function, state: MachineState, *,
                 loop_start: str | None = None,
                 max_iterations: int | None = None,
                 seq_offset: int = 0,
                 seq_stride: int = 1):
        self.function = function
        self.state = state
        self.seq_offset = seq_offset
        self.seq_stride = seq_stride
        # Params first, then every register, all 0: generated code reads
        # ``regs[reg]`` without a default.  A caller may preload values.
        program = compile_function(function)
        self.regs: dict[VReg, int] = program.zero_registers()
        self.arrays: dict[str, list[int]] = {
            name: [0] * array.size for name, array in function.arrays.items()
        }
        self.stats = InterpStats(block_names=program.block_names,
                                 block_hits=[0] * len(program.block_names))
        self.loop_start = loop_start
        self.max_iterations = max_iterations
        self.limit = FUEL  # the instruction count a block entry traps at
        self.finished = False
        self.wait_key: tuple | None = None
        self.prev_block: str | None = None
        self.pipes: dict = {}
        self._held: dict = {}  # serially held resources -> weight mark
        # Chaos hooks (inert unless a fault plan arms them): a pending
        # injected trap (fired through the existing ``limit`` test so the
        # fault-free path gains no test), and the block to resume from
        # after a quarantine restart.
        self._fault_trap: str | None = None
        self._resume_block: str | None = None

    # -- driver -----------------------------------------------------------------

    def run(self) -> Iterator[None]:
        """Generator: executes until return / iteration budget / fuel; yields
        when blocked on a pipe or device, and at every BURST-th loop start."""
        program = compile_function(self.function)
        program.pin(self.loop_start)
        state = self.state
        self.pipes = {name: state.pipe(name) for name in program.pipe_names}
        blocks = program.blocks
        stats = self.stats
        hits = stats.block_hits
        loop_start = self.loop_start
        max_iterations = self.max_iterations
        start = self._resume_block or program.entry
        self._resume_block = None
        block = blocks[start]
        while True:
            if block.name == loop_start:
                stats.iterations += 1
                if (max_iterations is not None
                        and stats.iterations > max_iterations):
                    self.finished = True
                    return
                if not stats.iterations % BURST:
                    yield  # cooperative scheduling point, once per burst
            hits[block.number] += 1
            if stats.instructions + block.fuel_bound < self.limit:
                steps = block.steps  # no entry can reach the limit
            elif stats.instructions + block.cost >= self.limit:
                raise self._fuel_exhausted()
            else:
                steps = blocks.checked(block)
            for step in steps:
                result = step(self)
                while result.__class__ is tuple:  # a wait key: blocked
                    stats.blocked += 1
                    self.wait_key = result
                    yield
                    self.wait_key = None
                    result = step(self)
            if result is None:  # the last step names the next block
                self.finished = True
                return
            block = blocks[result]

    # -- chaos hooks (fault injection + trap isolation) -------------------------

    def _fuel_exhausted(self) -> Exception:
        """Build the trap for a block entry that reaches ``limit`` (cold
        path).

        Injected traps ride on the existing ``limit`` test: arming one
        lowers ``limit`` to the target instruction count, so the hot loop
        needs no extra test, and this cold handler tells the two cases
        apart.
        """
        if self._fault_trap is not None:
            if self.state.faults is not None:
                self.state.faults.traps_fired += 1
            return TrapError(f"{self.function.name}: {self._fault_trap}")
        return TrapError(f"{self.function.name}: out of fuel (livelock?)")

    def arm_injected_trap(self, after_instructions: int, message: str) -> None:
        """Trap after roughly ``after_instructions`` more instructions."""
        limit = self.stats.instructions + max(1, after_instructions)
        if limit < self.limit:
            self.limit = limit
            self._fault_trap = message

    def can_quarantine(self) -> bool:
        """True when a trapped iteration can be isolated: the interpreter
        has a loop to restart at and its generator can be rebuilt."""
        return self.loop_start is not None

    def quarantine_reset(self) -> None:
        """Reset per-packet state after a trapped iteration.

        Registers and function-local scratch arrays are zeroed (shared
        regions, pipes, packets, and sequencers are machine state and
        survive), the iteration that trapped stays spent, and the next
        ``run()`` resumes at the loop start instead of the entry block.
        """
        for reg in self.regs:
            self.regs[reg] = 0
        for array in self.arrays.values():
            for index in range(len(array)):
                array[index] = 0
        self._held.clear()
        self.wait_key = None
        self.prev_block = None
        self.finished = False
        # The restart pass through loop_start re-counts the iteration the
        # trap already consumed; compensate so bounded stages still attempt
        # their full budget.
        if self.stats.iterations > 0:
            self.stats.iterations -= 1
        # An injected trap fired (or is being cleared): the restart runs
        # to the livelock guard.
        self.limit = FUEL
        self._fault_trap = None
        self._resume_block = self.loop_start
