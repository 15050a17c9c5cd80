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
code.  While blocked, the driver publishes what it waits for in
``wait_key`` (``("recv", pipe)``, ``("send", pipe)``, ``("rbuf", port)``,
``("seq", resource)``, or ``None`` for a voluntary per-iteration yield),
which the scheduler uses to park and wake interpreters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import TrapError
from repro.ir.function import Function
from repro.ir.values import VReg
from repro.runtime.compile import compile_function
from repro.runtime.state import MachineState


@dataclass(slots=True)
class InterpStats:
    """Execution counters for one interpreter."""

    instructions: int = 0          # raw instruction count
    weight: int = 0                # machine-model weighted count
    iterations: int = 0            # completed passes through the loop start
    transmission_weight: int = 0   # weight spent in PipeIn/PipeOut pseudo-ops
    blocked: int = 0               # times the interpreter had to wait
    traps: int = 0                 # quarantined traps (scheduler isolation)
    block_counts: dict = field(default_factory=dict)  # block name -> executions
    # Replication: accumulated weight spent while holding each serially
    # ordered resource (critical-section size), and the section count.
    serial_weight: dict = field(default_factory=dict)
    serial_sections: dict = field(default_factory=dict)


class Interpreter:
    """Executes one function as a cooperative coroutine."""

    def __init__(self, function: Function, state: MachineState, *,
                 loop_start: str | None = None,
                 max_iterations: int | None = None,
                 seq_offset: int = 0,
                 seq_stride: int = 1,
                 fuel: int = 100_000_000):
        self.function = function
        self.state = state
        self.seq_offset = seq_offset
        self.seq_stride = seq_stride
        self.regs: dict[VReg, int] = {}
        self.arrays: dict[str, list[int]] = {
            name: [0] * array.size for name, array in function.arrays.items()
        }
        self.stats = InterpStats()
        self.loop_start = loop_start
        self.max_iterations = max_iterations
        self.fuel = fuel
        self.finished = False
        self.wait_key: tuple | None = None
        self.prev_block: str | None = None
        self.pipes: dict = {}
        self._held: dict = {}  # serially held resources -> weight mark
        # Chaos hooks (all inert unless a fault plan arms them): extra
        # per-iteration yields, a pending injected trap (fired through the
        # existing fuel check so the fault-free path gains no test), and
        # the block to resume from after a quarantine restart.
        self._slow_yields = 0
        self._fault_trap: str | None = None
        self._fault_restore_fuel = 0
        self._resume_block: str | None = None
        for param in function.params:
            self.regs[param] = 0

    # -- driver -----------------------------------------------------------------

    def run(self) -> Iterator[None]:
        """Generator: executes until return / iteration budget / fuel, and
        yields whenever blocked on a pipe or device."""
        program = compile_function(self.function)
        program.pin(self.loop_start)
        state = self.state
        self.pipes = {name: state.pipe(name) for name in program.pipe_names}
        regs = self.regs
        for reg in program.registers:
            if reg not in regs:  # keep params / caller-preloaded values
                regs[reg] = 0
        blocks = program.blocks
        stats = self.stats
        counts = stats.block_counts
        loop_start = self.loop_start
        max_iterations = self.max_iterations
        start = self._resume_block or program.entry
        self._resume_block = None
        block = blocks[start]
        while True:
            name = block.name
            if name == loop_start:
                stats.iterations += 1
                if (max_iterations is not None
                        and stats.iterations > max_iterations):
                    self.finished = True
                    return
                yield  # cooperative scheduling point, once per iteration
                if self._slow_yields:
                    # Injected per-stage slowdown: surrender the scheduler
                    # slot a few extra times per iteration.
                    for _ in range(self._slow_yields):
                        yield
            counts[name] = counts.get(name, 0) + 1
            self.fuel -= block.cost
            if self.fuel <= 0:
                raise self._fuel_exhausted()
            for step in block.steps:
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
        """Build the trap for a zero fuel gauge (cold path).

        Injected traps ride on the existing fuel check: arming one lowers
        ``fuel`` to the target instruction budget, so the hot loop needs
        no extra test, and this cold handler tells the two cases apart.
        """
        if self._fault_trap is not None:
            return TrapError(f"{self.function.name}: {self._fault_trap}")
        return TrapError(f"{self.function.name}: out of fuel (livelock?)")

    def arm_injected_trap(self, after_instructions: int, message: str) -> None:
        """Trap after roughly ``after_instructions`` more instructions."""
        budget = max(1, after_instructions)
        if budget < self.fuel:
            self._fault_restore_fuel = self.fuel - budget
            self.fuel = budget
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
        if self._fault_trap is not None:
            # The injected trap fired (or is being cleared): restore the
            # real fuel gauge so the restart is not starved.
            self.fuel = max(self.fuel, 0) + self._fault_restore_fuel
            self._fault_restore_fuel = 0
            self._fault_trap = None
        self._resume_block = self.loop_start
