"""Runtime: interpreter, machine state, scheduler, equivalence checking."""

from repro.runtime.devices import (
    DeviceModel,
    MPACKET_SIZE,
    TxRecord,
    make_status,
    status_eop,
    status_length,
    status_port,
    status_sop,
)
from repro.runtime.equivalence import (
    Mismatch,
    Observation,
    assert_equivalent,
    compare,
    observe,
)
from repro.errors import DeadlockError, FaultPlanError, TrapError
from repro.runtime.compile import CompiledFunction, compile_function
from repro.runtime.faults import (
    DeadLetter,
    FaultInjector,
    FaultPlan,
    FaultyPipe,
    builtin_plans,
)
from repro.runtime.interp import Interpreter, InterpStats
from repro.runtime.packets import PacketError, PacketStore
from repro.runtime.scheduler import RunResult, run_group, run_pipeline, run_sequential
from repro.runtime.state import MachineState, Pipe, WakeHub
from repro.runtime.watchdog import Watchdog

__all__ = [
    "CompiledFunction",
    "DeadLetter",
    "DeadlockError",
    "DeviceModel",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultyPipe",
    "Interpreter",
    "InterpStats",
    "MPACKET_SIZE",
    "MachineState",
    "Mismatch",
    "Observation",
    "PacketError",
    "PacketStore",
    "Pipe",
    "RunResult",
    "TrapError",
    "TxRecord",
    "WakeHub",
    "Watchdog",
    "assert_equivalent",
    "builtin_plans",
    "compare",
    "compile_function",
    "make_status",
    "observe",
    "run_group",
    "run_pipeline",
    "run_sequential",
    "status_eop",
    "status_length",
    "status_port",
    "status_sop",
]
