"""repro — an auto-pipelining compiler for packet processing applications.

Reproduction of *"Automatically Partitioning Packet Processing
Applications for Pipelined Architectures"* (Dai, Huang, Li, Harrison —
PLDI 2005): a compiler that partitions a sequential packet processing
stage (PPS) into balanced pipeline stages with minimized live-set
transmission, plus the substrate it needs — a C-like frontend (PPS-C), a
three-address IR with SSA, dependence analysis, push-relabel balanced
minimum cuts, an IXP-style machine model, a functional simulator, and the
NPF IPv4/IP forwarding benchmark applications.

Quickstart::

    import repro

    module = repro.compile_module('''
        pipe in_q;
        pipe out_q;
        pps double {
            for (;;) {
                int x = pipe_recv(in_q);
                pipe_send(out_q, x * 2);
            }
        }
    ''')
    result = repro.pipeline_pps(module, "double", degree=2)

    state = repro.MachineState(module)
    state.feed_pipe("in_q", [1, 2, 3])
    repro.run_pipeline(result.stages, state, iterations=3)
    print(list(state.pipe("out_q").queue))   # 2, 4, 6
"""

from __future__ import annotations

from repro.ir.function import Module
from repro.ir.inline import inline_module
from repro.ir.lowering import lower_program
from repro.ir.optimize import optimize_module
from repro.lang import compile_source
from repro.machine.costs import NN_RING, SCRATCH_RING, SRAM_RING, CostModel
from repro.machine.ixp import IXP2400, IXP2800, NetworkProcessor
from repro.obs import RuntimeReport, Tracer, runtime_report, tracing
from repro.pipeline.liveset import Strategy
from repro.pipeline.replicate import ReplicationResult, replicate_pps
from repro.pipeline.transform import PipelineError, PipelineResult, pipeline_pps
from repro.runspec import Knobs, RunSpec
from repro.runtime.equivalence import assert_equivalent, compare, observe
from repro.runtime.scheduler import (
    run_group,
    run_pipeline,
    run_replicas,
    run_sequential,
)
from repro.runtime.state import MachineState

__version__ = "1.0.0"


def compile_module(source: str, name: str = "<module>", *,
                   optimize: bool = True) -> Module:
    """Compile PPS-C source all the way to a pipelining-ready module:
    parse, check, lower, inline, and (by default) optimize."""
    module = lower_program(compile_source(source, name), name)
    inline_module(module)
    if optimize:
        optimize_module(module)
    return module


__all__ = [
    "CostModel",
    "IXP2400",
    "IXP2800",
    "Knobs",
    "MachineState",
    "Module",
    "NN_RING",
    "NetworkProcessor",
    "PipelineError",
    "PipelineResult",
    "ReplicationResult",
    "RunSpec",
    "RuntimeReport",
    "SCRATCH_RING",
    "SRAM_RING",
    "Strategy",
    "Tracer",
    "__version__",
    "assert_equivalent",
    "compare",
    "compile_module",
    "compile_source",
    "inline_module",
    "lower_program",
    "observe",
    "optimize_module",
    "pipeline_pps",
    "replicate_pps",
    "run_group",
    "run_pipeline",
    "run_replicas",
    "run_sequential",
    "runtime_report",
    "tracing",
]
