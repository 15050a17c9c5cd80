"""Differential testing: the execution core vs the reference oracle.

The generated-code interpreter and ready-deque scheduler of
:mod:`repro.runtime` must be *semantically invisible*: on the same
program and traffic they produce exactly the statistics and observable
behaviour of the ``isinstance`` evaluator under the polling loop in
:mod:`repro.testing.reference`.  ``blocked`` is the one counter
deliberately excluded — how often an interpreter re-polls while waiting
is a scheduling artifact, not program semantics.
"""

import pytest

from repro.errors import TrapError
from repro.ir.function import Function, Module
from repro.ir.instructions import Call, Jump, Phi, Return
from repro.ir.values import Const, RegionRef
from repro.pipeline.transform import pipeline_pps
from repro.runtime import (
    Interpreter,
    MachineState,
    observe,
    run_group,
    run_pipeline,
    run_sequential,
)
from repro.runtime.scheduler import run_replicas, sequential_interpreter
from repro.testing import random_pps_source, reference

from helpers import compile_module

ITERATIONS = 25

#: The stats that must match bit for bit between the two paths.
SEMANTIC_FIELDS = ("instructions", "weight", "iterations",
                   "transmission_weight", "block_counts",
                   "serial_weight", "serial_sections")


def fresh_state(module, seed=0, count=ITERATIONS):
    state = MachineState(module)
    for table in range(2):
        if f"tab{table}" in state.regions:
            state.load_region(f"tab{table}",
                              [((i * 13 + table) % 97) for i in range(32)])
    if "flow_state" in state.regions:
        state.load_region("flow_state", [0] * 16)
    state.feed_pipe("in_q", [((i * 31 + seed) % 251)
                             for i in range(count)])
    return state


def assert_stats_match(compiled, reference):
    for field in SEMANTIC_FIELDS:
        assert getattr(compiled, field) == getattr(reference, field), field


def check_sequential(seed, **kwargs):
    module = compile_module(random_pps_source(seed, **kwargs))
    state = fresh_state(module, seed)
    stats = run_sequential(module.pps("generated"), state,
                           iterations=ITERATIONS)
    ref_state = fresh_state(module, seed)
    ref_stats = reference.run_sequential(module.pps("generated"), ref_state,
                                         iterations=ITERATIONS)
    assert_stats_match(stats, ref_stats)
    assert observe(state) == observe(ref_state)


def check_pipelined(seed, degree, **kwargs):
    module = compile_module(random_pps_source(seed, **kwargs))
    result = pipeline_pps(module, "generated", degree)
    state = fresh_state(module, seed)
    run = run_pipeline(result.stages, state, iterations=ITERATIONS)
    ref_state = fresh_state(module, seed)
    ref_run = reference.run_pipeline(result.stages, ref_state,
                                     iterations=ITERATIONS)
    assert run.stats.keys() == ref_run.stats.keys()
    for name in run.stats:
        assert_stats_match(run.stats[name], ref_run.stats[name])
    assert observe(state) == observe(ref_state)


@pytest.mark.parametrize("seed", range(12))
def test_sequential_matches_reference(seed):
    check_sequential(seed)


@pytest.mark.parametrize("seed", range(12, 18))
def test_sequential_with_shared_state(seed):
    check_sequential(seed, use_memory_state=True)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("degree", (2, 4))
def test_pipelined_matches_reference(seed, degree):
    check_pipelined(seed, degree)


@pytest.mark.parametrize("seed", range(8, 12))
def test_pipelined_deep_matches_reference(seed):
    check_pipelined(seed, 7)


@pytest.mark.parametrize("seed", range(4))
def test_replicated_matches_reference(seed):
    # Replication exercises the sequencer wait/advance pseudo-ops and the
    # serial-section bookkeeping on both paths.
    from repro.pipeline.replicate import replicate_pps

    module = compile_module(random_pps_source(seed, use_memory_state=True))
    replication = replicate_pps(module, "generated", 3)
    state = fresh_state(module, seed)
    run = run_replicas(replication.replicas, state, iterations=ITERATIONS)
    module_ref = compile_module(random_pps_source(
        seed, use_memory_state=True))
    replication_ref = replicate_pps(module_ref, "generated", 3)
    ref_state = fresh_state(module_ref, seed)
    ref_run = reference.run_replicas(replication_ref.replicas, ref_state,
                                     iterations=ITERATIONS)
    assert sorted(run.stats) == sorted(ref_run.stats)
    for name in run.stats:
        assert_stats_match(run.stats[name], ref_run.stats[name])
    assert observe(state) == observe(ref_state)


# -- traps -------------------------------------------------------------------
#
# The random programs above are trap-free by construction, so they never
# compare a trap.  Each case below traps on its first packet; both cores
# must raise the same class with the same message.


def source_case(body, *, feed=(), declarations="", prepare=None):
    """A trap case from PPS-C: ``(function, fresh state)`` factories."""
    module = compile_module(
        f"pipe q; {declarations} pps p {{ for (;;) {{ "
        f"int x = pipe_recv(q); {body} }} }}")

    def state():
        if prepare is not None:
            prepare(module)
        state = MachineState(module)
        state.feed_pipe("q", list(feed))
        return state

    function = module.pps("p")
    return (lambda state: sequential_interpreter(function, state, 2)), state


def ir_case(instruction):
    """A trap case no PPS-C source lowers to: ``instruction`` alone in the
    block after the entry."""
    function = Function("p")
    entry, body = function.new_block("entry"), function.new_block("body")
    entry.set_terminator(Jump(body.name))
    body.append(instruction(function))
    body.set_terminator(Return())
    return (lambda state: Interpreter(function, state),
            lambda: MachineState(Module()))


def make_readonly(module):
    module.regions["m"] = RegionRef("m", 8, readonly=True)


def feed_device(state_factory):
    def state():
        state = state_factory()
        state.devices.feed_packet(0, b"abc")
        return state
    return state


def without_region(state_factory):
    def state():
        state = state_factory()
        del state.regions["m"]
        return state
    return state


def trap_cases():
    alloc = "int h = pkt_alloc(4);"
    cases = {
        "div by zero": source_case("trace(1, 100 / x);", feed=[0]),
        "mod by zero": source_case("trace(1, 100 % x);", feed=[0]),
        "array load": source_case("int a[4]; trace(1, a[x]);", feed=[4]),
        "array store": source_case("int a[4]; a[x] = 1;", feed=[-1]),
        "region read": source_case("trace(1, mem_read(m, x));", feed=[8],
                                   declarations="memory m[8];"),
        "region write": source_case("mem_write(m, x, 1);", feed=[-1],
                                    declarations="memory m[8];"),
        "region add": source_case("trace(1, mem_add(m, x, 1));", feed=[8],
                                  declarations="memory m[8];"),
        "readonly write": source_case("mem_write(m, x, 1);", feed=[0],
                                      declarations="memory m[8];",
                                      prepare=make_readonly),
        "packet load": source_case(alloc + " trace(1, pkt_load(h, x));",
                                   feed=[4]),
        "packet store": source_case(alloc + " pkt_store_u16(h, x, 7);",
                                    feed=[3]),
        "use after free": source_case(
            alloc + " pkt_free(h); trace(1, pkt_len(h));", feed=[0]),
        "unknown packet": source_case("trace(1, pkt_meta_get(x, 0));",
                                      feed=[77]),
        "phi": ir_case(lambda function: Phi(
            function.new_reg(), {"elsewhere": Const(1)})),
        "user call": ir_case(lambda function: Call(None, "helper", [])),
    }
    interpreter, state = source_case("trace(1, mem_read(m, x));", feed=[0],
                                     declarations="memory m[8];")
    cases["unknown region"] = interpreter, without_region(state)
    interpreter, state = source_case(
        "int e = rbuf_next(0); trace(1, rbuf_load(e, x));", feed=[3])
    cases["rbuf load"] = interpreter, feed_device(state)
    return cases


TRAP_CASES = trap_cases()


@pytest.mark.parametrize("case", sorted(TRAP_CASES))
def test_traps_match_reference(case):
    interpreter, fresh = TRAP_CASES[case]
    raised = []
    for run in (run_group, reference.run_group):
        with pytest.raises(TrapError) as info:
            run({"p": interpreter(fresh())})
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]


#: Three trap sites that the D=3 partition spreads over two stages.
TRAPPING_PPS = """
pipe in_q;
pipe out_q;
readonly memory tbl[64];

pps worker {
    for (;;) {
        int v = pipe_recv(in_q);
        int a[4];
        int k = mem_read(tbl, v & 63);
        int y = (v * 7 + k) ^ (v >> 2);
        int z = 1000 / (v % 5);
        int h = hash32(y + z) & 0xFF;
        int i = 0;
        while (i < (v & 3)) { h = h + k; i++; }
        a[h & 7] = z;
        int w = a[h & 7] + mem_read(tbl, (h & 31) + (z & 63));
        trace(1, w);
        pipe_send(out_q, w - z);
    }
}
"""


def test_quarantined_traps_keep_their_dead_letters():
    # Literals recorded at the commit before code generation replaced the
    # per-instruction closures: a segment is charged before it executes,
    # so ``instructions`` counts the whole segment the trap sits in, and
    # ``last_block`` names the block *before* the trapping one.  The order
    # across stages is the order traps fire, so it follows the schedule:
    # stage 1 runs all ten iterations (one burst) before stage 3 receives.
    module = compile_module(TRAPPING_PPS)
    result = pipeline_pps(module, "worker", 3)
    state = MachineState(module)
    state.load_region("tbl", [(i * 7 + 3) % 50 for i in range(64)])
    state.feed_pipe("in_q", [(i * 37) % 100 for i in range(10)])
    run = run_pipeline(result.stages, state, iterations=10,
                       isolate_traps=True)
    div = "worker.s1of3: division by zero at <pps-c>:12:22"
    letters = [(letter.stage, letter.iteration, letter.instructions,
                letter.last_block, letter.cause, letter.detail)
               for letter in state.dead_letters]
    assert letters == [
        ("worker.s1of3", 1, 14, "entry0", "TrapError", div),
        ("worker.s1of3", 5, 107, "stage_latch", "TrapError", div),
        ("worker.s3of3", 1, 19, "enter_while_exit5", "TrapError",
         "worker.s3of3: a[6] out of bounds"),
        ("worker.s3of3", 1, 37, "enter_while_exit5", "TrapError",
         "worker.s3of3: a[7] out of bounds"),
        ("worker.s3of3", 1, 55, "enter_while_exit5", "TrapError",
         "tbl[67] out of bounds (64 words)"),
        ("worker.s3of3", 2, 94, "enter_while_exit5", "TrapError",
         "worker.s3of3: a[6] out of bounds"),
        ("worker.s3of3", 2, 112, "enter_while_exit5", "TrapError",
         "worker.s3of3: a[5] out of bounds"),
        ("worker.s3of3", 2, 130, "enter_while_exit5", "TrapError",
         "tbl[67] out of bounds (64 words)"),
    ]
    # Yielding at every iteration interleaved the stages; each stage's
    # own records, in its own order, are the same under either schedule.
    per_iteration = [
        ("worker.s1of3", 1, 14, "entry0", "TrapError", div),
        ("worker.s3of3", 1, 19, "enter_while_exit5", "TrapError",
         "worker.s3of3: a[6] out of bounds"),
        ("worker.s3of3", 1, 37, "enter_while_exit5", "TrapError",
         "worker.s3of3: a[7] out of bounds"),
        ("worker.s1of3", 5, 107, "stage_latch", "TrapError", div),
        ("worker.s3of3", 1, 55, "enter_while_exit5", "TrapError",
         "tbl[67] out of bounds (64 words)"),
        ("worker.s3of3", 2, 94, "enter_while_exit5", "TrapError",
         "worker.s3of3: a[6] out of bounds"),
        ("worker.s3of3", 2, 112, "enter_while_exit5", "TrapError",
         "worker.s3of3: a[5] out of bounds"),
        ("worker.s3of3", 2, 130, "enter_while_exit5", "TrapError",
         "tbl[67] out of bounds (64 words)"),
    ]
    for stage in run.stats:
        assert [letter for letter in letters if letter[0] == stage] \
            == [letter for letter in per_iteration if letter[0] == stage]
    assert {name: (stats.instructions, stats.weight, stats.traps)
            for name, stats in run.stats.items()} == {
        "worker.s1of3": (187, 285, 2),
        "worker.s2of3": (261, 349, 0),
        "worker.s3of3": (151, 227, 6),
    }
    assert list(state.pipe("out_q").queue) == [0, 6]
