"""Directed tests for regions: the structured pieces of a CFG — a root
block and everything whose predecessors are all inside — that
``repro.runtime.compile`` writes as one Python function.

The differential suite runs random programs; these pin what inlining a
block, keeping its registers in locals, meeting at a join and testing a
pipe ahead of its block could get wrong: where a trap is charged and
what its dead letter names, where an injected trap fires, what survives
a join and a back edge, a phi at a block that runs inline, and which
blocks may never run inline.  Behaviour is compared with
``repro.testing.reference``; what the oracle does not model (quarantine,
the fuel gauge, ``prev_block``) is pinned as literals that the
basic-block generator before regions also produced, or derived from the
blocks a packet is known to pass through.
"""

import functools
import re

import pytest

from repro.apps.suite import build_app
from repro.errors import TrapError
from repro.ir.function import BasicBlock, Function, Module
from repro.ir.instructions import (
    Assign,
    BinOp,
    Branch,
    Call,
    Jump,
    Phi,
    PipeOut,
    Return,
    SwitchTerm,
)
from repro.ir.values import Const, PipeRef, VReg
from repro.pipeline.transform import pipeline_pps
from repro.runtime import (
    Interpreter,
    MachineState,
    assert_equivalent,
    observe,
    run_group,
)
from repro.runtime import compile as codegen
from repro.runtime.compile import compile_function
from repro.runtime.scheduler import (
    pipeline_interpreters,
    run_sequential,
    sequential_interpreter,
)
from repro.testing import reference

from test_runtime_compiled_differential import SEMANTIC_FIELDS

FUEL = 100_000_000


def function_of(blocks):
    """A hand-built function: ``name -> (instructions, terminator)``,
    the first block being the entry."""
    function = Function("f")
    for name, (instructions, terminator) in blocks.items():
        block = BasicBlock(name)
        block.instructions.extend(instructions)
        block.set_terminator(terminator)
        function.adopt_block(block)
    function.entry = next(iter(blocks))
    return function


def trace(tag, value):
    return Call(None, "trace", [Const(tag), value])


def run(function, feed, group=run_group, **interp):
    """Run ``function`` alone over ``feed`` on pipe ``q``; returns the
    interpreter, the state and the trap that ended the run, if one did."""
    state = MachineState(Module())
    state.feed_pipe("q", feed)
    interpreter = Interpreter(function, state, **interp)
    try:
        group({"f": interpreter})
    except TrapError as exc:
        return interpreter, state, (type(exc), str(exc))
    return interpreter, state, None


def assert_matches_reference(function, feed, **interp):
    """Both cores agree on statistics, traces and the trap (or none);
    returns the production interpreter and state, and the oracle's
    interpreter."""
    interpreter, state, trap = run(function, feed, **interp)
    oracle, oracle_state, oracle_trap = run(function, feed,
                                            reference.run_group, **interp)
    assert trap == oracle_trap
    assert state.traces == oracle_state.traces
    if trap is None:
        for name in SEMANTIC_FIELDS:
            assert getattr(interpreter.stats, name) \
                == getattr(oracle.stats, name), name
    return interpreter, state, oracle


def regions(function):
    """``root -> blocks inline behind it`` of what has been generated."""
    return {name: block.region[1:]
            for name, block in compile_function(function).blocks.items()}


# -- a chain of inlined blocks: traps, dead letters, injected traps ----------


def chain():
    """``head`` (the loop start, headed by a ``pipe_recv``) with ``a``,
    ``b`` and then ``cold`` or ``c3`` inline behind it; ``c3`` divides by
    the packet, and ``carried`` is written in ``a`` and read only by the
    next iteration's ``head``."""
    x, y, c, z, carried = (VReg(name) for name in
                           ("x", "y", "c", "z", "carried"))
    return function_of({
        "entry": ([], Jump("head")),
        "head": ([Call(x, "pipe_recv", [PipeRef("q")]), trace(1, carried)],
                 Jump("a")),
        "a": ([BinOp(y, "+", x, Const(1)), BinOp(carried, "*", x, Const(2))],
              Jump("b")),
        "b": ([BinOp(c, "==", x, Const(3))], Branch(c, "cold", "c3")),
        "cold": ([trace(9, y)], Jump("latch")),
        "c3": ([BinOp(z, "/", Const(100), x), trace(2, z)], Jump("latch")),
        "latch": ([], Jump("head")),
    })


CHAIN = dict(loop_start="head", max_iterations=4)


def test_chain_runs_inline_and_matches_reference():
    function = chain()
    interpreter, state, oracle = assert_matches_reference(
        function, [5, 3, 4, 7], **CHAIN)
    assert regions(function)["head"] == ("a", "b", "cold", "c3", "latch")
    assert state.traces == {1: [0, 10, 6, 8], 2: [20, 25, 14], 9: [4]}
    assert interpreter.stats.block_counts == {
        "entry": 1, "head": 4, "a": 4, "b": 4, "cold": 1, "c3": 3, "latch": 4}
    assert interpreter.prev_block == "latch"
    # The gauge pays a block's instructions plus one when the block is
    # entered; over whole blocks that is what the oracle counts one
    # instruction and one terminator at a time.
    assert FUEL - interpreter.fuel == oracle.stats.instructions == 48


def test_trap_in_the_third_inlined_block_aborts_like_the_reference():
    function = chain()
    interpreter, _, oracle = assert_matches_reference(
        function, [5, 3, 0, 7], **CHAIN)
    assert run(function, [5, 3, 0, 7], **CHAIN)[2] \
        == (TrapError, "f: division by zero at <unknown>:0:0")
    assert interpreter.stats.block_counts == oracle.stats.block_counts
    # Charge before execute: c3 was paid in full, the oracle stopped at
    # its first instruction (the trace and the jump are the difference).
    assert interpreter.stats.instructions == oracle.stats.instructions + 2
    assert interpreter.stats.instructions == FUEL - interpreter.fuel == 35
    assert interpreter.prev_block == "b"


def test_trap_in_the_third_inlined_block_is_quarantined_with_its_names():
    function = chain()
    state = MachineState(Module())
    state.feed_pipe("q", [5, 3, 0, 7])
    interpreter = Interpreter(function, state, **CHAIN)
    run_group({"f": interpreter}, isolate_traps=True)
    assert [vars(letter) for letter in state.dead_letters] == [dict(
        stage="f", iteration=3, instructions=35, last_block="b",
        cause="TrapError", detail="f: division by zero at <unknown>:0:0")]
    # The quarantine zeroed ``carried``; the fourth packet went through,
    # and the pass the trap gave back found the pipe empty at ``head``.
    assert state.traces == {1: [0, 10, 6, 0], 2: [20, 14], 9: [4]}
    assert (interpreter.stats.instructions, interpreter.stats.weight,
            interpreter.stats.traps, FUEL - interpreter.fuel) \
        == (47, 55, 1, 50)
    assert interpreter.stats.block_counts == {
        "entry": 1, "head": 5, "a": 4, "b": 4, "cold": 1, "c3": 3, "latch": 3}


#: The blocks ``chain()`` executes over packets 5, 3, 4, 7.
EXECUTED = ["entry"] + [block for packet in (5, 3, 4, 7) for block in
                        ("head", "a", "b", "cold" if packet == 3 else "c3",
                         "latch")]

#: ``FUEL - interp.fuel`` after the whole run, by ``after_instructions``
#: 1 … 48 (what the restart goes on to spend differs with the block the
#: trap took out); recorded from the basic-block generator.
SPENT = [48, 49, 50, 51, 43, 44, 45, 46, 47, 48, 49, 50, 51, 49, 50, 51,
         44, 45, 46, 47, 48, 49, 50, 51, 49, 50, 51, 43, 44, 45, 46, 47,
         48, 49, 50, 51, 49, 50, 51, 43, 44, 45, 46, 47, 48, 49, 50, 51]


@pytest.mark.parametrize("budget", range(1, len(SPENT) + 1))
def test_injected_trap_fires_at_the_block_entry_the_gauge_runs_out(budget):
    # Whoever enters the block — the driver, or the region the block is
    # inline in — the trap fires at the first entry that takes the gauge
    # to zero, with every earlier block paid in full and the one before
    # it named.
    function = chain()
    cost = {name: len(block.instructions) + 1
            for name, block in function.blocks.items()}
    paid, previous = 0, None
    for block in EXECUTED:
        if paid + cost[block] >= budget:
            break
        paid, previous = paid + cost[block], block
    state = MachineState(Module())
    state.feed_pipe("q", [5, 3, 4, 7])
    interpreter = Interpreter(function, state, **CHAIN)
    interpreter.arm_injected_trap(budget, "injected")
    run_group({"f": interpreter}, isolate_traps=True)
    (letter,) = state.dead_letters
    assert (letter.instructions, letter.last_block, letter.detail) \
        == (paid, previous, "f: injected")
    assert FUEL - interpreter.fuel == SPENT[budget - 1]


def test_register_written_mid_region_survives_the_back_edge():
    # ``carried`` is dead on every edge inside the region and live only
    # around the loop: it stays in its local through the join at
    # ``latch``, whose exit to ``head`` must still write it back.
    function = chain()
    _, state, _ = assert_matches_reference(function, [1, 2, 4], **CHAIN)
    assert state.traces[1] == [0, 2, 4]
    head = compile_function(function).blocks["head"]
    assert re.findall(r"^\s+(regs\[K\d+\] = \w+)$", head.source, re.M) \
        == ["regs[K1] = r1"]  # that write-back and no other, at the one exit


# -- phis --------------------------------------------------------------------


def test_phi_in_an_inlined_block_takes_its_predecessors_value():
    v, w = VReg("v"), VReg("w")
    function = function_of({
        "entry": ([Assign(w, Const(5))], Jump("body")),
        "body": ([Phi(v, {"entry": w, "elsewhere": Const(9)}),
                  Phi(w, {"entry": Const(6)}), trace(1, v), trace(1, w)],
                 Return()),
    })
    _, state, _ = assert_matches_reference(function, [])
    assert state.traces == {1: [5, 6]}
    assert regions(function) == {"entry": ("body",)}
    assert "prev_block ==" not in compile_function(function) \
        .blocks["entry"].source  # resolved when the text was written


def test_phi_without_an_incoming_traps_inline_with_the_same_text():
    function = function_of({
        "entry": ([], Jump("body")),
        "body": ([Phi(VReg("v"), {"elsewhere": Const(1)})], Return()),
    })
    interpreter, _, _ = assert_matches_reference(function, [])
    assert run(function, [])[2] \
        == (TrapError, "phi in f has no incoming for entry")
    assert regions(function) == {"entry": ("body",)}
    assert interpreter.prev_block == "entry"


# -- blocks that never run inline --------------------------------------------


def test_branch_to_one_block_twice_falls_through_once():
    x, c = VReg("x"), VReg("c")
    function = function_of({
        "entry": ([], Jump("head")),
        "head": ([Call(x, "pipe_recv", [PipeRef("q")]),
                  BinOp(c, "&", x, Const(1))], Branch(c, "both", "both")),
        "both": ([trace(1, x)], Jump("head")),
    })
    interpreter, state, _ = assert_matches_reference(
        function, [4, 5, 6], loop_start="head", max_iterations=3)
    assert state.traces == {1: [4, 5, 6]}
    assert regions(function) == {"entry": (), "head": ("both",)}
    assert interpreter.stats.block_counts["both"] == 3
    source = compile_function(function).blocks["head"].source
    assert "if r" not in source and "else:" not in source  # written as a jump


def straight_line():
    return function_of({
        "entry": ([trace(1, Const(1))], Jump("body")),
        "body": ([trace(1, Const(2))], Jump("tail")),
        "tail": ([trace(1, Const(3))], Return()),
    })


@pytest.mark.parametrize("budget, traces, counts, finished_at", [
    (0, [1], {"entry": 1}, "entry"),
    (1, [1, 2, 3], {"entry": 1, "body": 1, "tail": 1}, "tail"),
])
def test_single_predecessor_loop_start_is_still_seen(budget, traces, counts,
                                                     finished_at):
    # Real loop headers have two predecessors; ``loop_start`` is whatever
    # the caller names, and the driver counts, stops and yields there.
    function = straight_line()
    interpreter, state, _ = assert_matches_reference(
        function, [], loop_start="body", max_iterations=budget)
    assert state.traces == {1: traces}
    assert interpreter.stats.block_counts == counts
    assert interpreter.stats.iterations == 1
    assert interpreter.finished and interpreter.prev_block == finished_at
    assert regions(function) == {"entry": (), "body": ("tail",)}
    generator = Interpreter(function, MachineState(Module()),
                            loop_start="body").run()
    assert next(generator) is None  # the per-iteration yield, at ``body``
    with pytest.raises(StopIteration):
        next(generator)


def test_naming_a_loop_start_regenerates_regions_that_inlined_it():
    function = straight_line()
    assert_matches_reference(function, [])
    assert regions(function) == {"entry": ("body", "tail")}
    interpreter, state, _ = assert_matches_reference(
        function, [], loop_start="body", max_iterations=0)
    assert state.traces == {1: [1]} and interpreter.stats.iterations == 1
    assert regions(function) == {"entry": (), "body": ("tail",)}


# -- joins, switches and pipes inside a region --------------------------------
#
# Each shape is a loop over ``head`` (a ``pipe_recv`` from ``q``) whose
# whole body is one region; ``path(packet)`` lists the blocks a packet
# passes through after ``head``, by hand.


def looped(blocks):
    return function_of({"entry": ([], Jump("head")), **blocks,
                        "latch": ([], Jump("head"))})


def diamond():
    x, c, y = VReg("x"), VReg("c"), VReg("y")
    return looped({
        "head": ([Call(x, "pipe_recv", [PipeRef("q")]),
                  BinOp(c, "&", x, Const(1))], Branch(c, "odd", "even")),
        "odd": ([BinOp(y, "*", x, Const(3))], Jump("join")),
        "even": ([BinOp(y, "+", x, Const(10)), trace(2, x)], Jump("join")),
        "join": ([trace(1, y)], Jump("latch")),
    }), lambda packet: ["odd" if packet & 1 else "even", "join", "latch"]


def short_circuit():
    # ``if (x & 1 && x & 2) trace(2, x);`` as the front end lowers it.
    x, c, sc = VReg("x"), VReg("c"), VReg("sc")
    return looped({
        "head": ([Call(x, "pipe_recv", [PipeRef("q")]),
                  BinOp(c, "&", x, Const(1)), Assign(sc, c)],
                 Branch(c, "rhs", "done")),
        "rhs": ([BinOp(c, "&", x, Const(2)), Assign(sc, c)], Jump("done")),
        "done": ([], Branch(sc, "then", "join")),
        "then": ([trace(2, x)], Jump("join")),
        "join": ([trace(1, sc)], Jump("latch")),
    }), lambda packet: (["rhs"] if packet & 1 else []) + ["done"] + (
        ["then"] if packet & 3 == 3 else []) + ["join", "latch"]


def switch():
    # Arms ``a0`` and ``a1`` meet at ``mid``, ahead of ``tail`` where the
    # third arm and the default meet them: two joins awaited at once.
    x, v, y = VReg("x"), VReg("v"), VReg("y")
    return looped({
        "head": ([Call(x, "pipe_recv", [PipeRef("q")]),
                  BinOp(v, "&", x, Const(7))],
                 SwitchTerm(v, {0: "a0", 1: "a1", 2: "a2", 5: "a1"}, "other")),
        "a0": ([Assign(y, Const(100))], Jump("mid")),
        "a1": ([BinOp(y, "+", x, Const(1))], Jump("mid")),
        "a2": ([Assign(y, Const(2)), trace(3, x)], Jump("tail")),
        "other": ([BinOp(y, "-", Const(0), x)], Jump("tail")),
        "mid": ([trace(2, y)], Jump("tail")),
        "tail": ([trace(1, y)], Jump("latch")),
    }), lambda packet: {0: ["a0", "mid"], 1: ["a1", "mid"], 5: ["a1", "mid"],
                        2: ["a2"]}.get(packet & 7, ["other"]) + ["tail",
                                                                 "latch"]


def sender():
    # A ``pipe_out`` and a ``pipe_send`` in the middle of the region.
    x, y = VReg("x"), VReg("y")
    return looped({
        "head": ([Call(x, "pipe_recv", [PipeRef("q")])], Jump("pre")),
        "pre": ([BinOp(y, "+", x, Const(1))], Jump("out")),
        "out": ([trace(2, x), PipeOut([y, x], PipeRef("out")), trace(3, y),
                 Call(None, "pipe_send", [PipeRef("log"), y])],
                Branch(x, "post", "latch")),
        "post": ([trace(1, y)], Jump("latch")),
    }), lambda packet: ["pre", "out"] + (["post"] if packet else []) + ["latch"]


def drain(pipe):
    """A second interpreter's function: receives from ``pipe`` for ever."""
    z = VReg("z")
    function = function_of({
        "entry": ([], Jump("head")),
        "head": ([Call(z, "pipe_recv", [PipeRef(pipe)]), trace(7, z)],
                 Jump("head")),
    })
    function.name = "drain_" + pipe
    return function


PACKETS = [5, 2, 0, 3, 8, 1, 6, 7]


def run_shape(function, budget=None, capacity=0):
    """``function`` over PACKETS, trap isolation on; with ``capacity``
    every pipe is bounded and ``out`` starts full, so the first send
    finds it not ready, and drains empty ``out`` and ``log``."""
    state = MachineState(Module(), pipe_capacity=capacity)
    state.feed_pipe("q", PACKETS)
    interpreter = Interpreter(function, state, loop_start="head",
                              max_iterations=len(PACKETS))
    group = {"f": interpreter}
    if capacity:
        state.feed_pipe("out", [(0, 0)])
        for pipe in ("out", "log"):
            group[pipe] = Interpreter(drain(pipe), state, loop_start="head")
    if budget is not None:
        interpreter.arm_injected_trap(budget, "injected")
    run_group(group, isolate_traps=True)
    return interpreter, state


@pytest.mark.parametrize("shape, capacity", [
    (diamond, 0), (short_circuit, 0), (switch, 0), (sender, 0), (sender, 1)])
def test_injected_trap_fires_at_the_same_block_entry_in_every_shape(
        shape, capacity):
    function, path = shape()
    interpreter, state = run_shape(function, capacity=capacity)
    assert regions(function)["head"] == tuple(
        name for name in function.block_order if name not in ("entry", "head"))
    oracle, _, _ = run(function, PACKETS, reference.run_group,
                       loop_start="head", max_iterations=len(PACKETS))
    assert interpreter.stats.block_counts == oracle.stats.block_counts
    executed = ["entry"] + [block for packet in PACKETS
                            for block in ["head"] + path(packet)]
    assert {name: executed.count(name) for name in set(executed)} \
        == oracle.stats.block_counts  # the hand-written paths are right
    if capacity:  # the full pipe sent the region out, and the driver back in
        assert interpreter.stats.blocked > 0
        assert "out" in compile_function(function).blocks
    cost = {name: len(block.instructions) + 1
            for name, block in function.blocks.items()}
    for budget in range(1, sum(cost[block] for block in executed) + 1):
        paid, previous = 0, None
        for block in executed:
            if paid + cost[block] >= budget:
                break
            paid, previous = paid + cost[block], block
        _, state = run_shape(function, budget, capacity)
        letters = [letter for letter in state.dead_letters
                   if letter.stage == "f"]
        assert [(letter.instructions, letter.last_block, letter.detail)
                for letter in letters] == [(paid, previous, "f: injected")]


def test_nesting_past_the_depth_bound_starts_a_region_of_its_own():
    # Twenty ``if``s inside one another, each meeting its ``else`` again:
    # nothing can be written flat, so the plan cuts where the text would
    # nest too deep, and the blocks below run from the driver.
    depth = 20
    x, c = VReg("x"), VReg("c")
    blocks = {"head": ([Call(x, "pipe_recv", [PipeRef("q")])], Jump("b0"))}
    for level in range(depth):
        blocks[f"b{level}"] = (
            [BinOp(c, ">", x, Const(level))],
            Branch(c, f"b{level + 1}", f"j{level}"))
    blocks[f"b{depth}"] = ([trace(1, x)], Jump(f"j{depth - 1}"))
    for level in reversed(range(depth)):
        blocks[f"j{level}"] = ([trace(2, Const(level))],
                               Jump(f"j{level - 1}" if level else "latch"))
    function = looped(blocks)
    assert_matches_reference(function, [0, 25, 7, 13], loop_start="head",
                             max_iterations=4)
    generated = compile_function(function).blocks
    assert len(generated["head"].region) > codegen._MAX_DEPTH
    assert len(generated) > 3  # entry, head, and what the bound cut off
    for block in generated.values():
        assert max(len(line) - len(line.lstrip("\t"))
                   for line in block.source.splitlines()) \
            <= codegen._MAX_DEPTH + 3


def test_phis_at_an_inlined_join_swap_like_the_reference():
    # ``a, b = b, a`` down both paths: each phi reads what the path that
    # was taken left, in order — what that is, the oracle says.
    x, c, a, b = (VReg(name) for name in "xcab")
    function = looped({
        "head": ([Call(x, "pipe_recv", [PipeRef("q")]),
                  BinOp(c, "&", x, Const(1))], Branch(c, "left", "right")),
        "left": ([Assign(a, x), Assign(b, Const(1))], Jump("join")),
        "right": ([Assign(a, Const(2)), BinOp(b, "*", x, Const(5))],
                  Jump("join")),
        "join": ([Phi(a, {"left": b, "right": b}),
                  Phi(b, {"left": a, "right": a}),
                  trace(1, a), trace(2, b)], Jump("latch")),
    })
    _, state, _ = assert_matches_reference(
        function, PACKETS, loop_start="head", max_iterations=len(PACKETS))
    assert regions(function)["head"] == ("left", "right", "join", "latch")
    assert state.traces[1] == [1, 10, 0, 1, 40, 1, 30, 1]


def test_bounded_pipes_send_a_stage_out_of_its_region_and_back():
    app = build_app("ipv4", packets=24)
    sequential = MachineState(app.module)
    packets = app.feed(sequential, app.stream())
    run_sequential(app.module.pps(app.pps_name), sequential,
                   iterations=packets)
    stages = pipeline_pps(app.module, app.pps_name, 4).stages
    bounded = MachineState(app.module)
    for name, pipe in bounded.pipes.items():
        pipe.capacity = int(".xfer" in name)  # the stage pipes: one slot
    app.feed(bounded, app.stream())
    interpreters = pipeline_interpreters(stages, bounded, packets)
    interpreters[stages[-1].function.name]._slow_yields = 3  # rings fill
    result = run_group(interpreters)
    assert_equivalent(observe(sequential), observe(bounded))
    assert sum(stats.blocked for stats in result.stats.values()) > packets
    # A block that ran inline and, a pipe being full, also as a root.
    assert any(set(compiled.blocks) & {
        block for generated in compiled.blocks.values()
        for block in generated.region[1:]}
        for compiled in (compile_function(stage.function)
                         for stage in stages))


# -- structure over the suite ------------------------------------------------

SUITE = ("rx", "ipv4", "ip_v4", "ip_v6", "scheduler", "qm", "tx")

#: Generated lines per IR instruction, over the functions of one app:
#: about two for an instruction and its operand loads, and a block of
#: five instructions pays seven for its bookkeeping and one exit (the
#: basic-block generator wrote 2.8 to 4.1, the extended basic block 3.3
#: to 4.5, the structured region writes 2.9 to 4.3).
LINES_PER_INSTRUCTION = 5

#: Driver round trips per stage-iteration over the suite at 24 packets:
#: 4 667 over 2 618, 1.78 (the extended basic block made 16 906, 6.46; an
#: inner loop and a full region still end one).
DISPATCHES_PER_ITERATION = 2.5


@functools.lru_cache(maxsize=None)
def suite_run(name):
    """``(function, its InterpStats)`` of app ``name`` run sequentially
    and as 4- and 9-stage pipelines over 24 packets."""
    app = build_app(name, packets=24)
    module = app.module

    def fed():
        state = MachineState(module)
        if app.stream is None:
            return state, app.setup(state)
        return state, app.feed(state, app.stream())

    state, packets = fed()
    groups = [{app.pps_name: sequential_interpreter(
        module.pps(app.pps_name), state, packets)}]
    for degree in (4, 9):
        state, packets = fed()
        groups.append(pipeline_interpreters(
            pipeline_pps(module, app.pps_name, degree).stages, state,
            packets))
    for group in groups:
        run_group(group)
    return [(interpreter.function, interpreter.stats)
            for group in groups for interpreter in group.values()]


@pytest.mark.parametrize("name", SUITE)
def test_regions_of_the_suite_keep_their_rules(name):
    lines = instructions = 0
    for function, _ in suite_run(name):
        compiled = compile_function(function)
        assert compiled.blocks, function.name
        predecessors = function.predecessors()
        owner = {block: generated.name for generated
                 in compiled.blocks.values() for block in generated.region}
        inlined = [block for region in regions(function).values()
                   for block in region]
        assert len(inlined) == len(set(inlined))  # no block twice
        assert not set(inlined) & set(compiled.blocks)  # nor as a root
        for block in inlined:
            # Every way into it starts in its own region.
            assert {owner.get(source) for source in predecessors[block]} \
                == {owner[block]}, block
            assert block != function.entry
            assert block not in compiled.blocks.pinned
            assert codegen._may_inline(function.block(block)), block
        for generated in compiled.blocks.values():
            sizes = [len(function.block(block).instructions) + 1
                     for block in generated.region]
            assert sum(sizes[1:]) < codegen._MAX_INSTRUCTIONS
            assert max(len(line) - len(line.lstrip())
                       for line in generated.source.splitlines()) \
                <= codegen._MAX_DEPTH + 3  # def, if, try
            lines += generated.source.count("\n")
            instructions += sum(sizes)
    assert lines <= LINES_PER_INSTRUCTION * instructions


def test_the_suite_stays_inside_its_dispatch_budget():
    # Exact: a count of block executions, not a time.
    dispatches = iterations = 0
    for name in SUITE:
        for function, stats in suite_run(name):
            dispatches += compile_function(function) \
                .dispatches(stats.block_counts)
            iterations += stats.iterations
    assert 0 < dispatches <= DISPATCHES_PER_ITERATION * iterations
