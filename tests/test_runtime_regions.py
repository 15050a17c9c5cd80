"""Directed tests for regions: the extended basic blocks that
``repro.runtime.compile`` writes as one Python function.

The differential suite runs random programs; these pin what inlining a
block, keeping its registers in locals and fusing a blocking head could
get wrong: where a trap is charged and what its dead letter names, where
an injected trap fires, what survives a back edge, a phi whose
predecessor is known at generation time, and which blocks may never run
inline.  Behaviour is compared with ``repro.testing.reference``; what the
oracle does not model (quarantine, the fuel gauge, ``prev_block``) is
pinned as literals that the basic-block generator before regions also
produced.
"""

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
    Return,
)
from repro.ir.values import Const, PipeRef, VReg
from repro.pipeline.transform import pipeline_pps
from repro.runtime import Interpreter, MachineState, run_group, run_pipeline
from repro.runtime import compile as codegen
from repro.runtime.compile import compile_function
from repro.runtime.scheduler import run_sequential
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
    assert regions(function)["head"] == ("a", "b", "cold", "c3")
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
    # around the loop: the exit to ``latch`` must still write it back.
    function = chain()
    _, state, _ = assert_matches_reference(function, [1, 2, 4], **CHAIN)
    assert state.traces[1] == [0, 2, 4]
    head = compile_function(function).blocks["head"]
    assert re.findall(r"^ +(regs\[K\d+\] = \w+)$", head.source, re.M) \
        == ["regs[K1] = r1"] * 2  # that write-back and no other, both exits


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


def test_branch_to_one_block_twice_leaves_it_to_the_driver():
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
    assert regions(function) == {"entry": (), "head": (), "both": ()}
    assert interpreter.stats.block_counts["both"] == 3


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


# -- structure over the suite ------------------------------------------------

SUITE = ("rx", "ipv4", "ip_v4", "ip_v6", "scheduler", "qm", "tx")

#: Generated lines per IR instruction, over the functions of one app:
#: about two for an instruction and its operand loads, and a block of
#: five instructions pays seven for its bookkeeping and one exit (the
#: basic-block generator wrote 2.8 to 4.1, regions write 3.3 to 4.5).
LINES_PER_INSTRUCTION = 5


@pytest.mark.parametrize("name", SUITE)
def test_regions_of_the_suite_keep_their_rules(name):
    app = build_app(name, packets=24)
    module, functions = app.module, [app.module.pps(app.pps_name)]

    def fed():
        state = MachineState(module)
        if app.stream is None:
            return state, app.setup(state)
        return state, app.feed(state, app.stream())

    state, packets = fed()
    run_sequential(functions[0], state, iterations=packets)
    for degree in (4, 9):
        stages = pipeline_pps(module, app.pps_name, degree).stages
        state, packets = fed()
        run_pipeline(stages, state, iterations=packets)
        functions += [stage.function for stage in stages]
    lines = instructions = 0
    for function in functions:
        compiled = compile_function(function)
        assert compiled.blocks, function.name
        predecessors = function.predecessors()
        inlined = [block for region in regions(function).values()
                   for block in region]
        assert len(inlined) == len(set(inlined))  # no block twice
        assert not set(inlined) & set(compiled.blocks)  # nor as a root
        for block in inlined:
            assert len(predecessors[block]) == 1, block
            assert block != function.entry
            assert block not in compiled.blocks.pinned
            assert not any(map(codegen._own_step,
                               function.block(block).instructions)), block
        for generated in compiled.blocks.values():
            sizes = [len(function.block(block).instructions) + 1
                     for block in generated.region]
            assert sum(sizes[1:]) < codegen._MAX_INSTRUCTIONS
            assert max(len(line) - len(line.lstrip())
                       for line in generated.source.splitlines()) \
                <= 4 * (codegen._MAX_DEPTH + 3)  # def, if, try
            lines += generated.source.count("\n")
            instructions += sum(sizes)
    assert lines <= LINES_PER_INSTRUCTION * instructions
