"""The fuel bound: each region knows the most instructions one execution
of it can retire, and while the interpreter's count is further than that
from its limit the driver runs a text that tests no limit and writes its
books only where they can be read.

Two things must hold for that to change no number.  The bound must
cover every path a region can take (checked here against what executed
paths of the suite cells really charged), and wherever the limit can be
reached in a region — an armed injected trap, a livelock — the driver must
switch to the checked text in time, and the two texts must leave the
same counters at every point a run can stop: a return, a wait, a trap.
The budget sweeps below arm a trap at every budget from 0 to past the
bound, so each run crosses from the plain text to the checked one.
"""

import dataclasses
import os
import re
import subprocess
import sys

import pytest

from repro.apps.suite import build_app
from repro.errors import TrapError
from repro.ir.function import Module
from repro.ir.instructions import (
    Assign,
    BinOp,
    Branch,
    Call,
    Jump,
    Phi,
    SwitchTerm,
)
from repro.ir.values import Const, PipeRef, RegionRef, VReg
from repro.pipeline.transform import pipeline_pps
from repro.runtime import Interpreter, MachineState, run_group
from repro.runtime import compile as codegen
from repro.runtime.compile import compile_function
from repro.runtime.interp import InterpStats
from repro.runtime.scheduler import (
    pipeline_interpreters,
    sequential_interpreter,
)
from repro.testing import reference

from test_runtime_compiled_differential import SEMANTIC_FIELDS
from test_runtime_regions import (
    CHAIN,
    SUITE,
    assert_matches_reference,
    chain,
    function_of,
    trace,
)

# -- the bound covers every executed path ------------------------------------


def spent_per_region(monkeypatch):
    """Record, per generated root, the most instructions one execution of
    its region retired (its own cost included), by wrapping the region's
    step: what it retires, and what the root's steps ahead of it did."""
    spent = {}
    generate = codegen._compile_block

    def recording(blocks, function, block, checked=False):
        compiled = generate(blocks, function, block, checked)
        *heads, region = compiled.steps
        key = (function.name, block.name)
        ahead = max((index for index, inst in enumerate(block.instructions)
                     if codegen._own_step(inst)), default=0)

        def step(interp):
            before = interp.stats.instructions
            try:
                return region(interp)
            finally:
                spent[key] = max(spent.get(key, 0), ahead
                                 + interp.stats.instructions - before)
        compiled.steps = (*heads, step)
        return compiled

    monkeypatch.setattr(codegen, "_compile_block", recording)
    return spent


@pytest.mark.parametrize("name", SUITE)
def test_the_bound_covers_what_every_executed_path_charged(monkeypatch, name):
    spent = spent_per_region(monkeypatch)
    app = build_app(name, packets=24)

    fed = app.fresh_state
    state, packets = fed()
    function = app.module.pps(app.pps_name)
    groups = [{function.name: sequential_interpreter(function, state,
                                                     packets)}]
    for degree in (3, 7):
        state, packets = fed()
        groups.append(pipeline_interpreters(
            pipeline_pps(app.module, app.pps_name, degree).stages, state,
            packets))
    for group in groups:
        run_group(group)
    assert spent
    bounds = {(interp.function.name, name): block.fuel_bound
              for group in groups for interp in group.values()
              for name, block in compile_function(
                  interp.function).blocks.items()}
    for key, most in spent.items():
        assert most <= bounds[key], key
    # Some region is filled to its bound by a real path (a long chain of
    # inline blocks is as long as the bound says).
    assert any(spent[key] == bounds[key] > 1 for key in spent)
    for group in groups:
        for interp in group.values():
            for block in compile_function(interp.function).blocks.values():
                assert block.checked is None  # never built on a clean run
                assert "_fuel_exhausted" not in block.source
                assert not re.search(r"(?<![.\w])fuel\b", block.source)


def test_the_bound_and_both_texts_do_not_depend_on_the_hash_seed():
    # ipv4 alone and at D = 4: every region's bound, plain text and
    # checked text, under a fixed and two random hash seeds.
    script = (
        "import hashlib\n"
        "from repro.apps.suite import build_app\n"
        "from repro.pipeline.transform import pipeline_pps\n"
        "from repro.runtime import compile as codegen\n"
        "app = build_app('ipv4', packets=4)\n"
        "functions = [app.module.pps(app.pps_name)] + [\n"
        "    stage.function for stage in\n"
        "    pipeline_pps(app.module, app.pps_name, 4).stages]\n"
        "parts = []\n"
        "for function in functions:\n"
        "    blocks = codegen.compile_function(function).blocks\n"
        "    for name in function.block_order:\n"
        "        block = blocks[name]\n"
        "        checked = codegen._compile_block(\n"
        "            blocks, function, function.block(name), True)\n"
        "        parts += [str(block.fuel_bound), block.source,\n"
        "                  checked.source]\n"
        "text = '\\n'.join(parts)\n"
        "print(len(text), hashlib.sha256(text.encode()).hexdigest())\n"
    )
    digests = set()
    for seed in ("0", "random", "random"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        digests.add(result.stdout)
    assert len(digests) == 1, digests


def test_the_bound_is_the_longest_path_of_the_region():
    function = chain()
    assert_matches_reference(function, [5, 3], **CHAIN)
    head = compile_function(function).blocks["head"]
    # head (3) then a (3), b (2) and c3 (3) or cold (2), then latch (1).
    assert head.region == ("head", "a", "b", "cold", "c3", "latch")
    assert (head.cost, head.fuel_bound) == (3, 12)


# -- a budget swept across the bound ----------------------------------------


def diamond():
    """``head`` receives ``x``; ``left`` or ``right`` computes ``y``, and
    the join ``meet`` takes it through a phi and divides by ``x - 3``."""
    x, c, y1, y2, y, z, d = (VReg(name) for name in
                             ("x", "c", "y1", "y2", "y", "z", "d"))
    return function_of({
        "entry": ([], Jump("head")),
        "head": ([Call(x, "pipe_recv", [PipeRef("q")]),
                  BinOp(c, "&", x, Const(1))], Branch(c, "left", "right")),
        "left": ([BinOp(y1, "*", x, Const(3)), trace(1, y1)], Jump("meet")),
        "right": ([BinOp(y2, "+", x, Const(7))], Jump("meet")),
        "meet": ([Phi(y, {"left": y1, "right": y2}),
                  BinOp(d, "-", x, Const(3)), BinOp(z, "/", y, d),
                  trace(2, z)], Jump("latch")),
        "latch": ([], Jump("head")),
    })


def switch():
    """``head`` switches on ``x & 3`` to three arms and a default that
    all meet at ``tail``; arm ``two`` writes a region cell that ``x``
    indexes, so a large ``x`` traps in a call, then sends ``x`` on."""
    x, s, w = VReg("x"), VReg("s"), VReg("w")
    return function_of({
        "entry": ([], Jump("head")),
        "head": ([Call(x, "pipe_recv", [PipeRef("q")]),
                  BinOp(s, "&", x, Const(3))],
                 SwitchTerm(s, {0: "zero", 1: "one", 2: "two"}, "other")),
        "zero": ([trace(1, x)], Jump("tail")),
        "one": ([BinOp(w, "+", x, Const(1)), trace(2, w)], Jump("tail")),
        "two": ([Assign(w, x),
                 Call(None, "mem_write", [RegionRef("r"), x, w]),
                 Call(None, "pipe_send", [PipeRef("out"), w])],
                Jump("tail")),
        "other": ([trace(3, x)], Jump("tail")),
        "tail": ([trace(4, x)], Jump("head")),
    })


#: ``name -> (function, packets, first trapping packet)``: the chain of
#: inline blocks, a diamond with a phi at its join, a switch whose arms
#: meet.  Each traps on its own, the diamond twice: on a two-word message
#: at its head, which has charged the receive and not its run, and in the
#: join.
CASES = {
    "chain": (chain, [5, 3, 0, 7], 2),
    "diamond": (diamond, [4, 5, (1, 2), 3, 8, 9], 2),
    "switch": (switch, [4, 5, 6, 7, 2, 30, 8], 5),
}

FIELDS = [field.name for field in dataclasses.fields(InterpStats)
          if field.name not in ("block_names", "block_hits")] \
    + ["block_counts"]


class Logged(list):
    """``block_hits`` that also logs the order blocks are entered in."""

    def __init__(self, hits, log):
        super().__init__(hits)
        self.log = log

    def __setitem__(self, number, value):
        self.log.append(number)
        super().__setitem__(number, value)


def interpreter_for(function, packets):
    state = MachineState(Module())
    state.regions["r"] = [0] * 8
    state.feed_pipe("q", packets)
    return Interpreter(function, state, loop_start="head",
                       max_iterations=len(packets))


def run(function, packets, budget=None, log=None):
    """One quarantining run with an injected trap armed at ``budget``;
    returns all it can be observed by."""
    interpreter = interpreter_for(function, packets)
    if log is not None:
        interpreter.stats.block_hits = Logged(interpreter.stats.block_hits,
                                              log)
    if budget is not None:
        interpreter.arm_injected_trap(budget, "injected")
    run_group({"f": interpreter}, isolate_traps=True)
    stats, state = interpreter.stats, interpreter.state
    return dict(
        stats={name: getattr(stats, name) for name in FIELDS},
        limit=interpreter.limit, prev=interpreter.prev_block,
        traces=state.traces, regions=state.regions,
        sent=list(state.pipe("out").queue),
        letters=[vars(letter) for letter in state.dead_letters])


@pytest.mark.parametrize("case", CASES)
def test_each_case_matches_the_reference(case):
    build, packets, trapping = CASES[case]
    outcomes = []
    for group in (run_group, reference.run_group):
        clean = interpreter_for(build(), packets[:trapping])
        group({"f": clean})
        trapped = interpreter_for(build(), packets)
        with pytest.raises(TrapError) as trap:
            group({"f": trapped})
        outcomes.append(({name: getattr(clean.stats, name)
                          for name in SEMANTIC_FIELDS},
                         clean.state.traces, trapped.state.traces,
                         str(trap.value)))
    assert outcomes[0] == outcomes[1]


@pytest.fixture
def always_checked(monkeypatch):
    """``run`` with every region on its checked text, as every run was
    before regions had a bound."""
    generate = codegen._compile_block

    def checked(*args, **kwargs):
        compiled = generate(*args, **kwargs)
        compiled.fuel_bound = 1 << 62
        return compiled

    def run_checked(function, packets, budget):
        with monkeypatch.context() as patch:
            patch.setattr(codegen, "_compile_block", checked)
            return run(function, packets, budget)
    return run_checked


@pytest.mark.parametrize("case", CASES)
def test_an_armed_budget_swept_past_the_bound_matches_the_checked_text(
        always_checked, case):
    build, packets, _ = CASES[case]
    log, function = [], build()
    clean = run(function, packets, log=log)  # the blocks a pass enters
    head = compile_function(function).blocks["head"]
    assert head.fuel_bound > head.cost  # the region inlines blocks
    assert head.checked is None and clean["letters"]
    names = list(compile_function(function).block_names)
    cost = {name: len(block.instructions) + 1
            for name, block in function.blocks.items()}
    crossed = 0
    for budget in range(0, head.fuel_bound + 3):
        function = build()
        plain = run(function, packets, budget)
        blocks = compile_function(function).blocks
        # ``entry`` ran plain, the limit then too close for ``head``'s.
        crossed += (blocks["entry"].checked is None
                    and blocks["head"].checked is not None)
        assert plain == always_checked(build(), packets, budget), budget
        # The injected trap fires at the first block entry that takes the
        # count to the limit, every block before it paid in full; then the
        # case's own trap is quarantined too.
        paid, previous = 0, None
        for number in log:
            block = names[number]
            if paid + cost[block] >= max(1, budget):
                break
            paid, previous = paid + cost[block], block
        assert [(letter["instructions"], letter["last_block"],
                 letter["detail"]) for letter in plain["letters"]][0] \
            == (paid, previous, "f: injected"), budget
        assert [letter["detail"] for letter in plain["letters"][1:]] \
            == [letter["detail"] for letter in clean["letters"]]
    assert crossed
