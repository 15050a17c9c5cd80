"""Unit tests for the generated-code interpreter and ready-deque scheduler.

The differential suite (``test_runtime_compiled_differential.py``) proves
the execution core agrees with the reference oracle on random programs;
these tests pin the mechanisms themselves: lazy block generation and its
memoisation, the wait-key protocol, and the wake hub.
"""

import gc
import os
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.function import Function, Module
from repro.ir.instructions import Assign, BinOp, Call, Return, UnOp
from repro.ir.types import (
    BINARY_OPS,
    INT_MAX,
    INT_MIN,
    UNARY_OPS,
    eval_binary,
    eval_unary,
)
from repro.ir.values import Const
from repro.pipeline.transform import pipeline_pps
from repro.runtime import (
    Interpreter,
    MachineState,
    WakeHub,
    compile_function,
    run_group,
    run_pipeline,
)
from repro.testing import reference

from helpers import STANDARD_PPS, compile_module, standard_setup


def run_worker(module, state, *, count, run_group=run_group):
    from repro.analysis.cfg import find_pps_loop

    function = module.pps("worker")
    loop = find_pps_loop(function)
    interp = Interpreter(function, state, loop_start=loop.header,
                         max_iterations=count)
    run_group({"worker": interp})
    return interp


# -- compilation cache and generated code ------------------------------------


def test_compile_function_is_cached():
    module = compile_module(STANDARD_PPS)
    function = module.pps("worker")
    first = compile_function(function)
    assert compile_function(function) is first
    assert first.entry == function.entry
    assert "in_q" in first.pipe_names
    assert "out_q" in first.pipe_names


def test_blocks_are_generated_when_the_driver_reaches_them():
    module = compile_module(STANDARD_PPS)
    function = module.pps("worker")
    compiled = compile_function(function)
    assert not compiled.blocks  # set-up generates nothing
    state = MachineState(module)
    count = standard_setup(state, 3)
    run_worker(module, state, count=count)
    assert compiled.blocks
    assert set(compiled.blocks) <= set(function.blocks)
    for name, block in compiled.blocks.items():
        assert block.name == name
        assert block.cost == len(function.block(name).instructions) + 1
        assert block.steps and all(callable(step) for step in block.steps)
        compile(block.source, "<test>", "exec")  # the kept text is valid


def assert_twins_share_code(first, second):
    assert set(first.blocks) == set(second.blocks)
    for name, block in first.blocks.items():
        twin = second.blocks[name]
        assert block.source == twin.source
        for step, other in zip(block.steps, twin.steps, strict=True):
            assert step is not other
            assert step.__code__ is other.__code__
            assert step.__globals__ is not other.__globals__


def test_equal_source_text_shares_one_code_object():
    # Two compilations of one program are distinct Function objects with
    # distinct VRegs, yet every step of theirs has the same text.
    compiled = []
    for _ in range(2):
        module = compile_module(STANDARD_PPS)
        state = MachineState(module)
        count = standard_setup(state, 3)
        run_worker(module, state, count=count)
        compiled.append(compile_function(module.pps("worker")))
    assert_twins_share_code(*compiled)


def test_realized_stages_share_code_objects_too():
    # Regions, exit write-backs and fused pipe heads included: two
    # realizations of one partition generate the same text stage by stage.
    pipelines = []
    for _ in range(2):
        module = compile_module(STANDARD_PPS)
        stages = pipeline_pps(module, "worker", 3).stages
        state = MachineState(module)
        run_pipeline(stages, state, iterations=standard_setup(state, 6))
        pipelines.append([compile_function(stage.function)
                          for stage in stages])
    for first, second in zip(*pipelines, strict=True):
        assert any(len(block.region) > 1 for block in first.blocks.values())
        assert_twins_share_code(first, second)
    # ... and each function is named after its block.
    for name, block in pipelines[0][1].blocks.items():
        assert {step.__name__ for step in block.steps} <= {f"at_{name}",
                                                           "step"}


def test_generated_text_does_not_depend_on_the_hash_seed():
    # The sequential PPS and the four stages at D = 4: fused pipe heads
    # and exit write-backs are derived from sets and must come out sorted.
    script = (
        "import hashlib\n"
        "from repro.apps.suite import build_app\n"
        "from repro.pipeline.transform import pipeline_pps\n"
        "from repro.runtime.compile import compile_function\n"
        "app = build_app('ipv4', packets=4)\n"
        "functions = [app.module.pps(app.pps_name)] + [\n"
        "    stage.function for stage in\n"
        "    pipeline_pps(app.module, app.pps_name, 4).stages]\n"
        "assert len(functions) == 5\n"
        "text = ''.join(compile_function(function).blocks[name].source\n"
        "               for function in functions\n"
        "               for name in function.block_order)\n"
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


def test_executed_function_dies_with_its_module():
    # The lazily generating program must not hold its Function strongly,
    # or the weak-keyed compilation cache never lets a module die.
    module = compile_module(STANDARD_PPS)
    state = MachineState(module)
    count = standard_setup(state, 3)
    interp = run_worker(module, state, count=count)
    assert compile_function(module.pps("worker")).blocks
    function = weakref.ref(module.pps("worker"))
    del module, state, interp
    gc.collect()
    assert function() is None


# -- generated arithmetic ----------------------------------------------------

#: Edge operands: the range ends, the sign change, and shift counts
#: around the 5-bit mask.
OPERANDS = (INT_MIN, INT_MIN + 1, -1, 0, 1, 31, 32, 33, INT_MAX)


class OneBlock:
    """A one-block function under construction: operands enter as
    constants or through registers assigned in the block itself, and
    each result leaves through ``trace`` — a destination is dead at the
    ``Return``, so it never reaches ``interp.regs``."""

    def __init__(self):
        self.function = Function("f")
        self.block = self.function.new_block("entry")
        self.expected = []

    def operand(self, value, as_const):
        if as_const:
            return Const(value)
        reg = self.function.new_reg()
        self.block.append(Assign(reg, Const(value)))
        return reg

    def expect(self, make, value):
        dest = self.function.new_reg()
        self.block.append(make(dest))
        self.block.append(Call(None, "trace", [Const(0), dest]))
        self.expected.append(value)

    def check(self):
        self.block.set_terminator(Return())
        state = MachineState(Module())
        interp = Interpreter(self.function, state)
        for _ in interp.run():
            pass
        assert interp.finished
        assert len(compile_function(self.function).blocks["entry0"].steps) == 1
        assert state.traces.get(0, []) == self.expected


def binary_case(case, op, lhs, rhs, lhs_const, rhs_const):
    left = case.operand(lhs, lhs_const)
    right = case.operand(rhs, rhs_const)
    case.expect(lambda dest: BinOp(dest, op, left, right),
                eval_binary(op, lhs, rhs))


@pytest.mark.parametrize("rhs_const", [False, True])
@pytest.mark.parametrize("lhs_const", [False, True])
@pytest.mark.parametrize("op", sorted(BINARY_OPS))
def test_generated_binary_ops_match_eval_binary(op, lhs_const, rhs_const):
    case = OneBlock()
    for lhs in OPERANDS:
        for rhs in OPERANDS:
            if not (op in "/%" and rhs == 0):  # traps: see the differential
                binary_case(case, op, lhs, rhs, lhs_const, rhs_const)
    case.check()


@pytest.mark.parametrize("as_const", [False, True])
@pytest.mark.parametrize("op", sorted(UNARY_OPS))
def test_generated_unary_ops_match_eval_unary(op, as_const):
    case = OneBlock()
    for value in OPERANDS:
        operand = case.operand(value, as_const)
        case.expect(lambda dest, operand=operand: UnOp(dest, op, operand),
                    eval_unary(op, value))
    case.check()


words = st.integers(INT_MIN, INT_MAX)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(BINARY_OPS)), words, words,
                          st.booleans(), st.booleans()),
                min_size=1, max_size=12))
def test_generated_binary_ops_property(cases):
    case = OneBlock()
    for op, lhs, rhs, lhs_const, rhs_const in cases:
        if not (op in "/%" and rhs == 0):
            binary_case(case, op, lhs, rhs, lhs_const, rhs_const)
    case.check()


# -- wait keys ---------------------------------------------------------------


def test_blocked_interpreter_publishes_wait_key():
    module = compile_module(STANDARD_PPS)
    state = MachineState(module)
    state.load_region("tbl", [0] * 64)
    function = module.pps("worker")
    from repro.analysis.cfg import find_pps_loop

    loop = find_pps_loop(function)
    interp = Interpreter(function, state, loop_start=loop.header)
    generator = interp.run()
    next(generator)  # runs to the first voluntary loop-start yield
    next(generator)  # in_q is empty: must block on it
    assert interp.wait_key == ("recv", "in_q")
    state.feed_pipe("in_q", [5])
    next(generator)  # consumes, iterates, parks back at loop start
    assert interp.wait_key is None
    assert interp.stats.iterations == 2


def test_wake_hub_parks_and_notifies():
    hub = WakeHub()
    woken = []
    hub.attach(woken.append)
    hub.park(("recv", "p"), "a")
    hub.park(("recv", "p"), "b")
    hub.park(("send", "q"), "c")
    hub.notify(("recv", "p"))
    assert woken == ["a", "b"]
    hub.notify(("recv", "p"))  # nobody left on that key
    assert woken == ["a", "b"]
    hub.detach()
    hub.notify(("send", "q"))  # dropped: no scheduler attached
    assert woken == ["a", "b"]


def test_pipe_operations_notify_hub():
    module = compile_module(STANDARD_PPS)
    state = MachineState(module, pipe_capacity=1)
    events = []
    state.wake_hub.attach(events.append)
    state.wake_hub.park(("recv", "in_q"), "reader")
    state.pipe("in_q").send(7)
    assert events == ["reader"]
    state.wake_hub.park(("send", "in_q"), "writer")
    state.pipe("in_q").recv()
    assert events == ["reader", "writer"]
    state.wake_hub.detach()


# -- scheduling --------------------------------------------------------------


def test_event_scheduler_matches_polling_outcome():
    module = compile_module(STANDARD_PPS)

    def outcome(run_group):
        state = MachineState(module)
        count = standard_setup(state, 20)
        interp = run_worker(module, state, count=count, run_group=run_group)
        return interp.stats.weight, dict(state.traces)

    assert outcome(run_group) == outcome(reference.run_group)


def test_event_scheduler_quiesces_on_starved_pipe():
    module = compile_module(STANDARD_PPS)
    state = MachineState(module)
    state.load_region("tbl", [0] * 64)
    state.feed_pipe("in_q", [1, 2])
    # No iteration bound: the run must end when in_q starves, not hang.
    interp = run_worker(module, state, count=None)
    assert interp.stats.iterations == 3  # two packets + the starved pass
    assert len(state.pipe("out_q").queue) == 2


def test_producer_consumer_over_bounded_pipe():
    module = compile_module("""
        pipe in_q;
        pipe mid;
        pipe done;
        pps producer { for (;;) { int v = pipe_recv(in_q);
                                  pipe_send(mid, v * 2); } }
        pps consumer { for (;;) { int v = pipe_recv(mid);
                                  pipe_send(done, v + 1); } }
    """)
    from repro.analysis.cfg import find_pps_loop

    state = MachineState(module)
    state.pipe("mid").capacity = 1  # backpressure on the stage pipe only
    values = list(range(10))
    state.feed_pipe("in_q", values)
    interps = {}
    for name in ("producer", "consumer"):
        function = module.pps(name)
        loop = find_pps_loop(function)
        interps[name] = Interpreter(function, state, loop_start=loop.header)
    run_group(interps)
    assert list(state.pipe("done").queue) == [v * 2 + 1 for v in values]


# -- satellite: hot dataclasses carry no __dict__ ----------------------------


def test_hot_objects_use_slots():
    from repro.ir.values import ArrayRef, Const, PipeRef, RegionRef, VReg
    from repro.runtime.interp import InterpStats

    for obj in (InterpStats(), VReg("v"), Const(1), RegionRef("r"),
                PipeRef("p"), ArrayRef("a", 4)):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
