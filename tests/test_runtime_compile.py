"""Unit tests for the threaded-code interpreter and ready-deque scheduler.

The differential suite (``test_runtime_compiled_differential.py``) proves
the execution core agrees with the reference oracle on random programs;
these tests pin the mechanisms themselves: compilation caching, the
wait-key protocol, and the wake hub.
"""

from repro.runtime import (
    Interpreter,
    MachineState,
    WakeHub,
    compile_function,
    run_group,
)
from repro.runtime.compile import clear_cache, invalidate
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


# -- compilation cache -------------------------------------------------------


def test_compile_function_is_cached():
    module = compile_module(STANDARD_PPS)
    function = module.pps("worker")
    first = compile_function(function)
    assert compile_function(function) is first
    invalidate(function)
    assert compile_function(function) is not first


def test_clear_cache():
    module = compile_module(STANDARD_PPS)
    function = module.pps("worker")
    first = compile_function(function)
    clear_cache()
    assert compile_function(function) is not first


def test_compiled_blocks_expose_per_instruction_ops():
    module = compile_module(STANDARD_PPS)
    function = module.pps("worker")
    compiled = compile_function(function)
    assert compiled.entry == function.entry
    for name, block in compiled.blocks.items():
        source = function.block(name)
        assert len(block.ops) == len(source.instructions)
        assert all(callable(op) for op in block.ops)
        assert callable(block.term)
    assert "in_q" in compiled.pipe_names
    assert "out_q" in compiled.pipe_names


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
