"""Word edges and handle views of the generated step, against the oracle.

Generated code keeps a register a wrapped 32-bit word without wrapping
every value: ``+ - * <<``, unary ``-``, a method's result, what an rbuf
delivers, a region word, a ``u32`` packet load and a metadata word are
written plainly and wrapped only when a range test finds them outside
``[-2**31, 2**31)``; ``hash32`` is always wrapped.  Host calls —
``load_region``, ``adopt(meta=...)`` — may hand in words that were never
wrapped, so the test stays on those too.  What a pipe delivers is
written with no test at all: ``feed_pipe`` wraps a host's words where
they enter the pipe, and a stage sends only registers.  And a step
looks a packet or rbuf element up once per path (its *view*: the
object, its bytes and their length), until the handle's register is
written or a method call that may free it runs; a join keeps a view
only if every path into it holds one.

Each case runs one program through the reference oracle of
:mod:`repro.testing.reference`, through the plain text, and through the
checked text under an armed budget that outlasts the run, and needs the
same traces (each program traces every value it computes), regions,
packets, pipes, every :class:`InterpStats` field and trap from all
three.  Generated code charges a run of non-blocking instructions
before its first one executes, the oracle each instruction before it
executes, so after a trap the generated core has also counted the rest
of the trapping run.  Under trap isolation the plain text quarantines
the iteration the oracle trapped in, with the same trap.
"""

import dataclasses

import pytest

from repro.errors import TrapError
from repro.ir.function import Module
from repro.ir.instructions import Jump, PipeIn
from repro.ir.values import PipeRef, VReg
from repro.runtime import Interpreter, MachineState, run_group
from repro.runtime import compile as codegen
from repro.runtime.compile import compile_function
from repro.runtime.interp import InterpStats
from repro.runtime.scheduler import sequential_interpreter
from repro.testing import reference

from helpers import compile_module
from test_runtime_regions import function_of, trace

INT_MAX, INT_MIN = 0x7FFFFFFF, -0x80000000

#: Every counter of :class:`InterpStats`, ``block_hits`` by block name.
FIELDS = [field.name for field in dataclasses.fields(InterpStats)
          if field.name not in ("block_names", "block_hits")] \
    + ["block_counts"]


def pps(body, decls="pipe q;"):
    return f"{decls} pps p {{ for (;;) {{ {body} }} }}"


def packets_of(*packets):
    """``setup`` adopting ``(bytes, meta)`` packets as handles 1, 2, ..."""
    def setup(state):
        for data, meta in packets:
            state.packets.adopt(data, meta=meta)
    return setup


def pipe_in_words():
    """``head`` takes a one-word and a three-word ``pipe_in`` (which only
    realized stages hold) and traces all four words."""
    a, b, c, d = words = [VReg(name) for name in "abcd"]
    return function_of({
        "entry": ([], Jump("head")),
        "head": ([PipeIn([a], PipeRef("q")), PipeIn([b, c, d], PipeRef("q")),
                  *(trace(tag, word) for tag, word in enumerate(words))],
                 Jump("head")),
    })


#: name -> (program: PPS-C source or a function builder, pipe ``q``'s
#: feed, setup(state), iterations).
WORDS = {
    # Every arithmetic site over the edges: INT_MAX + 1, INT_MIN - 1,
    # -INT_MIN, multiply and shift overflow, hash32; feed_pipe wraps the
    # host's unwrapped words (0xFFFFFFFF, 2**32 + 1, 2**40).
    "arithmetic": (
        pps("int a = pipe_recv(q); int b = pipe_recv(q); "
            "trace(1, a); trace(2, b); trace(3, a + b); trace(4, a - b); "
            "trace(5, a * b); trace(6, a << b); trace(7, -a); "
            "trace(8, hash32(a)); trace(9, a * 65536); trace(10, a + 1);"),
        [INT_MAX, 1, INT_MIN, 1, INT_MIN, -1, 0x10000, 0x10000,
         INT_MAX, 4, 1, 31, 0xFFFFFFFF, 0x80000000, (1 << 32) + 1, 1 << 40,
         -1, 0, 123456789, 1000],
        None, 10),
    # Region words a host loaded unwrapped, read and added to.
    "region words": (
        pps("int i = pipe_recv(q); int d = pipe_recv(q); "
            "trace(1, mem_read(m, i)); trace(2, mem_add(m, i, d)); "
            "trace(3, mem_read(m, i)); trace(4, mem_read(m, 1));",
            "pipe q; memory m[4];"),
        [0, 1, 1, 1, 2, -1, 3, 0, 0, INT_MAX],
        lambda state: state.load_region(
            "m", [0xFFFFFFFF, INT_MAX, 0x80000000, -0x80000001]),
        5),
    # u32 loads across the sign bit, metadata a host adopted unwrapped,
    # and a method's result (pkt_len).
    "packet words": (
        pps("int h = pipe_recv(q); int o = pipe_recv(q); "
            "trace(1, pkt_load_u32(h, o)); trace(2, pkt_meta_get(h, o)); "
            "trace(3, pkt_load_u32(h, 4)); trace(4, pkt_meta_get(h, 1)); "
            "trace(5, pkt_len(h) * INT);".replace("INT", str(INT_MAX))),
        [1, 0, 1, 1, 1, 2, 1, 3, 1, 8],
        packets_of((b"\xff\xff\xff\xff\x80\x00\x00\x00\x7f\xff\xff\xff",
                    {1: 0xFFFFFFFF, 2: 0x80000000, 3: -0x80000001})),
        5),
    # A pipe_in of one word and of three, fed unwrapped words (queued
    # wrapped).
    "pipe_in words": (
        pipe_in_words,
        [0xFFFFFFFF, (0x80000000, 1 << 35, INT_MAX), 1 << 40,
         (-0x80000001, 0xFFFFFFFF, (1 << 33) - 1)],
        None, 2),
}

#: The same, each ending in the trap a stale view would miss.
VIEWS = {
    # pkt_free between two loads of one packet, in one region.
    "free between loads": (
        pps("int h = pipe_recv(q); int x = pkt_load_u16(h, 0); "
            "trace(1, x); if (x == 770) { pkt_free(h); } "
            "trace(2, pkt_load(h, 2));"),
        [1, 2],
        packets_of((b"\x01\x02\x03\x04", {}), (b"\x03\x02\x01", {})),
        2),
    # The handle's register reassigned to a shorter packet: the offset
    # lies inside the first and outside the second.
    "handle reassigned": (
        pps("int h = pipe_recv(q); int g = pipe_recv(q); "
            "trace(1, pkt_load(h, 1)); h = g; trace(2, pkt_load(h, 4)); "
            "trace(3, pkt_meta_get(h, 5));"),
        [2, 1, 1, 2],
        packets_of((bytes(range(10, 18)), {5: 55}), (b"\x05\x06", {5: 66})),
        2),
    # A join where only one arm frees the packet.
    "join, one arm frees": (
        pps("int h = pipe_recv(q); int c = pipe_recv(q); "
            "int x = pkt_load(h, 0); if (c) { pkt_free(h); trace(9, 1); } "
            "else { trace(8, pkt_load(h, 1)); } "
            "trace(1, x); trace(2, pkt_load_u16(h, 1));"),
        [1, 0, 2, 0, 3, 1],
        packets_of((b"\x01\x02\x03", {}), (b"\x04\x05\x06", {}),
                   (b"\x07\x08\x09", {})),
        3),
    # rbuf_free between two rbuf_loads of one element.
    "rbuf_free between loads": (
        pps("int e = rbuf_next(0); int c = pipe_recv(q); "
            "trace(1, rbuf_load(e, 0)); if (c) { rbuf_free(e); } "
            "trace(2, rbuf_load(e, 1)); trace(3, rbuf_status(e));"),
        [0, 1],
        lambda state: [state.devices.feed_packet(0, bytes(range(5, 12)))
                       for _ in range(2)],
        2),
    # A constant handle: looked up at every access.
    "constant handle": (
        pps("int o = pipe_recv(q); trace(1, pkt_load(1, o)); "
            "trace(2, pkt_load_u16(1, o)); if (o == 2) { pkt_free(1); } "
            "trace(3, pkt_meta_get(1, 7)); trace(4, pkt_load(2, o));"),
        [0, 1, 2],
        packets_of((b"\x11\x22\x33\x44", {7: 0xFFFFFFFF}),
                   (b"\x55\x66\x77", {})),
        3),
}


def interpreter(case):
    """A fresh interpreter for ``case`` over a fresh program and state."""
    program, feed, setup, iterations = case
    if isinstance(program, str):
        module = compile_module(program)
        function = module.pps("p")
    else:
        module, function = Module(), program()
    state = MachineState(module)
    if setup is not None:
        setup(state)
    state.feed_pipe("q", feed)
    if isinstance(program, str):
        return sequential_interpreter(function, state, iterations)
    return Interpreter(function, state, loop_start="head",
                       max_iterations=iterations)


def observe(group, interp, **kwargs):
    """Run ``interp`` alone; all a run can be observed by."""
    try:
        group({"p": interp}, **kwargs)
    except TrapError as exc:
        trap = type(exc), str(exc)
    else:
        trap = None
    state = interp.state
    return dict(
        trap=trap, traces=dict(state.traces),
        regions={name: list(words) for name, words in state.regions.items()},
        packets={handle: (bytes(packet.data), sorted(packet.meta.items()),
                          packet.freed)
                 for handle, packet in state.packets._packets.items()},
        elements=sorted(state.devices._elements),
        pipes={name: list(pipe.queue) for name, pipe in state.pipes.items()},
        stats={name: getattr(interp.stats, name) for name in FIELDS})


def oracle(monkeypatch, case):
    """The reference's outcome, charged as generated code charges: after
    a trap, plus the rest of the trapping run."""
    executed = []
    execute = reference.ReferenceInterpreter._exec

    def recording(self, inst):
        executed.append(inst)
        return execute(self, inst)

    with monkeypatch.context() as patch:
        patch.setattr(reference.ReferenceInterpreter, "_exec", recording)
        interp = interpreter(case)
        expected = observe(reference.run_group, interp)
    if expected["trap"] is not None:
        inst = executed[-1]
        block = next(block for block in interp.function.blocks.values()
                     if any(inst is other for other in block.instructions))
        rest = []
        if not codegen._own_step(inst):
            index = [id(other) for other in block.instructions].index(id(inst))
            for other in block.instructions[index + 1:]:
                if codegen._own_step(other):
                    break
                rest.append(other)
            else:
                rest.append(block.terminator)
        expected["stats"]["instructions"] += len(rest)
        expected["stats"]["weight"] += sum(other.weight() for other in rest)
    return expected


def checked(monkeypatch, case):
    """The outcome of the checked text alone: every region's bound out of
    the limit's reach, and a trap armed past what the run takes."""
    generate = codegen._compile_block

    def always(*args, **kwargs):
        compiled = generate(*args, **kwargs)
        compiled.fuel_bound = 1 << 62
        return compiled

    with monkeypatch.context() as patch:
        patch.setattr(codegen, "_compile_block", always)
        interp = interpreter(case)
        interp.arm_injected_trap(1_000_000, "injected")
        outcome = observe(run_group, interp)
    blocks = compile_function(interp.function).blocks.values()
    assert all(block.checked is not None for block in blocks)
    return outcome


def check(monkeypatch, case):
    expected = oracle(monkeypatch, case)
    interp = interpreter(case)
    plain = observe(run_group, interp)
    blocks = compile_function(interp.function).blocks.values()
    assert all(block.checked is None for block in blocks)
    assert plain == expected
    assert checked(monkeypatch, case) == expected
    return expected, plain, interp


@pytest.mark.parametrize("name", WORDS)
def test_word_edges_match_the_reference(monkeypatch, name):
    expected, _, _ = check(monkeypatch, WORDS[name])
    assert expected["trap"] is None
    words = [word for values in expected["traces"].values()
             for word in values]
    assert words and all(INT_MIN <= word <= INT_MAX for word in words)


def test_feed_pipe_queues_words():
    """A host word is wrapped where it enters a pipe, alone or in a
    tuple, so no pipe receive tests one."""
    state = MachineState(Module())
    state.feed_pipe("q", [0xFFFFFFFF, 1 << 40,
                          (0x80000000, 1 << 35, -0x80000001)])
    assert list(state.pipe("q").queue) == [-1, 0, (INT_MIN, 0, INT_MAX)]


@pytest.mark.parametrize("name", VIEWS)
def test_a_stale_view_traps_like_the_reference(monkeypatch, name):
    expected, plain, interp = check(monkeypatch, VIEWS[name])
    assert expected["trap"] is not None
    assert expected["traces"]  # iterations before the trap ran
    # Trap isolation quarantines the iteration the oracle trapped in.
    isolated = interpreter(VIEWS[name])
    run_group({"p": isolated}, isolate_traps=True)
    letters = [(letter.iteration, letter.instructions, letter.last_block,
                letter.cause, letter.detail)
               for letter in isolated.state.dead_letters]
    assert letters == [(plain["stats"]["iterations"],
                        plain["stats"]["instructions"], interp.prev_block,
                        expected["trap"][0].__name__, expected["trap"][1])]


def test_a_view_is_bound_once_per_path():
    # Three accesses to one handle, no call between them: one lookup.
    module = compile_module(pps(
        "int h = pipe_recv(q); trace(1, pkt_load(h, 0)); "
        "trace(2, pkt_load_u16(h, 1)); trace(3, pkt_meta_get(h, 2));"))
    function = module.pps("p")
    blocks = compile_function(function).blocks
    source = "".join(blocks[name].source for name in function.block_order)
    assert source.count(":= pkt(") == 1
