"""Trap parity of the packet, rbuf, metadata and region accessors.

Generated code reads and writes a live packet, rbuf element or region
frame itself and calls the machine state's method only when the access
is not wholly inside one.  Each case below runs one iteration of a PPS
that makes one access, through the generated-code core and through the
reference oracle of :mod:`repro.testing.reference`, and needs the same
outcome from both: the value traced, or the same :class:`TrapError`
class and message, the same packet bytes and metadata (a multi-byte
store that traps leaves the bytes it wrote before the failing one) and
the same statistics.  Generated code charges a run of non-blocking
instructions before its first one executes, the oracle each instruction
before it executes, so after a trap the generated core has also counted
the rest of the trapping run, and nothing else.  Under trap isolation
the generated core then quarantines that iteration with exactly the
trap the oracle raised.

The random programs of ``test_runtime_compiled_differential.py`` never
touch a freed or unknown handle, so these cases are pinned here.
"""

import pytest

from repro.errors import TrapError
from repro.ir.instructions import Call, PipeIn, PipeOut
from repro.runtime import MachineState, run_group
from repro.runtime.scheduler import sequential_interpreter
from repro.testing import reference

from helpers import compile_module
from test_runtime_compiled_differential import SEMANTIC_FIELDS

#: Bytes in the live packet, the rbuf element and the region.
LENGTH = {"pkt": 8, "rbuf": 10, "mem": 8}
LIVE, FREED, UNKNOWN = 1, 2, 99  # packet handles (FREED is freed first)
VALUE = "0x89ABCDEF"  # crosses the sign bit

#: accessor -> (what it reaches, bytes it touches, whether it stores).
ACCESSORS = {
    "pkt_load": ("pkt", 1, False),
    "pkt_load_u16": ("pkt", 2, False),
    "pkt_load_u32": ("pkt", 4, False),
    "pkt_store": ("pkt", 1, True),
    "pkt_store_u16": ("pkt", 2, True),
    "pkt_store_u32": ("pkt", 4, True),
    "pkt_meta_get": ("pkt", 0, False),
    "pkt_meta_set": ("pkt", 0, True),
    "rbuf_load": ("rbuf", 1, False),
    "mem_read": ("mem", 1, False),
}


def offsets(kind, width):
    """In bounds at both ends, -1, the length and (u16/u32) straddling
    the end; a metadata key that is set and one that is not."""
    if width == 0:
        return {"key set": 3, "key unset": 5}
    length = LENGTH[kind]
    cases = {"first": 0, "last": length - width, "-1": -1,
             "length": length}
    if width > 1:
        cases["straddle"] = length - width + 1
    return cases


def cases():
    for accessor, (kind, width, _) in ACCESSORS.items():
        targets = ["live", "unknown"] + (["freed"] if kind != "mem" else [])
        for target in targets:
            spots = (offsets(kind, width) if target == "live"
                     else {"first": 0 if width else 3})
            for spot, offset in spots.items():
                for form in ("reg", "const"):
                    yield pytest.param(
                        accessor, target, offset, form,
                        id=f"{accessor}-{target}-{spot}-{form}")


def source(accessor, target, offset, form):
    kind, _, stores = ACCESSORS[accessor]
    at = "o" if form == "reg" else str(offset)
    value = f"o ^ {VALUE}" if form == "reg" else VALUE
    if kind == "pkt":
        args = f"h, {at}"
    elif kind == "rbuf":
        args = f"e, {at}"
    else:
        args = f"m, {at}"
    access = (f"{accessor}({args}, {value}); trace(1, 0);" if stores
              else f"trace(1, {accessor}({args}));")
    fetch = ""
    if kind == "rbuf" and target != "unknown":
        fetch = "e = rbuf_next(0);"
        if target == "freed":
            fetch += " rbuf_free(e);"
    return (f"pipe q; memory m[{LENGTH['mem']}]; pps p {{ for (;;) {{ "
            f"int h = pipe_recv(q); int o = pipe_recv(q); int e = h; "
            f"{fetch} {access} }} }}")


def fresh(module, accessor, target, offset):
    state = MachineState(module)
    state.packets.adopt(bytes(range(0x7C, 0x7C + LENGTH["pkt"])),
                        meta={3: 7})
    state.packets.free(state.packets.adopt(b"\x01\x02"))
    state.devices.feed_packet(0, bytes(range(0x70, 0x70 + LENGTH["rbuf"])))
    state.load_region("m", [word * 11 - 40 for word in range(LENGTH["mem"])])
    if ACCESSORS[accessor][0] == "mem" and target == "unknown":
        del state.regions["m"]
    handle = {"live": LIVE, "freed": FREED, "unknown": UNKNOWN}[target]
    state.feed_pipe("q", [handle, offset])
    return state


def packets(state):
    """Every packet's bytes, metadata and liveness."""
    return {handle: (bytes(packet.data), sorted(packet.meta.items()),
                     packet.freed)
            for handle, packet in state.packets._packets.items()}


def rest_of_run(function, accessor):
    """Instructions and weight behind the access in its run: up to the
    next blocking instruction, or the rest of the block and its
    terminator."""
    for block in function.blocks.values():
        calls = [index for index, inst in enumerate(block.instructions)
                 if isinstance(inst, Call) and inst.callee == accessor]
        if calls:
            rest = []
            for inst in block.instructions[calls[0] + 1:]:
                if isinstance(inst, (PipeIn, PipeOut)) or (
                        isinstance(inst, Call) and inst.callee
                        in ("pipe_recv", "pipe_send", "rbuf_next")):
                    break
                rest.append(inst)
            else:
                rest.append(block.terminator)
            return len(rest), sum(inst.weight() for inst in rest)
    raise AssertionError(f"no {accessor} in {function.name}")


def outcome(run, interp, **kwargs):
    try:
        run({"p": interp}, **kwargs)
    except TrapError as exc:
        trap = type(exc), str(exc)
    else:
        trap = None
    state = interp.state
    return (trap, packets(state), dict(state.traces),
            {field: getattr(interp.stats, field)
             for field in SEMANTIC_FIELDS})


@pytest.mark.parametrize("accessor, target, offset, form", cases())
def test_accessor_traps_like_the_reference(accessor, target, offset, form):
    module = compile_module(source(accessor, target, offset, form))
    function = module.pps("p")

    def interp():
        state = fresh(module, accessor, target, offset)
        return sequential_interpreter(function, state, 1)

    compiled = outcome(run_group, interp())
    expected = outcome(reference.run_group, interp())
    trap = compiled[0]
    if trap is not None:
        instructions, weight = rest_of_run(function, accessor)
        expected[3]["instructions"] += instructions
        expected[3]["weight"] += weight
    assert compiled == expected
    kind, width, _ = ACCESSORS[accessor]
    inside = target == "live" and (
        width == 0 or 0 <= offset <= LENGTH[kind] - width)
    assert (trap is None) == inside
    # Trap isolation quarantines the iteration the oracle trapped in,
    # with the same trap, and leaves the same packets behind.
    isolated = interp()
    run_group({"p": isolated}, isolate_traps=True)
    letters = [(letter.iteration, letter.instructions, letter.cause,
                letter.detail) for letter in isolated.state.dead_letters]
    expected = [] if trap is None else [
        (1, compiled[3]["instructions"], trap[0].__name__, trap[1])]
    assert letters == expected
    assert packets(isolated.state) == compiled[1]
