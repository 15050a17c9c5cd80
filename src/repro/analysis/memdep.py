"""Effect extraction: which non-register resources an instruction touches.

Every :class:`~repro.ir.instructions.Call` to an intrinsic, and every array
access, is summarized as one or more :class:`Access` records.  The
dependence-graph builder turns conflicting accesses into ordering edges:

* ``serial`` resources (pipes, devices, traces, read-write memory regions)
  behave like the paper's shared flow state: *all* accesses conflict, and
  the conflicts are PPS-loop-carried, so every access to one such resource
  must land in the same pipeline stage (the QM/Scheduler effect).
* local arrays live as long as the PPS, like read-write memory: a write
  conflicts with every other access of its array, across iterations, but
  two reads do not conflict.
* the remaining non-serial resources (packet store, rbuf/tbuf elements)
  order reads after writes *within* one iteration only.
* ``readonly`` memory regions produce no conflicts at all (route tables).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.ir.instructions import ArrayLoad, ArrayStore, Call, Instruction
from repro.ir.values import PipeRef, RegionRef
from repro.lang.intrinsics import Effect, get_intrinsic


@dataclass(frozen=True)
class Access:
    """One resource access.

    Attributes:
        resource: Hashable identity of the ordering domain.
        is_write: Writes conflict with everything; reads conflict with writes.
        serial: All accesses conflict regardless of read/write, and the
            conflict is PPS-loop-carried (must-colocate).
        loop_carried: Conflicts persist across loop iterations.
    """

    resource: Hashable
    is_write: bool
    serial: bool = False
    loop_carried: bool = False


def accesses_of(inst: Instruction) -> list[Access]:
    """Summarize the resource accesses of one instruction."""
    if isinstance(inst, (ArrayLoad, ArrayStore)):
        return [Access(("array", inst.array.name),
                       is_write=isinstance(inst, ArrayStore),
                       loop_carried=True)]
    if not isinstance(inst, Call) or not inst.is_intrinsic:
        return []
    intrinsic = get_intrinsic(inst.callee)
    effect = intrinsic.effect
    if effect is Effect.PURE:
        return []
    if effect in (Effect.PKT_READ, Effect.PKT_WRITE):
        if inst.callee == "pkt_alloc":
            # Handle assignment must stay in iteration order so pipelined
            # execution produces the same handle values as sequential
            # execution (handles flow into pipes and queues).
            return [Access(("pkt",), is_write=True),
                    Access(("pkt_alloc",), is_write=True, serial=True,
                           loop_carried=True)]
        return [Access(("pkt",), is_write=(effect is Effect.PKT_WRITE))]
    if effect in (Effect.MEM_READ, Effect.MEM_WRITE):
        region = inst.args[0]
        assert isinstance(region, RegionRef)
        if region.readonly:
            return []  # populated by the host before the pipeline runs
        # Read-write shared state: serialize everything, across iterations.
        return [Access(("mem", region.name),
                       is_write=(effect is Effect.MEM_WRITE),
                       serial=True, loop_carried=True)]
    if effect in (Effect.CHANNEL_IN, Effect.CHANNEL_OUT):
        pipe = inst.args[0]
        assert isinstance(pipe, PipeRef)
        return [Access(("pipe", pipe.name), is_write=True,
                       serial=True, loop_carried=True)]
    if effect is Effect.DEVICE_IN:
        if inst.callee == "rbuf_next":
            # Dequeue order from the media interface is the packet order.
            return [Access(("device_in",), is_write=True, serial=True,
                           loop_carried=True)]
        # Status/data reads (and the final free) of a held rbuf element do
        # not touch the device queue: they order like per-packet state.
        return [Access(("rbuf_elem",),
                       is_write=(inst.callee == "rbuf_free"))]
    if effect is Effect.DEVICE_OUT:
        if inst.callee == "tbuf_commit":
            # Commit order is wire order: strictly serialized.  The commit
            # also reads the element contents, so it must stay downstream
            # of every tbuf_store that filled the element.
            return [Access(("device_out",), is_write=True, serial=True,
                           loop_carried=True),
                    Access(("tbuf_elem",), is_write=False)]
        # Allocating and filling a tbuf element is per-packet work.
        return [Access(("tbuf_elem",), is_write=True)]
    if effect is Effect.TRACE:
        tag = inst.args[0]
        from repro.ir.values import Const

        key = tag.value if isinstance(tag, Const) else None
        return [Access(("trace", key), is_write=True, serial=True,
                       loop_carried=True)]
    raise AssertionError(f"unhandled effect {effect}")


def conflicts(a: Access, b: Access) -> bool:
    """True if two accesses to resources must stay ordered."""
    if a.resource != b.resource:
        return False
    if a.serial or b.serial:
        return True
    return a.is_write or b.is_write
