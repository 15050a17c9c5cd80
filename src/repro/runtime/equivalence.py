"""Observational equivalence of two runs (sequential vs pipelined).

The observable behaviour of a packet-processing run is:

* the committed TX mpackets per port (order-sensitive),
* the trace event sequence per tag,
* the final contents of every writable shared memory region,
* the residual messages in every *external* pipe (stage pipes created by
  the pipelining transformation are internal and excluded),
* the payload bytes and metadata of packets referenced by those residual
  messages.

The pipelining transformation is correct iff all of these match the
sequential run for every input.  This module is the backbone of the
integration test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.state import MachineState

#: Substring that marks internal stage pipes (see realize.stage_pipe_name).
_STAGE_PIPE_MARKER = ".xfer"


@dataclass
class Observation:
    """A comparable snapshot of a machine state's observables."""

    tx: list[tuple[int, bool, bool, bytes]] = field(default_factory=list)
    traces: dict[int, tuple[int, ...]] = field(default_factory=dict)
    regions: dict[str, tuple[int, ...]] = field(default_factory=dict)
    pipes: dict[str, tuple] = field(default_factory=dict)
    packets: dict[int, tuple[bytes, tuple]] = field(default_factory=dict)


def observe(state: MachineState) -> Observation:
    """Snapshot the observable behaviour of ``state``."""
    snapshot = Observation()
    snapshot.tx = [(rec.port, rec.sop, rec.eop, rec.data)
                   for rec in state.devices.tx_records]
    snapshot.traces = {tag: tuple(events)
                       for tag, events in state.traces.items() if events}
    for name, region in state.regions.items():
        if ".__state" in name:
            # Synthetic shared-state regions of the replication transform:
            # the sequential original keeps these values in registers.
            continue
        if not state.module.regions[name].readonly:
            snapshot.regions[name] = tuple(region)
    for name, pipe in state.pipes.items():
        if is_external(name):
            snapshot.pipes[name] = tuple(pipe.queue)
    snapshot.packets = packet_view(state, [
        message for messages in snapshot.pipes.values()
        for message in messages])
    return snapshot


def is_external(pipe: str) -> bool:
    """Whether ``pipe`` is the program's, not a realized stage ring."""
    return _STAGE_PIPE_MARKER not in pipe


def packet_view(state: MachineState, messages) -> dict[int, tuple]:
    """``handle -> (payload, sorted metadata)`` of each live packet that a
    word of ``messages`` (words or word tuples) names."""
    view = {}
    for message in messages:
        for word in message if isinstance(message, tuple) else (message,):
            packet = state.packets._packets.get(word)
            if packet is not None and not packet.freed:
                view[word] = (bytes(packet.data),
                              tuple(sorted(packet.meta.items())))
    return dict(sorted(view.items()))


@dataclass
class Mismatch:
    """One difference between two observations."""

    kind: str
    key: object
    expected: object
    actual: object

    def __str__(self) -> str:
        return (f"{self.kind}[{self.key}]: expected {self.expected!r}, "
                f"got {self.actual!r}")


def compare(expected: Observation, actual: Observation) -> list[Mismatch]:
    """All differences between two observations (empty list = equivalent)."""
    mismatches: list[Mismatch] = []
    if expected.tx != actual.tx:
        limit = max(len(expected.tx), len(actual.tx))
        for index in range(limit):
            want = expected.tx[index] if index < len(expected.tx) else None
            got = actual.tx[index] if index < len(actual.tx) else None
            if want != got:
                mismatches.append(Mismatch("tx", index, want, got))
    for kind, field, missing in (("trace", "traces", ()),
                                 ("region", "regions", None),
                                 ("pipe", "pipes", ()),
                                 ("packet", "packets", None)):
        wants, gots = getattr(expected, field), getattr(actual, field)
        for key in sorted(set(wants) | set(gots)):
            want, got = wants.get(key, missing), gots.get(key, missing)
            if want != got:
                mismatches.append(Mismatch(kind, key, want, got))
    return mismatches


def assert_equivalent(expected: Observation, actual: Observation) -> None:
    """Raise ``AssertionError`` with a readable digest on any mismatch."""
    mismatches = compare(expected, actual)
    if mismatches:
        digest = "\n".join(f"  {mismatch}" for mismatch in mismatches[:12])
        raise AssertionError(
            f"observations differ ({len(mismatches)} mismatches):\n{digest}"
        )
