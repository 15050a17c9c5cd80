"""The shared machine state one or more interpreters execute against."""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import TrapError
from repro.ir.function import Module
from repro.ir.types import wrap32
from repro.runtime.devices import DeviceModel
from repro.runtime.packets import PacketStore


class WakeHub:
    """Wait/wake sets for the event-driven scheduler.

    A blocked interpreter *parks* on the key of the resource it is waiting
    for — ``("recv", pipe)`` for an empty pipe, ``("send", pipe)`` for a
    full bounded pipe, ``("rbuf", port)`` for an idle device port,
    ``("seq", resource)`` for a replication sequencer.  The resource's
    state-changing operation *notifies* the key, which hands every parked
    token back to the scheduler's ready queue.  With no scheduler attached
    (sequential host-side use) notifications are dropped — nobody can be
    parked.

    ``parks`` / ``notifies`` / ``wakes`` tally the hub's activity for the
    runtime profile (``repro run --profile``, ``repro trace``); they only
    tick on blocking events, never on the per-instruction path.
    """

    __slots__ = ("_waiters", "_on_wake", "parks", "notifies", "wakes",
                 "stranded")

    def __init__(self):
        self._waiters: dict[tuple, list] = {}
        self._on_wake = None
        self.parks = 0
        self.notifies = 0
        self.wakes = 0
        self.stranded = 0

    def attach(self, on_wake) -> None:
        """Install the scheduler's wake callback (token -> None)."""
        self._on_wake = on_wake

    def detach(self) -> dict[tuple, list]:
        """Drop the wake callback and *drain* every parked token.

        The drained ``key -> [token, ...]`` mapping is returned so the
        tearing-down scheduler can reconcile it against its own parked
        set — a token the hub held that the scheduler did not know about
        is a lost-wakeup bug, previously discarded invisibly.  ``stranded``
        tallies every token ever drained this way (normal quiescence does
        strand the end-of-stream waiters; the counter makes that visible
        in the runtime report instead of silent).
        """
        drained = self._waiters
        self._waiters = {}
        self._on_wake = None
        self.stranded += sum(len(tokens) for tokens in drained.values())
        return drained

    def parked(self) -> dict[tuple, tuple]:
        """Snapshot of the current wait sets (key -> tokens), for the
        watchdog's deadlock inventory."""
        return {key: tuple(tokens) for key, tokens in self._waiters.items()}

    def park(self, key: tuple, token) -> None:
        """Record ``token`` as waiting for ``key`` to be notified."""
        self.parks += 1
        self._waiters.setdefault(key, []).append(token)

    def notify(self, key: tuple) -> None:
        """Wake every token parked on ``key``."""
        if not self._waiters:
            return
        self.notifies += 1
        tokens = self._waiters.pop(key, None)
        if tokens and self._on_wake is not None:
            self.wakes += len(tokens)
            for token in tokens:
                self._on_wake(token)


@dataclass
class Pipe:
    """A bounded FIFO of messages (words or word tuples).

    ``send``/``recv`` notify the machine's :class:`WakeHub` so interpreters
    parked on the pipe resume exactly when it becomes ready — only while
    the hub holds a waiter, with the pipe's two wait keys built once.

    ``sent`` / ``received`` / ``high_water`` (the depth high-water mark)
    feed the runtime profile; they tick per *message*, which is orders of
    magnitude rarer than per instruction, so the counters stay on
    unconditionally.
    """

    name: str
    capacity: int = 0  # 0 = unbounded
    queue: deque = field(default_factory=deque)
    hub: WakeHub | None = None
    sent: int = 0
    received: int = 0
    high_water: int = 0

    def __post_init__(self):
        self.wait_keys = ("recv", self.name), ("send", self.name)

    def can_send(self) -> bool:
        return self.capacity <= 0 or len(self.queue) < self.capacity

    def send(self, message) -> None:
        queue = self.queue
        queue.append(message)
        self.sent += 1
        if len(queue) > self.high_water:
            self.high_water = len(queue)
        hub = self.hub
        if hub is not None and hub._waiters:
            hub.notify(self.wait_keys[0])

    def can_recv(self) -> bool:
        return bool(self.queue)

    def recv(self):
        message = self.queue.popleft()
        self.received += 1
        hub = self.hub
        if self.capacity > 0 and hub is not None and hub._waiters:
            hub.notify(self.wait_keys[1])
        return message


class MachineState:
    """Shared memories, pipes, packet store, devices, and trace buffers."""

    def __init__(self, module: Module):
        self.module = module
        self.wake_hub = WakeHub()
        self.regions: dict[str, list[int] | tuple[int, ...]] = {
            name: [0] * region.size for name, region in module.regions.items()
        }
        self._region_readonly = {name: region.readonly
                                 for name, region in module.regions.items()}
        self.pipes: dict[str, Pipe] = {}
        for name in module.pipes:
            self.pipes[name] = Pipe(name, hub=self.wake_hub)
        self.packets = PacketStore()
        self.devices = DeviceModel(hub=self.wake_hub)
        self.traces: dict[int, list[int]] = {}
        # Per-resource global iteration sequencers (PPS replication).
        self.sequencers: dict = {}
        # Chaos hooks: ``faults`` is the armed FaultInjector (None on the
        # fault-free path — nothing below ever checks it per instruction),
        # ``dead_letters`` collects quarantined-packet records when the
        # scheduler runs with trap isolation.
        self.faults = None
        self.dead_letters: list = []

    def pipe(self, name: str) -> Pipe:
        pipe = self.pipes.get(name)
        if pipe is None:
            pipe = Pipe(name, hub=self.wake_hub)
            if self.faults is not None:
                # Late-created pipes (the realized stages' .xfer rings)
                # take an armed fault plan's bound too.  This check runs
                # once per pipe *creation*, never on the send/recv path.
                self.faults.bound(pipe)
            self.pipes[name] = pipe
        return pipe

    def advance_sequencer(self, resource, value: int) -> None:
        """Set a replication sequencer and wake interpreters parked on it."""
        self.sequencers[resource] = value
        self.wake_hub.notify(("seq", resource))

    def region(self, name: str) -> list[int] | tuple[int, ...]:
        region = self.regions.get(name)
        if region is None:
            raise TrapError(f"unknown memory region {name!r}")
        return region

    def region_write(self, name: str, addr: int, value: int) -> None:
        if self._region_readonly.get(name):
            raise TrapError(f"write to readonly region {name!r}")
        region = self.region(name)
        if not 0 <= addr < len(region):
            raise TrapError(f"{name}[{addr}] out of bounds "
                                f"({len(region)} words)")
        region[addr] = value

    def region_read(self, name: str, addr: int) -> int:
        region = self.region(name)
        if not 0 <= addr < len(region):
            raise TrapError(f"{name}[{addr}] out of bounds "
                                f"({len(region)} words)")
        return region[addr]

    def trace(self, tag: int, value: int) -> None:
        self.traces.setdefault(tag, []).append(value)

    # -- host-side helpers -----------------------------------------------------

    def load_region(self, name: str,
                    values: dict[int, int] | Sequence[int]) -> None:
        """Populate a region before a run (route tables etc.); readonly
        regions may only be written through this host-side call.  A tuple
        that fills a readonly region exactly is adopted by reference — no
        guest can write it (``region_write`` traps first), so a shared
        table costs nothing per load.  Every other load copies the values
        in, after giving a region that holds an adopted tuple a private
        list."""
        region = self.region(name)
        if (isinstance(values, tuple) and len(values) == len(region)
                and self._region_readonly.get(name)):
            self.regions[name] = values
            return
        if isinstance(region, tuple):
            region = self.regions[name] = list(region)
        if isinstance(values, dict):
            for addr, value in values.items():
                region[addr] = value
        else:
            region[: len(values)] = values

    def feed_pipe(self, name: str, messages) -> None:
        """Queue host messages on ``name``, each word (and each word of a
        tuple) wrapped to 32 bits: whatever a pipe holds is a word, so
        no receive tests one."""
        pipe = self.pipe(name)
        for message in messages:
            pipe.send(tuple(map(wrap32, message))
                      if isinstance(message, tuple) else wrap32(message))
