"""The per-packet store: buffers, metadata, and handles.

Handles are monotonically increasing integers (never reused), so the
observable behaviour of a run does not depend on deallocation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TrapError
from repro.ir.types import wrap32


class PacketError(TrapError):
    """A packet-intrinsic misuse trapped at runtime (a
    :class:`~repro.errors.TrapError`, so trap isolation can quarantine
    the offending packet)."""


@dataclass
class Packet:
    """One packet buffer plus its metadata words."""

    handle: int
    data: bytearray
    meta: dict[int, int] = field(default_factory=dict)
    freed: bool = False


class PacketStore:
    """All packets alive in one machine state."""

    def __init__(self):
        self._packets: dict[int, Packet] = {}
        self._next_handle = 1

    def alloc(self, length: int) -> int:
        if length < 0 or length > 1 << 20:
            raise PacketError(f"pkt_alloc: bad length {length}")
        handle = self._next_handle
        self._next_handle += 1
        self._packets[handle] = Packet(handle, bytearray(length))
        return handle

    def adopt(self, data: bytes, meta: dict[int, int] | None = None) -> int:
        """Host-side injection of a pre-built packet (for traffic feeds)."""
        handle = self.alloc(len(data))
        packet = self._packets[handle]
        packet.data[:] = data
        if meta:
            packet.meta.update(meta)
        return handle

    def free(self, handle: int) -> None:
        packet = self._get(handle)
        packet.freed = True

    def _get(self, handle: int) -> Packet:
        packet = self._packets.get(handle)
        if packet is None:
            raise PacketError(f"unknown packet handle {handle}")
        if packet.freed:
            raise PacketError(f"use after free of packet {handle}")
        return packet

    def get(self, handle: int) -> Packet:
        """Host-side access (also used by the equivalence checker)."""
        return self._get(handle)

    def length(self, handle: int) -> int:
        return len(self._get(handle).data)

    # Each accessor looks the handle up once and checks the whole access
    # once; one not wholly inside a live packet goes on through ``_get``
    # and byte by byte, which names the failure (and leaves the bytes a
    # multi-byte store wrote before it).

    def load(self, handle: int, offset: int) -> int:
        packet = self._packets.get(handle)
        if packet and not packet.freed and 0 <= offset < len(packet.data):
            return packet.data[offset]
        data = self._get(handle).data
        raise PacketError(f"pkt_load: offset {offset} out of bounds "
                          f"(length {len(data)})")

    def store(self, handle: int, offset: int, value: int) -> None:
        packet = self._packets.get(handle)
        if packet and not packet.freed and 0 <= offset < len(packet.data):
            packet.data[offset] = value & 0xFF
            return
        data = self._get(handle).data
        raise PacketError(f"pkt_store: offset {offset} out of bounds "
                          f"(length {len(data)})")

    def load_u16(self, handle: int, offset: int) -> int:
        packet = self._packets.get(handle)
        if packet and not packet.freed and 0 <= offset < len(packet.data) - 1:
            return packet.data[offset] << 8 | packet.data[offset + 1]
        return (self.load(handle, offset) << 8) | self.load(handle, offset + 1)

    def store_u16(self, handle: int, offset: int, value: int) -> None:
        packet = self._packets.get(handle)
        if packet and not packet.freed and 0 <= offset < len(packet.data) - 1:
            packet.data[offset:offset + 2] = value >> 8 & 0xFF, value & 0xFF
            return
        self.store(handle, offset, (value >> 8) & 0xFF)
        self.store(handle, offset + 1, value & 0xFF)

    def load_u32(self, handle: int, offset: int) -> int:
        packet = self._packets.get(handle)
        if packet and not packet.freed and 0 <= offset < len(packet.data) - 3:
            word = int.from_bytes(packet.data[offset:offset + 4], "big")
            return wrap32(word)
        return wrap32((self.load_u16(handle, offset) << 16)
                      | self.load_u16(handle, offset + 2))

    def store_u32(self, handle: int, offset: int, value: int) -> None:
        packet = self._packets.get(handle)
        if packet and not packet.freed and 0 <= offset < len(packet.data) - 3:
            packet.data[offset:offset + 4] = (value & 0xFFFFFFFF).to_bytes(
                4, "big")
            return
        self.store_u16(handle, offset, (value >> 16) & 0xFFFF)
        self.store_u16(handle, offset + 2, value & 0xFFFF)

    def meta_get(self, handle: int, key: int) -> int:
        return self._get(handle).meta.get(key, 0)

    def meta_set(self, handle: int, key: int, value: int) -> None:
        self._get(handle).meta[key] = wrap32(value)
