"""Media-interface model: receive buffers (rbuf) and transmit buffers (tbuf).

The IXP media switch fabric delivers packets in fixed-size *mpackets*
(64 bytes on POS interfaces); the RX microblock reassembles them and the
TX microblock segments outgoing packets back into mpackets (paper §4
evaluates exactly these RX/TX PPSes).

``rbuf_status`` packs the mpacket descriptor into one word::

    bit 0      SOP (start of packet)
    bit 1      EOP (end of packet)
    bits 2-7   input port
    bits 8-19  payload length in bytes

Transmitted mpackets are committed with a status word of the same shape.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import TrapError

MPACKET_SIZE = 64

SOP_FLAG = 1
EOP_FLAG = 2
PORT_SHIFT = 2
PORT_MASK = 0x3F
LEN_SHIFT = 8
LEN_MASK = 0xFFF


def make_status(sop: bool, eop: bool, port: int, length: int) -> int:
    """Pack an mpacket descriptor word."""
    return ((SOP_FLAG if sop else 0)
            | (EOP_FLAG if eop else 0)
            | ((port & PORT_MASK) << PORT_SHIFT)
            | ((length & LEN_MASK) << LEN_SHIFT))


def status_sop(status: int) -> bool:
    return bool(status & SOP_FLAG)


def status_eop(status: int) -> bool:
    return bool(status & EOP_FLAG)


def status_port(status: int) -> int:
    return (status >> PORT_SHIFT) & PORT_MASK


def status_length(status: int) -> int:
    return (status >> LEN_SHIFT) & LEN_MASK


class DeviceError(TrapError):
    """A device-intrinsic misuse trapped at runtime.

    A :class:`~repro.errors.TrapError` subclass so per-packet trap
    isolation quarantines device misuse like any other trap.
    """


@dataclass
class Mpacket:
    """One fixed-size media cell."""

    element: int
    status: int
    data: bytearray


@dataclass
class TxRecord:
    """One committed outbound mpacket (the observable TX behaviour)."""

    port: int
    sop: bool
    eop: bool
    data: bytes


class DeviceModel:
    """Receive queues per port plus the transmit capture.

    ``hub`` is the machine's wake hub (see :class:`repro.runtime.state
    .WakeHub`): feeding a port notifies interpreters parked on its
    ``("rbuf", port)`` key, so a blocked RX PPS resumes without polling.
    """

    def __init__(self, hub=None):
        self.hub = hub
        self._rx_queues: dict[int, deque[Mpacket]] = {}
        self._elements: dict[int, Mpacket] = {}
        self._tx_pending: dict[int, bytearray] = {}
        self._next_element = 1
        self.tx_records: list[TxRecord] = []

    # -- host-side feeding -----------------------------------------------------

    def feed_packet(self, port: int, data: bytes) -> None:
        """Segment a packet into mpackets and enqueue them on ``port``."""
        queue = self._rx_queues.setdefault(port, deque())
        chunks = [data[i:i + MPACKET_SIZE] for i in range(0, len(data),
                                                          MPACKET_SIZE)]
        if not chunks:
            chunks = [b""]
        for index, chunk in enumerate(chunks):
            status = make_status(index == 0, index == len(chunks) - 1, port,
                                 len(chunk))
            element = self._next_element
            self._next_element += 1
            mpacket = Mpacket(element, status, bytearray(chunk))
            self._elements[element] = mpacket
            queue.append(mpacket)
        if self.hub is not None:
            self.hub.notify(("rbuf", port))

    def rx_available(self, port: int) -> bool:
        return bool(self._rx_queues.get(port))

    # -- rbuf intrinsics --------------------------------------------------------

    def rbuf_next(self, port: int) -> int | None:
        """Dequeue the next mpacket element; None when the port is idle."""
        queue = self._rx_queues.get(port)
        if not queue:
            return None
        return queue.popleft().element

    def rbuf_status(self, element: int) -> int:
        return self._element(element).status

    def rbuf_load(self, element: int, offset: int) -> int:
        mpacket = self._elements.get(element)
        if mpacket is None or not 0 <= offset < len(mpacket.data):
            self._element(element)  # an unknown element traps as that
            raise DeviceError(f"rbuf_load: offset {offset} out of bounds")
        return mpacket.data[offset]

    def rbuf_free(self, element: int) -> None:
        if element not in self._elements:
            raise DeviceError(f"rbuf_free: unknown element {element}")
        del self._elements[element]

    def _element(self, element: int) -> Mpacket:
        mpacket = self._elements.get(element)
        if mpacket is None:
            raise DeviceError(f"unknown rbuf element {element}")
        return mpacket

    # -- tbuf intrinsics ----------------------------------------------------------

    def tbuf_alloc(self, port: int) -> int:
        element = self._next_element
        self._next_element += 1
        self._tx_pending[element] = bytearray(MPACKET_SIZE)
        return element

    def tbuf_store(self, element: int, offset: int, value: int) -> None:
        buffer = self._tx_pending.get(element)
        if buffer is None:
            raise DeviceError(f"tbuf_store: unknown element {element}")
        if not 0 <= offset < MPACKET_SIZE:
            raise DeviceError(f"tbuf_store: offset {offset} out of bounds")
        buffer[offset] = value & 0xFF

    def tbuf_commit(self, element: int, status: int) -> None:
        buffer = self._tx_pending.pop(element, None)
        if buffer is None:
            raise DeviceError(f"tbuf_commit: unknown element {element}")
        length = status_length(status)
        self.tx_records.append(TxRecord(
            port=status_port(status),
            sop=status_sop(status),
            eop=status_eop(status),
            data=bytes(buffer[:length]),
        ))

    # -- observables ----------------------------------------------------------------

    def tx_by_port(self) -> dict[int, list[TxRecord]]:
        result: dict[int, list[TxRecord]] = {}
        for record in self.tx_records:
            result.setdefault(record.port, []).append(record)
        return result
