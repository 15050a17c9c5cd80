"""Tests for the packet store and device model."""

import pytest

from repro.runtime.devices import (
    MPACKET_SIZE,
    DeviceError,
    DeviceModel,
    make_status,
    status_eop,
    status_length,
    status_port,
    status_sop,
)
from repro.runtime.packets import PacketError, PacketStore


# -- packets -----------------------------------------------------------------


def test_alloc_free_lifecycle():
    store = PacketStore()
    handle = store.alloc(64)
    assert store.length(handle) == 64
    store.free(handle)
    with pytest.raises(PacketError, match="use after free"):
        store.load(handle, 0)


def test_handles_never_reused():
    store = PacketStore()
    first = store.alloc(8)
    store.free(first)
    second = store.alloc(8)
    assert second != first


def test_byte_and_word_accessors_are_big_endian():
    store = PacketStore()
    handle = store.alloc(8)
    store.store_u16(handle, 0, 0x1234)
    assert store.load(handle, 0) == 0x12
    assert store.load(handle, 1) == 0x34
    store.store_u32(handle, 4, 0xDEADBEEF - (1 << 32))
    assert store.load_u16(handle, 4) == 0xDEAD
    assert store.load_u16(handle, 6) == 0xBEEF


def test_bounds_checked():
    store = PacketStore()
    handle = store.alloc(4)
    with pytest.raises(PacketError, match="out of bounds"):
        store.load(handle, 4)
    with pytest.raises(PacketError, match="out of bounds"):
        store.store(handle, -1, 0)


def test_metadata_defaults_to_zero():
    store = PacketStore()
    handle = store.alloc(4)
    assert store.meta_get(handle, 7) == 0
    store.meta_set(handle, 7, 99)
    assert store.meta_get(handle, 7) == 99


def test_adopt_injects_payload_and_meta():
    store = PacketStore()
    handle = store.adopt(b"\x01\x02\x03", meta={1: 3})
    assert store.length(handle) == 3
    assert store.load(handle, 2) == 3
    assert store.meta_get(handle, 1) == 3


def test_unknown_handle_rejected():
    store = PacketStore()
    with pytest.raises(PacketError, match="unknown packet handle"):
        store.load(12345, 0)


class PerByteStore(PacketStore):
    """Every accessor as a byte-at-a-time composition over ``_get``: what
    the single-lookup paths fall through to, and must be
    indistinguishable from."""

    def load(self, handle, offset):
        data = self._get(handle).data
        if not 0 <= offset < len(data):
            raise PacketError(f"pkt_load: offset {offset} out of bounds "
                              f"(length {len(data)})")
        return data[offset]

    def store(self, handle, offset, value):
        data = self._get(handle).data
        if not 0 <= offset < len(data):
            raise PacketError(f"pkt_store: offset {offset} out of bounds "
                              f"(length {len(data)})")
        data[offset] = value & 0xFF

    def load_u16(self, handle, offset):
        return (self.load(handle, offset) << 8) | self.load(handle, offset + 1)

    def store_u16(self, handle, offset, value):
        self.store(handle, offset, (value >> 8) & 0xFF)
        self.store(handle, offset + 1, value & 0xFF)

    def load_u32(self, handle, offset):
        word = ((self.load_u16(handle, offset) << 16)
                | self.load_u16(handle, offset + 2))
        return word - ((word & 0x80000000) << 1)

    def store_u32(self, handle, offset, value):
        self.store_u16(handle, offset, (value >> 16) & 0xFFFF)
        self.store_u16(handle, offset + 2, value & 0xFFFF)


@pytest.mark.parametrize("handle_state", ["live", "freed", "unknown"])
@pytest.mark.parametrize("accessor", ["load", "load_u16", "load_u32", "store",
                                      "store_u16", "store_u32"])
def test_accessors_match_the_per_byte_path(accessor, handle_state):
    # Value, trap class and text (naming the first failing byte), and the
    # bytes a failing multi-byte store wrote before it trapped.
    length = 6
    payload = bytes(range(0x7E, 0x7E + length))  # crosses the sign bit
    for offset in range(-1, length + 1):
        outcomes = []
        for store in (PacketStore(), PerByteStore()):
            handle = store.adopt(payload)
            buffer = store.get(handle).data
            if handle_state == "freed":
                store.free(handle)
            elif handle_state == "unknown":
                handle += 1
            args = (handle, offset) + ((0x89ABCDEF - (1 << 32),)
                                       if accessor.startswith("store") else ())
            try:
                result = getattr(store, accessor)(*args)
            except PacketError as exc:
                result = type(exc), str(exc)
            outcomes.append((result, bytes(buffer)))
        assert outcomes[0] == outcomes[1], (offset, outcomes)
        if handle_state != "live":
            assert outcomes[0][0][0] is PacketError


# -- devices -------------------------------------------------------------------


def test_status_word_roundtrip():
    status = make_status(True, False, port=5, length=48)
    assert status_sop(status)
    assert not status_eop(status)
    assert status_port(status) == 5
    assert status_length(status) == 48


def test_feed_packet_segments_into_mpackets():
    device = DeviceModel()
    device.feed_packet(0, bytes(range(100)))
    first = device.rbuf_next(0)
    second = device.rbuf_next(0)
    assert device.rbuf_next(0) is None
    status1 = device.rbuf_status(first)
    status2 = device.rbuf_status(second)
    assert status_sop(status1) and not status_eop(status1)
    assert status_length(status1) == MPACKET_SIZE
    assert not status_sop(status2) and status_eop(status2)
    assert status_length(status2) == 100 - MPACKET_SIZE
    assert device.rbuf_load(first, 10) == 10
    assert device.rbuf_load(second, 0) == MPACKET_SIZE


def test_rbuf_free_releases_element():
    device = DeviceModel()
    device.feed_packet(1, b"x" * 48)
    element = device.rbuf_next(1)
    device.rbuf_free(element)
    with pytest.raises(DeviceError):
        device.rbuf_status(element)


def test_ports_are_independent_queues():
    device = DeviceModel()
    device.feed_packet(0, b"a" * 48)
    device.feed_packet(1, b"b" * 48)
    assert device.rbuf_next(2) is None
    elem0 = device.rbuf_next(0)
    assert device.rbuf_load(elem0, 0) == ord("a")


def test_tbuf_commit_captures_exact_bytes():
    device = DeviceModel()
    element = device.tbuf_alloc(3)
    for index, byte in enumerate(b"hello"):
        device.tbuf_store(element, index, byte)
    device.tbuf_commit(element, make_status(True, True, 3, 5))
    assert len(device.tx_records) == 1
    record = device.tx_records[0]
    assert record.port == 3 and record.sop and record.eop
    assert record.data == b"hello"


def test_tbuf_double_commit_rejected():
    device = DeviceModel()
    element = device.tbuf_alloc(0)
    device.tbuf_commit(element, make_status(True, True, 0, 0))
    with pytest.raises(DeviceError):
        device.tbuf_commit(element, 0)


def test_tx_by_port_groups_records():
    device = DeviceModel()
    for port in (1, 2, 1):
        element = device.tbuf_alloc(port)
        device.tbuf_commit(element, make_status(True, True, port, 0))
    grouped = {}
    for record in device.tx_records:
        grouped.setdefault(record.port, []).append(record)
    assert len(grouped[1]) == 2
    assert len(grouped[2]) == 1


def test_rbuf_load_traps_name_the_element_before_the_offset():
    devices = DeviceModel()
    devices.feed_packet(0, b"abc")
    element = devices.rbuf_next(0)
    assert [devices.rbuf_load(element, offset) for offset in range(3)] \
        == list(b"abc")
    for offset in (-1, 3):
        with pytest.raises(DeviceError,
                           match=f"^rbuf_load: offset {offset} out of bounds$"):
            devices.rbuf_load(element, offset)
    for offset in (-1, 0, 3):
        with pytest.raises(DeviceError, match="^unknown rbuf element 99$"):
            devices.rbuf_load(99, offset)
