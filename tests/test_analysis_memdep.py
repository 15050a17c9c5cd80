"""Tests for the instruction effect model."""

from repro.analysis.memdep import accesses_of, conflicts
from repro.ir.instructions import ArrayLoad, ArrayStore, Call
from repro.ir.values import ArrayRef, Const, PipeRef, RegionRef, VReg


def call(name, *args, dest=None):
    return Call(dest, name, list(args))


def test_pure_intrinsics_have_no_accesses():
    assert accesses_of(call("hash32", Const(1), dest=VReg("d"))) == []


def test_readonly_region_reads_are_free():
    region = RegionRef("routes", 64, readonly=True)
    assert accesses_of(call("mem_read", region, Const(0), dest=VReg("d"))) == []


def test_readwrite_region_is_serial_and_carried():
    region = RegionRef("state", 64, readonly=False)
    read = accesses_of(call("mem_read", region, Const(0), dest=VReg("d")))[0]
    write = accesses_of(call("mem_write", region, Const(0), Const(1)))[0]
    assert read.serial and read.loop_carried
    assert conflicts(read, write)
    assert conflicts(read, read)  # serial: even two reads conflict


def test_distinct_regions_do_not_conflict():
    a = accesses_of(call("mem_write", RegionRef("a", 8), Const(0), Const(1)))[0]
    b = accesses_of(call("mem_write", RegionRef("b", 8), Const(0), Const(1)))[0]
    assert not conflicts(a, b)


def test_packet_ops_order_within_iteration_only():
    load = accesses_of(call("pkt_load", Const(1), Const(0), dest=VReg("d")))[0]
    store = accesses_of(call("pkt_store", Const(1), Const(0), Const(5)))[0]
    assert not load.loop_carried and not store.loop_carried
    assert conflicts(load, store)
    assert not conflicts(load, load)  # read-read is free


def test_pkt_alloc_is_serially_ordered():
    accesses = accesses_of(call("pkt_alloc", Const(64), dest=VReg("h")))
    serial = [a for a in accesses if a.serial]
    assert serial and serial[0].loop_carried


def test_pipe_ops_are_serial_per_pipe():
    send = accesses_of(call("pipe_send", PipeRef("q"), Const(1)))[0]
    recv = accesses_of(call("pipe_recv", PipeRef("q"), dest=VReg("d")))[0]
    other = accesses_of(call("pipe_send", PipeRef("r"), Const(1)))[0]
    assert conflicts(send, recv)
    assert not conflicts(send, other)


def test_rbuf_next_serial_but_element_reads_are_not():
    nxt = accesses_of(call("rbuf_next", Const(0), dest=VReg("e")))[0]
    load = accesses_of(call("rbuf_load", VReg("e"), Const(0), dest=VReg("d")))[0]
    assert nxt.serial
    assert not load.serial
    assert not conflicts(nxt, load)  # different resources


def test_tbuf_commit_reads_element_and_serializes_wire():
    store = accesses_of(call("tbuf_store", VReg("t"), Const(0), Const(1)))[0]
    commit = accesses_of(call("tbuf_commit", VReg("t"), Const(0)))
    wire = [a for a in commit if a.resource == ("device_out",)][0]
    element = [a for a in commit if a.resource == ("tbuf_elem",)][0]
    assert wire.serial and wire.loop_carried
    assert conflicts(store, element)  # commit must stay after the stores


def test_trace_tags_are_distinct_resources():
    tag1 = accesses_of(call("trace", Const(1), Const(0)))[0]
    tag2 = accesses_of(call("trace", Const(2), Const(0)))[0]
    dynamic = accesses_of(call("trace", VReg("t"), Const(0)))[0]
    assert not conflicts(tag1, tag2)
    assert conflicts(tag1, tag1)
    assert conflicts(dynamic, dynamic)  # unknown tags share one resource


def test_every_array_access_is_loop_carried():
    seen = ArrayRef("seen", 4)
    store = accesses_of(ArrayStore(seen, Const(0), Const(1)))[0]
    load = accesses_of(ArrayLoad(VReg("d"), seen, Const(0)))[0]
    other = accesses_of(ArrayStore(ArrayRef("tmp", 4), Const(0), Const(1)))[0]
    assert store.loop_carried and load.loop_carried
    assert not store.serial and not load.serial
    assert conflicts(store, load)
    assert not conflicts(load, load)    # two reads never conflict
    assert not conflicts(store, other)  # one resource per array
