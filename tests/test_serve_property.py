"""Exactly-once-per-flow delivery under worker kills (property test).

The serving runtime's headline guarantee is that journal replay after a
mid-stream worker kill never drops or duplicates a packet within a
flow.  The guarantee is carried by three pure pieces — flow-hash
sharding (:mod:`repro.serve.shard`), the per-shard journal watermark
(:mod:`repro.serve.journal`), and the replay-from-batch-1 worker
protocol — so it can be property-tested in-process, without spawning
processes: simulate a worker that commits some prefix, dies, and is
restarted (replaying the whole journal), any number of times, and
check the committed output against the input stream.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.apps.common import POS_HEADER_BYTES, PPP_IPV4
from repro.serve import Journal, flow_key, make_batches, shard_stream

SHARD_COUNTS = (1, 2, 3, 5, 8)


def pos_ipv4_packet(src: int, dst: int, salt: int) -> bytes:
    """A minimal POS/PPP/IPv4 frame whose flow identity is (src, dst)."""
    header = bytes([0xFF, 0x03]) + PPP_IPV4.to_bytes(2, "big")
    assert len(header) == POS_HEADER_BYTES
    ip = bytearray(20)
    ip[12:16] = src.to_bytes(4, "big")
    ip[16:20] = dst.to_bytes(4, "big")
    ip[0] = 0x45
    ip[8] = salt & 0xFF         # varies per packet, not part of the flow
    return bytes(header) + bytes(ip)


packets = st.lists(
    st.builds(pos_ipv4_packet,
              src=st.integers(0, 5), dst=st.integers(0, 3),
              salt=st.integers(0, 255)),
    min_size=0, max_size=40)


def run_with_kills(stream, shards, batch, kill_plan):
    """Simulate the supervisor's commit loop with crashing workers.

    ``kill_plan[shard]`` is a list of batch counts: incarnation ``i`` of
    that shard dies after *reporting* that many batches (each report is
    a full replay from batch 1, exactly like a real restarted worker);
    the final incarnation runs to completion.  Returns the per-shard
    committed packet lists, in commit order.
    """
    journal = Journal(shards)
    for index, substream in enumerate(shard_stream(stream, shards)):
        for packets_ in make_batches(substream, batch):
            journal.append(index, packets_)

    committed: list[list] = [[] for _ in range(shards)]
    for index in range(shards):
        records = journal[index].records
        incarnations = list(kill_plan.get(index, ())) + [len(records)]
        for incarnation, reports in enumerate(incarnations):
            if incarnation > 0:
                journal.note_replay(index)
            # Every incarnation replays from batch 1; the watermark
            # drops the re-delivered prefix.
            for record in records[:reports]:
                if journal.accept(index, record.seq):
                    committed[index].extend(record.packets)
    return journal, committed


@settings(max_examples=60, deadline=None)
@given(stream=packets,
       shards=st.sampled_from(SHARD_COUNTS),
       batch=st.integers(1, 5),
       data=st.data())
def test_exactly_once_per_flow_despite_kills(stream, shards, batch, data):
    journal = Journal(shards)
    substreams = shard_stream(stream, shards)
    for index, substream in enumerate(substreams):
        for packets_ in make_batches(substream, batch):
            journal.append(index, packets_)

    # Up to 3 incarnations per shard die mid-stream at arbitrary points.
    kill_plan = {}
    for index in range(shards):
        n = len(journal[index].records)
        kill_plan[index] = data.draw(
            st.lists(st.integers(0, n), min_size=0, max_size=3),
            label=f"kills-shard-{index}")

    journal, committed = run_with_kills(stream, shards, batch, kill_plan)

    # Every shard fully delivered, and the committed packet sequence is
    # byte-identical to the shard's input substream: nothing dropped,
    # nothing duplicated, order preserved.
    assert journal.done
    for index, substream in enumerate(substreams):
        assert committed[index] == substream

    # Per-flow: each flow lands on exactly one shard, and its packets
    # arrive there exactly once in stream order.
    flows: dict[int, list] = {}
    for packet in stream:
        flows.setdefault(flow_key(packet), []).append(packet)
    delivered = {index: committed[index] for index in range(shards)}
    for key, flow_packets in flows.items():
        owners = [index for index in range(shards)
                  if any(flow_key(p) == key for p in delivered[index])]
        assert len(owners) <= 1
        if flow_packets:
            owner = owners[0]
            got = [p for p in delivered[owner] if flow_key(p) == key]
            assert got == flow_packets

    # Accounting: a kill after k reported batches redelivers exactly
    # min(k, watermark-at-death) batches on the next incarnation — the
    # journal's totals must reflect every one, and only those.
    counters = journal.counters()
    assert counters["pending"] == 0
    assert counters["committed"] == counters["batches"]
    expected_replays = sum(len(kills) for kills in kill_plan.values())
    assert counters["replays"] == expected_replays


@settings(max_examples=30, deadline=None)
@given(stream=packets, shards=st.sampled_from(SHARD_COUNTS),
       batch=st.integers(1, 4))
def test_kill_free_run_has_no_redeliveries(stream, shards, batch):
    journal, committed = run_with_kills(stream, shards, batch, {})
    assert journal.done
    assert journal.counters()["redeliveries"] == 0
    assert sum(len(c) for c in committed) == len(stream)


def test_gap_in_results_is_a_protocol_bug():
    """Out-of-order / gapped delivery is a supervisor bug, not a state
    the watermark silently absorbs."""
    import pytest

    journal = Journal(1)
    journal.append(0, [b"a"])
    journal.append(0, [b"b"])
    with pytest.raises(RuntimeError, match="gap-free"):
        journal.accept(0, 2)
