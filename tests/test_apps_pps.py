"""Integration tests for the NPF benchmark PPSes.

Each app compiles, runs sequentially with the expected observable
behaviour, and stays observationally equivalent when pipelined.
"""

import pytest

from repro.apps.common import (
    META_NEXT_HOP,
    META_OUT_PORT,
    TAG_DROP_CHECKSUM,
    TAG_DROP_TTL,
    TAG_FWD,
    TAG_FWD6,
    TAG_QM_DEQ,
    TAG_QM_ENQ,
    TAG_RX_OK,
    TAG_SCHED,
    TAG_TX,
)
from repro.apps.suite import APPS, build_app
from repro.apps.traffic import make_ipv4_packet
from repro.eval.metrics import make_profiler
from repro.pipeline.transform import pipeline_pps
from repro.runtime import (
    MachineState,
    assert_equivalent,
    observe,
    run_pipeline,
    run_sequential,
)


@pytest.mark.parametrize("name", APPS)
def test_app_compiles_and_runs(name):
    app = build_app(name, packets=24)
    state, iterations = app.fresh_state()
    stats = run_sequential(app.module.pps(app.pps_name), state,
                           iterations=iterations)
    assert stats.iterations >= iterations


def test_every_app_is_fed_from_its_stream():
    """Every app has one input recipe: ``stream()`` is a function of the
    seed alone, so ``setup`` and a ``feed`` of a fresh ``stream()`` run
    alike, and a shorter stream (what a dropping fault plan leaves)
    feeds a shorter run."""
    for name in APPS:
        app = build_app(name, packets=16)
        function = app.module.pps(app.pps_name)
        runs = []
        for feed in (app.setup,
                     lambda state: app.feed(state, app.stream())):
            state = MachineState(app.module)
            iterations = feed(state)
            run_sequential(function, state, iterations=iterations)
            runs.append((iterations, observe(state)))
        assert runs[0] == runs[1], name
        short = app.feed(MachineState(app.module), app.stream()[:8])
        assert 0 < short < runs[0][0], name


def test_rx_forwards_wellformed_packets():
    app = build_app("rx", packets=20)
    state, iterations = app.fresh_state()
    run_sequential(app.module.pps("rx"), state, iterations=iterations)
    assert len(state.traces.get(TAG_RX_OK, [])) == 20
    assert len(state.pipe("rx_out").queue) == 20


def test_ipv4_forwards_and_annotates():
    app = build_app("ipv4", packets=20)
    state, iterations = app.fresh_state()
    run_sequential(app.module.pps("ipv4"), state, iterations=iterations)
    forwarded = list(state.pipe("ipv4_out").queue)
    assert forwarded
    for handle in forwarded:
        assert state.packets.meta_get(handle, META_NEXT_HOP) >= 100
        assert 0 <= state.packets.meta_get(handle, META_OUT_PORT) < 4


def test_ipv4_decrements_ttl_and_fixes_checksum():
    app = build_app("ipv4", packets=4)
    state, iterations = app.fresh_state()
    inputs = {h: state.packets.load(h, 4 + 8)
              for h in list(state.pipe("ipv4_in").queue)}
    run_sequential(app.module.pps("ipv4"), state, iterations=iterations)
    for handle in state.pipe("ipv4_out").queue:
        packet = state.packets.get(handle)
        header = bytes(packet.data[4:24])
        assert header[8] == inputs[handle] - 1
        total = 0
        for i in range(0, 20, 2):
            total += int.from_bytes(header[i:i + 2], "big")
        while total > 0xFFFF:
            total = (total & 0xFFFF) + (total >> 16)
        assert total == 0xFFFF, "checksum must verify after TTL decrement"


def test_ipv4_drops_bad_checksum_and_expired_ttl():
    app = build_app("ipv4", packets=4)
    state, _ = app.fresh_state()
    # Replace the queue with crafted packets.
    state.pipe("ipv4_in").queue.clear()
    bad_csum = make_ipv4_packet(0xC0A80001, 0x0A010203, corrupt_checksum=True)
    expired = make_ipv4_packet(0xC0A80001, 0x0A010203, ttl=1)
    for data in (bad_csum, expired):
        handle = state.packets.adopt(data, meta={1: len(data)})
        state.pipe("ipv4_in").send(handle)
    run_sequential(app.module.pps("ipv4"), state, iterations=2)
    assert len(state.traces.get(TAG_DROP_CHECKSUM, [])) == 1
    assert len(state.traces.get(TAG_DROP_TTL, [])) == 1
    assert not state.pipe("ipv4_out").queue


def test_ip_pps_handles_both_traffics():
    v4 = build_app("ip_v4", packets=16)
    state, iterations = v4.fresh_state()
    run_sequential(v4.module.pps("ip"), state, iterations=iterations)
    assert state.traces.get(TAG_FWD)
    v6 = build_app("ip_v6", packets=16)
    state6, iterations6 = v6.fresh_state()
    run_sequential(v6.module.pps("ip"), state6, iterations=iterations6)
    assert state6.traces.get(TAG_FWD6)


def test_scheduler_emits_wrr_decisions():
    app = build_app("scheduler", packets=40)
    state, iterations = app.fresh_state()
    run_sequential(app.module.pps("scheduler"), state, iterations=iterations)
    decisions = state.traces.get(TAG_SCHED, [])
    assert decisions
    assert set(decisions) <= {0, 1, 2, 3}
    # Weighted: queue 0 (weight 4, most occupancy) must dominate.
    assert decisions.count(0) >= decisions.count(2)


def test_qm_enqueues_and_dequeues():
    app = build_app("qm", packets=16)
    state, iterations = app.fresh_state()
    run_sequential(app.module.pps("qm"), state, iterations=iterations)
    assert len(state.traces.get(TAG_QM_ENQ, [])) > 0
    assert len(state.traces.get(TAG_QM_DEQ, [])) > 0
    assert state.pipe("qm_out").queue


def test_tx_segments_and_commits():
    app = build_app("tx", packets=12)
    state, iterations = app.fresh_state()
    run_sequential(app.module.pps("tx"), state, iterations=iterations)
    assert len(state.traces.get(TAG_TX, [])) == 12
    assert len(state.devices.tx_records) == 12  # min packets: one mpacket
    for record in state.devices.tx_records:
        assert record.sop and record.eop
        assert len(record.data) == 48


def test_tx_output_matches_input_payload():
    app = build_app("tx", packets=6)
    state, iterations = app.fresh_state()
    payloads = [bytes(state.packets.get(h).data)
                for h in state.pipe("tx_in").queue]
    run_sequential(app.module.pps("tx"), state, iterations=iterations)
    transmitted = [record.data for record in state.devices.tx_records]
    assert transmitted == payloads


@pytest.mark.parametrize("name", APPS)
@pytest.mark.parametrize("degree", [2, 5])
def test_pipelined_apps_equivalent(name, degree):
    app = build_app(name, packets=24)
    baseline_state, iterations = app.fresh_state()
    run_sequential(app.module.pps(app.pps_name), baseline_state,
                   iterations=iterations)
    baseline = observe(baseline_state)
    profiler = make_profiler(app)
    result = pipeline_pps(app.module, app.pps_name, degree, profiler=profiler)
    state, _ = app.fresh_state()
    run_pipeline(result.stages, state, iterations=iterations)
    assert_equivalent(baseline, observe(state))


# -- feeding in batches (what `repro serve` does) ----------------------------

BATCH_APPS = ["rx", "ipv4", "ip_v4", "ip_v6", "tx"]


@pytest.mark.parametrize("name", BATCH_APPS)
def test_batch_feeds_leave_regions_as_fresh_loads_do(name):
    """``feed`` copies the process-wide tables in on every call: after
    each of N batch feeds on one machine state, every region equals what
    a fresh state gets from a single load.  Scheduler and qm are out:
    their regions are shared flow state, which a run writes."""
    app = build_app(name, packets=12)
    stream = app.stream()
    batches = [stream[start:start + 4] for start in range(0, len(stream), 4)]
    assert len(batches) >= 3
    state = MachineState(app.module)
    function = app.module.pps(app.pps_name)
    for batch in batches:
        iterations = app.feed(state, batch)
        fresh = MachineState(app.module)
        app.feed(fresh, batch)
        assert state.regions == fresh.regions
        run_sequential(function, state, iterations=iterations)
        assert state.regions == fresh.regions   # readonly: runs keep them
    if "rt_l1" in state.regions:
        assert any(state.regions["rt_l1"]) and any(state.regions["acl_rules"])
