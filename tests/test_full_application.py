"""End-to-end test: the five-PPS IPv4 forwarding application (Figure 18a).

RX -> IPv4 -> {QM <- Scheduler} -> TX, all running concurrently on one
machine state, fed by synthetic min-size traffic; then the same
application with its IPv4 PPS replaced by a 4-stage pipeline.
"""

import pytest

from repro.analysis.cfg import find_pps_loop
from repro.apps.common import TAG_FWD, TAG_RX_OK, TAG_TX
from repro.apps.ip import ip_source
from repro.apps.ipv4 import ipv4_source
from repro.apps.qm import qm_source
from repro.apps.rx import rx_source
from repro.apps.scheduler import scheduler_source
from repro.apps.suite import IPV4_PREFIXES, build_ipv4_tables
from repro.apps.traffic import TrafficConfig, TrafficGenerator
from repro.apps.tx import tx_source
from repro.pipeline.transform import pipeline_pps
from repro.runtime import MachineState, observe, run_group
from repro.runtime.interp import Interpreter

from helpers import compile_module

PACKETS = 30


def combine_sources(*sources: str) -> str:
    """Concatenate PPS-C sources, dropping duplicate one-line declarations
    (shared pipes and memory regions are declared once)."""
    seen: set[str] = set()
    lines: list[str] = []
    for source in sources:
        for line in source.splitlines():
            stripped = line.strip()
            is_decl = (stripped.startswith(("pipe ", "memory ",
                                            "readonly memory "))
                       and stripped.endswith(";"))
            if is_decl:
                if stripped in seen:
                    continue
                seen.add(stripped)
            lines.append(line)
    return "\n".join(lines)


def full_ipv4_source() -> str:
    """The whole IPv4 forwarding application (paper Figure 18a):
    five chained PPSes."""
    return combine_sources(
        rx_source(out_pipe="rx2ip"),
        ipv4_source(in_pipe="rx2ip", out_pipe="qm_enq"),
        scheduler_source(out_pipe="qm_deq"),
        qm_source(enq_pipe="qm_enq", deq_pipe="qm_deq", out_pipe="tx_in",
                  declare_qlen=False),
        tx_source(in_pipe="tx_in"),
    )


def make_state(module):
    state = MachineState(module)
    level1, nodes = build_ipv4_tables()
    state.load_region("rt_l1", level1)
    state.load_region("rt_nodes", nodes)
    state.load_region("class_map", [(i * 3 + 1) & 0x7 for i in range(64)])
    state.load_region("acl_rules", [0] * 64)
    state.load_region("sched_weights", [4, 2, 1, 1])
    generator = TrafficGenerator(TrafficConfig(seed=3, count=PACKETS),
                                 ipv4_prefixes=IPV4_PREFIXES)
    for packet in generator.ipv4_stream():
        state.devices.feed_packet(0, packet)
    return state


def interp_for(function, state, bound=None):
    loop = find_pps_loop(function)
    return Interpreter(function, state, loop_start=loop.header,
                       max_iterations=bound)


@pytest.fixture(scope="module")
def module():
    return compile_module(full_ipv4_source(), optimize=True)


def run_application(module, ipv4_stages=None):
    state = make_state(module)
    interpreters = {}
    budget = PACKETS * 6  # enough iterations for every PPS to drain
    for name in ("rx", "scheduler", "qm", "tx"):
        interpreters[name] = interp_for(module.pps(name), state, budget)
    if ipv4_stages is None:
        interpreters["ipv4"] = interp_for(module.pps("ipv4"), state, budget)
    else:
        for stage in ipv4_stages:
            bound = budget if stage.index == 1 else None
            start = (find_pps_loop(stage.function).header
                     if stage.in_pipe is None else "stage_recv")
            interpreters[stage.function.name] = Interpreter(
                stage.function, state, loop_start=start, max_iterations=bound)
    run_group(interpreters)
    return state


def test_packets_flow_end_to_end(module):
    state = run_application(module)
    assert len(state.traces.get(TAG_RX_OK, [])) == PACKETS
    assert len(state.traces.get(TAG_FWD, [])) == PACKETS
    transmitted = state.traces.get(TAG_TX, [])
    assert transmitted, "packets must reach the wire"
    assert state.devices.tx_records
    # Every transmitted frame is a valid min-size packet.
    for record in state.devices.tx_records:
        assert len(record.data) == 48
        assert record.data[0] == 0xFF  # POS flag survived forwarding


def test_ttl_decremented_on_the_wire(module):
    state = run_application(module)
    for record in state.devices.tx_records:
        ttl = record.data[4 + 8]
        assert ttl >= 1


def test_application_with_pipelined_ipv4_is_equivalent(module):
    baseline = observe(run_application(module))
    result = pipeline_pps(module, "ipv4", 4)
    pipelined = observe(run_application(module, ipv4_stages=result.stages))
    assert baseline.tx == pipelined.tx
    assert baseline.traces == pipelined.traces
    assert baseline.regions == pipelined.regions


def full_ip_source() -> str:
    """The whole IP forwarding application (paper Figure 18b):
    RX -> IP (v4 + v6 paths) -> TX."""
    return combine_sources(
        rx_source(out_pipe="rx2ip"),
        ip_source(in_pipe="rx2ip", out_pipe="tx_in"),
        tx_source(in_pipe="tx_in"),
    )


def test_ip_forwarding_application_both_traffics():
    """Figure 18b: RX -> IP -> TX on mixed IPv4/IPv6 traffic."""
    from repro.apps.suite import IPV6_PREFIXES, build_ipv6_tables
    from repro.apps.common import TAG_FWD6

    module = compile_module(full_ip_source(), optimize=True)
    state = MachineState(module)
    level1, nodes = build_ipv4_tables()
    state.load_region("rt_l1", level1)
    state.load_region("rt_nodes", nodes)
    state.load_region("rt6_nodes", build_ipv6_tables())
    state.load_region("class_map", [1] * 64)
    state.load_region("class6_map", [2] * 64)
    state.load_region("acl_rules", [0] * 64)
    state.load_region("acl6_rules", [0] * 64)
    state.load_region("policer6", [0] * 16)
    generator = TrafficGenerator(TrafficConfig(seed=5, count=PACKETS),
                                 ipv4_prefixes=IPV4_PREFIXES,
                                 ipv6_prefixes=IPV6_PREFIXES)
    for packet in generator.mixed_stream():
        state.devices.feed_packet(0, packet)

    budget = PACKETS * 6
    interpreters = {
        name: interp_for(module.pps(name), state, budget)
        for name in ("rx", "ip", "tx")
    }
    run_group(interpreters)
    assert len(state.traces.get(TAG_RX_OK, [])) == PACKETS
    forwarded = (len(state.traces.get(TAG_FWD, []))
                 + len(state.traces.get(TAG_FWD6, [])))
    assert forwarded == PACKETS
    assert state.traces.get(TAG_FWD) and state.traces.get(TAG_FWD6)
    assert len(state.traces.get(TAG_TX, [])) == PACKETS
