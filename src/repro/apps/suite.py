"""Assembled benchmark applications (paper Figure 18).

``build_app`` returns a compiled :class:`AppInstance` for each PPS of the
two NPF benchmarks:

* IPv4 forwarding: ``rx``, ``ipv4``, ``scheduler``, ``qm``, ``tx``;
* IP forwarding: ``rx``, ``ip`` (with v4 and v6 traffic variants), ``tx``.

Each instance has one input recipe — ``stream()`` draws its traffic and
``feed(state, stream)`` loads its tables and that stream into a machine
state — so the evaluation harness, the check families, the serving pool
and the tests drive every PPS identically.  ``tests/test_full_application.py`` chains
them through their pipes into the whole applications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable

from repro import compile_module
from repro.apps import qm as qm_mod
from repro.apps.common import (
    META_IN_PORT,
    META_LEN,
    META_OUT_PORT,
    META_SEQ,
)
from repro.apps.ip import ip_source
from repro.apps.ipv4 import ipv4_source
from repro.apps.qm import qm_source
from repro.apps.rx import rx_source
from repro.apps.scheduler import scheduler_source
from repro.apps.tables import Ipv4RouteTable, Ipv6RouteTable
from repro.apps.traffic import TrafficConfig, TrafficGenerator
from repro.apps.tx import tx_source
from repro.ir.function import Module
from repro.runtime.state import MachineState

#: Prefixes every benchmark route table covers (traffic draws from them).
IPV4_PREFIXES = [
    (0x0A000000, 8),    # 10/8
    (0x0A010000, 16),   # 10.1/16
    (0x0A010200, 24),   # 10.1.2/24
    (0xC0A80000, 16),   # 192.168/16
    (0xAC100000, 12),   # 172.16/12
    (0x08080000, 20),
    (0x5DB80000, 17),
    (0x22C00000, 10),
]

IPV6_PREFIXES = [
    (0x2001_0db8_0000_0000, 32),
    (0x2001_0db8_0001_0000, 48),
    (0x2001_0db8_0001_0002, 64),
    (0x2600_1f00_0000_0000, 24),
    (0x2a03_2880_f000_0000, 40),
    (0xfd00_1234_0000_0000, 16),
]


@cache
def build_ipv4_tables() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(rt_l1, rt_nodes)`` for :data:`IPV4_PREFIXES`.  Built once per
    process and shared by every caller, hence tuples: ``load_region``
    adopts or copies them into a machine state, nothing can write through
    them."""
    table = Ipv4RouteTable()
    for index, (prefix, plen) in enumerate(IPV4_PREFIXES):
        table.add_route(prefix, plen, port=index % 4, next_hop=100 + index)
    level1, nodes = table.build()
    return tuple(level1), tuple(nodes)


@cache
def build_ipv6_tables() -> tuple[int, ...]:
    """``rt6_nodes`` for :data:`IPV6_PREFIXES` (memoised, see above)."""
    table = Ipv6RouteTable()
    for index, (prefix, plen) in enumerate(IPV6_PREFIXES):
        table.add_route(prefix, plen, port=index % 4, next_hop=200 + index)
    return tuple(table.build())


#: DSCP -> traffic class maps and the fast-path ACL, as loaded per feed.
_CLASS_MAP = tuple((i * 3 + 1) & 0x7 for i in range(64))
_CLASS6_MAP = tuple((i * 5 + 2) & 0x7 for i in range(64))
_ACL_RULES = (
    # (value, mask, match-on-src, action): action 2 = deny, 3 = remark.
    0x0A630000, 0xFFFF0000, 0, 2,   # deny dst 10.99/16 (rare)
    0xAC100000, 0xFFF00000, 0, 3,   # remark dst 172.16/12
    0x7F000000, 0xFF000000, 1, 2,   # deny src loopback (redundant)
    0xC0A82A00, 0xFFFFFF00, 1, 3,   # remark src 192.168.42/24
) + (0,) * 48


@dataclass
class AppInstance:
    """One compiled benchmark PPS plus its input recipe.

    ``stream()`` returns the input traffic, and ``feed(state, stream)``
    loads the app's tables and that (possibly perturbed) stream into a
    machine state and returns the iteration budget for stage 1.  Every
    run of every app — measured, fuzzed, served — is fed that way."""

    name: str
    pps_name: str
    source: str
    module: Module
    stream: Callable[[], list] = field(repr=False)
    feed: Callable[[MachineState, list], int] = field(repr=False)
    description: str = ""
    #: One stream recipe per traffic class, for profile-dimensioned
    #: balancing (multi-path PPSes like the IP PPS have one per code
    #: path; a single-class app has none).
    class_streams: tuple[Callable[[], list], ...] = field(repr=False,
                                                          default=())

    def setup(self, state: MachineState) -> int:
        """Feed ``state`` the app's own stream: ``feed(state, stream())``."""
        return self.feed(state, self.stream())

    def fresh_state(self) -> tuple[MachineState, int]:
        """A populated machine state and the iteration budget for stage 1."""
        state = MachineState(self.module)
        return state, self.setup(state)

    @cached_property
    def profiler(self):
        """The traffic-class profiler every partition of this app is
        balanced with (``None`` for a single-class app): a value worked
        out from the app, so no caller can forget or vary it."""
        from repro.eval.metrics import make_profiler

        return make_profiler(self)


def _compile(source: str) -> Module:
    # The name trap locations carry: "<pps-c>:line:column".
    return compile_module(source, "<pps-c>")


def _load_common_tables(state: MachineState) -> None:
    """Load the (process-wide, immutable) tables into ``state``: a table
    that fills a readonly region is shared by reference, the rest are
    copied; the construction is never paid per feed."""
    if "rt_l1" in state.regions:
        level1, nodes = build_ipv4_tables()
        state.load_region("rt_l1", level1)
        state.load_region("rt_nodes", nodes)
    if "rt6_nodes" in state.regions:
        state.load_region("rt6_nodes", build_ipv6_tables())
    if "class_map" in state.regions:
        state.load_region("class_map", _CLASS_MAP)
    if "acl_rules" in state.regions:
        state.load_region("acl_rules", _ACL_RULES)
    if "class6_map" in state.regions:
        state.load_region("class6_map", _CLASS6_MAP)


def _traffic(count: int, seed: int, **kwargs) -> TrafficGenerator:
    config = TrafficConfig(seed=seed, count=count, **kwargs)
    return TrafficGenerator(config, ipv4_prefixes=IPV4_PREFIXES,
                            ipv6_prefixes=IPV6_PREFIXES)


def _adopt_stream(state: MachineState, packets: list[bytes],
                  pipe: str) -> None:
    for index, data in enumerate(packets):
        handle = state.packets.adopt(data, meta={
            META_LEN: len(data),
            META_IN_PORT: 0,
            META_SEQ: index + 1,
        })
        state.pipe(pipe).send(handle)

#: The PPSes of the two benchmark applications, in paper order: the
#: series of Figures 19/21 and of Figures 20/22 (``ip`` as its IPv4 and
#: IPv6 traffic variants).
IPV4_FORWARDING_PPSES = ["rx", "ipv4", "scheduler", "qm", "tx"]
IP_FORWARDING_PPSES = ["rx", "ip_v4", "ip_v6", "tx"]
#: Every app :func:`build_app` builds, in paper order.
APPS = tuple(dict.fromkeys(IPV4_FORWARDING_PPSES + IP_FORWARDING_PPSES))
#: Every distinct PPS the figures plot — all of them: the default apps
#: of ``repro explore``, whose default report is ``BENCH_headline.json``
#: and whose ``frontier.md`` draws the figures.
FIGURE_APPS = APPS


def build_app(name: str, *, packets: int = 200, seed: int = 7) -> AppInstance:
    """Build one benchmark PPS by name, one of :data:`APPS`: its source
    compiled, and its ``stream`` / ``feed`` recipe over ``packets``
    packets of traffic drawn from ``seed``."""

    def ipv4_stream() -> list:
        return _traffic(packets, seed).ipv4_stream()

    def ipv6_stream() -> list:
        return _traffic(packets, seed).ipv6_stream()

    def app(pps_name: str, source: str, stream, feed, description: str,
            class_streams: tuple = ()) -> AppInstance:
        return AppInstance(name, pps_name, source, _compile(source), stream,
                           feed, description, class_streams)

    if name == "rx":
        def feed(state: MachineState, stream: list) -> int:
            for data in stream:
                state.devices.feed_packet(0, data)
            return len(stream)

        return app("rx", rx_source(), ipv4_stream, feed,
                   "packet receive / reassembly")

    if name == "ipv4":
        def feed(state: MachineState, stream: list) -> int:
            _load_common_tables(state)
            _adopt_stream(state, stream, "ipv4_in")
            return len(stream)

        return app("ipv4", ipv4_source(), ipv4_stream, feed,
                   "IPv4 forwarding (NPF IPv4 benchmark)")

    if name in ("ip_v4", "ip_v6"):
        def feed(state: MachineState, stream: list) -> int:
            _load_common_tables(state)
            _adopt_stream(state, stream, "ip_in")
            return len(stream)

        v6 = name == "ip_v6"
        return app("ip", ip_source(), ipv6_stream if v6 else ipv4_stream,
                   feed, f"IP forwarding, {'IPv6' if v6 else 'IPv4'} traffic",
                   class_streams=(ipv4_stream, ipv6_stream))

    if name == "scheduler":
        # No input pipe: the stream only counts the decisions to make,
        # and the queues start that full.
        def stream() -> list:
            return list(range(packets))

        def feed(state: MachineState, stream: list) -> int:
            count = len(stream)
            state.load_region("sched_weights", [4, 2, 1, 1])
            state.load_region("qlen", [count // 2, count // 4,
                                       count // 8, count // 8])
            state.load_region("sched_state", [0, 4, 0, 0, 0, 0])
            return count

        return app("scheduler", scheduler_source(), stream, feed,
                   "WRR scheduler (shared flow state)")

    if name == "qm":
        # An enqueue per packet, then a dequeue per two.
        def feed(state: MachineState, stream: list) -> int:
            _load_common_tables(state)
            _adopt_stream(state, stream, "qm_enq")
            dequeues = len(stream) // 2
            for index in range(dequeues):
                state.pipe("qm_deq").send(index % qm_mod.N_QUEUES)
            return len(stream) + dequeues

        return app("qm", qm_source(), ipv4_stream, feed,
                   "queue manager (shared flow state)")

    if name == "tx":
        def feed(state: MachineState, stream: list) -> int:
            for index, data in enumerate(stream):
                handle = state.packets.adopt(data, meta={
                    META_LEN: len(data),
                    META_OUT_PORT: index % 4,
                    META_SEQ: index + 1,
                })
                state.pipe("tx_in").send(handle)
            return len(stream)

        return app("tx", tx_source(), ipv4_stream, feed,
                   "packet transmit / segmentation")

    raise ValueError(f"unknown app {name!r} (apps: {', '.join(APPS)})")
