"""Assembled benchmark applications (paper Figure 18).

``build_app`` returns a compiled :class:`AppInstance` for each PPS of the
two NPF benchmarks:

* IPv4 forwarding: ``rx``, ``ipv4``, ``scheduler``, ``qm``, ``tx``;
* IP forwarding: ``rx``, ``ip`` (with v4 and v6 traffic variants), ``tx``.

Each instance knows how to populate a fresh machine state with its input
traffic and supporting tables, so the evaluation harness and the tests
drive every PPS identically.  ``full_ipv4_source`` additionally assembles
the five PPSes of the IPv4 forwarding application into one program for
whole-application runs.
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


@dataclass
class AppInstance:
    """One compiled benchmark PPS plus its input-feeding recipe."""

    name: str
    pps_name: str
    source: str
    module: Module
    setup: Callable[[MachineState], int] = field(repr=False, default=None)
    description: str = ""
    #: Traffic-class setups for profile-dimensioned balancing (multi-path
    #: PPSes like the IP PPS provide one per code path).
    profile_setups: list = field(repr=False, default=None)
    #: Chaos-harness split of ``setup``: ``stream()`` returns the input
    #: packet list, ``feed(state, stream)`` loads tables and feeds an
    #: (optionally perturbed) stream.  Only stream-driven PPSes provide
    #: them; ``setup`` stays the single-call path everywhere else.
    stream: Callable[[], list] = field(repr=False, default=None)
    feed: Callable[[MachineState, list], int] = field(repr=False,
                                                      default=None)

    def fresh_state(self, **kwargs) -> tuple[MachineState, int]:
        """A populated machine state and the iteration budget for stage 1."""
        state = MachineState(self.module, **kwargs)
        iterations = self.setup(state)
        return state, iterations

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


def build_app(name: str, *, packets: int = 200, seed: int = 7) -> AppInstance:
    """Build one benchmark PPS by name.

    Names: ``rx``, ``ipv4``, ``ip_v4``, ``ip_v6``, ``scheduler``, ``qm``,
    ``tx``.
    """
    if name == "rx":
        source = rx_source()
        module = _compile(source)

        def stream() -> list:
            return _traffic(packets, seed).ipv4_stream()

        def feed(state: MachineState, stream: list) -> int:
            for data in stream:
                state.devices.feed_packet(0, data)
            return len(stream)

        def setup(state: MachineState) -> int:
            return feed(state, stream())

        return AppInstance(name, "rx", source, module, setup,
                           "packet receive / reassembly",
                           stream=stream, feed=feed)

    if name == "ipv4":
        source = ipv4_source()
        module = _compile(source)

        def stream() -> list:
            return _traffic(packets, seed).ipv4_stream()

        def feed(state: MachineState, stream: list) -> int:
            _load_common_tables(state)
            _adopt_stream(state, stream, "ipv4_in")
            return len(stream)

        def setup(state: MachineState) -> int:
            return feed(state, stream())

        return AppInstance(name, "ipv4", source, module, setup,
                           "IPv4 forwarding (NPF IPv4 benchmark)",
                           stream=stream, feed=feed)

    if name in ("ip_v4", "ip_v6"):
        source = ip_source()
        module = _compile(source)
        use_v6 = name.endswith("v6")

        def stream() -> list:
            generator = _traffic(packets, seed)
            return (generator.ipv6_stream() if use_v6
                    else generator.ipv4_stream())

        def feed(state: MachineState, stream: list) -> int:
            _load_common_tables(state)
            _adopt_stream(state, stream, "ip_in")
            return len(stream)

        def setup(state: MachineState) -> int:
            return feed(state, stream())

        def setup_v4(state: MachineState) -> int:
            _load_common_tables(state)
            stream = _traffic(packets, seed).ipv4_stream()
            _adopt_stream(state, stream, "ip_in")
            return len(stream)

        def setup_v6(state: MachineState) -> int:
            _load_common_tables(state)
            stream = _traffic(packets, seed).ipv6_stream()
            _adopt_stream(state, stream, "ip_in")
            return len(stream)

        traffic_kind = "IPv6" if use_v6 else "IPv4"
        return AppInstance(name, "ip", source, module, setup,
                           f"IP forwarding, {traffic_kind} traffic",
                           profile_setups=[setup_v4, setup_v6],
                           stream=stream, feed=feed)

    if name == "scheduler":
        source = scheduler_source()
        module = _compile(source)

        def setup(state: MachineState) -> int:
            state.load_region("sched_weights", [4, 2, 1, 1])
            state.load_region("qlen", [packets // 2, packets // 4,
                                       packets // 8, packets // 8])
            state.load_region("sched_state", [0, 4, 0, 0, 0, 0])
            return packets

        return AppInstance(name, "scheduler", source, module, setup,
                           "WRR scheduler (shared flow state)")

    if name == "qm":
        source = qm_source()
        module = _compile(source)

        def setup(state: MachineState) -> int:
            _load_common_tables(state)
            stream = _traffic(packets, seed).ipv4_stream()
            _adopt_stream(state, stream, "qm_enq")
            for index in range(packets // 2):
                state.pipe("qm_deq").send(index % qm_mod.N_QUEUES)
            return packets + packets // 2

        return AppInstance(name, "qm", source, module, setup,
                           "queue manager (shared flow state)")

    if name == "tx":
        source = tx_source()
        module = _compile(source)

        def setup(state: MachineState) -> int:
            stream = _traffic(packets, seed).ipv4_stream()
            for index, data in enumerate(stream):
                handle = state.packets.adopt(data, meta={
                    META_LEN: len(data),
                    META_OUT_PORT: index % 4,
                    META_SEQ: index + 1,
                })
                state.pipe("tx_in").send(handle)
            return len(stream)

        return AppInstance(name, "tx", source, module, setup,
                           "packet transmit / segmentation")

    raise ValueError(f"unknown app {name!r}")


#: All PPSes of the two benchmarks, in paper order.
IPV4_FORWARDING_PPSES = ["rx", "ipv4", "scheduler", "qm", "tx"]
IP_FORWARDING_PPSES = ["rx", "ip_v4", "ip_v6", "tx"]


def full_ipv4_source() -> str:
    """The whole IPv4 forwarding application (five chained PPSes)."""
    return combine_sources(
        rx_source(out_pipe="rx2ip"),
        ipv4_source(in_pipe="rx2ip", out_pipe="qm_enq"),
        scheduler_source(out_pipe="qm_deq"),
        qm_source(enq_pipe="qm_enq", deq_pipe="qm_deq", out_pipe="tx_in",
                  declare_qlen=False),
        tx_source(in_pipe="tx_in"),
    )


def full_ip_source() -> str:
    """The whole IP forwarding application (paper Figure 18b):
    RX -> IP (v4 + v6 paths) -> TX."""
    return combine_sources(
        rx_source(out_pipe="rx2ip"),
        ip_source(in_pipe="rx2ip", out_pipe="tx_in"),
        tx_source(in_pipe="tx_in"),
    )
