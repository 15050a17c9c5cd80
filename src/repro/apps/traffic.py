"""Synthetic traffic generation (host side).

Builds POS-encapsulated IPv4/IPv6 packets with valid headers and
checksums.  The evaluation uses minimum-size packets (48 bytes on POS),
"as this case places the most stringent performance requirement on the
application" (paper §4).
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from functools import lru_cache

from repro.apps.common import (
    MIN_PACKET_BYTES,
    POS_HEADER_BYTES,
    PPP_IPV4,
    PPP_IPV6,
)


#: Version/IHL, TOS, total length, ident, flags/fragment, TTL, protocol,
#: checksum, source, destination: the 20-byte IPv4 header in one pack.
_IPV4_HEADER = struct.Struct(">BBHHHBBHII")
_POS_IPV4 = bytes([0xFF, 0x03]) + PPP_IPV4.to_bytes(2, "big")
_POS_IPV6 = bytes([0xFF, 0x03]) + PPP_IPV6.to_bytes(2, "big")


def ipv4_checksum(header: bytes) -> int:
    """RFC 791 header checksum of ``header`` (checksum field zeroed)."""
    total = sum(struct.unpack(f">{len(header) // 2}H", header))
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


@lru_cache(maxsize=64)     # one entry per packet size in use
def _payload(length: int, step: int, offset: int) -> bytes:
    """The synthetic payload: byte ``i`` is ``(i * step + offset) & 0xFF``."""
    return bytes((i * step + offset) & 0xFF for i in range(length))


def make_ipv4_packet(src: int, dst: int, *, total_bytes: int = MIN_PACKET_BYTES,
                     ttl: int = 64, tos: int = 0, ident: int = 0,
                     proto: int = 17, corrupt_checksum: bool = False) -> bytes:
    """A POS-encapsulated IPv4 packet of exactly ``total_bytes``."""
    ip_total = total_bytes - POS_HEADER_BYTES
    if ip_total < 20:
        raise ValueError("packet too small for an IPv4 header")
    # Version 4 / IHL 5, no fragmentation, checksum zeroed until known.
    fields = [0x45, tos & 0xFF, ip_total, ident & 0xFFFF, 0, ttl & 0xFF,
              proto & 0xFF, 0, src & 0xFFFFFFFF, dst & 0xFFFFFFFF]
    checksum = ipv4_checksum(_IPV4_HEADER.pack(*fields))
    if corrupt_checksum:
        checksum ^= 0x5555
    fields[7] = checksum
    return (_POS_IPV4 + _IPV4_HEADER.pack(*fields)
            + _payload(ip_total - 20, 37, 11))


def make_ipv6_packet(src_top64: int, dst_top64: int, *,
                     total_bytes: int = 64, hop_limit: int = 64,
                     next_header: int = 17,
                     traffic_class: int = 0) -> bytes:
    """A POS-encapsulated IPv6 packet (low 64 address bits are synthetic)."""
    ip_total = total_bytes - POS_HEADER_BYTES
    if ip_total < 40:
        raise ValueError("packet too small for an IPv6 header")
    payload_len = ip_total - 40
    header = bytearray(40)
    header[0] = 0x60 | ((traffic_class >> 4) & 0x0F)
    header[1] = (traffic_class << 4) & 0xF0
    header[4:6] = payload_len.to_bytes(2, "big")
    header[6] = next_header & 0xFF
    header[7] = hop_limit & 0xFF
    header[8:16] = (src_top64 & ((1 << 64) - 1)).to_bytes(8, "big")
    header[16:24] = (0x1234_5678_9ABC_DEF0).to_bytes(8, "big")
    header[24:32] = (dst_top64 & ((1 << 64) - 1)).to_bytes(8, "big")
    header[32:40] = (0x0FED_CBA9_8765_4321).to_bytes(8, "big")
    return _POS_IPV6 + bytes(header) + _payload(payload_len, 53, 7)


@dataclass
class TrafficConfig:
    """Knobs for a synthetic traffic stream."""

    seed: int = 1
    count: int = 200
    min_size_only: bool = True
    bad_fraction: float = 0.0  # fraction of malformed packets


class TrafficGenerator:
    """Seeded streams of routable packets."""

    def __init__(self, config: TrafficConfig,
                 ipv4_prefixes: list[tuple[int, int]] | None = None,
                 ipv6_prefixes: list[tuple[int, int]] | None = None):
        self.config = config
        self.rng = random.Random(config.seed)
        self.ipv4_prefixes = ipv4_prefixes or [(0x0A000000, 8)]
        self.ipv6_prefixes = ipv6_prefixes or [(0x2001_0db8_0000_0000, 32)]

    def _ipv4_address(self) -> int:
        prefix, plen = self.rng.choice(self.ipv4_prefixes)
        host = self.rng.getrandbits(32 - plen) if plen < 32 else 0
        return (prefix & (0xFFFFFFFF << (32 - plen))) | host

    def _ipv6_address(self) -> int:
        prefix, plen = self.rng.choice(self.ipv6_prefixes)
        host = self.rng.getrandbits(64 - plen) if plen < 64 else 0
        return (prefix & (((1 << 64) - 1) << (64 - plen))) | host

    def _size(self) -> int:
        if self.config.min_size_only:
            return MIN_PACKET_BYTES
        return self.rng.choice([MIN_PACKET_BYTES, 64, 80, 128])

    def ipv4_stream(self) -> list[bytes]:
        packets = []
        for index in range(self.config.count):
            corrupt = self.rng.random() < self.config.bad_fraction
            packets.append(make_ipv4_packet(
                src=0xC0A80000 | (index & 0xFFFF),
                dst=self._ipv4_address(),
                total_bytes=self._size(),
                ttl=self.rng.randint(2, 64),
                ident=index,
                corrupt_checksum=corrupt,
            ))
        return packets

    def ipv6_stream(self) -> list[bytes]:
        packets = []
        for index in range(self.config.count):
            packets.append(make_ipv6_packet(
                src_top64=0xFE80_0000_0000_0000 | index,
                dst_top64=self._ipv6_address(),
                total_bytes=max(self._size(), 64),
                hop_limit=self.rng.randint(2, 64),
            ))
        return packets

    def mixed_stream(self) -> list[bytes]:
        v4 = self.ipv4_stream()
        v6 = self.ipv6_stream()
        mixed = []
        for a, b in zip(v4, v6):
            mixed.append(a)
            mixed.append(b)
        return mixed[: self.config.count]
