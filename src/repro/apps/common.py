"""Shared conventions of the NPF-style applications.

Packet layout: every packet carries a 4-byte POS/PPP encapsulation header
(``FF 03`` + 16-bit protocol id) followed by the IP header.  Minimum-size
POS packets are 48 bytes (the paper's worst-case traffic).

Metadata keys and trace tags are the cross-PPS ABI: RX annotates packets,
the forwarding PPSes route them, TX consumes them.
"""

from __future__ import annotations

# -- packet geometry -----------------------------------------------------------

POS_HEADER_BYTES = 4
PPP_IPV4 = 0x0021
PPP_IPV6 = 0x0057
MIN_PACKET_BYTES = 48
MAX_PACKET_BYTES = 128  # two mpackets; larger frames take the slow path
PACKET_BUFFER_BYTES = 256

# -- metadata keys -----------------------------------------------------------------

META_LEN = 1
META_IN_PORT = 2
META_OUT_PORT = 3
META_NEXT_HOP = 4
META_SEQ = 5
META_CLASS = 6

# -- trace tags (per-PPS event counters) ----------------------------------------------

TAG_RX_OK = 10
TAG_RX_ERR = 11

TAG_FWD = 30
TAG_DROP_PROTO = 31
TAG_DROP_VERSION = 32
TAG_DROP_HEADER = 33
TAG_DROP_CHECKSUM = 34
TAG_DROP_TTL = 35
TAG_DROP_FRAG = 36
TAG_DROP_MARTIAN = 37
TAG_DROP_NOROUTE = 38
TAG_DROP_LEN = 39

TAG_FWD6 = 50
TAG_DROP6_HOPLIMIT = 51
TAG_DROP6_MARTIAN = 52
TAG_DROP6_NOROUTE = 53
TAG_DROP6_EXT = 54

TAG_TX = 60
TAG_TX_ERR = 61

TAG_SCHED = 70
TAG_QM_ENQ = 80
TAG_QM_DEQ = 81
TAG_QM_DROP = 82


def unrolled_copy_rbuf_to_pkt(handle: str, elem: str, count: int,
                              indent: str = "        ") -> str:
    """PPS-C text: copy ``count`` bytes from an rbuf element to a packet."""
    lines = [
        f"{indent}pkt_store({handle}, {i}, rbuf_load({elem}, {i}));"
        for i in range(count)
    ]
    return "\n".join(lines)


def unrolled_copy_pkt_to_tbuf(elem: str, handle: str, count: int,
                              pkt_base: int = 0, tbuf_base: int = 0,
                              indent: str = "        ") -> str:
    """PPS-C text: copy ``count`` bytes from a packet to a tbuf element."""
    lines = [
        f"{indent}tbuf_store({elem}, {tbuf_base + i}, "
        f"pkt_load({handle}, {pkt_base + i}));"
        for i in range(count)
    ]
    return "\n".join(lines)


def unrolled_checksum_words(var: str, handle: str, base: int, words: int,
                            indent: str = "        ") -> str:
    """PPS-C text: sum ``words`` big-endian 16-bit words into ``var``."""
    lines = [
        f"{indent}{var} = {var} + pkt_load_u16({handle}, {base} + {2 * i});"
        for i in range(words)
    ]
    return "\n".join(lines)
