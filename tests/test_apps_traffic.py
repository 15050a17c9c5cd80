"""Tests for traffic generation."""

import hashlib

import pytest

from repro.apps.common import (
    MIN_PACKET_BYTES,
    POS_HEADER_BYTES,
    PPP_IPV4,
    PPP_IPV6,
)
from repro.apps.traffic import (
    TrafficConfig,
    TrafficGenerator,
    ipv4_checksum,
    make_ipv4_packet,
    make_ipv6_packet,
)


def test_min_size_packet_geometry():
    packet = make_ipv4_packet(0x01020304, 0x0A000001)
    assert len(packet) == MIN_PACKET_BYTES
    assert packet[0] == 0xFF and packet[1] == 0x03
    assert int.from_bytes(packet[2:4], "big") == PPP_IPV4


def test_ipv4_header_fields():
    packet = make_ipv4_packet(0x0B0C0D0E, 0x0A010203, ttl=17, tos=0x40,
                              ident=77)
    header = packet[POS_HEADER_BYTES:POS_HEADER_BYTES + 20]
    assert header[0] == 0x45
    assert header[1] == 0x40
    assert header[8] == 17
    assert int.from_bytes(header[4:6], "big") == 77
    assert int.from_bytes(header[12:16], "big") == 0x0B0C0D0E
    assert int.from_bytes(header[16:20], "big") == 0x0A010203


def test_checksum_verifies_to_ffff():
    packet = make_ipv4_packet(1, 2)
    header = packet[POS_HEADER_BYTES:POS_HEADER_BYTES + 20]
    total = 0
    for i in range(0, 20, 2):
        total += int.from_bytes(header[i:i + 2], "big")
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    assert total == 0xFFFF


def test_corrupt_checksum_flag():
    good = make_ipv4_packet(1, 2)
    bad = make_ipv4_packet(1, 2, corrupt_checksum=True)
    assert good[POS_HEADER_BYTES + 10: POS_HEADER_BYTES + 12] != \
        bad[POS_HEADER_BYTES + 10: POS_HEADER_BYTES + 12]


def test_ipv6_packet_fields():
    packet = make_ipv6_packet(0x2001_0db8_0000_0001, 0x2001_0db8_0001_0002,
                              hop_limit=9)
    assert int.from_bytes(packet[2:4], "big") == PPP_IPV6
    header = packet[POS_HEADER_BYTES:]
    assert (header[0] >> 4) == 6
    assert header[7] == 9
    assert int.from_bytes(header[24:32], "big") == 0x2001_0db8_0001_0002


def test_generator_is_seeded_and_deterministic():
    config = TrafficConfig(seed=5, count=20)
    a = TrafficGenerator(config).ipv4_stream()
    b = TrafficGenerator(TrafficConfig(seed=5, count=20)).ipv4_stream()
    c = TrafficGenerator(TrafficConfig(seed=6, count=20)).ipv4_stream()
    assert a == b
    assert a != c


def test_generator_draws_from_routable_prefixes():
    prefixes = [(0x0A000000, 8)]
    generator = TrafficGenerator(TrafficConfig(seed=1, count=30),
                                 ipv4_prefixes=prefixes)
    for packet in generator.ipv4_stream():
        dst = int.from_bytes(packet[POS_HEADER_BYTES + 16:
                                    POS_HEADER_BYTES + 20], "big")
        assert (dst >> 24) == 0x0A


def test_min_size_only_flag():
    generator = TrafficGenerator(TrafficConfig(seed=2, count=30,
                                               min_size_only=True))
    assert all(len(p) == MIN_PACKET_BYTES for p in generator.ipv4_stream())
    mixed = TrafficGenerator(TrafficConfig(seed=2, count=30,
                                           min_size_only=False))
    assert len({len(p) for p in mixed.ipv4_stream()}) > 1


def test_bad_fraction_produces_corrupt_packets():
    generator = TrafficGenerator(TrafficConfig(seed=3, count=60,
                                               bad_fraction=0.5))
    def checks_out(packet):
        header = packet[POS_HEADER_BYTES:POS_HEADER_BYTES + 20]
        total = 0
        for i in range(0, 20, 2):
            total += int.from_bytes(header[i:i + 2], "big")
        while total > 0xFFFF:
            total = (total & 0xFFFF) + (total >> 16)
        return total == 0xFFFF
    results = [checks_out(p) for p in generator.ipv4_stream()]
    assert any(results) and not all(results)


def test_mixed_stream_interleaves():
    generator = TrafficGenerator(TrafficConfig(seed=4, count=10))
    stream = generator.mixed_stream()
    protocols = [int.from_bytes(p[2:4], "big") for p in stream]
    assert PPP_IPV4 in protocols and PPP_IPV6 in protocols


def test_checksum_helper_zero_header():
    assert ipv4_checksum(bytes(20)) == 0xFFFF


# -- goldens: every stream is byte-identical to the byte-loop generator ------

#: SHA-256 over each stream's length-prefixed packets (48 per stream),
#: keyed by (stream, bad_fraction, min_size_only, seed).
STREAM_DIGESTS = {
    ("ipv4", 0.0, True, 1):
        "a745a4f8dbb80d0a4d91420754429f047f5860ba968883869bf7f32dae05c2cf",
    ("ipv4", 0.0, True, 7):
        "8342f740c9b1a0fcf06ca81db5fa043ca4502a95554752dcee7e36459fefe321",
    ("ipv4", 0.0, True, 20050612):
        "3586ee87a9e3d3e02d657ecc40e4c7e54d3a13d2dbc3419f7ce995ac0a6ce226",
    ("ipv4", 0.0, False, 1):
        "adb615a7dc5889a11f99cc859df0058a7826492d8b3c0d268e9211d4fcf37ac3",
    ("ipv4", 0.0, False, 7):
        "d23defc894c76c64dd039098979497a7470a58e5bc2c3283dd0129f4a7bb6288",
    ("ipv4", 0.0, False, 20050612):
        "770fff5d59cf384fd0d37c1c0454d72d06aa9f8ac5fdbf86e25e68b2c53661a6",
    ("ipv4", 0.25, True, 1):
        "1c15d339929ee0b4b41631e12030a8013008a32657f87a7008f756995c35e710",
    ("ipv4", 0.25, True, 7):
        "830e4c988d242359ad3860d65fadd4e5e16a612f2b696eed399d6214df0841d3",
    ("ipv4", 0.25, True, 20050612):
        "8c68859322294116c7db0b58179cdf7b60ee693eae5265f590cf43e193ae65bf",
    ("ipv4", 0.25, False, 1):
        "ad6ff71170fee7462927da77e45becfbdbc44d99e2f49864526a9ce4d2f30524",
    ("ipv4", 0.25, False, 7):
        "8177c93482d336561ef4de13024f647181c492f7b57e8613d985d7e8e695d045",
    ("ipv4", 0.25, False, 20050612):
        "190a999cfb15e51b56ad27857fcdc9b4f869f7bcb3ae9c7875c8495fd12ce9d3",
    ("ipv6", 0.0, True, 1):
        "58c4621471bf8648d9b4c68ea063ce4d85ac773c53032b8c81004510c73db833",
    ("ipv6", 0.0, True, 7):
        "0d010327d39d9997fc6951911c1a8cd080c0cf96e4493d7091c5a6add86ff459",
    ("ipv6", 0.0, True, 20050612):
        "b2b8bd792ba9dad82e9b04650e238e3c5a267b5fd6b6eb3a7ba7f797fc22a9e3",
    ("ipv6", 0.0, False, 1):
        "dd62e70c832f35862667dc4c61f99752594c2cfa4c36c0bbfe601879a34097dc",
    ("ipv6", 0.0, False, 7):
        "c007c38b3968a8f8ff740a96b980ab318670812e21705b5a9030243e09cc8d77",
    ("ipv6", 0.0, False, 20050612):
        "dcf9ac471a8d0cf4ca14b50f8356ccbd145ae059ed8195dbdfe868b049c7c2d9",
    ("ipv6", 0.25, True, 1):
        "58c4621471bf8648d9b4c68ea063ce4d85ac773c53032b8c81004510c73db833",
    ("ipv6", 0.25, True, 7):
        "0d010327d39d9997fc6951911c1a8cd080c0cf96e4493d7091c5a6add86ff459",
    ("ipv6", 0.25, True, 20050612):
        "b2b8bd792ba9dad82e9b04650e238e3c5a267b5fd6b6eb3a7ba7f797fc22a9e3",
    ("ipv6", 0.25, False, 1):
        "dd62e70c832f35862667dc4c61f99752594c2cfa4c36c0bbfe601879a34097dc",
    ("ipv6", 0.25, False, 7):
        "c007c38b3968a8f8ff740a96b980ab318670812e21705b5a9030243e09cc8d77",
    ("ipv6", 0.25, False, 20050612):
        "dcf9ac471a8d0cf4ca14b50f8356ccbd145ae059ed8195dbdfe868b049c7c2d9",
    ("mixed", 0.0, True, 1):
        "ae09ea98662f8d5bd6b84d436b52109609435607521ccbc17e9297ac31dcb193",
    ("mixed", 0.0, True, 7):
        "daac9f5fc0dd06f3e68ce94658d99853367eca18a9a33e47ddccfab1538059fd",
    ("mixed", 0.0, True, 20050612):
        "d84ec84262fdd5ecc6b52bddc31109cb3fccd58d2f9a3af66e0883e4295f1ddd",
    ("mixed", 0.0, False, 1):
        "cbd53bfe1884126c748482b39d3c5c1369928c56a25abcb155d98b0f9c625d11",
    ("mixed", 0.0, False, 7):
        "c02e45a93d80af1a62bb7f8ae4ba907438febb0b86705f6b0f3dfa32485420cb",
    ("mixed", 0.0, False, 20050612):
        "0f2209fcb1eaa3bd6d5c622ce31e8d4e90cf2af5c36470cc4c8b1e2ad28f6850",
    ("mixed", 0.25, True, 1):
        "e6fb4e63a6b6084178310c1dc90eb07350d3e1cc6999308643ebf4ee7204ec60",
    ("mixed", 0.25, True, 7):
        "a08bcab5f41d70462e73dcf2d0ff4c233ff87fcc77ed5bc0c1a79712b925b410",
    ("mixed", 0.25, True, 20050612):
        "6f861feef92fdda0b1332f518860e0b02d724b0de2e32d06b710ad4def300e00",
    ("mixed", 0.25, False, 1):
        "ae2989993a27bb1764fb689d3233a2b724fd7b3465f58fa154d7f5465cbcac9b",
    ("mixed", 0.25, False, 7):
        "e3c43746ea704dc1c54aaa0a8d49d0ccfd6280d2697e227b75fb157243fe9060",
    ("mixed", 0.25, False, 20050612):
        "6435b3d96f3c4ffaff9de9f2dc6aa07effc59eadcd4d1e0498c2706383f6cc8d",
}


@pytest.mark.parametrize("key", sorted(STREAM_DIGESTS), ids=str)
def test_stream_matches_its_golden_digest(key):
    kind, bad_fraction, min_size_only, seed = key
    generator = TrafficGenerator(TrafficConfig(
        seed=seed, count=48, min_size_only=min_size_only,
        bad_fraction=bad_fraction))
    digest = hashlib.sha256()
    for packet in getattr(generator, f"{kind}_stream")():
        digest.update(len(packet).to_bytes(2, "big"))
        digest.update(packet)
    assert digest.hexdigest() == STREAM_DIGESTS[key]


@pytest.mark.parametrize("header, checksum", [
    ("0000000000000000000000000000000000000000", 0xFFFF),
    ("000102030405060708090a0b0c0d0e0f10111213", 0xA59B),
    ("fffefdfcfbfaf9f8f7f6f5f4f3f2f1f0efeeedec", 0x5A64),
    ("4500002e0000000040110000c0a800010a010203", 0xAE12),
    ("45000030abcd00000206ffffffffffff0a000001", 0x02FB),
])
def test_checksum_golden(header, checksum):
    assert ipv4_checksum(bytes.fromhex(header)) == checksum


def test_packet_golden_with_every_field_out_of_range():
    """Every field is masked to its width, the payload follows the
    header's length, and a corrupt checksum flips the right bits."""
    packet = make_ipv4_packet(0x1C0A80001, 0x0A010203, total_bytes=100,
                              ttl=300, tos=0x1C0, ident=0x12345, proto=6,
                              corrupt_checksum=True)
    assert packet.hex() == (
        "ff03002145c00060234500002c06c8b3c0a800010a0102030b30557a9fc4e90e"
        "33587da2c7ec11365b80a5caef14395e83a8cdf2173c6186abd0f51a3f6489ae"
        "d3f81d42678cb1d6fb20456a8fb4d9fe23486d92b7dc01264b7095badf04294e"
        "7398bde2")
    assert make_ipv4_packet(7, 9, total_bytes=24).hex() == (
        "ff030021450000140000000040117aca0000000700000009")
