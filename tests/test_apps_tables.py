"""Tests for route-table construction (host side)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.tables import (
    LEAF_FLAG,
    POINTER_FLAG,
    Ipv4RouteTable,
    Ipv6RouteTable,
    leaf_entry,
    pointer_entry,
)


def test_entry_encoding_roundtrip():
    entry = leaf_entry(port=5, next_hop=321)
    assert entry & LEAF_FLAG
    assert (entry >> 16) & 0xFF == 5
    assert entry & 0xFFFF == 321
    pointer = pointer_entry(42)
    assert pointer & POINTER_FLAG
    assert pointer & 0xFFFF == 42


def test_longest_prefix_match_nesting():
    table = Ipv4RouteTable()
    table.add_route(0x0A000000, 8, 1, 100)
    table.add_route(0x0A010000, 16, 2, 200)
    table.add_route(0x0A010200, 24, 3, 300)
    table.add_route(0x0A010203, 32, 4, 400)
    assert table.lookup(0x0A5A5A5A) == (1, 100)
    assert table.lookup(0x0A01FFFF) == (2, 200)
    assert table.lookup(0x0A0102FF) == (3, 300)
    assert table.lookup(0x0A010203) == (4, 400)
    assert table.lookup(0x0B000000) is None


def test_shorter_prefix_added_after_longer():
    table = Ipv4RouteTable()
    table.add_route(0x0A010200, 24, 3, 300)
    table.add_route(0x0A000000, 8, 1, 100)
    assert table.lookup(0x0A010299) == (3, 300)
    assert table.lookup(0x0A990000) == (1, 100)


def test_default_route_not_supported_by_zero_entry():
    table = Ipv4RouteTable()
    table.add_route(0xC0A80000, 16, 0, 1)
    assert table.lookup(0x01020304) is None


def test_ipv4_regions_fit_pps_layout():
    table = Ipv4RouteTable()
    for index in range(20):
        table.add_route((10 << 24) | (index << 16), 16, index % 4, index)
    level1, nodes = table.build()
    assert len(level1) == 1 << 16
    assert len(nodes) % 256 == 0


def test_ipv4_random_matches_naive_lpm():
    rng = random.Random(11)
    table = Ipv4RouteTable()
    routes = []
    for _ in range(50):
        plen = rng.choice([8, 12, 16, 20, 24, 28, 32])
        prefix = rng.getrandbits(32) & ((0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF)
        port, hop = rng.randint(0, 7), rng.randint(1, 999)
        table.add_route(prefix, plen, port, hop)
        routes.append((prefix, plen, port, hop))

    def naive(address):
        best, best_len = None, -1
        for prefix, plen, port, hop in routes:
            if plen >= best_len and (address >> (32 - plen)) == (prefix >> (32 - plen)):
                best, best_len = (port, hop), plen
        return best

    for _ in range(1500):
        address = rng.getrandbits(32)
        assert table.lookup(address) == naive(address)


def test_ipv6_basic_lpm():
    table = Ipv6RouteTable()
    table.add_route(0x2001_0db8_0000_0000, 32, 1, 11)
    table.add_route(0x2001_0db8_0001_0000, 48, 2, 22)
    assert table.lookup(0x2001_0db8_9999_0000) == (1, 11)
    assert table.lookup(0x2001_0db8_0001_7777) == (2, 22)
    assert table.lookup(0x3001_0000_0000_0000) is None


def test_ipv6_root_is_block_zero():
    table = Ipv6RouteTable()
    table.add_route(0xFD00_0000_0000_0000, 8, 3, 33)
    nodes = table.build()
    entry = nodes[0xFD]  # direct hit in the root block
    assert entry & LEAF_FLAG


def test_ipv6_rejects_prefixes_beyond_64():
    table = Ipv6RouteTable()
    with pytest.raises(ValueError):
        table.add_route(0x2001_0db8_0000_0000, 96, 1, 1)


def test_bad_prefix_length_rejected():
    table = Ipv4RouteTable()
    with pytest.raises(ValueError):
        table.add_route(0x0A000000, 0, 1, 1)
    with pytest.raises(ValueError):
        table.add_route(0x0A000000, 33, 1, 1)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**32 - 1),
                          st.sampled_from([8, 16, 24, 32]),
                          st.integers(0, 3),
                          st.integers(1, 100)),
                min_size=1, max_size=12),
       st.integers(0, 2**32 - 1))
def test_ipv4_property_vs_naive(route_specs, probe):
    table = Ipv4RouteTable()
    routes = []
    for raw_prefix, plen, port, hop in route_specs:
        prefix = raw_prefix & ((0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF)
        table.add_route(prefix, plen, port, hop)
        routes.append((prefix, plen, port, hop))

    def naive(address):
        best, best_len = None, -1
        for prefix, plen, port, hop in routes:
            if plen >= best_len and (address >> (32 - plen)) == (prefix >> (32 - plen)):
                best, best_len = (port, hop), plen
        return best

    assert table.lookup(probe) == naive(probe)


# -- the benchmark tables are built once per process -------------------------


def test_benchmark_tables_are_memoised_and_cannot_be_written_through():
    from repro.apps.suite import (
        build_app,
        build_ipv4_tables,
        build_ipv6_tables,
    )
    from repro.runtime import MachineState

    level1, nodes = build_ipv4_tables()
    nodes6 = build_ipv6_tables()
    assert build_ipv4_tables()[0] is level1 and build_ipv6_tables() is nodes6
    # Equal to an independent, un-memoised construction.
    rebuilt = build_ipv4_tables.__wrapped__()
    assert rebuilt == (level1, nodes) and rebuilt[0] is not level1
    assert build_ipv6_tables.__wrapped__() == nodes6
    for table in (level1, nodes, nodes6):
        with pytest.raises(TypeError):
            table[0] = 0xBAD
    # A readonly region the table fills exactly holds the tuple itself,
    # which refuses the scribble; a partly filled one gets a copy, and
    # scribbling on that leaves the shared table, and the next state
    # loaded from it, untouched.
    app = build_app("ip_v4", packets=4)
    state, _ = app.fresh_state()
    assert state.regions["rt_l1"] is level1
    with pytest.raises(TypeError):
        state.regions["rt_l1"][0] = 0xBAD
    state.regions["rt6_nodes"][0] = 0xBAD
    assert build_ipv6_tables()[0] != 0xBAD
    other = MachineState(app.module)
    app.feed(other, app.stream())
    assert other.regions["rt_l1"] is level1
    assert other.regions["rt6_nodes"][:len(nodes6)] == list(nodes6)
