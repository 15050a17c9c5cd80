"""Property oracle for max-flow / min-cut (no networkx in the loop).

Unlike ``test_flownet_maxflow.py`` — which cross-checks the push-relabel
solver against networkx — this file checks the *theorems* the pipeliner
relies on, with a brute-force min-cut enumerator as the independent
oracle:

* max-flow value == minimum cut weight over **all** source/sink
  bipartitions (exhaustively enumerated, so the oracle cannot share a
  bug with any flow algorithm);
* the cut the solver reports has exactly that weight;
* a finite-value min cut never separates two nodes of an SCC connected
  by ``INFINITE_CAPACITY`` edges.  This is the invariant stage selection
  leans on when it contracts chosen units into the source with ∞ edges
  (``repro.flownet.model``): if a cut split such an SCC, some ∞ edge of
  the cycle would cross source-side → sink-side and the cut value would
  be ≥ INFINITE_CAPACITY, contradicting a finite max flow.

Networks are generated progen-style from seeded ``random.Random``
instances so every case is reproducible from its parametrized seed.
"""

import random
from itertools import combinations

import pytest

from repro.analysis.graph import Digraph, strongly_connected_components
from repro.flownet.network import INFINITE_CAPACITY, FlowNetwork
from repro.flownet.push_relabel import PushRelabel

from test_flownet_maxflow import cut_value

_INF_THRESHOLD = INFINITE_CAPACITY // 2


def random_network(seed: int) -> FlowNetwork:
    """A small random s-t network; sometimes with ∞-capacity cycles.

    Node 0 is the source, node ``n - 1`` the sink.  ∞ edges are only
    placed on cycles among intermediate nodes, so a finite s-t cut
    always exists (all intermediates on the source side leaves only
    finite sink edges crossing).
    """
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    net = FlowNetwork()
    for node in range(n):
        net.add_node(node, weight=1)
    for src in range(n):
        for dst in range(n):
            if src == dst or dst == 0 or src == n - 1:
                continue
            if rng.random() < 0.45:
                net.add_edge(src, dst, rng.randint(1, 20))
    if rng.random() < 0.6 and n >= 5:
        # A directed ∞ cycle among 2-3 intermediates: an atom no finite
        # cut may split (the colocation/contraction idiom of the model).
        size = rng.randint(2, 3)
        cycle = rng.sample(range(1, n - 1), size)
        for i, node in enumerate(cycle):
            net.add_edge(node, cycle[(i + 1) % size], INFINITE_CAPACITY)
    net.set_source(0)
    net.set_sink(n - 1)
    return net


def brute_force_min_cut(net: FlowNetwork) -> tuple[int, set]:
    """Exhaustively enumerate source-side sets; return (weight, side).

    The cut weight of a side S (source ∈ S, sink ∉ S) is the total
    capacity of edges leaving S.  With ≤ 6 intermediates this is ≤ 64
    subsets — small enough to be an oracle, too slow to be a solver.
    """
    nodes = [node for node in range(net.node_count)
             if node not in (net.source, net.sink)]
    best_weight, best_side = None, None
    for size in range(len(nodes) + 1):
        for chosen in combinations(nodes, size):
            side = {net.source, *chosen}
            weight = sum(edge.cap for edge in net.edges
                         if edge.src in side and edge.dst not in side)
            if best_weight is None or weight < best_weight:
                best_weight, best_side = weight, side
    return best_weight, best_side


def infinite_sccs(net: FlowNetwork) -> list[set]:
    """Non-trivial SCCs of the ∞-capacity-edge subgraph."""
    graph = Digraph()
    for node in range(net.node_count):
        graph.add_node(node)
    for edge in net.edges:
        if edge.cap >= _INF_THRESHOLD:
            graph.add_edge(edge.src, edge.dst)
    return [set(scc) for scc in strongly_connected_components(graph)
            if len(scc) > 1]


@pytest.mark.parametrize("seed", range(60))
def test_flow_value_equals_brute_force_min_cut(seed):
    net = random_network(seed)
    flow = PushRelabel(net).max_flow()
    want, _ = brute_force_min_cut(net)
    assert flow == want


@pytest.mark.parametrize("seed", range(60))
def test_reported_cut_is_minimum(seed):
    net = random_network(seed)
    solver = PushRelabel(net)
    flow = solver.max_flow()
    side = solver.min_cut_source_side()
    assert net.source in side and net.sink not in side
    assert cut_value(net, side) == flow
    want, _ = brute_force_min_cut(net)
    assert cut_value(net, side) == want


@pytest.mark.parametrize("seed", range(60))
def test_min_cut_never_splits_infinite_scc(seed):
    net = random_network(seed)
    solver = PushRelabel(net)
    flow = solver.max_flow()
    assert flow < _INF_THRESHOLD  # a finite cut always exists by construction
    side = solver.min_cut_source_side()
    for scc in infinite_sccs(net):
        inside = scc & side
        assert inside in (set(), scc), (
            f"cut split ∞-SCC {scc}: source side holds {inside}"
        )
    # The brute-force side obeys the same invariant: any splitting side
    # would weigh ≥ INFINITE_CAPACITY and lose the minimization.
    weight, brute_side = brute_force_min_cut(net)
    assert weight < _INF_THRESHOLD
    for scc in infinite_sccs(net):
        inside = scc & brute_side
        assert inside in (set(), scc)
