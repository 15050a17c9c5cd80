"""Inputs: the programs a workload compiles and the packets it feeds.

Everything here is a function of the workload seed and the scale; the
program under test only ever sees the generated sources and packets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

#: The six suite sources in paper order, with the app whose traffic
#: feeds each; a scaled-down run keeps the cheapest to compile.
SUITE = [("rx", "rx"), ("ipv4", "ipv4"), ("ip", "ip_v4"),
         ("scheduler", "scheduler"), ("qm", "qm"), ("tx", "tx")]
CHEAPEST_FIRST = ["qm", "scheduler", "tx", "rx", "ipv4", "ip"]
SUITE_DEGREES = (2, 5, 9)
RANDOM_PROGRAMS = 24
RANDOM_DEGREES = (2, 4)
#: Random programs drawn per program kept.  Compile cost follows source
#: size (r = 0.94 over 120 programs) and sizes run from 0.3 to 4 kB, so
#: 24 plain draws move a cold pass by +-5 % with the seed alone; the
#: programs at 24 evenly spaced size ranks of 240 draws move it by 2 %.
DRAWS_PER_PROGRAM = 10
#: Packets of the equivalence-checked simulation that ends each compile
#: cell (correctness only, timed apart), and the traffic seed of those
#: simulations: the simulated metrics they yield should move with the
#: partitioner, not with the workload seed.
CHECK_PACKETS = 60
CHECK_SEED = 7


@dataclass
class Program:
    """One source to compile at some degrees, plus how to feed it."""

    name: str
    source: str
    pps: str
    degrees: tuple
    #: ``feed(module) -> (state, iterations)``: a populated fresh state.
    feed: Callable = field(repr=False, default=None)
    #: Profile-dimensioned balancing for multi-path PPSes (the IP PPS);
    #: its output feeds the cache key, so warm compiles pay for it too.
    profiler: Callable = field(repr=False, default=None)


def scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(count * scale))


def app_feeder(app, stream=None):
    """A feeder that loads ``app``'s tables and traffic into a fresh
    state of whichever module it is given (the recipe only touches
    regions, pipes and devices by name)."""
    from repro import MachineState

    def feed(module):
        state = MachineState(module)
        if stream is not None:
            return state, app.feed(state, stream)
        return state, app.setup(state)

    return feed


def random_feeder(seed: int, packets: int):
    """Tables and input words for a ``random_pps_source`` program."""
    from repro import MachineState

    def feed(module):
        state = MachineState(module)
        for table in range(2):
            if f"tab{table}" in state.regions:
                state.load_region(
                    f"tab{table}",
                    [(index * 13 + table) % 97 for index in range(32)])
        state.feed_pipe("in_q", [(index * 31 + seed) % 251
                                 for index in range(packets)])
        return state, packets

    return feed


def suite_programs(rec, seed: int, scale: float) -> tuple[list, list]:
    """The suite sources at a few degrees, and the random programs drawn
    from ``seed``; both lists are compiled, checked and timed alike.
    Only the first is the same under every seed, so only its cells count
    toward ``model_speedup_geomean``, which then moves with the
    partitioner and not with the draw."""
    from repro.apps.suite import build_app
    from repro.eval.metrics import make_profiler
    from repro.testing.progen import random_pps_source

    programs = []
    keep = set(CHEAPEST_FIRST[:scaled(len(SUITE), scale)])
    degrees = SUITE_DEGREES[:scaled(len(SUITE_DEGREES), scale)]
    for name, app_name in SUITE:
        if name not in keep:
            continue
        with rec.span("apps.build"):
            app = build_app(app_name, packets=CHECK_PACKETS, seed=CHECK_SEED)
        programs.append(Program(name, app.source, app.pps_name, degrees,
                                feed=app_feeder(app),
                                profiler=make_profiler(app)))
    count = scaled(RANDOM_PROGRAMS, scale, floor=2)
    rng = random.Random(seed)
    with rec.span("setup.inputs"):
        draws = [rng.randrange(1 << 30)
                 for _ in range(count * DRAWS_PER_PROGRAM)]
        # Without local arrays: progen can read an array slot before
        # writing it, and the sequential and pipelined runs then
        # legitimately differ (see bench/README.md).
        pool = sorted(((random_pps_source(draw, use_arrays=False), draw)
                       for draw in draws), key=lambda pair: len(pair[0]))
        chosen = pool[DRAWS_PER_PROGRAM // 2::DRAWS_PER_PROGRAM]
    seeded = [Program(f"random{index}", source, "generated", RANDOM_DEGREES,
                      feed=random_feeder(draw, CHECK_PACKETS))
              for index, (source, draw) in enumerate(chosen)]
    return programs, seeded
