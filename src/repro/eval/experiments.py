"""The paper's evaluation numbers (paper §4), from one function.

:func:`figures_record` is the verified ``repro explore`` report over
every distinct PPS of

* Figure 19 — speedup vs pipelining degree, IPv4 forwarding PPSes
  (RX, IPv4, Scheduler, QM, TX);
* Figure 20 — speedup vs degree, IP forwarding PPSes (RX, IP with IPv4
  traffic, IP with IPv6 traffic, TX);
* Figures 21 / 22 — live-set transmission overhead vs degree for the
  same two applications;
* the §4 headline: ">4X speedup at 9 stages" for the IPv4 and IP PPSes

at the default knobs — pure fields, no clock — and each figure series is
:func:`figure_series` of its cells.  The committed ``BENCH_headline.json``
*is* the record at the default grid (``repro figures -o``, and a default
``repro explore``'s ``frontier.json``); tier-1 regenerates it and asserts
equality (``tests/test_paper_numbers.py``).  Whether something got
*slower* is ``bench/run.py``'s question, not this module's.
"""

from __future__ import annotations

from repro.apps.suite import (
    FIGURE_APPS,
    IP_FORWARDING_PPSES,
    IPV4_FORWARDING_PPSES,
)

#: Figures 19–22 as (title, apps, metric, value format): Figures 21/22
#: plot the live-set overhead of Figure 19/20's applications.
FIGURES = (
    ("Figure 19: speedup, IPv4 forwarding PPSes", IPV4_FORWARDING_PPSES,
     "speedup", "{:6.2f}"),
    ("Figure 20: speedup, IP forwarding PPSes", IP_FORWARDING_PPSES,
     "speedup", "{:6.2f}"),
    ("Figure 21: live-set overhead, IPv4 forwarding", IPV4_FORWARDING_PPSES,
     "overhead", "{:6.3f}"),
    ("Figure 22: live-set overhead, IP forwarding", IP_FORWARDING_PPSES,
     "overhead", "{:6.3f}"),
)


def figures_record(*, packets: int = 60, seed: int = 7,
                   degrees: list[int] | None = None,
                   jobs: int = 1) -> dict:
    """The verified explore report over :data:`FIGURE_APPS` and
    ``degrees`` (default 1–9) at the default knobs.

    Exactly :func:`~repro.eval.explore.deterministic_report` of
    :func:`~repro.eval.explore.explore`: one row per *distinct* app,
    every cell verified by the supervisor, every pipelined run checked
    observationally equivalent to the sequential one.  A cell the
    verifier rejects is a :class:`~repro.eval.sweep.SweepError` naming
    it, never a number.  Always solved cold: a cached
    artifact carries the work counters of whichever command solved it
    first, so only an uncached run is a pure function of the source —
    the same record at any ``jobs`` level, on any host.
    """
    from repro.eval.explore import SearchSpace, deterministic_report, explore

    space = SearchSpace(apps=FIGURE_APPS,
                        degrees=tuple(degrees or range(1, 10)),
                        packets=packets, seed=seed)
    return deterministic_report(explore(space, jobs=jobs))


def figure_series(record: dict, apps, metric: str) -> dict:
    """``{app: {degree: value}}`` of one cell metric over ``apps``: a
    figure's curves (:data:`FIGURES`), or the headline at the top degree."""
    return {app: {cell["config"]["degree"]: cell["metrics"][metric]
                  for cell in record["apps"][app]["cells"]}
            for app in apps}
