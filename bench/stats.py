"""Small statistics and the checks that turn wrong outputs into failed ops.

Timings are reported as medians; a tail is reported as a percentile only
when at least ten samples lie beyond it, so a "p99" is never the maximum
of a short list in disguise.
"""

from __future__ import annotations

import math
import re
import statistics

#: A percentile is only trusted with this many samples beyond it.
MIN_BEYOND = 10


def metric(value: float, unit: str, n: int) -> dict:
    """One printed metric: the value as measured, its unit, its sample
    count."""
    return {"value": value, "unit": unit, "n": n}


def median(values) -> float:
    return statistics.median(values)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; ``pct=100`` is the maximum."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def highest_percentile(count: int) -> float:
    """The highest of p99 / p95 / p90 / p75 that has at least
    ``MIN_BEYOND`` of ``count`` samples strictly beyond it (p50 if none
    has)."""
    for pct in (99.0, 95.0, 90.0, 75.0):
        if count - max(1, math.ceil(pct / 100.0 * count)) >= MIN_BEYOND:
            return pct
    return 50.0


def gaps(stamps: list[float]) -> list[float]:
    """Gaps between consecutive completion stamps of one closed loop."""
    return [later - earlier for earlier, later in zip(stamps, stamps[1:])]


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(value) for value in values) / len(values))


# -- correctness: a wrong output is a failed op, never a timed success --------


def equivalent(expected, actual) -> str | None:
    """``None`` when two observations match, else the mismatch digest.

    Goes through ``repro.assert_equivalent`` so the benchmark counts
    exactly what the repo's own equivalence oracle rejects.
    """
    from repro import assert_equivalent

    try:
        assert_equivalent(expected, actual)
    except AssertionError as exc:
        return str(exc).splitlines()[0]
    return None


_BATCH = re.compile(r"shard (\d+) batch (\d+):")


def mismatched_batches(mismatches: list[str]) -> set[tuple[int, int]]:
    """The distinct (shard, batch) pairs named by ``compare_deltas`` /
    ``ServeReport.mismatches`` lines (a batch whose tx *and* traces
    diverge is one failed op, not two)."""
    batches = set()
    for line in mismatches:
        match = _BATCH.search(line)
        batches.add((int(match.group(1)), int(match.group(2)))
                    if match else (-1, len(batches)))
    return batches


class Ledger:
    """Ops attempted and ops failed, by key, so that a cell that compiles
    but then simulates wrongly is one failed op, not one of each."""

    def __init__(self):
        self.attempted: set = set()
        self.failed: dict = {}

    def attempt(self, key) -> None:
        self.attempted.add(key)

    def fail(self, key, note: str) -> None:
        self.attempted.add(key)
        self.failed.setdefault(key, note)

    def fail_all(self, keys, note: str) -> None:
        for key in keys:
            self.fail(key, note)
