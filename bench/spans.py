"""The benchmark's own span recorder.

Spans are recorded from ``bench/`` around calls into each layer's public
functions; nothing is added inside ``src/``.  Everything stays in memory
and is written once, when the run ends, as a Chrome trace plus a
self-time table (a span's duration minus the part covered by its child
spans).  A disabled recorder costs one attribute test per span, which is
what the untraced runs use.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    """Nested spans and additive counts for one run of one workload."""

    def __init__(self, enabled: bool, workload: str = "", run_id: str = ""):
        self.enabled = enabled
        self.workload = workload
        self.run_id = run_id
        # One row per span: [name, start, end, parent index or None].
        self.rows: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.rows)
        parent = self._stack[-1] if self._stack else None
        row = [name, perf_counter(), None, parent]
        self.rows.append(row)
        self._stack.append(index)
        try:
            yield
        finally:
            row[2] = perf_counter()
            self._stack.pop()

    def interval(self, name: str, start: float, end: float) -> None:
        """A finished child of the open span whose ends are events (a
        first commit, a last commit), not the entry and exit of a call."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            self.rows.append([name, start, end, parent])

    def count(self, name: str, value: float = 1) -> None:
        """Add to a count taken at a layer boundary (traced runs only)."""
        if self.enabled:
            self.counts[name] += value

    # -- read-out ------------------------------------------------------

    def total(self, name: str) -> float:
        """Seconds inside spans called ``name`` (they never self-nest)."""
        return sum(self.durations(name))

    def durations(self, name: str) -> list[float]:
        return [end - start for span, start, end, _ in self.rows
                if span == name and end is not None]

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus child-covered time."""
        own = [end - start for _, start, end, _ in self.rows]
        for _, start, end, parent in self.rows:
            if parent is not None:
                own[parent] -= end - start
        table: dict[str, float] = defaultdict(float)
        for row, seconds in zip(self.rows, own):
            table[row[0]] += seconds
        return dict(table)

    def chrome_trace(self) -> dict:
        """``chrome://tracing`` / Perfetto JSON of every span."""
        events = []
        for index, (name, start, end, parent) in enumerate(self.rows):
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "pid": 1, "tid": 1,
                "ts": round(start * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": index, "parent": parent,
                         "workload": self.workload, "run": self.run_id},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
