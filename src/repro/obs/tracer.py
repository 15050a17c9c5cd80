"""Span/event tracing in Chrome trace format (the observability core).

One :class:`Tracer` collects timestamped events — *spans* (``"X"``
complete events with a duration), *instants* (``"i"``), and *counters*
(``"C"``) — and serializes them as Chrome-trace-format JSON, loadable in
``chrome://tracing`` or https://ui.perfetto.dev.

Instrumentation sites never hold a tracer; they call the module-level
hooks (:func:`span`, :func:`instant`, :func:`counter`), which consult the
currently *installed* tracer.  When none is installed — the default — the
hooks return immediately (``span`` hands back a shared no-op context
manager), so tracing that is disabled costs one ``None`` check per
*phase boundary*, never per simulated instruction; the interpreter and
scheduler hot loops carry no hooks at all (runtime counters are read out
of :class:`~repro.runtime.interp.InterpStats` and the always-on pipe /
wake-hub tallies after the run).  The overhead guard in
``tests/test_obs_overhead.py`` enforces this.

Install a tracer for a region with::

    from repro.obs import Tracer, tracing

    with tracing() as tracer:
        ...  # anything that runs here is recorded
    tracer.write("trace.json")

Timestamps are microseconds from the tracer's creation
(``perf_counter_ns`` based), the unit the Chrome trace viewer expects.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns

#: Synthetic process id for every event (one simulated machine).
TRACE_PID = 1

#: Thread-id lanes of the trace (Chrome renders one row per tid).
TID_COMPILE = 0   # compile phases: normalize, SSA, cuts, realize, ...
TID_RUNTIME = 1   # simulation spans and runtime counter events


class _NullSpan:
    """Shared no-op context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """An open span; appends one ``"X"`` complete event on exit."""

    __slots__ = ("tracer", "name", "cat", "tid", "args", "start")

    def __init__(self, tracer: "Tracer", name: str, cat: str, tid: int,
                 args: dict):
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.tid = tid
        self.args = args
        self.start = tracer.now()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        event = {
            "name": self.name,
            "cat": self.cat,
            "ph": "X",
            "ts": self.start,
            "dur": tracer.now() - self.start,
            "pid": TRACE_PID,
            "tid": self.tid,
        }
        if self.args:
            event["args"] = self.args
        tracer.events.append(event)
        return False


class Tracer:
    """Collects trace events; serializes to Chrome trace format."""

    def __init__(self):
        self.events: list[dict] = []
        self._t0 = perf_counter_ns()
        self._thread_names: dict[int, str] = {}
        self.name_thread(TID_COMPILE, "compile")
        self.name_thread(TID_RUNTIME, "runtime")

    def now(self) -> float:
        """Microseconds since the tracer was created."""
        return (perf_counter_ns() - self._t0) / 1000.0

    def name_thread(self, tid: int, name: str) -> None:
        """Label a tid lane (shown as the row name in the viewer)."""
        self._thread_names[tid] = name

    def span(self, name: str, *, cat: str = "", tid: int = TID_COMPILE,
             **args) -> _Span:
        return _Span(self, name, cat, tid, args)

    def instant(self, name: str, *, cat: str = "", tid: int = TID_COMPILE,
                **args) -> None:
        event = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "s": "t",
            "ts": self.now(),
            "pid": TRACE_PID,
            "tid": tid,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def counter(self, name: str, values: dict, *, cat: str = "counters",
                tid: int = TID_RUNTIME) -> None:
        """One ``"C"`` counter sample (``values``: series name -> number)."""
        self.events.append({
            "name": name,
            "cat": cat,
            "ph": "C",
            "ts": self.now(),
            "pid": TRACE_PID,
            "tid": tid,
            "args": dict(values),
        })

    # -- serialization -------------------------------------------------------

    def to_chrome(self) -> dict:
        """The Chrome trace JSON object (events sorted by timestamp)."""
        events = sorted(self.events, key=lambda event: event["ts"])
        metadata = [
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0.0,
                "pid": TRACE_PID,
                "tid": tid,
                "args": {"name": name},
            }
            for tid, name in sorted(self._thread_names.items())
        ]
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome(), handle, indent=1)
            handle.write("\n")


# -- the installed tracer and the module-level hooks -------------------------

_ACTIVE: Tracer | None = None


def active() -> Tracer | None:
    """The installed tracer, or ``None`` when tracing is off."""
    return _ACTIVE


@contextmanager
def tracing(tracer: Tracer | None = None, *, enabled: bool = True):
    """Install ``tracer`` (a fresh one by default) for the ``with`` block.

    ``enabled=False`` is the explicit off-switch: nothing is installed and
    the block runs exactly as if no tracing existed (the disabled path the
    overhead guard test measures).
    """
    global _ACTIVE
    if not enabled:
        yield None
        return
    if tracer is None:
        tracer = Tracer()
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


def span(name: str, *, cat: str = "", tid: int = TID_COMPILE, **args):
    """Open a span on the installed tracer (shared no-op when off)."""
    if _ACTIVE is None:
        return _NULL_SPAN
    return _ACTIVE.span(name, cat=cat, tid=tid, **args)


def instant(name: str, *, cat: str = "", tid: int = TID_COMPILE,
            **args) -> None:
    """Emit an instant event on the installed tracer (no-op when off)."""
    if _ACTIVE is not None:
        _ACTIVE.instant(name, cat=cat, tid=tid, **args)


def counter(name: str, values: dict, *, cat: str = "counters",
            tid: int = TID_RUNTIME) -> None:
    """Emit a counter sample on the installed tracer (no-op when off)."""
    if _ACTIVE is not None:
        _ACTIVE.counter(name, values, cat=cat, tid=tid)
