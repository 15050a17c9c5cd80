"""Observability: phase tracing, runtime counters, structured reports.

* :mod:`repro.obs.tracer` — Chrome-trace span/event tracer with a
  zero-overhead disabled path;
* :mod:`repro.obs.report` — per-stage / per-pipe / scheduler counter
  reports assembled after a run.

See ``docs/observability.md`` for the trace format and counter glossary.
"""

# tracer (no repro dependencies) must load before report (which pulls in
# repro.runtime.state): instrumented runtime modules import this package
# mid-initialization and need the ``tracer`` attribute bound first.
from repro.obs.tracer import (
    TID_COMPILE,
    TID_RUNTIME,
    Tracer,
    active,
    counter,
    instant,
    span,
    tracing,
)
from repro.obs.report import (
    PipeCounters,
    RuntimeReport,
    StageCounters,
    emit_counter_events,
    runtime_report,
)

__all__ = [
    "PipeCounters",
    "RuntimeReport",
    "StageCounters",
    "TID_COMPILE",
    "TID_RUNTIME",
    "Tracer",
    "active",
    "counter",
    "emit_counter_events",
    "instant",
    "runtime_report",
    "span",
    "tracing",
]
