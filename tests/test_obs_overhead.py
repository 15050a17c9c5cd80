"""Tracing must cost nothing when off, and change nothing when on.

Two guarantees, each with its own test:

* **Differential**: the same workload run with a tracer installed and
  with none produces byte-identical interpreter statistics and
  observationally equivalent machine states — instrumentation only
  *reads* the simulation.
* **Overhead**: running with tracing explicitly disabled
  (``tracing(enabled=False)``) is within 2% of running with no tracing
  code mentioned at all.  By construction the two paths execute the
  same code (``enabled=False`` installs nothing), so this is a tripwire
  against someone later adding per-instruction hooks or an always-on
  tracer; it measures min-of-N interleaved runs and retries to ride out
  scheduler noise.
"""

import pytest

from repro.apps.suite import build_app
from repro.eval.metrics import measure_pipeline, measure_sequential
from repro.obs import Tracer, tracing
from repro.pipeline.transform import pipeline_pps
from repro.runtime.equivalence import assert_equivalent, observe
from repro.runtime.scheduler import run_pipeline, run_sequential


def _run_workload(app):
    """Compile, partition and simulate one app; return (stats, state)."""
    transform = pipeline_pps(app.module, app.pps_name, 3)
    state, iterations = app.fresh_state()
    run = run_pipeline(transform.stages, state, iterations=iterations)
    return run.stats, state


def test_traced_run_is_bit_identical_to_untraced():
    app = build_app("ipv4", packets=24, seed=7)
    plain_stats, plain_state = _run_workload(app)
    tracer = Tracer()
    with tracing(tracer):
        traced_stats, traced_state = _run_workload(app)

    assert sorted(traced_stats) == sorted(plain_stats)
    for name, stats in plain_stats.items():
        assert traced_stats[name] == stats  # InterpStats dataclass equality
    assert_equivalent(observe(plain_state), observe(traced_state))
    # ...and the traced run actually recorded the compile + runtime story.
    names = {event["name"] for event in tracer.events}
    assert {"pipeline_pps", "balanced_cut", "cut_iteration",
            "run_group"} <= names


def test_sequential_traced_matches_untraced():
    app = build_app("rx", packets=24, seed=7)
    state_a, iterations = app.fresh_state()
    stats_a = run_sequential(app.module.pps(app.pps_name), state_a,
                             iterations=iterations)
    with tracing():
        state_b, _ = app.fresh_state()
        stats_b = run_sequential(app.module.pps(app.pps_name), state_b,
                                 iterations=iterations)
    assert stats_a == stats_b
    assert_equivalent(observe(state_a), observe(state_b))


@pytest.mark.overhead
def test_disabled_tracing_under_two_percent():
    from time import perf_counter

    app = build_app("ipv4", packets=24, seed=7)
    baseline = measure_sequential(app)

    def sweep():
        for degree in (2, 3):
            measure_pipeline(app, degree, baseline=baseline)

    def time_absent():
        start = perf_counter()
        sweep()
        return perf_counter() - start

    def time_disabled():
        start = perf_counter()
        with tracing(enabled=False):
            sweep()
        return perf_counter() - start

    sweep()  # warm caches (block code generation) outside the clock
    for attempt in range(4):
        absent, disabled = [], []
        for _ in range(5):
            absent.append(time_absent())
            disabled.append(time_disabled())
        if min(disabled) <= min(absent) * 1.02:
            return
    pytest.fail(
        f"tracing disabled cost {min(disabled) / min(absent) - 1:.1%} "
        f"over tracing absent (budget: 2%)"
    )
