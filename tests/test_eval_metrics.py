"""Tests for the evaluation harness."""

import pytest

from repro.apps.suite import build_app
from repro.eval.explore import SearchSpace
from repro.eval.metrics import (
    measure_pipeline,
    measure_sequential,
)
from repro.eval.report import format_series_table, render_figure
from repro.eval.sweep import explore_tasks, run_sweep
from repro.machine.costs import SCRATCH_RING
from repro.pipeline.liveset import Strategy
from repro.runspec import Knobs


@pytest.fixture(scope="module")
def ipv4_app():
    return build_app("ipv4", packets=40)


@pytest.fixture(scope="module")
def ipv4_baseline(ipv4_app):
    return measure_sequential(ipv4_app)


def test_sequential_measurement(ipv4_app, ipv4_baseline):
    assert ipv4_baseline.iterations == 40
    assert ipv4_baseline.per_packet > 100
    assert ipv4_baseline.observation is not None


def test_degree_one_is_identity(ipv4_app, ipv4_baseline):
    m = measure_pipeline(ipv4_app, 1, baseline=ipv4_baseline)
    assert m.speedup == 1.0
    assert m.overhead_ratio == 0.0
    assert m.per_stage == [ipv4_baseline.per_packet]


def test_pipeline_measurement_fields(ipv4_app, ipv4_baseline):
    m = measure_pipeline(ipv4_app, 3, baseline=ipv4_baseline)
    assert m.degree == 3
    assert len(m.per_stage) == 3
    assert len(m.message_words) == 2
    assert m.longest_stage == max(m.per_stage)
    assert m.speedup == pytest.approx(ipv4_baseline.per_packet / m.longest_stage)
    bottleneck = m.per_stage.index(max(m.per_stage)) + 1
    assert 1 <= bottleneck <= 3
    assert m.equivalent


def test_speedup_improves_with_degree(ipv4_app, ipv4_baseline):
    m2 = measure_pipeline(ipv4_app, 2, baseline=ipv4_baseline)
    m6 = measure_pipeline(ipv4_app, 6, baseline=ipv4_baseline)
    assert m2.speedup > 1.2
    assert m6.speedup > m2.speedup


def test_overhead_grows_with_degree(ipv4_app, ipv4_baseline):
    m2 = measure_pipeline(ipv4_app, 2, baseline=ipv4_baseline)
    m8 = measure_pipeline(ipv4_app, 8, baseline=ipv4_baseline)
    assert m8.overhead_ratio > m2.overhead_ratio


def test_scratch_ring_costs_more(ipv4_app, ipv4_baseline):
    nn = measure_pipeline(ipv4_app, 4, baseline=ipv4_baseline)
    scratch = measure_pipeline(ipv4_app, 4, baseline=ipv4_baseline,
                               knobs=Knobs(costs=SCRATCH_RING))
    assert scratch.overhead_ratio > nn.overhead_ratio


def test_unified_message_never_smaller_than_packed(ipv4_app, ipv4_baseline):
    packed = measure_pipeline(ipv4_app, 4, baseline=ipv4_baseline,
                              knobs=Knobs(strategy=Strategy.PACKED))
    unified = measure_pipeline(ipv4_app, 4, baseline=ipv4_baseline,
                               knobs=Knobs(strategy=Strategy.UNIFIED))
    for p_words, u_words in zip(packed.message_words, unified.message_words):
        assert p_words <= u_words


def test_speedup_series_structure():
    [row] = run_sweep(explore_tasks(SearchSpace(apps=("tx",),
                                                degrees=(1, 2), packets=24)))
    for metric, identity in (("speedup", 1.0), ("overhead", 0.0)):
        series = {cell["config"]["degree"]: cell["metrics"][metric]
                  for cell in row["cells"]}
        assert set(series) == {1, 2}
        assert series[1] == identity


def test_report_rendering():
    series = {"rx": {1: 1.0, 2: 1.5}, "ipv4": {1: 1.0, 2: 1.9}}
    table = format_series_table(series)
    assert "d=1" in table and "d=2" in table
    assert "rx" in table and "ipv4" in table
    figure = render_figure("Figure X", series)
    assert figure.startswith("Figure X")
