"""Evaluation harness: metrics, design-space exploration, reports."""

from repro.eval.metrics import (
    PipelineMeasurement,
    SequentialMeasurement,
    measure_pipeline,
    measure_sequential,
)
from repro.eval.explore import (
    SearchSpace,
    auto_pick,
    deterministic_report,
    explore,
    pareto_flags,
)
from repro.eval.report import format_series_table, render_figure

__all__ = [
    "PipelineMeasurement",
    "SearchSpace",
    "SequentialMeasurement",
    "auto_pick",
    "deterministic_report",
    "explore",
    "pareto_flags",
    "format_series_table",
    "measure_pipeline",
    "measure_sequential",
    "render_figure",
]
