"""Evaluation harness: metrics, experiments (paper figures), reports."""

from repro.eval.metrics import (
    PipelineMeasurement,
    SequentialMeasurement,
    measure_pipeline,
    measure_sequential,
)
from repro.eval.experiments import app_statistics, figures_record
from repro.eval.explore import (
    SearchSpace,
    Weights,
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
    "Weights",
    "auto_pick",
    "deterministic_report",
    "explore",
    "pareto_flags",
    "app_statistics",
    "figures_record",
    "format_series_table",
    "measure_pipeline",
    "measure_sequential",
    "render_figure",
]
