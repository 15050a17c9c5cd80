"""Tests for the baseline partitioners (ablation infrastructure)."""

import pytest

from repro.analysis.cfg import find_pps_loop, split_large_blocks
from repro.analysis.dependence_graph import LoopDependenceModel
from repro.ir.clone import clone_function
from repro.pipeline.transform import pipeline_pps
from repro.runtime import (
    MachineState,
    assert_equivalent,
    observe,
    run_pipeline,
    run_sequential,
)
from repro.ssa import construct_ssa
from repro.testing.baselines import greedy_weight_split, level_split

from helpers import STANDARD_PPS, compile_module, standard_setup


def model_of(source):
    module = compile_module(source)
    name = next(iter(module.ppses))
    work = clone_function(module.pps(name))
    split_large_blocks(work, 12)
    ssa = clone_function(work)
    construct_ssa(ssa)
    return LoopDependenceModel(ssa, find_pps_loop(ssa))


@pytest.mark.parametrize("strategy", [level_split, greedy_weight_split])
def test_baseline_respects_constraints(strategy):
    model = model_of(STANDARD_PPS)
    assignment = strategy(model, 4)  # _validate runs inside
    assert assignment.block_stage[model.loop.header] == 1
    assert assignment.block_stage[model.loop.latch] == 4
    assert set(assignment.block_stage) == set(model.loop.body)


def test_level_split_spreads_unit_counts():
    model = model_of(STANDARD_PPS)
    assignment = level_split(model, 3)
    counts = {}
    for unit, stage in assignment.unit_stage.items():
        counts[stage] = counts.get(stage, 0) + 1
    assert len(counts) == 3
    assert max(counts.values()) <= 2 * max(1, min(counts.values())) + 2


def test_greedy_split_balances_weight_better_than_level():
    model = model_of(STANDARD_PPS)
    degree = 3

    def imbalance(assignment):
        weights = assignment.stage_weights(model)
        return max(weights.values()) - min(weights.values())

    greedy = greedy_weight_split(model, degree)
    level = level_split(model, degree)
    assert imbalance(greedy) <= imbalance(level) + model.total_weight() * 0.25


@pytest.mark.parametrize("strategy", [level_split, greedy_weight_split])
def test_baseline_partitions_run_equivalently(strategy, monkeypatch):
    module = compile_module(STANDARD_PPS)
    baseline_state = MachineState(module)
    standard_setup(baseline_state, 20)
    run_sequential(module.pps("worker"), baseline_state, iterations=20)
    expected = observe(baseline_state)

    monkeypatch.setattr("repro.pipeline.transform.select_stages", strategy)
    result = pipeline_pps(module, "worker", 4)
    state = MachineState(module)
    standard_setup(state, 20)
    run_pipeline(result.stages, state, iterations=20)
    assert_equivalent(expected, observe(state))


def test_degree_larger_than_units_clamps():
    model = model_of("""
        pipe q;
        pps tiny { for (;;) { pipe_send(q, 1); } }
    """)
    assignment = level_split(model, 8)
    assert assignment.block_stage[model.loop.latch] == 8
    stages = set(assignment.unit_stage.values())
    assert max(stages) == 8
