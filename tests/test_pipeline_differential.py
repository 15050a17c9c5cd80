"""Differential testing: pipelined vs sequential on random programs.

This is the correctness backbone: for arbitrary generated PPS-C programs,
every pipelining configuration must preserve observable behaviour (traces,
emitted messages, final shared-memory contents).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.pipeline.liveset import Strategy
from repro.pipeline.transform import pipeline_pps
from repro.runspec import Knobs
from repro.runtime import (
    MachineState,
    assert_equivalent,
    observe,
    run_pipeline,
    run_sequential,
)
from repro.testing import random_pps_source

from helpers import STANDARD_PPS, compile_module, standard_setup

ITERATIONS = 25


def fresh_state(module, seed=0):
    state = MachineState(module)
    for table in range(2):
        if f"tab{table}" in state.regions:
            state.load_region(f"tab{table}",
                              [((i * 13 + table) % 97) for i in range(32)])
    if "flow_state" in state.regions:
        state.load_region("flow_state", [0] * 16)
    state.feed_pipe("in_q", [((i * 31 + seed) % 251) for i in range(ITERATIONS)])
    return state


def check_seed(seed, degrees, strategies=(Strategy.PACKED,), **kwargs):
    module = compile_module(random_pps_source(seed, **kwargs))
    baseline_state = fresh_state(module, seed)
    run_sequential(module.pps("generated"), baseline_state,
                   iterations=ITERATIONS)
    baseline = observe(baseline_state)
    for degree in degrees:
        for strategy in strategies:
            result = pipeline_pps(module, "generated", degree,
                                  knobs=Knobs(strategy=strategy))
            state = fresh_state(module, seed)
            run_pipeline(result.stages, state, iterations=ITERATIONS)
            assert_equivalent(baseline, observe(state))


@pytest.mark.parametrize("seed", range(20))
def test_random_programs_all_strategies(seed):
    check_seed(seed, degrees=(2, 3),
               strategies=(Strategy.PACKED, Strategy.UNIFIED,
                           Strategy.CONDITIONALIZED))


@pytest.mark.parametrize("seed", range(20, 35))
def test_random_programs_high_degrees(seed):
    check_seed(seed, degrees=(5, 8))


@pytest.mark.parametrize("seed", range(35, 43))
def test_random_programs_with_shared_state(seed):
    # Read-write shared memory serializes; equivalence must still hold.
    check_seed(seed, degrees=(3,), use_memory_state=True)


# Derandomized, no example database: the same twelve (seed, degree) cells
# on every run — 100/2, 474/2, 533/6, 1393/6, 447/5, 1457/5, 1984/3, 597/2,
# 3875/7, 125/7, 1719/3, 1719/2 — none of them one of the cells an in-loop
# array mis-pipelines (ROADMAP item 1); if the strategies below change and
# one lands on such a cell, list it as a named ``xfail(strict=True)`` that
# points at item 1 rather than loosening ``check_seed``.
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=100, max_value=5000),
       st.integers(min_value=2, max_value=7))
def test_random_program_property(seed, degree):
    check_seed(seed, degrees=(degree,))


def test_standard_pps_every_degree():
    module = compile_module(STANDARD_PPS)
    baseline_state = MachineState(module)
    standard_setup(baseline_state, 30)
    run_sequential(module.pps("worker"), baseline_state, iterations=30)
    baseline = observe(baseline_state)
    for degree in range(1, 11):
        result = pipeline_pps(module, "worker", degree)
        state = MachineState(module)
        standard_setup(state, 30)
        run_pipeline(result.stages, state, iterations=30)
        assert_equivalent(baseline, observe(state))


def test_bounded_stage_pipes_preserve_equivalence():
    # Realistic rings have finite capacity: backpressure must not change
    # observable behaviour.
    module = compile_module(STANDARD_PPS)
    baseline_state = MachineState(module)
    standard_setup(baseline_state, 30)
    run_sequential(module.pps("worker"), baseline_state, iterations=30)
    baseline = observe(baseline_state)
    result = pipeline_pps(module, "worker", 4)
    state = MachineState(module, pipe_capacity=2)
    standard_setup(state, 30)
    # Only the *stage* pipes should be bounded: the harness pre-loads the
    # external input and drains the external output after the run.
    state.pipe("in_q").capacity = 0
    state.pipe("out_q").capacity = 0
    run_pipeline(result.stages, state, iterations=30)
    assert_equivalent(baseline, observe(state))
