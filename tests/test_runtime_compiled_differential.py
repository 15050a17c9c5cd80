"""Differential testing: the execution core vs the reference oracle.

The threaded-code interpreter and ready-deque scheduler of
:mod:`repro.runtime` must be *semantically invisible*: on the same
program and traffic they produce exactly the statistics and observable
behaviour of the ``isinstance`` evaluator under the polling loop in
:mod:`repro.testing.reference`.  ``blocked`` is the one counter
deliberately excluded — how often an interpreter re-polls while waiting
is a scheduling artifact, not program semantics.
"""

import pytest

from repro.pipeline.transform import pipeline_pps
from repro.runtime import (
    MachineState,
    observe,
    run_pipeline,
    run_sequential,
)
from repro.runtime.scheduler import run_replicas
from repro.testing import random_pps_source, reference

from helpers import compile_module

ITERATIONS = 25

#: The stats that must match bit for bit between the two paths.
SEMANTIC_FIELDS = ("instructions", "weight", "iterations",
                   "transmission_weight", "block_counts",
                   "serial_weight", "serial_sections")


def fresh_state(module, seed=0):
    state = MachineState(module)
    for table in range(2):
        if f"tab{table}" in state.regions:
            state.load_region(f"tab{table}",
                              [((i * 13 + table) % 97) for i in range(32)])
    if "flow_state" in state.regions:
        state.load_region("flow_state", [0] * 16)
    state.feed_pipe("in_q", [((i * 31 + seed) % 251)
                             for i in range(ITERATIONS)])
    return state


def assert_stats_match(compiled, reference):
    for field in SEMANTIC_FIELDS:
        assert getattr(compiled, field) == getattr(reference, field), field


def check_sequential(seed, **kwargs):
    module = compile_module(random_pps_source(seed, **kwargs))
    state = fresh_state(module, seed)
    stats = run_sequential(module.pps("generated"), state,
                           iterations=ITERATIONS)
    ref_state = fresh_state(module, seed)
    ref_stats = reference.run_sequential(module.pps("generated"), ref_state,
                                         iterations=ITERATIONS)
    assert_stats_match(stats, ref_stats)
    assert observe(state) == observe(ref_state)


def check_pipelined(seed, degree, **kwargs):
    module = compile_module(random_pps_source(seed, **kwargs))
    result = pipeline_pps(module, "generated", degree)
    state = fresh_state(module, seed)
    run = run_pipeline(result.stages, state, iterations=ITERATIONS)
    ref_state = fresh_state(module, seed)
    ref_run = reference.run_pipeline(result.stages, ref_state,
                                     iterations=ITERATIONS)
    assert run.stats.keys() == ref_run.stats.keys()
    for name in run.stats:
        assert_stats_match(run.stats[name], ref_run.stats[name])
    assert observe(state) == observe(ref_state)


@pytest.mark.parametrize("seed", range(12))
def test_sequential_matches_reference(seed):
    check_sequential(seed)


@pytest.mark.parametrize("seed", range(12, 18))
def test_sequential_with_shared_state(seed):
    check_sequential(seed, use_memory_state=True)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("degree", (2, 4))
def test_pipelined_matches_reference(seed, degree):
    check_pipelined(seed, degree)


@pytest.mark.parametrize("seed", range(8, 12))
def test_pipelined_deep_matches_reference(seed):
    check_pipelined(seed, 7)


@pytest.mark.parametrize("seed", range(4))
def test_replicated_matches_reference(seed):
    # Replication exercises the sequencer wait/advance pseudo-ops and the
    # serial-section bookkeeping on both paths.
    from repro.pipeline.replicate import replicate_pps

    module = compile_module(random_pps_source(seed, use_memory_state=True))
    replication = replicate_pps(module, "generated", 3)
    state = fresh_state(module, seed)
    run = run_replicas(replication.replicas, state, iterations=ITERATIONS)
    module_ref = compile_module(random_pps_source(
        seed, use_memory_state=True))
    replication_ref = replicate_pps(module_ref, "generated", 3)
    ref_state = fresh_state(module_ref, seed)
    ref_run = reference.run_replicas(replication_ref.replicas, ref_state,
                                     iterations=ITERATIONS)
    assert sorted(run.stats) == sorted(ref_run.stats)
    for name in run.stats:
        assert_stats_match(run.stats[name], ref_run.stats[name])
    assert observe(state) == observe(ref_state)
