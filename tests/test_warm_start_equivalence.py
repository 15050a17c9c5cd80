"""Warm-started cuts are bit-identical to cold solves (ISSUE 6 tentpole).

The warm-start machinery (:mod:`repro.flownet.warmstart`) seeds cut *i*
of degree D+1 with the preflow recorded at cut *i* of degree D.  Any
valid preflow converges to *a* maximum flow, and the min-cut sides the
balanced-cut driver reads (residual reachability) are the canonical
minimal/maximal sides — identical for every maximum flow — so seeding
must never change a partition, only the work to find it.  These tests
pin that contract across the whole benchmark suite and the supervisor
ladder.  (That a *cold* solve is itself a function of its input is
``tests/test_partition_determinism.py``'s business.)
"""

from __future__ import annotations

import pytest

from repro import compile_module
from repro.analysis.context import AnalysisContext
from repro.apps.suite import build_app
from repro.eval.experiments import FIGURE19_APPS, FIGURE20_APPS
from repro.eval.metrics import partition_app
from repro.pipeline.cuts import select_stages
from repro.pipeline.supervisor import supervise_partition
from repro.pipeline.transform import pipeline_pps
from repro.runspec import app_pipeline
from repro.testing.progen import random_pps_source

SUITE = sorted(set(FIGURE19_APPS) | set(FIGURE20_APPS))
DEGREES = range(2, 10)

#: The fields of one cut's identity.  ``pr_work`` / ``warm_hit`` are
#: work metrics and legitimately differ between warm and cold solves.
IDENTITY_FIELDS = ("stage", "target", "weight", "cut_value", "balanced",
                   "iterations")


def cuts_identity(assignment):
    """Everything a stage assignment *is*, minus the work accounting."""
    return {
        "unit_stage": dict(assignment.unit_stage),
        "block_stage": dict(assignment.block_stage),
        "diagnostics": [
            {field: getattr(diag, field) for field in IDENTITY_FIELDS}
            for diag in assignment.diagnostics
        ],
    }


def assignment_identity(result):
    """Everything a partition *is*, minus the work-accounting fields."""
    return {
        **cuts_identity(result.assignment),
        "layout_words": [layout.words(result.strategy)
                         for layout in result.layouts],
    }


def identity_diff(warm: dict, cold: dict) -> dict:
    """The fields on which two assignment identities disagree."""
    return {key: {"warm": warm.get(key), "cold": cold.get(key)}
            for key in warm.keys() | cold.keys()
            if warm.get(key) != cold.get(key)}


@pytest.mark.parametrize("name", SUITE)
def test_warm_equals_cold_across_degree_sweep(name):
    app = build_app(name, packets=8, seed=7)
    warm, _ = partition_app(app, DEGREES)
    assert sorted(warm) == list(DEGREES)
    for degree in DEGREES:
        # The cold side is each degree partitioned alone: a new context,
        # no warm-start cache, nothing shared with the row.
        cold = app_pipeline(app, degree)
        assert identity_diff(assignment_identity(warm[degree]),
                             assignment_identity(cold)) == {}, degree


def test_identity_diff_localizes_the_field():
    warm = {"unit_stage": {"a": 0}, "layout_words": [4, 4]}
    cold = {"unit_stage": {"a": 0}, "layout_words": [4, 5]}
    diff = identity_diff(warm, cold)
    assert set(diff) == {"layout_words"}
    assert diff["layout_words"] == {"warm": [4, 4], "cold": [4, 5]}
    assert identity_diff(warm, dict(warm)) == {}


def test_warm_seeding_actually_fires():
    """The equivalence sweep must not be vacuous: on a typical app the
    cross-degree seeding really does kick in.  (Degenerate apps like
    ``scheduler``, where one dependence SCC owns nearly all the weight,
    legitimately never seed — their cuts are found without collapses.)"""
    app = build_app("rx", packets=8, seed=7)
    _, stats = partition_app(app, range(2, 5))
    assert any(cell["warm_hits"] > 0 for cell in stats.values())
    for degree in range(2, 5):
        cold = app_pipeline(app, degree)
        assert not any(diag.warm_hit for diag in cold.assignment.diagnostics)


def test_supervisor_rungs_warm_equals_cold():
    app = build_app("ipv4", packets=8, seed=7)
    warm = supervise_partition(app.module, app.pps_name, 5)
    cold = pipeline_pps(app.module, app.pps_name, 5, warm=None)
    assert warm.achieved_degree == 5 and warm.result is not None
    assert assignment_identity(warm.result) == assignment_identity(cold)


# -- the paper's incremental restart (§3.3) is a speed device too -----------
#
# ``select_stages(incremental=False)`` re-solves every ε-collapse step
# from a zero flow instead of resuming the previous step's preflow.  The
# side the balanced-cut driver reads is canonical, so both must select
# the same cuts — which is why ``incremental`` is an ablation keyword of
# ``select_stages`` and not a knob of a run (ISSUE 22).


def incremental_diffs(model, degrees, profiles=None) -> dict:
    """``{degree: identity_diff}`` wherever the from-scratch ablation and
    the default (incremental) solve select different cuts."""
    diffs = {}
    for degree in degrees:
        default = cuts_identity(
            select_stages(model, degree, profiles=profiles))
        scratch = cuts_identity(
            select_stages(model, degree, profiles=profiles,
                          incremental=False))
        if default != scratch:
            diffs[degree] = identity_diff(default, scratch)
    return diffs


def progen_incremental_diffs(seeds, degrees=(3, 6, 9)) -> dict:
    """The same over generated programs, keyed ``(seed, degree)``.
    Tier-1 runs seeds 0..99; the 2 100-cell run recorded in
    ``docs/pipeline-algorithm.md`` is ``range(700)``."""
    diffs = {}
    for seed in seeds:
        module = compile_module(random_pps_source(seed), "<progen>")
        model = AnalysisContext(module, next(iter(module.ppses))).model
        for degree, diff in incremental_diffs(model, degrees).items():
            diffs[seed, degree] = diff
    return diffs


@pytest.mark.parametrize("name", SUITE)
def test_incremental_equals_scratch_across_degree_sweep(name):
    app = build_app(name, packets=8, seed=7)
    context = AnalysisContext(app.module, app.pps_name)
    assert incremental_diffs(context.model, DEGREES,
                             context.profiles_for(app.profiler)) == {}


def test_incremental_equals_scratch_on_generated_programs():
    assert progen_incremental_diffs(range(100)) == {}


def test_incremental_restart_actually_saves_work():
    """The identity above must not be vacuous: the two solves take
    different trajectories (the from-scratch one discharges more)."""
    app = build_app("rx", packets=8, seed=7)
    context = AnalysisContext(app.module, app.pps_name)
    profiles = context.profiles_for(app.profiler)
    work = [sum(diag.pr_work for diag in select_stages(
                context.model, 4, profiles=profiles,
                incremental=incremental).diagnostics)
            for incremental in (True, False)]
    assert work[0] < work[1]
