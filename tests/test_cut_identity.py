"""A partition is a function of the program: how its cuts are reached
does not change them.

The balanced-cut driver reads only the canonical minimal/maximal
min-cut sides (residual reachability), which every maximum flow shares,
so neither the shared per-app analyses of a degree row nor the §3.3
incremental restart may move a cut — only the work to find it.  These
tests pin that contract across the whole benchmark suite, the
supervisor ladder and generated programs.  (That a solve is itself a
function of its input is ``tests/test_partition_determinism.py``'s
business.)
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

#: The fields of one cut's identity.  ``pr_work`` is a work metric and
#: legitimately differs between solves that reach the same cut.
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


def identity_diff(left: dict, right: dict) -> dict:
    """The fields on which two assignment identities disagree."""
    return {key: {"left": left.get(key), "right": right.get(key)}
            for key in left.keys() | right.keys()
            if left.get(key) != right.get(key)}


@pytest.mark.parametrize("name", SUITE)
def test_shared_context_row_equals_fresh_pipelines(name):
    app = build_app(name, packets=8, seed=7)
    row, _ = partition_app(app, DEGREES)
    assert sorted(row) == list(DEGREES)
    for degree in DEGREES:
        # The reference is each degree partitioned alone: a new context,
        # nothing shared with the row.
        fresh = app_pipeline(app, degree)
        assert identity_diff(assignment_identity(row[degree]),
                             assignment_identity(fresh)) == {}, degree


def test_identity_diff_localizes_the_field():
    left = {"unit_stage": {"a": 0}, "layout_words": [4, 4]}
    right = {"unit_stage": {"a": 0}, "layout_words": [4, 5]}
    diff = identity_diff(left, right)
    assert set(diff) == {"layout_words"}
    assert diff["layout_words"] == {"left": [4, 4], "right": [4, 5]}
    assert identity_diff(left, dict(left)) == {}


def test_supervisor_result_equals_a_fresh_pipeline():
    app = build_app("ipv4", packets=8, seed=7)
    supervised = supervise_partition(app.module, app.pps_name, 5)
    fresh = pipeline_pps(app.module, app.pps_name, 5)
    assert supervised.achieved_degree == 5 and supervised.result is not None
    assert assignment_identity(supervised.result) == \
        assignment_identity(fresh)


# -- the paper's incremental restart (§3.3) is a speed device ---------------
#
# ``select_stages(incremental=False)`` re-solves every ε-collapse step
# from a zero flow instead of resuming the previous step's preflow.  The
# side the balanced-cut driver reads is canonical, so both must select
# the same cuts — which is why ``incremental`` is an ablation keyword of
# ``select_stages`` and not a knob of a run.


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
