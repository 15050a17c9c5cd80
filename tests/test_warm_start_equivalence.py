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

from repro.apps.suite import build_app
from repro.eval.experiments import FIGURE19_APPS, FIGURE20_APPS
from repro.eval.metrics import partition_app
from repro.pipeline.supervisor import supervise_partition

SUITE = sorted(set(FIGURE19_APPS) | set(FIGURE20_APPS))
DEGREES = range(2, 10)

#: The fields of one cut's identity.  ``pr_work`` / ``warm_hit`` are
#: work metrics and legitimately differ between warm and cold solves.
IDENTITY_FIELDS = ("stage", "target", "weight", "cut_value", "balanced",
                   "iterations")


def assignment_identity(result):
    """Everything a partition *is*, minus the work-accounting fields."""
    return {
        "unit_stage": dict(result.assignment.unit_stage),
        "block_stage": dict(result.assignment.block_stage),
        "diagnostics": [
            {field: getattr(diag, field) for field in IDENTITY_FIELDS}
            for diag in result.assignment.diagnostics
        ],
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
    warm, _ = partition_app(app, DEGREES, warm_start=True)
    cold, _ = partition_app(app, DEGREES, warm_start=False)
    assert warm.keys() == cold.keys()
    for degree in sorted(warm):
        assert identity_diff(assignment_identity(warm[degree]),
                             assignment_identity(cold[degree])) == {}, degree


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
    _, stats = partition_app(app, range(2, 5), warm_start=True)
    assert any(cell["warm_hits"] > 0 for cell in stats.values())
    _, cold_stats = partition_app(app, range(2, 5), warm_start=False)
    assert all(cell["warm_hits"] == 0 for cell in cold_stats.values())


def test_supervisor_rungs_warm_equals_cold():
    app = build_app("ipv4", packets=8, seed=7)
    outcomes = [
        supervise_partition(app.module, app.pps_name, 5,
                            warm_start=warm_start)
        for warm_start in (True, False)
    ]
    warm, cold = outcomes
    assert warm.achieved_degree == cold.achieved_degree
    assert warm.result is not None and cold.result is not None
    assert assignment_identity(warm.result) == \
        assignment_identity(cold.result)
