"""A cold partition is a function of its input, not of the heap.

``VReg`` is identity-hashed and ``flownet.model.var_key`` embeds
``id(reg)``, so sets built along the cut path iterate in an order that
depends on where the allocator happened to place the IR.  The
partitioner must not let that order reach a decision: rebuilding the
same app after the heap has been churned — which moves every fresh
object to a different address — has to give the same assignment,
cut for cut.  (This was once taken for a "warm-started ≠ cold" flake
of ``tests/test_cut_identity.py``; it was cold ≠ cold.)
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.context import AnalysisContext
from repro.apps.suite import build_app
from repro.eval.metrics import partition_app
from repro.runspec import app_pipeline

from test_cut_identity import assignment_identity, identity_diff

DEGREES = range(2, 10)
REBUILDS = 4


def churn_heap(rng: random.Random) -> list:
    """Allocate a few thousand junk objects across the allocator's small
    size classes (``VReg`` and the cut-network keys live there) and free
    a random half, so the next build lands on different addresses.  The
    survivors are returned: the caller keeps them alive across the build
    so that it allocates into the holes."""
    makers = (
        lambda: (None,) * rng.randrange(1, 14),
        lambda: rng.random(),
        lambda: rng.getrandbits(rng.randrange(40, 400)),
        lambda: [None] * rng.randrange(10),
    )
    junk = [rng.choice(makers)() for _ in range(rng.randrange(2000, 6000))]
    rng.shuffle(junk)
    del junk[len(junk) // 2:]
    return junk


def cold_identities(name: str) -> dict:
    app = build_app(name, packets=8, seed=7)
    context = AnalysisContext(app.module, app.pps_name)
    return {degree: assignment_identity(
                app_pipeline(app, degree, context=context))
            for degree in DEGREES}


@pytest.mark.parametrize("name", ["ip_v4", "ip_v6"])
def test_cold_partition_is_independent_of_object_addresses(name):
    rng = random.Random(0x5EED)
    first = cold_identities(name)
    for rebuild in range(1, REBUILDS):
        ballast = churn_heap(rng)
        again = cold_identities(name)
        del ballast
        diverged = {
            degree: identity_diff(first[degree], again[degree])
            for degree in first if first[degree] != again[degree]
        }
        assert not diverged, (
            f"{name}: rebuild {rebuild} partitioned differently from the "
            f"first build at degrees {sorted(diverged)}: {diverged}")


def test_refine_ignores_unit_stage_insertion_order(monkeypatch):
    """The narrow root cause, without the allocator: ``refine_stages``
    broke load ties by first-candidate-wins over the *insertion order*
    of ``unit_stage``, which upstream sets used to dictate.  ip_v6 at
    degree 8 has such a tie."""
    from repro.pipeline import cuts
    from repro.pipeline.cuts import StageAssignment, refine_stages

    captured = {}

    def capture(model, assignment, unit_dims, **kwargs):
        captured.update(model=model, dims=unit_dims,
                        degree=assignment.degree,
                        before=dict(assignment.unit_stage))
        return refine_stages(model, assignment, unit_dims, **kwargs)

    monkeypatch.setattr(cuts, "refine_stages", capture)
    app = build_app("ip_v6", packets=8, seed=7)
    partition_app(app, [8])

    def refined(order):
        assignment = StageAssignment(degree=captured["degree"])
        assignment.unit_stage = {unit: captured["before"][unit]
                                 for unit in order}
        refine_stages(captured["model"], assignment, captured["dims"])
        return assignment.unit_stage

    units = sorted(captured["before"])
    expected = refined(units)
    rng = random.Random(8)
    for _ in range(5):
        rng.shuffle(units)
        assert refined(units) == expected
