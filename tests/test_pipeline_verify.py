"""The independent post-partition verifier (src/repro/pipeline/verify.py).

The ISSUE 5 acceptance contract:

* every suite app at D in {2, 4, 8} passes verification with zero
  rejections (warnings are allowed: reported-unbalanced cuts and
  profile-refined stages downgrade to warnings by design);
* every seeded defect class — dropped live variable, flipped cut edge,
  unbalanced stage, broken control object — is rejected, each by the
  check family that owns it;
* the verifier recomputes its ground truth from the *normalized*
  function, never trusting the partitioner's own diagnostics.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.apps.suite import build_app
from repro.eval.fuzz import DEFECT_MUTATORS, seeded_defects
from repro.pipeline.transform import pipeline_pps
from repro.pipeline.verify import (
    CHECKS,
    VerifyError,
    verify_partition,
)

from helpers import STANDARD_PPS, compile_module

SUITE_APPS = ["rx", "ipv4", "ip_v4", "ip_v6", "scheduler", "qm", "tx"]

#: The check family that must reject each seeded defect class.
EXPECTED_CHECK = {
    "drop-live-var": "liveness",
    "flip-cut-edge": "dependence",
    "unbalance-stage": "balance",
    "break-control-object": "reconstruction",
}


# -- clean partitions verify --------------------------------------------------


@pytest.mark.parametrize("app_name", SUITE_APPS)
def test_suite_apps_verify_at_every_degree(app_name):
    app = build_app(app_name, packets=8)
    for degree in (2, 4, 8):
        result = pipeline_pps(app.module, app.pps_name, degree)
        verdict = verify_partition(result)
        assert verdict.ok, verdict.summary()
        assert verdict.findings == []
        assert set(verdict.checks_run) == set(CHECKS)


def test_standard_pps_verifies_across_degrees():
    module = compile_module(STANDARD_PPS)
    for degree in (2, 3, 4, 5):
        verdict = verify_partition(pipeline_pps(module, "worker", degree))
        assert verdict.ok, verdict.summary()


def test_degree_one_short_circuits_to_reconstruction_only():
    module = compile_module(STANDARD_PPS)
    verdict = verify_partition(pipeline_pps(module, "worker", 1))
    assert verdict.ok
    assert verdict.checks_run == ("reconstruction",)


def test_profiled_partition_verifies():
    # refine_stages moves units after the cut diagnostics are recorded;
    # the verifier must not hard-fail the refined (profiled) balance.
    app = build_app("ip_v4", packets=8)
    from repro.eval.metrics import make_profiler

    result = pipeline_pps(app.module, app.pps_name, 4,
                          profiler=make_profiler(app))
    assert result.profiled
    verdict = verify_partition(result)
    assert verdict.ok, verdict.summary()


# -- seeded defects are rejected ----------------------------------------------


def test_every_seeded_defect_is_rejected():
    module = compile_module(STANDARD_PPS)
    result = pipeline_pps(module, "worker", 3)
    assert verify_partition(result).ok  # mutants start from a clean base
    caught = {}
    for name, mutant in seeded_defects(result):
        verdict = verify_partition(mutant)
        assert not verdict.ok, f"defect {name} slipped past the verifier"
        caught[name] = sorted({finding.check
                               for finding in verdict.findings})
    assert set(caught) == set(DEFECT_MUTATORS)
    for name, expected in EXPECTED_CHECK.items():
        assert expected in caught[name], (name, caught[name])


def test_rejection_raises_a_structured_verify_error():
    module = compile_module(STANDARD_PPS)
    result = pipeline_pps(module, "worker", 3)
    [(name, mutant)] = [pair for pair in seeded_defects(result)
                        if pair[0] == "drop-live-var"]
    verdict = verify_partition(mutant)
    with pytest.raises(VerifyError) as excinfo:
        verdict.raise_if_rejected()
    assert excinfo.value.verdict is verdict
    assert "liveness" in str(excinfo.value)


def test_verdict_serializes_to_json():
    module = compile_module(STANDARD_PPS)
    verdict = verify_partition(pipeline_pps(module, "worker", 3))
    payload = json.loads(json.dumps(verdict.as_dict()))
    assert payload["ok"] is True
    assert payload["degree"] == 3


# -- shared analysis context vs from-scratch rebuild (ISSUE 6) ----------------


def _partition_with_context(app_name="rx", degree=3):
    from repro.analysis.context import AnalysisContext

    app = build_app(app_name, packets=8)
    context = AnalysisContext(app.module, app.pps_name)
    result = pipeline_pps(app.module, app.pps_name, degree, context=context)
    return context, result


def test_shared_context_is_consumed_and_none_rebuilds():
    from repro.pipeline.verify import _Checker

    context, result = _partition_with_context()
    shared = _Checker(result, 1.0 / 16.0, context=context)
    assert shared.model is context.model
    assert shared.liveness is context.liveness
    rebuilt = _Checker(result, 1.0 / 16.0, context=None)
    assert rebuilt.model is not context.model
    assert rebuilt.liveness is not context.liveness


def test_shared_context_verdict_matches_rebuilt_verdict():
    context, result = _partition_with_context()
    shared = verify_partition(result, context=context)
    rebuilt = verify_partition(result, context=None)
    assert shared.ok and rebuilt.ok
    assert shared.checks_run == rebuilt.checks_run
    assert [str(w) for w in shared.warnings] == \
        [str(w) for w in rebuilt.warnings]


def _restored(result):
    """``result`` as a compile-cache hit hands it back: equal content,
    no object shared with the context."""
    return pickle.loads(pickle.dumps(result))


def test_mismatched_context_is_ignored_not_trusted():
    """A context for a *different* normalized function must never supply
    the ground truth — the checker falls back to a fresh rebuild."""
    from repro.analysis.context import AnalysisContext
    from repro.ir.instructions import BinOp
    from repro.ir.values import Const
    from repro.pipeline.verify import _Checker

    context, result = _partition_with_context("rx")
    other_app = build_app("tx", packets=8)
    stranger = AnalysisContext(other_app.module, other_app.pps_name)
    checker = _Checker(result, 1.0 / 16.0, context=stranger)
    assert checker.model is not stranger.model
    assert checker.work is result.normalized

    # The near miss: the right program but for one constant.  One token
    # of printed text differs, so the restored copy is a stranger too.
    near = _restored(result)
    assert _Checker(near, 1.0 / 16.0, context=context).model is context.model
    binop = next(inst for inst in near.normalized.all_instructions()
                 if isinstance(inst, BinOp) and isinstance(inst.rhs, Const))
    binop.rhs = Const(binop.rhs.value + 1)
    assert _Checker(near, 1.0 / 16.0, context=context).model \
        is not context.model


def test_shared_context_still_rejects_every_seeded_defect():
    """The independent-verifier guarantee survives analysis sharing: the
    analyses are a pure function of the normalized IR, so a corrupted
    *partition* is still checked against untainted ground truth — with
    the verdict a from-scratch rebuild gives, finding for finding."""
    from repro.analysis.context import AnalysisContext
    from repro.pipeline.verify import _Checker

    module = compile_module(STANDARD_PPS)
    context = AnalysisContext(module, "worker")
    result = pipeline_pps(module, "worker", 3, context=context)
    assert verify_partition(result, context=context).ok
    # seeded_defects deep-copies, so every mutant's ``normalized`` is
    # another object with the context's text: the share-by-text path, on
    # the fresh result and on a cache-restored one alike.
    for base in (result, _restored(result)):
        caught = {}
        for name, mutant in seeded_defects(base):
            checker = _Checker(mutant, 1.0 / 16.0, context=context)
            assert checker.model is context.model
            assert checker.liveness.function is mutant.normalized
            shared = checker.run()
            rebuilt = verify_partition(mutant, context=None)
            assert not shared.ok, \
                f"defect {name} slipped past the context-sharing verifier"
            assert [str(f) for f in shared.findings] == \
                [str(f) for f in rebuilt.findings], name
            assert shared.warnings == rebuilt.warnings, name
            caught[name] = sorted({finding.check
                                   for finding in shared.findings})
        assert set(caught) == set(DEFECT_MUTATORS)
        for name, expected in EXPECTED_CHECK.items():
            assert expected in caught[name], (name, caught[name])
        # Each defect is caught by its own check, not by collateral.
        assert caught["break-control-object"] == ["reconstruction"]


# -- a cache hit shares by program text (ISSUE 20) -----------------------------


@pytest.mark.parametrize("app_name", SUITE_APPS)
def test_restored_result_shares_the_model_and_keeps_the_verdict(app_name):
    from repro.analysis.context import AnalysisContext
    from repro.pipeline.verify import _Checker

    app = build_app(app_name, packets=8)
    context = AnalysisContext(app.module, app.pps_name)
    for degree in (2, 5, 9):
        result = _restored(pipeline_pps(app.module, app.pps_name, degree,
                                        profiler=app.profiler,
                                        context=context))
        assert result.normalized is not context.work
        checker = _Checker(result, 1.0 / 16.0, context=context)
        assert checker.model is context.model
        assert checker.liveness.function is result.normalized
        shared = checker.run()
        rebuilt = verify_partition(result, context=None)
        assert shared.ok, shared.summary()
        assert shared.findings == rebuilt.findings
        assert shared.warnings == rebuilt.warnings
        assert shared.checks_run == rebuilt.checks_run


def test_restored_degree_one_result_needs_no_analyses():
    from repro.analysis.context import AnalysisContext

    _, result = _partition_with_context(degree=1)
    app = build_app("rx", packets=8)
    context = AnalysisContext(app.module, app.pps_name)  # as a hit finds it
    verdict = verify_partition(_restored(result), context=context)
    assert verdict.ok and verdict.checks_run == ("reconstruction",)
    assert context._ssa is None and context._model is None
