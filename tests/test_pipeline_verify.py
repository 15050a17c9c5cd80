"""The independent post-partition verifier (src/repro/pipeline/verify.py).

The ISSUE 5 acceptance contract:

* every suite app at D in {2, 4, 8} passes verification with zero
  rejections (warnings are allowed: reported-unbalanced cuts and
  profile-refined stages downgrade to warnings by design);
* every seeded defect class — dropped live variable, flipped cut edge,
  unbalanced stage, broken control object, array accesses split across
  stages — is rejected, each by the check family that owns it;
* the verifier recomputes its ground truth from the *normalized*
  function, never trusting the partitioner's own diagnostics.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.apps.suite import build_app
from repro.eval.fuzz import DEFECT_MUTATORS, SELF_TEST_PPS, seeded_defects
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
    "split-array-state": "dependence",
}

#: The programs the seeded defects corrupt: (source, PPS, the defects
#: that apply).  STANDARD_PPS declares no array, so nothing splits one.
DEFECT_SUBSTRATES = [
    (STANDARD_PPS, "worker", set(DEFECT_MUTATORS) - {"split-array-state"}),
    (SELF_TEST_PPS, "selfcheck", set(DEFECT_MUTATORS)),
]


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
    for source, pps_name, applies in DEFECT_SUBSTRATES:
        module = compile_module(source)
        result = pipeline_pps(module, pps_name, 3)
        assert verify_partition(result).ok  # mutants start from a clean base
        caught = {}
        for name, mutant in seeded_defects(result):
            verdict = verify_partition(mutant)
            assert not verdict.ok, f"defect {name} slipped past the verifier"
            caught[name] = sorted({finding.check
                                   for finding in verdict.findings})
        assert set(caught) == applies, pps_name
        for name in applies:
            assert EXPECTED_CHECK[name] in caught[name], (name, caught[name])


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
    """``result`` holding another copy of its program: equal content, no
    object shared with the context."""
    return pickle.loads(pickle.dumps(result))


def test_mismatched_context_is_ignored_not_trusted():
    """A context whose ``work`` is not the result's ``normalized`` must
    never supply the ground truth — another program, or a copy of this
    one, gets a fresh rebuild and the verdict the context would give."""
    from repro.analysis.context import AnalysisContext
    from repro.pipeline.verify import _Checker

    context, result = _partition_with_context("rx")
    other_app = build_app("tx", packets=8)
    stranger = AnalysisContext(other_app.module, other_app.pps_name)
    checker = _Checker(result, 1.0 / 16.0, context=stranger)
    assert checker.model is not stranger.model
    assert checker.work is result.normalized

    twin = _restored(result)
    checker = _Checker(twin, 1.0 / 16.0, context=context)
    assert checker.model is not context.model
    assert checker.liveness is not context.liveness
    assert checker.liveness.function is twin.normalized
    rebuilt = checker.run()
    shared = verify_partition(result, context=context)
    assert rebuilt.ok and shared.ok
    assert rebuilt.warnings == shared.warnings


def test_shared_context_still_rejects_every_seeded_defect():
    """Passing a context never weakens the verifier: seeded_defects
    deep-copies, so every mutant holds another copy of the program and
    is checked against a full rebuild — with the verdict a context-free
    run gives, finding for finding, on a fresh base and on a copy."""
    from repro.analysis.context import AnalysisContext
    from repro.pipeline.verify import _Checker

    for source, pps_name, applies in DEFECT_SUBSTRATES:
        module = compile_module(source)
        context = AnalysisContext(module, pps_name)
        result = pipeline_pps(module, pps_name, 3, context=context)
        assert verify_partition(result, context=context).ok
        for base in (result, _restored(result)):
            caught = {}
            for name, mutant in seeded_defects(base):
                checker = _Checker(mutant, 1.0 / 16.0, context=context)
                assert checker.model is not context.model
                assert checker.liveness.function is mutant.normalized
                shared = checker.run()
                rebuilt = verify_partition(mutant, context=None)
                assert not shared.ok, \
                    f"defect {name} slipped past the verifier given a context"
                assert [str(f) for f in shared.findings] == \
                    [str(f) for f in rebuilt.findings], name
                assert shared.warnings == rebuilt.warnings, name
                caught[name] = sorted({finding.check
                                       for finding in shared.findings})
            assert set(caught) == applies, pps_name
            for name in applies:
                assert EXPECTED_CHECK[name] in caught[name], \
                    (name, caught[name])
            # Each defect is caught by its own check, not by collateral.
            assert caught["break-control-object"] == ["reconstruction"]


# -- a cache hit is realized from the context's program ----------------------


@pytest.mark.parametrize("app_name", SUITE_APPS)
def test_restored_result_shares_the_model_and_keeps_the_verdict(
        app_name, tmp_path):
    """A compile-cache hit realizes its stages from ``context.work``, so
    the verifier shares the context's analyses by identity; a copy of
    the same result is rebuilt from scratch and gets the same verdict."""
    from repro.analysis.context import AnalysisContext
    from repro.cache import CompileCache
    from repro.pipeline.verify import _Checker

    cache = CompileCache(tmp_path / "cache")
    cold = build_app(app_name, packets=8)
    for degree in (2, 5, 9):
        pipeline_pps(cold.module, cold.pps_name, degree,
                     profiler=cold.profiler, cache=cache)
    app = build_app(app_name, packets=8)
    context = AnalysisContext(app.module, app.pps_name)
    for degree in (2, 5, 9):
        hit = pipeline_pps(app.module, app.pps_name, degree,
                           profiler=app.profiler, context=context,
                           cache=cache)
        assert hit.normalized is context.work
        checker = _Checker(hit, 1.0 / 16.0, context=context)
        assert checker.model is context.model
        assert checker.liveness is context.liveness
        shared = checker.run()
        twin = _Checker(_restored(hit), 1.0 / 16.0, context=context)
        assert twin.model is not context.model
        rebuilt = twin.run()
        assert shared.ok, shared.summary()
        assert shared.findings == rebuilt.findings
        assert shared.warnings == rebuilt.warnings
        assert shared.checks_run == rebuilt.checks_run
    assert (cache.hits, cache.misses) == (3, 3)


def test_restored_degree_one_result_needs_no_analyses():
    from repro.analysis.context import AnalysisContext

    _, result = _partition_with_context(degree=1)
    app = build_app("rx", packets=8)
    context = AnalysisContext(app.module, app.pps_name)  # as a hit finds it
    verdict = verify_partition(_restored(result), context=context)
    assert verdict.ok and verdict.checks_run == ("reconstruction",)
    assert context._ssa is None and context._model is None
