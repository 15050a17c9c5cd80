"""The partition supervisor's graceful-degradation ladder.

The ISSUE 5 acceptance contract:

* under an injected partitioner fault at the requested degree the
  supervisor degrades down the D → ⌈D/2⌉ → … → 1 ladder, and the
  degraded pipeline's observable behaviour is bit-identical to the
  sequential oracle;
* every attempt (each degree's widened retry included) is recorded;
* a rejection the widened knobs cure is verified at the *requested*
  degree, on attempt 2 (ISSUE 22);
* a degraded artifact is never served for a full-degree request;
* a miss is stored once, a hit writes nothing, and the verifier runs on
  both — so a forged cache record costs a rejected attempt, never an
  unverified result.
"""

from __future__ import annotations

import pytest

from repro.cache import CompileCache
from repro.pipeline.supervisor import (
    PartitionOutcome,
    degradation_ladder,
    supervise_partition,
)
from repro.pipeline.transform import PipelineError, pipeline_pps
from repro.pipeline.verify import verify_partition
from repro.runtime.equivalence import assert_equivalent, observe
from repro.runtime.scheduler import run_pipeline, run_sequential
from repro.runtime.state import MachineState

from helpers import STANDARD_PPS, compile_module, standard_setup


def _module():
    return compile_module(STANDARD_PPS)


# -- the ladder ---------------------------------------------------------------


def test_degradation_ladder_halves_down_to_one():
    assert degradation_ladder(8) == [8, 4, 2, 1]
    assert degradation_ladder(5) == [5, 3, 2, 1]
    assert degradation_ladder(2) == [2, 1]
    assert degradation_ladder(1) == [1]


# -- clean path ---------------------------------------------------------------


def test_clean_partition_verifies_first_try():
    outcome = supervise_partition(_module(), "worker", 3)
    assert outcome.ok and not outcome.degraded
    assert outcome.achieved_degree == outcome.requested_degree == 3
    assert outcome.result.degree == 3
    assert outcome.verdict.ok
    assert [a.outcome for a in outcome.attempts] == ["verified"]
    assert "verified at degree 3" in outcome.summary()


def test_malformed_inputs_still_raise():
    with pytest.raises(PipelineError, match="unknown pps"):
        supervise_partition(_module(), "nope", 2)
    with pytest.raises(PipelineError, match=">= 1"):
        supervise_partition(_module(), "worker", 0)


# -- degradation under injected faults ----------------------------------------


def _failing_above(threshold):
    """A partitioner double that crashes for any degree > ``threshold``."""

    def partition(module, pps_name, degree, **kwargs):
        if degree > threshold:
            raise RuntimeError(f"injected partitioner fault at {degree}")
        return pipeline_pps(module, pps_name, degree, **kwargs)

    return partition


def test_partitioner_fault_degrades_to_the_next_viable_rung():
    module = _module()
    outcome = supervise_partition(module, "worker", 4,
                                  partition=_failing_above(2))
    assert outcome.ok and outcome.degraded
    assert outcome.requested_degree == 4
    assert outcome.achieved_degree == 2
    # Degree 4 was retried with widened knobs before degrading.
    failed = [a for a in outcome.attempts if a.outcome == "partition-error"]
    assert len(failed) == 2 and all(a.degree == 4 for a in failed)
    assert failed[0].as_dict()["knobs"] == {
        "epsilon": 0.0625, "interference": "exact",
        "max_block_instructions": 12}
    assert failed[1].as_dict()["knobs"] == {
        "epsilon": 0.125, "interference": "exact",
        "max_block_instructions": 6}
    assert outcome.attempts[-1].outcome == "verified"
    assert "degraded to 2 stages" in outcome.summary()

    # Acceptance: the degraded pipeline is bit-identical to the oracle.
    oracle = MachineState(module)
    iterations = standard_setup(oracle)
    run_sequential(module.pps("worker"), oracle, iterations=iterations)
    degraded = MachineState(module)
    standard_setup(degraded)
    run_pipeline(outcome.result.stages, degraded, iterations=iterations)
    assert_equivalent(observe(oracle), observe(degraded))


def test_verifier_rejection_degrades_too():
    def picky_verifier(result, **kwargs):
        verdict = verify_partition(result, **kwargs)
        if result.degree >= 3:
            # Simulate a rejection at high degrees regardless of reality.
            from repro.pipeline.verify import VerifyFinding, VerifyVerdict

            return VerifyVerdict(
                pps_name=result.pps_name, degree=result.degree,
                findings=[VerifyFinding(check="liveness",
                                        detail="synthetic rejection")],
                warnings=[], checks_run=verdict.checks_run)
        return verdict

    outcome = supervise_partition(_module(), "worker", 4,
                                  verifier=picky_verifier)
    assert outcome.ok and outcome.degraded
    assert outcome.achieved_degree == 2
    rejected = [a for a in outcome.attempts if a.outcome == "rejected"]
    assert rejected and all(a.findings for a in rejected)


def test_widened_retry_verifies_at_the_requested_degree():
    """The rung's one retry can move a verdict: a verifier that rejects
    the caller's ε = 1/16 and accepts ε = 1/8 ends at the requested
    degree on attempt 2 — no degradation."""
    from repro.pipeline.verify import VerifyFinding, VerifyVerdict

    def tight_verifier(result, *, epsilon, **kwargs):
        verdict = verify_partition(result, epsilon=epsilon, **kwargs)
        if epsilon < 0.125:
            return VerifyVerdict(
                pps_name=result.pps_name, degree=result.degree,
                findings=[VerifyFinding(check="balance",
                                        detail="synthetic: slack too tight")],
                warnings=[], checks_run=verdict.checks_run)
        return verdict

    outcome = supervise_partition(_module(), "worker", 4,
                                  verifier=tight_verifier)
    assert outcome.ok and not outcome.degraded
    assert outcome.achieved_degree == outcome.result.degree == 4
    assert [(a.degree, a.outcome, a.knobs.epsilon)
            for a in outcome.attempts] == \
        [(4, "rejected", 0.0625), (4, "verified", 0.125)]
    assert outcome.verdict.ok


def test_total_failure_returns_a_structured_outcome():
    def always_fails(module, pps_name, degree, **kwargs):
        raise RuntimeError("nothing works")

    outcome = supervise_partition(_module(), "worker", 4,
                                  partition=always_fails)
    assert not outcome.ok and outcome.result is None
    assert outcome.achieved_degree == 0
    # Every rung (4, 2, 1) tried with every knob variant (base + retry).
    assert len(outcome.attempts) == len(degradation_ladder(4)) * 2
    assert "failed at every degree" in outcome.summary()
    assert outcome.as_dict()["ok"] is False


# -- cache interaction --------------------------------------------------------


def _only_entry(cache):
    """(key, path) of the single entry in ``cache``'s store."""
    (path,) = (cache.root / "objects").glob("*/*.bin")
    return path.stem, path


def test_verified_result_is_stamped_in_the_cache(tmp_path):
    module = _module()
    cache = CompileCache(tmp_path / "cache")
    outcome = supervise_partition(module, "worker", 3, cache=cache)
    assert outcome.ok
    key, _ = _only_entry(cache)
    assert cache.lookup(key, expect={"degree": 3}) is not None
    # A full-degree expectation mismatch is a rejection, not a hit — the
    # entry stays on disk for its rightful consumers.
    assert cache.lookup(key, expect={"degree": 4}) is None
    assert cache.rejected == 1
    assert cache.lookup(key, expect={"degree": 3}) is not None


def test_degraded_artifact_never_serves_a_full_degree_request(tmp_path):
    module = _module()
    cache = CompileCache(tmp_path / "cache")
    outcome = supervise_partition(module, "worker", 4, cache=cache,
                                  partition=_failing_above(2))
    assert outcome.degraded and outcome.achieved_degree == 2
    degraded_key, degraded_path = _only_entry(cache)
    assert cache.lookup(degraded_key, expect={"degree": 2}) is not None

    # Acceptance: a later full-degree request recomputes; it never sees
    # the degraded degree-2 artifact (distinct key AND stamped degree).
    misses = cache.misses
    fresh = pipeline_pps(module, "worker", 4, cache=cache)
    assert fresh.degree == 4
    assert cache.misses == misses + 1
    assert degraded_path.exists()
    assert len(list((cache.root / "objects").glob("*/*.bin"))) == 2
    assert cache.lookup(degraded_key, expect={"degree": 4}) is None
    assert cache.rejected == 1


def _counting_verifier():
    calls = []

    def verifier(result, **kwargs):
        calls.append(result.degree)
        return verify_partition(result, **kwargs)

    return verifier, calls


def test_a_miss_stores_once_and_a_hit_writes_nothing(tmp_path):
    """The cache's cost is one write per miss; the verifier still runs
    once per attempt, on the hit exactly as on the miss."""
    cold = CompileCache(tmp_path / "cache")
    verifier, calls = _counting_verifier()
    outcome = supervise_partition(_module(), "worker", 3, cache=cold,
                                  verifier=verifier)
    assert outcome.ok and calls == [3]
    assert (cold.misses, cold.stores, cold.hits) == (1, 1, 0)
    _, path = _only_entry(cold)
    stored = path.read_bytes()

    warm = CompileCache(tmp_path / "cache")
    verifier, calls = _counting_verifier()
    again = supervise_partition(_module(), "worker", 3, cache=warm,
                                verifier=verifier)
    assert again.ok and again.verdict.ok and calls == [3]
    assert (warm.misses, warm.stores, warm.hits) == (0, 0, 1)
    assert path.read_bytes() == stored


#: Two sends on one pipe in exclusive arms: pipe order makes the arms a
#: loop-carried pair that must share a stage.
_TWO_SENDS_PPS = """
pipe in_q;
pipe out_q;

pps split {
    for (;;) {
        int v = pipe_recv(in_q);
        int a = (v * 3) ^ 21;
        int b = (a + v) * 7;
        int c = (b ^ a) + 5;
        if (v > 9) {
            pipe_send(out_q, c);
        } else {
            int d = (c * 9) ^ b;
            int e = (d + a) * 3;
            pipe_send(out_q, e + 1);
        }
    }
}
"""


def test_forged_record_is_rejected_and_recomputed(tmp_path):
    """A well-formed record can only yield a legal cut or nothing: one
    that moves a block a stage earlier than a dependence allows realizes,
    is rejected by the verifier on attempt 1, and the widened rung — a
    different key, so a fresh cut search — is verified."""
    import pickle

    cache = CompileCache(tmp_path / "cache")
    supervise_partition(compile_module(_TWO_SENDS_PPS), "split", 2,
                        cache=cache)
    key, path = _only_entry(cache)
    record = pickle.loads(path.read_bytes().partition(b"\n")[2])
    assert record["block_stage"]["if_then3"] == 2
    record["block_stage"]["if_then3"] = 1
    cache.store(key, record, annotations={"degree": 2})

    warm = CompileCache(tmp_path / "cache")
    outcome = supervise_partition(compile_module(_TWO_SENDS_PPS), "split", 2,
                                  cache=warm)
    first, second = outcome.attempts
    assert first.outcome == "rejected" and warm.hits == 1
    assert any(finding.check == "dependence"
               and "colocated" in finding.detail
               for finding in first.findings)
    assert second.outcome == "verified" and second.knobs.epsilon == 0.125
    assert outcome.ok and not outcome.degraded and outcome.verdict.ok
    assert outcome.result.assignment.block_stage["if_then3"] == 2


def test_outcome_as_dict_round_trips_to_json():
    import json

    outcome = supervise_partition(_module(), "worker", 2)
    payload = json.loads(json.dumps(outcome.as_dict()))
    assert payload["achieved_degree"] == 2
    assert payload["degraded"] is False
    assert isinstance(outcome, PartitionOutcome)


# -- a warm row pays the analyses once per program (ISSUE 20) -----------------


def _counting(monkeypatch, name):
    """Count calls of ``name`` from both modules that build the ground
    truth: the shared context and the checker's private rebuild."""
    import repro.analysis.context as context_module
    import repro.pipeline.verify as verify_module

    calls = []
    real = getattr(context_module, name)

    def double(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(context_module, name, double)
    monkeypatch.setattr(verify_module, name, double)
    return calls


def _row(app_name, degrees, cache, verifier=verify_partition):
    """One program at every degree, as a sweep runs it: a new module, one
    shared context, every cell supervised."""
    from repro.analysis.context import AnalysisContext
    from repro.apps.suite import build_app

    app = build_app(app_name, packets=8)
    context = AnalysisContext(app.module, app.pps_name)
    return context, [
        supervise_partition(app.module, app.pps_name, degree,
                            profiler=app.profiler, cache=cache,
                            context=context, verifier=verifier)
        for degree in degrees]


def test_a_warm_row_builds_the_analyses_once(tmp_path, monkeypatch):
    degrees = (2, 3, 5, 9)
    _row("ipv4", degrees, CompileCache(tmp_path / "cache"))

    ssa = _counting(monkeypatch, "construct_ssa")
    models = _counting(monkeypatch, "LoopDependenceModel")
    warm = CompileCache(tmp_path / "cache")
    verifier, verified = _counting_verifier()
    context, outcomes = _row("ipv4", degrees, warm, verifier)
    assert all(outcome.ok and outcome.verdict.ok and not outcome.degraded
               for outcome in outcomes)
    assert (warm.hits, warm.misses, warm.stores) == (4, 0, 0)
    assert verified == list(degrees)
    # Every hit is realized from the context's own program, so the
    # verifier takes the context's analyses by identity.
    assert all(outcome.result.normalized is context.work
               for outcome in outcomes)
    assert len(ssa) == len(models) == 1


@pytest.mark.parametrize("app_name, degrees", [("ip_v4", (4,)),
                                               ("ipv4", (1,))])
def test_profiled_and_degree_one_hits_verify_as_a_miss_does(
        tmp_path, app_name, degrees):
    _, [cold] = _row(app_name, degrees, CompileCache(tmp_path / "cache"))
    warm = CompileCache(tmp_path / "cache")
    _, [hit] = _row(app_name, degrees, warm)
    assert (warm.hits, warm.misses, warm.stores) == (1, 0, 0)
    assert hit.ok and not hit.degraded
    assert hit.result.profiled == cold.result.profiled \
        == (app_name == "ip_v4")
    assert hit.verdict.as_dict() == cold.verdict.as_dict()
    assert [a.as_dict() for a in hit.attempts] == \
        [a.as_dict() for a in cold.attempts]
