"""The partition supervisor: one partition, one verification, and a
loud failure.

* a clean partition is verified at the requested degree;
* a partitioner error propagates with its own message, and a verifier
  rejection raises a ``PipelineError`` carrying the findings — nothing
  retries or degrades behind the caller's back;
* a miss is stored once, a hit writes nothing, and the verifier runs on
  both — so a forged cache record is a rejection, never an unverified
  result.
"""

from __future__ import annotations

import pytest

from repro.cache import CompileCache
from repro.pipeline.supervisor import supervise_partition
from repro.pipeline.transform import PipelineError
from repro.pipeline.verify import (
    VerifyError,
    VerifyFinding,
    VerifyVerdict,
    verify_partition,
)

from helpers import STANDARD_PPS, compile_module


def _module():
    return compile_module(STANDARD_PPS)


# -- clean path ---------------------------------------------------------------


def test_clean_partition_verifies_first_try():
    outcome = supervise_partition(_module(), "worker", 3)
    assert outcome.result.degree == 3
    assert outcome.verdict.ok and outcome.verdict.degree == 3


def test_malformed_inputs_still_raise():
    with pytest.raises(PipelineError, match="unknown pps"):
        supervise_partition(_module(), "nope", 2)
    with pytest.raises(PipelineError, match=">= 1"):
        supervise_partition(_module(), "worker", 0)


# -- failures are loud -------------------------------------------------------


def test_partitioner_error_propagates_with_its_own_message():
    def failing(module, pps_name, degree, **kwargs):
        raise RuntimeError(f"injected partitioner fault at {degree}")

    with pytest.raises(RuntimeError, match="injected partitioner fault at 4"):
        supervise_partition(_module(), "worker", 4, partition=failing)


#: Sends on a pipe before its loop: the prologue is replicated per
#: stage, so ``pipeline_pps`` refuses it at every degree.
PROLOGUE_PPS = """
pipe in_q;
pipe out_q;

pps demo {
    pipe_send(out_q, 7);
    for (;;) {
        int v = pipe_recv(in_q);
        pipe_send(out_q, v * 3);
    }
}
"""


def test_a_prologue_effect_names_the_intrinsic():
    with pytest.raises(PipelineError,
                       match="prologue intrinsic 'pipe_send'"):
        supervise_partition(compile_module(PROLOGUE_PPS), "demo", 3)


def test_verifier_rejection_is_a_pipeline_error():
    def picky_verifier(result, **kwargs):
        verdict = verify_partition(result, **kwargs)
        return VerifyVerdict(
            pps_name=result.pps_name, degree=result.degree,
            findings=[VerifyFinding(check="liveness",
                                    detail="synthetic rejection")],
            warnings=[], checks_run=verdict.checks_run)

    with pytest.raises(VerifyError, match="synthetic rejection") as excinfo:
        supervise_partition(_module(), "worker", 4, verifier=picky_verifier)
    assert isinstance(excinfo.value, PipelineError)
    assert excinfo.value.verdict.degree == 4
    assert [finding.check for finding in excinfo.value.verdict.findings] \
        == ["liveness"]


# -- cache interaction --------------------------------------------------------


def _only_entry(cache):
    """(key, path) of the single entry in ``cache``'s store."""
    (path,) = (cache.root / "objects").glob("*/*.bin")
    return path.stem, path


def test_verified_result_is_stamped_in_the_cache(tmp_path):
    module = _module()
    cache = CompileCache(tmp_path / "cache")
    outcome = supervise_partition(module, "worker", 3, cache=cache)
    assert outcome.verdict.ok
    key, _ = _only_entry(cache)
    assert cache.lookup(key, expect={"degree": 3}) is not None
    # A degree mismatch is a rejection, not a hit — the entry stays on
    # disk for its rightful consumers.
    assert cache.lookup(key, expect={"degree": 4}) is None
    assert cache.rejected == 1
    assert cache.lookup(key, expect={"degree": 3}) is not None


def _counting_verifier():
    calls = []

    def verifier(result, **kwargs):
        calls.append(result.degree)
        return verify_partition(result, **kwargs)

    return verifier, calls


def test_a_miss_stores_once_and_a_hit_writes_nothing(tmp_path):
    """The cache's cost is one write per miss; the verifier still runs
    once per call, on the hit exactly as on the miss."""
    cold = CompileCache(tmp_path / "cache")
    verifier, calls = _counting_verifier()
    outcome = supervise_partition(_module(), "worker", 3, cache=cold,
                                  verifier=verifier)
    assert outcome.verdict.ok and calls == [3]
    assert (cold.misses, cold.stores, cold.hits) == (1, 1, 0)
    _, path = _only_entry(cold)
    stored = path.read_bytes()

    warm = CompileCache(tmp_path / "cache")
    verifier, calls = _counting_verifier()
    again = supervise_partition(_module(), "worker", 3, cache=warm,
                                verifier=verifier)
    assert again.verdict.ok and calls == [3]
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


def test_forged_record_is_rejected_loudly(tmp_path):
    """A well-formed record can only yield a legal cut or an error: one
    that moves a block a stage earlier than a dependence allows
    realizes, and the verifier rejects it — a ``PipelineError`` naming
    the finding, never an unverified result."""
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
    with pytest.raises(VerifyError, match="colocated") as excinfo:
        supervise_partition(compile_module(_TWO_SENDS_PPS), "split", 2,
                            cache=warm)
    assert warm.hits == 1 and warm.stores == 0
    assert any(finding.check == "dependence"
               and "colocated" in finding.detail
               for finding in excinfo.value.verdict.findings)


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
    assert all(outcome.verdict.ok for outcome in outcomes)
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
    assert hit.result.profiled == cold.result.profiled \
        == (app_name == "ip_v4")
    assert hit.verdict.as_dict() == cold.verdict.as_dict()
