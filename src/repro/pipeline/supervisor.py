"""Partition supervision: verify, retry, degrade — never crash.

``supervise_partition`` wraps ``pipeline_pps`` + ``verify_partition``
in a staged graceful-degradation ladder:

1. partition at the requested degree D and verify independently;
2. on a partitioner exception *or* a verifier rejection, retry the same
   degree once with the balance slack doubled and blocks split finer —
   the perturbation that can move a cut (and so a verdict), and one
   that also takes the solver down a different trajectory;
3. when every attempt at a degree fails, degrade D → ⌈D/2⌉ → … → 1.
   The sequential "pipeline" (degree 1) is always valid, so supervised
   partitioning returns a usable program for any well-formed PPS.

The outcome is a :class:`PartitionOutcome`: the verified result (at the
achieved degree), the verifier verdict, and one :class:`AttemptRecord`
per attempt — callers surface degradation as a warning plus the
``degraded success`` exit code instead of a crash.

Cache interaction: the supervisor writes nothing.  ``pipeline_pps``
stores a miss once, under a key that hashes the degree and with the
degree stamped in the envelope, and only serves a hit whose stamped
``degree`` equals the request — so a degraded artifact can never
masquerade as a full-degree hit.  Every result, hit or miss, goes
through the verifier here before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis.context import AnalysisContext
from repro.ir.function import Module
from repro.pipeline.transform import PipelineError, PipelineResult, pipeline_pps
from repro.pipeline.verify import VerifyVerdict, verify_partition
from repro.runspec import Knobs

#: The knobs an attempt's JSON record reports (cost table and strategy
#: are the caller's at every attempt).
_REPORTED_KNOBS = ("epsilon", "interference", "max_block_instructions")


@dataclass
class AttemptRecord:
    """One rung of the degradation ladder: a partition+verify attempt."""

    degree: int
    knobs: Knobs
    outcome: str                 # "verified" | "partition-error" | "rejected"
    error: str | None = None     # partitioner exception text
    findings: list = field(default_factory=list)  # verifier findings

    def as_dict(self) -> dict:
        record = {"degree": self.degree,
                  "knobs": {name: getattr(self.knobs, name)
                            for name in _REPORTED_KNOBS},
                  "outcome": self.outcome}
        if self.error is not None:
            record["error"] = self.error
        if self.findings:
            record["findings"] = [finding.as_dict()
                                  for finding in self.findings]
        return record


@dataclass
class PartitionOutcome:
    """What supervised partitioning achieved, and how."""

    pps_name: str
    requested_degree: int
    achieved_degree: int
    result: PipelineResult | None
    verdict: VerifyVerdict | None
    attempts: list[AttemptRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def degraded(self) -> bool:
        return self.ok and self.achieved_degree < self.requested_degree

    def summary(self) -> str:
        if not self.ok:
            return (f"{self.pps_name}: partitioning failed at every degree "
                    f"down from {self.requested_degree} "
                    f"({len(self.attempts)} attempts)")
        if self.degraded:
            return (f"{self.pps_name}: degraded to {self.achieved_degree} "
                    f"stages (requested {self.requested_degree}; "
                    f"{len(self.attempts)} attempts)")
        return (f"{self.pps_name}: verified at degree "
                f"{self.achieved_degree}")

    def as_dict(self) -> dict:
        return {
            "pps": self.pps_name,
            "requested_degree": self.requested_degree,
            "achieved_degree": self.achieved_degree,
            "ok": self.ok,
            "degraded": self.degraded,
            "verdict": self.verdict.as_dict() if self.verdict else None,
            "attempts": [attempt.as_dict() for attempt in self.attempts],
        }


def degradation_ladder(degree: int) -> list[int]:
    """The degrees tried, in order: D, ⌈D/2⌉, …, 1 (each one once)."""
    rungs = []
    current = max(1, degree)
    while current not in rungs:
        rungs.append(current)
        if current == 1:
            break
        current = (current + 1) // 2
    return rungs


def _rung_knobs(base: Knobs) -> list[Knobs]:
    """The knob sets tried at one degree: the caller's, then widened."""
    widened = replace(base, epsilon=base.epsilon * 2)
    if base.max_block_instructions > 0:
        widened = replace(widened, max_block_instructions=max(
            4, base.max_block_instructions // 2))
    return [base, widened]


def supervise_partition(module: Module, pps_name: str, degree: int, *,
                        knobs: Knobs = Knobs(),
                        profiler=None,
                        cache=None,
                        partition=pipeline_pps,
                        verifier=verify_partition,
                        context: AnalysisContext | None = None
                        ) -> PartitionOutcome:
    """Partition ``pps_name`` at (up to) ``degree`` stages, verified.

    ``knobs`` is the first attempt's :class:`~repro.runspec.Knobs`; each
    degree gets one more attempt, widened (:func:`_rung_knobs`), before
    degrading.  ``partition`` and ``verifier`` are test seams (fault
    injection into the partitioner, verifier doubles); they default to
    the real ``pipeline_pps`` / ``verify_partition``.

    Every ladder rung shares one :class:`AnalysisContext` per
    block-split setting (a caller-supplied ``context`` seeds the pool),
    so a retry pays only for cut selection, not re-analysis.  The shared
    context is also handed to the verifier.

    Raises :class:`PipelineError` only for malformed *inputs* (unknown
    PPS, degree < 1) — the conditions no amount of degradation can fix.
    Internal partitioner failures and verifier rejections degrade.
    """
    if pps_name not in module.ppses:
        raise PipelineError(f"unknown pps {pps_name!r}")
    if degree < 1:
        raise PipelineError("pipelining degree must be >= 1")

    contexts: dict[int, AnalysisContext] = {}
    if context is not None and context.matches(
            module, pps_name, knobs.max_block_instructions):
        contexts[knobs.max_block_instructions] = context
    attempts: list[AttemptRecord] = []
    for rung in degradation_ladder(degree):
        for tried in _rung_knobs(knobs):
            try:
                # Built inside the try: an analysis crash on a malformed
                # body must degrade down the ladder, not escape it.
                mbi = tried.max_block_instructions
                ctx = contexts.get(mbi)
                if ctx is None:
                    ctx = contexts[mbi] = AnalysisContext(
                        module, pps_name, mbi)
                result = partition(
                    module, pps_name, rung, knobs=tried, profiler=profiler,
                    cache=cache, context=ctx)
            except Exception as exc:
                attempts.append(AttemptRecord(
                    degree=rung, knobs=tried, outcome="partition-error",
                    error=f"{type(exc).__name__}: {exc}"))
                continue
            verdict = verifier(result, epsilon=tried.epsilon,
                               context=contexts.get(mbi))
            if not verdict.ok:
                attempts.append(AttemptRecord(
                    degree=rung, knobs=tried, outcome="rejected",
                    findings=list(verdict.findings)))
                continue
            attempts.append(AttemptRecord(degree=rung, knobs=tried,
                                          outcome="verified"))
            return PartitionOutcome(
                pps_name=pps_name, requested_degree=degree,
                achieved_degree=rung, result=result, verdict=verdict,
                attempts=attempts)
    return PartitionOutcome(pps_name=pps_name, requested_degree=degree,
                            achieved_degree=0, result=None, verdict=None,
                            attempts=attempts)
