"""Partition supervision: partition once, verify once, fail loud.

``supervise_partition`` wraps ``pipeline_pps`` + ``verify_partition``.
The paper's partitioner promises three things about every cut — no
backward dependence, a minimal live set, ε-balanced stages — and the
independent verifier checks all three.  A rejection therefore means the
partitioner is wrong: it raises :class:`~repro.pipeline.verify.VerifyError`
(a :class:`PipelineError`) carrying the verifier's findings.  A
partitioner error propagates with its own message.  The CLI exits 1 on
either.

Cache interaction: the supervisor writes nothing.  ``pipeline_pps``
stores a miss once, under a key that hashes the degree and with the
degree stamped in the envelope, and only serves a hit whose stamped
``degree`` equals the request.  Every result, hit or miss, goes through
the verifier here before it is returned — so a forged cache record is a
rejection, never an unverified result.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.context import AnalysisContext
from repro.ir.function import Module
from repro.pipeline.transform import PipelineError, PipelineResult, pipeline_pps
from repro.pipeline.verify import VerifyVerdict, verify_partition
from repro.runspec import Knobs


@dataclass(frozen=True)
class PartitionOutcome:
    """A verified partition and the verdict that passed it."""

    result: PipelineResult
    verdict: VerifyVerdict

    # Constants read by the frozen ``bench/compiling.py`` (``ok``,
    # ``degraded``, ``len(attempts)``) until ROADMAP item 5 refreshes it.
    ok = True
    degraded = False
    attempts = ("verified",)


def supervise_partition(module: Module, pps_name: str, degree: int, *,
                        knobs: Knobs = Knobs(),
                        profiler=None,
                        cache=None,
                        partition=pipeline_pps,
                        verifier=verify_partition,
                        context: AnalysisContext | None = None
                        ) -> PartitionOutcome:
    """Partition ``pps_name`` at exactly ``degree`` stages, verified.

    ``partition`` and ``verifier`` are test seams (fault injection into
    the partitioner, verifier doubles); they default to the real
    ``pipeline_pps`` / ``verify_partition``.  A ``context`` that matches
    the request is shared by the partitioner and the verifier; any
    other is replaced by a fresh one.

    Raises :class:`PipelineError` for a malformed input (unknown PPS,
    degree < 1), whatever the partitioner raises, and
    :class:`~repro.pipeline.verify.VerifyError` when the verifier
    rejects the result.
    """
    if pps_name not in module.ppses:
        raise PipelineError(f"unknown pps {pps_name!r}")
    if context is None or not context.matches(
            module, pps_name, knobs.max_block_instructions):
        context = AnalysisContext(module, pps_name,
                                  knobs.max_block_instructions)
    result = partition(module, pps_name, degree, knobs=knobs,
                       profiler=profiler, cache=cache, context=context)
    verdict = verifier(result, epsilon=knobs.epsilon, context=context)
    verdict.raise_if_rejected()
    return PartitionOutcome(result=result, verdict=verdict)
