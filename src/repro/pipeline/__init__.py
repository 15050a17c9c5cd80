"""The pipelining transformation (paper §3)."""

from repro.pipeline.cuts import CutDiagnostics, StageAssignment, select_stages
from repro.pipeline.replicate import ReplicationResult, replicate_pps
from repro.pipeline.supervisor import PartitionOutcome, supervise_partition
from repro.pipeline.transform import PipelineError, PipelineResult, pipeline_pps
from repro.pipeline.verify import (
    VerifyError,
    VerifyFinding,
    VerifyVerdict,
    verify_partition,
)

__all__ = [
    "CutDiagnostics",
    "PartitionOutcome",
    "PipelineError",
    "PipelineResult",
    "ReplicationResult",
    "StageAssignment",
    "VerifyError",
    "VerifyFinding",
    "VerifyVerdict",
    "pipeline_pps",
    "replicate_pps",
    "select_stages",
    "supervise_partition",
    "verify_partition",
]
