"""Content-addressed cache keys for compilation artifacts.

A partition result is fully determined by the canonical text of the PPS
being partitioned (plus the module declarations it can observe), the
pipelining degree, the machine cost table, and the partitioner knobs —
the balanced-cut search is deterministic (paper §5: iterative
push-relabel over a statically weighted flow network).  The key is the
SHA-256 digest over exactly those inputs, so any byte change to any of
them moves the artifact to a new address.

Stage pipes realized by an earlier partition (``<pps>.xferN``) are
*excluded* from the canonical text: they are outputs of the
transformation, and keying on them would make the second partition of a
module hash differently from the first.
"""

from __future__ import annotations

import hashlib
import json

from repro import __version__
from repro.ir.function import Module
from repro.ir.printer import format_function
from repro.machine.costs import COST_TABLE_VERSION, CostModel
from repro.pipeline.liveset import Strategy
from repro.pipeline.realize import stage_pipe_name

#: Version salt for both the key schema and the envelope layout; bumping
#: it orphans (and thereby invalidates) every previously stored artifact.
#: v2: PipelineResult gained ``profiled``/``cache_key`` and the envelope
#: header gained the ``annotations`` stamp (degree + verifier verdict).
#: v3: CutDiagnostics gained the ``pr_work``/``warm_hit`` work-accounting
#: fields; pre-v3 artifacts would deserialize with stale/absent work
#: metrics, so they are invalidated wholesale.
#: v4: PipelineResult lost ``model`` (the dependence model and its SSA
#: clone, 60-80 % of every payload) and ``cache_key`` and gained
#: ``stage_weights``; the envelope is stamped with ``degree`` only.
#: v5: ``incremental`` left the hashed payload (a partition does not
#: depend on it), so every artifact has one address instead of two.
CACHE_SCHEMA_VERSION = 5


def canonical_pps_text(module: Module, pps_name: str) -> str:
    """The canonical source text of one PPS: module declarations plus the
    (inlined, optimized) IR of the PPS itself, in sorted order.

    Synthetic stage pipes from previous partitions are filtered out so
    the text only reflects *inputs* to the transformation.
    """
    synthetic = {stage_pipe_name(pps_name, cut) for cut in range(1, 64)}
    lines = []
    for name in sorted(module.pipes):
        if name in synthetic or ".xfer" in name:
            continue
        lines.append(f"pipe {name}")
    for name in sorted(module.regions):
        region = module.regions[name]
        readonly = "readonly " if region.readonly else ""
        lines.append(f"{readonly}memory {region.name}[{region.size}]")
    lines.append("")
    lines.append(format_function(module.pps(pps_name)))
    return "\n".join(lines)


def cost_identity(costs: CostModel) -> dict:
    """The cost-table fields the compile key is salted with.

    Every parameter that shapes the flow network (VCost/CCost) or the
    realized transmission code (send/receive overheads) is included, so
    two tables differing in *any* field occupy different cache
    addresses.  ``repro explore`` asserts pairwise-distinct identities
    for the tables of a search space before enumerating it
    (:meth:`repro.eval.explore.SearchSpace.validate`).
    """
    return {
        "table_version": COST_TABLE_VERSION,
        "name": costs.name,
        "vcost_per_word": costs.vcost_per_word,
        "ccost": costs.ccost,
        "send_fixed": costs.send_fixed,
        "send_per_word": costs.send_per_word,
        "recv_fixed": costs.recv_fixed,
        "recv_per_word": costs.recv_per_word,
    }


def compile_key(module: Module, pps_name: str, degree: int, *,
                costs: CostModel,
                epsilon: float,
                strategy: Strategy,
                interference: str,
                max_block_instructions: int,
                profiles: list[dict] | None = None,
                incremental: bool = True) -> str:
    """SHA-256 key of one ``pipeline_pps`` invocation's inputs."""
    # ``incremental`` is accepted and not hashed: the frozen benchmark's
    # traced pass still spells it (bench/compiling.py:229); it goes with
    # ROADMAP item 5's benchmark refresh.
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "repro": __version__,
        "source": canonical_pps_text(module, pps_name),
        "pps": pps_name,
        "degree": degree,
        "costs": cost_identity(costs),
        "epsilon": repr(epsilon),
        "strategy": strategy.value,
        "interference": interference,
        "max_block_instructions": max_block_instructions,
        "profiles": profiles,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
