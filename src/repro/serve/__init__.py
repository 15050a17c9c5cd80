"""Fault-tolerant sharded serving runtime (``repro serve``).

* :mod:`repro.serve.shard` — process-stable flow hashing and the
  dispatcher's stream → shard → batch split;
* :mod:`repro.serve.journal` — per-shard input journals with an
  exactly-once commit watermark (replay + redelivery accounting);
* :mod:`repro.serve.worker` — the child-process batch loop (compiled
  pipeline per worker, watchdog failure classification, deterministic
  fault injection) and the batch runner it shares with the oracle;
* :mod:`repro.serve.supervise` — the supervisor: liveness, crash
  recovery (a dead worker respawned at once) up to a per-shard restart
  budget, graceful drain, and the sequential oracle it steps in its idle
  time.

See ``docs/serving.md`` for the architecture and lifecycle.
"""

from repro.serve.journal import BatchRecord, Journal, ShardJournal
from repro.serve.shard import (
    flow_key,
    make_batches,
    shard_index,
    shard_stream,
)
from repro.serve.supervise import (
    ServeError,
    ServeReport,
    ServeRuntime,
    compare_deltas,
    shard_oracle,
)
from repro.serve.worker import worker_main

__all__ = [
    "BatchRecord",
    "Journal",
    "ServeError",
    "ServeReport",
    "ServeRuntime",
    "ShardJournal",
    "compare_deltas",
    "flow_key",
    "make_batches",
    "shard_index",
    "shard_oracle",
    "shard_stream",
    "worker_main",
]
