"""Fault-tolerant sharded serving runtime (``repro serve``).

* :mod:`repro.serve.shard` — process-stable flow hashing and the
  dispatcher's stream → shard → batch split;
* :mod:`repro.serve.journal` — per-shard input journals with an
  exactly-once commit watermark (replay + redelivery accounting);
* :mod:`repro.serve.worker` — the child-process batch loop (compiled
  pipeline per worker, watchdog failure classification, deterministic
  fault injection) and the batch runner it shares with the oracle;
* :mod:`repro.serve.supervise` — the supervisor: heartbeats, crash
  recovery with exponential backoff, the restart-budget circuit
  breaker, re-sharding onto survivors, graceful drain, and the
  sequential oracle it steps in its idle time.

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
    ServePolicy,
    ServeReport,
    ServeRuntime,
    compare_deltas,
    serve,
    shard_oracle,
)
from repro.serve.worker import worker_main

__all__ = [
    "BatchRecord",
    "Journal",
    "ServeError",
    "ServePolicy",
    "ServeReport",
    "ServeRuntime",
    "ShardJournal",
    "compare_deltas",
    "flow_key",
    "make_batches",
    "serve",
    "shard_index",
    "shard_oracle",
    "shard_stream",
    "worker_main",
]
