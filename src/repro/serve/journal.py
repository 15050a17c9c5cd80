"""Per-shard input journal with an exactly-once commit watermark.

The dispatcher journals every shard's batches *before* any worker runs;
a worker incarnation always replays its shard's journal from batch 1 on
a fresh machine state, so a restart deterministically rebuilds the
machine the dead incarnation had — there is no mid-stream checkpoint to
get subtly wrong.  What makes replay safe is the commit watermark:

* ``append`` assigns batch sequence numbers 1..N at dispatch time;
* ``accept(seq)`` commits a worker-reported result exactly once — a
  result for an already-committed sequence (a restarted incarnation
  re-delivering work its predecessor committed) is counted as a
  *redelivery* and dropped;
* results must arrive in order per shard (each worker is sequential and
  its pipe preserves order), so a gap means a protocol bug and raises.

Together with flow-hash sharding this yields the serving runtime's
headline guarantee: every packet of every flow is delivered exactly
once, in flow order, no matter how many times workers die (see
``tests/test_serve_property.py``).

The journal lives in the supervisor's memory only.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class BatchRecord:
    """One journaled feed batch of one shard."""

    shard: int
    seq: int                    # 1-based, dense per shard
    packets: list


@dataclass
class ShardJournal:
    """One shard's batches plus its commit watermark and counters."""

    shard: int
    records: list[BatchRecord] = field(default_factory=list)
    committed: int = 0          # highest committed batch seq
    redeliveries: int = 0       # results dropped as already-committed
    replays: int = 0            # incarnations that replayed the journal

    def append(self, packets: list) -> BatchRecord:
        record = BatchRecord(shard=self.shard, seq=len(self.records) + 1,
                             packets=list(packets))
        self.records.append(record)
        return record

    def accept(self, seq: int) -> bool:
        """Commit a worker result.  True = first delivery (commit it);
        False = redelivery of an already-committed batch (drop it)."""
        if seq <= self.committed:
            self.redeliveries += 1
            return False
        if seq != self.committed + 1:
            raise RuntimeError(
                f"shard {self.shard}: result for batch {seq} arrived "
                f"with watermark at {self.committed} (results must be "
                f"in order and gap-free)")
        self.committed = seq
        return True

    @property
    def pending(self) -> int:
        """Batches journaled but not yet committed."""
        return len(self.records) - self.committed

    @property
    def done(self) -> bool:
        return self.committed == len(self.records)


class Journal:
    """All shards' journals."""

    def __init__(self, shards: int):
        self.shards = [ShardJournal(index) for index in range(shards)]

    def __getitem__(self, shard: int) -> ShardJournal:
        return self.shards[shard]

    def append(self, shard: int, packets: list) -> BatchRecord:
        return self.shards[shard].append(packets)

    def accept(self, shard: int, seq: int) -> bool:
        return self.shards[shard].accept(seq)

    def note_replay(self, shard: int) -> None:
        self.shards[shard].replays += 1

    @property
    def done(self) -> bool:
        return all(journal.done for journal in self.shards)

    def counters(self) -> dict:
        return {
            "batches": sum(len(j.records) for j in self.shards),
            "committed": sum(j.committed for j in self.shards),
            "pending": sum(j.pending for j in self.shards),
            "replays": sum(j.replays for j in self.shards),
            "redeliveries": sum(j.redeliveries for j in self.shards),
        }
