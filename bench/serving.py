"""The ``serve`` layer: sharded serving runs, closed loop with 2 clients.

``shards = 2`` workers (= the cores of the box this was sized on), each
taking its next journaled batch when the previous one is done; the
supervisor is the only other process and mostly waits.  Every run has
``verify=True``: the sequential oracle re-runs every batch and a batch
that differs is a failed op.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from time import perf_counter, process_time

from simulating import count_report
from stats import gaps, mismatched_batches


@dataclass(frozen=True)
class ServeConfig:
    app: str
    shards: int
    degree: int
    batch: int
    packets: int
    seed: int
    #: Kill every worker's first incarnation after this many batches
    #: (``None`` = no fault).  Built by the benchmark: the builtin
    #: ``worker-kill`` plan kills after one batch and measures nothing.
    kill_after: int | None = None


@dataclass
class ServePass:
    """What one ``ServeRuntime.run()`` measured."""

    wall: float = 0.0
    started: float = 0.0
    stamps: list = field(default_factory=list)      # per shard
    counters: dict = field(default_factory=dict)
    instructions: int = 0

    @property
    def gaps(self) -> list:
        return [gap for shard in self.stamps for gap in gaps(shard)]

    @property
    def first_commit(self) -> float:
        return min(shard[0] for shard in self.stamps if shard)

    @property
    def last_commit(self) -> float:
        return max(shard[-1] for shard in self.stamps if shard)


def shard_batches(stream: list, config: ServeConfig) -> list:
    """The dispatcher's split: per shard, the list of feed batches."""
    from repro.serve import make_batches, shard_stream

    return [make_batches(substream, config.batch)
            for substream in shard_stream(stream, config.shards)]


def kill_point(stream: list, config: ServeConfig) -> int:
    """Half of the smallest shard's batches: late enough that the replay
    is worth measuring, early enough that every shard reaches it."""
    return max(1, min(len(batches) for batches
                      in shard_batches(stream, config)) // 2)


def account(report, config: ServeConfig, ledger, pass_index: int) -> None:
    """Enter one ``ServeReport`` into the ledger: an op is a batch.

    A batch fails when it is left uncommitted or differs from the oracle
    (``report.mismatches``, the lines ``compare_deltas`` wrote); every
    batch of the pass fails when the run is not verified, is degraded,
    or (with a kill plan) the fault did not fire exactly once per shard.
    """
    batches = [(pass_index, entry["shard"], seq)
               for entry in report.shard_stats
               for seq in range(1, entry["batches"] + 1)]
    for batch in batches:
        ledger.attempt(batch)
    for entry in report.shard_stats:
        for seq in range(entry["committed"] + 1, entry["batches"] + 1):
            ledger.fail((pass_index, entry["shard"], seq), "uncommitted")
    for shard, seq in mismatched_batches(report.mismatches):
        ledger.fail((pass_index, shard, seq), "differs from the oracle")
    verdict = None
    if report.verified is not True:
        verdict = f"verified is {report.verified!r}"
    elif report.degraded:
        verdict = "degraded"
    elif config.kill_after is not None and (
            report.counters["restarts"] != config.shards
            or report.counters["redeliveries"] == 0):
        verdict = (f"the fault did not fire once per shard "
                   f"(restarts {report.counters['restarts']}, "
                   f"redeliveries {report.counters['redeliveries']})")
    if verdict is not None:
        ledger.fail_all(batches, f"pass {pass_index}: {verdict}")


def serve_pass(config: ServeConfig, cache, ledger, pass_index: int,
               ) -> ServePass:
    """One ``ServeRuntime.run()``: dispatch, spawn, serve, verify,
    teardown — what a ``repro serve`` user waits for."""
    from repro.runtime.faults import FaultPlan
    from repro.serve import ServeRuntime

    plan = None
    if config.kill_after is not None:
        plan = FaultPlan.from_dict(
            {"workers": {"*": {"kill_after_batches": config.kill_after}}},
            name="bench-kill")
    runtime = ServeRuntime(
        config.app, shards=config.shards, degree=config.degree,
        packets=config.packets, seed=config.seed, batch=config.batch,
        plan=plan, cache=cache, verify=True)
    result = ServePass(stamps=[[] for _ in range(config.shards)])
    runtime.on_commit = lambda shard, seq: result.stamps[shard].append(
        perf_counter())
    result.started = perf_counter()
    try:
        report = runtime.run()
    except Exception as exc:
        result.wall = perf_counter() - result.started
        ledger.fail((pass_index, "run"), f"serve run: {exc!r}")
        return result
    result.wall = perf_counter() - result.started
    result.counters = dict(report.counters)
    result.instructions = sum(entry["instructions"]
                              for entry in report.shard_stats)

    account(report, config, ledger, pass_index)
    return result


def trace_serve(rec, config: ServeConfig, app, stream: list, cache,
                ledger) -> ServePass:
    """One serving run decomposed: dispatch, the run itself split at its
    first and last commit, then the oracle, the comparison, the delta
    payload and the same batches in-process without any IPC."""
    from repro import MachineState, observe, run_pipeline, run_sequential
    from repro.pipeline.transform import pipeline_pps
    from repro.serve import (
        Journal,
        compare_deltas,
        make_batches,
        shard_oracle,
        shard_stream,
    )

    with rec.span("serve.shard"):
        substreams = shard_stream(stream, config.shards)
    with rec.span("serve.journal"):
        journal = Journal(config.shards)
        for shard, substream in enumerate(substreams):
            for packets in make_batches(substream, config.batch):
                journal.append(shard, packets)
    batches = [[record.packets for record in journal[shard].records]
               for shard in range(config.shards)]
    sizes = [len(shard) for shard in batches]
    rec.count("serve.batches", sum(sizes))
    rec.counts["serve.shard_skew"] = max(sizes) / (sum(sizes) / len(sizes))

    with rec.span("serve.run"):
        served = serve_pass(config, cache, ledger, pass_index=-1)
        end = perf_counter()
        if any(served.stamps):
            rec.interval("serve.first_commit", served.started,
                         served.first_commit)
            rec.interval("serve.commit_span", served.first_commit,
                         served.last_commit)
            rec.interval("serve.post_commit", served.last_commit, end)
    for name in ("heartbeats", "workers_spawned", "restarts", "replays",
                 "redeliveries", "committed"):
        rec.count(f"serve.{name}", served.counters.get(name, 0))

    with rec.span("serve.oracle"):
        oracle = [shard_oracle(app, shard) for shard in batches]
    with rec.span("serve.compare"):
        for shard, deltas in enumerate(oracle):
            committed = dict(enumerate(deltas, start=1))
            if compare_deltas(shard, deltas, committed):
                raise AssertionError("oracle deltas differ from themselves")
    # The payload of Connection.send: one framed result per batch.
    with rec.span("serve.delta_pickle"):
        payload = sum(
            len(pickle.dumps(("result", shard, 0, seq, delta)))
            for shard, deltas in enumerate(oracle)
            for seq, delta in enumerate(deltas, start=1))
    rec.count("serve.delta_bytes", payload)

    function = app.module.pps(app.pps_name)
    stages = None
    if config.degree > 1:
        stages = pipeline_pps(app.module, app.pps_name, config.degree,
                              cache=cache).stages
    kind = "seq" if stages is None else "pipe"
    for shard in batches:
        with rec.span("serve.inproc_loop"):
            state = MachineState(app.module)
            for packets in shard:
                with rec.span("apps.feed"):
                    iterations = app.feed(state, packets)
                cpu = process_time()
                start = perf_counter()
                with rec.span("runtime.sim"):
                    if stages is None:
                        stats = {function.name: run_sequential(
                            function, state, iterations=iterations)}
                    else:
                        stats = run_pipeline(stages, state,
                                             iterations=iterations).stats
                rec.count(f"runtime.{kind}_seconds", perf_counter() - start)
                rec.count("runtime.cpu_seconds", process_time() - cpu)
                rec.count(f"runtime.{kind}_instructions",
                          sum(entry.instructions
                              for entry in stats.values()))
                rec.count("runtime.blocked", sum(entry.blocked
                                                 for entry in stats.values()))
            with rec.span("runtime.observe"):
                observe(state)
            count_report(rec, {}, state)
    return served
