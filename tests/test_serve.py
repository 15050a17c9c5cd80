"""The fault-tolerant sharded serving runtime (ISSUE 10 tentpole).

Each test drives :class:`repro.serve.ServeRuntime` end to end with real
worker processes; the deterministic worker faults
(:class:`repro.runtime.faults.WorkerFaults`) make the crash-recovery
paths reproducible: a self-SIGKILL at an exact commit boundary, a hang
the heartbeat clock must catch, a storm that exhausts the restart
budget and trips the circuit breaker into re-sharding.  Everything is
checked against the sequential oracle (``verify=True``), so these are
differential tests, not just liveness tests.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import EXIT_DEGRADED_SERVE, EXIT_OK
from repro.runtime.faults import FaultPlan, serve_plans
from repro.serve import (
    ServeError,
    ServePolicy,
    ServeRuntime,
    shard_stream,
)

#: Small but kill-eligible: every shard gets >= 2 batches at 2 shards.
PACKETS, BATCH = 24, 4

#: Serving-runtime tests spawn real worker processes; the snappy
#: backoff keeps a full crash-recovery cycle well under a second.
FAST = ServePolicy(backoff_base=0.01, backoff_cap=0.05)


def run_serve(app="ipv4", **kwargs):
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("packets", PACKETS)
    kwargs.setdefault("batch", BATCH)
    kwargs.setdefault("policy", FAST)
    return ServeRuntime(app, **kwargs).run()


def test_clean_run_delivers_and_verifies():
    report = run_serve()
    assert report.ok
    assert report.exit_code() == EXIT_OK
    assert report.verified is True
    assert report.counters["pending"] == 0
    assert report.counters["restarts"] == 0
    assert report.counters["redeliveries"] == 0
    assert report.counters["workers_spawned"] >= 1


def test_worker_kill_replays_bit_identically():
    """A worker SIGKILLed at a commit boundary is restarted, replays its
    journal, and the committed output still matches the oracle."""
    report = run_serve(plan=serve_plans()["worker-kill"])
    assert report.ok
    assert report.verified is True
    assert report.counters["restarts"] >= 1
    assert report.counters["replays"] >= 1
    assert report.counters["redeliveries"] >= 1
    killed = [entry for entry in report.shard_stats
              if any("killed" in cause for cause in entry["causes"])]
    assert killed, "the kill fault never fired"
    for entry in report.shard_stats:
        assert entry["committed"] == entry["batches"]


def test_restart_budget_exhaustion_resharding():
    """worker-storm kills shard 0 on every incarnation: the breaker
    trips, the journal is adopted by a survivor, the run is degraded —
    and still bit-identical."""
    report = run_serve(plan=serve_plans()["worker-storm"])
    assert report.degraded
    assert not report.ok
    assert report.exit_code() == EXIT_DEGRADED_SERVE
    assert report.verified is True          # degraded, never wrong
    assert report.counters["pending"] == 0  # relief delivered everything
    assert report.counters["resharded"] == 1
    entry = report.shard_stats[0]
    assert entry["failed"] and entry["resharded_to"] == 1
    assert any("re-sharding" in warning for warning in report.warnings)


def test_no_survivor_raises_serve_error():
    """Every shard storming means nobody can adopt anybody: the pool
    collapses with a ServeError (CLI exit 3), not a hang."""
    plan = FaultPlan.from_dict(
        {"seed": 3, "workers": {"*": {"kill_after_batches": 0,
                                      "every_incarnation": True}}},
        name="total-storm")
    with pytest.raises(ServeError):
        run_serve(plan=plan, policy=ServePolicy(
            max_restarts=1, relief_restarts=1,
            backoff_base=0.01, backoff_cap=0.05))


def test_hang_is_killed_and_classified():
    """A silent-but-alive worker trips the heartbeat timeout, is
    SIGKILLed, and the restarted incarnation finishes the journal."""
    plan = FaultPlan.from_dict(
        {"seed": 5, "workers": {"shard-0": {"hang_after_batches": 1}}},
        name="one-hang")
    report = run_serve(plan=plan, policy=ServePolicy(
        backoff_base=0.01, backoff_cap=0.05, hang_timeout=0.5))
    assert report.ok
    assert report.counters["hang_kills"] == 1
    assert any("hang" in cause
               for cause in report.shard_stats[0]["causes"])


def test_graceful_drain_keeps_committed_prefix():
    """request_drain mid-run: workers stop at batch boundaries, the
    committed prefix stands and still matches the oracle; the
    undelivered tail makes the run degraded, not wrong."""
    plan = FaultPlan.from_dict(
        {"seed": 9, "workers": {"*": {"hang_after_batches": 1,
                                      "every_incarnation": True}}},
        name="drain-hang")
    runtime = ServeRuntime("ipv4", shards=2, packets=PACKETS, batch=BATCH,
                           plan=plan,
                           policy=ServePolicy(backoff_base=0.01,
                                              hang_timeout=5.0,
                                              drain_grace=0.5))
    runtime.on_commit = lambda shard, seq: runtime.request_drain()
    report = runtime.run()
    assert report.drained
    assert report.counters["drained"]
    assert not report.mismatches            # committed prefix verified
    assert report.counters["committed"] >= 1
    if report.counters["pending"]:
        assert report.degraded
        assert report.exit_code() == EXIT_DEGRADED_SERVE


def test_empty_shards_are_not_spawned():
    """More shards than flows: empty journals never get a worker."""
    report = run_serve(shards=8, packets=8, batch=2)
    assert report.ok
    empty = [entry for entry in report.shard_stats
             if entry["batches"] == 0]
    assert report.counters["workers_spawned"] == 8 - len(empty)


def test_journal_dir_persists_a_replayable_trail(tmp_path):
    from repro.serve import Journal

    report = run_serve(plan=serve_plans()["worker-kill"],
                       journal_dir=str(tmp_path))
    assert report.ok
    trails = sorted(tmp_path.glob("shard-*.jsonl"))
    assert trails
    records = Journal.load_records(trails[0])
    kinds = {record["type"] for record in records}
    assert "batch" in kinds and "commit" in kinds and "replay" in kinds
    batches = [r for r in records if r["type"] == "batch"]
    assert all(isinstance(p, bytes)
               for r in batches for p in r["packets"])


def test_runtime_report_carries_serve_counters():
    report = run_serve()
    runtime_report = report.runtime_report()
    assert runtime_report.serve["batches"] == report.counters["batches"]
    names = {stage.name for stage in runtime_report.stages}
    assert names == {f"shard-{e['shard']}" for e in report.shard_stats}
    assert "serve:" in runtime_report.render()


def test_sharding_respects_flows_at_every_width():
    from repro.apps.suite import build_app
    from repro.serve import flow_key

    app = build_app("ipv4", packets=PACKETS, seed=7)
    stream = app.stream()
    for shards in (1, 2, 4, 8):
        buckets = shard_stream(stream, shards)
        assert sum(len(b) for b in buckets) == len(stream)
        seen = {}
        for index, bucket in enumerate(buckets):
            for packet in bucket:
                key = flow_key(packet)
                assert seen.setdefault(key, index) == index


# -- the streamed oracle -----------------------------------------------------

#: Five batches on each of the two shards.
STREAM_PACKETS, STREAM_BATCH = 40, 4


class Tampering(ServeRuntime):
    """Corrupts one worker delta on arrival and pins which side of the
    comparison gets there first."""

    def __init__(self, *args, victim, field, oracle_first, **kwargs):
        super().__init__(*args, **kwargs)
        self.victim, self.field, self.oracle_first = (
            victim, field, oracle_first)

    def _supervise(self):
        if self.oracle_first:
            while self._oracle.step():      # every oracle delta waits
                pass
        else:                               # every commit waits
            step = self._oracle.step
            self._oracle.step = lambda *, committed_only=False: (
                committed_only and step(committed_only=True))
        super()._supervise()

    def _handle(self, slot, message, now):
        if message[0] == "result" and (message[1], message[3]) == self.victim:
            delta = message[4]
            if self.field == "tx":
                delta["tx"] = delta["tx"] + [(0, 1, 1, b"forged")]
            else:
                tag = next(iter(delta["traces"]))
                delta["traces"][tag] = [0xBAD]
        super()._handle(slot, message, now)


@pytest.mark.parametrize("oracle_first", [True, False],
                         ids=["oracle-first", "commit-first"])
@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("field", ["tx", "traces"])
def test_tampered_delta_is_named_whichever_side_arrives_first(
        field, position, oracle_first):
    from repro.apps.suite import build_app
    from repro.errors import EXIT_FAILURE
    from repro.serve import make_batches

    app = build_app("ipv4", packets=STREAM_PACKETS, seed=7)
    count = len(make_batches(shard_stream(app.stream(), 2)[1], STREAM_BATCH))
    assert count >= 3
    seq = {"first": 1, "middle": (count + 1) // 2, "last": count}[position]
    report = Tampering(
        "ipv4", shards=2, packets=STREAM_PACKETS, batch=STREAM_BATCH,
        policy=FAST, victim=(1, seq), field=field,
        oracle_first=oracle_first).run()
    assert report.verified is False
    assert report.exit_code() == EXIT_FAILURE
    assert report.counters["pending"] == 0
    expected = (f"shard 1 batch {seq}: tx diverged (oracle 0 records, got 1)"
                if field == "tx" else
                f"shard 1 batch {seq}: traces diverged")
    assert report.mismatches == [expected]
    assert "FAILED (1 mismatches)" in report.render()


def holds_observables(root) -> bool:
    """Is a delta payload (a dict with ``tx`` / ``traces``) reachable
    from ``root`` through containers and instance attributes?"""
    seen, stack = set(), [root]
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(
                item, (str, bytes, int, float, type(None))):
            continue
        seen.add(id(item))
        if isinstance(item, dict):
            if "tx" in item or "traces" in item:
                return True
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif type(item).__module__.startswith("repro.serve"):
            stack.extend(vars(item).values())
    return False


def test_verified_run_retains_no_delta_payload():
    """Deltas are compared and released at commit: after the verdict
    the runtime references only the sums ``_assemble`` reports."""
    runtime = ServeRuntime("ipv4", shards=2, packets=STREAM_PACKETS,
                           batch=STREAM_BATCH, policy=FAST)
    assert holds_observables({"probe": {"tx": []}})     # the walker works
    report = runtime.run()
    assert report.verified is True
    assert not holds_observables(runtime)
    assert runtime._oracle.exhausted
    for entry in report.shard_stats:
        assert entry["instructions"] > 0 and entry["weight"] > 0
        assert entry["iterations"] > 0


def test_verify_off_never_builds_an_oracle(monkeypatch):
    from repro.serve import supervise

    def forbidden(*args, **kwargs):
        raise AssertionError("verify=False touched the oracle")

    monkeypatch.setattr(supervise, "_OracleStream", forbidden)
    monkeypatch.setattr(supervise, "oracle_deltas", forbidden)
    report = run_serve(verify=False)
    assert report.verified is None and report.ok
    assert report.counters["pending"] == 0


@pytest.mark.parametrize("failure", ["trap", "livelock"])
def test_oracle_failure_mid_run_is_loud_and_leaves_no_orphans(
        monkeypatch, capsys, failure):
    """The sequential PPS failing inside the supervision loop keeps its
    class and exit code, says where, and every worker is reaped."""
    import multiprocessing

    from repro.errors import EXIT_RUNTIME, DeadlockError, TrapError
    from repro.serve import supervise

    real = supervise.oracle_deltas

    def failing(app, batches, **kwargs):
        deltas = real(app, batches, **kwargs)
        yield next(deltas)
        if failure == "trap":
            raise TrapError("rt_l1[70000] out of bounds")
        raise DeadlockError("no instruction progress", kind="livelock",
                            parked={"ipv4": ("recv", "ipv4_in")})

    live_at_failure = []
    kill_all = ServeRuntime._kill_all

    def recording_kill_all(self):
        live_at_failure.append(
            sum(slot.proc is not None for slot in self._slots))
        kill_all(self)

    monkeypatch.setattr(supervise, "oracle_deltas", failing)
    monkeypatch.setattr(ServeRuntime, "_kill_all", recording_kill_all)
    runtime = ServeRuntime("ipv4", shards=2, packets=STREAM_PACKETS,
                           batch=STREAM_BATCH, policy=FAST)
    with pytest.raises(TrapError if failure == "trap" else DeadlockError,
                       match="shard 0 batch 2: ") as caught:
        runtime.run()
    if failure == "livelock":
        assert caught.value.kind == "livelock" and caught.value.parked
    assert live_at_failure == [2]       # it surfaced while serving
    assert all(slot.proc is None for slot in runtime._slots)
    assert not multiprocessing.active_children()

    code = main(["serve", "--app", "ipv4", "--shards", "2",
                 "--packets", str(STREAM_PACKETS),
                 "--batch", str(STREAM_BATCH), "--backoff", "0.01",
                 "--no-cache"])
    assert code == EXIT_RUNTIME
    assert "shard 0 batch 2: " in capsys.readouterr().err
    assert not multiprocessing.active_children()


def test_drain_verifies_the_committed_prefix_only(monkeypatch):
    """Once the watermarks are final the oracle stops at them: no
    batch of the undelivered tail is simulated, every committed one is
    compared."""
    from repro.apps.suite import build_app
    from repro.serve import Journal, make_batches, shard_oracle, supervise

    app = build_app("ipv4", packets=STREAM_PACKETS, seed=7)
    journal = Journal(2)
    for shard, substream in enumerate(shard_stream(app.stream(), 2)):
        for packets in make_batches(substream, STREAM_BATCH):
            journal.append(shard, packets)
    simulated = []
    real = supervise.oracle_deltas

    def counting(app, batches, **kwargs):
        for delta in real(app, batches, **kwargs):
            simulated.append(delta)
            yield delta

    monkeypatch.setattr(supervise, "oracle_deltas", counting)
    stream = supervise._OracleStream(app, journal, 200_000)
    watermarks = {0: 2, 1: 1}
    for shard, committed in watermarks.items():
        deltas = shard_oracle(
            app, [r.packets for r in journal[shard].records[:committed]])
        for seq, delta in enumerate(deltas, start=1):
            assert journal.accept(shard, seq)
            stream.commit(shard, seq, delta)
    del simulated[:]
    assert stream.finish() == []
    assert len(simulated) == sum(watermarks.values())
    assert not holds_observables(stream)
    assert not stream.step(committed_only=True)


def test_report_says_how_fast_it_was():
    report = run_serve()
    timings = report.timings
    assert set(timings) == {"wall_s", "packets_per_s", "first_commit_s",
                            "verify_tail_s"}
    assert 0 < timings["first_commit_s"] <= timings["wall_s"]
    assert 0 <= timings["verify_tail_s"] < timings["wall_s"]
    assert timings["packets_per_s"] == pytest.approx(
        PACKETS / timings["wall_s"])
    assert report.as_dict()["timings"] == timings
    assert sum(line.startswith("  throughput: ")
               for line in report.render().splitlines()) == 1


# -- worker-kill chaos across shard counts ------------------------------------


@pytest.mark.chaos
def test_worker_kill_shard_sweep():
    """Worker-kill chaos at shard counts {2,4,8}: >= 1 worker killed
    mid-stream at every width, output bit-identical per flow to the
    sequential oracle.  The 2-packet batches keep every shard at 2+
    batches even at 8 shards, which is what arms the
    kill-after-one-commit fault on every worker."""
    for shards in (2, 4, 8):
        report = ServeRuntime(
            "ipv4", shards=shards, degree=1, packets=48, seed=7, batch=2,
            plan=serve_plans()["worker-kill"], policy=FAST,
            verify=True).run()
        assert report.ok, report.render()
        assert report.counters["restarts"] > 0, \
            f"shards {shards}: no worker was killed mid-stream"
        assert not report.mismatches
        assert report.counters["pending"] == 0
        assert report.counters["committed"] == report.counters["batches"]


# -- CLI --------------------------------------------------------------------


def test_cli_serve_parser_and_exit_codes(tmp_path, capsys):
    code = main(["serve", "--app", "ipv4", "--shards", "2",
                 "--packets", str(PACKETS), "--batch", str(BATCH),
                 "--backoff", "0.01", "--no-cache",
                 "-o", str(tmp_path / "serve.json")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "bit-identical to the sequential oracle" in out
    import json

    payload = json.loads((tmp_path / "serve.json").read_text())
    assert payload["ok"] and payload["counters"]["pending"] == 0
    assert payload["timings"]["packets_per_s"] > 0
    assert "  throughput: " in out


def test_cli_serve_worker_storm_exits_degraded(capsys):
    code = main(["serve", "--app", "ipv4", "--shards", "2",
                 "--packets", str(PACKETS), "--batch", str(BATCH),
                 "--faults", "worker-storm", "--backoff", "0.01",
                 "--no-cache"])
    assert code == EXIT_DEGRADED_SERVE
    captured = capsys.readouterr()
    assert "re-sharding" in captured.err
    assert "degraded" in captured.out


def test_cli_serve_trace_has_lifecycle_instants(tmp_path):
    import json

    trace = tmp_path / "serve-trace.json"
    code = main(["serve", "--app", "ipv4", "--shards", "2",
                 "--packets", str(PACKETS), "--batch", str(BATCH),
                 "--faults", "worker-kill", "--backoff", "0.01",
                 "--no-cache", "--trace", str(trace)])
    assert code == EXIT_OK
    events = json.loads(trace.read_text())["traceEvents"]
    names = {event["name"] for event in events}
    assert {"serve", "shard_spawn", "shard_exit",
            "shard_restart"} <= names
    counters = [e for e in events if e["ph"] == "C" and e["name"] == "serve"]
    assert counters and counters[0]["args"]["restarts"] >= 1
