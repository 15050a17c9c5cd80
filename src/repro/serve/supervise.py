"""The serving supervisor: keep serving while workers die.

:class:`ServeRuntime` is the parent-side half of the sharded serving
runtime.  It compiles the app and (at degree > 1) partitions it once,
flow-hash-shards the app's packet stream (one journal per shard,
written before any worker runs), forks one worker process per non-empty
shard — each incarnation inherits the built app, stages and journal,
so none rebuilds anything — and then supervises:

* **liveness** — every worker message (ready / result / error / done /
  drained) refreshes its activity clock, so each batch's result is also
  its worker's heartbeat; a live-but-silent worker past the hang timeout
  is SIGKILLed and classified ``hang`` (the in-interpreter stall cases
  — deadlock / livelock — classify themselves through the runtime
  watchdog before the hang clock ever fires);
* **crash recovery** — a dead worker is respawned in the supervision
  step that reaps it; the new incarnation replays the shard's journal
  from batch 1 and the commit watermark drops the re-delivered prefix,
  so committed output stays exactly-once per flow.  That is the one
  recovery path: a shard whose worker fails ``MAX_RESTARTS + 1`` times
  raises :class:`ServeError` (CLI exit 3) naming the shard, its causes
  and the last worker error.  Every incarnation is a fork of the same
  supervisor replaying the same journal, so waiting before a restart
  would change nothing it does, and a failure that outlives the
  restarts would outlive any other worker too;
* **graceful drain** — SIGTERM (or :meth:`ServeRuntime.request_drain`)
  asks every worker to finish its current batch and stop; stragglers
  are killed after ``DRAIN_GRACE`` seconds and whatever was committed
  stands (a stderr warning counts the undelivered tail; the stop was
  asked for, so the run still exits 0 when the prefix verifies).

Every lifecycle event (spawn, exit, hang-kill, drain) also lands in
the active Chrome trace as an instant event — a restart is the spawn of
an incarnation >= 1, after the exit that names its cause — and the
counters fold into :class:`~repro.obs.report.RuntimeReport` via
:meth:`ServeReport.runtime_report`.

The correctness contract (checked by ``verify=True``): for every
shard, the committed batch deltas are bit-identical to a sequential PPS
fed the same batch sequence — the *sequential oracle*.  Batches are the comparison unit because feeding
assigns per-batch sequence metadata; sharing the exact feed calls makes
oracle and worker inputs identical by construction.

The oracle runs *beside* the workers, not after them: whenever no
worker has a message ready the supervisor simulates one more oracle
batch (:class:`_OracleStream`), and a batch is compared the moment both
its oracle delta and its committed delta exist, after which both
payloads are dropped.  What is left when the last worker exits is the
verify lag, which ``_assemble`` finishes.  No thread (unsafe beside the
``fork`` start method), no verifier process, nothing inside the workers
(a restart would replay it).
"""

from __future__ import annotations

import multiprocessing
import signal
import sys
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait

from repro.errors import (
    EXIT_FAILURE,
    EXIT_OK,
    DeadlockError,
    ReproError,
    TrapError,
)
from repro.obs import TID_RUNTIME, instant, span
from repro.runspec import RunSpec, app_pipeline
from repro.serve.journal import Journal
from repro.serve.shard import make_batches, shard_stream
from repro.serve.worker import BatchRunner, worker_main


class ServeError(ReproError):
    """The serving runtime could not deliver the stream (a shard out of
    restarts, or a protocol violation): CLI exit 3."""


#: Worker failures a shard survives; one more ends the run.
MAX_RESTARTS = 3
#: Seconds a drain waits for workers to stop before killing them.
DRAIN_GRACE = 2.0
#: Seconds the supervisor waits for a worker message when it has
#: nothing else to do.
POLL_INTERVAL = 0.05


#: The per-batch delta counters a :class:`ServeReport` sums per shard.
_SUMMED = ("instructions", "weight", "iterations")


@dataclass
class _Slot:
    """One shard: its current worker incarnation and its history."""

    shard: int
    proc: object = None
    conn: object = None
    attempts: int = 0               # incarnations spawned so far
    last_activity: float = 0.0
    hang_killed: bool = False
    drain_killed: bool = False
    saw_drained: bool = False
    error: tuple | None = None      # (kind, detail) from the worker
    causes: list = field(default_factory=list)
    #: Committed batches' execution counters, summed (see ``_handle``).
    totals: dict = field(default_factory=lambda: dict.fromkeys(_SUMMED, 0))


@dataclass
class ServeReport:
    """Everything one serving run did, JSON-serializable."""

    app: str
    shards: int
    degree: int
    batch: int
    packets: int
    seed: int
    plan: str | None = None
    counters: dict = field(default_factory=dict)
    shard_stats: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)
    verified: bool | None = None    # None = verify not requested
    drained: bool = False
    warnings: list = field(default_factory=list)
    #: How fast it was: ``wall_s`` (``run()`` entry to verdict),
    #: ``packets_per_s`` (committed packets over ``wall_s``),
    #: ``first_commit_s`` and ``verify_tail_s`` (last commit to verdict).
    #: The only nondeterministic part of the report — anything that
    #: compares two reports ignores it.
    timings: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Nothing committed differs from the oracle.  A run that could
        not deliver raised :class:`ServeError` instead of reporting; one
        that a drain cut short vouches for its committed prefix."""
        return not self.mismatches

    @property
    def degraded(self) -> bool:
        """A drain left batches undelivered."""
        return self.drained and self.counters.get("pending", 0) > 0

    def exit_code(self) -> int:
        return EXIT_OK if self.ok else EXIT_FAILURE

    def as_dict(self) -> dict:
        return {
            "app": self.app,
            "shards": self.shards,
            "degree": self.degree,
            "batch": self.batch,
            "packets": self.packets,
            "seed": self.seed,
            "plan": self.plan,
            "ok": self.ok,
            "drained": self.drained,
            "verified": self.verified,
            "counters": dict(self.counters),
            "shards_detail": [dict(entry) for entry in self.shard_stats],
            "mismatches": list(self.mismatches),
            "warnings": list(self.warnings),
            "timings": dict(self.timings),
        }

    def render(self) -> str:
        lines = [f"serve: app {self.app}, {self.shards} shards x "
                 f"degree {self.degree}, batch {self.batch}, "
                 f"plan {self.plan or 'none'}"]
        for entry in self.shard_stats:
            causes = (f" [{', '.join(entry['causes'])}]"
                      if entry["causes"] else "")
            lines.append(
                f"  shard {entry['shard']}: {entry['committed']}/"
                f"{entry['batches']} batches, {entry['restarts']} restarts, "
                f"{entry['redeliveries']} redelivered{causes}")
        c = self.counters
        lines.append(
            f"  supervisor: {c.get('workers_spawned', 0)} workers, "
            f"{c.get('restarts', 0)} restarts, {c.get('replays', 0)} "
            f"replays, {c.get('redeliveries', 0)} redeliveries, "
            f"{c.get('hang_kills', 0)} hang kills")
        if self.verified is not None:
            verdict = ("bit-identical to the sequential oracle"
                       if self.verified else
                       f"FAILED ({len(self.mismatches)} mismatches)")
            lines.append(f"  verify: {verdict}")
        t = self.timings
        if t:
            lines.append(
                f"  throughput: {t['packets_per_s']:.0f} packets/s over "
                f"{t['wall_s']:.3f} s (first commit {t['first_commit_s']:.3f}"
                f" s, verify tail {t['verify_tail_s']:.3f} s)")
        status = "ok" if self.ok else "FAIL"
        if self.drained:
            status += " (drained)"
        lines.append(f"  overall: {status}")
        return "\n".join(lines)

    def runtime_report(self, cache=None):
        """Fold the run into a :class:`~repro.obs.report.RuntimeReport`
        (per-shard execution totals as stages, supervisor counters in
        the ``serve`` section)."""
        from repro.obs.report import RuntimeReport, StageCounters

        report = RuntimeReport()
        for entry in self.shard_stats:
            report.stages.append(StageCounters(
                name=f"shard-{entry['shard']}",
                instructions=entry["instructions"],
                weight=entry["weight"],
                iterations=entry["iterations"],
                transmission_weight=0,
                blocked=0,
            ))
        report.serve = dict(self.counters)
        if cache is not None:
            report.cache = cache.counters()
        return report


def oracle_deltas(app, batches: list[list]):
    """The sequential oracle for one shard, one batch per ``next()``:
    the plain PPS run over the identical batch sequence, yielding each
    batch's observable delta."""
    runner = BatchRunner(app)
    for packets in batches:
        yield runner.run(packets)[0]


def shard_oracle(app, batches: list[list]) -> list[dict]:
    """:func:`oracle_deltas` run to the end: one delta per batch."""
    return list(oracle_deltas(app, batches))


def compare_deltas(shard: int, expected: list[dict],
                   actual: dict[int, dict], *, first: int = 1) -> list[str]:
    """Differences between the oracle's per-batch deltas and the
    committed worker deltas (``actual`` maps batch seq -> delta;
    ``expected[0]`` is batch ``first``).  Only committed batches are
    compared — a drained run's uncommitted tail is absent, not wrong."""
    mismatches = []
    for seq, want in enumerate(expected, start=first):
        got = actual.get(seq)
        if got is None:
            continue
        if want["tx"] != got["tx"]:
            mismatches.append(
                f"shard {shard} batch {seq}: tx diverged "
                f"(oracle {len(want['tx'])} records, "
                f"got {len(got['tx'])})")
        if want["traces"] != got["traces"]:
            mismatches.append(
                f"shard {shard} batch {seq}: traces diverged")
        if want["forwarded"] != got["forwarded"]:
            mismatches.append(
                f"shard {shard} batch {seq}: forwarded messages diverged")
    return mismatches


class _OracleStream:
    """The sequential oracle, streamed beside the workers.

    ``step()`` simulates the next batch — shard by shard, so one oracle
    machine state is alive at a time — and ``commit()`` takes a worker's
    committed delta; whichever of the two arrives second for a batch
    triggers its :func:`compare_deltas` and releases both payloads, so
    what is retained is the verify lag, never the stream.
    """

    def __init__(self, app, journal: Journal):
        self._app = app
        self._journal = journal
        shards = len(journal.shards)
        self._expected: list[dict[int, dict]] = [{} for _ in range(shards)]
        self._committed: list[dict[int, dict]] = [{} for _ in range(shards)]
        self._mismatches: dict[tuple[int, int], list[str]] = {}
        self._shard = 0             # the shard being simulated
        self._done = 0              # batches of it simulated so far
        self._deltas = None         # its oracle_deltas generator
        self.messages_compared = 0  # pipe messages held to the oracle's

    @property
    def exhausted(self) -> bool:
        """Every journaled batch of every shard has been simulated."""
        return self._shard >= len(self._expected)

    def commit(self, shard: int, seq: int, delta: dict) -> None:
        self._committed[shard][seq] = delta
        self._settle(shard, seq)

    def step(self, *, committed_only: bool = False) -> bool:
        """Simulate one more batch; False when none is left.  The oracle
        may run ahead of the commit watermark (its deltas wait for their
        commits) unless ``committed_only``."""
        while not self.exhausted:
            shard, journal = self._shard, self._journal[self._shard]
            limit = (journal.committed if committed_only
                     else len(journal.records))
            if self._done < limit:
                if self._deltas is None:
                    self._deltas = oracle_deltas(
                        self._app, [r.packets for r in journal.records])
                seq = self._done + 1
                try:
                    delta = next(self._deltas)
                except (TrapError, DeadlockError) as exc:
                    # Same class (and CLI exit code) as the sequential
                    # PPS raised; the message gains where it happened.
                    exc.args = (f"sequential oracle, shard {shard} batch "
                                f"{seq}: {exc}", *exc.args[1:])
                    raise
                self._done = seq
                self._expected[shard][seq] = delta
                self._settle(shard, seq)
                return True
            self._shard, self._done, self._deltas = shard + 1, 0, None
        return False

    def finish(self) -> list[str]:
        """Catch up to every shard's commit watermark — the committed
        prefix is what a run vouches for — and return every mismatch in
        shard, batch order.  Oracle deltas that ran ahead of a drained
        shard's watermark are dropped unused."""
        while self.step(committed_only=True):
            pass
        for ahead in self._expected:
            ahead.clear()
        return [line for key in sorted(self._mismatches)
                for line in self._mismatches[key]]

    def _settle(self, shard: int, seq: int) -> None:
        expected, committed = self._expected[shard], self._committed[shard]
        if seq in expected and seq in committed:
            want = expected.pop(seq)
            self.messages_compared += want["forwarded"][0]
            lines = compare_deltas(shard, [want], {seq: committed.pop(seq)},
                                   first=seq)
            if lines:
                self._mismatches[shard, seq] = lines


def _spawn_context():
    """Fork, the only start method: a worker is a copy of the supervisor
    that already holds the built app and stages."""
    if "fork" not in multiprocessing.get_all_start_methods():
        raise ServeError("repro serve needs the fork start method (a worker "
                         "is a fork of the built supervisor); this platform "
                         "has none")
    return multiprocessing.get_context("fork")


class ServeRuntime:
    """One supervised serving run (see module docstring)."""

    def __init__(self, app_name: str, *, shards: int = 4, degree: int = 1,
                 packets: int = 40, seed: int = 7, batch: int = 8,
                 plan=None, hang_timeout: float = 10.0,
                 cache=None, verify: bool = True):
        if shards < 1:
            raise ServeError(f"need at least 1 shard, got {shards}")
        if not hang_timeout > 0:
            # 0 or less would judge every worker hung before its first
            # batch.
            raise ValueError(f"hang_timeout must be > 0 seconds "
                             f"(got {hang_timeout!r})")
        #: The pipeline being served, built once per run by the supervisor.
        self.spec = RunSpec(app_name, packets, seed, (degree,))
        self.shards = shards
        self.degree = degree
        self.batch = batch
        self.plan = plan
        #: Seconds a live worker may stay silent before a hang kill.
        self.hang_timeout = hang_timeout
        self.cache = cache
        self.verify = verify

        self._ctx = _spawn_context()
        self._reset()
        #: Test seam: called after every fresh commit with (shard, seq).
        self.on_commit = None

    def _reset(self) -> None:
        """Every piece of per-run state, fresh: a runtime may run again."""
        self._app = None
        self._stages: list | None = None            # None = degree 1
        self._drain_event = None
        self._drain_requested = False
        self._drain_started: float | None = None
        self._slots: list[_Slot] = [_Slot(shard=index)
                                    for index in range(self.shards)]
        self._journal: Journal | None = None
        self._oracle: _OracleStream | None = None   # None = verify off
        self._started = 0.0
        self._first_commit: float | None = None
        self._last_commit: float | None = None
        self._spawned = 0
        self._hang_kills = 0

    # -- public API ----------------------------------------------------------

    def request_drain(self) -> None:
        """Ask every worker to stop after its current batch (SIGTERM
        path; also callable directly, e.g. from tests)."""
        self._drain_requested = True

    def run(self, *, install_sigterm: bool = False) -> ServeReport:
        with span("serve", cat="serve", tid=TID_RUNTIME,
                  app=self.spec.app, shards=self.shards,
                  degree=self.degree):
            return self._run(install_sigterm=install_sigterm)

    # -- setup ---------------------------------------------------------------

    def _run(self, *, install_sigterm: bool) -> ServeReport:
        self._reset()
        self._started = time.monotonic()
        # Built once; every worker incarnation is a fork that inherits it.
        app = self._app = self.spec.build()
        if self.degree > 1:
            self._stages = app_pipeline(app, self.degree,
                                        knobs=self.spec.knobs,
                                        cache=self.cache).stages

        substreams = shard_stream(app.stream(), self.shards)
        self._journal = Journal(self.shards)
        for index, substream in enumerate(substreams):
            for packets in make_batches(substream, self.batch):
                self._journal.append(index, packets)
        if self.verify:
            self._oracle = _OracleStream(app, self._journal)

        self._drain_event = self._ctx.Event()
        previous = None
        if install_sigterm:
            previous = signal.signal(
                signal.SIGTERM, lambda signum, frame: self.request_drain())
        try:
            now = time.monotonic()
            for slot in self._slots:
                self._maybe_start(slot, now)
            self._supervise()
        finally:
            if previous is not None:
                signal.signal(signal.SIGTERM, previous)
            self._kill_all()
        return self._assemble()

    # -- scheduling ----------------------------------------------------------

    def _maybe_start(self, slot: _Slot, now: float) -> None:
        if slot.proc is not None or self._drain_requested:
            return
        journal = self._journal[slot.shard]
        if journal.records and not journal.done:
            self._spawn(slot, now)

    def _spawn(self, slot: _Slot, now: float) -> None:
        shard, incarnation = slot.shard, slot.attempts
        slot.attempts += 1
        if incarnation > 0:
            self._journal.note_replay(shard)
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        batches = [record.packets for record in self._journal[shard].records]
        faults = (None if self.plan is None
                  else self.plan.worker_faults(f"shard-{shard}"))
        proc = self._ctx.Process(
            target=worker_main,
            args=(self._app, self._stages, shard, incarnation,
                  batches, child_conn, self._drain_event, faults),
            name=f"serve-shard-{shard}-i{incarnation}",
            daemon=True)
        proc.start()
        child_conn.close()
        slot.proc = proc
        slot.conn = parent_conn
        slot.last_activity = now
        slot.hang_killed = False
        slot.drain_killed = False
        slot.saw_drained = False
        slot.error = None
        self._spawned += 1
        instant("shard_spawn", cat="serve", tid=TID_RUNTIME,
                shard=shard, incarnation=incarnation)

    # -- the supervision loop ------------------------------------------------

    def _supervise(self) -> None:
        while True:
            now = time.monotonic()
            if self._drain_requested and self._drain_started is None:
                self._begin_drain(now)
            live = [slot for slot in self._slots if slot.proc is not None]
            if not live:
                return
            # Idle time belongs to the oracle: while it has batches left
            # (and no drain is waiting on us) the supervisor only polls
            # the workers, and simulates one oracle batch whenever none
            # of them has anything to say.
            oracle_busy = (self._oracle is not None
                           and not self._oracle.exhausted
                           and self._drain_started is None)
            ready = connection_wait(
                [slot.conn for slot in live],
                timeout=0 if oracle_busy else POLL_INTERVAL)
            if oracle_busy and not ready:
                self._oracle.step()
            now = time.monotonic()
            by_conn = {slot.conn: slot for slot in live}
            for conn in ready:
                self._drain_messages(by_conn[conn], now)
            for slot in self._slots:
                if slot.proc is None:
                    continue
                if not slot.proc.is_alive() and not slot.conn.poll():
                    self._reap(slot, now)
                elif (self._drain_started is None
                      and now - slot.last_activity > self.hang_timeout):
                    self._hang_kill(slot)
            if (self._drain_started is not None
                    and now - self._drain_started > DRAIN_GRACE):
                self._drain_kill(now)

    def _drain_messages(self, slot: _Slot, now: float, *,
                        reap: bool = True) -> None:
        """Handle every message the worker has sent.  At EOF it is gone:
        reap it, unless this is the reap's own last read."""
        try:
            while slot.conn.poll():
                self._handle(slot, slot.conn.recv(), now)
        except (EOFError, OSError):
            if reap:
                self._reap(slot, now)

    def _handle(self, slot: _Slot, message: tuple, now: float) -> None:
        slot.last_activity = now
        kind = message[0]
        if kind == "result":
            _, shard, _incarnation, seq, delta = message
            if self._journal.accept(shard, seq):
                if self._first_commit is None:
                    self._first_commit = now
                self._last_commit = now
                # Keep the sums the report needs; the payload lives on
                # only until the oracle has compared it.
                totals = slot.totals
                for name in _SUMMED:
                    totals[name] += delta[name]
                if self._oracle is not None:
                    self._oracle.commit(shard, seq, delta)
                if self.on_commit is not None:
                    self.on_commit(shard, seq)
        elif kind == "error":
            _, _shard, _incarnation, error_kind, detail = message
            slot.error = (error_kind, detail)
        elif kind == "drained":
            slot.saw_drained = True

    # -- failure handling ----------------------------------------------------

    def _reap(self, slot: _Slot, now: float) -> None:
        proc = slot.proc
        self._drain_messages(slot, now, reap=False)
        proc.join(timeout=5.0)
        exitcode = proc.exitcode
        slot.conn.close()
        slot.proc = None
        slot.conn = None
        journal = self._journal[slot.shard]
        cause = self._classify(slot, exitcode, journal.done)
        instant("shard_exit", cat="serve", tid=TID_RUNTIME,
                shard=slot.shard, exitcode=exitcode, cause=cause or "done")
        if journal.done or slot.saw_drained or slot.drain_killed:
            return
        slot.causes.append(cause)
        if self._drain_started is not None:
            return                  # draining: no restarts
        if slot.attempts > MAX_RESTARTS:
            last = f"; last error: {slot.error[1]}" if slot.error else ""
            raise ServeError(
                f"shard {slot.shard} exhausted its restart budget "
                f"({MAX_RESTARTS}): {slot.attempts} workers "
                f"failed ({', '.join(slot.causes)}), {journal.pending} "
                f"batches undelivered{last}")
        self._maybe_start(slot, now)

    def _classify(self, slot: _Slot, exitcode, finished: bool) -> str:
        if finished:
            return ""
        if slot.error is not None:
            kind, _detail = slot.error
            return kind
        if slot.hang_killed:
            return "hang"
        if slot.drain_killed:
            return "drain-kill"
        if exitcode is not None and exitcode < 0:
            return f"killed (signal {-exitcode})"
        return f"exit {exitcode}"

    def _hang_kill(self, slot: _Slot) -> None:
        slot.hang_killed = True
        self._hang_kills += 1
        instant("shard_kill", cat="serve", tid=TID_RUNTIME,
                shard=slot.shard, reason="hang")
        slot.proc.kill()

    def _begin_drain(self, now: float) -> None:
        self._drain_started = now
        self._drain_event.set()
        instant("serve_drain", cat="serve", tid=TID_RUNTIME)

    def _drain_kill(self, now: float) -> None:
        for slot in self._slots:
            if slot.proc is not None and slot.proc.is_alive():
                slot.drain_killed = True
                instant("shard_kill", cat="serve", tid=TID_RUNTIME,
                        shard=slot.shard, reason="drain-deadline")
                slot.proc.kill()

    def _kill_all(self) -> None:
        for slot in self._slots:
            if slot.proc is not None:
                slot.proc.kill()
                slot.proc.join(timeout=5.0)
                if slot.conn is not None:
                    slot.conn.close()
                slot.proc = None
                slot.conn = None

    # -- reporting -----------------------------------------------------------

    def _assemble(self) -> ServeReport:
        journal = self._journal
        report = ServeReport(
            app=self.spec.app, shards=self.shards, degree=self.degree,
            batch=self.batch, packets=self.spec.packets, seed=self.spec.seed,
            plan=self.plan.name if self.plan is not None else None)
        report.drained = self._drain_started is not None
        restarts_total = 0
        for slot in self._slots:
            shard_journal = journal[slot.shard]
            restarts = max(0, slot.attempts - 1)
            restarts_total += restarts
            report.shard_stats.append({
                "shard": slot.shard,
                "batches": len(shard_journal.records),
                "committed": shard_journal.committed,
                "restarts": restarts,
                "replays": shard_journal.replays,
                "redeliveries": shard_journal.redeliveries,
                "causes": list(slot.causes),
                **slot.totals,
            })
        counters = journal.counters()
        counters.update({
            "workers_spawned": self._spawned,
            "restarts": restarts_total,
            "hang_kills": self._hang_kills,
            "drained": report.drained,
        })
        report.counters = counters
        if report.degraded:
            message = (f"warning: drain left {counters['pending']} "
                       f"batches undelivered")
            report.warnings.append(message)
            print(message, file=sys.stderr)
        if self._oracle is not None:
            report.mismatches = self._oracle.finish()
            report.verified = not report.mismatches
            counters["messages_compared"] = self._oracle.messages_compared
        report.timings = self._timings(time.monotonic())
        return report

    def _timings(self, verdict: float) -> dict:
        """Wall-clock facts of the run, as of ``verdict``."""
        wall = verdict - self._started
        packets = sum(len(record.packets)
                      for shard in self._journal.shards
                      for record in shard.records[:shard.committed])
        # A run that committed nothing has no first or last commit.
        first = verdict if self._first_commit is None else self._first_commit
        last = verdict if self._last_commit is None else self._last_commit
        return {
            "wall_s": wall,
            "packets_per_s": packets / wall if wall > 0 else 0.0,
            "first_commit_s": first - self._started,
            "verify_tail_s": verdict - last,
        }
