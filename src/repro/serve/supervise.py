"""The serving supervisor: keep serving while workers die.

:class:`ServeRuntime` is the parent-side half of the sharded serving
runtime.  It flow-hash-shards the app's packet stream (one journal per
shard, written before any worker runs), spawns one worker process per
non-empty shard, and then supervises:

* **liveness** — every worker message (ready / heartbeat / result)
  refreshes its activity clock; a live-but-silent worker past the hang
  timeout is SIGKILLed and classified ``hang`` (the in-interpreter
  stall cases — deadlock / livelock — classify themselves through the
  PR 3 watchdog before the heartbeat clock ever fires);
* **crash recovery** — a dead worker is respawned with exponential
  backoff; the new incarnation replays the shard's journal from batch 1
  and the commit watermark drops the re-delivered prefix, so committed
  output stays exactly-once per flow;
* **circuit breaker** — a shard that keeps dying past its restart
  budget is declared failed; its pending flows are re-sharded onto a
  surviving worker slot (stderr warning, run marked degraded — CLI exit
  ``EXIT_DEGRADED_SERVE``).  Relief incarnations run fault-free: the
  injected faults model *that worker's* crashes, not the shard's data;
* **graceful drain** — SIGTERM (or :meth:`ServeRuntime.request_drain`)
  asks every worker to finish its current batch and stop; stragglers
  are killed after a grace period and whatever was committed stands.

Every lifecycle event (spawn, exit, restart, hang-kill, reshard, drain)
also lands in the active Chrome trace as an instant event, and the
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
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait

from repro.errors import (
    EXIT_DEGRADED_SERVE,
    EXIT_FAILURE,
    EXIT_OK,
    DeadlockError,
    ReproError,
    TrapError,
)
from repro.obs import TID_RUNTIME, instant, span
from repro.runspec import RunSpec, app_pipeline
from repro.runtime.watchdog import DEFAULT_QUANTUM
from repro.serve.journal import Journal
from repro.serve.shard import make_batches, shard_stream
from repro.serve.worker import BatchRunner, worker_main


class ServeError(ReproError):
    """The serving runtime could not deliver the stream (no survivors,
    relief worker exhausted, or a protocol violation): CLI exit 3."""


@dataclass(frozen=True)
class ServePolicy:
    """Supervision knobs (defaults sized for tests and smoke runs)."""

    max_restarts: int = 3       # per home shard, before the breaker trips
    relief_restarts: int = 1    # per adopted (resharded) journal
    backoff_base: float = 0.05  # first restart delay, seconds
    backoff_cap: float = 1.0    # exponential backoff ceiling, seconds
    hang_timeout: float = 10.0  # silent-but-alive seconds before a kill
    drain_grace: float = 2.0    # seconds a drain waits before killing
    poll_interval: float = 0.05

    def backoff(self, restarts: int) -> float:
        return min(self.backoff_cap, self.backoff_base * (2 ** restarts))


@dataclass
class _Slot:
    """One worker slot: a home shard plus whatever journals it adopts."""

    shard: int
    proc: object = None
    conn: object = None
    assignment: int | None = None   # shard whose journal the proc replays
    restart_at: float | None = None
    last_activity: float = 0.0
    failed: bool = False            # home shard's breaker tripped
    hang_killed: bool = False
    drain_killed: bool = False
    saw_done: bool = False
    saw_drained: bool = False
    error: tuple | None = None      # (kind, detail) from the worker
    causes: list = field(default_factory=list)
    orphans: deque = field(default_factory=deque)


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
    degraded: bool = False
    drained: bool = False
    warnings: list = field(default_factory=list)
    #: How fast it was: ``wall_s`` (``run()`` entry to verdict),
    #: ``packets_per_s`` (committed packets over ``wall_s``),
    #: ``first_commit_s`` and ``verify_tail_s`` (last commit to verdict).
    #: The only nondeterministic part of the report — anything that
    #: compares two reports ignores it.
    timings: dict = field(default_factory=dict)

    @property
    def delivered(self) -> bool:
        return self.counters.get("pending", 0) == 0

    @property
    def ok(self) -> bool:
        return (self.delivered and not self.degraded
                and not self.mismatches)

    def exit_code(self) -> int:
        if self.mismatches or (not self.delivered and not self.degraded):
            return EXIT_FAILURE
        if self.degraded:
            return EXIT_DEGRADED_SERVE
        return EXIT_OK

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
            "degraded": self.degraded,
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
            extra = ""
            if entry["resharded_to"] is not None:
                extra = f", resharded -> shard {entry['resharded_to']}"
            lines.append(
                f"  shard {entry['shard']}: {entry['committed']}/"
                f"{entry['batches']} batches, {entry['restarts']} restarts, "
                f"{entry['redeliveries']} redelivered{causes}{extra}")
        c = self.counters
        lines.append(
            f"  supervisor: {c.get('workers_spawned', 0)} workers, "
            f"{c.get('restarts', 0)} restarts, {c.get('replays', 0)} "
            f"replays, {c.get('redeliveries', 0)} redeliveries, "
            f"{c.get('hang_kills', 0)} hang kills, "
            f"{c.get('resharded', 0)} resharded")
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
        status = "ok" if self.ok else (
            "degraded" if self.degraded else "FAIL")
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


def oracle_deltas(app, batches: list[list], *,
                  watchdog_quantum: int | None = DEFAULT_QUANTUM):
    """The sequential oracle for one shard, one batch per ``next()``:
    the plain PPS run over the identical batch sequence, yielding each
    batch's observable delta."""
    runner = BatchRunner(app, watchdog_quantum=watchdog_quantum)
    for packets in batches:
        yield runner.run(packets)[0]


def shard_oracle(app, batches: list[list], *,
                 watchdog_quantum: int | None = DEFAULT_QUANTUM,
                 ) -> list[dict]:
    """:func:`oracle_deltas` run to the end: one delta per batch."""
    return list(oracle_deltas(app, batches,
                              watchdog_quantum=watchdog_quantum))


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
    return mismatches


class _OracleStream:
    """The sequential oracle, streamed beside the workers.

    ``step()`` simulates the next batch — shard by shard, so one oracle
    machine state is alive at a time — and ``commit()`` takes a worker's
    committed delta; whichever of the two arrives second for a batch
    triggers its :func:`compare_deltas` and releases both payloads, so
    what is retained is the verify lag, never the stream.
    """

    def __init__(self, app, journal: Journal,
                 watchdog_quantum: int | None):
        self._app = app
        self._journal = journal
        self._watchdog_quantum = watchdog_quantum
        shards = len(journal.shards)
        self._expected: list[dict[int, dict]] = [{} for _ in range(shards)]
        self._committed: list[dict[int, dict]] = [{} for _ in range(shards)]
        self._mismatches: dict[tuple[int, int], list[str]] = {}
        self._shard = 0             # the shard being simulated
        self._done = 0              # batches of it simulated so far
        self._deltas = None         # its oracle_deltas generator

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
                        self._app, [r.packets for r in journal.records],
                        watchdog_quantum=self._watchdog_quantum)
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
            lines = compare_deltas(shard, [expected.pop(seq)],
                                   {seq: committed.pop(seq)}, first=seq)
            if lines:
                self._mismatches[shard, seq] = lines


#: The per-batch delta counters a :class:`ServeReport` sums per shard.
_SUMMED = ("instructions", "weight", "iterations")


def _spawn_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0])


class ServeRuntime:
    """One supervised serving run (see module docstring)."""

    def __init__(self, app_name: str, *, shards: int = 4, degree: int = 1,
                 packets: int = 40, seed: int = 7, batch: int = 8,
                 plan=None, policy: ServePolicy | None = None,
                 cache=None, journal_dir=None,
                 watchdog_quantum: int | None = DEFAULT_QUANTUM,
                 verify: bool = True):
        if shards < 1:
            raise ServeError(f"need at least 1 shard, got {shards}")
        #: The pipeline being served, as the supervisor's pre-partition
        #: and every worker incarnation build it.
        self.spec = RunSpec(app_name, packets, seed, (degree,),
                            cache_dir=(str(cache.root)
                                       if cache is not None else None))
        self.shards = shards
        self.degree = degree
        self.batch = batch
        self.plan = plan
        self.policy = policy or ServePolicy()
        self.cache = cache
        self.journal_dir = journal_dir
        self.watchdog_quantum = watchdog_quantum
        self.verify = verify

        self._ctx = _spawn_context()
        self._drain_event = None
        self._drain_requested = False
        self._drain_started: float | None = None
        self._slots: list[_Slot] = []
        self._journal: Journal | None = None
        self._oracle: _OracleStream | None = None   # None = verify off
        self._totals: list[dict[str, int]] = []     # per shard, see _handle
        self._started = 0.0
        self._first_commit: float | None = None
        self._last_commit: float | None = None
        self._attempts: dict[int, int] = {}
        self._resharded: dict[int, int] = {}
        self._warnings: list[str] = []
        self._heartbeats = 0
        self._spawned = 0
        self._hang_kills = 0
        #: Test seam: called after every fresh commit with (shard, seq).
        self.on_commit = None

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
        self._started = time.monotonic()
        app = self.spec.build()
        if app.stream is None or app.feed is None:
            raise ServeError(f"app {self.spec.app!r} cannot be served "
                             f"(no stream/feed split)")
        if self.degree > 1 and self.cache is not None:
            # Pre-partition once so every worker incarnation gets a
            # cache hit instead of racing on the same cut search.
            app_pipeline(app, self.degree, knobs=self.spec.knobs,
                         cache=self.cache)

        substreams = shard_stream(app.stream(), self.shards)
        self._journal = Journal(self.shards, self.journal_dir)
        self._totals = [dict.fromkeys(_SUMMED, 0)
                        for _ in range(self.shards)]
        self._slots = [_Slot(shard=index) for index in range(self.shards)]
        self._attempts = {}
        for index, substream in enumerate(substreams):
            for packets in make_batches(substream, self.batch):
                self._journal.append(index, packets)
        if self.verify:
            self._oracle = _OracleStream(app, self._journal,
                                         self.watchdog_quantum)

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

    def _worker_faults(self, slot: _Slot, assignment: int):
        # Relief incarnations (adopted journals) run fault-free: the
        # plan's worker faults model the home worker's crashes.
        if self.plan is None or assignment != slot.shard:
            return None
        return self.plan.worker_faults(f"shard-{assignment}")

    # -- scheduling ----------------------------------------------------------

    def _maybe_start(self, slot: _Slot, now: float) -> None:
        if slot.proc is not None or slot.restart_at is not None:
            return
        if self._drain_requested:
            return
        assignment = self._next_assignment(slot)
        if assignment is None:
            return
        self._spawn(slot, assignment, now)

    def _next_assignment(self, slot: _Slot) -> int | None:
        home = self._journal[slot.shard]
        if not slot.failed and not home.done and len(home.records):
            return slot.shard
        if slot.orphans:
            return slot.orphans.popleft()
        return None

    def _spawn(self, slot: _Slot, assignment: int, now: float) -> None:
        incarnation = self._attempts.get(assignment, 0)
        self._attempts[assignment] = incarnation + 1
        if incarnation > 0 or assignment != slot.shard:
            self._journal.note_replay(assignment, incarnation)
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        batches = [record.packets
                   for record in self._journal[assignment].records]
        proc = self._ctx.Process(
            target=worker_main,
            args=(self.spec, self.watchdog_quantum, assignment, incarnation,
                  batches, child_conn, self._drain_event,
                  self._worker_faults(slot, assignment)),
            name=f"serve-shard-{assignment}-i{incarnation}",
            daemon=True)
        proc.start()
        child_conn.close()
        slot.proc = proc
        slot.conn = parent_conn
        slot.assignment = assignment
        slot.restart_at = None
        slot.last_activity = now
        slot.hang_killed = False
        slot.drain_killed = False
        slot.saw_done = False
        slot.saw_drained = False
        slot.error = None
        self._spawned += 1
        instant("shard_spawn", cat="serve", tid=TID_RUNTIME,
                shard=assignment, slot=slot.shard, incarnation=incarnation,
                relief=assignment != slot.shard)

    # -- the supervision loop ------------------------------------------------

    def _supervise(self) -> None:
        policy = self.policy
        while True:
            now = time.monotonic()
            if self._drain_requested and self._drain_started is None:
                self._begin_drain(now)
            for slot in self._slots:
                if slot.restart_at is not None and now >= slot.restart_at:
                    slot.restart_at = None
                    self._maybe_start(slot, now)
            live = [slot for slot in self._slots if slot.proc is not None]
            # Idle time belongs to the oracle: while it has batches left
            # (and no drain is waiting on us) the supervisor only polls
            # the workers, and simulates one oracle batch whenever none
            # of them has anything to say.
            oracle_busy = (self._oracle is not None
                           and not self._oracle.exhausted
                           and self._drain_started is None)
            if not live:
                if self._drain_started is not None:
                    return
                if all(slot.restart_at is None and not slot.orphans
                       for slot in self._slots):
                    return
                if not (oracle_busy and self._oracle.step()):
                    time.sleep(policy.poll_interval)
                continue
            ready = connection_wait(
                [slot.conn for slot in live],
                timeout=0 if oracle_busy else policy.poll_interval)
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
                      and now - slot.last_activity > policy.hang_timeout):
                    self._hang_kill(slot)
            if (self._drain_started is not None
                    and now - self._drain_started > policy.drain_grace):
                self._drain_kill(now)

    def _drain_messages(self, slot: _Slot, now: float) -> None:
        try:
            while slot.conn.poll():
                self._handle(slot, slot.conn.recv(), now)
        except (EOFError, OSError):
            self._reap(slot, now)

    def _handle(self, slot: _Slot, message: tuple, now: float) -> None:
        slot.last_activity = now
        kind = message[0]
        if kind == "heartbeat":
            self._heartbeats += 1
        elif kind == "result":
            _, shard, _incarnation, seq, delta = message
            if self._journal.accept(shard, seq):
                if self._first_commit is None:
                    self._first_commit = now
                self._last_commit = now
                # Keep the sums the report needs; the payload lives on
                # only until the oracle has compared it.
                totals = self._totals[shard]
                for name in _SUMMED:
                    totals[name] += delta[name]
                if self._oracle is not None:
                    self._oracle.commit(shard, seq, delta)
                if self.on_commit is not None:
                    self.on_commit(shard, seq)
        elif kind == "error":
            _, _shard, _incarnation, error_kind, detail = message
            slot.error = (error_kind, detail)
        elif kind == "done":
            slot.saw_done = True
        elif kind == "drained":
            slot.saw_drained = True

    # -- failure handling ----------------------------------------------------

    def _reap(self, slot: _Slot, now: float) -> None:
        proc, assignment = slot.proc, slot.assignment
        self._drain_messages_final(slot, now)
        proc.join(timeout=5.0)
        exitcode = proc.exitcode
        slot.conn.close()
        slot.proc = None
        slot.conn = None
        slot.assignment = None
        journal = self._journal[assignment]
        finished = slot.saw_done or journal.done
        cause = self._classify(slot, exitcode, finished)
        instant("shard_exit", cat="serve", tid=TID_RUNTIME,
                shard=assignment, slot=slot.shard, exitcode=exitcode,
                cause=cause or "done")
        if finished or slot.saw_drained or slot.drain_killed:
            self._maybe_start(slot, now)
            return
        slot.causes.append(f"shard-{assignment}: {cause}")
        if self._drain_started is not None:
            return                  # draining: no restarts
        restarts = self._attempts[assignment] - 1
        budget = (self.policy.max_restarts if assignment == slot.shard
                  else self.policy.relief_restarts)
        if restarts < budget:
            delay = self.policy.backoff(restarts)
            slot.restart_at = now + delay
            if assignment != slot.shard:
                # Re-queue the adopted journal so the respawn picks it up.
                slot.orphans.appendleft(assignment)
            instant("shard_restart", cat="serve", tid=TID_RUNTIME,
                    shard=assignment, slot=slot.shard,
                    incarnation=self._attempts[assignment],
                    backoff=round(delay, 3))
            return
        if assignment != slot.shard:
            raise ServeError(
                f"relief worker for shard {assignment} (on slot "
                f"{slot.shard}) exhausted its restart budget "
                f"({budget}); {journal.pending} batches undeliverable")
        slot.failed = True
        self._reshard(slot, now)
        self._maybe_start(slot, now)

    def _drain_messages_final(self, slot: _Slot, now: float) -> None:
        try:
            while slot.conn.poll():
                self._handle(slot, slot.conn.recv(), now)
        except (EOFError, OSError):
            pass

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

    def _reshard(self, slot: _Slot, now: float) -> None:
        journal = self._journal[slot.shard]
        survivors = sorted(
            (other for other in self._slots
             if other is not slot and not other.failed),
            key=lambda other: (len(other.orphans), other.shard))
        if not survivors:
            raise ServeError(
                f"shard {slot.shard} exhausted its restart budget "
                f"({self.policy.max_restarts}) and no surviving shard "
                f"can adopt its {journal.pending} pending batches")
        survivor = survivors[0]
        survivor.orphans.append(slot.shard)
        self._resharded[slot.shard] = survivor.shard
        message = (f"warning: shard {slot.shard} exhausted its restart "
                   f"budget ({self.policy.max_restarts}); re-sharding "
                   f"{journal.pending} pending batches onto shard "
                   f"{survivor.shard}")
        self._warnings.append(message)
        print(message, file=sys.stderr)
        instant("shard_reshard", cat="serve", tid=TID_RUNTIME,
                shard=slot.shard, survivor=survivor.shard,
                pending=journal.pending)
        self._maybe_start(survivor, now)

    def _hang_kill(self, slot: _Slot) -> None:
        slot.hang_killed = True
        self._hang_kills += 1
        instant("shard_kill", cat="serve", tid=TID_RUNTIME,
                shard=slot.assignment, slot=slot.shard, reason="hang")
        slot.proc.kill()

    def _begin_drain(self, now: float) -> None:
        self._drain_started = now
        self._drain_event.set()
        for slot in self._slots:
            slot.restart_at = None
            slot.orphans.clear()
        instant("serve_drain", cat="serve", tid=TID_RUNTIME)

    def _drain_kill(self, now: float) -> None:
        for slot in self._slots:
            if slot.proc is not None and slot.proc.is_alive():
                slot.drain_killed = True
                instant("shard_kill", cat="serve", tid=TID_RUNTIME,
                        shard=slot.assignment, slot=slot.shard,
                        reason="drain-grace-expired")
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
        report.warnings = list(self._warnings)
        restarts_total = 0
        for index in range(self.shards):
            shard_journal = journal[index]
            attempts = self._attempts.get(index, 0)
            restarts = max(0, attempts - 1)
            restarts_total += restarts
            slot = self._slots[index]
            report.shard_stats.append({
                "shard": index,
                "batches": len(shard_journal.records),
                "committed": shard_journal.committed,
                "restarts": restarts,
                "replays": shard_journal.replays,
                "redeliveries": shard_journal.redeliveries,
                "causes": list(slot.causes),
                "failed": slot.failed,
                "resharded_to": self._resharded.get(index),
                **self._totals[index],
            })
        counters = journal.counters()
        counters.update({
            "workers_spawned": self._spawned,
            "restarts": restarts_total,
            "heartbeats": self._heartbeats,
            "hang_kills": self._hang_kills,
            "resharded": len(self._resharded),
            "drained": report.drained,
        })
        report.counters = counters
        report.degraded = bool(self._resharded) or (
            report.drained and counters["pending"] > 0)
        if report.drained and counters["pending"] > 0:
            message = (f"warning: drain left {counters['pending']} "
                       f"batches undelivered")
            report.warnings.append(message)
            print(message, file=sys.stderr)
        if self._oracle is not None:
            report.mismatches = self._oracle.finish()
            report.verified = not report.mismatches
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


def serve(app_name: str, **kwargs) -> ServeReport:
    """Convenience wrapper: build a :class:`ServeRuntime` and run it."""
    install_sigterm = kwargs.pop("install_sigterm", False)
    runtime = ServeRuntime(app_name, **kwargs)
    return runtime.run(install_sigterm=install_sigterm)
