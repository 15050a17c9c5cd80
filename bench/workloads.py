"""The six workloads: what each sets up, times, and decomposes.

Each workload has ``setup`` (inputs and pre-warmed caches; timed as
``setup_s``), ``measure`` (the untraced passes behind the end-to-end
metrics) and ``trace`` (one untraced pass for reference, then the same
inputs through the layer calls under spans).  Sizes are for a 2-core
box and a 15-second measurement; ``scale`` shrinks packet and program
counts, never the structure.

End-to-end times are reported at reference speed: every pass is divided
by the slowdown the speed sampler (``probe.py``) measured while it ran;
the wall times as measured are kept beside them (``raw``).
"""

from __future__ import annotations

import resource
import shutil
from dataclasses import dataclass, field, replace
from time import perf_counter

from compiling import compile_half, trace_compile
from programs import (
    CHECK_PACKETS,
    CHECK_SEED,
    Program,
    app_feeder,
    scaled,
    suite_programs,
)
from serving import ServeConfig, kill_point, serve_pass, trace_serve
from simulating import simulate
from spans import Recorder
from stats import geomean, highest_percentile, median, metric, percentile

#: (app, degrees) of ``sim_steady``; degree 1 is the sequential PPS.
SIM_CELLS = [("ipv4", (1, 4, 9)), ("rx", (1, 5)), ("ip_v6", (1, 9)),
             ("qm", (1,)), ("scheduler", (1,))]
SIM_PACKETS = 2000

#: The serving probe that gives the ``serve`` rows of a traced run a
#: measured value on the workloads that bypass ``serve``.
PROBE = dict(app="ipv4", shards=2, degree=1, batch=16, packets=256)

_OFF = Recorder(False)


@dataclass
class Measured:
    """What a run hands back to the driver."""

    metrics: dict = field(default_factory=dict)     # the contract's line
    named: dict = field(default_factory=dict)       # the issue's names
    exact: dict = field(default_factory=dict)       # must repeat per seed
    sizes: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)    # determinism breaks
    raw: dict = field(default_factory=dict)         # as measured, per pass


def peak_rss_mb() -> float:
    """Peak resident set of this interpreter or any worker it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0


def same_across_passes(measured: Measured, what: str, values: list) -> None:
    """Counts marked exact must be identical across a run's own passes."""
    if any(value != values[0] for value in values[1:]):
        measured.problems.append(f"{what} differs between passes")


def sim_counts(rec: Recorder) -> dict:
    """The ``runtime`` rows every traced run fills from its counts."""
    counts = rec.counts
    seq, pipe = counts["runtime.seq_seconds"], counts["runtime.pipe_seconds"]
    return {
        "runtime.sim_s": metric(rec.total("runtime.sim"), "s",
                                len(rec.durations("runtime.sim"))),
        "runtime.sim_cpu_s": metric(counts["runtime.cpu_seconds"], "s", 1),
        "runtime.instructions": metric(
            counts["runtime.seq_instructions"]
            + counts["runtime.pipe_instructions"], "count", 1),
        "runtime.ips_seq": metric(
            counts["runtime.seq_instructions"] / seq if seq else 0.0,
            "1/s", 1),
        "runtime.ips_pipe": metric(
            counts["runtime.pipe_instructions"] / pipe if pipe else 0.0,
            "1/s", 1),
        "runtime.blocked": metric(counts["runtime.blocked"], "count", 1),
        "runtime.wake_parks": metric(counts["runtime.wake_parks"],
                                     "count", 1),
        "runtime.wake_notifies": metric(counts["runtime.wake_notifies"],
                                        "count", 1),
        "runtime.pipe_high_water": metric(
            counts["runtime.pipe_high_water"], "count", 1),
        "runtime.observe_s": metric(rec.total("runtime.observe"), "s",
                                    len(rec.durations("runtime.observe"))),
    }


def layer_metrics(rec: Recorder, facts: dict, gaps: list,
                  traced_wall: float, untraced_wall: float) -> dict:
    """Every per-layer metric, from the spans and counts of one traced
    run, the facts its top-level compiles reported, and the commit gaps
    of its serving runs."""
    counts = rec.counts

    def seconds(span: str) -> dict:
        return metric(rec.total(span), "s", len(rec.durations(span)))

    def count(name: str, unit: str = "count") -> dict:
        return metric(counts[name], unit, 1)

    def gap_ms(pct: float) -> dict:
        return metric(percentile(gaps, pct) * 1e3 if gaps else 0.0, "ms",
                      len(gaps))

    commit_span = rec.total("serve.commit_span")
    inproc = max(rec.durations("serve.inproc_loop"), default=0.0)
    batches = counts["serve.batches"]
    result = {
        "lang.parse_s": seconds("lang.parse"),
        "lang.source_bytes": count("lang.source_bytes", "B"),
        "ir.lower_s": seconds("ir.lower"),
        "ir.inline_s": seconds("ir.inline"),
        "ir.optimize_s": seconds("ir.optimize"),
        "ir.instructions": count("ir.instructions"),
        "analysis.normalize_s": seconds("analysis.normalize"),
        "analysis.ssa_s": seconds("analysis.ssa"),
        "analysis.dependence_s": seconds("analysis.dependence"),
        "analysis.liveness_s": seconds("analysis.liveness"),
        "analysis.profile_s": seconds("analysis.profile"),
        "flownet.select_stages_s": seconds("flownet.select_stages"),
        "flownet.pr_work": count("flownet.pr_work"),
        "flownet.cut_iterations": count("flownet.cut_iterations"),
        "flownet.warm_hit_ratio": metric(
            counts["flownet.warm_hits"] / counts["flownet.cuts"]
            if counts["flownet.cuts"] else 0.0,
            "ratio", int(counts["flownet.cuts"])),
        "pipeline.partition_s": seconds("pipeline.partition"),
        "pipeline.realize_s": seconds("pipeline.realize"),
        "pipeline.verify_s": seconds("pipeline.verify"),
        "pipeline.attempts": metric(facts["attempts"], "count", 1),
        "pipeline.degraded_cells": metric(facts["degraded"], "count", 1),
        "pipeline.live_words": count("pipeline.live_words", "words"),
        "pipeline.longest_stage_weight": count(
            "pipeline.longest_stage_weight", "weight"),
        "cache.key_s": seconds("cache.key"),
        "cache.lookup_s": seconds("cache.lookup"),
        "cache.store_s": seconds("cache.store"),
        "cache.hit_ratio": metric(facts["hit_ratio"], "ratio",
                                  facts["lookups"]),
        "cache.bytes_on_disk": metric(facts["bytes"], "B", 1),
        "cache.corrupt": metric(facts["corrupt"] + counts["cache.corrupt"],
                                "count", 1),
        "runtime.tcc_s": seconds("runtime.tcc"),
        "runtime.tcc_functions": count("runtime.tcc_functions"),
        **sim_counts(rec),
        "apps.build_s": seconds("apps.build"),
        "apps.stream_s": seconds("apps.stream"),
        "apps.feed_s": seconds("apps.feed"),
        "serve.shard_s": seconds("serve.shard"),
        "serve.journal_s": seconds("serve.journal"),
        "serve.batches": count("serve.batches"),
        "serve.shard_skew": count("serve.shard_skew", "ratio"),
        "serve.first_commit_s": seconds("serve.first_commit"),
        "serve.commit_span_s": seconds("serve.commit_span"),
        "serve.post_commit_s": seconds("serve.post_commit"),
        "serve.oracle_s": seconds("serve.oracle"),
        "serve.compare_s": seconds("serve.compare"),
        "serve.inproc_loop_s": metric(
            inproc, "s", len(rec.durations("serve.inproc_loop"))),
        # Derived: what the slowest shard's commits cost beyond feeding
        # and simulating the same batches with no process boundary.
        "serve.ipc_overhead_s": metric(commit_span - inproc, "s", 1),
        "serve.delta_bytes_per_batch": metric(
            counts["serve.delta_bytes"] / batches if batches else 0.0,
            "B", int(batches)),
        "serve.delta_pickle_s": seconds("serve.delta_pickle"),
        "serve.heartbeats": count("serve.heartbeats"),
        "serve.workers_spawned": count("serve.workers_spawned"),
        "serve.restarts": count("serve.restarts"),
        "serve.replays": count("serve.replays"),
        "serve.redeliveries": count("serve.redeliveries"),
        "serve.redelivery_ratio": metric(
            counts["serve.redeliveries"] / counts["serve.committed"]
            if counts["serve.committed"] else 0.0,
            "ratio", int(counts["serve.committed"])),
        "serve.commit_gap_p50_ms": gap_ms(50),
        "serve.commit_gap_p90_ms": gap_ms(90),
        "serve.commit_gap_p99_ms": gap_ms(99),
        "serve.commit_gap_max_ms": gap_ms(100),
        "obs.bench_trace_overhead": metric(
            traced_wall / untraced_wall, "ratio", 1),
    }
    return result


def compile_facts(halves: list, timed) -> dict:
    """What the top-level compiles of a run reported about the ladder
    (over ``halves``) and about the cache on the path the workload
    takes (``timed``, one of them)."""
    return {
        "attempts": sum(half.attempts for half in halves),
        "degraded": sum(half.degraded for half in halves),
        "hit_ratio": timed.hits / timed.lookups if timed.lookups else 0.0,
        "lookups": timed.lookups,
        "bytes": timed.cache_bytes,
        "corrupt": sum(half.corrupt for half in halves),
    }


class Workload:
    """Shared shape: a seed, a scale, a tmp dir, a ledger of ops, and
    the speed sampler that says how slow the CPUs were during a pass
    (``None`` in traced runs, whose times stay as measured)."""

    name = ""
    at_least = 3

    def __init__(self, seed: int, scale: float, tmp, ledger, speed=None):
        self.seed = seed
        self.scale = scale
        self.tmp = tmp
        self.ledger = ledger
        self.speed = speed

    def new_cache(self, label: str):
        from repro.cache import CompileCache

        return CompileCache(self.tmp / f"cache-{label}")

    def measure(self, seconds: float) -> Measured:
        """Passes back to back until the next would overrun ``seconds``
        (never fewer than ``at_least``, so a median is a median), each
        paired with the slowdown of the CPUs while it ran: dividing a
        pass's times by it brings them to reference speed."""
        passes = []
        begin = perf_counter()
        while True:
            start = perf_counter()
            one = self.one_pass(len(passes))
            passes.append((one, self.speed.slowdown(start, perf_counter())))
            elapsed = perf_counter() - begin
            if (len(passes) >= self.at_least
                    and elapsed + elapsed / len(passes) > seconds):
                break
        measured = Measured()
        measured.raw["slowdown"] = [slow for _, slow in passes]
        self.summarize(measured, passes)
        return measured

    def probe(self, rec: Recorder):
        """Serve a small stream so the ``serve`` rows are measured."""
        from repro.apps.suite import build_app

        config = ServeConfig(seed=self.seed, **PROBE)
        with rec.span("apps.build"):
            app = build_app(config.app, packets=config.packets,
                            seed=self.seed)
        with rec.span("apps.stream"):
            stream = app.stream()
        return trace_serve(rec, config, app, stream, None,
                           self.ledger).gaps


class Compile(Workload):
    """The suite sources and the seeded random programs, from source
    text to verified threaded code, against an empty ``CompileCache``
    (``compile_cold``: the partitioner does the work) or against a
    filled one (``compile_warm``: the cache and the front end do)."""

    warm = False

    def setup(self, rec: Recorder) -> None:
        suite, seeded = suite_programs(rec, self.seed, self.scale)
        self.programs = suite + seeded
        self.fixed = {program.name for program in suite}
        if self.warm:
            self.cache = self.new_cache("filled")
            with rec.span("setup.prewarm"):
                self.fill = self.half(self.cache, "fill")

    def half(self, cache, label: str, check: bool = False, keep=None):
        """Every program against ``cache``.  With ``check`` every cell
        ends with its equivalence-checked simulation (correctness; timed
        apart); ``keep`` collects the sim groups."""
        def key(named, degree):
            return (label, named.name, degree)

        speedups = []

        def on_compiled(compiled):
            group = compiled.sim_group(sequential_is_cell=False)
            if check:
                checked = simulate(_OFF, [group], self.ledger, key)
                if group.name in self.fixed:
                    speedups.extend(checked.speedups)
            if keep is not None:
                keep.append(group)

        half = compile_half(self.programs, cache, self.ledger, key,
                            on_compiled)
        half.speedups = speedups
        return half

    def one_pass(self, index: int):
        """One timed half; the first pass also checks every cell."""
        if self.warm:
            return self.half(self.cache, f"pass{index}", check=index == 0)
        cache = self.new_cache(f"pass{index}")
        half = self.half(cache, f"pass{index}", check=index == 0)
        shutil.rmtree(cache.root)
        return half

    def summarize(self, measured: Measured, passes: list) -> None:
        first, _ = passes[0]
        measured.raw["pass_wall_s"] = [one.seconds for one, _ in passes]
        same_across_passes(
            measured, "flownet.pr_work / model_live_words / stage weights",
            [one.signature for one, _ in passes]
            + ([self.fill.signature] if self.warm else []))
        speedup = geomean(first.speedups) if first.speedups else 1.0
        words = sum(cell[3] for cell in first.signature)
        rss = peak_rss_mb()
        count = len(passes)
        seconds = metric(median(one.seconds / slow for one, slow in passes),
                         "s", count)
        measured.metrics.update({
            "pass_s": seconds,
            "peak_rss_mb": metric(rss, "MiB", 1),
            "model_speedup_geomean": metric(speedup, "x",
                                            len(first.speedups)),
        })
        measured.named.update({
            f"compile_{'warm' if self.warm else 'cold'}_s": seconds,
            "compile_peak_rss_mb": metric(rss, "MiB", 1),
            "model_live_words": metric(words, "words",
                                       len(first.signature)),
        })
        measured.exact.update({
            "model_live_words": words,
            "model_speedup_geomean": repr(speedup),
            "flownet.pr_work": sum(cell[2] for cell in first.signature),
            "pipeline.longest_stage_weight": sum(
                cell[4] for cell in first.signature),
        })
        measured.sizes.update({
            "programs": len(self.programs),
            "seeded_programs": len(self.programs) - len(self.fixed),
            "cells": len(first.signature), "passes": count,
            "check_packets": CHECK_PACKETS,
            "cache_hit_ratio": first.hits / max(1, first.lookups),
        })

    def trace(self, rec: Recorder) -> Measured:
        """The reference is a cold half and a warm half, whichever of
        the two the workload times: the layer calls below walk both
        paths (a miss, a store and a hit per cell)."""
        measured = Measured()
        groups = []
        start = perf_counter()
        with rec.span("untraced_pass"):
            if self.warm:
                cold = self.fill
                warm = self.half(self.cache, "pass0", check=True,
                                 keep=groups)
            else:
                cache = self.new_cache("pass0")
                cold = self.half(cache, "pass0", check=True)
                warm = self.half(cache, "again", keep=groups)
        untraced = perf_counter() - start + (cold.seconds if self.warm
                                             else 0.0)
        timed = warm if self.warm else cold
        self.summarize(measured, [(timed, 1.0)])
        start = perf_counter()
        with rec.span("traced_pass"):
            trace_compile(rec, self.programs, self.tmp / "cache-traced")
            simulate(rec, groups, self.ledger,
                     lambda group, degree: ("pass0", group.name, degree))
            traced = perf_counter() - start
            with rec.span("serve_probe"):
                gaps = self.probe(rec)
        measured.metrics = layer_metrics(
            rec, compile_facts([cold, warm], timed), gaps, traced,
            untraced)
        return measured


class CompileCold(Compile):
    name = "compile_cold"


class CompileWarm(Compile):
    name = "compile_warm"
    warm = True


class Prepared(Workload):
    """A workload whose pipelines are built in set-up: compiled cold to
    pre-warm a cache, then loaded through it the way a later run would
    find them."""

    def prepare(self, rec: Recorder, programs: list, check_feeds: list,
                sequential_is_cell: bool) -> list:
        """The sim groups of ``programs``, loaded through the cache.  A
        short equivalence-checked simulation of each on fixed traffic
        (``check_feeds``) gives the model speedup of what was built, the
        same under every seed."""
        self.programs = programs
        self.cache = self.new_cache("setup")
        with rec.span("setup.prewarm"):
            self.cold = compile_half(
                programs, self.cache, self.ledger,
                lambda program, degree: ("prewarm", program.name, degree))
        loaded = []
        with rec.span("setup.load"):
            self.warm = compile_half(
                programs, self.cache, self.ledger,
                lambda program, degree: ("load", program.name, degree),
                loaded.append)
        groups = [compiled.sim_group(sequential_is_cell)
                  for compiled in loaded]
        with rec.span("setup.check"):
            self.check = simulate(
                _OFF, [replace(group, feed=feed)
                       for group, feed in zip(groups, check_feeds)],
                self.ledger,
                lambda group, degree: ("check", group.name, degree))
        return groups

    def facts(self) -> dict:
        return compile_facts([self.cold, self.warm], self.warm)


class SimSteady(Prepared):
    """Prebuilt pipelines simulated over long streams: the threaded
    code, the event scheduler and the pipes do nearly all the work."""

    name = "sim_steady"

    def setup(self, rec: Recorder) -> None:
        from repro.apps.suite import build_app
        from repro.eval.metrics import make_profiler

        packets = scaled(SIM_PACKETS, self.scale, floor=20)
        programs, check_feeds = [], []
        for name, degrees in SIM_CELLS:
            with rec.span("apps.build"):
                app = build_app(name, packets=packets, seed=self.seed)
                check_app = build_app(name, packets=CHECK_PACKETS,
                                      seed=CHECK_SEED)
            with rec.span("apps.stream"):
                stream = app.stream() if app.stream is not None else None
            # Profiled on the fixed traffic, run on the seed's: the
            # pipelines are then the same under every seed.
            programs.append(Program(
                name, app.source, app.pps_name,
                tuple(degree for degree in degrees if degree > 1),
                feed=app_feeder(app, stream),
                profiler=make_profiler(check_app)))
            check_feeds.append(app_feeder(check_app))
        self.groups = self.prepare(rec, programs, check_feeds,
                                   sequential_is_cell=True)
        self.packets = packets

    def one_pass(self, index: int, rec: Recorder = _OFF):
        return simulate(rec, self.groups, self.ledger,
                        lambda group, degree: (index, group.name, degree))

    def summarize(self, measured: Measured, passes: list) -> None:
        same_across_passes(measured, "runtime.instructions",
                           [one.cell_instructions for one, _ in passes])
        first, _ = passes[0]
        seconds = [one.seconds / slow for one, slow in passes]
        measured.raw["pass_wall_s"] = [one.seconds for one, _ in passes]
        speedup = geomean(self.check.speedups)
        count = len(passes)
        measured.metrics.update({
            "pass_s": metric(median(seconds), "s", count),
            "peak_rss_mb": metric(peak_rss_mb(), "MiB", 1),
            "model_speedup_geomean": metric(speedup, "x",
                                            len(self.check.speedups)),
        })
        measured.named.update({
            "sim_ips": metric(median(first.instructions / one
                                     for one in seconds), "1/s", count),
            "sim_pkts_per_s": metric(median(first.packets / one
                                            for one in seconds),
                                     "1/s", count),
        })
        measured.exact.update({
            "runtime.instructions": first.instructions,
            "model_speedup_geomean": repr(speedup),
        })
        measured.sizes.update({
            "packets_per_cell": self.packets,
            "cells": len(first.cell_seconds), "passes": count,
            "packets_per_pass": first.packets,
        })

    def trace(self, rec: Recorder) -> Measured:
        measured = Measured()
        start = perf_counter()
        with rec.span("untraced_pass"):
            plain = self.one_pass(0)
        untraced = perf_counter() - start
        self.summarize(measured, [(plain, 1.0)])
        start = perf_counter()
        with rec.span("traced_pass"):
            self.one_pass(0, rec)
            traced = perf_counter() - start
            with rec.span("compile_decomposition"):
                trace_compile(rec, self.programs, self.tmp / "cache-traced")
            with rec.span("serve_probe"):
                gaps = self.probe(rec)
        measured.metrics = layer_metrics(rec, self.facts(), gaps, traced,
                                         untraced)
        return measured


class Serve(Prepared):
    """``ServeRuntime`` runs, closed loop with ``shards`` clients."""

    degree = 1
    batch = 4
    packets = 3200
    kill = False

    def setup(self, rec: Recorder) -> None:
        from repro.apps.suite import build_app

        packets = scaled(self.packets, self.scale, floor=8 * self.batch)
        with rec.span("apps.build"):
            self.app = build_app("ipv4", packets=packets, seed=self.seed)
        with rec.span("apps.stream"):
            self.stream = self.app.stream()
        config = ServeConfig("ipv4", shards=2, degree=self.degree,
                             batch=self.batch, packets=packets,
                             seed=self.seed)
        if self.kill:
            with rec.span("setup.inputs"):
                config = replace(
                    config, kill_after=kill_point(self.stream, config))
        self.config = config
        # The pipeline the workers will load is built and checked here.
        with rec.span("apps.build"):
            check_app = build_app("ipv4", packets=CHECK_PACKETS,
                                  seed=CHECK_SEED)
        program = Program("ipv4", self.app.source, self.app.pps_name,
                          (self.degree,))
        self.prepare(rec, [program], [app_feeder(check_app)],
                     sequential_is_cell=False)

    def one_pass(self, index: int):
        return serve_pass(self.config, self.cache, self.ledger, index)

    def summarize(self, measured: Measured, passes: list) -> None:
        config = self.config
        same_across_passes(
            measured, "serve.batches",
            [one.counters.get("batches") for one, _ in passes])
        same_across_passes(measured, "runtime.instructions",
                           [one.instructions for one, _ in passes])
        walls = [one.wall / slow for one, slow in passes]
        pooled = [gap / slow for one, slow in passes for gap in one.gaps]
        measured.raw["pass_wall_s"] = [one.wall for one, _ in passes]
        count = len(passes)
        speedup = geomean(self.check.speedups)
        measured.metrics.update({
            "pass_s": metric(median(walls), "s", count),
            "peak_rss_mb": metric(peak_rss_mb(), "MiB", 1),
            "model_speedup_geomean": metric(speedup, "x",
                                            len(self.check.speedups)),
        })
        measured.named["serve_pkts_per_s"] = metric(
            median(config.packets / wall for wall in walls), "1/s", count)
        if pooled:
            measured.named["serve_commit_gap_p50_ms"] = metric(
                median(pooled) * 1e3, "ms", len(pooled))
        if self.kill:
            # One event per shard per pass: the longest gap between fresh
            # commits is backoff + respawn + replay of the committed
            # prefix.  Median over passes of the worst shard.
            stalls = [max(one.gaps) / slow for one, slow in passes
                      if one.gaps]
            if stalls:
                measured.named["serve_recovery_stall_ms"] = metric(
                    median(stalls) * 1e3, "ms", len(stalls))
        elif pooled:
            pct = highest_percentile(len(pooled))
            measured.named[f"serve_commit_gap_p{pct:g}_ms"] = metric(
                percentile(pooled, pct) * 1e3, "ms", len(pooled))
        first, _ = passes[0]
        measured.exact.update({
            "serve.batches": first.counters.get("batches"),
            "runtime.instructions": first.instructions,
            "model_speedup_geomean": repr(speedup),
        })
        measured.sizes.update({
            "packets": config.packets, "shards": config.shards,
            "degree": config.degree, "batch": config.batch,
            "kill_after_batches": config.kill_after, "passes": count,
            "restarts": [one.counters.get("restarts") for one, _ in passes],
            "redeliveries": [one.counters.get("redeliveries")
                             for one, _ in passes],
        })

    def trace(self, rec: Recorder) -> Measured:
        measured = Measured()
        start = perf_counter()
        with rec.span("untraced_pass"):
            plain = self.one_pass(0)
        untraced = perf_counter() - start
        self.summarize(measured, [(plain, 1.0)])
        start = perf_counter()
        with rec.span("traced_pass"):
            served = trace_serve(rec, self.config, self.app, self.stream,
                                 self.cache, self.ledger)
            traced = perf_counter() - start
            with rec.span("compile_decomposition"):
                trace_compile(rec, self.programs, self.tmp / "cache-traced")
        measured.metrics = layer_metrics(
            rec, self.facts(), plain.gaps + served.gaps, traced, untraced)
        return measured


class ServeSmallBatch(Serve):
    """Per-batch cost dominates: tables reloaded, a heartbeat and a
    pickled delta per 4 packets, the oracle re-running every batch."""

    name = "serve_smallbatch"
    degree, batch, packets = 1, 4, 3200


class ServeBigBatch(Serve):
    """In-worker and oracle simulation dominate; per-batch overhead is
    amortised 16x, so an IPC change should predict no change here."""

    name = "serve_bigbatch"
    degree, batch, packets = 4, 64, 11000


class ServeKill(Serve):
    """``serve_bigbatch``'s shape with every worker killed half-way:
    recovery beside steady state, replay from batch 1."""

    name = "serve_kill"
    degree, batch, packets = 4, 64, 9000
    kill = True


WORKLOADS = {cls.name: cls for cls in (
    CompileCold, CompileWarm, SimSteady, ServeSmallBatch, ServeBigBatch, ServeKill)}
