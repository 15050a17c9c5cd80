"""Command-line interface: compile, partition, run, and report.

Usage (also via ``python -m repro``)::

    repro check file.ppc                     # compile + semantic check
    repro ir file.ppc [--pps NAME]           # dump the lowered, inlined IR
    repro pipeline file.ppc --pps NAME -d 4  # partition; print stage map
    repro run file.ppc --pps NAME -d 4 \\
        --feed in_q=1,2,3 --iterations 3     # execute on the simulator
    repro run ... --profile                  # + runtime counter report
    repro run ... --trace trace.json         # + Chrome trace of compile + run
    repro run ... --faults plan.json \\
        --isolate-traps                      # chaos-hardened execution
    repro serve --shards 4 \\
        --faults worker-kill                 # supervised sharded serving
    repro explore [-o DIR]                   # Pareto frontier, Figures 19-22
    repro fuzz [--seeds 50] [--out DIR]      # progen fuzz of the partitioner
    repro fuzz --apps rx,qm --seeds 1        # the same checks on suite apps
    repro fuzz --faults drop-light -j 4      # one fault plan, parallel
    repro fuzz --self-test                   # verifier mutation self-test

PPS-C files conventionally use the ``.ppc`` extension.

``repro pipeline`` / ``repro run`` partition through the supervisor
(:mod:`repro.pipeline.supervisor`): the result is independently verified
(:mod:`repro.pipeline.verify`), and a verifier rejection or a
partitioner error fails the command with its own message.  ``explore``
and ``fuzz`` never stop at a failed cell or case: each is a record
carrying its seed and a reproduce one-liner, identically at every
``-j``, and the command exits 1 once the whole sweep has run.  ``fuzz``
runs every case through one table of check families
(:mod:`repro.eval.fuzz`), uncached.  ``--trace`` is written even when
``run`` or ``serve`` fails.

Partition results are memoized in a content-addressed artifact cache
(``--cache-dir DIR``, default ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``;
``--no-cache`` opts out) — see ``docs/caching.md``.  ``explore`` and
``serve`` partition a suite app the one way
:func:`repro.runspec.app_pipeline` does — its own profiler, the run's
knobs; ``explore`` adds the supervisor's verification — so at equal
packets, seed and knobs they share its artifacts (every explore cell
runs at the ``--seed`` as given).

Exit codes (see :mod:`repro.errors`): 0 success, 1 compile/pipeline/IO
failure (a verifier rejection, and any failed explore cell or fuzz case,
included), 2 usage error (unknown PPS or app, a count or degree below
1, a knob its ``Knobs`` rejects, a ``serve --hang-timeout`` not above 0,
malformed ``--feed``, an unknown or malformed fault plan or one with a
section the command cannot apply), 3 runtime failure (interpreter trap,
deadlock/livelock, a ``repro serve`` shard out of restarts).  A
SIGTERM-drained ``serve`` exits 0 once its committed prefix verifies,
after a stderr warning that counts the undelivered tail.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

from repro import compile_module
from repro.apps.suite import APPS, FIGURE_APPS
from repro.errors import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    DeadlockError,
    FaultPlanError,
    ReproError,
    TrapError,
)
from repro.ir.function import Module
from repro.ir.printer import format_function, format_module
from repro.lang import FrontendError
from repro.machine.costs import cost_table, cost_table_names
from repro.pipeline.liveset import Strategy
from repro.pipeline.transform import PipelineError
from repro.runspec import Knobs
from repro.runtime.equivalence import assert_equivalent, observe
from repro.runtime.scheduler import run_pipeline, run_sequential
from repro.runtime.state import MachineState
from repro.serve import ServeError


class CLIError(ReproError):
    """A usage error (bad flag value, unknown PPS): exit code 2."""


def _load_module(path: str) -> Module:
    with open(path, encoding="utf-8") as handle:
        return compile_module(handle.read(), path)


def _resolve_pps(module: Module, name: str | None) -> str:
    if name is not None:
        if name not in module.ppses:
            raise CLIError(f"no pps named {name!r} "
                           f"(available: {', '.join(module.ppses)})")
        return name
    if len(module.ppses) == 1:
        return next(iter(module.ppses))
    raise CLIError(f"choose one of the PPSes with --pps: "
                   f"{', '.join(module.ppses)}")


def _positive_int(text: str) -> int:
    """The argparse type of every count flag (``--packets``, ``-j``,
    ``-d``, ``--iterations``, …) and the convert of every ``--degrees``
    item."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError("must be an integer >= 1")
    return int(text)


def _parse_list(flag: str, values, convert=str) -> list:
    """The one list-flag parser (``--degrees``, ``--apps``, ``--rings``, …).

    ``values`` is the flag's string, or its ``nargs`` list of strings;
    parts are comma- and/or space-separated and empty parts are ignored.
    A part ``convert`` rejects, or no parts at all, is a usage error.
    """
    if isinstance(values, str):
        values = [values]
    parts = []
    for part in " ".join(values).replace(",", " ").split():
        try:
            parts.append(convert(part))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            # Every list flag is a plural: "--degrees" -> "bad degree 0".
            noun = flag.removeprefix("--").removesuffix("s")
            raise CLIError(f"bad {noun} {part}: {exc}") from exc
    if not parts:
        raise CLIError(f"{flag} needs at least one value")
    return parts


def _parse_feed(specs: list[str]) -> dict[str, list[int]]:
    feeds: dict[str, list[int]] = {}
    for spec in specs:
        if "=" not in spec:
            raise CLIError(f"--feed expects pipe=v1,v2,... (got {spec!r})")
        pipe, _, values = spec.partition("=")
        try:
            feeds[pipe] = [int(v, 0) for v in values.split(",") if v]
        except ValueError as exc:
            raise CLIError(f"bad feed value in {spec!r}: {exc}") from exc
    return feeds


def _write_json(path: str, payload, *, sort_keys: bool = False) -> None:
    """Write one JSON artifact (indented, newline-terminated), creating
    its directory first."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=sort_keys)
        handle.write("\n")


def _execution_setup(args, module: Module):
    """The fault plan + feed -> ``MachineState`` set-up of ``run``.

    Returns ``(plan, fresh)``: the ``--faults`` plan (or ``None``) and a
    factory for a fed — and, under a plan, armed — machine state.
    """
    from repro.runtime.faults import FaultInjector, resolve_plan

    feeds = _parse_feed(args.feed or [])
    plan = resolve_plan(args.faults) if args.faults else None
    if plan is not None:
        # Perturb the host-fed streams ONCE; every state shares them.
        stream_injector = FaultInjector(plan)
        feeds = {pipe: stream_injector.perturb(pipe, values)
                 for pipe, values in feeds.items()}

    def fresh() -> MachineState:
        state = MachineState(module)
        if plan is not None:
            injector = FaultInjector(plan)
            injector.arm(state)
            injector.absorb_stream(stream_injector)
        for pipe, values in feeds.items():
            state.feed_pipe(pipe, values)
        return state

    return plan, fresh


def _open_cache(args):
    """The ``--cache-dir`` / ``--no-cache`` policy for one subcommand."""
    from repro.cache import resolve_cache

    return resolve_cache(args.cache_dir, args.no_cache)


# -- shared argument groups ---------------------------------------------------
#
# One ``add_argument`` call site per shared option string; per-command
# defaults are passed in, and a default of ``None``/``False`` leaves that
# flag off the command.


def _add_cache_flags(parser) -> None:
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="compilation-artifact cache directory "
                             "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the compilation-artifact cache")


def _add_workload_flags(parser, *, packets: int, seed: int | None = None,
                        degrees: str | None = None,
                        apps: str | None = None) -> None:
    """The traffic and the (app x degree) matrix it drives; ``apps`` is
    the help's name for the command's default programs."""
    parser.add_argument("--packets", type=_positive_int, default=packets,
                        help="packets of generated traffic per run "
                             "(default: %(default)s)")
    if seed is not None:
        parser.add_argument("--seed", type=int, default=seed,
                            help="traffic seed (default: %(default)s)")
    if degrees is not None:
        parser.add_argument("--degrees", default=degrees,
                            help="comma-separated pipeline degrees "
                                 "(default: %(default)s)")
    if apps:
        parser.add_argument("--apps", nargs="*",
                            help=f"apps to sweep, comma or space separated "
                                 f"(default: {apps})")


def _add_sweep_flags(parser) -> None:
    """How a command's cells are run (:func:`repro.eval.sweep.run_sweep`)."""
    parser.add_argument("-j", "--jobs", type=_positive_int, default=1,
                        help="fan the cells over N worker processes "
                             "(default: 1; the output is identical at "
                             "any -j level)")


def _add_program_flags(parser, *, degree: int | None = None) -> None:
    """The PPS-C program a command works on and, when the command
    partitions it, the pipeline degree."""
    parser.add_argument("file")
    parser.add_argument("--pps")
    if degree is not None:
        parser.add_argument("-d", "--degree", type=_positive_int,
                            default=degree)


def _add_fault_flags(parser) -> None:
    parser.add_argument("--faults", metavar="PLAN",
                        help="fault-injection plan: a plan name or a "
                             "JSON file.  run and fuzz apply every "
                             "section but workers (drop-light, "
                             "delay-stall, mixed-loss, trap-storm; fuzz "
                             "takes a comma-separated list, default all "
                             "four), serve only workers (worker-kill, "
                             "worker-storm)")


@contextmanager
def _traced(path: str | None):
    """Trace the block to ``path`` when one is given (``--trace``).  The
    file is written when the block returns and when it fails at run time
    (a trap, a deadlock, a serve shard out of restarts: exit 3), so a
    failed run keeps the trace that explains it; a usage, IO or compile
    error, which stops the command before its run, writes none."""
    from repro.obs import tracing

    with tracing(enabled=bool(path)) as tracer:
        ran = True
        try:
            yield tracer
        except (DeadlockError, TrapError, ServeError):
            raise
        except Exception:
            ran = False
            raise
        finally:
            if ran and tracer is not None:
                tracer.write(path)
                print(f"wrote {path}")


def _add_report_flags(parser, *, what: str) -> None:
    parser.add_argument("--profile", action="store_true",
                        help=f"print {what} runtime counters")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a Chrome trace of the run to FILE "
                             "(load in chrome://tracing or Perfetto)")


# -- subcommands ------------------------------------------------------------


def cmd_check(args) -> int:
    module = _load_module(args.file)
    blocks = sum(len(p.blocks) for p in module.ppses.values())
    print(f"{args.file}: OK — {len(module.ppses)} pps, "
          f"{len(module.pipes)} pipes, {len(module.regions)} memories, "
          f"{blocks} basic blocks after inlining")
    return 0


def cmd_ir(args) -> int:
    module = _load_module(args.file)
    if args.pps:
        print(format_function(module.pps(_resolve_pps(module, args.pps))))
    else:
        print(format_module(module))
    return 0


def cmd_pipeline(args) -> int:
    from repro.pipeline.supervisor import supervise_partition

    try:
        knobs = Knobs(costs=cost_table(args.ring), epsilon=args.epsilon,
                      strategy=Strategy(args.strategy))
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    module = _load_module(args.file)
    pps_name = _resolve_pps(module, args.pps)
    outcome = supervise_partition(module, pps_name, args.degree,
                                  knobs=knobs, cache=_open_cache(args))
    result = outcome.result
    print(f"{pps_name}: {result.degree} stages over {args.ring} "
          f"rings (epsilon={args.epsilon}, {args.strategy} transmission)")
    weights = result.stage_weights
    for stage in result.stages:
        layout = (result.layouts[stage.index - 1]
                  if stage.index <= len(result.layouts) else None)
        message = (f"-> {layout.words(result.strategy)} words"
                   if layout else "(last stage)")
        print(f"  stage {stage.index}: weight={weights[stage.index]:5d} "
              f"blocks={len(stage.local_blocks):3d} {message}")
    for diag in result.assignment.diagnostics:
        print(f"  cut {diag.stage}: target={diag.target:.1f} "
              f"got={diag.weight} cost={diag.cut_value} "
              f"balanced={diag.balanced}")
    print(f"  verify: {outcome.verdict.summary()}")
    if args.emit:
        for stage in result.stages:
            print()
            print(format_function(stage.function))
    return EXIT_OK


def cmd_run(args) -> int:
    """``repro run``: sequential baseline, supervised partition,
    pipelined run, equivalence check — under a tracer with ``--trace``."""
    with _traced(args.trace) as tracer:
        return _run(args, tracer)


def _run(args, tracer) -> int:
    module = _load_module(args.file)
    pps_name = _resolve_pps(module, args.pps)
    plan, fresh = _execution_setup(args, module)

    sequential = fresh()
    stats = run_sequential(module.pps(pps_name), sequential,
                           iterations=args.iterations,
                           isolate_traps=args.isolate_traps)
    print(f"sequential: {stats.iterations - 1} iterations, "
          f"{stats.weight} weighted instructions")

    cache = _open_cache(args) if args.degree > 1 else None
    outcome = None
    if args.degree > 1:
        from repro.pipeline.supervisor import supervise_partition

        outcome = supervise_partition(module, pps_name, args.degree,
                                      cache=cache)
        pipelined = fresh()
        run = run_pipeline(outcome.result.stages, pipelined,
                           iterations=args.iterations,
                           isolate_traps=args.isolate_traps)
        longest = max(s.weight for s in run.stats.values())
        if plan is None or plan.semantics_preserving():
            assert_equivalent(observe(sequential), observe(pipelined))
            print(f"pipelined x{args.degree}: longest stage {longest} "
                  f"weighted instructions; observationally equivalent ✔")
        else:
            print(f"pipelined x{args.degree}: longest stage {longest} "
                  f"weighted instructions; equivalence skipped "
                  f"(fault plan is not semantics-preserving)")
        state = pipelined
        run_stats = run.stats
        functions = [stage.function for stage in outcome.result.stages]
    else:
        state = sequential
        run_stats = {pps_name: stats}
        functions = [module.pps(pps_name)]

    for name, pipe in sorted(state.pipes.items()):
        if pipe.queue and ".xfer" not in name:
            print(f"pipe {name}: {list(pipe.queue)}")
    for tag, events in sorted(state.traces.items()):
        print(f"trace[{tag}]: {events}")
    if state.dead_letters:
        print(f"dead letters: {len(state.dead_letters)} quarantined "
              f"iterations")
        for letter in state.dead_letters:
            print(f"  {letter.stage} iter {letter.iteration} "
                  f"block {letter.last_block}: {letter.detail}")
    if args.dead_letters:
        _write_json(args.dead_letters,
                    [letter.as_dict() for letter in state.dead_letters])
        print(f"wrote {args.dead_letters}")
    if args.profile or tracer is not None:
        from repro.obs import emit_counter_events, runtime_report

        report = runtime_report(run_stats, state, functions=functions,
                                cache=cache, partition=outcome)
        if args.profile:
            print(report.render())
        if tracer is not None:
            emit_counter_events(tracer, report)
    return EXIT_OK


def cmd_serve(args) -> int:
    """``repro serve``; ``-o`` is written only when the run produced a
    report, ``--trace`` however the run ended."""
    from repro.obs import emit_counter_events
    from repro.runtime.faults import resolve_plan
    from repro.serve import ServeRuntime

    plan = resolve_plan(args.faults, serve=True) if args.faults else None
    cache = _open_cache(args)
    try:
        runtime = ServeRuntime(args.app, shards=args.shards,
                               degree=args.degree, packets=args.packets,
                               seed=args.seed, batch=args.batch, plan=plan,
                               hang_timeout=args.hang_timeout, cache=cache)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc

    with _traced(args.trace) as tracer:
        report = runtime.run(install_sigterm=True)
        print(report.render())
        if args.profile:
            print(report.runtime_report(cache=cache).render())
        if args.output:
            _write_json(args.output, report.as_dict())
            print(f"wrote {args.output}")
        if tracer is not None:
            emit_counter_events(tracer, report.runtime_report(cache=cache))
    return report.exit_code()


def cmd_explore(args) -> int:
    """``repro explore``: cost-aware design-space exploration."""
    from repro.eval.explore import (
        ExploreError,
        SearchSpace,
        deterministic_report,
        explore,
        render_markdown,
        render_summary,
    )

    apps = _parse_list("--apps", args.apps) if args.apps else FIGURE_APPS
    try:
        space = SearchSpace(
            apps=tuple(apps),
            degrees=tuple(_parse_list("--degrees", args.degrees,
                                      _positive_int)),
            rings=tuple(_parse_list("--rings", args.rings)),
            epsilons=tuple(_parse_list("--epsilons", args.epsilons, float)),
            max_block_instructions=tuple(_parse_list(
                "--max-block-instructions", args.max_block_instructions,
                int)),
            packets=args.packets,
            seed=args.seed,
        ).validate()
    except (ExploreError, ValueError) as exc:
        raise CLIError(str(exc)) from exc

    cache = _open_cache(args)
    report = explore(space, jobs=args.jobs, cache=cache)

    frontier = deterministic_report(report)
    frontier_path = os.path.join(args.out, "frontier.json")
    _write_json(frontier_path, frontier, sort_keys=True)
    with open(os.path.join(args.out, "frontier.md"), "w",
              encoding="utf-8") as handle:
        handle.write(render_markdown(frontier))
        handle.write("\n")
    _write_json(os.path.join(args.out, "timings.json"),
                {"timing": report.get("timing"),
                 "cache": report.get("cache"),
                 "jobs": args.jobs,
                 "cells": space.cell_count()},
                sort_keys=True)

    print(render_summary(report))
    failures = report.get("failures", [])
    for failure in failures:
        print(f"    {failure['task']}: {failure['error']}")
    print(f"wrote {frontier_path}")
    return EXIT_FAILURE if failures else EXIT_OK


def cmd_fuzz(args) -> int:
    from repro.eval.fuzz import PROGEN, run_fuzz, self_test

    if args.self_test:
        outcome = self_test()
        for name, checks in sorted(outcome["caught"].items()):
            print(f"  defect {name}: caught by {', '.join(checks)}")
        if outcome["missed"]:
            print(f"fuzz self-test: MISSED defects: "
                  f"{', '.join(outcome['missed'])}")
            return EXIT_FAILURE
        print("fuzz self-test: every seeded defect caught")
        return EXIT_OK

    degrees = tuple(_parse_list("--degrees", args.degrees, _positive_int))
    apps = _parse_list("--apps", args.apps) if args.apps else []
    bad = [app for app in apps if app not in APPS]
    if bad:
        raise CLIError(f"bad app {', '.join(bad)}: choose from "
                       f"{', '.join(APPS)}")
    plans = args.faults and tuple(_parse_list("--faults", args.faults))
    report = run_fuzz(args.seeds, start_seed=args.start_seed,
                      degrees=degrees, packets=args.packets,
                      programs=tuple(apps) or (PROGEN,), plans=plans,
                      jobs=args.jobs)
    print(report.render())
    if args.out:
        _write_json(os.path.join(args.out, "report.json"), report.as_dict())
        for failure in report.failures:
            stem = os.path.join(
                args.out, f"{failure.program}_seed{failure.seed}_"
                          f"d{failure.degree}_{failure.phase}")
            _write_json(stem + ".json", failure.as_dict())
            if failure.artifact():
                with open(stem + ".ppc", "w", encoding="utf-8") as handle:
                    handle.write(failure.artifact())
        print(f"wrote {args.out}/report.json and "
              f"{len(report.failures)} failing programs")
    return EXIT_OK if report.ok else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Auto-pipelining compiler for packet processing "
                    "applications (PLDI 2005 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="compile and semantic-check")
    p_check.add_argument("file")
    p_check.set_defaults(func=cmd_check)

    p_ir = sub.add_parser("ir", help="dump the lowered, inlined IR")
    _add_program_flags(p_ir)
    p_ir.set_defaults(func=cmd_ir)

    p_pipe = sub.add_parser("pipeline", help="partition a PPS into stages")
    _add_program_flags(p_pipe, degree=2)
    p_pipe.add_argument("--ring", default="nn",
                        choices=cost_table_names(aliases=True))
    p_pipe.add_argument("--epsilon", type=float, default=Knobs.epsilon)
    p_pipe.add_argument("--strategy", default="packed",
                        choices=[s.value for s in Strategy])
    p_pipe.add_argument("--emit", action="store_true",
                        help="print the realized stage IR")
    _add_cache_flags(p_pipe)
    p_pipe.set_defaults(func=cmd_pipeline)

    p_run = sub.add_parser("run", help="execute on the simulator")
    _add_program_flags(p_run, degree=1)
    p_run.add_argument("--iterations", type=_positive_int, default=10)
    p_run.add_argument("--feed", action="append",
                       help="pipe=v1,v2,... (repeatable)")
    _add_fault_flags(p_run)
    p_run.add_argument("--isolate-traps", action="store_true",
                       help="quarantine trapped packets instead of aborting")
    _add_report_flags(p_run, what="per-stage/per-pipe")
    p_run.add_argument("--dead-letters", metavar="FILE",
                       help="write quarantined-packet records as JSON")
    _add_cache_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_serve = sub.add_parser(
        "serve",
        help="fault-tolerant sharded serving (supervised worker pool)")
    p_serve.add_argument("--app", default="ipv4", choices=APPS,
                         help="benchmark app (default: ipv4)")
    p_serve.add_argument("--shards", type=_positive_int, default=4,
                         help="worker processes / flow shards (default: 4)")
    p_serve.add_argument("-d", "--degree", type=_positive_int, default=1,
                         help="pipeline degree inside each worker")
    _add_workload_flags(p_serve, packets=48, seed=7)
    p_serve.add_argument("--batch", type=_positive_int, default=4,
                         help="packets per journaled batch (the commit "
                              "and replay unit)")
    _add_fault_flags(p_serve)
    p_serve.add_argument("--hang-timeout", type=float, default=10.0,
                         help="seconds a live worker may stay silent "
                              "before a hang kill (default: 10)")
    _add_report_flags(p_serve, what="per-shard")
    p_serve.add_argument("-o", "--output", default=None,
                         help="write the serve report as JSON")
    _add_cache_flags(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_explore = sub.add_parser(
        "explore",
        help="cost-aware design-space exploration with a Pareto frontier "
             "(at the defaults, the paper's Figures 19-22)")
    _add_workload_flags(p_explore, packets=60, seed=7,
                        degrees="1,2,3,4,5,6,7,8,9",
                        apps="the figure PPSes")
    p_explore.add_argument("--rings", default=Knobs.costs.name,
                           help="comma-separated cost-table names "
                                "(see repro.machine.costs registry, e.g. "
                                "nn-ring,scratch-ring)")
    p_explore.add_argument("--epsilons", default=f"{Knobs.epsilon:g}",
                           help="comma-separated balance-slack values")
    p_explore.add_argument("--max-block-instructions",
                           default=str(Knobs.max_block_instructions),
                           help="comma-separated block-split thresholds")
    p_explore.add_argument("-o", "--out", default="explore-out",
                           help="output directory: frontier.json (at "
                                "the defaults, the committed "
                                "BENCH_headline.json), frontier.md with "
                                "the by-degree tables, timings.json")
    _add_sweep_flags(p_explore)
    _add_cache_flags(p_explore)
    p_explore.set_defaults(func=cmd_explore)

    p_fuzz = sub.add_parser(
        "fuzz", help="fuzz the partitioner with generated programs")
    p_fuzz.add_argument("--seeds", type=_positive_int, default=50,
                        help="number of generated programs (default: 50)")
    p_fuzz.add_argument("--start-seed", type=int, default=0)
    _add_workload_flags(p_fuzz, packets=24, degrees="2,3,4",
                        apps="generated programs")
    _add_fault_flags(p_fuzz)
    _add_sweep_flags(p_fuzz)
    p_fuzz.add_argument("--self-test", action="store_true",
                        help="seed known partition defects instead; the "
                             "verifier must catch every one")
    p_fuzz.add_argument("--out", metavar="DIR", default=None,
                        help="write report.json, and failing programs "
                             "(shrunk) with their metadata, into DIR")
    p_fuzz.set_defaults(func=cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CLIError, FaultPlanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FrontendError, PipelineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except DeadlockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for name, key in sorted(exc.parked.items()):
            marker = "!" if name in exc.offenders else " "
            print(f"  {marker} {name} parked on {key!r}", file=sys.stderr)
        return EXIT_RUNTIME
    except TrapError as exc:
        print(f"error: trap: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ServeError as exc:
        print(f"error: serve: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
