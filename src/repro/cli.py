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
        --watchdog-quantum 200000 \\
        --isolate-traps                      # chaos-hardened execution
    repro chaos [--app ipv4] [--plans ...]   # chaos differential check
    repro chaos --sweep -j 4                 # parallel multi-app chaos sweep
    repro serve --shards 4 \\
        --faults worker-kill                 # supervised sharded serving
    repro figures [-j N] [-o FILE]           # the paper's Figures 19-22
    repro plan -j 4                          # pre-partition matrix into cache
    repro explore [-o DIR]                   # design-space Pareto frontier
    repro fuzz [--seeds 50] [--out DIR]      # progen fuzz of the partitioner
    repro fuzz -j 4                          # parallel fuzz campaign
    repro fuzz --self-test                   # verifier mutation self-test

PPS-C files conventionally use the ``.ppc`` extension.

``repro pipeline`` / ``repro run`` partition through the supervisor
(:mod:`repro.pipeline.supervisor`): the result is independently verified
(:mod:`repro.pipeline.verify`), and on partitioner faults or verifier
rejection the requested degree degrades down a D → ⌈D/2⌉ → … → 1 ladder
rather than failing outright.  ``--keep-going`` on the sweep
commands (``plan``, ``explore``, ``chaos --sweep``) likewise
trades fail-fast for per-cell failure records; a failed cell reports its
seed and a reproduce one-liner identically at every ``-j``.

Partition results are memoized in a content-addressed artifact cache
(``--cache-dir DIR``, default ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``;
``--no-cache`` opts out) — see ``docs/caching.md``.  ``plan``,
``explore``, ``chaos`` and ``serve`` partition a suite app through one
step (:func:`repro.runspec.app_pipeline`), so at equal packets, seed and
knobs they share its artifacts.

Exit codes (see :mod:`repro.errors`): 0 success, 1 compile/pipeline/IO
failure (including sweep worker crashes), 2 usage error (unknown PPS,
malformed ``--feed`` or fault plan), 3 runtime failure (interpreter
trap, deadlock/livelock, serving pool collapse), 4 degraded success
(the supervisor delivered a verified partition, but at a lower degree
than requested), 5 degraded serving (``repro serve`` delivered every
committed batch, but only by re-sharding a failed worker's flows onto
survivors or by leaving a drained tail undelivered).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro import compile_module
from repro.errors import (
    EXIT_DEGRADED,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    DeadlockError,
    FaultPlanError,
    ReproError,
    TrapError,
)
from repro.eval.sweep import SweepError
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
from repro.runtime.watchdog import DEFAULT_QUANTUM
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


def _parse_list(flag: str, values, convert=str) -> list:
    """The one list-flag parser (``--degrees``, ``--apps``, ``--rings``, …).

    ``values`` is the flag's string, or its ``nargs`` list of strings;
    parts are comma- and/or space-separated and empty parts are ignored.
    A part ``convert`` rejects, or no parts at all, is a usage error.
    """
    if isinstance(values, str):
        values = [values]
    try:
        parts = [convert(part) for entry in values
                 for part in entry.replace(",", " ").split()]
    except ValueError as exc:
        raise CLIError(f"bad {flag} {','.join(values)!r}: {exc}") from exc
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


def _load_fault_plan(spec: str):
    """Resolve ``--faults``: a builtin plan name or a JSON file path."""
    from repro.runtime.faults import FaultPlan, builtin_plans

    plans = builtin_plans()
    if spec in plans:
        return plans[spec]
    return FaultPlan.load(spec)


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

    Returns ``(plan, fresh, watchdog)``: the ``--faults`` plan (or
    ``None``), a factory for a fed — and, under a plan, armed — machine
    state, and a factory for the run's watchdog (``None`` unless a
    quantum or a plan asks for one).
    """
    from repro.runtime.faults import FaultInjector
    from repro.runtime.watchdog import Watchdog

    feeds = _parse_feed(args.feed or [])
    plan = _load_fault_plan(args.faults) if args.faults else None
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

    def watchdog():
        if args.watchdog_quantum is None and plan is None:
            return None
        return Watchdog(args.watchdog_quantum)

    return plan, fresh, watchdog


def _open_cache(args):
    """The ``--cache-dir`` / ``--no-cache`` policy for one subcommand."""
    from repro.cache import resolve_cache

    return resolve_cache(args.cache_dir, args.no_cache)


def _print_failures(failures: list) -> None:
    """A keep-going sweep's failed cells; each error carries the cell's
    seed and reproduce one-liner, exactly as a fail-fast sweep raises it."""
    if failures:
        print(f"  {len(failures)} sweep cells FAILED:")
        for failure in failures:
            print(f"    {failure['task']}: {failure['error']}")


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
                        apps: bool = False) -> None:
    """The generated traffic and the (app x degree) matrix it drives."""
    parser.add_argument("--packets", type=int, default=packets,
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
                            help="apps to sweep, comma or space separated "
                                 "(default: the command's whole suite)")


def _add_sweep_flags(parser, *, keep_going: bool = True) -> None:
    """How a command's cells are run (:func:`repro.eval.sweep.run_sweep`)."""
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        help="fan the cells over N worker processes "
                             "(default: 1; the output is identical at "
                             "any -j level)")
    if keep_going:
        parser.add_argument("--keep-going", action="store_true",
                            help="record failed cells and keep running "
                                 "instead of failing fast")


def _add_program_flags(parser, *, degree: int | None = None) -> None:
    """The PPS-C program a command works on and, when the command
    partitions it, the pipeline degree."""
    parser.add_argument("file")
    parser.add_argument("--pps")
    if degree is not None:
        parser.add_argument("-d", "--degree", type=int, default=degree)


def _add_fault_flags(parser, *, quantum: int | None = None) -> None:
    parser.add_argument("--faults", metavar="PLAN",
                        help="fault-injection plan: a builtin plan name "
                             "(serve: also worker-kill, worker-storm) or "
                             "a JSON file")
    parser.add_argument("--watchdog-quantum", type=int, default=quantum,
                        metavar="N",
                        help="livelock check every N scheduler steps; "
                             "enables the deadlock watchdog "
                             "(default: %(default)s)")


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

    module = _load_module(args.file)
    pps_name = _resolve_pps(module, args.pps)
    outcome = supervise_partition(
        module, pps_name, args.degree,
        knobs=Knobs(costs=cost_table(args.ring), epsilon=args.epsilon,
                    strategy=Strategy(args.strategy)),
        cache=_open_cache(args))
    if outcome.result is None:
        raise PipelineError(outcome.summary())
    result = outcome.result
    print(f"{pps_name}: {outcome.achieved_degree} stages over {args.ring} "
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
    if outcome.verdict is not None:
        print(f"  verify: {outcome.verdict.summary()}")
    if args.emit:
        for stage in result.stages:
            print()
            print(format_function(stage.function))
    if outcome.degraded:
        print(f"warning: {outcome.summary()}", file=sys.stderr)
        return EXIT_DEGRADED
    return EXIT_OK


def cmd_run(args) -> int:
    """``repro run``: sequential baseline, supervised partition,
    pipelined run, equivalence check — under a tracer with ``--trace``."""
    from repro.obs import tracing

    with tracing(enabled=bool(args.trace)) as tracer:
        code = _run(args, tracer)
    if tracer is not None:
        tracer.write(args.trace)
        print(f"wrote {args.trace}")
    return code


def _run(args, tracer) -> int:
    module = _load_module(args.file)
    pps_name = _resolve_pps(module, args.pps)
    plan, fresh, watchdog = _execution_setup(args, module)

    sequential = fresh()
    seq_watchdog = watchdog()
    stats = run_sequential(module.pps(pps_name), sequential,
                           iterations=args.iterations,
                           watchdog=seq_watchdog,
                           isolate_traps=args.isolate_traps)
    print(f"sequential: {stats.iterations - 1} iterations, "
          f"{stats.weight} weighted instructions")

    run_watchdog = seq_watchdog
    cache = _open_cache(args) if args.degree > 1 else None
    outcome = None
    if args.degree > 1:
        from repro.pipeline.supervisor import supervise_partition

        outcome = supervise_partition(module, pps_name, args.degree,
                                      cache=cache)
        if outcome.result is None:
            raise PipelineError(outcome.summary())
        degree = outcome.achieved_degree
        pipelined = fresh()
        run_watchdog = watchdog()
        run = run_pipeline(outcome.result.stages, pipelined,
                           iterations=args.iterations,
                           watchdog=run_watchdog,
                           isolate_traps=args.isolate_traps)
        longest = max(s.weight for s in run.stats.values())
        if plan is None or plan.semantics_preserving():
            assert_equivalent(observe(sequential), observe(pipelined))
            print(f"pipelined x{degree}: longest stage {longest} "
                  f"weighted instructions; observationally equivalent ✔")
        else:
            print(f"pipelined x{degree}: longest stage {longest} "
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
                                watchdog=run_watchdog, cache=cache,
                                partition=outcome)
        if args.profile:
            print(report.render())
        if tracer is not None:
            emit_counter_events(tracer, report)
    if outcome is not None and outcome.degraded:
        print(f"warning: {outcome.summary()}", file=sys.stderr)
        return EXIT_DEGRADED
    return EXIT_OK


#: Apps with a stream/feed split — the ones the chaos sweep can drive.
_CHAOS_SWEEP_APPS = ["ip_v4", "ip_v6", "ipv4", "rx"]


def cmd_chaos(args) -> int:
    # Each mode reads one app flag; the other one must not pass silently.
    if args.sweep and args.app is not None:
        raise CLIError("--sweep takes its apps from --apps, not --app")
    if not args.sweep and args.apps is not None:
        raise CLIError("--apps needs --sweep; one app is --app")
    degrees = tuple(_parse_list("--degrees", args.degrees, int))
    cache = _open_cache(args)
    letters: list = []
    if args.sweep:
        ok, report = _chaos_sweep(args, degrees, cache, letters)
    else:
        from repro.eval.chaos import chaos_differential

        plans = None
        if args.plans:
            plans = {}
            for spec in args.plans:
                plan = _load_fault_plan(spec)
                plans[plan.name or spec] = plan
        outcome = chaos_differential(args.app or "ipv4", plans=plans,
                                     degrees=degrees,
                                     packets=args.packets, seed=args.seed,
                                     collect_letters=letters, cache=cache)
        print(outcome.render())
        ok, report = outcome.ok, outcome.as_dict()
    if args.output:
        _write_json(args.output, report)
        print(f"wrote {args.output}")
    if args.dead_letters:
        _write_json(args.dead_letters, letters)
        print(f"wrote {args.dead_letters}")
    return 0 if ok else 1


def _chaos_sweep(args, degrees: tuple, cache, letters: list):
    """``repro chaos --sweep``: the multi-app differential, ``-j N``.
    Returns ``(ok, merged report)`` and fills ``letters``."""
    from repro.eval.sweep import chaos_tasks, run_sweep
    from repro.runtime.faults import builtin_plans

    apps = (_parse_list("--apps", args.apps) if args.apps
            else _CHAOS_SWEEP_APPS)
    plans = None
    if args.plans:
        available = builtin_plans()
        unknown = [spec for spec in args.plans if spec not in available]
        if unknown:
            raise CLIError(
                f"--sweep accepts builtin plan names only "
                f"(unknown: {', '.join(unknown)}; "
                f"available: {', '.join(sorted(available))})")
        plans = tuple(args.plans)

    tasks = chaos_tasks(apps, degrees, packets=args.packets, seed=args.seed,
                        plans=plans)
    results = run_sweep(tasks, jobs=args.jobs, keep_going=args.keep_going,
                        cache=cache)

    failures = [result for result in results if result.get("failed")]
    ok = not failures
    for result in results:
        if result.get("failed"):
            continue
        print(f"[seed {result['seed']}] {result['rendered']}")
        ok = ok and result["ok"]
        letters.extend({**letter, "app": result["app"]}
                       for letter in result["dead_letters"])
    print(f"sweep: {len(results)} apps x degrees "
          f"{','.join(str(d) for d in degrees)} (-j {args.jobs}): "
          f"{'ok' if ok else 'FAIL'}")
    _print_failures(failures)

    merged = {
        "sweep": True,
        "seed": args.seed,
        "jobs": args.jobs,
        "ok": ok,
        "apps": {result["app"]: result.get("report") for result in results},
    }
    if failures:
        merged["failures"] = failures
    return ok, merged


def _load_serve_plan(spec: str):
    """Resolve ``serve --faults``: a serve plan name, a builtin chaos
    plan name, or a JSON file path."""
    from repro.runtime.faults import serve_plans

    plans = serve_plans()
    if spec in plans:
        return plans[spec]
    return _load_fault_plan(spec)


def cmd_serve(args) -> int:
    from repro.obs import emit_counter_events, tracing
    from repro.serve import ServePolicy, ServeRuntime

    plan = _load_serve_plan(args.faults) if args.faults else None
    policy = ServePolicy(max_restarts=args.max_restarts,
                         backoff_base=args.backoff,
                         hang_timeout=args.hang_timeout,
                         drain_grace=args.drain_grace)
    cache = _open_cache(args)
    runtime = ServeRuntime(args.app, shards=args.shards,
                           degree=args.degree, packets=args.packets,
                           seed=args.seed, batch=args.batch, plan=plan,
                           policy=policy, cache=cache,
                           journal_dir=args.journal_dir,
                           watchdog_quantum=args.watchdog_quantum)

    with tracing(enabled=bool(args.trace)) as tracer:
        report = runtime.run(install_sigterm=True)

    print(report.render())
    if args.profile:
        print(report.runtime_report(cache=cache).render())
    if args.output:
        _write_json(args.output, report.as_dict())
        print(f"wrote {args.output}")
    if tracer is not None:
        emit_counter_events(tracer, report.runtime_report(cache=cache))
        tracer.write(args.trace)
        print(f"wrote {args.trace}")
    return report.exit_code()


def cmd_figures(args) -> int:
    """``repro figures``: print Figures 19–22 and the headline from one
    :func:`~repro.eval.experiments.figures_record`; ``-o`` writes it."""
    from repro.eval.experiments import figures_record
    from repro.eval.report import render_figure

    record = figures_record(
        packets=args.packets, jobs=args.jobs,
        degrees=_parse_list("--degrees", args.degrees, int))
    # Figures 21/22 plot the overhead of Figure 19/20's applications.
    for application, metric, title, value_format in (
            ("figure19", "speedup_by_degree",
             "Figure 19: speedup, IPv4 forwarding PPSes", "{:6.2f}"),
            ("figure20", "speedup_by_degree",
             "Figure 20: speedup, IP forwarding PPSes", "{:6.2f}"),
            ("figure19", "overhead_by_degree",
             "Figure 21: live-set overhead, IPv4 forwarding", "{:6.3f}"),
            ("figure20", "overhead_by_degree",
             "Figure 22: live-set overhead, IP forwarding", "{:6.3f}")):
        print(render_figure(title, record["figures"][application][metric],
                            value_format=value_format))
        print()
    top = record["config"]["degrees"][-1]
    print(f"Headline ({top}-stage pipeline):")
    for name in ("ipv4", "ip_v4", "ip_v6"):
        print(f"  {name:8s} "
              f"{record[f'headline_speedup_degree{top}'][name]:5.2f}x")
    if args.output:
        _write_json(args.output, record)
        print(f"wrote {args.output}")
    return EXIT_OK


def _partition_profile_table(breakdown: dict) -> str:
    """The ``repro plan`` partition-phase table.

    One row per (app, degree): wall seconds, balanced-cut collapse
    iterations and push-relabel discharges — enough to localize a
    partitioner regression without loading a Chrome trace.
    """
    lines = ["  partition phases (per app x degree):",
             "    app        D   seconds   cut_iters    pr_work"]
    for app in sorted(breakdown):
        for degree in sorted(breakdown[app], key=int):
            cell = breakdown[app][degree]
            lines.append(
                f"    {app:10s} {int(degree):d} {cell['seconds']:9.4f} "
                f"{cell['cut_iterations']:11d} {cell['pr_work']:10d}")
    return "\n".join(lines)


def cmd_plan(args) -> int:
    """``repro plan``: pre-partition the (app x degree) matrix in parallel."""
    from repro.eval.experiments import FIGURE19_APPS, FIGURE20_APPS
    from repro.eval.sweep import plan_partitions

    degrees = _parse_list("--degrees", args.degrees, int)
    apps = (_parse_list("--apps", args.apps) if args.apps
            else sorted(set(FIGURE19_APPS) | set(FIGURE20_APPS)))
    cache = _open_cache(args)
    if cache is None and args.jobs > 1:
        print("warning: --no-cache with -j > 1 plans in parallel but "
              "persists nothing", file=sys.stderr)
    results = plan_partitions(apps, degrees, packets=args.packets,
                              seed=args.seed, jobs=args.jobs, cache=cache,
                              keep_going=args.keep_going)
    failures = [entry for entry in results if entry.get("failed")]
    breakdown = {entry["app"]: entry["partition_breakdown"]
                 for entry in results if not entry.get("failed")}
    total = sum(cell["seconds"] for per_app in breakdown.values()
                for cell in per_app.values())
    print(f"plan: {len(breakdown)}/{len(results)} apps x degrees "
          f"{args.degrees} (-j {args.jobs}): "
          f"{total:.3f}s partition work"
          + ("" if cache is None else f", cached under {cache.root}"))
    print(_partition_profile_table(breakdown))
    _print_failures(failures)
    return EXIT_FAILURE if failures else EXIT_OK


def cmd_explore(args) -> int:
    """``repro explore``: cost-aware design-space exploration."""
    from repro.eval.experiments import FIGURE19_APPS
    from repro.eval.explore import (
        ExploreError,
        SearchSpace,
        Weights,
        deterministic_report,
        explore,
        render_markdown,
        render_summary,
    )

    apps = (_parse_list("--apps", args.apps) if args.apps
            else FIGURE19_APPS)
    try:
        space = SearchSpace(
            apps=tuple(apps),
            degrees=tuple(_parse_list("--degrees", args.degrees, int)),
            rings=tuple(_parse_list("--rings", args.rings)),
            epsilons=tuple(_parse_list("--epsilons", args.epsilons, float)),
            max_block_instructions=tuple(_parse_list(
                "--max-block-instructions", args.max_block_instructions,
                int)),
            packets=args.packets,
            seed=args.seed,
        ).validate()
        weights = (Weights.parse(args.weights) if args.weights
                   else Weights())
    except (ExploreError, ValueError) as exc:
        raise CLIError(str(exc)) from exc

    cache = _open_cache(args)
    report = explore(space, weights=weights, rule=args.pick_rule,
                     min_gain=args.min_gain, jobs=args.jobs, cache=cache,
                     keep_going=args.keep_going)

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
    _print_failures(report.get("failures", []))
    print(f"wrote {frontier_path}")
    return EXIT_FAILURE if report.get("failures") else EXIT_OK


def cmd_fuzz(args) -> int:
    from repro.eval.fuzz import run_fuzz, self_test

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

    report = run_fuzz(args.seeds, start_seed=args.start_seed,
                      degrees=tuple(_parse_list("--degrees", args.degrees,
                                                int)),
                      packets=args.packets, jobs=args.jobs)
    print(report.render())
    if args.out and report.failures:
        for failure in report.failures:
            stem = os.path.join(
                args.out,
                f"seed{failure.seed}_d{failure.degree}_{failure.phase}")
            _write_json(stem + ".json", failure.as_dict())
            with open(stem + ".ppc", "w", encoding="utf-8") as handle:
                handle.write(failure.artifact())
        print(f"wrote {len(report.failures)} failing programs to "
              f"{args.out}")
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
    p_run.add_argument("--iterations", type=int, default=10)
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

    p_chaos = sub.add_parser(
        "chaos", help="run the chaos differential (faults + pipelining)")
    p_chaos.add_argument("--app", default=None,
                         help="benchmark app, without --sweep "
                              "(default: ipv4)")
    _add_workload_flags(p_chaos, packets=40, seed=7, degrees="1,2,4",
                        apps=True)
    p_chaos.add_argument("--plans", nargs="*",
                         help="builtin plan names or JSON files "
                              "(default: all builtin plans)")
    p_chaos.add_argument("-o", "--output", default=None,
                         help="write the chaos report as JSON")
    p_chaos.add_argument("--dead-letters", metavar="FILE",
                         help="write all dead-letter records as JSON")
    p_chaos.add_argument("--sweep", action="store_true",
                         help="run the differential for several apps "
                              "(see --apps; default: every stream-driven "
                              "app) instead of one")
    _add_sweep_flags(p_chaos)
    _add_cache_flags(p_chaos)
    p_chaos.set_defaults(func=cmd_chaos)

    p_serve = sub.add_parser(
        "serve",
        help="fault-tolerant sharded serving (supervised worker pool)")
    p_serve.add_argument("--app", default="ipv4",
                         help="benchmark app (default: ipv4)")
    p_serve.add_argument("--shards", type=int, default=4,
                         help="worker processes / flow shards (default: 4)")
    p_serve.add_argument("-d", "--degree", type=int, default=1,
                         help="pipeline degree inside each worker")
    _add_workload_flags(p_serve, packets=48, seed=7)
    p_serve.add_argument("--batch", type=int, default=4,
                         help="packets per journaled batch (the commit "
                              "and replay unit)")
    _add_fault_flags(p_serve, quantum=DEFAULT_QUANTUM)
    p_serve.add_argument("--max-restarts", type=int, default=3,
                         help="per-shard restart budget before the "
                              "circuit breaker re-shards (default: 3)")
    p_serve.add_argument("--backoff", type=float, default=0.05,
                         help="first restart delay, seconds; doubles per "
                              "restart (default: 0.05)")
    p_serve.add_argument("--hang-timeout", type=float, default=10.0,
                         help="seconds a live worker may stay silent "
                              "before a hang kill (default: 10)")
    p_serve.add_argument("--drain-grace", type=float, default=2.0,
                         help="seconds a SIGTERM drain waits before "
                              "killing stragglers (default: 2)")
    p_serve.add_argument("--journal-dir", metavar="DIR", default=None,
                         help="persist per-shard journals as JSONL "
                              "under DIR")
    _add_report_flags(p_serve, what="per-shard")
    p_serve.add_argument("-o", "--output", default=None,
                         help="write the serve report as JSON")
    _add_cache_flags(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_fig = sub.add_parser("figures", help="regenerate the paper's figures")
    _add_workload_flags(p_fig, packets=60, degrees="1,2,3,4,5,6,7,8,9")
    _add_sweep_flags(p_fig, keep_going=False)
    p_fig.add_argument("-o", "--output", default=None,
                       help="write the record as JSON (the committed "
                            "BENCH_headline.json is this file at the "
                            "default packets and degrees)")
    p_fig.set_defaults(func=cmd_figures)

    p_plan = sub.add_parser(
        "plan", help="pre-partition the benchmark matrix into the cache")
    _add_workload_flags(p_plan, packets=60, seed=7,
                        degrees="1,2,3,4,5,6,7,8,9", apps=True)
    _add_sweep_flags(p_plan)
    _add_cache_flags(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    p_explore = sub.add_parser(
        "explore",
        help="cost-aware design-space exploration with a Pareto frontier")
    _add_workload_flags(p_explore, packets=60, seed=7,
                        degrees="1,2,3,4,5,6,7,8,9", apps=True)
    p_explore.add_argument("--rings", default=Knobs.costs.name,
                           help="comma-separated cost-table names "
                                "(see repro.machine.costs registry, e.g. "
                                "nn-ring,scratch-ring)")
    p_explore.add_argument("--epsilons", default=f"{Knobs.epsilon:g}",
                           help="comma-separated balance-slack values")
    p_explore.add_argument("--max-block-instructions",
                           default=str(Knobs.max_block_instructions),
                           help="comma-separated block-split thresholds")
    p_explore.add_argument("--weights", default=None,
                           help="objective weights, e.g. "
                                "speedup=1,words=0.005,stages=0.01")
    p_explore.add_argument("--pick-rule", default="marginal",
                           choices=["marginal", "score"],
                           help="marginal: climb the degree ladder until "
                                "the weighted score plateaus (the paper's "
                                "'levels off' knee); score: plain argmax")
    p_explore.add_argument("--min-gain", type=float, default=0.0,
                           help="marginal rule: minimum score gain to "
                                "keep climbing (default: 0)")
    p_explore.add_argument("-o", "--out", default="explore-out",
                           help="output directory (frontier.json, "
                                "frontier.md, timings.json)")
    _add_sweep_flags(p_explore)
    _add_cache_flags(p_explore)
    p_explore.set_defaults(func=cmd_explore)

    p_fuzz = sub.add_parser(
        "fuzz", help="fuzz the partitioner with generated programs")
    p_fuzz.add_argument("--seeds", type=int, default=50,
                        help="number of generated programs (default: 50)")
    p_fuzz.add_argument("--start-seed", type=int, default=0)
    _add_workload_flags(p_fuzz, packets=24, degrees="2,3,4")
    _add_sweep_flags(p_fuzz, keep_going=False)
    p_fuzz.add_argument("--self-test", action="store_true",
                        help="seed known partition defects instead; the "
                             "verifier must catch every one")
    p_fuzz.add_argument("--out", metavar="DIR", default=None,
                        help="write failing programs (shrunk) and their "
                             "metadata into DIR")
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
    except (FrontendError, PipelineError, SweepError) as exc:
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
