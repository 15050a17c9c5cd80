"""The check harness: one table of check families over every fuzz case.

The paper's transformation is correct only if the pipelined PPS observes
what the sequential PPS observes.  ``run_fuzz`` asks that of every
*case*, a (program, seed, degree) triple.  A program is a generated
PPS-C program (:mod:`repro.testing.progen`; the seed draws it and its
input) or a stream app of the suite (``repro fuzz --apps``; the seed
draws its traffic), both an :class:`~repro.apps.suite.AppInstance` with
a ``stream`` / ``feed`` pair.  A case builds its program (``frontend``,
then ``partition``) and runs the rows of :data:`FAMILIES` in order; a
failure names that step or family (its ``phase``), and a case that
raised outside every check, or whose worker process died, fails in
phase ``worker``.  Cases are :class:`FuzzCase` tasks of the sweep
runner, and every failure is a record: the campaign always runs to the
end.  A failing generated program is *shrunk*: a brace-aware
delta-debugging pass removes statements and whole nested regions while
the failure signature (phase + exception type) reproduces, so the
artifact a CI failure uploads is close to minimal.

``self_test`` closes the loop on the verifier itself: it corrupts a
known-good partition five ways — drop a transmitted live variable, flip
a cut edge backwards, unbalance a stage, break the control-object
dispatch, split an array's accesses across stages — and checks the
verifier rejects every seeded defect.  A verifier that silently passes
a corrupted partition is worse than none.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro import compile_module
from repro.analysis.context import AnalysisContext
from repro.analysis.dependence_graph import DepKind
from repro.apps.suite import STREAM_APPS, AppInstance, build_app
from repro.errors import ReproError
from repro.eval.sweep import SweepError, run_sweep
from repro.ir.function import Module
from repro.pipeline.liveset import compute_cut_layouts
from repro.pipeline.realize import realize_stages
from repro.pipeline.transform import PipelineResult, pipeline_pps
from repro.pipeline.verify import verify_partition
from repro.runspec import RunSpec, app_pipeline
from repro.runtime.equivalence import assert_equivalent, compare, observe
from repro.runtime.faults import FaultInjector, builtin_plans, resolve_plan
from repro.runtime.scheduler import (
    pipeline_interpreters,
    run_group,
    sequential_interpreter,
)
from repro.runtime.state import MachineState
from repro.testing.progen import random_pps_source

#: The program name of a generated case (an app case is named by its app).
PROGEN = "progen"


class CheckFailure(ReproError):
    """One fuzz case failed in ``phase``: a build step or a check family."""

    def __init__(self, phase: str, cause: BaseException):
        super().__init__(f"{phase}: {type(cause).__name__}: {cause}")
        self.phase = phase
        self.cause = cause

    def __reduce__(self):
        return type(self), (self.phase, self.cause)

    @property
    def signature(self) -> tuple[str, str]:
        """What shrinking must preserve: the phase and exception type."""
        return (self.phase, type(self.cause).__name__)


def generated_app(source: str, seed: int, packets: int) -> AppInstance:
    """A generated program as a stream app: ``seed`` fills its ``tab*``
    tables and draws the ``packets`` words of its ``in_q`` stream."""
    module = compile_module(source, "<fuzz>")

    def stream() -> list:
        return [(i * 31 + seed) % 251 for i in range(packets)]

    def feed(state: MachineState, stream: list) -> int:
        for name, words in state.regions.items():
            if name.startswith("tab"):
                state.load_region(name, [(i * 13 + seed) % 97
                                         for i in range(len(words))])
        state.feed_pipe("in_q", stream)
        return len(stream)

    return AppInstance(PROGEN, next(iter(module.ppses)), source, module,
                       stream=stream, feed=feed)


@dataclass
class Case:
    """A built program at one degree: what every check family takes."""

    app: AppInstance
    seed: int
    result: PipelineResult          # the partition at the case's degree
    plans: dict                     # the faults family's plans, by name


def _run(app: AppInstance, stages, stream: list, plan=None):
    """Run ``app`` on ``stream`` as ``stages`` (sequentially when None),
    with ``plan``'s runtime faults armed and traps quarantined if a plan
    is given: the final state (its ``faults`` counts what fired)."""
    state = MachineState(app.module)
    if plan is not None:
        FaultInjector(plan).arm(state)
    iterations = app.feed(state, stream)
    if stages is None:
        function = app.module.pps(app.pps_name)
        interpreters = {function.name: sequential_interpreter(
            function, state, iterations)}
    else:
        interpreters = pipeline_interpreters(stages, state, iterations)
    run_group(interpreters, isolate_traps=plan is not None)
    return state


def _verify(case: Case) -> list:
    """The independent post-partition verifier passes."""
    verify_partition(case.result).raise_if_rejected()
    return []


def _differential(case: Case) -> list:
    """The pipelined run observes what the sequential run observes."""
    stream = case.app.stream()
    oracle = _run(case.app, None, stream)
    pipelined = _run(case.app, case.result.stages, stream)
    assert_equivalent(observe(oracle), observe(pipelined))
    return []


def _faults(case: Case) -> list[dict]:
    """The same under each fault plan, a record per plan.  The plan
    perturbs the stream once, and the sequential oracle and the pipeline
    share it; its stalls and slowdowns only reorder the interleaving, so
    the observables must still be equal.  A plan that injects traps voids
    equality, and both runs must instead drain with one dead letter per
    injected trap that fired, as the plan's injector counted it."""
    app, degree = case.app, case.result.degree
    records = []
    for name, plan in case.plans.items():
        stream_injector = FaultInjector(plan)
        stream = stream_injector.perturb(app.pps_name, app.stream())
        oracle = _run(app, None, stream, plan)
        oracle.faults.absorb_stream(stream_injector)
        state = _run(app, case.result.stages, stream, plan)
        problems = [f"{run} fired {fired} traps but left {len(letters)} "
                    f"dead letters" for run, letters, fired in (
                        ("oracle", oracle.dead_letters,
                         oracle.faults.traps_fired),
                        (f"D={degree}", state.dead_letters,
                         state.faults.traps_fired))
                    if len(letters) != fired]
        if plan.semantics_preserving():
            problems += map(str, compare(observe(oracle), observe(state)))
        if problems:
            raise AssertionError(f"plan {name}: {len(problems)} problems, "
                                 f"first {problems[0]}")
        records.append({
            "program": app.name, "seed": case.seed, "degree": degree,
            "plan": name,
            "semantics_preserving": plan.semantics_preserving(),
            "fed": len(stream),
            "faults": oracle.faults.counters(),
            "oracle_dead_letters": len(oracle.dead_letters),
            "traps": state.faults.traps_fired,
            "dead_letters": len(state.dead_letters),
            "letters": [{**letter.as_dict(), "program": app.name,
                         "seed": case.seed, "plan": name,
                         "pipeline_degree": degree}
                        for letter in state.dead_letters],
        })
    return records


#: The check families, in the order a case runs them.  Each takes the
#: :class:`Case`, raises on a finding and returns its report records.
FAMILIES = {
    "verify": _verify,
    "differential": _differential,
    "faults": _faults,
}

#: What a case can fail in, in order: its worker (the case raised outside
#: every check, or its process died), its build steps, then the families.
PHASES = ("worker", "frontend", "partition", *FAMILIES)


def check_program(program: str, degree: int, *, packets: int = 24,
                  seed: int = 0, plans: dict | None = None) -> list[dict]:
    """Build ``program`` — the PPS-C source of a generated program, or the
    name of a stream app — at ``degree`` and run every check family on
    it, the ``faults`` family under ``plans`` (resolved plans by name;
    default every builtin plan).  Returns the ``faults`` family's
    records; a failure raises :class:`CheckFailure` naming its step or
    family."""
    plans = plans or builtin_plans()
    phase = "frontend"
    try:
        app = (build_app(program, packets=packets, seed=seed)
               if program in STREAM_APPS
               else generated_app(program, seed, packets))
        phase = "partition"
        case = Case(app, seed, app_pipeline(app, degree), plans)
        records = []
        for phase, family in FAMILIES.items():
            records += family(case)
        return records
    except Exception as exc:
        raise CheckFailure(phase, exc) from exc


# -- shrinking ---------------------------------------------------------------

#: Lines the shrinker must never remove: the program scaffold.
_SCAFFOLD_MARKERS = ("pps ", "for (;;)", "pipe_recv(in_q)", "pipe_send(out_q",
                     "pipe in_q", "pipe out_q")


def _removable_regions(lines: list[str]) -> list[tuple[int, int]]:
    """Brace-balanced candidate regions, largest first.

    A line that net-opens braces owns the region down to its matching
    close (removing the whole region keeps the program balanced); a
    brace-neutral line is its own region.  Scaffold lines and bare
    closers are never candidates.
    """
    regions: list[tuple[int, int]] = []
    for index, line in enumerate(lines):
        text = line.strip()
        if not text or any(marker in text for marker in _SCAFFOLD_MARKERS):
            continue
        net = line.count("{") - line.count("}")
        if net < 0:
            continue  # a bare closer belongs to some opener's region
        if net == 0:
            regions.append((index, index))
            continue
        depth = net
        end = None
        for j in range(index + 1, len(lines)):
            depth += lines[j].count("{") - lines[j].count("}")
            if depth <= 0:
                end = j
                break
        if end is not None and not any(
                marker in lines[j]
                for j in range(index, end + 1)
                for marker in _SCAFFOLD_MARKERS):
            regions.append((index, end))
    return sorted(regions, key=lambda span: span[0] - span[1])


def shrink_source(source: str, still_fails, *,
                  max_tests: int = 200) -> tuple[str, int]:
    """Greedy delta-debugging over brace-balanced line regions.

    ``still_fails(text)`` must return True when ``text`` reproduces the
    original failure.  Returns the shrunk source and how many candidate
    programs were tested (bounded by ``max_tests``).
    """
    lines = source.splitlines()
    tests = 0
    progress = True
    while progress and tests < max_tests:
        progress = False
        for start, end in _removable_regions(lines):
            if tests >= max_tests:
                break
            candidate = lines[:start] + lines[end + 1:]
            tests += 1
            if still_fails("\n".join(candidate)):
                lines = candidate
                progress = True
                break  # regions shifted: recompute
    return "\n".join(lines), tests


# -- the fuzz loop -----------------------------------------------------------


@dataclass
class FuzzFailure:
    """One fuzz case that broke the contract."""

    program: str
    seed: int
    degree: int
    phase: str
    error: str
    source: str | None              # a generated program's source
    shrunk_source: str | None = None
    shrink_tests: int = 0

    def artifact(self) -> str | None:
        """The program to ship (shrunk when shrinking succeeded)."""
        return self.shrunk_source or self.source

    def as_dict(self) -> dict:
        return {
            "program": self.program,
            "seed": self.seed,
            "degree": self.degree,
            "phase": self.phase,
            "error": self.error,
            "source_lines": (len(self.source.splitlines())
                             if self.source else None),
            "shrunk_lines": (len(self.shrunk_source.splitlines())
                             if self.shrunk_source else None),
            "shrink_tests": self.shrink_tests,
        }


@dataclass
class FuzzReport:
    """One ``run_fuzz`` campaign: its failures and ``faults`` records."""

    seeds: int
    start_seed: int
    degrees: tuple
    packets: int
    programs: tuple = (PROGEN,)
    plans: tuple | None = None      # fault plan names or files (None: all)
    cases: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    runs: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def dead_letters(self) -> list[dict]:
        """Every pipelined run's dead letters, each tagged with its
        program, seed, plan and degree."""
        return [letter for run in self.runs for letter in run["letters"]]

    def render(self) -> str:
        lines = [f"fuzz: {len(self.programs) * self.seeds} programs, "
                 f"{self.cases} cases ({', '.join(self.programs)}; seeds "
                 f"{self.start_seed}..{self.start_seed + self.seeds - 1}, "
                 f"degrees {','.join(map(str, self.degrees))}, "
                 f"{self.packets} packets): "
                 f"{'ok' if self.ok else 'FAIL'}",
                 f"  {'family':<13} {'cases':>6} {'failed':>7}"]
        phases = [failure.phase for failure in self.failures]
        for family in FAMILIES:
            reached = self.cases - sum(
                PHASES.index(phase) < PHASES.index(family)
                for phase in phases)
            lines.append(f"  {family:<13} {reached:>6} "
                         f"{phases.count(family):>7}")
        lines[-1] += (f"   {len(self.runs)} plan runs, "
                      f"{sum(run['traps'] for run in self.runs)} traps "
                      f"fired, {len(self.dead_letters)} dead letters")
        for failure in self.failures:
            shrunk = (f", shrunk {len(failure.source.splitlines())} -> "
                      f"{len(failure.shrunk_source.splitlines())} lines "
                      f"in {failure.shrink_tests} tests"
                      if failure.shrunk_source else "")
            lines.append(f"  {failure.program} seed {failure.seed} "
                         f"D={failure.degree} [{failure.phase}] "
                         f"{failure.error}{shrunk}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """What ``repro fuzz --out`` writes: the campaign, its failures,
        the ``faults`` family's totals per plan and every dead letter,
        tagged; the per-run records stay in :attr:`runs`."""
        totals: dict[str, dict] = {}
        for run in self.runs:
            plan = totals.setdefault(run["plan"], {
                "runs": 0, "traps_fired": 0, "dead_letters": 0})
            plan["runs"] += 1
            plan["traps_fired"] += run["traps"]
            plan["dead_letters"] += run["dead_letters"]
        return {**{key: value for key, value in vars(self).items()
                   if key not in ("failures", "runs")},
                "ok": self.ok,
                "failures": [failure.as_dict() for failure in self.failures],
                "plan_totals": totals,
                "dead_letters": self.dead_letters}


def fuzz_case(seed: int, degree: int, packets: int, shrink_tests: int, *,
              program: str = PROGEN, plans: dict | None = None) -> dict:
    """Run one case; a failing generated program is shrunk within
    ``shrink_tests`` candidate programs (0 leaves it unshrunk).

    ``plans`` holds the ``faults`` family's resolved plans by name (None:
    every builtin plan).  Returns ``{"failure":
    FuzzFailure | None, "runs": the faults family's records}``.  Fully
    determined by its arguments, so any sweep worker produces the same
    answer for the same case.
    """
    source = random_pps_source(seed) if program == PROGEN else None

    def check(text: str) -> list[dict]:
        return check_program(text, degree, packets=packets, seed=seed,
                             plans=plans)

    try:
        return {"failure": None, "runs": check(source or program)}
    except CheckFailure as exc:
        failure = FuzzFailure(program=program, seed=seed, degree=degree,
                              phase=exc.phase, error=str(exc.cause),
                              source=source)
        if shrink_tests and source is not None:
            signature = exc.signature

            def still_fails(text: str) -> bool:
                try:
                    check(text)
                except CheckFailure as candidate:
                    return candidate.signature == signature
                except Exception:
                    return False
                return False

            shrunk, tests = shrink_source(source, still_fails,
                                          max_tests=shrink_tests)
            failure.shrink_tests = tests
            if shrunk != source:
                failure.shrunk_source = shrunk
        return {"failure": failure, "runs": []}


@dataclass(frozen=True)
class FuzzCase:
    """One fuzz case as a sweep task: the program ``spec.app`` at its one
    degree ``spec.degrees``, picklable for worker dispatch.  ``plans``
    holds the ``faults`` family's resolved plans by name; the one-liner
    names them, so the repr, which failure messages carry, leaves them
    out."""

    spec: RunSpec
    plans: dict = field(repr=False)
    shrink_tests: int = 0           # shrink budget (0 = unshrunk)

    def run(self) -> dict:
        spec = self.spec
        [degree] = spec.degrees
        return fuzz_case(spec.seed, degree, spec.packets, self.shrink_tests,
                         program=spec.app, plans=self.plans)

    def describe(self) -> str:
        return f"fuzz {self.spec.app} D={self.spec.degrees[0]}"

    def repro_command(self) -> str:
        """A copy-paste one-liner that re-runs this exact case inline."""
        spec = self.spec
        apps = "" if spec.app == PROGEN else f" --apps {spec.app}"
        faults = ("" if list(self.plans) == list(builtin_plans())
                  else " --faults " + ",".join(self.plans))
        return (f"repro fuzz{apps} --seeds 1 --start-seed {spec.seed} "
                f"--degrees {spec.degrees[0]} --packets {spec.packets}"
                f"{faults}")

    def crashed(self, error: SweepError) -> FuzzFailure:
        """The failure of a case that raised outside every check, or
        whose worker died: phase ``worker``, reported like any other."""
        return FuzzFailure(program=self.spec.app, seed=self.spec.seed,
                           degree=self.spec.degrees[0], phase="worker",
                           error=str(error), source=None)


def run_fuzz(seeds: int = 50, *, start_seed: int = 0,
             degrees: tuple = (2, 3, 4), packets: int = 24,
             programs: tuple = (PROGEN,), plans: tuple | None = None,
             shrink: bool = True, max_shrink_tests: int = 200,
             jobs: int = 1) -> FuzzReport:
    """Run every case of ``programs`` x ``seeds`` from ``start_seed`` x
    ``degrees`` through the check families.

    ``programs`` holds :data:`PROGEN` (generated programs) and/or stream
    app names, ``plans`` the ``faults`` family's plan names or JSON
    files (None: every builtin plan), resolved once here: an unknown or
    malformed plan is a :class:`~repro.errors.FaultPlanError` before any
    case runs.  The cases are :class:`FuzzCase` tasks of the sweep runner
    (:func:`repro.eval.sweep.run_sweep`; ``jobs`` is ``repro fuzz -j``),
    one per (program, seed, degree) in that order, the programs sorted.
    Each case is a pure function of its program, seed and degree, and
    results are merged in that order, so the report is identical at any
    parallelism level.  A case that crashed or whose worker died is a
    ``worker`` failure, and the campaign still runs every other case.
    """
    report = FuzzReport(seeds=seeds, start_seed=start_seed,
                        degrees=tuple(degrees), packets=packets,
                        programs=tuple(sorted(set(programs))), plans=plans)
    resolved = ({spec: resolve_plan(spec) for spec in plans} if plans
                else builtin_plans())
    cases = [FuzzCase(RunSpec(program, packets, seed, (degree,)), resolved,
                      max_shrink_tests if shrink else 0)
             for program in report.programs
             for seed in range(start_seed, start_seed + seeds)
             for degree in report.degrees]
    for case, result in zip(cases, run_sweep(cases, jobs=jobs)):
        report.cases += 1
        if isinstance(result, SweepError):
            result = {"failure": case.crashed(result), "runs": []}
        if result["failure"] is not None:
            report.failures.append(result["failure"])
        report.runs += result["runs"]
    return report


# -- verifier self-test: seeded defects --------------------------------------

#: A fixed, hand-written PPS with branches, table state, an array that
#: one branch arm writes and a later iteration reads, and live values
#: crossing every cut — the substrate the mutation self-tests corrupt.
SELF_TEST_PPS = """
pipe in_q;
pipe out_q;
readonly memory tbl[16];

pps selfcheck {
    for (;;) {
        int x = pipe_recv(in_q);
        int seen[4];
        int a = (x * 7) & 255;
        int b = mem_read(tbl, x & 15);
        int c = 0;
        if (a > b) {
            c = (a - b) & 255;
            seen[x & 3] = c;
            trace(1, c);
        }
        else {
            c = (a + b) & 255;
            trace(2, c);
        }
        int d = ((c ^ b) + a + seen[a & 3]) & 1023;
        trace(3, d & 7);
        pipe_send(out_q, d);
    }
}
"""


def _mutate_drop_live_var(result):
    """Omit one transmitted variable from a cut's live set."""
    mutated = copy.deepcopy(result)
    for layout in mutated.layouts:
        if not layout.variables:
            continue
        victim = layout.variables[0]
        layout.variables = [reg for reg in layout.variables
                            if reg is not victim]
        layout.live_sets = {target: [reg for reg in regs
                                     if reg is not victim]
                            for target, regs in layout.live_sets.items()}
        layout.slot_of = {reg: slot for reg, slot in layout.slot_of.items()
                          if reg is not victim}
        return mutated
    return None


def _mutate_flip_cut_edge(result):
    """Swap stages 1 and 2 so cut-1 dependences flow backwards."""
    if result.degree < 2:
        return None
    mutated = copy.deepcopy(result)
    flip = {1: 2, 2: 1}
    assignment = mutated.assignment
    assignment.block_stage = {name: flip.get(stage, stage)
                              for name, stage in
                              assignment.block_stage.items()}
    assignment.unit_stage = {unit: flip.get(stage, stage)
                             for unit, stage in
                             assignment.unit_stage.items()}
    return mutated


def _model_of(result):
    """The dependence model rebuilt from the normalized function, as the
    verifier rebuilds its own: node and unit numbering are a function of
    the program alone."""
    return AnalysisContext(
        Module(ppses={result.pps_name: result.normalized}),
        result.pps_name, max_block_instructions=0).model


def _mutate_unbalance_stage(result):
    """Move the heaviest movable unit one stage later and claim every
    cut balanced — a >ε imbalance hiding behind a clean diagnostic."""
    mutated = copy.deepcopy(result)
    model = _model_of(mutated)
    assignment = mutated.assignment
    # Unit successors under both dependence and CFG constraints.
    succs: dict[int, set[int]] = {unit: set()
                                  for unit in assignment.unit_stage}
    for edge in model.unit_edges():
        succs[edge.src].add(edge.dst)
    for src_node, dst_node in model.sgraph.edges():
        src_unit = model.unit_of_node(src_node)
        dst_unit = model.unit_of_node(dst_node)
        if src_unit != dst_unit:
            succs[src_unit].add(dst_unit)
    candidates = []
    for unit, stage in assignment.unit_stage.items():
        if stage >= assignment.degree or unit == model.header_unit:
            continue
        if all(assignment.unit_stage[succ] > stage
               for succ in succs[unit] if succ != unit):
            candidates.append((model.unit_weight(unit), unit, stage))
    if not candidates:
        return None
    _, unit, stage = max(candidates)
    assignment.unit_stage[unit] = stage + 1
    for block_name in model.unit_blocks(unit):
        assignment.block_stage[block_name] = stage + 1
    for diag in assignment.diagnostics:
        diag.balanced = True
    return mutated


def _mutate_break_control(result):
    """Point one control-word dispatch case at the wrong block."""
    mutated = copy.deepcopy(result)
    from repro.ir.instructions import SwitchTerm

    for stage in mutated.stages:
        if stage.index == 1 or "stage_recv" not in stage.function.blocks:
            continue
        term = stage.function.block("stage_recv").terminator
        if isinstance(term, SwitchTerm) and term.cases:
            case = min(term.cases)
            original = term.cases[case]
            wrong = next((name for name in stage.function.block_order
                          if name != original), None)
            if wrong is not None:
                term.cases[case] = wrong
                return mutated
    return None


def _mutate_split_array_state(result):
    """Move one access of an array, with every node of its stage that
    reaches it, one stage before the array's other accesses, and realize
    the stages again.  Control flow and every other dependence still
    point forward: the one fault is the array's storage, which each
    stage keeps for itself, split across stages."""
    model = _model_of(result)
    stage = {node: result.assignment.block_stage[model.blocks_of_node(node)[0]]
             for node in model.sgraph.nodes}
    sites: dict[tuple, set[int]] = {}
    for edge in model.edges:
        if isinstance(edge.payload, tuple) and edge.payload[0] == "array":
            sites.setdefault(edge.payload, set()).update((edge.src, edge.dst))
    reverse = model.sgraph.reversed()
    for array, nodes in sorted(sites.items()):
        for victim in sorted(nodes):
            moved = {node for node in reverse.reachable_from(victim)
                     if stage[node] == stage[victim]}
            after = {**stage, **dict.fromkeys(moved, stage[victim] - 1)}
            if stage[victim] == 1 or nodes <= moved or any(
                    after[edge.src] != after[edge.dst] for edge in model.edges
                    if edge.kind is DepKind.COLOCATE and edge.payload != array):
                continue
            mutated = copy.deepcopy(result)
            block_stage = mutated.assignment.block_stage
            for node in moved:
                for name in model.blocks_of_node(node):
                    block_stage[name] -= 1
            mutated.layouts = compute_cut_layouts(
                mutated.normalized, mutated.loop.body, block_stage,
                mutated.degree)
            mutated.stages = realize_stages(
                mutated.normalized, mutated.loop, mutated.assignment,
                mutated.layouts, Module(), mutated.costs, mutated.strategy,
                mutated.pps_name)
            return mutated
    return None


#: The seeded-defect catalogue: name -> mutator(result) -> mutated | None.
DEFECT_MUTATORS = {
    "drop-live-var": _mutate_drop_live_var,
    "flip-cut-edge": _mutate_flip_cut_edge,
    "unbalance-stage": _mutate_unbalance_stage,
    "break-control-object": _mutate_break_control,
    "split-array-state": _mutate_split_array_state,
}


def seeded_defects(result):
    """Yield (defect name, corrupted deep copy) for each applicable
    mutation; the original ``result`` is never touched."""
    for name, mutate in DEFECT_MUTATORS.items():
        mutated = mutate(result)
        if mutated is not None:
            yield name, mutated


def self_test(degree: int = 3) -> dict:
    """Corrupt a known-good partition each way; the verifier must catch
    every defect.  Returns ``{"missed": [...], "caught": {name: checks}}``.
    """
    module = compile_module(SELF_TEST_PPS, "<fuzz>")
    result = pipeline_pps(module, "selfcheck", degree)
    verify_partition(result).raise_if_rejected()  # precondition: clean
    caught: dict[str, list[str]] = {}
    missed: list[str] = []
    applied = 0
    for name, mutated in seeded_defects(result):
        applied += 1
        verdict = verify_partition(mutated)
        if verdict.ok:
            missed.append(name)
        else:
            caught[name] = sorted({finding.check
                                   for finding in verdict.findings})
    if applied < len(DEFECT_MUTATORS):
        skipped = [name for name in DEFECT_MUTATORS
                   if name not in caught and name not in missed]
        missed.extend(skipped)
    return {"missed": missed, "caught": caught}
