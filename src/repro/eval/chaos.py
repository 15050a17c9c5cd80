"""Chaos differential: pipelining must stay faithful under faults.

The paper's contract — the auto-partitioned pipeline is observationally
equivalent to the sequential PPS — is only worth much if it survives the
conditions real packet pipelines live in: loss, reordering, stalls, and
slow stages.  :func:`chaos_differential` checks exactly that:

1. a seeded :class:`~repro.runtime.faults.FaultPlan` perturbs the input
   stream **once**, host-side;
2. the sequential PPS runs on the perturbed stream → the oracle;
3. every requested pipeline degree runs on the *same* perturbed stream,
   with a fresh injector arming the plan's pipe stalls / stage slowdowns
   and the deadlock watchdog on;
4. for semantics-preserving plans (no corruption, no injected traps) the
   surviving packets' observables must be bit-identical to the oracle;
   for trap plans the check is instead that the run drains and every
   quarantined iteration left a dead letter.

Scheduling-only faults (stalls, slowdowns) may reorder the interleaving
arbitrarily — equivalence must hold regardless, which is what makes this
a genuine robustness check rather than a replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.suite import build_app
from repro.runspec import app_pipeline
from repro.runtime.equivalence import compare, observe
from repro.runtime.faults import FaultInjector, FaultPlan, builtin_plans
from repro.runtime.scheduler import run_pipeline, run_sequential
from repro.runtime.watchdog import DEFAULT_QUANTUM, Watchdog

DEFAULT_DEGREES = (1, 2, 4)


@dataclass
class DegreeOutcome:
    """One pipelined run of one plan."""

    degree: int
    mismatches: list = field(default_factory=list)
    dead_letters: int = 0
    traps: int = 0
    ok: bool = True

    def as_dict(self) -> dict:
        return {
            "degree": self.degree,
            "mismatches": [str(mismatch) for mismatch in self.mismatches],
            "dead_letters": self.dead_letters,
            "traps": self.traps,
            "ok": self.ok,
        }


@dataclass
class PlanOutcome:
    """All degrees of one fault plan."""

    plan: str
    seed: int
    semantics_preserving: bool
    fed: int = 0              # stream length after perturbation
    faults: dict = field(default_factory=dict)
    degrees: list[DegreeOutcome] = field(default_factory=list)
    baseline_dead_letters: int = 0

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.degrees)

    def as_dict(self) -> dict:
        return {
            "plan": self.plan,
            "seed": self.seed,
            "semantics_preserving": self.semantics_preserving,
            "fed": self.fed,
            "faults": dict(self.faults),
            "baseline_dead_letters": self.baseline_dead_letters,
            "degrees": [outcome.as_dict() for outcome in self.degrees],
            "ok": self.ok,
        }


@dataclass
class ChaosReport:
    """The full chaos differential result."""

    app: str
    packets: int
    outcomes: list[PlanOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def as_dict(self) -> dict:
        return {
            "app": self.app,
            "packets": self.packets,
            "ok": self.ok,
            "plans": [outcome.as_dict() for outcome in self.outcomes],
        }

    def render(self) -> str:
        lines = [f"chaos differential: app {self.app}, "
                 f"{self.packets} packets"]
        for outcome in self.outcomes:
            flavour = ("differential" if outcome.semantics_preserving
                       else "trap isolation")
            lines.append(
                f"  plan {outcome.plan} (seed {outcome.seed}, {flavour}): "
                f"{outcome.fed} packets fed")
            for degree in outcome.degrees:
                verdict = "ok" if degree.ok else "FAIL"
                extra = ""
                if degree.traps:
                    extra = (f", {degree.traps} traps quarantined, "
                             f"{degree.dead_letters} dead letters")
                if degree.mismatches:
                    extra += f", {len(degree.mismatches)} mismatches"
                lines.append(f"    degree {degree.degree}: {verdict}{extra}")
        lines.append(f"  overall: {'ok' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def chaos_differential(app_name: str = "ipv4", *,
                       plans: dict[str, FaultPlan] | None = None,
                       degrees: tuple = DEFAULT_DEGREES,
                       packets: int = 40, seed: int = 7,
                       watchdog_quantum: int | None = DEFAULT_QUANTUM,
                       collect_letters: list | None = None,
                       cache=None) -> ChaosReport:
    """Run the chaos differential for ``app_name`` across fault plans.

    ``collect_letters``, when given, receives every dead-letter record
    (as dicts, tagged with plan and degree) — the CI job uploads them as
    an artifact on failure.  Each degree is partitioned once, through
    :func:`~repro.runspec.app_pipeline` (``cache``, a
    :class:`repro.cache.CompileCache`, memoizes it), and every plan runs
    the same stages.
    """
    if plans is None:
        plans = builtin_plans()
    app = build_app(app_name, packets=packets, seed=seed)
    if app.stream is None:
        raise ValueError(f"app {app_name!r} cannot drive the chaos "
                         f"differential (no stream/feed split)")
    pipelines = {degree: app_pipeline(app, degree, cache=cache).stages
                 for degree in degrees}
    report = ChaosReport(app=app_name, packets=packets)
    for plan_name, plan in plans.items():
        report.outcomes.append(_run_plan(
            app, plan_name, plan, pipelines=pipelines,
            watchdog_quantum=watchdog_quantum,
            collect_letters=collect_letters))
    return report


def _run_plan(app, plan_name: str, plan: FaultPlan, *, pipelines: dict,
              watchdog_quantum: int | None,
              collect_letters: list | None) -> PlanOutcome:
    # Perturb the stream ONCE; every run below shares it.
    stream_injector = FaultInjector(plan)
    stream = stream_injector.perturb(app.pps_name, app.stream())
    outcome = PlanOutcome(plan=plan_name, seed=plan.seed,
                          semantics_preserving=plan.semantics_preserving(),
                          fed=len(stream))

    # Sequential oracle (its own injector: stalls/slowdowns/traps apply
    # here too, so trap plans exercise isolation in both shapes).
    baseline_state, iterations = _armed_state(app, plan, stream)
    run_sequential(app.module.pps(app.pps_name), baseline_state,
                   iterations=iterations,
                   watchdog=Watchdog(watchdog_quantum),
                   isolate_traps=True)
    baseline = observe(baseline_state)
    baseline_state.faults.absorb_stream(stream_injector)
    outcome.faults = baseline_state.faults.counters()
    outcome.baseline_dead_letters = len(baseline_state.dead_letters)
    _collect(collect_letters, baseline_state, plan_name, degree=0)

    for degree, stages in pipelines.items():
        state, iterations = _armed_state(app, plan, stream)
        run = run_pipeline(stages, state, iterations=iterations,
                           watchdog=Watchdog(watchdog_quantum),
                           isolate_traps=True)
        degree_outcome = DegreeOutcome(degree=degree)
        degree_outcome.dead_letters = len(state.dead_letters)
        degree_outcome.traps = sum(stats.traps
                                   for stats in run.stats.values())
        _collect(collect_letters, state, plan_name, degree=degree)
        if plan.semantics_preserving():
            degree_outcome.mismatches = compare(baseline, observe(state))
            degree_outcome.ok = not degree_outcome.mismatches
        else:
            # Trap plans void the differential; the contract is that the
            # run drains under quarantine and every trap left a letter.
            armed = state.faults.traps_armed
            degree_outcome.ok = degree_outcome.dead_letters >= min(1, armed)
        outcome.degrees.append(degree_outcome)
    return outcome


def _armed_state(app, plan: FaultPlan, stream: list):
    """A fresh machine with a fresh injector armed, fed ``stream``."""
    from repro.runtime.state import MachineState

    state = MachineState(app.module)
    FaultInjector(plan).arm(state)
    iterations = app.feed(state, stream)
    return state, iterations


def _collect(collect_letters, state, plan_name: str, degree: int) -> None:
    if collect_letters is None:
        return
    for letter in state.dead_letters:
        record = letter.as_dict()
        record["plan"] = plan_name
        record["pipeline_degree"] = degree
        collect_letters.append(record)
