"""Deterministic fault injection: plans, perturbation, ring bounds, traps."""

import pytest

from repro.errors import FaultPlanError, TrapError
from repro.pipeline.transform import pipeline_pps
from repro.runtime.equivalence import assert_equivalent, observe
from repro.runtime.faults import (
    FaultInjector,
    FaultPlan,
    builtin_plans,
)
from repro.runtime.scheduler import run_pipeline, run_sequential
from repro.runtime.state import MachineState, WakeHub

from helpers import STANDARD_PPS, compile_module, standard_setup


# -- plan parsing and validation ----------------------------------------------


def plan_to_dict(plan: FaultPlan) -> dict:
    """The ``FaultPlan.from_dict`` input that rebuilds ``plan``, with
    default-valued fields left out (a worker keeps its zero counts)."""
    result: dict = {"seed": plan.seed}
    if plan.name:
        result["name"] = plan.name
    for section in ("inputs", "pipes", "stages"):
        specs = getattr(plan, section)
        if specs:
            result[section] = {
                key: {field: value for field, value in vars(spec).items()
                      if value}
                for key, spec in specs.items()}
    if plan.workers:
        result["workers"] = {
            key: {field: value for field, value in vars(spec).items()
                  if value is not None and value is not False}
            for key, spec in plan.workers.items()}
    return result


def test_plan_round_trips_through_dict():
    plan = FaultPlan.from_dict({
        "seed": 9,
        "inputs": {"in_q": {"drop": 0.25, "delay": 0.5, "max_delay": 3}},
        "pipes": {"*.xfer*": {"capacity": 2}},
        "stages": {"*": {"trap_at": 40}},
    })
    again = FaultPlan.from_dict(plan_to_dict(plan))
    assert plan_to_dict(again) == plan_to_dict(plan)
    assert again.seed == 9
    assert again.inputs["in_q"].drop == 0.25
    assert again.pipes["*.xfer*"].capacity == 2
    assert again.stages["*"].trap_at == 40


@pytest.mark.parametrize("data", [
    {"bogus": 1},
    {"seed": "seven"},
    {"inputs": {"*": {"drop": 1.5}}},
    {"inputs": {"*": {"surprise": 0.1}}},
    {"inputs": {"*": {"max_delay": 0}}},
    {"pipes": {"*": {"capacity": 0}}},
    {"stages": {"*": {"trap_at": "soon"}}},
    {"stages": "everywhere"},
    [],
    {"pipes": {"*": {}}},
    {"pipes": {"*": {"capacity": 2, "stall_every": 5}}},
    {"stages": {"*": {"slowdown": 2}}},
])
def test_plan_validation_rejects(data):
    with pytest.raises(FaultPlanError):
        FaultPlan.from_dict(data)


@pytest.mark.parametrize("section, key", [
    ("pipes", "stall_every"), ("pipes", "stall_for"), ("stages", "slowdown"),
])
def test_plan_error_names_a_retired_key(section, key):
    with pytest.raises(FaultPlanError, match=key):
        FaultPlan.from_dict({section: {"*": {key: 1}}})


def test_plan_rejects_invalid_json():
    with pytest.raises(FaultPlanError):
        FaultPlan.from_json("{not json")


def test_worker_faults_round_trip_and_lookup():
    plan = FaultPlan.from_dict({
        "seed": 71,
        "workers": {"shard-0": {"kill_after_batches": 1,
                                "every_incarnation": True},
                    "*": {"hang_after_batches": 2}},
    })
    again = FaultPlan.from_dict(plan_to_dict(plan))
    assert plan_to_dict(again) == plan_to_dict(plan)
    # First matching pattern wins; later patterns catch the rest.
    assert again.worker_faults("shard-0").kill_after_batches == 1
    assert again.worker_faults("shard-0").every_incarnation
    assert again.worker_faults("shard-3").hang_after_batches == 2
    assert not again.worker_faults("shard-3").every_incarnation


@pytest.mark.parametrize("workers", [
    {"*": {"kill_after_batches": -1}},
    {"*": {"kill_after_batches": "soon"}},
    {"*": {"every_incarnation": "yes"}},
    {"*": {"surprise": 1}},
    "everywhere",
])
def test_worker_faults_validation_rejects(workers):
    with pytest.raises(FaultPlanError):
        FaultPlan.from_dict({"workers": workers})


def test_serve_plans_are_wellformed_and_separate():
    from repro.runtime.faults import serve_plans

    plans = serve_plans()
    assert set(plans) == {"worker-kill", "worker-storm"}
    for name, plan in plans.items():
        assert plan.name == name
        assert plan.workers
    # The in-process chaos differential has no worker pool: the serve
    # plans must not leak into its builtin matrix.
    assert not (set(plans) & set(builtin_plans()))


def test_semantics_preserving_predicate():
    plans = builtin_plans()
    assert plans["drop-light"].semantics_preserving()
    assert plans["delay-stall"].semantics_preserving()
    assert plans["mixed-loss"].semantics_preserving()
    assert not plans["trap-storm"].semantics_preserving()
    assert plans["trap-storm"].has_traps()
    corrupting = FaultPlan.from_dict(
        {"inputs": {"*": {"corrupt": 0.5}}})
    assert not corrupting.semantics_preserving()


# -- stream perturbation ------------------------------------------------------


def _perturb(plan, items, key="in_q"):
    return FaultInjector(plan).perturb(key, list(items))


def test_perturbation_is_deterministic():
    plan = FaultPlan.from_dict({
        "seed": 5,
        "inputs": {"*": {"drop": 0.2, "duplicate": 0.2, "delay": 0.4}},
    })
    items = list(range(100))
    assert _perturb(plan, items) == _perturb(plan, items)
    other = FaultPlan.from_dict({
        "seed": 6,
        "inputs": {"*": {"drop": 0.2, "duplicate": 0.2, "delay": 0.4}},
    })
    assert _perturb(plan, items) != _perturb(other, items)


def test_drop_all_and_duplicate_all():
    items = list(range(20))
    dropper = FaultPlan.from_dict({"inputs": {"*": {"drop": 1.0}}})
    assert _perturb(dropper, items) == []
    doubler = FaultPlan.from_dict({"inputs": {"*": {"duplicate": 1.0}}})
    doubled = _perturb(doubler, items)
    assert len(doubled) == 40
    assert doubled[0] == doubled[1] == 0  # copy rides next to the original


def test_delay_preserves_the_multiset():
    plan = FaultPlan.from_dict(
        {"seed": 3, "inputs": {"*": {"delay": 1.0, "max_delay": 5}}})
    items = list(range(50))
    shuffled = _perturb(plan, items)
    assert sorted(shuffled) == items
    assert shuffled != items  # at 100% delay rate something must move


def test_unmatched_key_is_untouched():
    plan = FaultPlan.from_dict({"inputs": {"other_*": {"drop": 1.0}}})
    assert _perturb(plan, [1, 2, 3], key="in_q") == [1, 2, 3]


def test_corruption_flips_one_bit():
    plan = FaultPlan.from_dict(
        {"seed": 2, "inputs": {"*": {"corrupt": 1.0}}})
    packet = bytes(range(32))
    [mutated] = _perturb(plan, [packet])
    assert mutated != packet
    diff = [(a, b) for a, b in zip(packet, mutated) if a != b]
    assert len(diff) == 1
    a, b = diff[0]
    assert bin(a ^ b).count("1") == 1
    [word] = _perturb(plan, [12345])
    assert word != 12345 and bin(word ^ 12345).count("1") == 1


# -- bounded stage rings ------------------------------------------------------


def test_arm_bounds_stage_rings_including_late_ones():
    module = compile_module(STANDARD_PPS)
    state = MachineState(module)
    plan = FaultPlan.from_dict({"pipes": {"*": {"capacity": 2}}})
    FaultInjector(plan).arm(state)
    assert state.pipe("worker.xfer1").capacity == 2
    # A program's own pipes are its host interface: never bounded.
    assert state.pipes["in_q"].capacity == 0
    assert state.pipe("made_up_later").capacity == 0


def test_bounded_rings_preserve_equivalence():
    module = compile_module(STANDARD_PPS)
    plan = FaultPlan.from_dict({"seed": 1,
                                "pipes": {"*.xfer*": {"capacity": 1}}})

    baseline_state = MachineState(module)
    iterations = standard_setup(baseline_state)
    run_sequential(module.pps("worker"), baseline_state,
                   iterations=iterations)
    baseline = observe(baseline_state)

    for degree in (2, 3):
        stages = pipeline_pps(module, "worker", degree).stages
        runs = {}
        for label, armed in (("free", None), ("bounded", plan)):
            state = MachineState(module)
            if armed is not None:
                FaultInjector(armed).arm(state)
            iterations = standard_setup(state)
            result = run_pipeline(stages, state, iterations=iterations)
            assert_equivalent(baseline, observe(state))
            runs[label] = state, result.stats
        state, stats = runs["bounded"]
        rings = [pipe for name, pipe in state.pipes.items()
                 if ".xfer" in name]
        assert len(rings) == degree - 1
        # The bound bit: every ring filled to it, and a stage waited
        # more often than it does over unbounded rings.
        assert all(ring.high_water == 1 for ring in rings)
        free = runs["free"][1]
        assert any(stats[name].blocked > free[name].blocked
                   for name in stats)


# -- injected traps and isolation ---------------------------------------------


def _armed_standard_state(module, plan):
    state = MachineState(module)
    FaultInjector(plan).arm(state)
    iterations = standard_setup(state)
    return state, iterations


def test_injected_trap_aborts_without_isolation():
    module = compile_module(STANDARD_PPS)
    plan = FaultPlan.from_dict({"stages": {"*": {"trap_at": 100}}})
    state, iterations = _armed_standard_state(module, plan)
    with pytest.raises(TrapError, match="injected trap"):
        run_sequential(module.pps("worker"), state, iterations=iterations)


def test_injected_trap_is_quarantined_with_isolation():
    module = compile_module(STANDARD_PPS)

    clean_state = MachineState(module)
    iterations = standard_setup(clean_state)
    run_sequential(module.pps("worker"), clean_state, iterations=iterations)
    clean_sent = clean_state.pipe("out_q").sent

    plan = FaultPlan.from_dict({"stages": {"*": {"trap_at": 100}}})
    state, iterations = _armed_standard_state(module, plan)
    stats = run_sequential(module.pps("worker"), state,
                           iterations=iterations, isolate_traps=True)
    assert stats.traps == 1
    [letter] = state.dead_letters
    assert letter.stage == "worker"
    assert "injected trap" in letter.detail
    assert letter.cause == "TrapError"
    # The pipeline kept draining: at most the quarantined iteration's
    # output is missing (the trap may land after that iteration's send).
    assert clean_sent - 1 <= state.pipe("out_q").sent <= clean_sent


def test_quarantined_pipeline_keeps_draining():
    module = compile_module(STANDARD_PPS)
    plan = FaultPlan.from_dict({"stages": {"*s2of2": {"trap_at": 60}}})
    result = pipeline_pps(module, "worker", 2)
    state, iterations = _armed_standard_state(module, plan)
    run = run_pipeline(result.stages, state, iterations=iterations,
                       isolate_traps=True)
    assert sum(stats.traps for stats in run.stats.values()) == 1
    assert len(state.dead_letters) == 1
    assert state.dead_letters[0].stage.endswith("s2of2")
    assert state.pipe("out_q").sent >= iterations - 2


# -- WakeHub.detach regression ------------------------------------------------


def test_detach_drains_and_counts_stranded_tokens():
    hub = WakeHub()
    hub.attach(lambda token: None)
    hub.park(("recv", "p"), "alpha")
    hub.park(("recv", "p"), "beta")
    hub.park(("send", "q"), "gamma")
    drained = hub.detach()
    assert drained == {("recv", "p"): ["alpha", "beta"],
                       ("send", "q"): ["gamma"]}
    assert hub.stranded == 3
    # Fully drained: a fresh attach starts with no stale waiters.
    assert hub.parked() == {}
    hub.notify(("recv", "p"))  # must not wake anything drained
    assert hub.detach() == {}
