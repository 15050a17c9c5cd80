"""Tests for SSA construction."""

from hypothesis import given, settings, strategies as st

from repro.eval.fuzz import generated_app
from repro.ir.clone import clone_function
from repro.ir.verify import verify_function
from repro.runtime import MachineState, assert_equivalent, observe, run_sequential
from repro.ssa import construct_ssa
from repro.testing import random_pps_source

from helpers import STANDARD_PPS, compile_module, standard_setup


def ssa_of(source):
    module = compile_module(source)
    pps = module.pps(next(iter(module.ppses)))
    ssa = clone_function(pps)
    construct_ssa(ssa)
    verify_function(ssa, ssa=True)
    return module, pps, ssa


def test_loop_carried_variable_gets_header_phi():
    module, pps, ssa = ssa_of("pps p { int n = 0; for (;;) { n = n + 1; } }")
    header = next(name for name in ssa.block_order
                  if name.startswith("pps_header"))
    phis = ssa.block(header).phis()
    assert len(phis) == 1
    assert phis[0].dest.root().name.startswith("n")


def test_if_join_gets_phi_only_when_live():
    module, pps, ssa = ssa_of("""
        pps p { for (;;) { int x = 1;
            if (x) { x = 2; } else { x = 3; }
            trace(1, x); } }
    """)
    join = next(name for name in ssa.block_order if name.startswith("if_join"))
    assert len(ssa.block(join).phis()) == 1


def test_pruned_ssa_skips_dead_merges():
    module, pps, ssa = ssa_of("""
        pps p { for (;;) { int x = 1;
            if (x) { x = 2; } else { x = 3; }
            trace(1, 9); } }
    """)
    join = next(name for name in ssa.block_order if name.startswith("if_join"))
    # x is dead after the if; pruned SSA places no phi for it.
    assert not ssa.block(join).phis()


def test_every_register_defined_once():
    module, pps, ssa = ssa_of(STANDARD_PPS)
    seen = set()
    for inst in ssa.all_instructions():
        for dest in inst.defs():
            assert dest not in seen
            seen.add(dest)


def test_ssa_versions_point_at_roots():
    module, pps, ssa = ssa_of("pps p { int n = 0; for (;;) { n = n + 2; } }")
    versions = [dest for inst in ssa.all_instructions() for dest in inst.defs()
                if dest.root().name.startswith("n")]
    assert len(versions) >= 2
    assert len({v.root() for v in versions}) == 1


def _events(observation) -> int:
    return (len(observation.tx)
            + sum(len(events) for events in observation.traces.values())
            + sum(len(messages) for messages in observation.pipes.values()))


def test_ssa_form_runs_like_the_original():
    """The runtime executes φ directly, so the SSA form of a PPS is itself
    runnable, and it must observe exactly what the original does."""
    module = compile_module(STANDARD_PPS)
    pps = module.pps("worker")
    ssa = clone_function(pps)
    construct_ssa(ssa)

    def run(function):
        state = MachineState(module)
        standard_setup(state, 25)
        run_sequential(function, state, iterations=25)
        return observe(state)

    base = run(pps)
    assert _events(base) > 0
    assert_equivalent(base, run(ssa))


def test_ssa_form_of_random_programs_runs_like_the_original():
    """The same on generated programs, fed as ``repro fuzz`` feeds them
    (unfed, a generated program observes nothing and the check is
    vacuous)."""
    packets = 24
    for seed in range(0, 401, 5):
        app = generated_app(random_pps_source(seed), seed, packets)
        pps = app.module.pps("generated")
        ssa = clone_function(pps)
        construct_ssa(ssa)
        observed = []
        for function in (pps, ssa):
            state = MachineState(app.module)
            iterations = app.feed(state, app.stream())
            run_sequential(function, state, iterations=iterations)
            observed.append(observe(state))
        assert _events(observed[0]) > 0, seed
        assert_equivalent(*observed)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=400))
def test_ssa_construction_verifies_on_random_programs(seed):
    module = compile_module(random_pps_source(seed))
    pps = module.pps("generated")
    ssa = clone_function(pps)
    construct_ssa(ssa)
    verify_function(ssa, ssa=True)
