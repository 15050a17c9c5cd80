"""The check harness (src/repro/eval/fuzz.py).

Three contracts:

* the fuzz loop itself is deterministic and clean on generated
  programs (frontend → partition → the verify, differential and faults
  families), and a failure names the family that found it;
* the shrinker removes everything but the failure-relevant region while
  preserving the program scaffold and brace balance;
* the mutation self-test seeds one defect per class into a clean
  partition and the verifier catches every one.
"""

from __future__ import annotations

import json

import pytest

from repro.eval.fuzz import (
    CheckFailure,
    check_program,
    fuzz_case,
    run_fuzz,
    self_test,
    shrink_source,
)

SIMPLE = """\
pipe in_q;
pipe out_q;
readonly memory tab0[16];

pps fuzzed {
    for (;;) {
        int v = pipe_recv(in_q);
        int a = v * 3;
        int b = mem_read(tab0, v & 15);
        trace(1, a);
        if (a > b) { trace(2, a - b); }
        pipe_send(out_q, a + b);
    }
}
"""


#: Cells (seed, degree) whose program writes an array declared inside the
#: PPS loop and reads the value a previous iteration left there: the
#: pipelined run must keep every access of that array in one stage.
ARRAY_HOLE_CELLS = [
    (seed, degree) for degree, seeds in (
        (3, (228, 249)),
        (4, (249, 274, 581)),
        (6, (196, 208, 220, 228, 249, 274, 581, 587)),
        (8, (196, 220, 228, 249, 274, 581, 587)),
    ) for seed in seeds]


@pytest.mark.parametrize("seed, degree", ARRAY_HOLE_CELLS)
def test_array_hole_regression_list(seed, degree):
    assert fuzz_case(seed, degree, 24, 0)["failure"] is None


def test_fuzz_smoke_is_clean_and_deterministic():
    first = run_fuzz(6, packets=12)
    second = run_fuzz(6, packets=12)
    assert first.ok, first.render()
    assert first.cases == 6 * 3         # a case is (seed, degree)
    assert len(first.runs) == 6 * 3 * 4  # every builtin fault plan
    assert first.as_dict() == second.as_dict()
    assert json.loads(json.dumps(first.as_dict()))["ok"] is True


def test_check_program_passes_a_known_good_program():
    check_program(SIMPLE, 3, packets=8)


def test_check_failure_carries_phase_and_signature():
    with pytest.raises(CheckFailure) as excinfo:
        check_program("pps broken { for (;;) { undeclared = 1; } }", 2)
    failure = excinfo.value
    assert failure.phase == "frontend"
    assert failure.signature[0] == "frontend"


def test_shrinker_drops_irrelevant_lines_keeps_scaffold():
    # Synthetic predicate: the "failure" is the presence of trace(1, …).
    def still_fails(text: str) -> bool:
        return "trace(1" in text and "pps fuzzed" in text

    shrunk, tests = shrink_source(SIMPLE, still_fails)
    assert tests > 0
    assert "trace(1" in shrunk                  # failure region kept
    assert "pps fuzzed" in shrunk               # scaffold kept
    assert "pipe_recv(in_q)" in shrunk
    assert "pipe_send(out_q" in shrunk
    assert "trace(2" not in shrunk              # irrelevant region dropped
    assert "mem_read" not in shrunk
    assert shrunk.count("{") == shrunk.count("}")  # still brace-balanced
    # The shrunk program still compiles as far as the scaffold goes.
    assert len(shrunk.splitlines()) < len(SIMPLE.splitlines())


def test_shrinker_respects_the_test_budget():
    calls = []

    def still_fails(text: str) -> bool:
        calls.append(text)
        return True

    _, tests = shrink_source(SIMPLE, still_fails, max_tests=3)
    assert tests == len(calls) == 3


def test_self_test_catches_every_seeded_defect():
    outcome = self_test()
    assert outcome["missed"] == []
    assert set(outcome["caught"]) == {
        "drop-live-var", "flip-cut-edge", "unbalance-stage",
        "break-control-object", "split-array-state",
    }
    assert "liveness" in outcome["caught"]["drop-live-var"]
    assert "balance" in outcome["caught"]["unbalance-stage"]
    assert "reconstruction" in outcome["caught"]["break-control-object"]
    assert "dependence" in outcome["caught"]["split-array-state"]


def test_parallel_fuzz_report_is_identical_to_serial():
    from repro.eval.fuzz import run_fuzz

    serial = run_fuzz(seeds=4, packets=8, jobs=1)
    parallel = run_fuzz(seeds=4, packets=8, jobs=2)
    assert serial.as_dict() == parallel.as_dict()
    assert parallel.cases == 4 * 3


def test_every_seed_runs_at_every_requested_degree(monkeypatch):
    """A fuzz cell is (seed, degree): no seed is given one degree round
    robin, so a defect that shows only at D=6 is found whichever seed
    carries it."""
    import repro.eval.fuzz as fuzz_module

    ran = []
    def case(seed, degree, packets, shrink, **kwargs):
        ran.append((seed, degree))
        return {"failure": None, "runs": []}

    monkeypatch.setattr(fuzz_module, "fuzz_case", case)
    report = run_fuzz(3, start_seed=10, degrees=(2, 6))
    assert ran == [(10, 2), (10, 6), (11, 2), (11, 6), (12, 2), (12, 6)]
    assert report.cases == 6 and report.ok


def _die(seed):
    import os

    os._exit(13)  # hard death of the fuzz worker: no exception, no cleanup


def test_dead_fuzz_worker_is_a_sweep_error_and_cli_exit_1(monkeypatch, capsys):
    """``fuzz -j`` runs on the sweep runner: a worker that dies mid-case
    leaves a SweepError that the report lists as a ``worker`` failure
    naming the seed and a one-liner (exit 1), not a pool traceback."""
    import repro.eval.fuzz as fuzz_module
    from repro.cli import main

    # Forked pool workers inherit the patched generator.
    monkeypatch.setattr(fuzz_module, "random_pps_source", _die)
    assert main(["fuzz", "--seeds", "2", "--packets", "8", "-j", "2"]) == 1
    out = capsys.readouterr().out
    assert "[worker] sweep worker process died" in out
    assert "reproduce: repro fuzz --seeds 1 --start-seed" in out


def _die_on_seed_1(seed, degree, packets, shrink_tests, **kwargs):
    if seed == 1:
        _die(seed)
    return {"failure": None, "runs": []}


def test_a_crashed_case_is_a_worker_failure_and_the_campaign_finishes(
        monkeypatch):
    """A case whose worker dies is reported like any other failing case,
    phase ``worker``, and every other case is still reported: a clean
    pass, or a ``worker`` failure of its own where the broken pool left
    it unfinished."""
    import repro.eval.fuzz as fuzz_module

    monkeypatch.setattr(fuzz_module, "fuzz_case", _die_on_seed_1)
    report = run_fuzz(3, degrees=(2,), packets=8, jobs=2)
    assert report.cases == 3 and not report.ok
    failed = {failure.seed: failure for failure in report.failures}
    assert 1 in failed
    for seed, failure in failed.items():
        assert failure.phase == "worker"
        assert (failure.program, failure.degree) == ("progen", 2)
        assert "sweep worker process died before fuzz progen D=2 " \
            "finished" in failure.error
        assert f"--start-seed {seed} --degrees 2" in failure.error
    assert "progen seed 1 D=2 [worker]" in report.render()
    assert report.as_dict()["failures"][0]["phase"] == "worker"


def test_trap_plan_passes_when_no_trap_fires(capsys):
    """Seed 2 at D=2 arms a trap in the oracle and on both stages, but
    none runs the 500 weighted units that fire it: no trap fires, no
    dead letter is written, and the case passes."""
    from repro.cli import main

    assert main(["fuzz", "--seeds", "1", "--start-seed", "2",
                 "--degrees", "2", "--faults", "trap-storm"]) == 0
    [run] = run_fuzz(1, start_seed=2, degrees=(2,),
                     plans=("trap-storm",)).runs
    assert (run["faults"]["traps_armed"], run["traps"],
            run["dead_letters"], run["oracle_dead_letters"]) == (1, 0, 0, 0)


def test_a_quarantine_that_records_nothing_fails_the_faults_family(
        monkeypatch):
    """Dead letters are held to the traps the plan's injector saw fire,
    a count the quarantine does not keep: a quarantine that resets the
    trapped iteration but records nothing fails ``trap-storm``."""
    import repro.runtime.scheduler as scheduler

    def silent(name, interp, exc):
        if not interp.can_quarantine():
            return False
        interp.quarantine_reset()
        return True

    monkeypatch.setattr(scheduler, "_quarantine", silent)
    report = run_fuzz(1, start_seed=0, degrees=(2,),
                      plans=("trap-storm",), shrink=False)
    [failure] = report.failures
    assert failure.phase == "faults"
    assert "oracle fired 1 traps but left 0 dead letters" in failure.error


def test_a_mismatch_is_reported_by_the_differential_family(monkeypatch):
    import repro.runtime.equivalence as equivalence
    from repro.runtime.equivalence import Mismatch

    monkeypatch.setattr(equivalence, "compare", lambda expected, actual:
                        [Mismatch("trace", 1, (1,), (2,))])
    with pytest.raises(CheckFailure) as excinfo:
        check_program(SIMPLE, 3, packets=8)
    assert excinfo.value.signature == ("differential", "AssertionError")
    report = run_fuzz(1, degrees=(2,), packets=8, shrink=False)
    [failure] = report.failures
    assert failure.phase == "differential"
    assert "[differential]" in report.render()


def test_a_seeded_defect_is_reported_by_the_verify_family(monkeypatch):
    import repro.eval.fuzz as fuzz_module
    from repro.eval.fuzz import DEFECT_MUTATORS

    real = fuzz_module.app_pipeline
    monkeypatch.setattr(
        fuzz_module, "app_pipeline", lambda app, degree:
        DEFECT_MUTATORS["drop-live-var"](real(app, degree)))
    with pytest.raises(CheckFailure) as excinfo:
        check_program(SIMPLE, 3, packets=8)
    assert excinfo.value.phase == "verify"
    assert fuzz_case(0, 3, 8, 0, program="rx")["failure"].phase == "verify"
