"""Tests for the command-line interface."""

import pytest

from repro.cli import main

DEMO = """
pipe in_q;
pipe out_q;

pps demo {
    for (;;) {
        int v = pipe_recv(in_q);
        int w = v * 3;
        if (w > 10) { trace(1, w); }
        pipe_send(out_q, w);
    }
}
"""


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.ppc"
    path.write_text(DEMO)
    return str(path)


def test_check_ok(demo_file, capsys):
    assert main(["check", demo_file]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "1 pps" in out


def test_check_reports_frontend_errors(tmp_path, capsys):
    bad = tmp_path / "bad.ppc"
    bad.write_text("pps p { for (;;) { undeclared = 1; } }")
    assert main(["check", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["check", "/nonexistent.ppc"]) == 1
    assert "error:" in capsys.readouterr().err


def test_ir_dump(demo_file, capsys):
    assert main(["ir", demo_file, "--pps", "demo"]) == 0
    out = capsys.readouterr().out
    assert "pps_header" in out
    assert "pipe_recv" in out


def test_pipeline_summary(demo_file, capsys):
    assert main(["pipeline", demo_file, "-d", "3"]) == 0
    out = capsys.readouterr().out
    assert "3 stages" in out
    assert "cut 1:" in out and "cut 2:" in out


def test_pipeline_emit_prints_stage_ir(demo_file, capsys):
    assert main(["pipeline", demo_file, "-d", "2", "--emit"]) == 0
    out = capsys.readouterr().out
    assert "stage_recv" in out
    assert "pipe_in" in out


def test_pipeline_with_ring_and_strategy(demo_file, capsys):
    assert main(["pipeline", demo_file, "-d", "2", "--ring", "scratch",
                 "--strategy", "unified"]) == 0
    out = capsys.readouterr().out
    assert "scratch rings" in out


def test_run_sequential(demo_file, capsys):
    assert main(["run", demo_file, "--feed", "in_q=1,2,5",
                 "--iterations", "3"]) == 0
    out = capsys.readouterr().out
    assert "pipe out_q: [3, 6, 15]" in out
    assert "trace[1]: [15]" in out


def test_run_pipelined_checks_equivalence(demo_file, capsys):
    assert main(["run", demo_file, "-d", "2", "--feed", "in_q=1,2,5",
                 "--iterations", "3"]) == 0
    out = capsys.readouterr().out
    assert "observationally equivalent" in out
    assert "pipe out_q: [3, 6, 15]" in out


def test_bad_feed_spec(demo_file, capsys):
    assert main(["run", demo_file, "--feed", "garbage"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "garbage" in err


def test_unknown_pps_rejected(demo_file, capsys):
    assert main(["ir", demo_file, "--pps", "nope"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "no pps named 'nope'" in err
    assert "demo" in err  # lists the available PPSes


def test_multi_pps_requires_selection(tmp_path, capsys):
    path = tmp_path / "two.ppc"
    path.write_text("""
        pipe q;
        pps a { for (;;) { pipe_send(q, 1); } }
        pps b { for (;;) { int v = pipe_recv(q); trace(1, v); } }
    """)
    assert main(["pipeline", str(path), "-d", "2"]) == 2
    err = capsys.readouterr().err
    assert "--pps" in err
    assert "a" in err and "b" in err


def test_pipeline_prints_verifier_verdict(demo_file, capsys):
    assert main(["pipeline", demo_file, "-d", "3"]) == 0
    out = capsys.readouterr().out
    assert "verify:" in out
    assert "verified" in out


def _rejecting_supervisor(monkeypatch):
    """Patch supervise_partition with a verifier double that rejects
    every partition above two stages with one synthetic finding; it
    accepts degree 2, so a supervisor that quietly retried at a lower
    degree would exit 0 instead."""
    import repro.pipeline.supervisor as supervisor_module
    from repro.pipeline.verify import VerifyFinding, VerifyVerdict

    real = supervisor_module.supervise_partition

    def rejecting(result, **kwargs):
        if result.degree <= 2:
            return supervisor_module.verify_partition(result, **kwargs)
        return VerifyVerdict(
            pps_name=result.pps_name, degree=result.degree,
            findings=[VerifyFinding(check="balance",
                                    detail="synthetic rejection")])

    def supervised(module, pps_name, degree, **kwargs):
        return real(module, pps_name, degree, verifier=rejecting, **kwargs)

    monkeypatch.setattr(supervisor_module, "supervise_partition", supervised)


@pytest.mark.parametrize("command", ["run", "pipeline"])
def test_rejected_partition_exits_1_naming_the_finding(
        demo_file, capsys, monkeypatch, command):
    _rejecting_supervisor(monkeypatch)
    assert main([command, demo_file, "-d", "4", "--no-cache"]) == 1
    captured = capsys.readouterr()
    assert "demo x4: REJECTED" in captured.err
    assert "[balance] synthetic rejection" in captured.err
    assert "pipelined" not in captured.out and "stages" not in captured.out


@pytest.mark.parametrize("command", ["run", "pipeline"])
def test_prologue_effect_exits_1_with_its_message(tmp_path, capsys,
                                                  command):
    """A PPS that sends before its loop cannot be pipelined: the
    partitioner's own message reaches the user."""
    path = tmp_path / "pro.ppc"
    path.write_text(DEMO.replace("pps demo {",
                                 "pps demo {\n    pipe_send(out_q, 7);"))
    assert main([command, str(path), "-d", "3", "--no-cache"]) == 1
    err = capsys.readouterr().err
    assert "prologue intrinsic 'pipe_send'" in err


def test_run_profile_reports_partition_verdict(demo_file, capsys):
    assert main(["run", demo_file, "-d", "2", "--feed", "in_q=1,2,5",
                 "--iterations", "3", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "partition: verified at degree 2" in out
    # Per stage, the driver's round trips into generated code: the entry
    # and one per pass through the loop start — stage 2 comes back once
    # more, to find its pipe empty.
    table = [line.split() for line in out.splitlines()]
    assert ["stage", "instrs", "cycles", "iters", "tx-cycles", "blocked",
            "dispatches"] in table
    assert {row[0]: (row[3], row[-1]) for row in table
            if row and row[0].startswith("demo.s")} \
        == {"demo.s1of2": ("4", "4"), "demo.s2of2": ("4", "5")}


def test_fuzz_smoke(capsys):
    assert main(["fuzz", "--seeds", "4", "--packets", "8"]) == 0
    out = capsys.readouterr().out
    assert "fuzz: 4 programs" in out
    assert "ok" in out


def test_fuzz_self_test(capsys):
    assert main(["fuzz", "--self-test"]) == 0
    out = capsys.readouterr().out
    assert "every seeded defect caught" in out
    assert "drop-live-var" in out


def test_fuzz_bad_degrees_is_usage_error(capsys):
    assert main(["fuzz", "--degrees", "x,y"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fuzz", "--apps", "rx", "--degrees", "x,y"],
    ["explore", "--degrees", "1,two"],
    ["explore", "--degrees", "x"],
    ["fuzz", "--degrees", ","],
    ["explore", "--apps", ","],
    # An app outside repro.apps.suite.APPS, or outside STREAM_APPS where
    # the command streams packets.
    ["explore", "--apps", "nope"],
    ["fuzz", "--apps", "nope"],
    ["serve", "--app", "nope"],
    ["fuzz", "--apps", "scheduler"],
    ["serve", "--app", "scheduler"],
    # A count or degree below 1.
    ["explore", "--packets", "0"],
    ["explore", "--packets", "-3"],
    ["explore", "--degrees", "0,1"],
    ["fuzz", "--apps", "rx", "--degrees", "0"],
    ["fuzz", "--degrees", "0"],
    ["serve", "-d", "0"],
    ["run", "demo.ppc", "-d", "0"],
    ["serve", "--shards", "0"],
    ["serve", "--batch", "0"],
    ["fuzz", "--seeds", "0"],
    ["explore", "-j", "0"],
    ["run", "demo.ppc", "--iterations", "0"],
    ["run", "demo.ppc", "--iterations", "-2"],
    # A serve supervision value that would break supervision.
    ["serve", "--hang-timeout", "0"],
    ["serve", "--hang-timeout", "-1"],
    ["serve", "--hang-timeout", "nan"],
    # Deleted serve flags, at values they once took: the restart budget,
    # the backoff and the drain grace are ServePolicy's defaults now.
    ["serve", "--drain-grace", "2"],
    ["serve", "--backoff", "0.01"],
    ["serve", "--backoff", "0.05"],
    ["serve", "--max-restarts", "1"],
    ["serve", "--max-restarts", "3"],
    # A partitioner knob its Knobs rejects.
    ["pipeline", "demo.ppc", "--epsilon", "nan"],
    ["pipeline", "demo.ppc", "--epsilon", "-1"],
    ["explore", "--epsilons", "inf"],
    # The deleted explore flag: a failed cell is always a record.
    ["explore", "--keep-going"],
    # A plan section serve cannot apply: it applies only workers.
    ["serve", "--faults", "trap-storm"],
    ["serve", "--faults", "drop-light"],
])
def test_bad_list_flag_is_a_usage_error_on_every_command(argv, capsys):
    """Checked in parsing: exit 2 with an ``error:`` line, whether
    argparse rejects the value (it raises ``SystemExit``) or the
    command does, and no traceback."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


#: The builtin plan names, sorted: what every fault-plan flag accepts.
CHAOS_PLANS = "delay-stall, drop-light, mixed-loss, trap-storm"


@pytest.mark.parametrize("argv, available", [
    (["run", "DEMO", "--feed", "in_q=1", "--faults", "drop-lite"],
     CHAOS_PLANS),
    (["fuzz", "--apps", "rx", "--packets", "4", "--faults", "drop-lite"],
     CHAOS_PLANS),
    (["serve", "--packets", "4", "--no-cache", "--faults", "worker-kil"],
     CHAOS_PLANS + ", worker-kill, worker-storm"),
])
def test_unknown_fault_plan_is_a_usage_error_naming_the_plans(
        argv, available, demo_file, capsys):
    """``run --faults``, ``fuzz --faults`` and ``serve --faults`` share
    one resolver: a name that is neither a plan nor a file exits 2 and
    lists the plans the command accepts (serve adds its worker plans)."""
    argv = [demo_file if arg == "DEMO" else arg for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: no fault plan {argv[-1]!r}" in err
    assert f"available plans: {available}" in err


def test_chaos_runs_a_json_plan_file_at_any_jobs(tmp_path, capsys):
    import json

    plan = tmp_path / "lossy.json"
    plan.write_text('{"seed": 5, "inputs": {"*": {"drop": 0.2}}}')
    for jobs in ("1", "2"):
        output = tmp_path / f"fuzz-j{jobs}"
        assert main(["fuzz", "--apps", "rx", "--seeds", "1", "--degrees",
                     "1,2", "--packets", "8", "--faults",
                     f"{plan},drop-light", "-j", jobs,
                     "--out", str(output)]) == 0
        report = json.loads((output / "report.json").read_text())
        assert report["ok"] is True
        assert report["plan_totals"] == {
            name: {"runs": 2, "traps_fired": 0, "dead_letters": 0}
            for name in (str(plan), "drop-light")}
        assert "runs" not in report
    assert "fuzz: 1 programs, 2 cases (rx; seeds 0..0, degrees 1,2, " \
        "8 packets): ok" in capsys.readouterr().out


def test_list_flags_take_commas_and_trailing_separators(tmp_path, capsys):
    """One list parser behind --apps/--degrees/--faults: ``fuzz`` takes
    comma-separated apps like ``explore`` does, and a trailing
    comma is ignored everywhere, not only by ``explore``."""
    assert main(["fuzz", "--apps", "rx,ipv4", "--seeds", "1", "--degrees",
                 "1,2,", "--packets", "4", "--faults", "drop-light,",
                 "--out", str(tmp_path / "fuzz")]) == 0
    out = capsys.readouterr().out
    assert "fuzz: 2 programs, 4 cases (ipv4, rx; seeds 0..0, degrees 1,2, " \
        "4 packets): ok" in out

    import json

    report = json.loads((tmp_path / "fuzz" / "report.json").read_text())
    assert report["programs"] == ["ipv4", "rx"]
    assert report["plans"] == ["drop-light"]
    assert main(["fuzz", "--seeds", "2", "--packets", "8",
                 "--degrees", "2,3,"]) == 0


@pytest.mark.parametrize("command", ["run", "fuzz"])
def test_a_workers_plan_is_a_usage_error_where_no_worker_pool_runs(
        command, demo_file, tmp_path, capsys):
    """``run`` and ``fuzz`` run in one process: a plan with a
    ``workers`` section would do nothing there, so it exits 2 naming the
    section instead of running as a silent no-op."""
    plan = tmp_path / "workers.json"
    plan.write_text('{"workers": {"*": {"kill_after_batches": 1}}}')
    argv = (["run", demo_file, "--feed", "in_q=1"] if command == "run"
            else ["fuzz", "--apps", "rx", "--packets", "4"])
    assert main(argv + ["--faults", str(plan)]) == 2
    assert f"error: fault plan {str(plan)!r} has section 'workers'" in \
        capsys.readouterr().err


@pytest.mark.parametrize("command", ["bench", "figures", "chaos"])
def test_bench_subcommand_is_gone(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command])
    assert excinfo.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


#: Every (subcommand, option string) pair the CLI accepts.  A new flag,
#: or a removed one, is a diff of this literal.
CLI_SURFACE = {
    "check": "file",
    "explore": "--apps --cache-dir --degrees --epsilons --jobs "
               "--max-block-instructions --no-cache "
               "--out --packets --rings --seed -j -o",
    "fuzz": "--apps --degrees --faults --jobs --out --packets --seeds "
            "--self-test --start-seed -j",
    "ir": "--pps file",
    "pipeline": "--cache-dir --degree --emit --epsilon --no-cache --pps "
                "--ring --strategy -d file",
    "run": "--cache-dir --dead-letters --degree --faults --feed "
           "--isolate-traps --iterations --no-cache --pps --profile "
           "--trace -d file",
    "serve": "--app --batch --cache-dir --degree --faults --hang-timeout "
             "--no-cache --output --packets --profile --seed --shards "
             "--trace -d -o",
}


def test_cli_surface():
    import argparse

    from repro.cli import build_parser

    [commands] = [action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    surface = {
        name: " ".join(sorted(
            option for action in parser._actions
            for option in (action.option_strings or [action.dest])
            if option not in ("-h", "--help")))
        for name, parser in commands.choices.items()}
    assert surface == CLI_SURFACE
    long_options = {option for options in surface.values()
                    for option in options.split() if option.startswith("--")}
    assert (len(surface), len(long_options)) == (7, 32)


@pytest.mark.parametrize("shape, size",
                         [("sum", 5000), ("parens", 3000), ("blocks", 1500)])
def test_check_reports_deep_nesting_as_a_frontend_error(shape, size, tmp_path,
                                                        capsys):
    from test_lang_parser import DEEP

    deep = tmp_path / "deep.ppc"
    deep.write_text(DEEP[shape](size))
    assert main(["check", str(deep)]) == 1
    err = capsys.readouterr().err
    assert "deep.ppc:4:" in err and "nested more than" in err
    assert "Traceback" not in err
