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


def _flaky_supervisor(monkeypatch, threshold):
    """Patch supervise_partition so the partitioner fails above
    ``threshold`` — the supervisor must degrade, the CLI must exit 4."""
    import repro.pipeline.supervisor as supervisor_module
    from repro.pipeline.transform import pipeline_pps

    real = supervisor_module.supervise_partition

    def failing(module, pps_name, degree, **kwargs):
        if degree > threshold:
            raise RuntimeError("injected partitioner fault")
        return pipeline_pps(module, pps_name, degree, **kwargs)

    def flaky(module, pps_name, degree, **kwargs):
        kwargs["partition"] = failing
        return real(module, pps_name, degree, **kwargs)

    monkeypatch.setattr(supervisor_module, "supervise_partition", flaky)


def test_run_degraded_partition_exits_4(demo_file, capsys, monkeypatch):
    _flaky_supervisor(monkeypatch, threshold=2)
    assert main(["run", demo_file, "-d", "4", "--feed", "in_q=1,2,5",
                 "--iterations", "3"]) == 4
    captured = capsys.readouterr()
    assert "pipelined x2" in captured.out          # ran at the degraded D
    assert "pipe out_q: [3, 6, 15]" in captured.out  # output still right
    assert "degraded to 2 stages" in captured.err
    assert "warning:" in captured.err


def test_pipeline_degraded_partition_exits_4(demo_file, capsys, monkeypatch):
    _flaky_supervisor(monkeypatch, threshold=2)
    assert main(["pipeline", demo_file, "-d", "4"]) == 4
    captured = capsys.readouterr()
    assert "2 stages" in captured.out
    assert "degraded to 2 stages" in captured.err


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
    ["chaos", "--degrees", "x,y"],
    ["plan", "--degrees", "1,two"],
    ["explore", "--degrees", "x"],
    ["fuzz", "--degrees", ","],
    ["plan", "--apps", ","],
])
def test_bad_list_flag_is_a_usage_error_on_every_command(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_list_flags_take_commas_and_trailing_separators(tmp_path, capsys):
    """One list parser behind --apps/--degrees: ``chaos --sweep`` takes
    comma-separated apps like ``plan``/``explore`` do, and a trailing
    comma is ignored everywhere, not only by ``explore``."""
    assert main(["chaos", "--sweep", "--apps", "rx,ipv4", "--degrees",
                 "1,2,", "--packets", "4", "--plans", "drop-light",
                 "--no-cache", "-o", str(tmp_path / "chaos.json")]) == 0
    out = capsys.readouterr().out
    assert "sweep: 2 apps x degrees 1,2 (-j 1): ok" in out

    import json

    assert sorted(json.loads((tmp_path / "chaos.json").read_text())["apps"]) \
        == ["ipv4", "rx"]
    assert main(["fuzz", "--seeds", "2", "--packets", "8",
                 "--degrees", "2,3,"]) == 0


def test_keep_going_flags_parse():
    from repro.cli import build_parser

    parser = build_parser()
    assert parser.parse_args(["chaos", "--sweep",
                              "--keep-going"]).keep_going is True
    assert parser.parse_args(["chaos", "--sweep"]).keep_going is False
    assert parser.parse_args(["plan", "-j", "2",
                              "--keep-going"]).keep_going is True
    assert parser.parse_args(["plan"]).keep_going is False


def test_figures_writes_record(tmp_path, capsys):
    """``figures`` prints the four figures and the headline; ``-o`` writes
    the library function's record, the same bytes at every ``-j``."""
    import json

    from repro.eval.experiments import figures_record

    outputs = []
    for jobs in ("1", "2"):
        output = tmp_path / f"record-j{jobs}.json"
        assert main(["figures", "--packets", "8", "--degrees", "1,2",
                     "-j", jobs, "-o", str(output)]) == 0
        out = capsys.readouterr().out
        for line in ("Figure 19: speedup, IPv4 forwarding PPSes",
                     "Figure 20: speedup, IP forwarding PPSes",
                     "Figure 21: live-set overhead, IPv4 forwarding",
                     "Figure 22: live-set overhead, IP forwarding",
                     "Headline (2-stage pipeline):",
                     f"wrote {output}"):
            assert line in out
        outputs.append(output.read_bytes())
    assert outputs[0] == outputs[1]
    record = figures_record(packets=8, degrees=[1, 2])
    assert json.loads(outputs[0]) == json.loads(json.dumps(record))
    assert len(record["partition_breakdown"]) == 7  # one per distinct app
    assert record["figures"]["figure19"]["simulated_instructions"] > 0


def test_bench_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


#: Every (subcommand, option string) pair the CLI accepts.  A new flag,
#: or a removed one, is a diff of this literal.
CLI_SURFACE = {
    "chaos": "--app --apps --cache-dir --dead-letters --degrees --jobs "
             "--keep-going --no-cache --output --packets --plans --seed "
             "--sweep -j -o",
    "check": "file",
    "explore": "--apps --cache-dir --degrees --epsilons --jobs "
               "--keep-going --max-block-instructions --min-gain --no-cache "
               "--out --packets --pick-rule --rings --seed --weights -j -o",
    "figures": "--degrees --jobs --output --packets -j -o",
    "fuzz": "--degrees --jobs --out --packets --seeds --self-test "
            "--start-seed -j",
    "ir": "--pps file",
    "pipeline": "--cache-dir --degree --emit --epsilon --no-cache --pps "
                "--ring --strategy -d file",
    "plan": "--apps --cache-dir --degrees --jobs --keep-going --no-cache "
            "--packets --seed -j",
    "run": "--cache-dir --dead-letters --degree --faults --feed "
           "--isolate-traps --iterations --no-cache --pps --profile "
           "--trace --watchdog-quantum -d file",
    "serve": "--app --backoff --batch --cache-dir --degree --drain-grace "
             "--faults --hang-timeout --journal-dir --max-restarts "
             "--no-cache --output --packets --profile --seed --shards "
             "--trace --watchdog-quantum -d -o",
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
    assert (len(surface), len(long_options)) == (10, 43)
