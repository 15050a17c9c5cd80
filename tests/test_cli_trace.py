"""Tests for ``repro run --trace``: schema, golden phase names, error
paths."""

import json
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden" / "trace_phase_names.txt"

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


@pytest.fixture()
def trace_doc(demo_file, tmp_path, capsys):
    output = tmp_path / "trace.json"
    assert main(["run", demo_file, "--pps", "demo", "-d", "2",
                 "--feed", "in_q=1,2,5,9", "--iterations", "4",
                 "--profile", "--trace", str(output)]) == 0
    out = capsys.readouterr().out
    # The traced run is the ordinary run: supervised, with its baseline
    # and its equivalence check.
    assert "pipelined x2" in out and "observationally equivalent" in out
    assert "runtime profile:" in out
    assert str(output) in out
    return json.loads(output.read_text())


def test_trace_schema(trace_doc):
    assert trace_doc["displayTimeUnit"] == "ms"
    events = trace_doc["traceEvents"]
    assert events, "trace must not be empty"
    for event in events:
        assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
        assert event["ph"] in {"X", "i", "C", "M"}
        assert isinstance(event["pid"], int) and event["pid"] >= 0
        assert isinstance(event["tid"], int) and event["tid"] >= 0
        if event["ph"] == "X":
            assert event["dur"] >= 0
    real = [event for event in events if event["ph"] != "M"]
    assert [e["ts"] for e in real] == sorted(e["ts"] for e in real)
    lanes = {meta["args"]["name"] for meta in events if meta["ph"] == "M"}
    assert lanes == {"compile", "runtime"}


def test_trace_phase_names_match_golden(trace_doc):
    want = set(GOLDEN.read_text().split())
    got = {event["name"] for event in trace_doc["traceEvents"]
           if event["ph"] in {"X", "i"}}
    assert got == want, (
        "compile/runtime phase names drifted from the golden file; "
        "if intentional, update tests/golden/trace_phase_names.txt"
    )


def test_trace_records_every_compile_phase_and_cut_iteration(trace_doc):
    events = [e for e in trace_doc["traceEvents"] if e["ph"] != "M"]
    spans = {e["name"] for e in events if e["ph"] == "X"}
    # one span per compile phase of the Figure-4 pipeline
    assert {"pipeline_pps", "normalize", "ssa_construct", "dependence_graph",
            "select_stages", "flow_network", "balanced_cut",
            "liveset_layout", "realize", "verify"} <= spans
    iterations = [e for e in events if e["name"] == "cut_iteration"]
    assert iterations, "each balanced-cut iteration must emit an instant"
    for event in iterations:
        assert {"iteration", "epsilon", "cut_value",
                "accepted", "balanced"} <= set(event["args"])


def test_trace_emits_runtime_counters(trace_doc):
    counters = [e for e in trace_doc["traceEvents"] if e["ph"] == "C"]
    names = {e["name"] for e in counters}
    assert {"stage demo.s1of2", "stage demo.s2of2",
            "pipe in_q", "pipe out_q", "wake_hub"} <= names
    by_name = {e["name"]: e["args"] for e in counters}
    assert by_name["stage demo.s1of2"]["instructions"] > 0
    assert by_name["stage demo.s1of2"]["dispatches"] \
        == by_name["stage demo.s1of2"]["iterations"] == 5
    assert by_name["pipe in_q"]["sent"] == 4
    assert by_name["pipe in_q"]["high_water"] == 4
    assert {"parks", "notifies", "wakes"} <= set(by_name["wake_hub"])


def test_trace_sequential_degree_one(demo_file, tmp_path, capsys):
    output = tmp_path / "seq.json"
    assert main(["run", demo_file, "-d", "1", "--feed", "in_q=1,2",
                 "--iterations", "2", "--trace", str(output)]) == 0
    doc = json.loads(output.read_text())
    names = {e["name"] for e in doc["traceEvents"]}
    assert "run_group" in names
    assert "pipeline_pps" not in names  # no partitioning at degree 1
    assert any(e["ph"] == "C" and e["name"] == "stage demo"
               for e in doc["traceEvents"])


def test_trace_unknown_pps_exits_2(demo_file, tmp_path, capsys):
    assert main(["run", demo_file, "--pps", "nope", "-d", "2",
                 "--trace", str(tmp_path / "t.json")]) == 2
    err = capsys.readouterr().err
    assert "no pps named 'nope'" in err
    assert not (tmp_path / "t.json").exists()


def test_trace_missing_file_exits_1(tmp_path, capsys):
    assert main(["run", "/nonexistent.ppc", "-d", "2",
                 "--trace", str(tmp_path / "t.json")]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


def test_trace_bad_feed_exits_2(demo_file, tmp_path, capsys):
    assert main(["run", demo_file, "-d", "2", "--feed", "in_q=zap",
                 "--trace", str(tmp_path / "t.json")]) == 2
    assert "bad feed value" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


def test_run_profile_prints_counters(demo_file, capsys):
    assert main(["run", demo_file, "-d", "2", "--feed", "in_q=1,2,5",
                 "--iterations", "3", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "runtime profile:" in out
    assert "demo.s1of2" in out
    assert "wake-hub:" in out
