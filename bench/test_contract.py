"""The benchmark keeps its contract (run with ``pytest bench/``).

Lives under ``bench/`` so the tier-1 suite (``testpaths = ["tests"]``)
is neither slowed by it nor able to break on it.  Every workload runs
once untraced and once traced at a tiny smoke scale; the whole file
takes a minute or two.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from env import CONTRACT, OUT, ROOT, require_src  # noqa: E402

require_src()

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SMOKE = ["--scale", "0.05"]


@pytest.fixture(scope="module")
def contract() -> dict:
    return json.loads(CONTRACT.read_text())


def run_bench(*arguments, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *arguments], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def smoke(contract):
    """Every workload, untraced and traced, at smoke scale: the printed
    lines by (workload, trace) and the directory the results went to."""
    name = "contract-test"
    directory = OUT / name
    shutil.rmtree(directory, ignore_errors=True)
    lines = {}
    for entry in contract["workloads"]:
        for trace in (0, 1):
            done = run_bench("--workload", entry["name"], "--trace",
                             str(trace), "--seed", "3", "--set", name,
                             *SMOKE)
            assert done.returncode == 0, done.stderr[-2000:]
            lines[entry["name"], trace] = json.loads(
                done.stdout.strip().splitlines()[-1])
    yield lines, directory
    shutil.rmtree(directory, ignore_errors=True)


def test_contract_file_shape(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["bench"]
    assert contract["command"][:2] == ["python3", "bench/run.py"]
    assert isinstance(contract["run_seconds"], int)
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = []
    for entry in contract["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
        names.append(entry["name"])
    for entry in contract["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 <= entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in contract["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    for entry in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    setup = [entry for entry in contract["end_to_end"]
             if entry["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(entry["bound"]
                                    for entry in contract["end_to_end"])
    # 4 + 22 runs per workload must fit the driver's hour.
    runs = 4 + 22 * len(contract["workloads"])
    assert runs * (contract["run_seconds"] + 10) < 3420
    assert len(CONTRACT.read_bytes()) <= 64 * 1024


def test_every_workload_prints_the_contract(contract, smoke):
    lines, _ = smoke
    for (workload, trace), line in lines.items():
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        declared = contract["per_layer" if trace else "end_to_end"]
        want = {entry["name"]: entry["unit"] for entry in declared}
        have = {name: entry["unit"]
                for name, entry in line["metrics"].items()}
        assert have == want, (workload, trace)
        for entry in line["metrics"].values():
            assert set(entry) == {"value", "unit"}
            assert isinstance(entry["value"], (int, float))
        assert line["correct"] is True, (workload, trace)
        assert line["failed"] == 0 and line["attempted"] >= 1
        if not trace:
            assert all(entry["value"] > 0
                       for entry in line["metrics"].values()), workload


def test_acceptance_counts(smoke):
    lines, directory = smoke
    assert lines["serve_kill", 1]["metrics"]["serve.restarts"]["value"] == 2
    assert lines["serve_kill", 1]["metrics"][
        "serve.redeliveries"]["value"] > 0
    for workload in ("serve_smallbatch", "serve_bigbatch"):
        metrics = lines[workload, 1]["metrics"]
        assert metrics["serve.restarts"]["value"] == 0
    for workload, ratio in (("compile_cold", 0), ("compile_warm", 1)):
        metrics = lines[workload, 1]["metrics"]
        assert metrics["cache.hit_ratio"]["value"] == ratio
    for path in directory.glob("*.t1.*.json"):
        run = json.loads(path.read_text())
        assert run["unattributed_share"] < 0.05, path.name
        assert abs(sum(run["self_time_s"].values())
                   - run["traced_wall_s"]) < 1e-6 * run["traced_wall_s"]
    trace = json.loads((directory / "trace-serve_kill.json").read_text())
    assert trace["traceEvents"] and "selfTime" in trace


def test_results_echo_seed_and_environment(smoke):
    _, directory = smoke
    run = json.loads(next(directory.glob(
        "serve_bigbatch.t0.*.json")).read_text())
    assert run["seed"] == 3
    assert run["environment"]["nproc"] >= 1
    assert run["environment"]["python"]
    assert run["sizes"]["packets"] > 0 and run["sizes"]["shards"] == 2


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(CONTRACT, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "sim_steady", "--trace", "0", "--seed",
                     "1", cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_a_tampered_serve_delta_is_a_failed_op():
    """Through ``compare_deltas``: the batch that differs from the oracle
    is counted failed, the others attempted and fine."""
    from repro.apps.suite import build_app
    from repro.serve import ServeReport, compare_deltas, shard_oracle

    from serving import ServeConfig, account, shard_batches
    from stats import Ledger

    config = ServeConfig("ipv4", shards=1, degree=1, batch=4, packets=24,
                         seed=5)
    app = build_app("ipv4", packets=config.packets, seed=config.seed)
    batches = shard_batches(app.stream(), config)[0]
    oracle = shard_oracle(app, batches)
    committed = {seq: copy.deepcopy(delta)
                 for seq, delta in enumerate(oracle, start=1)}
    victim = next(seq for seq, delta in committed.items()
                  if delta["traces"] or delta["tx"])
    if committed[victim]["traces"]:
        tag = next(iter(committed[victim]["traces"]))
        committed[victim]["traces"][tag] = [0xBAD]
    else:
        committed[victim]["tx"] = []
    report = ServeReport(
        app="ipv4", shards=1, degree=1, batch=4, packets=24, seed=5,
        counters={"batches": len(batches), "restarts": 0,
                  "redeliveries": 0},
        shard_stats=[{"shard": 0, "batches": len(batches),
                      "committed": len(batches)}],
        mismatches=compare_deltas(0, oracle, committed), verified=True)
    assert report.mismatches
    ledger = Ledger()
    account(report, config, ledger, pass_index=0)
    assert len(ledger.attempted) == len(batches)
    assert set(ledger.failed) == {(0, 0, victim)}
    # An unverified run fails every batch of the pass.
    report.verified = False
    account(report, config, ledger, pass_index=1)
    assert len(ledger.failed) == 1 + len(batches)


def test_a_non_equivalent_observation_is_a_failed_op():
    """Through ``assert_equivalent``: a pipelined run that observes
    something else than its sequential run is a failed cell, and its
    time is not reported."""
    import repro

    from programs import random_feeder
    from simulating import SimGroup, simulate
    from spans import Recorder
    from stats import Ledger

    module = repro.compile_module("""
        pipe in_q;
        pipe out_q;
        pps double {
            for (;;) {
                int x = pipe_recv(in_q);
                trace(1, x);
                pipe_send(out_q, x * 2 + 1);
            }
        }
    """)
    stages = repro.pipeline_pps(module, "double", 2).stages
    honest = random_feeder(seed=1, packets=12)
    feeds = iter([honest, random_feeder(seed=2, packets=12)])

    def drifting(module):
        # The pipelined run is fed different words than the sequential.
        return next(feeds)(module)

    def key(group, degree):
        return (group.name, degree)

    ledger = Ledger()
    bad = SimGroup("drift", module, module.pps("double"), drifting,
                   {2: stages}, sequential_is_cell=False)
    result = simulate(Recorder(False), [bad], ledger, key)
    assert set(ledger.failed) == {("drift", 2)}
    assert result.cell_seconds == []

    ledger = Ledger()
    good = SimGroup("steady", module, module.pps("double"), honest,
                    {2: stages}, sequential_is_cell=False)
    result = simulate(Recorder(False), [good], ledger, key)
    assert not ledger.failed and len(result.cell_seconds) == 1


def test_compare_verdicts(smoke, tmp_path):
    _, directory = smoke

    def compare(parent, change) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "bench/compare.py", str(parent), str(change)],
            cwd=ROOT, capture_output=True, text=True, timeout=60)

    same = compare(directory, directory)
    assert same.returncode == 0, same.stdout + same.stderr
    assert " ok" in same.stdout and "worse" not in same.stdout

    def altered(name: str, edit) -> Path:
        target = tmp_path / name
        shutil.copytree(directory, target)
        for path in target.glob("sim_steady.t0.*.json"):
            run = json.loads(path.read_text())
            edit(run)
            path.write_text(json.dumps(run))
        return target

    def slower(run):
        run["line"]["metrics"]["pass_s"]["value"] *= 1.5

    def other_count(run):
        run["exact"]["runtime.instructions"] += 1

    def other_length(run):
        run["environment"]["seconds"] *= 2

    worse = compare(directory, altered("slower", slower))
    assert worse.returncode == 1 and "worse" in worse.stdout
    broken = compare(directory, altered("other", other_count))
    assert broken.returncode == 2 and "EXACT" in broken.stdout
    longer = compare(directory, altered("longer", other_length))
    assert longer.returncode == 2 and "seconds" in longer.stdout
