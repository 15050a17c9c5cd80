#!/usr/bin/env python3
"""Run the repo benchmark: six workloads, from PPS-C source to verified
served packets.

    python3 bench/run.py                      # every workload, untraced
                                              # then traced
    python3 bench/run.py --workload sim_steady --trace 0
    python3 bench/run.py --workload serve_kill --seed 11 --trace 1

Each run executes in a fresh child interpreter, one at a time.  Every
output is checked (partition verifier, sequential equivalence, the serve
oracle); a wrong output is a failed op, never a timed success.  The last
line printed for a run is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  Results
and traces land in ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from env import (
    BENCH,
    CONTRACT,
    DEFAULT_SEED,
    HELD_OUT_SEED,
    OUT,
    SRC,
    require_src,
)

#: A child that has not finished by then is killed (the contract allows
#: a run 180 s).
CHILD_TIMEOUT_S = 170


def spawn(arguments: list, tmp: Path) -> None:
    """Run one child to completion in its own process group, and leave
    nothing of the group behind — on success, failure or Ctrl-C."""
    environment = dict(os.environ, TMPDIR=str(tmp), PYTHONPATH=str(SRC),
                       PYTHONHASHSEED="0")
    child = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), *arguments],
        env=environment, stdout=sys.stderr, start_new_session=True)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        # Serve workers are the child's children: take the whole group.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if code != 0:
        raise SystemExit(f"bench: child exited with code {code}")


def run_once(workload: str, seed: int, seconds: float, trace: int,
             scale: float, out: Path) -> dict:
    """One run in a fresh interpreter; its cache, journal and scratch
    directories live under one tmp dir that is removed afterwards."""
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        arguments = [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds * scale), "--trace", str(trace),
            "--scale", str(scale), "--tmp", str(tmp),
            "--result", str(tmp / "result.json"),
            "--spawned-at", repr(time.time())]
        if trace:
            arguments += ["--trace-out", str(out / f"trace-{workload}.json")]
        spawn(arguments, tmp)
        return json.loads((tmp / "result.json").read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_names(kind: str, printed: dict, declared: list) -> None:
    """The printed names and units are the contract's, both ways."""
    want = {entry["name"]: entry["unit"] for entry in declared}
    have = {name: entry["unit"] for name, entry in printed.items()}
    if want != have:
        missing = sorted(set(want) - set(have))
        extra = sorted(set(have) - set(want))
        units = sorted(name for name in set(want) & set(have)
                       if want[name] != have[name])
        raise SystemExit(
            f"bench: {kind} metrics differ from BENCHMARK.json: "
            f"missing {missing}, undeclared {extra}, unit mismatch {units}")


def report(result: dict, contract: dict, environment: dict) -> dict:
    """Print one run for people, then the contract's line."""
    trace = result["trace"]
    metrics = dict(result["metrics"])
    if not trace:
        metrics["setup_s"] = {"value": result["setup_s"], "unit": "s",
                              "n": 1}
    check_names("per_layer" if trace else "end_to_end", metrics,
                contract["per_layer" if trace else "end_to_end"])
    correct = result["failed"] == 0 and not result["problems"]
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"{'traced' if trace else 'untraced'}  "
          f"({environment['nproc']} cores, python "
          f"{environment['python']})")
    print(f"   sizes: {json.dumps(result['sizes'], sort_keys=True)}")
    share = result["failed"] / max(1, result["attempted"])
    print(f"   ops_failed_share {share:.6g} ratio  "
          f"(failed {result['failed']} / attempted {result['attempted']})")
    for line in result["failures"] + result["problems"]:
        print(f"   FAILED {line}")
    for name, values in result["raw"].items():
        print(f"   as measured: {name} "
              f"{' '.join(f'{value:.3f}' for value in values)}")
    for title, table in (("metrics", metrics),
                         ("the issue's names (not judged)",
                          result["named"])):
        if table:
            print(f"   -- {title}")
        for name, entry in table.items():
            print(f"   {name:34s} {entry['value']:>16.6f} "
                  f"{entry['unit']:6s} n={entry['n']}")
    if trace:
        wall = result["traced_wall_s"]
        print(f"   -- self time of the benchmark's spans "
              f"(traced wall {wall:.3f} s, unattributed "
              f"{result['unattributed_share']:.2%})")
        for name, seconds in list(result["self_time_s"].items())[:12]:
            print(f"   {name:34s} {seconds:>16.6f} s      "
                  f"{seconds / wall:6.1%}")
    line = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()},
    }
    result["line"] = line
    result["environment"] = environment
    return line


def save(result: dict, out: Path) -> Path:
    stem = f"{result['workload']}.t{result['trace']}.s{result['seed']}"
    index = 0
    while (path := out / f"{stem}.{index}.json").exists():
        index += 1
    path.write_text(json.dumps(result, indent=1, sort_keys=True))
    return path


def main(argv=None) -> int:
    contract = json.loads(CONTRACT.read_text())
    names = [entry["name"] for entry in contract["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out for claims)")
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="how long a run measures: the contract's "
                             "run_seconds, which its driver passes")
    parser.add_argument("--trace", choices=("0", "1", "both"),
                        default="both")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink packet and program counts and the "
                             "measured seconds alike (smoke runs)")
    parser.add_argument("--set", default="latest", metavar="NAME",
                        help="result set: bench/out/NAME/")
    args = parser.parse_args(argv)

    require_src()
    out = OUT / args.set
    out.mkdir(parents=True, exist_ok=True)
    environment = {"nproc": os.cpu_count(),
                   "python": platform.python_version(),
                   "machine": platform.platform(),
                   "scale": args.scale, "seconds": args.seconds}
    workloads = names if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    correct = True
    for workload in workloads:
        for trace in traces:
            result = run_once(workload, args.seed, args.seconds, trace,
                              args.scale, out)
            line = report(result, contract, environment)
            path = save(result, out)
            print(f"   saved {path.relative_to(BENCH.parent)}")
            print(json.dumps(line), flush=True)
            correct = correct and line["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
