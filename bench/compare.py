#!/usr/bin/env python3
"""Compare two result sets of ``bench/run.py`` under the benchmark's bounds.

    python3 bench/compare.py bench/out/parent bench/out/change

One row per (workload, end-to-end metric): each side's median and
quartiles and a verdict —

* ``ok``          the change's median is no worse than the parent's by
                  more than the metric's bound;
* ``worse``       it is (exit code 1);
* ``unresolved``  either side's spread (quartile distance over median) is
                  wider than the bound, so the runs cannot tell — unless
                  every run of one side beats every run of the other.

The bounds are the ones in ``BENCHMARK.json`` and nowhere else.

Exact values are not statistics: ``model_*`` and the exact counts
(``runtime.instructions``, ``flownet.pr_work``, ``serve.batches``, ...)
must be identical wherever both sets ran the same workload with the same
seed, no run may have a failed op, and every run of both sets must have
measured for the same ``--seconds`` at the same ``--scale``; otherwise
the comparison fails outright (exit code 2).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from env import CONTRACT

#: Per-layer counts that a given seed must reproduce bit for bit.
EXACT_LAYER_COUNTS = (
    "lang.source_bytes", "ir.instructions", "flownet.pr_work",
    "flownet.cut_iterations", "pipeline.attempts",
    "pipeline.degraded_cells", "pipeline.live_words",
    "pipeline.longest_stage_weight", "runtime.tcc_functions",
    "runtime.instructions", "serve.batches",
)


def load(directory: Path) -> list:
    runs = [json.loads(path.read_text())
            for path in sorted(directory.glob("*.json"))
            if not path.name.startswith("trace-")]
    if not runs:
        raise SystemExit(f"compare: no results in {directory}")
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def verdict(parent: list, change: list, better: str, bound: float) -> tuple:
    """(verdict, parent quartiles, change quartiles)."""
    p_low, p_mid, p_high = quartiles(parent)
    c_low, c_mid, c_high = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (c_mid - p_mid) / abs(p_mid) if p_mid else 0.0
    spread = max((p_high - p_low) / abs(p_mid) if p_mid else 0.0,
                 (c_high - c_low) / abs(c_mid) if c_mid else 0.0)
    if spread > bound:
        change_wins = (max(change) < min(parent) if better == "lower"
                       else min(change) > max(parent))
        parent_wins = (max(parent) < min(change) if better == "lower"
                       else min(parent) > max(change))
        word = ("ok" if change_wins else
                "worse" if parent_wins and worse_by > bound else
                "unresolved")
    else:
        word = "worse" if worse_by > bound else "ok"
    return word, (p_low, p_mid, p_high), (c_low, c_mid, c_high)


def exact_view(run: dict) -> dict:
    """Everything in one run that must repeat exactly for its seed."""
    view = dict(run.get("exact", {}))
    if run["trace"]:
        for name in EXACT_LAYER_COUNTS:
            view[name] = run["metrics"][name]["value"]
    return view


def check_exact(sets: dict) -> list:
    """Mismatches of exact values between any two runs of one
    (workload, trace, seed), within or across the sets."""
    seen: dict = {}
    problems = []
    settings = {(run["environment"]["seconds"], run["environment"]["scale"])
                for runs in sets.values() for run in runs}
    if len(settings) > 1:
        problems.append(f"runs differ in (seconds, scale): "
                        f"{sorted(settings)}")
    for label, runs in sets.items():
        for run in runs:
            if run["failed"] or run["problems"]:
                problems.append(
                    f"{label}: {run['workload']} seed {run['seed']}: "
                    f"{run['failed']} failed ops, "
                    f"{len(run['problems'])} determinism breaks")
            key = (run["workload"], run["trace"], run["seed"])
            view = exact_view(run)
            if key not in seen:
                seen[key] = (label, view)
                continue
            first_label, first = seen[key]
            for name in sorted(set(first) | set(view)):
                if first.get(name) != view.get(name):
                    problems.append(
                        f"{run['workload']} seed {run['seed']}: exact "
                        f"{name} differs: {first.get(name)!r} "
                        f"({first_label}) vs {view.get(name)!r} ({label})")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    contract = json.loads(CONTRACT.read_text())
    rules = {entry["name"]: (entry["better"], entry["bound"])
             for entry in contract["end_to_end"]}
    sets = {"parent": load(args.parent), "change": load(args.change)}

    # values[side][(workload, metric)] -> one value per untraced run
    values = {side: defaultdict(list) for side in sets}
    for side, runs in sets.items():
        for run in runs:
            if run["trace"]:
                continue
            for name, entry in run["line"]["metrics"].items():
                values[side][run["workload"], name].append(entry["value"])

    status = 0
    print(f"{'workload':17s} {'metric':26s} {'bound':>5s}  "
          f"{'parent q1 / median / q3':>34s}  "
          f"{'change q1 / median / q3':>34s}  verdict")
    order = [entry["name"] for entry in contract["workloads"]]
    for workload, name in sorted(
            set(values["parent"]) & set(values["change"]),
            key=lambda pair: (order.index(pair[0]), pair[1])):
        better, bound = rules[name]
        word, parent, change = verdict(values["parent"][workload, name],
                                       values["change"][workload, name],
                                       better, bound)
        if word == "worse":
            status = 1
        print(f"{workload:17s} {name:26s} {bound:5.2g}  "
              f"{parent[0]:10.4g} / {parent[1]:10.4g} / {parent[2]:10.4g}  "
              f"{change[0]:10.4g} / {change[1]:10.4g} / {change[2]:10.4g}  "
              f"{word}")
    problems = check_exact(sets)
    for problem in problems:
        print(f"EXACT {problem}")
    if problems:
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
