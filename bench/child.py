"""One run of one workload, in a fresh interpreter.

The driver (``run.py``) starts one of these at a time, so every run has
clean in-process memo state and its own ``ru_maxrss``.  The child sets
the workload up, measures or traces it, and writes its result as JSON
for the driver to print.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from time import perf_counter


def main(argv=None) -> int:
    born = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() when the driver started this "
                             "child: set-up is timed from there")
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    from env import require_src
    from probe import Sampler
    from spans import Recorder
    from stats import Ledger

    require_src()
    # End-to-end times are reported at reference speed; the per-layer
    # times of a traced run stay as measured.
    speed = None if args.trace else Sampler()
    if speed is not None:
        speed.start()
    rec = Recorder(bool(args.trace), args.workload,
                   f"{args.workload}-seed{args.seed}")
    ledger = Ledger()
    with rec.span("run"):
        with rec.span("setup"):
            with rec.span("setup.import"):
                import repro  # noqa: F401
                import repro.eval.metrics  # noqa: F401
                import repro.serve  # noqa: F401
                import repro.testing.progen  # noqa: F401
                from workloads import WORKLOADS

            workload = WORKLOADS[args.workload](
                args.seed, args.scale, args.tmp, ledger, speed)
            workload.setup(rec)
        # Child start -> first timed region, across the process boundary.
        setup_wall = time.time() - args.spawned_at
        slowdown = (1.0 if speed is None
                    else speed.slowdown(born, perf_counter()))
        result = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "setup_s": setup_wall / slowdown,
                  "setup_wall_s": setup_wall, "setup_slowdown": slowdown}
        start = perf_counter()
        measured = (workload.trace(rec) if args.trace
                    else workload.measure(args.seconds))
        result.update({
            "measure_wall_s": perf_counter() - start,
            "metrics": measured.metrics,
            # The issue's names are medians over passes; a traced run has
            # one reference pass, so it does not print them.
            "named": {} if args.trace else measured.named,
            "exact": measured.exact,
            "sizes": measured.sizes,
            "problems": measured.problems,
            "raw": measured.raw,
        })
    if speed is not None:
        speed.stop()
    failures = sorted(ledger.failed.items(), key=repr)
    result.update({
        "attempted": len(ledger.attempted),
        "failed": len(ledger.failed),
        "failures": [f"{key}: {note}" for key, note in failures[:20]],
    })
    if args.trace:
        table = rec.self_times()
        wall = rec.total("run")
        result["self_time_s"] = dict(sorted(
            table.items(), key=lambda item: -item[1]))
        result["traced_wall_s"] = wall
        result["unattributed_share"] = table["run"] / wall
        if args.trace_out is not None:
            trace = rec.chrome_trace()
            trace["selfTime"] = result["self_time_s"]
            args.trace_out.write_text(json.dumps(trace))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
