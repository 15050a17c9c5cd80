#!/usr/bin/env python3
"""The NPF IPv4 forwarding PPS, auto-pipelined at increasing degrees.

Reproduces one line of the paper's Figure 19: speedup of the IPv4
forwarding PPS for pipelining degrees 1..9, measured as instructions for
a minimum-size (48-byte POS) packet in the longest stage, with the
observable behaviour checked against the sequential run each time.

Run:  python examples/ipv4_forwarding.py
"""

from repro.apps.suite import build_app
from repro.eval.metrics import measure_pipeline, measure_sequential


def main():
    app = build_app("ipv4", packets=60)
    print(f"app: {app.description}")
    print(f"source: {len(app.source.splitlines())} lines of PPS-C")

    baseline = measure_sequential(app)
    print(f"sequential cost: {baseline.per_packet:.0f} instructions per "
          f"min-size packet\n")

    print(f"{'degree':>6s} {'longest':>8s} {'speedup':>8s} {'overhead':>9s} "
          f"{'bottleneck':>11s}  per-stage instructions")
    for degree in range(1, 10):
        m = measure_pipeline(app, degree, baseline=baseline)
        stages = " ".join(f"{v:.0f}" for v in m.per_stage)
        bottleneck = m.per_stage.index(max(m.per_stage)) + 1
        print(f"{degree:6d} {m.longest_stage:8.0f} {m.speedup:7.2f}x "
              f"{m.overhead_ratio:9.3f} {bottleneck:11d}  [{stages}]")

    nine = measure_pipeline(app, 9, baseline=baseline)
    print(f"\nheadline check: {nine.speedup:.2f}x at a 9-stage pipeline "
          f"(paper: more than 4x) "
          f"{'✔' if nine.speedup > 4 else '✘'}")


if __name__ == "__main__":
    main()
