#!/usr/bin/env python3
"""How the inter-stage channel's cost shapes the partition.

The paper's VCost/CCost (flow-network edge weights) come from the target
channel: nearest-neighbor rings are nearly free, scratch rings cost an
order of magnitude more per enqueue/dequeue.  This example pipelines the
TX PPS over each channel kind — including a custom exotic one — and shows
the speedup and transmission overhead reacting.

Run:  python examples/cost_models.py
"""

import repro
from repro.apps.suite import build_app
from repro.eval.metrics import measure_pipeline, measure_sequential

DEGREE = 5

EXOTIC = repro.CostModel(
    name="pcie-mailbox",    # something much worse than any IXP ring
    vcost_per_word=10,
    ccost=10,
    send_fixed=30,
    send_per_word=4,
    recv_fixed=30,
    recv_per_word=4,
)


def main():
    app = build_app("tx", packets=60)
    baseline = measure_sequential(app)
    print(f"TX PPS, sequential: {baseline.per_packet:.0f} instructions "
          f"per min-size packet\n")

    print(f"{'channel':15s} {'speedup':>8s} {'overhead':>9s} "
          f"{'message words':>14s}")
    for costs in (repro.NN_RING, repro.SCRATCH_RING, repro.SRAM_RING, EXOTIC):
        m = measure_pipeline(app, DEGREE, baseline=baseline,
                             knobs=repro.Knobs(costs=costs))
        print(f"{costs.name:15s} {m.speedup:7.2f}x {m.overhead_ratio:9.3f} "
              f"{str(m.message_words):>14s}")


if __name__ == "__main__":
    main()
