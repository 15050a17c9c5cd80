"""Smoke target for the performance harness: one quick degree sweep.

Runs :func:`repro.eval.metrics.bench_headline` at reduced scale (few
packets, degrees 1-3) and checks the report shape that
``repro bench`` serializes to ``BENCH_headline.json``.  Fast enough to run
on every change: ``pytest benchmarks/test_bench_smoke.py``.
"""

import json

from repro.eval.metrics import bench_headline


def test_bench_smoke(benchmark):
    report = benchmark.pedantic(
        lambda: bench_headline(packets=12, degrees=[1, 2, 3]),
        rounds=1, iterations=1)

    json.dumps(report)  # must be serializable as written by `repro bench`
    assert report["config"]["degrees"] == [1, 2, 3]
    assert report["build_seconds"] > 0
    assert report["partition_seconds"] > 0
    assert report["compile_seconds"] > 0

    for figure in ("figure19", "figure20"):
        entry = report["figures"][figure]
        assert entry["wall_seconds"] > 0
        assert entry["simulated_instructions"] > 0
        for name in entry["apps"]:
            series = entry["speedup_by_degree"][name]
            assert series[1] == 1.0
            assert set(series) == {1, 2, 3}

    headline = report["headline_speedup_degree3"]
    assert headline["ipv4"] > 1.0
