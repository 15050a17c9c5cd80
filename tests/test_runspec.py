"""One description of a run (src/repro/runspec.py).

* the same description names the same pipeline — and so the same cache
  entry — whichever command partitions it (``plan``, ``chaos``,
  ``serve``);
* the compile key hashes exactly :class:`Knobs` and the profiles (the
  digests below are pinned; ``incremental`` is accepted, not hashed);
* ``Knobs()`` *is* the default of every signature that still spells a
  knob out (the ones ``bench/`` calls by keyword).
"""

from __future__ import annotations

import dataclasses
import inspect
import pickle

from repro.cache import CACHE_SCHEMA_VERSION, CompileCache, compile_key
from repro.eval.chaos import chaos_differential
from repro.eval.sweep import plan_partitions
from repro.pipeline.cuts import select_stages
from repro.pipeline.verify import verify_partition
from repro.runspec import Knobs, RunSpec, app_pipeline
from repro.serve import ServePolicy, ServeRuntime

PACKETS, SEED = 24, 7


def _objects(cache) -> int:
    return len(list((cache.root / "objects").glob("*/*.bin")))


def test_plan_chaos_and_serve_share_one_pipeline_per_description(tmp_path):
    """ip_v4 has two traffic classes: its partition is balanced by the
    app's profiler everywhere, so what ``plan`` stored is what ``chaos``
    and ``serve`` look up — no second pipeline under the same name."""
    root = tmp_path / "cache"
    plan_partitions(["ip_v4"], [2, 4], packets=PACKETS, seed=SEED,
                    cache=CompileCache(root))

    chaos_cache = CompileCache(root)
    report = chaos_differential("ip_v4", degrees=(2, 4), packets=PACKETS,
                                seed=SEED, cache=chaos_cache)
    assert report.ok, report.render()
    counters = chaos_cache.counters()
    assert (counters["hits"], counters["misses"], counters["stores"]) == \
        (2, 0, 0)

    serve_cache = CompileCache(root)
    before = _objects(serve_cache)
    served = ServeRuntime(
        "ip_v4", shards=2, degree=2, packets=PACKETS, seed=SEED,
        policy=ServePolicy(backoff_base=0.01, backoff_cap=0.05),
        cache=serve_cache).run()
    assert served.ok, served.render()
    assert _objects(serve_cache) == before
    assert serve_cache.counters()["misses"] == 0


#: D = 4, packets 60, seed 7, default knobs (ip_v4's key hashes its
#: traffic-class profiles).  Re-pinned at schema v6, when the per-cut
#: diagnostics lost the warm-start flag.
PINNED_KEYS = {
    "ipv4": "ee9a47325d04409fa8f0f8df18d86c6a"
            "fdaab709d0150e869ad86798131faa34",
    "rx": "c6dc5aaf207aadbfa1a044b84c919d32"
          "20931b62126f7a8406fe03751730a7a2",
    "ip_v4": "bba87e9467a0f75d9db36b5abebb9854"
             "8f3208012f626d9a9e599bab37111498",
}


def test_compile_keys_did_not_move(tmp_path):
    assert CACHE_SCHEMA_VERSION == 6
    for name, digest in PINNED_KEYS.items():
        cache = CompileCache(tmp_path / name)
        app_pipeline(RunSpec(name, 60, 7).build(), 4, cache=cache)
        (entry,) = (cache.root / "objects").glob("*/*.bin")
        assert entry.stem == digest, name


def test_knobs_are_the_defaults_of_every_spelled_out_signature():
    knobs = Knobs()
    fields = [field.name for field in dataclasses.fields(Knobs)]
    key_keywords = [
        name for name, parameter
        in inspect.signature(compile_key).parameters.items()
        if parameter.kind is inspect.Parameter.KEYWORD_ONLY]
    # ``incremental`` is the only keyword outside Knobs ∪ {profiles} —
    # kept for the frozen bench/compiling.py — and it is not hashed.
    assert key_keywords == fields + ["profiles", "incremental"]
    app = RunSpec("rx", 8, 7).build()
    assert (compile_key(app.module, app.pps_name, 4, **vars(knobs),
                        incremental=True)
            == compile_key(app.module, app.pps_name, 4, **vars(knobs),
                           incremental=False)
            == compile_key(app.module, app.pps_name, 4, **vars(knobs)))

    def defaults(function):
        return {name: parameter.default for name, parameter
                in inspect.signature(function).parameters.items()
                if name in fields + ["incremental"]}

    assert defaults(select_stages) == {
        "costs": knobs.costs, "epsilon": knobs.epsilon,
        "incremental": True}
    assert defaults(verify_partition) == {"epsilon": knobs.epsilon}
    assert knobs.epsilon == 1.0 / 16.0      # the paper's balance variance


def test_run_spec_round_trips_through_pickle():
    spec = RunSpec("rx", 8, 7, (2, 3), Knobs(epsilon=0.125), "/tmp/c")
    assert pickle.loads(pickle.dumps(spec)) == spec
