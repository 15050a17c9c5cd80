"""One description of a run (src/repro/runspec.py).

* the same description names the same pipeline — and so the same cache
  entry — whichever command partitions it (``plan``, ``chaos``,
  ``serve``);
* folding the six knob keywords into :class:`Knobs` moved no compile
  key;
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


#: D = 4, packets 60, seed 7, default knobs — computed before ``Knobs``
#: existed (ip_v4's key hashes its traffic-class profiles).
PINNED_KEYS = {
    "ipv4": "65d6c91dc3895f5e582accd6a597adab"
            "37d6865d8eee0fe1f8c1effc8e154e88",
    "rx": "f26e8f9c030d26d855a4801ddaa96c79"
          "15632bfb538abc0cafd443f9a570d221",
    "ip_v4": "5abc5916258374216f7f4902c764cd6d"
             "83cad1c4f3b568e426ac39e6305dd6f4",
}


def test_compile_keys_did_not_move(tmp_path):
    assert CACHE_SCHEMA_VERSION == 4
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
    assert key_keywords == fields + ["profiles"]

    def defaults(function):
        return {name: parameter.default for name, parameter
                in inspect.signature(function).parameters.items()
                if name in fields}

    assert defaults(select_stages) == {
        "costs": knobs.costs, "epsilon": knobs.epsilon,
        "incremental": knobs.incremental}
    assert defaults(verify_partition) == {"epsilon": knobs.epsilon}
    assert knobs.epsilon == 1.0 / 16.0      # the paper's balance variance


def test_run_spec_round_trips_through_pickle():
    spec = RunSpec("rx", 8, 7, (2, 3), Knobs(epsilon=0.125), "/tmp/c")
    assert pickle.loads(pickle.dumps(spec)) == spec
