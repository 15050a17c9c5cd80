"""One description of a run (src/repro/runspec.py).

* the same description names the same pipeline — and so the same cache
  entry — whichever command partitions it (``explore``, ``serve``);
* the compile key hashes exactly :class:`Knobs` and the profiles (the
  digests below are pinned; ``incremental`` is accepted, not hashed);
* ``Knobs()`` *is* the default of every signature that still spells a
  knob out (the ones ``bench/`` calls by keyword).
"""

from __future__ import annotations

import dataclasses
import inspect
import pickle

import pytest

from repro.cache import CACHE_SCHEMA_VERSION, CompileCache, compile_key
from repro.eval.explore import SearchSpace, explore
from repro.pipeline.cuts import select_stages
from repro.pipeline.verify import verify_partition
from repro.runspec import Knobs, RunSpec, app_pipeline
from repro.serve import ServeRuntime

PACKETS, SEED = 24, 7


def _objects(cache) -> int:
    return len(list((cache.root / "objects").glob("*/*.bin")))


def test_plan_chaos_and_serve_share_one_pipeline_per_description(tmp_path):
    """ip_v4 has two traffic classes: its partition is balanced by the
    app's profiler everywhere, so what ``explore`` stored is what
    ``app_pipeline`` and ``serve`` look up — no second pipeline under
    the same name."""
    root = tmp_path / "cache"
    explore(SearchSpace(apps=("ip_v4",), degrees=(2, 4), packets=PACKETS,
                        seed=SEED), cache=CompileCache(root))
    assert _objects(CompileCache(root)) == 2

    lookup_cache = CompileCache(root)
    app = RunSpec("ip_v4", PACKETS, SEED).build()
    for degree in (2, 4):
        app_pipeline(app, degree, cache=lookup_cache)
    counters = lookup_cache.counters()
    assert (counters["hits"], counters["misses"], counters["stores"]) == \
        (2, 0, 0)

    serve_cache = CompileCache(root)
    before = _objects(serve_cache)
    served = ServeRuntime(
        "ip_v4", shards=2, degree=2, packets=PACKETS, seed=SEED,
        cache=serve_cache).run()
    assert served.ok, served.render()
    assert _objects(serve_cache) == before
    assert serve_cache.counters()["misses"] == 0


def test_plan_then_chaos_through_the_cli_stores_nothing_new(tmp_path,
                                                            monkeypatch):
    """``repro explore`` runs every cell at the ``--seed`` as given, so
    ``repro serve`` at the same packets, seed and degree looks up the
    entry explore stored — 1 hit, 0 misses — and solves nothing."""
    from repro import cli

    opened = []     # the cache each command opened, counters and all
    real_open_cache = cli._open_cache

    def open_cache(args):
        opened.append(real_open_cache(args))
        return opened[-1]

    monkeypatch.setattr(cli, "_open_cache", open_cache)
    root = tmp_path / "cache"
    shared = ["--packets", str(PACKETS), "--seed", str(SEED),
              "--cache-dir", str(root)]
    assert cli.main(["explore", "--apps", "ip_v4", "--degrees", "2,4",
                     *shared, "-o", str(tmp_path / "out")]) == 0
    stored = _objects(CompileCache(root))
    assert stored == 2
    assert cli.main(["serve", "--app", "ip_v4", "-d", "2", "--shards", "2",
                     *shared]) == 0
    assert _objects(CompileCache(root)) == stored
    counters = opened[-1].counters()
    assert (counters["hits"], counters["misses"]) == (1, 0)


#: D = 4, packets 60, seed 7, default knobs (ip_v4's key hashes its
#: traffic-class profiles).  Re-pinned at schema v8, when every array
#: access became loop-carried.
PINNED_KEYS = {
    "ipv4": "7ee121a69f56b0cf04daae255574840e"
            "02b7a43905469bd9218f00ca2284bb7d",
    "rx": "9f92c86ec9108660c88a92c25c784118"
          "794345e12914396cc42f7b693046fe43",
    "ip_v4": "b3a686dc5df31846acdf5b59233d14d0"
             "c75027dff5ad22adab86907ff8fb04d0",
}


def test_compile_keys_did_not_move(tmp_path):
    assert CACHE_SCHEMA_VERSION == 8
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


@pytest.mark.parametrize("field, value, message", [
    ("epsilon", float("nan"), "epsilon must be finite and > 0"),
    ("epsilon", float("inf"), "epsilon must be finite and > 0"),
    ("epsilon", 0.0, "epsilon must be finite and > 0"),
    ("epsilon", -1.0, "epsilon must be finite and > 0"),
    ("max_block_instructions", -1, "max_block_instructions must be"),
    ("max_block_instructions", 1.5, "max_block_instructions must be"),
])
def test_knobs_check_their_own_fields(field, value, message):
    """A knob no partition can honour is refused where it is defined:
    with a NaN ε, rx at degree 4 partitions into stage weights
    [348, 0, 0, 1]."""
    with pytest.raises(ValueError, match=message):
        Knobs(**{field: value})
    assert Knobs(max_block_instructions=0).max_block_instructions == 0
