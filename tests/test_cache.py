"""The content-addressed compilation-artifact cache (src/repro/cache).

Covers the ISSUE 4 acceptance contract:

* key sensitivity — any change to the source text, the degree, or the
  cost table moves the artifact to a new address (property-tested);
* hit fidelity — for every suite app at D in {2, 4, 8}, the cache-hit
  result is bit-identical to a fresh compile under a canonical
  serialization (raw pickle bytes are NOT canonical: sets serialize in
  insertion-history order);
* corruption — truncated / bit-flipped / wrong-schema / misfiled
  entries are discarded with a RuntimeWarning and counted, never
  deserialized and never fatal; a well-enveloped record that does not
  stage exactly the program's body blocks is a warned, recomputed miss;
* atomicity — concurrent writers racing on one key never expose a torn
  entry to a concurrent reader.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.suite import build_app
from repro.cache import (
    CompileCache,
    canonical_pps_text,
    compile_key,
    default_cache_dir,
    resolve_cache,
)
from repro.ir.printer import format_function
from repro.machine.costs import NN_RING, SCRATCH_RING, CostModel
from repro.pipeline.liveset import Strategy
from repro.pipeline.transform import pipeline_pps

from helpers import STANDARD_PPS, compile_module

_KEY_KNOBS = dict(costs=NN_RING, epsilon=1.0 / 16.0,
                  strategy=Strategy.PACKED, interference="exact",
                  max_block_instructions=12)


def _key(module, degree=2, **overrides):
    knobs = dict(_KEY_KNOBS)
    knobs.update(overrides)
    return compile_key(module, "worker", degree, **knobs)


def canonical_artifact_bytes(result) -> bytes:
    """A deterministic byte serialization of everything a consumer of a
    :class:`PipelineResult` can observe."""
    parts = [result.pps_name, str(result.degree), result.strategy.value,
             result.costs.name]
    for stage in result.stages:
        parts.append(f"stage {stage.index}")
        parts.append(stage.in_pipe.name if stage.in_pipe else "-")
        parts.append(stage.out_pipe.name if stage.out_pipe else "-")
        parts.append(repr(sorted(stage.local_blocks)))
        parts.append(format_function(stage.function))
    for layout in result.layouts:
        parts.append(f"cut {layout.cut_index} slots={layout.slot_count}")
        parts.append(repr(layout.targets))
        parts.append(repr(sorted(layout.edges.items())))
        parts.append(repr(sorted(
            (target, [str(reg) for reg in regs])
            for target, regs in layout.live_sets.items())))
        parts.append(repr([str(reg) for reg in layout.variables]))
        parts.append(repr(sorted(
            (str(reg), slot) for reg, slot in layout.slot_of.items())))
    parts.append(format_function(result.normalized))
    parts.append(repr(sorted(result.stage_weights.items())))
    for diag in result.assignment.diagnostics:
        parts.append(f"cut {diag.stage}: target={diag.target!r} "
                     f"weight={diag.weight} cost={diag.cut_value} "
                     f"balanced={diag.balanced}")
    return "\n".join(parts).encode("utf-8")


# -- keys -------------------------------------------------------------------


def test_identical_inputs_identical_key():
    a = compile_module(STANDARD_PPS, optimize=True)
    b = compile_module(STANDARD_PPS, optimize=True)
    assert _key(a) == _key(b)


def test_canonical_text_ignores_realized_stage_pipes():
    """Partitioning registers <pps>.xferN pipes on the module; a second
    partition of the same module must still hit the first's entry."""
    module = compile_module(STANDARD_PPS, optimize=True)
    before = _key(module, degree=3)
    pipeline_pps(module, "worker", 3)
    assert "worker.xfer1" in module.pipes  # the transform did register
    assert _key(module, degree=3) == before


@settings(max_examples=25, deadline=None)
@given(constant=st.integers(min_value=0, max_value=2**31 - 1),
       degree=st.integers(min_value=2, max_value=9))
def test_key_tracks_every_source_byte_and_degree(constant, degree):
    """Any change to the source text or the degree changes the key."""
    base = compile_module(STANDARD_PPS, optimize=True)
    variant_source = STANDARD_PPS.replace("(v * 3) ^ 21",
                                          f"(v * 3) ^ {constant}")
    variant = compile_module(variant_source, optimize=True)
    if constant == 21:
        assert canonical_pps_text(variant, "worker") == \
            canonical_pps_text(base, "worker")
        assert _key(variant, degree) == _key(base, degree)
    else:
        assert _key(variant, degree) != _key(base, degree)
    if degree != 2:
        assert _key(base, degree) != _key(base, 2)


@settings(max_examples=25, deadline=None)
@given(vcost=st.integers(min_value=1, max_value=64),
       send_fixed=st.integers(min_value=0, max_value=64),
       epsilon=st.floats(min_value=0.001, max_value=0.5,
                         allow_nan=False, allow_infinity=False))
def test_key_tracks_cost_table_and_knobs(vcost, send_fixed, epsilon):
    module = compile_module(STANDARD_PPS, optimize=True)
    base = _key(module)
    costs = CostModel(name=NN_RING.name,
                      vcost_per_word=vcost,
                      ccost=NN_RING.ccost,
                      send_fixed=send_fixed,
                      send_per_word=NN_RING.send_per_word,
                      recv_fixed=NN_RING.recv_fixed,
                      recv_per_word=NN_RING.recv_per_word)
    changed = (vcost != NN_RING.vcost_per_word
               or send_fixed != NN_RING.send_fixed)
    assert (_key(module, costs=costs) != base) == changed
    assert (_key(module, epsilon=epsilon) != base) == \
        (repr(epsilon) != repr(1.0 / 16.0))


def test_key_tracks_strategy_and_profiles():
    module = compile_module(STANDARD_PPS, optimize=True)
    base = _key(module)
    assert _key(module, strategy=Strategy.CONDITIONALIZED) != base
    assert _key(module, costs=SCRATCH_RING) != base
    assert _key(module, profiles=[{"block": 3}]) != base


# -- hit fidelity -----------------------------------------------------------


SUITE_APPS = ["rx", "ipv4", "ip_v4", "ip_v6", "scheduler", "qm", "tx"]


@pytest.mark.parametrize("app_name", SUITE_APPS)
def test_cache_hit_bit_identical_to_fresh_compile(app_name, tmp_path):
    """For every suite app at D in {2, 4, 8}: a hit returns the exact
    artifact a fresh compile produces."""
    cache = CompileCache(tmp_path / "cache")
    for degree in (2, 4, 8):
        fresh_app = build_app(app_name, packets=4, seed=7)
        fresh = pipeline_pps(fresh_app.module, fresh_app.pps_name, degree,
                             cache=cache)
        hit_app = build_app(app_name, packets=4, seed=7)
        hit = pipeline_pps(hit_app.module, hit_app.pps_name, degree,
                           cache=cache)
        assert canonical_artifact_bytes(hit) == \
            canonical_artifact_bytes(fresh), \
            f"{app_name} D={degree}: cache hit diverged from fresh compile"
        # The hit must register the realized stage pipes on the module it
        # was replayed into, or the runtime cannot connect the stages.
        for stage in hit.stages:
            for ref in (stage.in_pipe, stage.out_pipe):
                if ref is not None:
                    assert ref.name in hit_app.module.pipes
    assert cache.hits == 3
    assert cache.misses == 3
    assert cache.stores == 3
    assert cache.corrupt == 0


def test_round_trip_preserves_pickle_payload(tmp_path):
    """store → lookup hands back the exact stored payload bytes."""
    cache = CompileCache(tmp_path)
    artifact = {"blob": bytes(range(256)) * 100, "n": 42}
    key = "ab" + "0" * 62
    cache.store(key, artifact)
    raw = cache.entry_path(key).read_bytes()
    header, _, payload = raw.partition(b"\n")
    meta = json.loads(header)
    assert meta["payload_bytes"] == len(payload)
    assert pickle.dumps(cache.lookup(key),
                        protocol=pickle.HIGHEST_PROTOCOL) == payload
    assert cache.counters()["hits"] == 1


class _ClassRecorder(pickle.Unpickler):
    """Unpickles normally, recording every class the payload names."""

    def __init__(self, file):
        super().__init__(file)
        self.classes: list[str] = []

    def find_class(self, module, name):
        self.classes.append(f"{module}.{name}")
        return super().find_class(module, name)


def _payload(entry) -> bytes:
    return entry.read_bytes().partition(b"\n")[2]


@pytest.mark.parametrize("app_name", SUITE_APPS)
def test_artifact_holds_no_analysis_objects(app_name, tmp_path):
    """An entry is the partition decision in plain data — no IR, no
    analysis object, no class of this package or any other: it unpickles
    without a single ``find_class`` call."""
    from repro.analysis.context import AnalysisContext

    cache = CompileCache(tmp_path / "cache")
    app = build_app(app_name, packets=4, seed=7)
    context = AnalysisContext(app.module, app.pps_name)
    result = pipeline_pps(app.module, app.pps_name, 9, cache=cache,
                          context=context)
    (entry,) = (tmp_path / "cache" / "objects").glob("*/*.bin")
    recorder = _ClassRecorder(io.BytesIO(_payload(entry)))
    record = recorder.load()
    assert recorder.classes == [], f"{app_name}: entry names classes"
    assert record["block_stage"] == result.assignment.block_stage
    assert set(record["block_stage"]) == set(context.loop.body)
    assert record["unit_stage"] == list(result.assignment.unit_stage.items())
    assert record["stage_weights"] == result.stage_weights
    assert sum(record["stage_weights"].values()) > 0
    assert len(record["diagnostics"]) == len(result.assignment.diagnostics)


# -- a stale record is a miss, not a crash -----------------------------------


def _stale(record: dict, case: str, degree: int) -> dict:
    """``record`` broken the way a record from an older program or an
    older block split would be."""
    block_stage = dict(record["block_stage"])
    name = next(iter(block_stage))
    if case == "missing-block":
        del block_stage[name]
    elif case == "unknown-block":
        block_stage["no_such_block"] = 1
    else:  # "stage-past-degree"
        block_stage[name] = degree + 1
    return dict(record, block_stage=block_stage)


@pytest.mark.parametrize("case", ["missing-block", "unknown-block",
                                  "stage-past-degree"])
def test_stale_record_is_recomputed_and_overwritten(case, tmp_path):
    """A validly enveloped record that does not stage exactly this
    program's body blocks warns, is counted as a miss, is recomputed —
    bit-identical to a fresh compile — and is overwritten by the good
    record.  Nothing raises out of layout or realize."""
    cache = CompileCache(tmp_path / "cache")
    fresh_app = build_app("rx", packets=4, seed=7)
    fresh = pipeline_pps(fresh_app.module, fresh_app.pps_name, 3,
                         cache=cache)
    (entry,) = (tmp_path / "cache" / "objects").glob("*/*.bin")
    good = pickle.loads(_payload(entry))
    cache.store(entry.stem, _stale(good, case, 3),
                annotations={"degree": 3})

    again = CompileCache(tmp_path / "cache")
    app = build_app("rx", packets=4, seed=7)
    with pytest.warns(RuntimeWarning, match="stale cache record"):
        result = pipeline_pps(app.module, app.pps_name, 3, cache=again)
    assert canonical_artifact_bytes(result) == \
        canonical_artifact_bytes(fresh)
    assert (again.hits, again.misses, again.stores) == (0, 1, 1)
    assert pickle.loads(_payload(entry)) == good


def test_a_record_crosses_hash_seeds(tmp_path):
    """Block names and unit ids are all a record carries from the
    process that wrote it: one written under PYTHONHASHSEED=0 realizes
    byte-identical stage text in a process with another hash seed."""
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import hashlib, sys\n"
        "from repro.cache import CompileCache\n"
        "from repro.ir.printer import format_function\n"
        "from repro.runspec import RunSpec, app_pipeline\n"
        "cache = CompileCache(sys.argv[1])\n"
        "result = app_pipeline(RunSpec('ip_v4', 24, 7).build(), 4,"
        " cache=cache)\n"
        "text = '\\n'.join(format_function(s.function)"
        " for s in result.stages)\n"
        "print(cache.hits, cache.misses,"
        " hashlib.sha256(text.encode()).hexdigest())\n")
    src = Path(__file__).resolve().parents[1] / "src"

    def run(seed: str) -> list[str]:
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "cache")],
            env=env, capture_output=True, text=True, check=True)
        return done.stdout.split()

    writer = run("0")
    reader = run("20050612")
    assert writer[:2] == ["0", "1"] and reader[:2] == ["1", "0"]
    assert reader[2] == writer[2]


# -- corruption -------------------------------------------------------------


def _stored(tmp_path, key="cd" + "1" * 62):
    cache = CompileCache(tmp_path)
    cache.store(key, {"payload": list(range(64))})
    return cache, key, cache.entry_path(key)


def test_truncated_entry_discarded_with_warning(tmp_path):
    cache, key, path = _stored(tmp_path)
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.warns(RuntimeWarning, match="truncated"):
        assert cache.lookup(key) is None
    assert not path.exists()
    assert cache.corrupt == 1 and cache.misses == 1


def test_bitflipped_payload_discarded_with_warning(tmp_path):
    cache, key, path = _stored(tmp_path)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.warns(RuntimeWarning, match="digest mismatch"):
        assert cache.lookup(key) is None
    assert not path.exists()


def test_garbage_and_wrong_schema_discarded(tmp_path):
    cache, key, path = _stored(tmp_path)
    path.write_bytes(b"not json\n\x00\x01\x02")
    with pytest.warns(RuntimeWarning, match="unparseable"):
        assert cache.lookup(key) is None

    cache.store(key, {"v": 1})
    raw = cache.entry_path(key).read_bytes()
    header, _, payload = raw.partition(b"\n")
    meta = json.loads(header)
    meta["schema"] = 999
    path.write_bytes(json.dumps(meta).encode() + b"\n" + payload)
    with pytest.warns(RuntimeWarning, match="schema"):
        assert cache.lookup(key) is None
    assert cache.corrupt == 2


def test_entry_misfiled_under_other_key_discarded(tmp_path):
    cache, key, path = _stored(tmp_path)
    other = "ef" + "2" * 62
    target = cache.entry_path(other)
    target.parent.mkdir(parents=True, exist_ok=True)
    path.rename(target)
    with pytest.warns(RuntimeWarning, match="different key"):
        assert cache.lookup(other) is None


def test_pipeline_survives_corrupt_entry(tmp_path):
    """End to end: a rotted entry must force a re-compile, not a crash."""
    cache = CompileCache(tmp_path / "cache")
    app = build_app("rx", packets=4, seed=7)
    pipeline_pps(app.module, app.pps_name, 2, cache=cache)
    (entry,) = (tmp_path / "cache" / "objects").glob("*/*.bin")
    entry.write_bytes(b"{}\n")
    again = build_app("rx", packets=4, seed=7)
    with pytest.warns(RuntimeWarning):
        result = pipeline_pps(again.module, again.pps_name, 2, cache=cache)
    assert len(result.stages) == 2
    assert cache.corrupt == 1 and cache.stores == 2


# -- eviction ---------------------------------------------------------------


def test_lru_eviction_past_size_budget(tmp_path):
    cache = CompileCache(tmp_path, max_bytes=4096)
    blob = bytes(1500)
    keys = [f"{i:02x}" + str(i) * 62 for i in range(4)]
    for key in keys:
        cache.store(key, blob)
    assert cache.evictions > 0
    # The just-written entry always survives its own prune.
    assert cache.entry_path(keys[-1]).exists()
    assert sum(1 for k in keys if cache.entry_path(k).exists()) < 4


def _disk_bytes(root) -> int:
    return sum(path.stat().st_size
               for path in root.glob("objects/*/*.bin"))


def test_running_total_eviction_stays_within_budget(tmp_path):
    """Ten stores against a three-entry budget through ONE instance: the
    running total triggers a rescan at every overflow, the LRU order and
    ``keep`` are the scan's, and the store never ends over budget."""
    blob = bytes(1500)
    keys = [f"{i:02x}" + "5" * 62 for i in range(10)]
    probe = CompileCache(tmp_path / "probe")
    probe.store(keys[0], blob)
    entry = _disk_bytes(tmp_path / "probe")
    cache = CompileCache(tmp_path / "cache", max_bytes=3 * entry + entry // 2)
    for age, key in enumerate(keys):
        cache.store(key, blob)
        os.utime(cache.entry_path(key), (1_000 + age, 1_000 + age))
        assert _disk_bytes(tmp_path / "cache") <= cache.max_bytes
    assert cache.stores == 10
    assert cache.evictions == 7
    assert [key for key in keys if cache.entry_path(key).exists()] == \
        keys[-3:]


def test_rescan_accounts_for_another_instances_writes(tmp_path):
    """A second writer on the same root is invisible to the running
    total until it next crosses the budget; the rescan then counts, and
    evicts, the other instance's entries too."""
    blob = bytes(1500)
    root = tmp_path / "cache"
    keys = [f"{i:02x}" + "6" * 62 for i in range(6)]
    other = CompileCache(root)
    other.store(keys[0], blob)
    entry = _disk_bytes(root)
    cache = CompileCache(root, max_bytes=3 * entry + entry // 2)

    def store(instance, index):
        instance.store(keys[index], blob)
        os.utime(instance.entry_path(keys[index]),
                 (1_000 + index, 1_000 + index))

    os.utime(other.entry_path(keys[0]), (1_000, 1_000))
    store(cache, 1)              # first write scans: two entries known
    store(other, 2)
    store(other, 3)              # four on disk, two known to ``cache``
    store(cache, 4)              # three known: no rescan, no eviction
    assert cache.evictions == 0
    assert _disk_bytes(root) > cache.max_bytes
    store(cache, 5)              # four known: rescan finds six
    assert cache.evictions == 3
    assert _disk_bytes(root) <= cache.max_bytes
    assert [key for key in keys if cache.entry_path(key).exists()] == \
        keys[-3:]
    assert other.evictions == 0


def test_stale_temp_files_are_swept_fresh_ones_kept(tmp_path):
    """A writer killed between mkstemp and os.replace leaves a temp file
    no glob of ``*.bin`` ever sees; the size scan unlinks it once it is
    too old to belong to a live writer."""
    cache = CompileCache(tmp_path)
    key = "9a" + "7" * 62
    shard = cache.entry_path(key).parent
    shard.mkdir(parents=True)
    stale = shard / ".9a777777.dead.tmp"
    fresh = shard / ".9a777777.live.tmp"
    stale.write_bytes(bytes(4096))
    fresh.write_bytes(bytes(4096))
    long_ago = time.time() - 2 * 3600
    os.utime(stale, (long_ago, long_ago))
    with warnings_as_errors():
        cache.store(key, {"payload": 1})
    assert not stale.exists()
    assert fresh.exists()
    assert cache.lookup(key) == {"payload": 1}


# -- concurrency ------------------------------------------------------------


def test_concurrent_writers_never_expose_torn_entries(tmp_path):
    cache = CompileCache(tmp_path)
    key = "77" + "3" * 62
    artifact = {"blob": bytes(range(256)) * 200}
    failures: list = []

    def writer():
        local = CompileCache(tmp_path)
        for _ in range(25):
            local.store(key, artifact)

    def reader():
        local = CompileCache(tmp_path)
        for _ in range(100):
            got = local.lookup(key)
            if got is not None and got != artifact:
                failures.append("torn read")
        if local.corrupt:
            failures.append(f"corrupt={local.corrupt}")

    threads = [threading.Thread(target=writer) for _ in range(4)]
    threads += [threading.Thread(target=reader) for _ in range(2)]
    with warnings_as_errors():
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert not failures
    assert cache.lookup(key) == artifact
    # No orphaned temp files survive the race.
    assert not list(tmp_path.glob("objects/*/.*.tmp"))


class warnings_as_errors:
    """Fail the concurrency test on any cache warning in any thread."""

    def __enter__(self):
        import warnings

        self._ctx = warnings.catch_warnings()
        self._ctx.__enter__()
        warnings.simplefilter("error", RuntimeWarning)
        return self

    def __exit__(self, *exc):
        return self._ctx.__exit__(*exc)


# -- warm path: the partition phases are skipped ----------------------------


_SEARCH_PHASES = {"ssa_construct", "dependence_graph", "select_stages"}
_REALIZE_PHASES = {"liveset_layout", "realize", "verify"}


def test_warm_partition_skips_search_phases(tmp_path):
    """A cache hit skips the cut search and what only it needs (SSA, the
    dependence model) and realizes its stages on the path a miss takes:
    layout, realize, structural verify."""
    from repro.obs import Tracer, tracing

    cache = CompileCache(tmp_path / "cache")
    app = build_app("rx", packets=4, seed=7)
    cold_tracer = Tracer()
    with tracing(cold_tracer):
        pipeline_pps(app.module, app.pps_name, 3, cache=cache)
    cold_spans = {e["name"] for e in cold_tracer.events if e["ph"] == "X"}
    assert _SEARCH_PHASES | _REALIZE_PHASES <= cold_spans

    warm = build_app("rx", packets=4, seed=7)
    tracer = Tracer()
    with tracing(tracer):
        pipeline_pps(warm.module, warm.pps_name, 3, cache=cache)
    spans = {e["name"] for e in tracer.events if e["ph"] == "X"}
    assert not (_SEARCH_PHASES & spans), \
        f"cache hit still ran {_SEARCH_PHASES & spans}"
    assert _REALIZE_PHASES <= spans
    lookups = [e for e in tracer.events
               if e["ph"] == "i" and e["name"] == "cache_lookup"]
    assert [e["args"]["outcome"] for e in lookups] == ["hit"]


def test_warm_plan_all_hits_and_writes_nothing(tmp_path):
    """Second explore sweep over the same cache directory: every
    partition is a hit, and a hit writes nothing."""
    from repro.eval.explore import SearchSpace, explore

    space = SearchSpace(apps=("rx", "tx"), degrees=(2, 3), packets=4)
    cold = CompileCache(tmp_path / "cache")
    explore(space, cache=cold)
    assert cold.misses > 0 and cold.stores == cold.misses

    warm = CompileCache(tmp_path / "cache")
    explore(space, cache=warm)
    assert warm.hits > 0
    assert warm.misses == 0
    assert warm.stores == 0


# -- policy -----------------------------------------------------------------


def test_resolve_cache_policy(tmp_path, monkeypatch):
    assert resolve_cache(no_cache=True) is None
    explicit = resolve_cache(str(tmp_path / "explicit"))
    assert explicit.root == tmp_path / "explicit"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
    assert default_cache_dir() == tmp_path / "env"
    assert resolve_cache().root == tmp_path / "env"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert default_cache_dir().name == "repro"


# -- envelope annotations (ISSUE 5: degraded artifacts never masquerade) ------


def test_annotations_round_trip_and_gate_lookup(tmp_path):
    cache = CompileCache(tmp_path / "cache")
    key = "a" * 64
    cache.store(key, {"payload": 1}, annotations={"degree": 2,
                                                  "verified": True})
    # Matching expectations hit.
    assert cache.lookup(key, expect={"degree": 2}) == {"payload": 1}
    assert cache.lookup(key, expect={"degree": 2,
                                     "verified": True}) == {"payload": 1}
    # A contradicting expectation is a rejection — a miss that leaves
    # the (healthy) entry on disk for its rightful consumers.
    assert cache.lookup(key, expect={"degree": 4}) is None
    assert cache.lookup(key, expect={"verified": False}) is None
    assert cache.rejected == 2
    assert cache.lookup(key, expect={"degree": 2}) == {"payload": 1}
    assert cache.counters()["rejected"] == 2


def test_unannotated_entries_reject_any_expectation(tmp_path):
    cache = CompileCache(tmp_path / "cache")
    key = "b" * 64
    cache.store(key, {"payload": 2})
    assert cache.lookup(key) == {"payload": 2}          # plain lookup fine
    assert cache.lookup(key, expect={"degree": 2}) is None
    assert cache.rejected == 1


def test_pipeline_pps_stamps_and_filters_by_degree(tmp_path):
    module = compile_module(STANDARD_PPS)
    cache = CompileCache(tmp_path / "cache")
    pipeline_pps(module, "worker", 2, cache=cache)
    key = _key(module, degree=2)
    # The stored envelope is degree-stamped.
    assert cache.lookup(key, expect={"degree": 2}) is not None
    assert cache.lookup(key, expect={"degree": 4}) is None
    # A warm second partition is a (degree-gated) hit.
    before = cache.hits
    again = pipeline_pps(module, "worker", 2, cache=cache)
    assert cache.hits == before + 1
    assert again.degree == 2
