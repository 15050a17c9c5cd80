"""Content-addressed compilation-artifact cache.

The balanced-cut search dominates the wall time of every sweep, and it
is fully deterministic given (canonical source, degree, machine costs,
partitioner config) — so its decision, a stage for every body block, is
cacheable by content address; realizing the stages from it is cheap and
is redone on every hit:

* :mod:`repro.cache.key` — SHA-256 keys over exactly the inputs that
  determine a partition result;
* :mod:`repro.cache.store` — the on-disk store: versioned pickle
  envelopes, corruption-checked reads, atomic writes, LRU eviction.

``pipeline_pps(cache=...)`` is the single hookpoint; ``repro
run/pipeline/serve/explore`` all thread a
:class:`CompileCache` through it (``--cache-dir`` / ``$REPRO_CACHE_DIR``
/ ``--no-cache``).  See ``docs/caching.md``.
"""

from repro.cache.key import (
    CACHE_SCHEMA_VERSION,
    canonical_pps_text,
    compile_key,
    cost_identity,
)
from repro.cache.store import (
    CompileCache,
    default_cache_dir,
    resolve_cache,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CompileCache",
    "canonical_pps_text",
    "compile_key",
    "cost_identity",
    "default_cache_dir",
    "resolve_cache",
]
