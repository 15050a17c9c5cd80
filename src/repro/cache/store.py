"""The on-disk compilation-artifact store.

Layout: ``<root>/objects/<key[:2]>/<key>.bin``.  Each entry is a
versioned envelope::

    {"magic": "repro-pipeline-cache", "schema": N, ...}\\n<pickle payload>

The one-line JSON header carries the schema version, the key the entry
was stored under, the SHA-256 + byte length of the pickle payload, and
free-form ``annotations`` (``pipeline_pps`` stamps the artifact's
degree there); :meth:`CompileCache.lookup` re-verifies all of them, so
a truncated, bit-rotted, or wrong-schema entry is discarded (with a
warning and a ``corrupt`` counter tick) instead of being deserialized.
A lookup may additionally pass ``expect={...}``: an entry whose
annotations contradict the expectation — e.g. a degraded artifact asked
for at full degree — is *rejected* (counted, left on disk) and the
lookup misses.

Writes go to a temporary file in the destination directory followed by
``os.replace`` — atomic on POSIX — so concurrent writers (the parallel
sweep runner's worker processes) can race on the same key without ever
exposing a torn entry; last writer wins, and both wrote the same bytes
anyway because the store is content-addressed.

The size budget is kept from a running total: an instance scans the
store at its first write (sweeping temp files a killed writer left),
adds each blob it writes, and rescans — evicting least-recently-used
entries, seeing other processes' writes — only when the total crosses it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import stat
import tempfile
import time
import warnings
from pathlib import Path

_MAGIC = "repro-pipeline-cache"

#: Default size budget; oldest entries are evicted past it (see _prune).
_DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: A ``.*.tmp`` file older than this was orphaned by a writer killed
#: between ``mkstemp`` and ``os.replace`` (a live writer's is
#: milliseconds old); the size scan unlinks it.
_STALE_TEMP_SECONDS = 3600.0


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def resolve_cache(cache_dir: str | None = None,
                  no_cache: bool = False) -> "CompileCache | None":
    """The CLI's cache policy: ``--no-cache`` wins, then ``--cache-dir``,
    then ``$REPRO_CACHE_DIR``, then ``~/.cache/repro``."""
    if no_cache:
        return None
    return CompileCache(cache_dir or default_cache_dir())


class CompileCache:
    """A content-addressed store for pipeline-partition artifacts."""

    def __init__(self, root: str | Path | None = None, *,
                 max_bytes: int | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        if max_bytes is None:
            env = os.environ.get("REPRO_CACHE_MAX_BYTES")
            max_bytes = int(env) if env else _DEFAULT_MAX_BYTES
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.evictions = 0
        self.rejected = 0
        #: Bytes of entries on disk as of the last scan plus every blob
        #: written since; None until the first write scans (see _prune).
        self._known_bytes: int | None = None

    # -- paths ---------------------------------------------------------

    def entry_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.bin"

    # -- read ----------------------------------------------------------

    def lookup(self, key: str, *, expect: dict | None = None):
        """The stored artifact for ``key``, or None (miss or discarded).

        ``expect`` optionally constrains the envelope annotations: every
        ``expect[k]`` must equal the stored annotation ``k``.  A
        contradicting entry (e.g. stamped with a lower achieved degree
        than requested) is rejected — counted in ``rejected``, kept on
        disk — and the lookup reports a miss.
        """
        path = self.entry_path(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        payload = self._verify(path, key, data, expect)
        if payload is None:
            self.misses += 1
            return None
        try:
            artifact = pickle.loads(payload)
        except Exception as exc:  # corrupt payload that passed the digest
            self._discard(path, f"undeserializable payload ({exc})")
            self.misses += 1
            return None
        self.hits += 1
        try:
            os.utime(path)  # LRU touch for eviction ordering
        except OSError:
            pass
        return artifact

    def _verify(self, path: Path, key: str, data: bytes,
                expect: dict | None = None) -> bytes | None:
        from repro.cache.key import CACHE_SCHEMA_VERSION

        newline = data.find(b"\n")
        if newline < 0:
            return self._discard(path, "missing envelope header")
        try:
            header = json.loads(data[:newline])
        except ValueError:
            return self._discard(path, "unparseable envelope header")
        payload = data[newline + 1:]
        if header.get("magic") != _MAGIC:
            return self._discard(path, "wrong magic")
        if header.get("schema") != CACHE_SCHEMA_VERSION:
            return self._discard(
                path, f"schema {header.get('schema')} != "
                      f"{CACHE_SCHEMA_VERSION}")
        if header.get("key") != key:
            return self._discard(path, "entry stored under a different key")
        if header.get("payload_bytes") != len(payload):
            return self._discard(
                path, f"truncated payload ({len(payload)} of "
                      f"{header.get('payload_bytes')} bytes)")
        digest = hashlib.sha256(payload).hexdigest()
        if header.get("payload_sha256") != digest:
            return self._discard(path, "payload digest mismatch")
        if expect:
            annotations = header.get("annotations") or {}
            for field, wanted in expect.items():
                if annotations.get(field) != wanted:
                    self.rejected += 1
                    return None  # healthy entry, wrong annotations
        return payload

    def _discard(self, path: Path, reason: str) -> None:
        self.corrupt += 1
        warnings.warn(f"discarding corrupt cache entry {path}: {reason}",
                      RuntimeWarning, stacklevel=4)
        try:
            path.unlink()
        except OSError:
            pass
        return None

    # -- write ---------------------------------------------------------

    def store(self, key: str, artifact,
              annotations: dict | None = None) -> None:
        """Serialize ``artifact`` under ``key`` (atomic, best-effort).

        ``annotations`` ride in the envelope header (not the payload):
        the partitioner stamps ``degree`` so lookups can filter on it.
        """
        from repro.cache.key import CACHE_SCHEMA_VERSION
        from repro import __version__

        payload = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
        header = {
            "magic": _MAGIC,
            "schema": CACHE_SCHEMA_VERSION,
            "repro": __version__,
            "key": key,
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
            "annotations": dict(annotations or {}),
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8") \
            + b"\n" + payload
        path = self.entry_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, temp = tempfile.mkstemp(dir=path.parent,
                                        prefix=f".{key[:8]}.",
                                        suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(temp, path)  # atomic: readers never see a torn file
            except BaseException:
                try:
                    os.unlink(temp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            warnings.warn(f"cache store failed for {path}: {exc}",
                          RuntimeWarning, stacklevel=3)
            return
        self.stores += 1
        self._prune(keep=path, written=len(blob))

    def _prune(self, keep: Path, written: int) -> None:
        """Evict oldest-touched entries once the store outgrows max_bytes.

        Overwrites count ``written`` twice and this instance's own
        discards are not subtracted, so the running total errs high —
        towards an early rescan, which corrects it.
        """
        if self.max_bytes <= 0:
            return
        if self._known_bytes is not None:
            self._known_bytes += written
            if self._known_bytes <= self.max_bytes:
                return
        entries = self._scan()
        total = sum(size for _, size, _ in entries)
        for _, size, path in sorted(entries):
            if total <= self.max_bytes:
                break
            if path == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            self.evictions += 1
            total -= size
        self._known_bytes = total

    def _scan(self) -> list[tuple[float, int, Path]]:
        """``(mtime, size, path)`` of every entry on disk; unlinks temp
        files old enough to be orphans on the way."""
        entries = []
        stale_before = time.time() - _STALE_TEMP_SECONDS
        for path in (self.root / "objects").glob("*/*"):
            try:
                status = path.stat()
            except OSError:
                continue
            if not stat.S_ISREG(status.st_mode):
                continue
            if path.suffix == ".bin":
                entries.append((status.st_mtime, status.st_size, path))
            elif (path.suffix == ".tmp" and path.name.startswith(".")
                    and status.st_mtime < stale_before):
                try:
                    path.unlink()
                except OSError:
                    pass
        return entries

    # -- reporting -----------------------------------------------------

    def counters(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "evictions": self.evictions,
            "rejected": self.rejected,
        }

    def merge_counters(self, counters: dict) -> None:
        """Fold counters reported by a worker process into this cache's."""
        self.hits += counters.get("hits", 0)
        self.misses += counters.get("misses", 0)
        self.stores += counters.get("stores", 0)
        self.corrupt += counters.get("corrupt", 0)
        self.evictions += counters.get("evictions", 0)
        self.rejected += counters.get("rejected", 0)

    def __repr__(self) -> str:
        return (f"CompileCache({str(self.root)!r}, hits={self.hits}, "
                f"misses={self.misses}, stores={self.stores})")
