"""Shared test fixtures.

Every test gets a private, empty compilation-artifact cache: the CLI
defaults to ``$REPRO_CACHE_DIR`` (else ``~/.cache/repro``), and a warm
cache legitimately skips the partition phases — which would make
trace-golden and phase-timing assertions depend on what ran before.
Pointing the cache at a per-test tmp dir keeps every test cold and
keeps the suite from writing into the user's real cache.
"""

import pytest


@pytest.fixture(autouse=True)
def _isolated_compile_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "compile-cache"))
