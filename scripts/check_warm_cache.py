#!/usr/bin/env python3
"""Assert that a warm-cache bench run actually hit the compile cache.

CI runs ``repro bench --quick`` twice against the same
``$REPRO_CACHE_DIR``; this script checks the second (warm) report:

* the cache saw hits and zero misses — every partition was served from
  the content-addressed store;
* it saw zero stores — a hit writes nothing, so a write re-introduced
  on the hit path fails here without a timing threshold;
* the warm partition phase was not slower than the cold one (lenient:
  skipped when the "cold" run was itself already warm, e.g. when the
  CI cache was restored from a previous workflow run).

Usage::

    python scripts/check_warm_cache.py warm.json [--cold cold.json]
"""

from __future__ import annotations

import argparse
import json
import sys


def fail(message: str) -> int:
    print(f"warm-cache check: FAIL: {message}", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("warm", help="bench JSON of the warm (second) run")
    parser.add_argument(
        "--cold",
        default=None,
        help="bench JSON of the cold (first) run, for the speed check",
    )
    args = parser.parse_args(argv)

    with open(args.warm, encoding="utf-8") as handle:
        warm = json.load(handle)
    counters = warm.get("cache")
    if counters is None:
        return fail("warm report has no 'cache' counters (ran --no-cache?)")
    if counters.get("hits", 0) <= 0:
        return fail(f"no cache hits in the warm run: {counters}")
    if counters.get("misses", 0) != 0:
        return fail(f"warm run still missed the cache: {counters}")
    if counters.get("stores", 0) != 0:
        return fail(f"warm run wrote to the cache on a hit: {counters}")

    if args.cold:
        with open(args.cold, encoding="utf-8") as handle:
            cold = json.load(handle)
        cold_counters = cold.get("cache") or {}
        if cold_counters.get("misses", 0) == 0:
            print(
                "warm-cache check: cold run was already warm "
                f"({cold_counters}); skipping the speed comparison"
            )
        else:
            cold_partition = cold.get("partition_seconds", 0.0)
            warm_partition = warm.get("partition_seconds", 0.0)
            # Lenient bound: a warm partition phase only replays cache
            # lookups, but shared runners are noisy.
            if warm_partition > cold_partition:
                return fail(
                    f"warm partition phase ({warm_partition:.3f}s) slower "
                    f"than cold ({cold_partition:.3f}s)"
                )
            print(
                f"warm-cache check: partition {cold_partition:.3f}s cold "
                f"-> {warm_partition:.3f}s warm"
            )

    print(f"warm-cache check: ok ({counters})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
