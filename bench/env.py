"""Where the benchmark lives and how it finds the program under test.

The benchmark is a set of plain scripts run from the root of a checkout
(``python3 bench/run.py``); it imports ``repro`` from the checkout's own
``src/`` so it always measures the tree it sits in, never an installed
copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CONTRACT = ROOT / "BENCHMARK.json"

#: Documented default seed, and the seed kept back for later claims: a
#: change tuned on the default must also hold on this one.
DEFAULT_SEED = 7
HELD_OUT_SEED = 20050612


def require_src() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` or give up."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program to measure: {SRC}/repro is "
                         f"missing (run from a full checkout)")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
