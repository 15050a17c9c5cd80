"""An empty name kept for the frozen benchmark.

Cuts are solved cold: each cut's first max flow starts from zero, and
the only warm restart is the paper's own — ``PushRelabel.resume`` after
each ε-collapse step (§3.3).  Seeding a cut from a related earlier
solve added push-relabel work and saved none
(``docs/performance.md`` "Why cuts are solved cold").
"""

from __future__ import annotations


class WarmStartCache:
    """Holds nothing and is read by nothing.

    Vestige: ``bench/compiling.py`` still constructs one and passes it
    as ``warm=``; it goes with ROADMAP item 5's benchmark refresh.
    """
