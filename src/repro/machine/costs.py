"""Transmission cost model (the paper's VCost / CCost).

The paper: "the weight (or capacity) associated with the definition edges
(VCost for variables and CCost for control objects) models the cost of
transmitting the associated variable or control object if that edge is
cut.  Its value depends on the underlying architecture of the NPs; since
the static guarantee of performance is required, the architecture of the
NPs (e.g., IXP) is very predictable and those costs can be statically
determined."

On the IXP there are two hardware ring flavors (paper §2.1):

* **nearest-neighbor (NN) rings** — register-based, a few cycles per word;
* **scratch rings** — static memory, on the order of a hundred cycles per
  enqueue/dequeue (amortized over multi-word bursts and hidden by
  multithreading; the *instruction* overhead per message is what the
  paper's Figures 21/22 count).

Costs here are in instruction-count units, matching the paper's choice of
instruction count as the balance weight function.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Version of the built-in cost tables below.  The compile cache keys on
#: it (together with the concrete field values), so bump it whenever the
#: *meaning* of a cost parameter changes even if the numbers do not.
COST_TABLE_VERSION = 1


@dataclass(frozen=True)
class CostModel:
    """Static cost parameters for one inter-stage communication channel.

    Attributes:
        name: Human-readable channel kind.
        vcost_per_word: Flow-network capacity per word of a variable
            (definition-edge weight, VCost).
        ccost: Flow-network capacity of a control object (CCost).
        send_fixed: Instructions per transmitted message (ring enqueue).
        send_per_word: Instructions per word on the sending side.
        recv_fixed: Instructions per received message (ring dequeue).
        recv_per_word: Instructions per word on the receiving side.
    """

    name: str
    vcost_per_word: int
    ccost: int
    send_fixed: int
    send_per_word: int
    recv_fixed: int
    recv_per_word: int

    def vcost(self, words: int) -> int:
        """Definition-edge capacity for a ``words``-wide variable."""
        return self.vcost_per_word * words


#: Register-based nearest-neighbor ring between adjacent MicroEngines.
NN_RING = CostModel(
    name="nn-ring",
    vcost_per_word=2,
    ccost=2,
    send_fixed=2,
    send_per_word=1,
    recv_fixed=2,
    recv_per_word=1,
)

#: Scratchpad-memory ring (any PE pair, higher per-message overhead).
SCRATCH_RING = CostModel(
    name="scratch-ring",
    vcost_per_word=4,
    ccost=4,
    send_fixed=8,
    send_per_word=2,
    recv_fixed=8,
    recv_per_word=2,
)

#: SRAM ring (largest capacity, heaviest overhead).
SRAM_RING = CostModel(
    name="sram-ring",
    vcost_per_word=6,
    ccost=6,
    send_fixed=14,
    send_per_word=3,
    recv_fixed=14,
    recv_per_word=3,
)

# The design-space explorer (``repro explore``) and the CLI resolve cost
# tables by *name*, through these two fixed tables.  Every table's field
# values are salted into the compile-cache key
# (:func:`repro.cache.key.cost_identity`), so two tables that differ in
# any parameter can never serve each other's cached partitions.

#: Canonical table name -> :class:`CostModel`.
COST_TABLES: dict[str, CostModel] = {
    "nn-ring": NN_RING,
    "scratch-ring": SCRATCH_RING,
    "sram-ring": SRAM_RING,
}

#: Short alias (e.g. ``nn``) -> canonical table name (``nn-ring``).
_COST_ALIASES: dict[str, str] = {
    "nn": "nn-ring",
    "scratch": "scratch-ring",
    "sram": "sram-ring",
}


def cost_table(name: str) -> CostModel:
    """Resolve a cost table by canonical name or alias."""
    canonical = _COST_ALIASES.get(name, name)
    try:
        return COST_TABLES[canonical]
    except KeyError:
        available = sorted(COST_TABLES) + sorted(_COST_ALIASES)
        raise ValueError(f"unknown cost table {name!r} "
                         f"(available: {', '.join(available)})") from None


def cost_table_names(*, aliases: bool = False) -> list[str]:
    """The canonical table names (optionally plus aliases)."""
    names = sorted(COST_TABLES)
    if aliases:
        names += sorted(_COST_ALIASES)
    return names
