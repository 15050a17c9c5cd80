"""Machine model: the transmission cost parameters of the inter-stage rings."""

from repro.machine.costs import (
    NN_RING,
    SCRATCH_RING,
    SRAM_RING,
    CostModel,
    cost_table,
    cost_table_names,
)

__all__ = [
    "CostModel",
    "NN_RING",
    "SCRATCH_RING",
    "SRAM_RING",
    "cost_table",
    "cost_table_names",
]
