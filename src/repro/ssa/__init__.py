"""SSA construction for the PPS-C IR.

SSA is for analysis only: the dependence model is built on an SSA copy,
and the stages are realized from the original (non-SSA) code.
"""

from repro.ssa.construct import construct_ssa

__all__ = ["construct_ssa"]
