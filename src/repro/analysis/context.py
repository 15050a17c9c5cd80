"""Shared per-program analysis state (the partition-speed memo).

``pipeline_pps`` historically rebuilt the normalized working copy, the
SSA form, the dependence model, and the profile runs for every
``(program, degree)`` request — and ``verify_partition`` rebuilt them
once more.  All of that is a pure function of the program text and the
normalization knob, so :class:`AnalysisContext` computes it once and is
shared across every degree of a sweep and the verifier.

The context never depends on the requested degree, the balance knobs, or
the profiler's traffic classes (profiles are memoized per profiler
callable, keyed by identity): everything degree-specific stays in
``pipeline_pps``.
"""

from __future__ import annotations

from repro.analysis.cfg import PpsLoop, find_pps_loop, split_large_blocks
from repro.analysis.dependence_graph import LoopDependenceModel
from repro.analysis.liveness import Liveness
from repro.ir.clone import clone_function
from repro.ir.function import Function, Module
from repro.obs import tracer as obs
from repro.runspec import Knobs
from repro.ssa.construct import construct_ssa


class AnalysisContext:
    """Degree-independent analyses of one PPS, computed once.

    Attributes:
        module / pps_name / max_block_instructions: the identity the
            context answers for (see :meth:`matches`).
        work: the normalized (block-split) working copy every degree
            shares; stage realization only reads it, and every result
            (a compile-cache hit included) is realized from it.
        loop: the PPS loop of ``work``.
        ssa: an SSA-converted clone of ``work``.
        model: the :class:`LoopDependenceModel` over ``ssa``.
    """

    def __init__(
            self, module: Module, pps_name: str,
            max_block_instructions: int = Knobs.max_block_instructions):
        self.module = module
        self.pps_name = pps_name
        self.max_block_instructions = max_block_instructions
        source = module.pps(pps_name)
        with obs.span("normalize", cat="compile", pps=pps_name):
            work = clone_function(source)
            if max_block_instructions > 0:
                split_large_blocks(work, max_block_instructions)
            self.work: Function = work
            self.loop: PpsLoop = find_pps_loop(work)
        self._ssa: Function | None = None
        self._ssa_loop: PpsLoop | None = None
        self._model: LoopDependenceModel | None = None
        self._liveness: Liveness | None = None
        self._profiles: dict[int, list] = {}

    def matches(self, module: Module, pps_name: str,
                max_block_instructions: int) -> bool:
        """Whether this context answers for the given request.

        Identity on the module object is deliberate: a context must
        never survive program mutation it cannot see.
        """
        return (self.module is module
                and self.pps_name == pps_name
                and self.max_block_instructions == max_block_instructions)

    @property
    def ssa(self) -> Function:
        """An SSA-converted clone of ``work`` (lazy: ``pipeline_pps``
        skips it on a compile-cache hit; the verifier then builds it,
        once per program however many degrees hit)."""
        if self._ssa is None:
            with obs.span("ssa_construct", cat="compile",
                          pps=self.pps_name):
                ssa = clone_function(self.work)
                construct_ssa(ssa, self.liveness)  # the clone's, unrenamed
                self._ssa = ssa
                self._ssa_loop = find_pps_loop(ssa)
        return self._ssa

    @property
    def model(self) -> LoopDependenceModel:
        """The dependence model over :attr:`ssa` (lazy, like ``ssa``)."""
        if self._model is None:
            ssa = self.ssa
            with obs.span("dependence_graph", cat="compile",
                          pps=self.pps_name):
                self._model = LoopDependenceModel(ssa, self._ssa_loop)
        return self._model

    @property
    def liveness(self) -> Liveness:
        """Liveness over the normalized copy (lazy: SSA construction,
        layout and the verifier read it)."""
        if self._liveness is None:
            self._liveness = Liveness(self.work)
        return self._liveness

    def profiles_for(self, profiler) -> list[dict[str, float]] | None:
        """Run (or recall) ``profiler`` over the normalized copy.

        Memoized by profiler identity: one profiler instance is reused
        across a degree sweep, so its traffic-class interpretation runs
        once instead of once per degree.
        """
        if profiler is None:
            return None
        key = id(profiler)
        if key not in self._profiles:
            with obs.span("profile", cat="compile", pps=self.pps_name):
                self._profiles[key] = profiler(self.work)
        return self._profiles[key]
