"""One description of a run: the partitioner's knobs and the pipeline
they name, each declared once.

The paper's partitioner takes a program, a degree D, a balance variance
ε = 1/16 and a channel cost (VCost / CCost) and nothing else.
:class:`Knobs` is that handful of inputs with their defaults;
``pipeline_pps``, ``supervise_partition`` and the measurement functions
take one, the compile key hashes exactly its fields, and every other
default in the tree (``select_stages``, ``verify_partition``,
``AnalysisContext``, ``SearchSpace``, the CLI) reads it from here.

:class:`RunSpec` names a benchmark-suite pipeline — app, traffic,
degrees, knobs, cache directory — in a form a worker process can be
sent, and :func:`app_pipeline` is the one step from such an app to its
stages, so ``figures``, ``plan``, ``explore``, ``chaos`` and ``serve``
mean the same pipeline (and the same cache entry) by "ip_v4 at degree 4".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.costs import NN_RING, CostModel
from repro.pipeline.liveset import Strategy


@dataclass(frozen=True)
class Knobs:
    """The partitioner's inputs beside the program and the degree.

    The field names are the keywords ``compile_key`` hashes: two runs
    share a cached partition exactly when their knobs (and profiles) are
    equal.  A field belongs here only if some partition changes with it;
    how the solver reaches a cut (§3.3's resumed preflow, warm starts)
    changes none and is not a knob.
    """

    costs: CostModel = NN_RING          # channel cost table (VCost / CCost)
    epsilon: float = 1.0 / 16.0         # balance variance (paper §3.3)
    strategy: Strategy = Strategy.PACKED    # live-set transmission layout
    interference: str = "exact"         # live-set packing interference
    max_block_instructions: int = 12    # block-split threshold (0 = off)


@dataclass(frozen=True)
class RunSpec:
    """The picklable name of a suite pipeline: what ``run_sweep`` ships
    to a sweep worker and ``ServeRuntime`` to a serve worker."""

    app: str
    packets: int
    seed: int
    degrees: tuple = ()
    knobs: Knobs = Knobs()
    cache_dir: str | None = None        # shared CompileCache root

    def build(self):
        """The compiled :class:`~repro.apps.suite.AppInstance`."""
        from repro.apps.suite import build_app

        return build_app(self.app, packets=self.packets, seed=self.seed)

    def open_cache(self):
        """This process's handle on the shared artifact cache, if any."""
        from repro.cache import CompileCache

        return (CompileCache(self.cache_dir)
                if self.cache_dir is not None else None)


def app_pipeline(app, degree: int, *, knobs: Knobs = Knobs(), cache=None,
                 context=None, warm=None):
    """The app → stages step, the only one: ``app`` partitioned at
    ``degree`` under ``knobs``, balanced by the app's own traffic-class
    profiler (worked out from the app, never chosen by a caller)."""
    from repro.pipeline.transform import pipeline_pps

    return pipeline_pps(app.module, app.pps_name, degree, knobs=knobs,
                        profiler=app.profiler, cache=cache,
                        context=context, warm=warm)
