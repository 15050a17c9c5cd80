"""Independent post-partition verification (the self-checking layer).

``verify_partition`` re-derives, from a :class:`PipelineResult` alone,
everything the transformation promised and checks the realized stages
against it:

* **dependence** — the dependence graph is rebuilt from the normalized
  PPS (fresh SSA construction, fresh :class:`LoopDependenceModel` — or
  those of a shared context whose ``work`` it is) and every flow,
  anti/output/memory-ordering, and control dependence must point at an
  equal-or-later stage; loop-carried (colocation) endpoints must share a
  stage.  The summarized CFG edges must point forward too (a stage is a
  control-flow-contiguous region).
* **liveness** — live sets are recomputed from scratch; every register
  live into a cut target must appear in the cut's transmitted live set
  (completeness), packed slots must be interference-free, and every
  transmit must have a matching downstream receive (same pipe, same
  word count, a dispatch case for every entry target).
* **balance** — stage weights are recomputed from the rebuilt model;
  any cut the partitioner *claimed* balanced must actually sit inside
  the ``(1 ± ε)`` envelope of its successive-slicing target.  Cuts the
  partitioner already reported unbalanced (the dependence structure can
  make the envelope unreachable — the paper's QM/Scheduler caveat) and
  profile-dimensioned partitions (post-cut refinement rebalances by
  *dynamic* weight) degrade to warnings.
* **reconstruction** — the control-object dispatch of every downstream
  stage is well-formed: a ``stage_recv`` block that receives the cut
  message first, a switch whose cases cover exactly the layout's entry
  targets, per-target entry blocks, and structurally valid stage IR
  (:func:`repro.ir.verify.verify_function`).

The verifier never trusts the partitioner's intermediate records where
it can recompute them; the recorded :class:`StageAssignment` and
:class:`CutLayout` are treated as *claims* to be checked against the
fresh analyses and the realized IR.

Failures are reported as structured :class:`VerifyFinding` records
(which check, which cut/stage, which variable or edge) collected in a
:class:`VerifyVerdict`; :meth:`VerifyVerdict.raise_if_rejected` turns a
rejection into a :class:`VerifyError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg import find_pps_loop
from repro.analysis.dependence_graph import DepKind, LoopDependenceModel
from repro.analysis.liveness import Liveness
from repro.ir.clone import clone_function
from repro.ir.instructions import PipeIn, PipeOut, SwitchTerm
from repro.ir.values import Const
from repro.ir.verify import verify_function
from repro.pipeline.liveset import Strategy
from repro.pipeline.realize import stage_pipe_name
from repro.pipeline.transform import PipelineError, PipelineResult
from repro.runspec import Knobs
from repro.ssa.construct import construct_ssa

#: The checks ``verify_partition`` runs, in order.
CHECKS = ("dependence", "liveness", "balance", "reconstruction")


@dataclass(frozen=True)
class VerifyFinding:
    """One defect the verifier found in a realized partition."""

    check: str                  # one of CHECKS
    detail: str                 # human-readable description
    cut: int | None = None      # 1-based cut index, when cut-specific
    stage: int | None = None    # 1-based stage index, when stage-specific
    subject: str | None = None  # variable / edge / block the finding is about

    def as_dict(self) -> dict:
        return {key: value for key, value in vars(self).items()
                if value is not None}

    def __str__(self) -> str:
        where = []
        if self.cut is not None:
            where.append(f"cut {self.cut}")
        if self.stage is not None:
            where.append(f"stage {self.stage}")
        if self.subject is not None:
            where.append(f"subject {self.subject}")
        location = f" ({', '.join(where)})" if where else ""
        return f"[{self.check}]{location} {self.detail}"


@dataclass
class VerifyVerdict:
    """The outcome of one :func:`verify_partition` run."""

    pps_name: str
    degree: int
    findings: list[VerifyFinding] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    checks_run: tuple = CHECKS

    @property
    def ok(self) -> bool:
        return not self.findings

    def raise_if_rejected(self) -> None:
        if not self.ok:
            raise VerifyError(self)

    def summary(self) -> str:
        if self.ok:
            note = f" ({len(self.warnings)} warnings)" if self.warnings else ""
            return (f"{self.pps_name} x{self.degree}: verified "
                    f"({', '.join(self.checks_run)}){note}")
        checks = sorted({finding.check for finding in self.findings})
        return (f"{self.pps_name} x{self.degree}: REJECTED — "
                f"{len(self.findings)} findings in {', '.join(checks)}")

    def as_dict(self) -> dict:
        return {
            "pps": self.pps_name,
            "degree": self.degree,
            "ok": self.ok,
            "checks": list(self.checks_run),
            "findings": [finding.as_dict() for finding in self.findings],
            "warnings": list(self.warnings),
        }


class VerifyError(PipelineError):
    """The independent verifier rejected a realized partition."""

    def __init__(self, verdict: VerifyVerdict):
        details = "\n".join(f"  {finding}" for finding in verdict.findings)
        super().__init__(f"{verdict.summary()}\n{details}")
        self.verdict = verdict

    def __reduce__(self):
        return type(self), (self.verdict,)


class _Checker:
    """One verification pass over one :class:`PipelineResult`."""

    def __init__(self, result: PipelineResult, epsilon: float, context=None):
        self.result = result
        self.epsilon = epsilon
        self.work = result.normalized
        self.loop = result.loop
        self.degree = result.degree
        self.stage_of = result.assignment.block_stage
        self.findings: list[VerifyFinding] = []
        self.warnings: list[str] = []
        # Ground truth: SSA, dependence model and liveness over the
        # *normalized* PPS, never the model this result's cuts were
        # selected on.  They are a pure function of the program, so a
        # shared AnalysisContext supplies them when it holds this very
        # program object — every result ``pipeline_pps`` returns, hit or
        # miss, realizes its stages from ``context.work``.  Any other
        # object (a copy, another program): rebuild everything.
        if context is not None and context.work is self.work:
            self.model = context.model
            self.liveness = context.liveness
        else:
            self.liveness = Liveness(self.work)
            ssa = clone_function(self.work)
            construct_ssa(ssa, self.liveness)
            self.model = LoopDependenceModel(ssa, find_pps_loop(ssa))
        self.node_stage = self._node_stages()

    def fail(self, check: str, detail: str, *, cut: int | None = None,
             stage: int | None = None, subject: str | None = None) -> None:
        self.findings.append(VerifyFinding(check=check, detail=detail,
                                           cut=cut, stage=stage,
                                           subject=subject))

    # -- stage map ------------------------------------------------------

    def _node_stages(self) -> dict[int, int]:
        """Stage of every summarized CFG node; a node split across stages
        is a broken atom (an inner loop or SCC a cut must never divide)."""
        node_stage: dict[int, int] = {}
        for node in self.model.sgraph.nodes:
            stages = set()
            for name in self.model.blocks_of_node(node):
                stage = self.stage_of.get(name)
                if stage is None:
                    self.fail("dependence",
                              f"body block {name!r} has no stage assignment",
                              subject=name)
                elif not 1 <= stage <= self.degree:
                    self.fail("dependence",
                              f"block {name!r} assigned out-of-range stage "
                              f"{stage}", subject=name)
                else:
                    stages.add(stage)
            if len(stages) > 1:
                blocks = ", ".join(sorted(self.model.blocks_of_node(node)))
                self.fail("dependence",
                          f"summarized node {node} (an uncuttable control "
                          f"region: {blocks}) is split across stages "
                          f"{sorted(stages)}", subject=str(node))
            if stages:
                node_stage[node] = min(stages)
        return node_stage

    # -- check 1: every dependence points forward -----------------------

    def check_dependence(self) -> None:
        header_stage = self.stage_of.get(self.loop.header)
        if header_stage != 1:
            self.fail("dependence",
                      f"loop header {self.loop.header!r} must start stage 1 "
                      f"(got {header_stage})", subject=self.loop.header)
        for edge in self.model.edges:
            src = self.node_stage.get(edge.src)
            dst = self.node_stage.get(edge.dst)
            if src is None or dst is None:
                continue  # already reported by _node_stages
            subject = (edge.payload.name
                       if hasattr(edge.payload, "name") else str(edge.payload))
            if edge.kind is DepKind.COLOCATE:
                if src != dst:
                    self.fail("dependence",
                              f"loop-carried dependence on {subject} spans "
                              f"stages {src} -> {dst}; endpoints must be "
                              f"colocated", subject=subject)
            elif src > dst:
                self.fail("dependence",
                          f"{edge.kind.value} dependence on {subject} flows "
                          f"backwards: stage {src} -> stage {dst}",
                          subject=subject)
        for src_node, dst_node in self.model.sgraph.edges():
            src = self.node_stage.get(src_node)
            dst = self.node_stage.get(dst_node)
            if src is not None and dst is not None and src > dst:
                self.fail("dependence",
                          f"control-flow edge between summarized nodes "
                          f"{src_node} -> {dst_node} goes backwards "
                          f"(stage {src} -> {dst})",
                          subject=f"{src_node}->{dst_node}")

    # -- check 2: live sets are complete, slots conflict-free -----------

    def _recompute_cut(self, cut: int) -> tuple[list[str], dict[str, set]]:
        """The crossed edges of cut ``cut`` and the per-target live sets,
        recomputed from the normalized function (mirrors the definition:
        a register is transmitted iff it is live into the entry target
        and defined inside the loop body)."""
        body = set(self.loop.body)
        body_defined = set()
        for name in self.loop.body:
            for inst in self.work.block(name).all_instructions():
                body_defined.update(inst.defs())
        edges: dict[str, list[str]] = {}
        for name in self.loop.body:
            if self.stage_of.get(name, 0) > cut:
                continue
            for succ in self.work.block(name).successors():
                if succ in body and self.stage_of.get(succ, 0) > cut:
                    edges.setdefault(succ, []).append(name)
        live: dict[str, set] = {}
        for target in edges:
            live[target] = {reg for reg in self.liveness.live_in[target]
                            if reg in body_defined}
        return sorted(edges), live

    def check_liveness(self) -> None:
        layouts = {layout.cut_index: layout for layout in self.result.layouts}
        for cut in range(1, self.degree):
            layout = layouts.get(cut)
            if layout is None:
                self.fail("liveness", f"no layout recorded for cut {cut}",
                          cut=cut)
                continue
            targets, live = self._recompute_cut(cut)
            if targets != layout.targets:
                self.fail("reconstruction",
                          f"entry targets recomputed as {targets} but the "
                          f"layout transmits {layout.targets}", cut=cut)
            declared_union = set(layout.variables)
            for target in targets:
                declared = set(layout.live_sets.get(target, ()))
                for reg in sorted(live[target], key=lambda r: r.name):
                    if reg not in declared:
                        self.fail("liveness",
                                  f"{reg.name} is live into {target!r} but "
                                  f"missing from the transmitted live set",
                                  cut=cut, subject=reg.name)
                    if reg not in declared_union:
                        self.fail("liveness",
                                  f"{reg.name} is live across cut {cut} but "
                                  f"absent from the layout's variable union",
                                  cut=cut, subject=reg.name)
                    if (self.result.strategy is Strategy.PACKED
                            and reg not in layout.slot_of
                            and reg in declared):
                        self.fail("liveness",
                                  f"{reg.name} has no packed slot",
                                  cut=cut, subject=reg.name)
                for reg in sorted(declared - live[target],
                                  key=lambda r: r.name):
                    self.warnings.append(
                        f"cut {cut}: {reg.name} transmitted to {target!r} "
                        f"but not live there (harmless over-approximation)")
                # Two variables may share a packed slot only if no single
                # entry target ever needs both.
                if self.result.strategy is Strategy.PACKED:
                    by_slot: dict[int, list] = {}
                    for reg in live[target]:
                        slot = layout.slot_of.get(reg)
                        if slot is not None:
                            by_slot.setdefault(slot, []).append(reg)
                    for slot, regs in sorted(by_slot.items()):
                        if len(regs) > 1:
                            names = ", ".join(sorted(r.name for r in regs))
                            self.fail("liveness",
                                      f"slot {slot} packs interfering "
                                      f"variables ({names}) both live into "
                                      f"{target!r}", cut=cut,
                                      subject=names)

    # -- check 3: stage balance -----------------------------------------

    def _stage_weights(self) -> dict[int, int]:
        weights = {stage: 0 for stage in range(1, self.degree + 1)}
        for unit in self.model.units.members:
            stages = {self.node_stage[node]
                      for node in self.model.units.members[unit]
                      if node in self.node_stage}
            if len(stages) == 1:
                weights[next(iter(stages))] += self.model.unit_weight(unit)
        return weights

    def check_balance(self) -> None:
        weights = self._stage_weights()
        total = self.model.total_weight()
        if sum(weights.values()) != total:
            self.fail("balance",
                      f"stage weights sum to {sum(weights.values())} but the "
                      f"loop body weighs {total}")
        diagnostics = {diag.stage: diag
                       for diag in self.result.assignment.diagnostics}
        remaining = float(total)
        for cut in range(1, self.degree):
            target = remaining / (self.degree - cut + 1)
            weight = weights.get(cut, 0)
            low = (1.0 - self.epsilon) * target
            high = (1.0 + self.epsilon) * target
            diag = diagnostics.get(cut)
            inside = low - 1e-9 <= weight <= high + 1e-9
            if not inside:
                claimed = diag is not None and diag.balanced
                detail = (f"stage {cut} weighs {weight}, outside the "
                          f"(1±{self.epsilon:.4f}) envelope "
                          f"[{low:.1f}, {high:.1f}] of target {target:.1f}")
                if claimed and not self.result.profiled:
                    self.fail("balance", detail + " (claimed balanced)",
                              cut=cut, stage=cut)
                else:
                    self.warnings.append(
                        detail + (" (profile-refined)" if self.result.profiled
                                  else " (reported unbalanced by the "
                                       "partitioner)"))
            remaining -= weight

    # -- check 4: transmit/receive matching and dispatch ----------------

    def _expected_words(self, layout) -> int | None:
        if self.result.strategy is Strategy.UNIFIED:
            return 1 + len(layout.variables)
        if self.result.strategy is Strategy.PACKED:
            return 1 + layout.slot_count
        return None  # CONDITIONALIZED: variable-length message trains

    def check_reconstruction(self) -> None:
        layouts = {layout.cut_index: layout for layout in self.result.layouts}
        stages = {stage.index: stage for stage in self.result.stages}
        if sorted(stages) != list(range(1, self.degree + 1)):
            self.fail("reconstruction",
                      f"realized stages {sorted(stages)} do not cover "
                      f"1..{self.degree}")
            return
        for index, stage in sorted(stages.items()):
            try:
                verify_function(stage.function)
            except Exception as exc:
                self.fail("reconstruction",
                          f"stage function is malformed: {exc}", stage=index)
                continue
            self._check_stage_pipes(index, stage, layouts)
            if index > 1:
                self._check_dispatch(index, stage, layouts.get(index - 1))

    def _check_stage_pipes(self, index: int, stage, layouts: dict) -> None:
        in_name = stage_pipe_name(self.result.pps_name, index - 1)
        out_name = stage_pipe_name(self.result.pps_name, index)
        out_layout = layouts.get(index)
        expected_out = (self._expected_words(out_layout)
                        if out_layout is not None else None)
        for block_name in stage.function.block_order:
            for inst in stage.function.block(block_name).all_instructions():
                if isinstance(inst, PipeIn):
                    if index == 1 or inst.pipe.name != in_name:
                        self.fail("reconstruction",
                                  f"stage receives from {inst.pipe.name!r}; "
                                  f"only the upstream stage pipe "
                                  f"{in_name!r} is allowed",
                                  stage=index, cut=index - 1,
                                  subject=inst.pipe.name)
                elif isinstance(inst, PipeOut):
                    if index == self.degree or inst.pipe.name != out_name:
                        self.fail("reconstruction",
                                  f"stage transmits on {inst.pipe.name!r}; "
                                  f"only the downstream stage pipe "
                                  f"{out_name!r} is allowed",
                                  stage=index, cut=index,
                                  subject=inst.pipe.name)
                        continue
                    if expected_out is not None \
                            and len(inst.values) != expected_out:
                        self.fail("reconstruction",
                                  f"transmit in {block_name!r} sends "
                                  f"{len(inst.values)} words; the cut "
                                  f"message is {expected_out} words",
                                  stage=index, cut=index, subject=block_name)
                    if out_layout is not None and inst.values:
                        first = inst.values[0]
                        if not (isinstance(first, Const) and
                                0 <= first.value < len(out_layout.targets)):
                            self.fail("reconstruction",
                                      f"transmit in {block_name!r} does not "
                                      f"lead with a valid control word",
                                      stage=index, cut=index,
                                      subject=block_name)

    def _check_dispatch(self, index: int, stage, in_layout) -> None:
        if in_layout is None:
            return
        function = stage.function
        if "stage_recv" not in function.blocks:
            self.fail("reconstruction",
                      "downstream stage has no stage_recv block",
                      stage=index, cut=index - 1)
            return
        recv = function.block("stage_recv")
        first = recv.instructions[0] if recv.instructions else None
        if not isinstance(first, PipeIn):
            self.fail("reconstruction",
                      "stage_recv does not receive the cut message first",
                      stage=index, cut=index - 1)
        else:
            expected = self._expected_words(in_layout)
            if expected is not None and len(first.dests) != expected:
                self.fail("reconstruction",
                          f"stage_recv receives {len(first.dests)} words; "
                          f"the cut message is {expected} words",
                          stage=index, cut=index - 1)
        term = recv.terminator
        if not isinstance(term, SwitchTerm):
            self.fail("reconstruction",
                      "stage_recv does not dispatch on the control word",
                      stage=index, cut=index - 1)
            return
        for target in in_layout.targets:
            want = in_layout.target_index(target)
            entry = term.cases.get(want)
            if entry != f"enter_{target}":
                self.fail("reconstruction",
                          f"control word {want} should dispatch to "
                          f"enter_{target} (got {entry!r})",
                          stage=index, cut=index - 1, subject=target)
            elif entry not in function.blocks:
                self.fail("reconstruction",
                          f"dispatch case {want} targets missing block "
                          f"{entry!r}", stage=index, cut=index - 1,
                          subject=target)
        extra = set(term.cases) - {in_layout.target_index(t)
                                   for t in in_layout.targets}
        if extra:
            self.fail("reconstruction",
                      f"dispatch has cases {sorted(extra)} beyond the "
                      f"layout's entry targets", stage=index, cut=index - 1)

    # -- driver ---------------------------------------------------------

    def run(self) -> VerifyVerdict:
        self.check_dependence()
        self.check_liveness()
        self.check_balance()
        self.check_reconstruction()
        return VerifyVerdict(pps_name=self.result.pps_name,
                             degree=self.degree,
                             findings=self.findings,
                             warnings=self.warnings)


def verify_partition(result: PipelineResult, *,
                     epsilon: float = Knobs.epsilon,
                     context=None) -> VerifyVerdict:
    """Independently verify one realized partition.

    ``epsilon`` must match the balance slack the partition was requested
    with (the default mirrors ``pipeline_pps``).  Returns a
    :class:`VerifyVerdict`; raising on rejection is the caller's choice
    via :meth:`VerifyVerdict.raise_if_rejected`.

    ``context`` (optional) is a shared
    :class:`repro.analysis.context.AnalysisContext`.  When its normalized
    function *is* ``result.normalized`` — true of every result
    ``pipeline_pps`` returns with that context, a cache hit included —
    the checker consumes its SSA / dependence / liveness analyses
    instead of rebuilding them, so a degree sweep pays the analyses once
    per program.  The analyses are a deterministic pure function of the
    normalized IR, so the checks are unchanged; what sharing gives up is
    only resilience against a *memory-corrupting* bug inside the
    analyses themselves.  Without a context, or when ``result.normalized``
    is any other object (a copy of the same program included), the
    ground truth is rebuilt from scratch.
    """
    if result.degree == 1:
        # Sequential "pipelines" have no cuts: structural stage check only.
        verdict = VerifyVerdict(pps_name=result.pps_name, degree=1,
                                checks_run=("reconstruction",))
        for stage in result.stages:
            try:
                verify_function(stage.function)
            except Exception as exc:
                verdict.findings.append(VerifyFinding(
                    check="reconstruction", stage=stage.index,
                    detail=f"stage function is malformed: {exc}"))
        return verdict
    return _Checker(result, epsilon, context).run()
