"""Selection of the D−1 successive balanced minimum cuts (paper §3.3).

``select_stages`` repeatedly slices the next pipeline stage off the front
of the remaining dependence units: for cut *i* the balance target is
``W(remaining) / (D - i + 1)`` — each cut takes one fair share of what is
left, so the D stages come out even when the dependence structure allows.

The result is a :class:`StageAssignment`: every basic block of the PPS
loop body mapped to a stage in ``1..D``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.dependence_graph import LoopDependenceModel
from repro.flownet.balanced_cut import BalancedCut
from repro.flownet.model import build_cut_network
from repro.machine.costs import CostModel
from repro.obs import tracer as obs
from repro.runspec import Knobs


@dataclass
class CutDiagnostics:
    """Per-cut record for reporting and the ablation benchmarks."""

    stage: int
    target: float
    weight: int
    cut_value: int
    balanced: bool
    iterations: int
    #: Push-relabel discharge operations spent on this cut: a work
    #: metric, not part of the cut's identity (the §3.3 ablation's
    #: from-scratch solve agrees on every field above, not on this one).
    pr_work: int = 0
    #: Vestige, not a field: the frozen ``bench/compiling.py`` still
    #: reads it; it goes with ROADMAP item 5's benchmark refresh.
    warm_hit = False


@dataclass
class StageAssignment:
    """The outcome of cut selection.

    Attributes:
        degree: Requested pipelining degree D.
        block_stage: Map from body block name to stage number (1-based).
        unit_stage: Map from dependence unit id to stage number.
        diagnostics: One record per selected cut.
    """

    degree: int
    block_stage: dict[str, int] = field(default_factory=dict)
    unit_stage: dict[int, int] = field(default_factory=dict)
    diagnostics: list[CutDiagnostics] = field(default_factory=list)

    def stage_weights(self, model: LoopDependenceModel) -> dict[int, int]:
        weights = {stage: 0 for stage in range(1, self.degree + 1)}
        for unit, stage in self.unit_stage.items():
            weights[stage] += model.unit_weight(unit)
        return weights


def unit_profile_dims(model: LoopDependenceModel,
                      profiles: list[dict[str, float]]) -> dict[int, tuple]:
    """Per-unit weight vectors from per-class block frequencies.

    ``profiles[d]`` maps block names to executions-per-iteration under
    traffic class ``d``; the unit's weight in dimension ``d`` is the sum of
    block static weights scaled by those frequencies (the paper's flexible
    weight function, instantiated with profile data).
    """
    dims: dict[int, tuple] = {}
    for unit in model.units.members:
        vector = []
        for profile in profiles:
            total = 0.0
            for block_name in model.unit_blocks(unit):
                frequency = profile.get(block_name, 0.0)
                if frequency:
                    total += model.ssa.block(block_name).weight() * frequency
            vector.append(total)
        dims[unit] = tuple(vector)
    return dims


def select_stages(model: LoopDependenceModel, degree: int, *,
                  costs: CostModel = Knobs.costs,
                  epsilon: float = Knobs.epsilon,
                  incremental: bool = True,
                  profiles: list[dict[str, float]] | None = None,
                  warm=None) -> StageAssignment:
    """Assign every dependence unit (and block) to one of ``degree`` stages.

    ``profiles`` optionally activates dimensional balance: one block-
    frequency map per traffic class (see :func:`unit_profile_dims`).

    ``warm`` is accepted and ignored — a vestige the frozen
    ``bench/compiling.py`` still passes; it goes with ROADMAP item 5's
    benchmark refresh.

    ``incremental=False`` re-solves every ε-collapse step from a zero
    flow — the §3.3 ablation's reference, selecting the same cuts with
    more work; ``pipeline_pps`` never passes it.
    """
    if degree < 1:
        raise ValueError("pipelining degree must be >= 1")
    assignment = StageAssignment(degree=degree)
    all_units = set(model.units.members)
    remaining = set(all_units)
    placed: set[int] = set()
    unit_dims = unit_profile_dims(model, profiles) if profiles else None
    unit_weights = model.unit_weights()
    remaining_weight = sum(unit_weights[unit] for unit in remaining)

    for stage in range(1, degree):
        if not remaining:
            break
        stages_left = degree - stage + 1
        target = remaining_weight / stages_left
        with obs.span("flow_network", cat="compile", stage=stage,
                      units=len(remaining)):
            cut_net = build_cut_network(model, remaining, placed, costs)
        finder = BalancedCut(
            epsilon=epsilon, incremental=incremental,
            forceable=lambda key: isinstance(key, tuple) and key
            and key[0] == "unit",
        )
        dims = None
        dim_targets = None
        if unit_dims is not None:
            network = cut_net.network
            dims = {}
            totals = [0.0] * len(profiles)
            for unit in sorted(remaining):
                vector = unit_dims[unit]
                dims[network.node(("unit", unit))] = vector
                for index, value in enumerate(vector):
                    totals[index] += value
            dim_targets = tuple(value / stages_left for value in totals)
        with obs.span("balanced_cut", cat="compile", stage=stage,
                      target=round(target, 1), epsilon=epsilon):
            result = finder.find(cut_net.network, target, dims=dims,
                                 dim_targets=dim_targets)
        chosen = cut_net.units_of_cut(result.source_side) & remaining
        if not chosen and len(remaining) > 1:
            # Give the stage the lightest dependence-source unit so the
            # pipeline always makes progress (the header first of all).
            if not placed and model.header_unit in remaining:
                chosen = {model.header_unit}
            else:
                sources = _frontier_units(model, remaining)
                chosen = {min(sources, key=lambda u: (unit_weights[u], u))}
        # ``chosen`` iterates in an address-dependent order (see
        # refine_stages); unit_stage's order is part of the artifact.
        for unit in sorted(chosen):
            assignment.unit_stage[unit] = stage
        placed |= chosen
        remaining -= chosen
        chosen_weight = sum(unit_weights[unit] for unit in chosen)
        remaining_weight -= chosen_weight
        diag = CutDiagnostics(
            stage=stage,
            target=target,
            weight=chosen_weight,
            cut_value=result.cut_value,
            balanced=result.balanced,
            iterations=result.iterations,
            pr_work=result.pr_work,
        )
        assignment.diagnostics.append(diag)
        obs.instant("cut_selected", cat="compile", stage=stage,
                    target=round(target, 1), weight=diag.weight,
                    cut_value=diag.cut_value, balanced=diag.balanced,
                    iterations=diag.iterations, units=len(chosen),
                    pr_work=diag.pr_work)
        if not remaining:
            break

    for unit in sorted(remaining):
        assignment.unit_stage[unit] = degree

    if unit_dims is not None:
        refine_stages(model, assignment, unit_dims)

    # Unit -> block expansion.
    for unit, stage in assignment.unit_stage.items():
        for block_name in model.unit_blocks(unit):
            assignment.block_stage[block_name] = stage
    _validate(model, assignment)
    return assignment


def refine_stages(model: LoopDependenceModel, assignment: StageAssignment,
                  unit_dims: dict[int, tuple], *,
                  max_moves: int = 2000) -> int:
    """Greedy stage refinement: move units between adjacent stages to
    minimize the worst per-dimension stage load.

    A unit may move one stage later (earlier) when none of its constraint
    successors (predecessors) would end up behind (ahead of) it — the same
    legality the flow network encodes.  Returns the number of moves.
    """
    degree = assignment.degree
    n_dims = len(next(iter(unit_dims.values()))) if unit_dims else 0
    if n_dims == 0:
        return 0
    # Constraint adjacency at unit granularity (dependences + CFG),
    # memoized on the model and shared with cut selection.
    succs, preds = model.unit_adjacency()

    # Float sums and the first-candidate-wins tie-break below are order
    # sensitive, and sets upstream iterate in an order that depends on
    # object addresses (cut-network keys embed ``id(reg)``): walk units
    # by (stage, id) here and in sorted order wherever a set is summed.
    stage_map = assignment.unit_stage
    ordered = sorted(stage_map, key=lambda unit: (stage_map[unit], unit))

    loads = [[0.0] * n_dims for _ in range(degree + 1)]  # 1-based stages
    for unit in ordered:
        for index, value in enumerate(unit_dims[unit]):
            loads[stage_map[unit]][index] += value

    totals = [sum(loads[stage][index] for stage in range(1, degree + 1)) or 1.0
              for index in range(n_dims)]
    # The objective is the normalized sum of squared stage loads — a
    # smooth surrogate for the per-dimension makespan (any evening move
    # improves it, so greedy descent does not get trapped the way
    # max-objectives do).  Moving a group of total dim-weight g from
    # stage s to stage t only touches those two stages, so the change is
    #     Δ = Σ_d 2·g_d·(g_d + load[t][d] − load[s][d]) / totals[d]²
    # evaluated in O(|group| + dims) instead of a full O(degree·dims)
    # objective recomputation per candidate.
    inv_scale_sq = [1.0 / (scale * scale) for scale in totals]

    def group_sums(group: set[int]) -> list[float]:
        group_dims = [0.0] * n_dims
        for member in sorted(group):
            vector = unit_dims[member]
            for index in range(n_dims):
                group_dims[index] += vector[index]
        return group_dims

    def move_delta(group_dims: list[float], stage: int,
                   new_stage: int) -> float:
        from_load = loads[stage]
        to_load = loads[new_stage]
        delta = 0.0
        for index in range(n_dims):
            g = group_dims[index]
            if g:
                delta += (2.0 * g * (g + to_load[index] - from_load[index])
                          * inv_scale_sq[index])
        return delta

    header_unit = model.header_unit
    latch_unit = model.latch_unit

    # closure() results are cached between passes: a computed group only
    # depends on the stage labels of the units it explored (members plus
    # the neighbors it examined), so after a move only the cache entries
    # whose explored set intersects the moved group are dropped.
    closure_cache: dict[tuple[int, bool], tuple[set[int] | None, set[int]]] = {}

    def closure(unit: int, *, forward: bool) -> set[int] | None:
        """The unit plus its same-stage descendants (forward) / ancestors.

        Moving the whole group one stage later (earlier) is always legal:
        every constraint leaving the group already points at a later
        (earlier) stage.  Returns None if the group touches the pinned
        header or latch units.
        """
        cached = closure_cache.get((unit, forward))
        if cached is not None:
            return cached[0]
        stage_of = assignment.unit_stage
        stage = stage_of[unit]
        neighbors = succs if forward else preds
        group = {unit}
        explored = {unit}
        work = [unit]
        while work:
            near = neighbors[work.pop()]
            explored.update(near)
            for neighbor in near:
                if stage_of[neighbor] == stage and neighbor not in group:
                    group.add(neighbor)
                    work.append(neighbor)
        result = None if header_unit in group or latch_unit in group else group
        closure_cache[(unit, forward)] = (result, explored)
        return result

    def apply(group: set[int], stage: int, new_stage: int, sign: int) -> None:
        for member in sorted(group):
            for index, value in enumerate(unit_dims[member]):
                loads[stage][index] -= sign * value
                loads[new_stage][index] += sign * value

    # Candidate deltas are cached alongside the closures: a move from s
    # to t only changes loads[s] and loads[t], so only candidates whose
    # source or destination stage is s or t (or whose group changed) can
    # have a different delta next pass.  Group dim-sums depend only on
    # group membership, so they survive load-only invalidations and a
    # recomputed delta costs O(dims), not O(|group|·dims).
    delta_cache: dict[tuple[int, int], float] = {}
    gsum_cache: dict[tuple[int, bool], list[float]] = {}

    moves = 0
    improved = True
    candidates = [unit for unit in ordered
                  if unit not in (header_unit, latch_unit)]
    while improved and moves < max_moves:
        improved = False
        best_delta = 0.0
        best_move = None
        for unit in candidates:
            stage = stage_map[unit]
            for direction in (1, -1):
                new_stage = stage + direction
                if not 1 <= new_stage <= degree:
                    continue
                forward = direction > 0
                # A cached delta is only ever kept while the candidate's
                # group, stage, and both endpoint loads are unchanged
                # (see the invalidation below), so on a hit the closure
                # walk is skipped entirely — the group is re-derived from
                # the (necessarily still valid) closure cache only if the
                # candidate wins the pass.
                delta = delta_cache.get((unit, direction))
                if delta is None:
                    # Cached group sums likewise outlive load-only
                    # invalidations, so a hit here proves the group is
                    # still valid and skips the closure walk too.
                    gsums = gsum_cache.get((unit, forward))
                    if gsums is None:
                        group = closure(unit, forward=forward)
                        if group is None or len(group) > 64:
                            continue
                        gsums = group_sums(group)
                        gsum_cache[(unit, forward)] = gsums
                    delta = move_delta(gsums, stage, new_stage)
                    delta_cache[(unit, direction)] = delta
                if delta < best_delta - 1e-9:
                    best_delta = delta
                    best_move = (unit, forward, stage, new_stage)
        if best_move is not None:
            unit, forward, stage, new_stage = best_move
            group = closure(unit, forward=forward)
            for member in group:
                assignment.unit_stage[member] = new_stage
            apply(group, stage, new_stage, +1)
            touched = (stage, new_stage)
            stage_of = assignment.unit_stage
            # Membership only depends on "explored node at the group's
            # stage?" — moving `group` from s to t flips that verdict
            # solely for entries whose own stage is s or t; everyone
            # else's traversal sees the same include/exclude answers and
            # stays valid, even when it explored a moved node.
            for key, (_, explored) in list(closure_cache.items()):
                if (stage_of[key[0]] in touched
                        and not explored.isdisjoint(group)):
                    del closure_cache[key]
                    gsum_cache.pop(key, None)
                    cand_unit, forward = key
                    delta_cache.pop((cand_unit, 1 if forward else -1), None)
            for key in list(delta_cache):
                cand_unit, cand_direction = key
                cand_stage = stage_of[cand_unit]
                if (cand_stage in touched
                        or cand_stage + cand_direction in touched
                        or cand_unit in group):
                    del delta_cache[key]
            moves += 1
            improved = True
    return moves


def _frontier_units(model: LoopDependenceModel, remaining: set[int]) -> set[int]:
    """Units in ``remaining`` with no dependence or control-flow
    predecessor in ``remaining`` (safe to peel into the next stage)."""
    _, preds = model.unit_adjacency()
    frontier = {unit for unit in remaining
                if not (preds[unit] & remaining)}
    return frontier or set(remaining)


def _validate(model: LoopDependenceModel, assignment: StageAssignment) -> None:
    """Every dependence must point forward (or stay) in the stage order."""
    stage_of = assignment.unit_stage
    for edge in model.unit_edges():
        src_stage = stage_of[edge.src]
        dst_stage = stage_of[edge.dst]
        if src_stage > dst_stage:
            raise AssertionError(
                f"dependence violated: unit {edge.src} (stage {src_stage}) "
                f"-> unit {edge.dst} (stage {dst_stage}) [{edge.kind}]"
            )
    for src_node in model.sgraph.nodes:
        for dst_node in model.sgraph.succs(src_node):
            src_stage = stage_of[model.unit_of_node(src_node)]
            dst_stage = stage_of[model.unit_of_node(dst_node)]
            if src_stage > dst_stage:
                raise AssertionError(
                    f"control-flow contiguity violated: node {src_node} "
                    f"(stage {src_stage}) -> node {dst_node} (stage {dst_stage})"
                )
    header_stage = stage_of[model.header_unit]
    if header_stage != 1:
        raise AssertionError(f"header unit landed in stage {header_stage}")
