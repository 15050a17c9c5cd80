"""Naive partitioners: the baselines of the balanced-min-cut ablations.

The paper's contribution is the *balanced minimum cut*: it both balances
instruction counts and minimizes the live set.  These baselines isolate
the two claims:

* ``level_split`` — slice a topological order of the dependence units
  into D runs of equal *unit count*, ignoring weights and live sets (the
  naive "cut by program position" a hand partitioner might start from);
* ``greedy_weight_split`` — slice the same order by accumulated weight
  (balances instruction counts like the paper, but places cuts wherever
  the running total crosses the boundary, ignoring live-set cost).

Both orders are consistent with every dependence and control-flow
constraint, so the resulting assignments realize correctly — they are
just worse, which is the point.

Each takes (and ignores) :func:`repro.pipeline.cuts.select_stages`'
keyword arguments, so a test swaps one in for the balanced min cut by
patching ``repro.pipeline.transform.select_stages`` — and then calls
``pipeline_pps`` without a cache, which would store the baseline's
partition under the balanced cut's key.
"""

from __future__ import annotations

from repro.analysis.dependence_graph import LoopDependenceModel
from repro.analysis.graph import Digraph
from repro.pipeline.cuts import StageAssignment, _validate


def _unit_topological_order(model: LoopDependenceModel) -> list[int]:
    """Units in an order consistent with dependences and control flow."""
    graph = Digraph()
    for unit in model.units.members:
        graph.add_node(unit)
    for edge in model.unit_edges():
        if edge.src != edge.dst:
            graph.add_edge(edge.src, edge.dst)
    for src_node in model.sgraph.nodes:
        src_unit = model.unit_of_node(src_node)
        for dst_node in model.sgraph.succs(src_node):
            dst_unit = model.unit_of_node(dst_node)
            if src_unit != dst_unit:
                graph.add_edge(src_unit, dst_unit)
    order = graph.topological_order()
    # Stable secondary criterion: header first, latch last.
    assert order.index(model.header_unit) <= order.index(model.latch_unit)
    return order


def _finish(model: LoopDependenceModel, assignment: StageAssignment) -> StageAssignment:
    for unit, stage in assignment.unit_stage.items():
        for block in model.unit_blocks(unit):
            assignment.block_stage[block] = stage
    _validate(model, assignment)
    return assignment


def level_split(model: LoopDependenceModel, degree: int,
                **_select_stages_keywords) -> StageAssignment:
    """Equal *unit-count* slices of the topological order."""
    order = _unit_topological_order(model)
    assignment = StageAssignment(degree=degree)
    per_stage = max(1, len(order) // degree)
    for index, unit in enumerate(order):
        stage = min(degree, index // per_stage + 1)
        assignment.unit_stage[unit] = stage
    # The latch must close the last stage.
    assignment.unit_stage[model.latch_unit] = degree
    return _finish(model, assignment)


def greedy_weight_split(model: LoopDependenceModel, degree: int,
                        **_select_stages_keywords) -> StageAssignment:
    """Equal *weight* slices of the topological order (no cut-cost
    awareness)."""
    order = _unit_topological_order(model)
    total = model.total_weight()
    assignment = StageAssignment(degree=degree)
    stage = 1
    accumulated = 0
    remaining_weight = total
    for index, unit in enumerate(order):
        weight = model.unit_weight(unit)
        stages_left = degree - stage + 1
        target = remaining_weight / stages_left if stages_left else remaining_weight
        if accumulated >= target and stage < degree:
            stage += 1
            remaining_weight -= accumulated
            accumulated = 0
        assignment.unit_stage[unit] = stage
        accumulated += weight
    assignment.unit_stage[model.latch_unit] = degree
    return _finish(model, assignment)
