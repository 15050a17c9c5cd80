"""Design-space exploration (src/repro/eval/explore.py).

The contract under test:

* the sorted-sweep Pareto filter agrees with the brute-force all-pairs
  dominance definition on arbitrary metric sets (hypothesis);
* ``explore(jobs=4)`` equals ``explore(jobs=1)`` cell for cell once the
  explicitly nondeterministic timing/cache fields are stripped
  (:func:`deterministic_report`);
* ``auto_pick`` never picks a degraded or unverified cell, the marginal
  rule stops at the first score plateau (the paper's "levels off" knee),
  and every passed-over cell carries a provenance note;
* a search space with clashing cost tables or malformed knobs is
  rejected before anything runs.

That the default grid still regenerates the committed
``EXPLORE_frontier.json`` byte for byte is ``tests/test_paper_numbers.py``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.eval.explore import (
    ExploreError,
    SearchSpace,
    Weights,
    auto_pick,
    deterministic_report,
    dominates,
    explore,
    pareto_flags,
    render_markdown,
)
from repro.runspec import Knobs


# -- Pareto filter vs brute force -------------------------------------------


metric_sets = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 4)),
    min_size=0, max_size=24,
).map(lambda triples: [
    {"speedup": s / 2.0, "transmitted_words": w, "stages": d}
    for s, w, d in triples
])


def brute_force_flags(metrics):
    return [not any(dominates(other, candidate)
                    for other in metrics if other is not candidate)
            for candidate in metrics]


@given(metric_sets)
@settings(max_examples=200, deadline=None)
def test_pareto_filter_matches_brute_force(metrics):
    assert pareto_flags(metrics) == brute_force_flags(metrics)


@given(metric_sets)
@settings(max_examples=50, deadline=None)
def test_pareto_frontier_nonempty_and_undominated(metrics):
    flags = pareto_flags(metrics)
    if metrics:
        assert any(flags)
    front = [m for m, keep in zip(metrics, flags) if keep]
    for kept in front:
        assert not any(dominates(other, kept) for other in metrics)


def test_duplicate_metrics_all_stay_on_the_frontier():
    cell = {"speedup": 2.0, "transmitted_words": 8, "stages": 3}
    assert pareto_flags([dict(cell), dict(cell), dict(cell)]) == [True] * 3


# -- auto-pick --------------------------------------------------------------


def _cell(degree, speedup, words, *, ring="nn-ring", verified=True,
          degraded=False, epsilon=0.0625, mbi=12):
    return {
        "id": f"app/{ring}/d{degree}/e{epsilon:g}/b{mbi}",
        "app": "app",
        "config": {"degree": degree, "ring": ring, "epsilon": epsilon,
                   "max_block_instructions": mbi},
        "verified": verified,
        "degraded": degraded,
        "achieved_degree": degree if not degraded else degree - 1,
        "metrics": None if not verified else {
            "speedup": speedup, "transmitted_words": words,
            "stages": degree, "longest_stage": 1.0},
    }


def test_marginal_rule_stops_at_the_plateau():
    # The rx shape: gains through d5, flat at d6, rising again at d7 —
    # the ladder must stop at 5 and never see 7's higher raw speedup.
    cells = [_cell(1, 1.0, 0), _cell(2, 1.5, 8), _cell(3, 1.6, 16),
             _cell(4, 2.1, 24), _cell(5, 2.3, 29), _cell(6, 2.3, 36),
             _cell(7, 2.9, 46)]
    pick = auto_pick(cells, Weights(), rule="marginal")
    assert pick["config"]["degree"] == 5
    assert "stopped" in pick["why"]
    beyond = next(c for c in cells if c["config"]["degree"] == 7)
    assert "beyond the plateau" in beyond["pick"]


def test_marginal_rule_climbs_a_monotone_curve_to_the_top():
    cells = [_cell(d, 1.0 + 0.5 * d, 8 * d) for d in range(1, 6)]
    pick = auto_pick(cells, Weights(), rule="marginal")
    assert pick["config"]["degree"] == 5
    assert "still improving" in pick["why"]
    assert [step["decision"] for step in pick["ladder"]] == \
        ["start"] + ["accept"] * 4


def test_degraded_and_unverified_cells_are_never_picked():
    cells = [_cell(1, 1.0, 0),
             _cell(2, 9.9, 0, degraded=True),
             _cell(3, 9.9, 0, verified=False)]
    pick = auto_pick(cells, Weights(), rule="marginal")
    assert pick["config"]["degree"] == 1
    notes = {c["config"]["degree"]: c.get("pick") for c in cells}
    assert "degraded" in notes[2]
    assert "unverified" in notes[3]


def test_no_eligible_cell_returns_none():
    cells = [_cell(2, 2.0, 8, verified=False)]
    assert auto_pick(cells, Weights(), rule="marginal") is None


def test_score_rule_is_a_plain_argmax():
    cells = [_cell(1, 1.0, 0), _cell(2, 1.5, 8), _cell(3, 1.5, 8),
             _cell(4, 2.0, 40)]
    pick = auto_pick(cells, Weights(speedup=1.0, words=0.0, stages=0.0),
                     rule="score")
    assert pick["config"]["degree"] == 4
    assert "argmax" in pick["why"]


def test_tied_candidates_break_toward_fewer_stages():
    nn = _cell(3, 2.0, 10)
    scratch = _cell(4, 2.0 + 0.01, 10, ring="scratch-ring")
    # scratch's extra stage cancels its extra speedup: identical scores.
    pick = auto_pick([nn, scratch], Weights(speedup=1.0, words=0.0,
                                            stages=0.01), rule="score")
    assert pick["id"] == nn["id"]
    assert "tie_break" in pick
    assert "fewer stages" in pick["tie_break"]


def test_min_gain_raises_the_bar_for_climbing():
    cells = [_cell(1, 1.0, 0), _cell(2, 1.05, 2)]
    eager = auto_pick([dict(c) for c in cells],
                      Weights(speedup=1.0, words=0.0, stages=0.0),
                      rule="marginal")
    assert eager["config"]["degree"] == 2
    picky = auto_pick([dict(c) for c in cells],
                      Weights(speedup=1.0, words=0.0, stages=0.0),
                      rule="marginal", min_gain=0.1)
    assert picky["config"]["degree"] == 1


def test_unknown_pick_rule_is_rejected():
    with pytest.raises(ExploreError, match="unknown pick rule"):
        auto_pick([_cell(1, 1.0, 0)], Weights(), rule="best")


# -- weights and the search space -------------------------------------------


def test_weights_parse_roundtrip_and_validation():
    weights = Weights.parse("speedup=2, words=0.01")
    assert weights == Weights(speedup=2.0, words=0.01, stages=0.01)
    with pytest.raises(ExploreError, match="unknown objective weight"):
        Weights.parse("latency=1")
    with pytest.raises(ExploreError, match="name=value"):
        Weights.parse("speedup")
    with pytest.raises(ExploreError, match="must be positive"):
        Weights.parse("speedup=0")


def test_search_space_rejects_bad_knobs():
    with pytest.raises(ExploreError, match="no apps"):
        SearchSpace(apps=(), degrees=(1,)).validate()
    with pytest.raises(ExploreError, match="bad degree"):
        SearchSpace(apps=("rx",), degrees=(0,)).validate()
    with pytest.raises(ExploreError, match="bad epsilon"):
        SearchSpace(apps=("rx",), degrees=(2,),
                    epsilons=(0.0,)).validate()
    with pytest.raises(ValueError, match="unknown cost table"):
        SearchSpace(apps=("rx",), degrees=(2,),
                    rings=("token-ring",)).validate()


def test_search_space_rejects_parameter_identical_cost_tables():
    from repro.machine.costs import NN_RING, CostModel, register_cost_table

    clone = CostModel(name="nn-ring-clone-for-test",
                      vcost_per_word=NN_RING.vcost_per_word,
                      ccost=NN_RING.ccost,
                      send_fixed=NN_RING.send_fixed,
                      send_per_word=NN_RING.send_per_word,
                      recv_fixed=NN_RING.recv_fixed,
                      recv_per_word=NN_RING.recv_per_word)
    try:
        register_cost_table(clone)
    except ValueError:
        pass  # already registered by an earlier test in this process
    with pytest.raises(ExploreError, match="identical cost parameters"):
        SearchSpace(apps=("rx",), degrees=(2,),
                    rings=("nn-ring", clone.name)).validate()


def test_search_space_dict_roundtrip_canonicalizes():
    space = SearchSpace(apps=("rx",), degrees=(4, 2, 2),
                        rings=("nn", "nn-ring", "scratch"))
    data = space.as_dict()
    assert data["degrees"] == [2, 4]
    assert data["rings"] == ["nn-ring", "scratch-ring"]
    again = SearchSpace.from_dict(json.loads(json.dumps(data)))
    assert again.as_dict() == data
    with pytest.raises(ExploreError, match="unknown search-space keys"):
        SearchSpace.from_dict({"apps": ["rx"], "degrees": [2],
                               "budget": 1})


def test_combos_are_deterministic_and_deduplicated():
    space = SearchSpace(apps=("rx",), degrees=(2,),
                        rings=("nn", "nn-ring"),
                        epsilons=(0.25, 0.0625, 0.25),
                        max_block_instructions=(12, 6))
    combos = space.combos()
    assert combos == space.combos()
    assert combos == [
        Knobs(epsilon=0.0625, max_block_instructions=6),
        Knobs(epsilon=0.0625, max_block_instructions=12),
        Knobs(epsilon=0.25, max_block_instructions=6),
        Knobs(epsilon=0.25, max_block_instructions=12),
    ]
    assert space.cell_count() == 4


# -- the driver: parallel == sequential, cell for cell -----------------------


SMALL_SPACE = SearchSpace(apps=("rx",), degrees=(1, 2, 3), packets=8)


def test_explore_parallel_equals_sequential_cell_for_cell():
    sequential = explore(SMALL_SPACE, jobs=1)
    parallel = explore(SMALL_SPACE, jobs=4)
    assert (json.dumps(deterministic_report(sequential), sort_keys=True)
            == json.dumps(deterministic_report(parallel), sort_keys=True))
    cells = sequential["apps"]["rx"]["cells"]
    assert [cell["config"]["degree"] for cell in cells] == [1, 2, 3]
    assert all(cell["verified"] for cell in cells)
    pick = sequential["apps"]["rx"]["pick"]
    assert pick is not None and pick["metrics"]["speedup"] >= 1.0
    # The markdown renderer accepts the deterministic report verbatim.
    rendered = render_markdown(deterministic_report(sequential))
    assert pick["id"] in rendered


def test_keep_going_records_failed_cell_with_degree_repro(monkeypatch):
    """A single crashing grid cell lands under ``failures`` (with a
    degree-exact repro one-liner) instead of killing the exploration;
    the row's other degrees still get measured."""
    import repro.pipeline.supervisor as supervisor_mod

    real = supervisor_mod.supervise_partition

    def boom(module, pps_name, degree, **kwargs):
        if degree == 3:
            raise RuntimeError("injected cell crash")
        return real(module, pps_name, degree, **kwargs)

    monkeypatch.setattr(supervisor_mod, "supervise_partition", boom)
    report = explore(SMALL_SPACE, jobs=1, keep_going=True)

    failures = report["failures"]
    assert len(failures) == 1
    failure = failures[0]
    assert failure["failed"] and failure["app"] == "rx"
    assert "injected cell crash" in failure["error"]
    assert failure["repro"].startswith("repro explore --apps rx")
    assert "--degrees 3" in failure["repro"]
    assert failure["cell"].startswith("rx/") and "/d3/" in failure["cell"]

    # The surviving degrees of the same row were still measured.
    cells = report["apps"]["rx"]["cells"]
    assert [cell["config"]["degree"] for cell in cells] == [1, 2]
    assert all(cell["verified"] for cell in cells)

    # The frontier artifact keeps the failures and renders the repro.
    clean = deterministic_report(report)
    assert clean["failures"] == failures
    assert failure["repro"] in render_markdown(clean)


def test_cell_crash_without_keep_going_fails_fast(monkeypatch):
    from repro.eval.sweep import SweepError
    import repro.pipeline.supervisor as supervisor_mod

    def boom(module, pps_name, degree, **kwargs):
        raise RuntimeError("injected cell crash")

    monkeypatch.setattr(supervisor_mod, "supervise_partition", boom)
    with pytest.raises(SweepError, match="injected cell crash"):
        explore(SMALL_SPACE, jobs=1, keep_going=False)


def test_deterministic_report_strips_wall_clock_fields():
    report = explore(SMALL_SPACE, jobs=1)
    assert "timing" in report
    assert all("timing" in cell
               for cell in report["apps"]["rx"]["cells"])
    clean = deterministic_report(report)
    assert "timing" not in clean and "cache" not in clean
    assert all("timing" not in cell
               for cell in clean["apps"]["rx"]["cells"])
    # ... without mutating the full report.
    assert all("timing" in cell
               for cell in report["apps"]["rx"]["cells"])
