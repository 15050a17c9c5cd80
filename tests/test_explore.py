"""Design-space exploration (src/repro/eval/explore.py).

The contract under test:

* the sorted-sweep Pareto filter agrees with the brute-force all-pairs
  dominance definition on arbitrary metric sets (hypothesis);
* ``explore(jobs=4)`` equals ``explore(jobs=1)`` cell for cell once the
  explicitly nondeterministic timing/cache fields are stripped
  (:func:`deterministic_report`);
* ``auto_pick``'s one rule: the pick is the best-scoring cell of the
  whole grid, on the frontier, and every passed-over cell carries a
  provenance note (hypothesis);
* ``frontier.md`` draws one pair of by-degree tables per knob combo;
* a search space with clashing cost tables or malformed knobs is
  rejected before anything runs.

That the default grid still regenerates the committed
``BENCH_headline.json`` byte for byte, picks included, is
``tests/test_paper_numbers.py``.
"""

from __future__ import annotations

import json
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.eval.explore import (
    ROW_TIMING,
    ExploreError,
    SearchSpace,
    auto_pick,
    deterministic_report,
    dominates,
    explore,
    pareto_flags,
    render_markdown,
    score,
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


def _cell(degree, speedup, words, *, ring="nn-ring", epsilon=0.0625,
          mbi=12):
    return {
        "id": f"app/{ring}/d{degree}/e{epsilon:g}/b{mbi}",
        "app": "app",
        "config": {"degree": degree, "ring": ring, "epsilon": epsilon,
                   "max_block_instructions": mbi},
        "metrics": {
            "speedup": speedup, "transmitted_words": words,
            "stages": degree, "longest_stage": 1.0,
            "overhead": words / 100.0},
    }


def test_the_pick_reads_past_a_dip_to_the_best_score():
    # The rx shape: gains through d5, flat at d6, rising again at d7 —
    # the pick is d7, the best score of the row, dip or no dip.
    cells = [_cell(1, 1.0, 0), _cell(2, 1.5, 8), _cell(3, 1.6, 16),
             _cell(4, 2.1, 24), _cell(5, 2.3, 29), _cell(6, 2.3, 36),
             _cell(7, 2.9, 46)]
    pick = auto_pick(cells)
    assert pick["config"]["degree"] == 7
    runner_up = cells[4]
    assert pick["runner_up"] == {"id": runner_up["id"], "score": 2.105}
    assert pick["why"] == (f"best score of 7 cell(s); runner-up "
                           f"{runner_up['id']} (2.1050)")
    assert "tie_break" not in pick
    assert runner_up["pick"] == f"outscored by {pick['id']} (2.6000)"


def test_no_eligible_cell_returns_none():
    # Every cell of the row failed: a failed cell is not recorded.
    assert auto_pick([]) is None


def test_tied_candidates_break_toward_fewer_stages():
    nn = _cell(3, 2.0, 10)
    scratch = _cell(4, 2.0 + 0.01, 10, ring="scratch-ring")
    # scratch's extra stage cancels its extra speedup: identical scores.
    pick = auto_pick([nn, scratch])
    assert pick["id"] == nn["id"]
    assert "tie_break" in pick
    assert "fewer stages" in pick["tie_break"]


def test_a_zero_gain_does_not_climb():
    # A rung that only holds the score ties with the rung below it, and
    # the tie breaks toward fewer stages.
    cells = [_cell(1, 1.0, 0), _cell(2, 1.01, 0)]
    pick = auto_pick(cells)
    assert pick["config"]["degree"] == 1
    assert pick["score"] == pick["runner_up"]["score"] == 0.99
    assert pick["tie_break"] == (f"tied score with {cells[1]['id']}; fewer "
                                 f"stages, then fewer words, then id order "
                                 f"decided")
    assert cells[1]["pick"] == f"outscored by {cells[0]['id']} (0.9900)"


cell_rows = st.lists(
    st.tuples(st.integers(1, 9), st.integers(0, 40), st.integers(0, 60),
              st.sampled_from(["nn-ring", "scratch-ring"])),
    min_size=1, max_size=18,
    unique_by=lambda row: (row[0], row[3]),
).map(lambda rows: [_cell(degree, speedup / 10.0, words, ring=ring)
                    for degree, speedup, words, ring in rows])


@given(cell_rows)
@settings(max_examples=200, deadline=None)
def test_no_cell_outscores_the_pick_and_the_pick_is_on_the_frontier(cells):
    flags = pareto_flags([cell["metrics"] for cell in cells])
    pick = auto_pick(cells)
    assert all(score(cell["metrics"]) <= pick["score"] for cell in cells)
    [picked] = [cell for cell in cells if cell["id"] == pick["id"]]
    assert flags[cells.index(picked)]
    assert all("pick" in cell for cell in cells)


def test_frontier_md_draws_one_table_pair_per_knob_combo():
    """Two rings are two knob combos: each gets its own speedup and
    overhead tables, so no ring's value overwrites the other's."""
    from repro.eval.report import render_figure

    nn = [_cell(1, 1.0, 0), _cell(2, 1.5, 8)]
    scratch = [_cell(1, 1.0, 0, ring="scratch-ring"),
               _cell(2, 1.25, 12, ring="scratch-ring")]
    cells = nn + scratch
    report = {
        "space": {"apps": ["app"], "degrees": [1, 2],
                  "rings": ["nn-ring", "scratch-ring"],
                  "epsilons": [0.0625], "packets": 4, "seed": 7},
        "weights": {"speedup": 1.0, "words": 0.005, "stages": 0.01},
        "apps": {"app": {"cells": cells, "frontier": [],
                         "pick": auto_pick(cells)}},
    }
    rendered = render_markdown(report)
    expected = [
        "## By degree: epsilon=0.0625 max_block_instructions=12 "
        "ring=nn-ring",
        render_figure("Speedup by degree", {"app": {1: 1.0, 2: 1.5}}),
        render_figure("Live-set overhead by degree",
                      {"app": {1: 0.0, 2: 0.08}}, value_format="{:6.3f}"),
        "## By degree: epsilon=0.0625 max_block_instructions=12 "
        "ring=scratch-ring",
        render_figure("Speedup by degree", {"app": {1: 1.0, 2: 1.25}}),
        render_figure("Live-set overhead by degree",
                      {"app": {1: 0.0, 2: 0.12}}, value_format="{:6.3f}"),
    ]
    positions = [rendered.index(block) for block in expected]
    assert positions == sorted(positions)
    assert rendered.count("Speedup by degree") == 2
    assert rendered.count("Live-set overhead by degree") == 2


# -- the search space -------------------------------------------------------


def test_search_space_rejects_bad_knobs():
    with pytest.raises(ExploreError, match="no apps"):
        SearchSpace(apps=(), degrees=(1,)).validate()
    with pytest.raises(ExploreError, match="unknown app 'nope'"):
        SearchSpace(apps=("rx", "nope"), degrees=(1,)).validate()
    with pytest.raises(ExploreError, match="bad degree"):
        SearchSpace(apps=("rx",), degrees=(0,)).validate()
    # A knob is checked by the Knobs the space builds per combo.
    for epsilon in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            SearchSpace(apps=("rx",), degrees=(2,),
                        epsilons=(epsilon,)).validate()
    with pytest.raises(ValueError, match="max_block_instructions"):
        SearchSpace(apps=("rx",), degrees=(2,),
                    max_block_instructions=(-1,)).validate()
    with pytest.raises(ValueError, match="unknown cost table"):
        SearchSpace(apps=("rx",), degrees=(2,),
                    rings=("token-ring",)).validate()


def test_search_space_dict_roundtrip_canonicalizes():
    """``as_dict`` is the report's ``space``: canonical, and unchanged
    by the JSON round trip into ``frontier.json``."""
    space = SearchSpace(apps=("rx",), degrees=(4, 2, 2),
                        rings=("nn", "nn-ring", "scratch"))
    data = space.as_dict()
    assert data["degrees"] == [2, 4]
    assert data["rings"] == ["nn-ring", "scratch-ring"]
    assert json.loads(json.dumps(data)) == data


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


def test_an_app_named_twice_is_one_row():
    """Apps are de-duplicated in order, as rings are: ``--apps rx,rx``
    explores, scores and picks exactly what ``--apps rx`` does — a
    duplicated row would tie each cell with its own copy."""
    twice = SearchSpace(apps=("rx", "tx", "rx"), degrees=(1, 2), packets=4)
    once = SearchSpace(apps=("rx", "tx"), degrees=(1, 2), packets=4)
    assert twice == once and twice.cell_count() == 4
    assert (deterministic_report(explore(SearchSpace(
        apps=("rx", "rx"), degrees=(1, 2), packets=4)))
        == deterministic_report(explore(SearchSpace(
            apps=("rx",), degrees=(1, 2), packets=4))))


def test_every_layer_of_a_row_has_a_timing_key():
    """A row's wall time is named layer by layer: its ``timing`` keys
    are the :data:`ROW_TIMING` layers, each cell's are its partition and
    its measurement, and the named seconds add up to no more than the
    row took; ``explore`` sums every key over the rows."""
    (row,) = SearchSpace(apps=("rx",), degrees=(1, 2),
                         packets=8).rows(None)
    start = perf_counter()
    record = row.run()
    wall = perf_counter() - start
    timing = record["timing"]
    assert tuple(timing) == ROW_TIMING
    assert all(seconds >= 0 for seconds in timing.values())
    assert sum(timing.values()) <= wall + 0.001 * len(timing)
    for cell in record["cells"]:
        assert set(cell["timing"]) == {"partition_seconds",
                                       "measure_seconds"}
    assert timing["measure_seconds"] == pytest.approx(sum(
        cell["timing"]["measure_seconds"] for cell in record["cells"]),
        abs=1e-3)
    report = explore(SearchSpace(apps=("rx",), degrees=(1, 2), packets=8))
    assert tuple(report["timing"]) == ROW_TIMING
    clean = deterministic_report(report)
    assert "timing" not in clean
    assert not any("timing" in cell for cell in clean["apps"]["rx"]["cells"])


# -- the driver: parallel == sequential, cell for cell -----------------------


SMALL_SPACE = SearchSpace(apps=("rx",), degrees=(1, 2, 3), packets=8)


def test_explore_parallel_equals_sequential_cell_for_cell():
    sequential = explore(SMALL_SPACE, jobs=1)
    parallel = explore(SMALL_SPACE, jobs=4)
    assert (json.dumps(deterministic_report(sequential), sort_keys=True)
            == json.dumps(deterministic_report(parallel), sort_keys=True))
    cells = sequential["apps"]["rx"]["cells"]
    assert [cell["config"]["degree"] for cell in cells] == [1, 2, 3]
    assert [cell["metrics"]["stages"] for cell in cells] == [1, 2, 3]
    pick = sequential["apps"]["rx"]["pick"]
    assert pick is not None and pick["metrics"]["speedup"] >= 1.0
    # The markdown renderer accepts the deterministic report verbatim.
    rendered = render_markdown(deterministic_report(sequential))
    assert pick["id"] in rendered


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_cell_crash_is_recorded_at_every_jobs_level(monkeypatch, tmp_path,
                                                     capsys, jobs):
    """A crashing grid cell is a record — its id and a degree-exact
    reproduce one-liner under ``failures`` — and never ends the grid: the
    row's other degrees are measured, ``frontier.json`` / ``.md`` and
    ``timings.json`` are still written, and ``repro explore`` exits 1."""
    import repro.pipeline.supervisor as supervisor_mod
    from repro.cli import main

    real = supervisor_mod.supervise_partition

    def boom(module, pps_name, degree, **kwargs):
        if degree == 3:
            raise RuntimeError("injected cell crash")
        return real(module, pps_name, degree, **kwargs)

    # Forked pool workers inherit the patched supervisor.
    monkeypatch.setattr(supervisor_mod, "supervise_partition", boom)
    out = tmp_path / "explore"
    assert main(["explore", "--apps", "rx", "--degrees", "1,2,3",
                 "--packets", "8", "--no-cache", "-j", str(jobs),
                 "-o", str(out)]) == 1
    printed = capsys.readouterr().out
    assert printed.count("FAILED") == 1 and "1 cells FAILED" in printed

    frontier = json.loads((out / "frontier.json").read_text())
    [failure] = frontier["failures"]
    assert failure["cell"] == "rx/nn-ring/d3/e0.0625/b12"
    assert failure["app"] == "rx" and failure["seed"] == 7
    assert "injected cell crash" in failure["error"]
    assert failure["repro"].startswith("repro explore --apps rx --degrees 3 ")
    assert failure["repro"] in (out / "frontier.md").read_text()
    assert (out / "timings.json").exists()

    # The surviving degrees of the same row were still measured.
    cells = frontier["apps"]["rx"]["cells"]
    assert [cell["config"]["degree"] for cell in cells] == [1, 2]
    assert [cell["metrics"]["stages"] for cell in cells] == [1, 2]
    assert frontier["apps"]["rx"]["pick"] is not None


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_row_that_fails_to_build_fails_every_cell_of_its_row(monkeypatch,
                                                               jobs):
    """A failure before the degree loop fails the whole row, and each of
    its cells is recorded by its own id, in the shape of a failed
    degree; the other app's row is untouched."""
    from repro.runspec import RunSpec

    real = RunSpec.build

    def build(spec):
        if spec.app == "tx":
            raise RuntimeError("injected build failure")
        return real(spec)

    monkeypatch.setattr(RunSpec, "build", build)
    report = explore(SearchSpace(apps=("rx", "tx"), degrees=(1, 2),
                                 packets=8), jobs=jobs)
    failures = report["failures"]
    assert [failure["cell"] for failure in failures] == [
        "tx/nn-ring/d1/e0.0625/b12", "tx/nn-ring/d2/e0.0625/b12"]
    for degree, failure in zip((1, 2), failures):
        assert set(failure) == {"cell", "app", "seed", "error", "task",
                                "repro"}
        assert "injected build failure" in failure["error"]
        assert failure["repro"].startswith(
            f"repro explore --apps tx --degrees {degree} ")
    assert report["apps"]["tx"] == {"cells": [], "frontier": [],
                                    "pick": None}
    assert len(report["apps"]["rx"]["cells"]) == 2


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
