"""Every flow network the cut search builds, pinned.

``select_stages`` builds one Figure-5 network per successive cut.  The
digests in ``golden/flownet_networks.json`` cover, for every cut of the
seven figure PPSes at D 2..9 (profiled, as a sweep runs them) and of
generated programs 0..19 at D 3, 6, 9: the node weights, the node keys
(``var_key``'s ``id(reg)`` left out — it changes from run to run), and
the ``(src, dst, cap)`` edge sequence, in order.  Node numbering and
edge order are part of what is pinned: push-relabel's FIFO discharge
order, and with it ``pr_work``, depends on them — so each entry also
records the cut's ``pr_work`` and collapse iterations.

A change that moves one edge of one network fails here.  If it does so
on purpose, regenerate with ``PYTHONPATH=src python
tests/test_flownet_network_golden.py`` and say why in the commit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import compile_module
from repro.analysis.context import AnalysisContext
from repro.apps.suite import FIGURE_APPS, build_app
from repro.pipeline import cuts
from repro.testing.progen import random_pps_source

GOLDEN = Path(__file__).parent / "golden" / "flownet_networks.json"
APP_DEGREES = range(2, 10)
PROGEN_SEEDS = range(20)
PROGEN_DEGREES = (3, 6, 9)


def network_digest(network) -> str:
    """SHA-256 (first 16 hex digits) over weights, keys and edges."""
    keys = []
    for index in range(network.node_count):
        key = network.key_of(index)
        keys.append([key[0], key[2]] if key[0] == "var" else list(key))
    edges = [(edge.src, edge.dst, edge.cap)
             for edge in network.edges[0::2]]
    text = json.dumps([network.source, network.sink, network.weights,
                       keys, edges])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def record_cuts(monkeypatch, label, model, degree, profiles=None) -> dict:
    """``{"<label> d<D> cut<i>": [digest, pr_work, iterations]}``, with
    each network digested as built, before the search consumes it."""
    digests = []
    build = cuts.build_cut_network

    def digesting(*args, **kwargs):
        cut_net = build(*args, **kwargs)
        digests.append(network_digest(cut_net.network))
        return cut_net

    monkeypatch.setattr(cuts, "build_cut_network", digesting)
    try:
        assignment = cuts.select_stages(model, degree, profiles=profiles)
    finally:
        monkeypatch.setattr(cuts, "build_cut_network", build)
    assert len(digests) == len(assignment.diagnostics)
    return {f"{label} d{degree} cut{diag.stage}":
            [digest, diag.pr_work, diag.iterations]
            for digest, diag in zip(digests, assignment.diagnostics)}


def app_records(monkeypatch, name) -> dict:
    app = build_app(name, packets=8, seed=7)
    context = AnalysisContext(app.module, app.pps_name)
    profiles = context.profiles_for(app.profiler)
    records = {}
    for degree in APP_DEGREES:
        records.update(record_cuts(monkeypatch, name, context.model, degree,
                                   profiles))
    return records


def progen_records(monkeypatch, seed) -> dict:
    module = compile_module(random_pps_source(seed), "<progen>")
    model = AnalysisContext(module, next(iter(module.ppses))).model
    records = {}
    for degree in PROGEN_DEGREES:
        records.update(record_cuts(monkeypatch, f"progen{seed}", model,
                                   degree))
    return records


def all_records(monkeypatch) -> dict:
    records = {}
    for name in FIGURE_APPS:
        records.update(app_records(monkeypatch, name))
    for seed in PROGEN_SEEDS:
        records.update(progen_records(monkeypatch, seed))
    return records


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", FIGURE_APPS)
def test_figure_app_networks_match_golden(monkeypatch, golden, name):
    records = app_records(monkeypatch, name)
    expected = {key: value for key, value in golden.items()
                if key.split(" ")[0] == name}
    assert records == expected


def test_generated_program_networks_match_golden(monkeypatch, golden):
    records = {}
    for seed in PROGEN_SEEDS:
        records.update(progen_records(monkeypatch, seed))
    expected = {key: value for key, value in golden.items()
                if key.startswith("progen")}
    assert records == expected


def test_golden_covers_every_cut(golden):
    """Every (program, D) of the grid has its cuts pinned."""
    labels = [*FIGURE_APPS, *(f"progen{seed}" for seed in PROGEN_SEEDS)]
    cells = {" ".join(key.split(" ")[:2]) for key in golden}
    assert cells == {f"{label} d{degree}" for label in labels
                     for degree in (PROGEN_DEGREES
                                    if label.startswith("progen")
                                    else APP_DEGREES)}


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as patch:
        lines = [f" {json.dumps(key)}: {json.dumps(value)}"
                 for key, value in all_records(patch).items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN}")
