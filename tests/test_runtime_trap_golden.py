"""Every dead letter and every interpreter's counters under fault plans,
pinned.

A trap an injected fault plan arms fires at the block entry where the
interpreter's instruction budget runs out; a quarantine then writes a
:class:`~repro.runtime.faults.DeadLetter` and restarts the stage at its
loop start.  ``golden/trap_points.json`` records, for each run below,
every dead letter (stage, iteration, instructions, last block, cause,
detail) and every interpreter's :class:`~repro.runtime.interp.InterpStats`
(the six counters in full, the block hits and serial sections by
digest), for the sequential oracle and the pipeline alike, as the
``faults`` check family of :mod:`repro.eval.fuzz` runs them:

* the apps of :data:`GOLDEN_APPS` at D 1, 2 and 4 under every builtin
  plan;
* generated programs 0..39 at D 2, 3 and 6 under ``trap-storm`` and
  ``mixed-loss``.

A change to how the runtime counts, traps or restarts that moves one
firing point or one counter fails here.  If it does so on purpose,
regenerate with ``PYTHONPATH=src python tests/test_runtime_trap_golden.py``
and say why in the commit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.apps.suite import build_app
from repro.eval.fuzz import generated_app
from repro.runspec import app_pipeline
from repro.runtime.faults import FaultInjector, builtin_plans
from repro.runtime.scheduler import (
    pipeline_interpreters,
    run_group,
    sequential_interpreter,
)
from repro.runtime.state import MachineState
from repro.testing.progen import random_pps_source

GOLDEN = Path(__file__).parent / "golden" / "trap_points.json"
PACKETS, APP_SEED = 24, 7
#: The apps the golden pins: a fixed list, so the file holds still
#: while the suite grows (every app is checked under the plans by
#: ``tests/test_fuzz.py``).
GOLDEN_APPS = ("rx", "ipv4", "ip_v4", "ip_v6")
APP_DEGREES = (1, 2, 4)
PROGEN_SEEDS = range(40)
PROGEN_DEGREES = (2, 3, 6)
PROGEN_PLANS = ("trap-storm", "mixed-loss")
#: The generated programs are checked in this many test cases.
PROGEN_GROUPS = 4


def stats_record(stats) -> list:
    """The six counters, then a digest of the per-block and per-resource
    books (SHA-256, first 16 hex digits)."""
    books = json.dumps([list(stats.block_names), stats.block_hits,
                        sorted((str(key), value) for key, value
                               in stats.serial_weight.items()),
                        sorted((str(key), value) for key, value
                               in stats.serial_sections.items())])
    return [stats.instructions, stats.weight, stats.iterations,
            stats.transmission_weight, stats.blocked, stats.traps,
            hashlib.sha256(books.encode()).hexdigest()[:16]]


def run_record(app, stages, stream: list, plan) -> dict:
    """Run ``app`` on ``stream`` as ``stages`` (sequentially when None)
    under ``plan``, traps quarantined: its letters and counters."""
    state = MachineState(app.module)
    FaultInjector(plan).arm(state)
    iterations = app.feed(state, stream)
    if stages is None:
        function = app.module.pps(app.pps_name)
        interpreters = {function.name: sequential_interpreter(
            function, state, iterations)}
    else:
        interpreters = pipeline_interpreters(stages, state, iterations)
    run_group(interpreters, isolate_traps=True)
    return {
        "letters": [[letter.stage, letter.iteration, letter.instructions,
                     letter.last_block, letter.cause, letter.detail]
                    for letter in state.dead_letters],
        "stats": {name: stats_record(interp.stats)
                  for name, interp in interpreters.items()},
    }


def program_records(label: str, app, degrees, plans) -> dict:
    """``{"<label> <plan> oracle" | "<label> <plan> d<D>": record}``."""
    builtin = builtin_plans()
    stages = {degree: app_pipeline(app, degree).stages for degree in degrees}
    records = {}
    for name in plans:
        plan = builtin[name]
        stream = FaultInjector(plan).perturb(app.pps_name, app.stream())
        records[f"{label} {name} oracle"] = run_record(app, None, stream,
                                                       plan)
        for degree in degrees:
            records[f"{label} {name} d{degree}"] = run_record(
                app, stages[degree], stream, plan)
    return records


def app_records(name: str) -> dict:
    return program_records(name, build_app(name, packets=PACKETS,
                                           seed=APP_SEED),
                           APP_DEGREES, builtin_plans())


def progen_records(seed: int) -> dict:
    app = generated_app(random_pps_source(seed), seed, PACKETS)
    return program_records(f"progen{seed}", app, PROGEN_DEGREES,
                           PROGEN_PLANS)


def all_records() -> dict:
    records = {}
    for name in GOLDEN_APPS:
        records.update(app_records(name))
    for seed in PROGEN_SEEDS:
        records.update(progen_records(seed))
    return records


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def matching(golden: dict, labels) -> dict:
    return {key: value for key, value in golden.items()
            if key.split(" ")[0] in labels}


@pytest.mark.parametrize("name", GOLDEN_APPS)
def test_stream_app_trap_points_match_golden(golden, name):
    assert app_records(name) == matching(golden, {name})


@pytest.mark.parametrize("group", range(PROGEN_GROUPS))
def test_generated_program_trap_points_match_golden(golden, group):
    seeds = PROGEN_SEEDS[group::PROGEN_GROUPS]
    records = {}
    for seed in seeds:
        records.update(progen_records(seed))
    assert records == matching(golden, {f"progen{seed}" for seed in seeds})


def test_golden_covers_every_run_and_fires_traps(golden):
    """Every (program, plan, run) of the grid is pinned, and the trap
    plan leaves dead letters to pin."""
    expected = {f"{name} {plan} {run}" for name in GOLDEN_APPS
                for plan in builtin_plans()
                for run in ("oracle", *(f"d{d}" for d in APP_DEGREES))}
    expected |= {f"progen{seed} {plan} {run}" for seed in PROGEN_SEEDS
                 for plan in PROGEN_PLANS
                 for run in ("oracle", *(f"d{d}" for d in PROGEN_DEGREES))}
    assert set(golden) == expected
    assert all(golden[f"{name} trap-storm d4"]["letters"]
               for name in GOLDEN_APPS)


if __name__ == "__main__":
    lines = [f" {json.dumps(key)}: {json.dumps(value)}"
             for key, value in all_records().items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN}")
