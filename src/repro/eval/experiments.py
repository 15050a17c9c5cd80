"""The paper's evaluation numbers (paper §4), from one function.

:func:`figures_record` measures every PPS of

* Figure 19 — speedup vs pipelining degree, IPv4 forwarding PPSes
  (RX, IPv4, Scheduler, QM, TX);
* Figure 20 — speedup vs degree, IP forwarding PPSes (RX, IP with IPv4
  traffic, IP with IPv6 traffic, TX);
* Figures 21 / 22 — live-set transmission overhead vs degree for the
  same two applications;
* the §4 headline: ">4X speedup at 9 stages" for the IPv4 and IP PPSes

and returns them as one record of pure fields — weighted instruction
counts of compiled code, no clock — projected from the default-knob
slice of the verified (app, degree) sweep that ``repro explore`` runs.
``repro figures`` prints the record and ``-o`` writes it; the committed
``BENCH_headline.json`` *is* that output at the default grid, and
tier-1 regenerates it and asserts equality
(``tests/test_paper_numbers.py``).  Whether something got
*slower* is ``bench/run.py``'s question, not this module's.
"""

from __future__ import annotations

from dataclasses import replace

from repro.apps.suite import IP_FORWARDING_PPSES, IPV4_FORWARDING_PPSES


def figures_record(*, packets: int = 60, seed: int = 7,
                   degrees: list[int] | None = None,
                   jobs: int = 1) -> dict:
    """Figures 19–22 and the headline over ``degrees`` (default 1–9).

    A projection of the default-knob slice of the ``repro explore``
    sweep (:mod:`repro.eval.sweep`): one row per *distinct* app (``rx``
    and ``tx`` sit in both applications but are partitioned and
    simulated once), every cell partitioned through the supervisor and
    independently verified, every pipelined run checked observationally
    equivalent to the sequential one.  A cell the verifier did not pass
    at its degree on the first attempt is a :class:`SweepError` naming
    it, never a degraded number.  Always solved cold: a cached artifact
    carries the work counters of whichever command solved it first, so
    only an uncached run is a pure function of the source — the same
    record at any ``jobs`` level, on any host.

    Returns a JSON-serializable dict: ``config``, per-(app, degree)
    ``partition_breakdown`` (``cut_iterations`` / ``pr_work``), per
    figure the ``apps``, their summed
    ``simulated_instructions`` and ``speedup_by_degree`` /
    ``overhead_by_degree`` series, and ``headline_speedup_degree<top>``.
    """
    from repro.eval.explore import SearchSpace
    from repro.eval.sweep import SweepError, explore_tasks, run_sweep

    degrees = sorted(set(degrees)) if degrees else list(range(1, 10))
    figure_apps = {"figure19": IPV4_FORWARDING_PPSES,
                   "figure20": IP_FORWARDING_PPSES}
    distinct = dict.fromkeys(IPV4_FORWARDING_PPSES + IP_FORWARDING_PPSES)
    tasks = explore_tasks(SearchSpace(apps=tuple(distinct),
                                      degrees=tuple(degrees),
                                      packets=packets, seed=seed))
    rows = {}
    for task, row in zip(tasks, run_sweep(tasks, jobs=jobs)):
        for cell in row["cells"]:
            if not cell["verified"] or cell["degraded"] or "attempts" in cell:
                degree = cell["config"]["degree"]
                cell_task = replace(task, spec=replace(task.spec,
                                                       degrees=(degree,)))
                raise SweepError(
                    f"figures cell {cell['id']} is not verified at degree "
                    f"{degree} on the first attempt (achieved degree "
                    f"{cell['achieved_degree']}, "
                    f"{cell.get('attempts', 1)} attempts); "
                    f"{cell_task.detail()}", task=cell_task)
        rows[task.spec.app] = row
    top = degrees[-1]

    def series(name: str, metric: str) -> dict:
        return {cell["config"]["degree"]: cell["metrics"][metric]
                for cell in rows[name]["cells"]}

    return {
        "config": {"packets": packets, "seed": seed, "degrees": degrees},
        "partition_breakdown": {
            name: {str(cell["config"]["degree"]): {
                       "cut_iterations": cell["metrics"]["cut_iterations"],
                       "pr_work": cell["metrics"]["pr_work"]}
                   for cell in row["cells"] if cell["config"]["degree"] > 1}
            for name, row in rows.items()},
        "figures": {
            figure: {
                "apps": list(names),
                "simulated_instructions": sum(
                    rows[name]["sequential_instructions"]
                    + sum(cell["metrics"]["simulated_instructions"]
                          for cell in rows[name]["cells"])
                    for name in names),
                "speedup_by_degree": {
                    name: series(name, "speedup") for name in names},
                "overhead_by_degree": {
                    name: series(name, "overhead") for name in names},
            }
            for figure, names in figure_apps.items()},
        f"headline_speedup_degree{top}": {
            name: series(name, "speedup")[top] for name in rows},
    }

