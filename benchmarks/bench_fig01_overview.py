"""Figure 1 — normalized execution time of the 32-benchmark suite,
8 threads vs 32 threads on 8 cores, vanilla Linux."""

from __future__ import annotations

from conftest import run_once

from repro.runners import figures, format_table
from repro.runners.full_report import ReportParams, run_section
from repro.workloads import Group, SUITE


def test_fig01_overview(benchmark):
    rows = figures.fig01_rows(run_once(
        benchmark, run_section, "fig01", ReportParams(scale=0.5, quick=False)
    ))
    print()
    print(
        format_table(
            ["benchmark", "group", "32T/8T (sim)", "32T/8T (paper)"],
            [[r.name, r.group, r.ratio, r.paper_ratio] for r in rows],
            title="Figure 1: oversubscription overhead across the suite",
        )
    )
    by_name = {r.name: r for r in rows}

    # Group 1/2: no benchmark suffers meaningfully.
    for prof in SUITE.values():
        r = by_name[prof.name]
        if prof.group is Group.NEUTRAL:
            assert 0.85 < r.ratio < 1.12, prof.name
        elif prof.group is Group.BENEFIT:
            assert r.ratio < 1.05, prof.name

    # Group 3: every blocking app suffers; spin apps collapse.
    suffer = [
        by_name[p.name].ratio
        for p in SUITE.values()
        if p.group is Group.SUFFER_BLOCKING
    ]
    assert sum(1 for r in suffer if r > 1.05) >= len(suffer) - 2
    assert by_name["lu"].ratio > 10
    assert by_name["volrend"].ratio > 4
    assert by_name["lu"].ratio == max(r.ratio for r in rows)
