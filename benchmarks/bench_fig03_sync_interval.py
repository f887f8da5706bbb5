"""Figure 3 — measured interval between synchronizations across the suite."""

from __future__ import annotations

from conftest import run_once

from repro.runners import figures, format_table
from repro.runners.full_report import ReportParams, run_section


def test_fig03_sync_intervals(benchmark):
    rows = figures.fig03_rows(run_once(
        benchmark, run_section, "fig03", ReportParams(scale=0.5, quick=False)
    ))
    hist = figures.fig03_histogram(rows)
    print()
    print(
        format_table(
            ["interval (us)", "# programs"],
            hist,
            title="Figure 3: interval between synchronizations",
        )
    )
    print(
        format_table(
            ["benchmark", "interval (us)"],
            [[r.name, r.interval_us] for r in sorted(rows, key=lambda r: r.interval_us)],
            float_fmt="{:.0f}",
        )
    )
    by_name = {r.name: r for r in rows}
    # Paper: most programs sync no more often than ~1 ms; facesim is the
    # most frequent at ~160 us.
    fastest = min(rows, key=lambda r: r.interval_us)
    # facesim (paper: 160 us) is among the most frequent synchronizers;
    # fluidanimate's per-cell locking can edge it out in our model.
    top3 = sorted(rows, key=lambda r: r.interval_us)[:3]
    assert "facesim" in {r.name for r in top3}
    assert 25 < fastest.interval_us < 260
    slow = sum(1 for r in rows if r.interval_us >= 400)
    assert slow >= len(rows) // 2
    # CS overhead at these intervals stays below ~1% for essentially the
    # whole suite (the paper's conclusion); our fluidanimate/facesim models
    # block more often than the paper's measured minimum, so allow two
    # outliers and bound the worst case.
    overheads = [1500 / (r.interval_us * 1000) for r in rows]
    assert sum(1 for o in overheads if o < 0.011) >= len(rows) - 2
    assert max(overheads) < 0.06
