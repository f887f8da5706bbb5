"""Table 1 — runtime statistics under thread oversubscription: CPU
utilization and in-node / cross-node migrations for the 13 blocking
benchmarks under 8T vanilla, 32T vanilla, and 32T optimized."""

from __future__ import annotations

from conftest import run_once

from repro.runners import figures, format_table
from repro.runners.full_report import ReportParams, run_section


def test_table1_runtime_stats(benchmark):
    rows = figures.fig09_rows(run_once(
        benchmark, run_section, "fig09", ReportParams(scale=0.5, quick=False)
    ))
    print()
    print(
        format_table(
            [
                "app", "util 8T", "util 32T", "util Opt",
                "in-migr 8T", "in-migr 32T", "in-migr Opt",
                "x-migr 8T", "x-migr 32T", "x-migr Opt",
            ],
            [
                [
                    r.name,
                    f"{r.util_8t:.0f}", f"{r.util_32t:.0f}",
                    f"{r.util_opt:.0f}",
                    r.migr_in_8t, r.migr_in_32t, r.migr_in_opt,
                    r.migr_cross_8t, r.migr_cross_32t, r.migr_cross_opt,
                ]
                for r in rows
            ],
            title="Table 1: runtime statistics (util %: 800 = 8 busy CPUs)",
        )
    )
    util_drop = 0
    migr_storm = 0
    for r in rows:
        base = max(1, r.migr_in_8t + r.migr_cross_8t)
        over = r.migr_in_32t + r.migr_cross_32t
        opt = r.migr_in_opt + r.migr_cross_opt
        if r.util_32t < r.util_8t:
            util_drop += 1
        if over > 5 * base:
            migr_storm += 1
        # Optimized restores utilization and suppresses migrations.
        assert r.util_opt > r.util_32t - 30, r.name
        assert opt < over, r.name
    # The paper's culprits show for the vast majority of the set.
    assert util_drop >= 10
    assert migr_storm >= 10
