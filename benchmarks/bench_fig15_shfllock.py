"""Figure 15 — comparison with SHFLLOCK, Mutexee, and MCS-TP at 4x
oversubscription (32 threads on 8 cores)."""

from __future__ import annotations

from conftest import run_once

from repro.runners import figures, format_table
from repro.runners.full_report import ReportParams, run_section

LOCKS = ["pthread", "mutexee", "mcstp", "shfllock", "optimized"]


def test_fig15_lock_comparison(benchmark):
    rows = figures.fig15_rows(run_once(
        benchmark, run_section, "fig15", ReportParams(scale=0.5, quick=False)
    ))
    by = {}
    for r in rows:
        by.setdefault(r.app, {})[r.lock] = r.duration_ns
    print()
    print(
        format_table(
            ["app"] + LOCKS,
            [
                [app] + [d[lock] / 1e6 for lock in LOCKS]
                for app, d in by.items()
            ],
            title="Figure 15: execution time (ms), 32T on 8 cores",
            float_fmt="{:.1f}",
        )
    )
    best = 0.0
    for app, d in by.items():
        for lock in ("pthread", "mutexee", "mcstp", "shfllock"):
            # The lock libraries all still rely on vanilla futex sleeping
            # and suffer; VB+BWD with plain pthreads wins every time.
            assert d["optimized"] < d[lock], (app, lock)
            best = max(best, d[lock] / d["optimized"])
    # Paper: up to 5.4x more efficient.
    assert best > 3.0
