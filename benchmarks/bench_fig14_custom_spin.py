"""Figure 14 — user-customized spinning (NPB lu, SPLASH-2 volrend)."""

from __future__ import annotations

from conftest import run_once

from repro.runners import figures, format_table
from repro.runners.full_report import ReportParams, run_section


def test_fig14_custom_spin(benchmark):
    rows = figures.fig14_rows(run_once(
        benchmark, run_section, "fig14", ReportParams(scale=0.4, quick=False)
    ))
    by = {}
    for r in rows:
        by.setdefault((r.app, r.environment), {})[(r.nthreads, r.setting)] = (
            r.duration_ns
        )
    print()
    for (app, env), d in by.items():
        table = []
        for n in (8, 16, 32):
            row = [n]
            for s in ("vanilla", "PLE", "optimized"):
                v = d.get((n, s))
                row.append("n/a" if v is None else f"{v / 1e6:.1f}")
            table.append(row)
        print(
            format_table(
                ["threads", "vanilla", "PLE", "optimized"],
                table,
                title=f"Figure 14 ({app}, {env}): execution time (ms)",
            )
        )

    for (app, env), d in by.items():
        # Vanilla collapses progressively with the oversubscription ratio.
        assert d[(16, "vanilla")] > 1.5 * d[(8, "vanilla")], (app, env)
        assert d[(32, "vanilla")] > d[(16, "vanilla")], (app, env)
        # BWD contains it (paper: close to no-oversubscription, with some
        # growing overhead).
        assert d[(32, "optimized")] < d[(32, "vanilla")] / 3, (app, env)
        assert d[(32, "optimized")] < 3.0 * d[(8, "vanilla")], (app, env)
        # PLE cannot see these plain-variable spin loops.
        if env == "vm":
            assert d[(32, "PLE")] > 0.9 * d[(32, "vanilla")], app
