"""Figure 11 — exploiting CPU elasticity: five applications across core
counts, with fixed thread counts, pinning, and the optimized kernel."""

from __future__ import annotations

from conftest import run_once

from repro.runners import figures, format_table
from repro.runners.full_report import ReportParams, run_section


def test_fig11_elasticity(benchmark):
    points = figures.fig11_points(run_once(
        benchmark, run_section, "fig11", ReportParams(scale=0.35, quick=False)
    ))
    by = {}
    for p in points:
        by.setdefault(p.app, {})[(p.cores, p.setting)] = p.duration_ns
    print()
    for app, d in by.items():
        rows = []
        for cores in (2, 4, 8, 16, 32):
            row = [cores]
            for s in ("#core-T(vanilla)", "8T(vanilla)", "32T(vanilla)",
                      "32T(pinned)", "32T(optimized)"):
                v = d[(cores, s)]
                row.append("crash" if v is None else f"{v / 1e6:.1f}")
            rows.append(row)
        print(
            format_table(
                ["cores", "#core-T", "8T", "32T", "32T pin", "32T opt"],
                rows,
                title=f"Figure 11 ({app}): execution time (ms)",
            )
        )

    for app, d in by.items():
        # More cores help 32 threads: monotone-ish improvement to 32 cores.
        assert d[(32, "32T(optimized)")] < d[(2, "32T(optimized)")] / 4
        # At 32 cores, 32 threads beat 8 threads (elasticity exploited).
        assert d[(32, "32T(optimized)")] < d[(32, "8T(vanilla)")]
        # With VB, oversubscription is never much worse than 8T (paper:
        # "running 32 threads was never worse than running 8 threads").
        for cores in (2, 4, 8):
            assert (
                d[(cores, "32T(optimized)")]
                < 1.25 * d[(cores, "8T(vanilla)")]
            ), (app, cores)

    # ep gains from oversubscription at 32 cores (paper: 51%).
    ep = by["ep"]
    gain = ep[(32, "8T(vanilla)")] / ep[(32, "32T(vanilla)")]
    assert gain > 1.5
