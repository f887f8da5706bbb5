"""Figure 2 — direct cost of context switching (1-8 threads, one core)."""

from __future__ import annotations

from conftest import run_once

from repro.runners import figures, format_table
from repro.runners.full_report import ReportParams, run_section


def test_fig02_direct_cost(benchmark):
    rows, per_switch = figures.fig02_rows(run_once(
        benchmark, run_section, "fig02", ReportParams(scale=1.0, quick=False)
    ))
    print()
    print(
        format_table(
            ["threads", "pure (norm)", "with atomic (norm)"],
            [[r.nthreads, r.pure_normalized, r.atomic_normalized] for r in rows],
            title=(
                "Figure 2: normalized execution time on one core "
                f"(per-switch cost {per_switch:.0f} ns; paper: ~1500 ns)"
            ),
            float_fmt="{:.4f}",
        )
    )
    # Paper: flat at ~1.0 regardless of thread count (overhead ~0.2%).
    for r in rows:
        assert 0.99 < r.pure_normalized < 1.01
        assert 0.99 < r.atomic_normalized < 1.02
    assert 1_000 < per_switch < 2_200
