"""Figure 4 — indirect cost of context switches vs working-set size for
four access patterns (two threads sharing one core)."""

from __future__ import annotations

from conftest import run_once

from repro.runners import figures, format_table
from repro.runners.full_report import ReportParams, run_section

KB = 1024
MB = 1024 * KB


def test_fig04_indirect_cost(benchmark):
    out = figures.fig04_series(run_once(
        benchmark, run_section, "fig04", ReportParams(scale=1.0, quick=False)
    ))
    sizes = [s for s, _ in out["seq-r"]]
    print()
    print(
        format_table(
            ["size"] + list(out),
            [
                [f"{s // KB}KB" if s < MB else f"{s // MB}MB"]
                + [f"{dict(out[p])[s] / 1000:.1f}" for p in out]
                for s in sizes
            ],
            title="Figure 4: indirect cost per context switch (us)",
        )
    )
    seq = dict(out["seq-r"])
    rnd = dict(out["rnd-r"])
    rmw = dict(out["rnd-rmw"])
    # Sequential: non-negative, grows, ~1 ms at 128 MB.
    costs = [seq[s] for s in sizes]
    assert all(c >= 0 for c in costs) and costs == sorted(costs)
    assert 300_000 < seq[128 * MB] < 5_000_000
    # Random read: negative at the L1-TLB knee, positive 1-4 MB, strongly
    # negative at the L2-TLB knee.
    assert rnd[256 * KB] < 0 and rnd[512 * KB] < 0
    assert rnd[1 * MB] > 0 and rnd[4 * MB] > 0
    assert rnd[8 * MB] < -1_000_000
    # Random RMW: never meaningfully positive (always oversubscribe).
    assert all(rmw[s] <= 1_000 for s in sizes)
