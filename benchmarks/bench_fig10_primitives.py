"""Figure 10 — the effect of VB on pthreads primitives."""

from __future__ import annotations

from conftest import run_once

from repro.runners import figures, format_table
from repro.runners.full_report import ReportParams, run_section


def test_fig10_primitives(benchmark):
    part_a, part_b = figures.fig10_rows(run_once(
        benchmark, run_section, "fig10", ReportParams(scale=1.0, quick=False),
        rewrite=lambda p: {**p, "iterations": 600},
    ))
    print()
    print(
        format_table(
            ["primitive", "threads", "speedup"],
            [[r.primitive, r.nthreads, r.speedup] for r in part_a],
            title="Figure 10(a): VB speedup, varying threads on one core",
        )
    )
    print(
        format_table(
            ["primitive", "cores", "speedup"],
            [[r.primitive, r.cores, r.speedup] for r in part_b],
            title="Figure 10(b): VB speedup, 32 threads on varying cores",
        )
    )
    a = {(r.primitive, r.nthreads): r.speedup for r in part_a}
    b = {(r.primitive, r.cores): r.speedup for r in part_b}
    # (a) Group synchronization benefits; mutex does not (paper: barrier
    # 1.52x, cond 2.34x, mutex ~1x at 32 threads on one core).
    assert a[("barrier", 32)] > 1.15
    assert a[("cond", 32)] > a[("barrier", 32)]
    assert a[("mutex", 32)] < 1.3
    # Single thread: VB costs nothing (and its cheaper wake path can even
    # help slightly).
    for prim in ("mutex", "cond", "barrier"):
        assert 0.95 < a[(prim, 1)] < 1.3
    # (b) Benefits grow with core count up to the oversubscribed range
    # (paper: up to 3x barrier / 5x cond).
    assert b[("barrier", 8)] > b[("barrier", 1)]
    assert b[("cond", 8)] > 2.0
    # At 32 cores (no oversubscription) VB degrades gracefully.
    assert b[("barrier", 32)] > 0.9
    assert b[("mutex", 32)] > 0.9
