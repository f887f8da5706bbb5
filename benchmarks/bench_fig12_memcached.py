"""Figure 12 — memcached throughput and latency under oversubscription."""

from __future__ import annotations

from conftest import run_once

from repro.runners import figures, format_table
from repro.runners.full_report import ReportParams, run_section


def test_fig12_memcached(benchmark):
    rows = figures.fig12_rows(run_once(
        benchmark, run_section, "fig12", ReportParams(scale=1.0, quick=False),
        rewrite=lambda p: {**p, "duration_ms": 300},
    ))
    print()
    print(
        format_table(
            ["cores", "setting", "kops/s", "avg us", "p95 us", "p99 us"],
            [
                [r.cores, r.setting, r.throughput_ops / 1e3,
                 r.latency.mean, r.latency.p95, r.latency.p99]
                for r in rows
            ],
            title="Figure 12: memcached under thread oversubscription",
            float_fmt="{:.1f}",
        )
    )
    d = {(r.cores, r.setting): r for r in rows}
    # At 4 cores (4x oversubscription) the vanilla tail blows up and VB
    # slashes it (paper: 8x blowup; -92% p95 / -60% p99 from VB).
    van4 = d[(4, "4T(vanilla)")]
    van16 = d[(4, "16T(vanilla)")]
    opt16 = d[(4, "16T(optimized)")]
    assert van16.latency.p99 > 1.5 * van4.latency.p99
    assert van16.latency.p95 > 1.3 * van4.latency.p95
    assert opt16.latency.p99 < 0.5 * van16.latency.p99
    assert opt16.latency.p95 < 0.5 * van16.latency.p95
    assert opt16.throughput_ops >= 0.9 * van4.throughput_ops
    # At 8 cores (2x) the damage shrinks; VB never hurts.
    assert (
        d[(8, "16T(optimized)")].latency.p99
        <= d[(8, "16T(vanilla)")].latency.p99 * 1.1
    )
    # With 16 cores there is no oversubscription: 16T vanilla is fine and
    # everything converges (paper: VB close to best as cores scale).
    van16c16 = d[(16, "16T(vanilla)")]
    van4c16 = d[(16, "4T(vanilla)")]
    assert van16c16.latency.p99 < 1.5 * van4c16.latency.p99
