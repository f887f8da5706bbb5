"""Report sections and row builders (fast, scaled-down runs).

Each test runs a subset of one report section's specs through
``run_section`` and reads rows with the builders of
``repro.runners.figures``.  Where a test departs from the report's
design (fewer sizes, a shorter horizon), it says so as a ``rewrite`` of
the spec params.
"""

from __future__ import annotations

from repro.runners import figures, format_table
from repro.runners.full_report import ReportParams, run_section


def params(scale: float) -> ReportParams:
    return ReportParams(scale=scale, quick=False)


def field(i: int, *allowed: str):
    """Keep spec ids whose ``i``-th ``/``-separated field is allowed."""
    return lambda sid: sid.split("/")[i] in allowed


def test_format_table_alignment():
    text = format_table(
        ["name", "x"], [["abc", 1.234], ["de", 10.0]], title="T"
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "x" in lines[1]
    assert "1.23" in text and "10.00" in text


def test_fig01_rows_have_groups():
    rows = figures.fig01_rows(run_section(
        "fig01", params(0.25), keep=field(1, "ep", "streamcluster"),
    ))
    by_name = {r.name: r for r in rows}
    assert by_name["ep"].group == "neutral"
    assert 0.9 < by_name["ep"].ratio < 1.1
    assert by_name["streamcluster"].ratio > 1.15


def test_fig02_flat_normalized_curve():
    # Threads 1-4 with 8 ms of work each; the per-switch cost is backed
    # out at 4 threads (the per_switch spec has no total_work_ms).
    res = run_section(
        "fig02", params(1.0),
        keep=field(1, "1T", "2T", "3T", "4T", "per_switch"),
        rewrite=lambda p: ({**p, "total_work_ms": 8} if "total_work_ms" in p
                           else {**p, "nthreads": 4}),
    )
    rows, per_switch = figures.fig02_rows(res)
    assert all(0.98 < r.pure_normalized < 1.02 for r in rows)
    assert all(0.98 < r.atomic_normalized < 1.03 for r in rows)
    assert 800 < per_switch < 2500


def test_fig03_histogram_buckets():
    rows = figures.fig03_rows(run_section("fig03", params(0.2)))
    assert len(rows) == 30  # 32 minus the two spinning apps
    hist = figures.fig03_histogram(rows)
    assert sum(c for _, c in hist) == len(rows)
    # Most programs synchronize at >= 200 us (the paper's observation).
    fast = sum(c for label, c in hist[:2])
    assert fast <= 3


def test_fig04_series_structure():
    out = figures.fig04_series(run_section(
        "fig04", params(1.0),
        rewrite=lambda p: {**p, "sizes_bytes": [256 * 1024, 8 * 1024 * 1024]},
    ))
    assert set(out) == {"seq-r", "seq-rmw", "rnd-r", "rnd-rmw"}
    for series in out.values():
        assert len(series) == 2


def test_fig09_row_properties():
    rows = figures.fig09_rows(
        run_section("fig09", params(0.25), keep=field(1, "ocean"))
    )
    r = rows[0]
    assert r.vanilla_ratio > 1.1
    assert r.optimized_ratio < r.vanilla_ratio
    assert r.migr_in_32t > r.migr_in_8t
    assert r.util_opt > r.util_32t


def test_fig10_speedups():
    a, b = figures.fig10_rows(run_section(
        "fig10", params(1.0),
        keep=lambda sid: sid.split("/")[2] in ("32T", "8c"),
        rewrite=lambda p: {**p, "iterations": 200},
    ))
    sp = {r.primitive: r.speedup for r in a}
    assert sp["barrier"] > 1.05
    assert sp["cond"] > sp["mutex"]


def test_fig11_pinned_crash_recorded():
    pts = figures.fig11_points(run_section(
        "fig11", params(0.15),
        keep=lambda sid: sid.startswith("fig11/streamcluster/2c/"),
    ))
    labels = {p.setting for p in pts}
    assert "32T(pinned)" in labels
    assert all(
        p.duration_ns is None or p.duration_ns > 0 for p in pts
    )


def test_fig12_rows():
    rows = figures.fig12_rows(run_section(
        "fig12", params(1.0), keep=field(1, "4c"),
        rewrite=lambda p: {**p, "duration_ms": 80},
    ))
    settings = {r.setting for r in rows}
    assert settings == {"4T(vanilla)", "16T(vanilla)", "16T(optimized)"}
    van16 = next(r for r in rows if r.setting == "16T(vanilla)")
    opt16 = next(r for r in rows if r.setting == "16T(optimized)")
    assert opt16.latency.p99 < van16.latency.p99


def test_fig13_ple_only_in_kvm():
    rows = figures.fig13_rows(run_section(
        "fig13", params(1.0), keep=field(2, "ttas"),
        rewrite=lambda p: {**p, "total_stages": 240},
    ))
    container = [r.setting for r in rows if r.environment == "container"]
    kvm = [r.setting for r in rows if r.environment == "kvm"]
    assert "32T(PLE)" not in container
    assert "32T(PLE)" in kvm


def test_fig14_optimized_recovers():
    rows = figures.fig14_rows(run_section(
        "fig14", params(0.2),
        keep=lambda sid: sid.startswith("fig14/volrend/container/")
        and sid.split("/")[3] in ("8T", "32T"),
    ))
    d = {(r.nthreads, r.setting): r.duration_ns for r in rows}
    assert d[(32, "vanilla")] > 3 * d[(8, "vanilla")]
    assert d[(32, "optimized")] < d[(32, "vanilla")] / 2


def test_fig15_optimized_wins():
    rows = figures.fig15_rows(
        run_section("fig15", params(0.3), keep=field(1, "streamcluster"))
    )
    d = {r.lock: r.duration_ns for r in rows}
    assert d["optimized"] < d["pthread"]
    assert d["optimized"] < d["shfllock"]


def test_table2_sensitivity():
    results = figures.table2_rows(run_section(
        "table2", params(1.0), keep=field(1, "mcs", "ttas"),
        rewrite=lambda p: {**p, "duration_ms": 150},
    ))
    for r in results:
        assert r.sensitivity > 0.9
        assert r.tries >= r.true_positives


def test_table3_specificity():
    results = figures.table3_rows(
        run_section("table3", params(0.3), keep=field(1, "ft"))
    )
    r = results[0]
    assert r.specificity > 0.98
    assert r.overhead_pct < 5.0
