"""Integration tests asserting the paper's headline claims end-to-end.

Each test is one claim from the paper, checked as a *shape* (ordering /
rough factor) on scaled-down runs.  The full-fidelity numbers live in the
benchmark harness and EXPERIMENTS.md.  Figure-level claims run a subset
of the report section's specs (``run_section``); a departure from the
report's design is an explicit ``rewrite`` of the spec params.
"""

from __future__ import annotations

import pytest

from repro.config import optimized_config, vanilla_config
from repro.runners import figures
from repro.runners.full_report import ReportParams, run_section
from repro.workloads import SUITE, profile, run_suite_benchmark

SCALE = 0.35


def params(scale: float) -> ReportParams:
    return ReportParams(scale=scale, quick=False)


def field(i: int, *allowed: str):
    """Keep spec ids whose ``i``-th ``/``-separated field is allowed."""
    return lambda sid: sid.split("/")[i] in allowed


def fig09(*names: str) -> list[figures.Fig9Row]:
    return figures.fig09_rows(
        run_section("fig09", params(SCALE), keep=field(1, *names))
    )


def ratio(prof, seeds=(2021, 7)):
    """Mean 32T/8T slowdown over a couple of seeds (migration storms are
    stochastic; the paper averages 10 runs)."""
    rs = []
    for seed in seeds:
        base = run_suite_benchmark(
            prof, 8, vanilla_config(cores=8, seed=seed), work_scale=SCALE
        )
        over = run_suite_benchmark(
            prof, 32, vanilla_config(cores=8, seed=seed), work_scale=SCALE
        )
        rs.append(over.duration_ns / base.duration_ns)
    return sum(rs) / len(rs)


class TestSection2Findings:
    def test_direct_cs_cost_constant_1_5us(self):
        """Claim: CS cost ~1.5 us, independent of thread count."""
        cfg = vanilla_config(cores=1, seed=1)
        from repro.workloads.microbench import direct_cost_per_switch_ns

        c4 = direct_cost_per_switch_ns(cfg, 4)
        c8 = direct_cost_per_switch_ns(cfg, 8)
        assert 1_000 < c4 < 2_200
        assert abs(c4 - c8) < 500

    def test_most_apps_unaffected_by_oversubscription(self):
        """Claim (Figure 1): groups 1 and 2 do not suffer."""
        for name in ("blackscholes", "ep", "raytrace"):
            assert ratio(SUITE[name]) < 1.08

    def test_benefit_group_improves(self):
        assert ratio(SUITE["facesim"]) < 1.0

    def test_spinning_apps_collapse(self):
        """Claim (Figure 1): up to ~25x for lu, ~10x for volrend."""
        r_lu = ratio(SUITE["lu"])
        r_vol = ratio(SUITE["volrend"])
        assert r_lu > 10
        assert r_vol > 4
        assert r_lu > r_vol  # lu is the worst case, as in the paper

    def test_blocking_apps_suffer_5_to_60_percent(self):
        for name in ("streamcluster", "ocean", "cg"):
            r = ratio(SUITE[name])
            assert 1.05 < r < 2.5, name


class TestVirtualBlocking:
    def test_vb_recovers_blocking_apps(self):
        """Claim (Figure 9): up to 77% gain; optimized close to baseline."""
        rows = fig09("streamcluster", "ocean", "cg", "is")
        for r in rows:
            assert r.optimized_ratio < r.vanilla_ratio
            assert r.optimized_ratio < 1.25  # close to the 8T baseline

    def test_vb_sometimes_beats_baseline(self):
        """Claim: VB outperformed the baseline for freqmine/ocean/cg/mg."""
        rows = fig09("ocean", "cg", "mg", "freqmine")
        assert sum(1 for r in rows if r.optimized_ratio < 1.0) >= 2

    def test_table1_utilization_and_migrations(self):
        """Claim (Table 1): 32T vanilla loses utilization and migrates
        orders of magnitude more; Opt restores both."""
        rows = fig09("streamcluster", "cg")
        for r in rows:
            assert r.util_32t < r.util_8t
            assert r.util_opt >= r.util_8t - 30
            base_migr = max(1, r.migr_in_8t + r.migr_cross_8t)
            over_migr = r.migr_in_32t + r.migr_cross_32t
            opt_migr = r.migr_in_opt + r.migr_cross_opt
            assert over_migr > 3 * base_migr
            assert opt_migr <= base_migr + 10

    def test_memcached_tail_latency(self):
        """Claim (Figure 12): oversubscription blows up p95/p99 under
        vanilla; VB reduces tails dramatically and keeps throughput."""
        # Tails need a long enough window for slice-scale stall events to
        # accumulate (they are the p99, not the median).
        rows = figures.fig12_rows(run_section(
            "fig12", params(1.0), keep=field(1, "4c"),
            rewrite=lambda p: {**p, "duration_ms": 300},
        ))
        d = {r.setting: r for r in rows}
        van4 = d["4T(vanilla)"]
        van16 = d["16T(vanilla)"]
        opt16 = d["16T(optimized)"]
        assert van16.latency.p99 > 1.5 * van4.latency.p99
        assert opt16.latency.p99 < 0.5 * van16.latency.p99
        assert opt16.throughput_ops > 0.9 * van4.throughput_ops


class TestBusyWaitingDetection:
    def test_bwd_recovers_all_ten_spinlocks(self):
        """Claim (Figure 13): BWD-32T comparable to vanilla-8T for every
        algorithm; vanilla-32T collapses."""
        rows = figures.fig13_rows(run_section(
            "fig13", params(1.0),
            keep=lambda sid: field(1, "container")(sid) and field(
                2, "mcs", "ticket", "ttas", "pthread", "cna")(sid),
            rewrite=lambda p: {**p, "total_stages": 480},
        ))
        by = {}
        for r in rows:
            by.setdefault(r.algorithm, {})[r.setting] = r.duration_ns
        for alg, d in by.items():
            assert d["32T(vanilla)"] > 1.5 * d["8T(vanilla)"], alg
            assert d["32T(optimized)"] < d["32T(vanilla)"], alg
            assert d["32T(optimized)"] < 2.5 * d["8T(vanilla)"], alg

    def test_ple_ineffective(self):
        """Claim: PLE performs like vanilla for thread oversubscription."""
        rows = figures.fig13_rows(run_section(
            "fig13", params(1.0),
            keep=lambda sid: sid.startswith("fig13/kvm/pthread/"),
            rewrite=lambda p: {**p, "total_stages": 240},
        ))
        d = {r.setting: r.duration_ns for r in rows}
        assert d["32T(PLE)"] == pytest.approx(d["32T(vanilla)"], rel=0.15)
        assert d["32T(optimized)"] < d["32T(PLE)"] / 1.5

    def test_bwd_works_for_pauseless_custom_spins(self):
        """Claim (Figure 14): BWD handles ad-hoc spins PLE cannot see."""
        rows = figures.fig14_rows(run_section(
            "fig14", params(0.25),
            keep=lambda sid: sid.startswith("fig14/lu/vm/32T/"),
        ))
        d = {r.setting: r.duration_ns for r in rows}
        assert d["PLE"] == pytest.approx(d["vanilla"], rel=0.05)
        assert d["optimized"] < d["vanilla"] / 4

    def test_table2_sensitivity_near_100(self):
        results = figures.table2_rows(run_section(
            "table2", params(1.0), keep=field(1, "mcs", "ttas", "clh"),
            rewrite=lambda p: {**p, "duration_ms": 250},
        ))
        for r in results:
            assert r.sensitivity > 0.95, r.algorithm

    def test_table3_specificity_and_overhead(self):
        results = figures.table3_rows(
            run_section("table3", params(0.3), keep=field(1, "is", "ft"))
        )
        for r in results:
            assert r.specificity > 0.99
            assert r.overhead_pct < 3.0
            assert r.timer_overhead_pct < 3.0


class TestLockLibraryComparison:
    def test_fig15_optimized_beats_lock_libraries(self):
        """Claim (Figure 15 / Section 4.4): spin-then-park and SHFLLOCK
        still collapse under oversubscription; VB+BWD is up to ~5x
        better."""
        rows = figures.fig15_rows(run_section(
            "fig15", params(0.3), keep=field(1, "streamcluster", "ocean"),
        ))
        by_app = {}
        for r in rows:
            by_app.setdefault(r.app, {})[r.lock] = r.duration_ns
        best_factor = 0.0
        for app, d in by_app.items():
            for lock in ("pthread", "mutexee", "mcstp", "shfllock"):
                assert d["optimized"] < d[lock], (app, lock)
                best_factor = max(best_factor, d[lock] / d["optimized"])
        assert best_factor > 3.0


class TestElasticity:
    def test_more_threads_exploit_more_cores(self):
        """Claim (Figure 11): with 32 cores, 32 threads beat 8 threads —
        the point of provisioning concurrency for elasticity."""
        prof = profile("ep")
        t8 = run_suite_benchmark(
            prof, 8, vanilla_config(cores=32, seed=3), work_scale=SCALE
        )
        t32 = run_suite_benchmark(
            prof, 32, vanilla_config(cores=32, seed=3), work_scale=SCALE
        )
        assert t32.duration_ns < 0.45 * t8.duration_ns

    def test_optimized_oversubscription_never_much_worse(self):
        """Claim: with VB, running 32 threads was never worse than 8
        threads (streamcluster/ocean/cg), across core counts."""
        for cores in (4, 8):
            prof = profile("ocean")
            t8 = run_suite_benchmark(
                prof, 8, vanilla_config(cores=cores, seed=3),
                work_scale=0.25,
            )
            t32 = run_suite_benchmark(
                prof, 32,
                optimized_config(cores=cores, seed=3, bwd=False),
                work_scale=0.25,
            )
            assert t32.duration_ns < 1.15 * t8.duration_ns
