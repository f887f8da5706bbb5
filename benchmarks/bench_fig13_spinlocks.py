"""Figure 13 — BWD across ten spinlock algorithms, container and KVM."""

from __future__ import annotations

from conftest import run_once

from repro.runners import figures, format_table
from repro.runners.figures import SPINLOCK_ORDER
from repro.runners.full_report import ReportParams, run_section


def test_fig13_spinlocks(benchmark):
    rows = figures.fig13_rows(run_once(
        benchmark, run_section, "fig13", ReportParams(scale=1.0, quick=False),
        rewrite=lambda p: {**p, "total_stages": 640},
    ))
    by = {}
    for r in rows:
        by.setdefault((r.environment, r.algorithm), {})[r.setting] = (
            r.duration_ns
        )
    print()
    for env in ("container", "kvm"):
        settings = ["8T(vanilla)", "32T(vanilla)"]
        if env == "kvm":
            settings.append("32T(PLE)")
        settings.append("32T(optimized)")
        print(
            format_table(
                ["lock"] + settings,
                [
                    [alg] + [by[(env, alg)][s] / 1e6 for s in settings]
                    for alg in SPINLOCK_ORDER
                ],
                title=f"Figure 13 ({env}): execution time (ms)",
                float_fmt="{:.1f}",
            )
        )

    for (env, alg), d in by.items():
        # Every algorithm collapses under vanilla oversubscription...
        assert d["32T(vanilla)"] > 1.4 * d["8T(vanilla)"], (env, alg)
        # ...BWD brings 32T back near the 8T baseline...
        assert d["32T(optimized)"] < 2.5 * d["8T(vanilla)"], (env, alg)
        assert d["32T(optimized)"] < d["32T(vanilla)"], (env, alg)
        # ...and PLE does not help (KVM only).
        if env == "kvm":
            assert d["32T(PLE)"] > 0.85 * d["32T(vanilla)"], alg
