"""The benchmark's workloads: named slices of the quick report.

Each workload is a fixed list of spec ids from
``repro.runners.full_report.build_all_specs``.  The ids do not depend on
the seed, so the same list selects the same simulations at any seed; the
seed only changes the inputs inside each spec.  Why each slice was
chosen is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

REPORT_SCALE = 0.3  # the quick report's scale, which the fixture holds
FIXTURE_SEED = 2021  # the seed benchmarks/fixtures/results-quick.json ran at
FIXTURE = "benchmarks/fixtures/results-quick.json"

# The three locks of the ``spin`` slice: MCS (queue lock), ticket (the FIFO
# lock behind the fig13-fifo-residual deviation) and pthread spinlock.
_SPIN_LOCKS = ("mcs", "ticket", "pthread")

WORKLOADS: dict[str, tuple[str, ...]] = {
    "memcached": ("fig12/8c/16T(optimized)",),
    "primitives": tuple(
        f"fig10b/{prim}/32c/{kind}"
        for prim in ("mutex", "cond", "barrier")
        for kind in ("van", "opt")
    ),
    "serve": (
        "serve/open/0.5x", "serve/open/0.9x", "serve/open/1.2x",
        "serve/open/burst",
        "serve/closed/low", "serve/closed/high",
        "serve/resil/budget", "serve/resil/shed",
    ),
    "spin": tuple(f"table2/{lock}" for lock in _SPIN_LOCKS) + tuple(
        f"fig13/kvm/{lock}/{point}"
        for lock in _SPIN_LOCKS
        for point in ("8T(vanilla)", "32T(vanilla)", "32T(PLE)",
                      "32T(optimized)")
    ),
}
