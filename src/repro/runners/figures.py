"""Rows of every table and figure of the paper, read from report results.

The experimental design of each figure lives in exactly one place: the
section spec builders of :mod:`repro.runners.full_report`.  This module
keeps what sits around that design — the app and lock lists, the row
dataclasses, and one row builder per figure that turns a
``{spec_id: result}`` dict (a report run, or
:func:`~repro.runners.full_report.run_section`) into rows.  The report's
renderers, the claim tests and the benchmark scripts all read rows
through these builders.

Builders decode the spec ids and walk the dict in spec order, so a
caller that ran a subset of a section gets the rows of that subset.
Absolute times are simulated-virtual; the claims to check are the
*shapes*: who wins, by what factor, where the crossovers fall (recorded
in EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..metrics.stats import LatencySummary
from ..workloads.profiles import SUITE
from ..workloads.spindetect import FpResult, TpResult

SPINLOCK_ORDER = [
    "alock-ls", "clh", "malth", "mcs", "partitioned",
    "pthread", "ticket", "ttas", "cna", "aqs",
]

FIG11_APPS = ["ep", "facesim", "streamcluster", "ocean", "cg"]
FIG15_APPS = ["freqmine", "streamcluster", "lu_cb", "ocean", "radix"]
TABLE3_APPS = ["is", "ep", "cg", "mg", "ft", "sp", "bt", "ua"]


def _points(res: dict, section: str) -> Iterator[tuple[list[str], dict]]:
    """``(id fields after the section key, result)`` for every spec of
    one section, in spec order."""
    prefix = section + "/"
    for sid, r in res.items():
        if sid.startswith(prefix):
            yield sid[len(prefix):].split("/"), r


# =====================================================================
# Figure 1 — suite overview: 8T vs 32T on 8 cores, vanilla Linux
# =====================================================================
@dataclass(frozen=True)
class Fig1Row:
    name: str
    group: str
    t8_ns: int
    t32_ns: int
    paper_ratio: float

    @property
    def ratio(self) -> float:
        return self.t32_ns / self.t8_ns


def fig01_rows(res: dict) -> list[Fig1Row]:
    return [
        Fig1Row(
            name=name,
            group=SUITE[name].group.value,
            t8_ns=r["duration_ns"],
            t32_ns=res[f"fig01/{name}/32T"]["duration_ns"],
            paper_ratio=SUITE[name].fig1_expected,
        )
        for (name, n), r in _points(res, "fig01") if n == "8T"
    ]


# =====================================================================
# Figure 2 — direct cost of context switching
# =====================================================================
@dataclass(frozen=True)
class Fig2Row:
    nthreads: int
    pure_ns: int
    atomic_ns: int
    pure_normalized: float
    atomic_normalized: float


def fig02_rows(res: dict) -> tuple[list[Fig2Row], float]:
    """The per-thread-count rows plus the backed-out per-switch cost in
    nanoseconds (the paper measures ~1500 ns)."""
    pure1 = res["fig02/1T/pure"]["duration_ns"]
    atomic1 = res["fig02/1T/atomic"]["duration_ns"]
    rows = []
    for fields, r in _points(res, "fig02"):
        if fields[-1] != "pure":
            continue
        pure = r["duration_ns"]
        atomic = res[f"fig02/{fields[0]}/atomic"]["duration_ns"]
        rows.append(Fig2Row(
            nthreads=int(fields[0][:-1]), pure_ns=pure, atomic_ns=atomic,
            pure_normalized=pure / pure1,
            atomic_normalized=atomic / atomic1,
        ))
    return rows, res["fig02/per_switch"]["per_switch_ns"]


# =====================================================================
# Figure 3 — interval between synchronizations across the suite
# =====================================================================
@dataclass(frozen=True)
class Fig3Row:
    name: str
    interval_us: float  # measured: CPU time divided by blocking syncs


def fig03_rows(res: dict) -> list[Fig3Row]:
    rows = []
    for (name,), r in _points(res, "fig03"):
        blocks = max(1, r["stats"]["blocks"])
        rows.append(Fig3Row(
            name=name, interval_us=r["stats"]["total_cpu_ns"] / blocks / 1e3,
        ))
    return rows


def fig03_histogram(
    rows: list[Fig3Row], bin_us: float = 100.0, max_us: float = 1000.0
) -> list[tuple[str, int]]:
    """The paper's histogram: number of programs per interval bucket."""
    nbins = int(max_us / bin_us)
    counts = [0] * (nbins + 1)
    for r in rows:
        idx = min(nbins, int(r.interval_us / bin_us))
        counts[idx] += 1
    labels = [f"{int(i * bin_us)}-{int((i + 1) * bin_us)}" for i in range(nbins)]
    labels.append(f">={int(max_us)}")
    return list(zip(labels, counts))


# =====================================================================
# Figure 4 — indirect cost of context switches vs working-set size
# =====================================================================
def fig04_series(res: dict) -> dict[str, list[tuple[int, float]]]:
    """Per access pattern: (total array bytes, cost per CS in ns)."""
    return {
        pattern: [tuple(pair) for pair in r["series"]]
        for (pattern,), r in _points(res, "fig04")
    }


# =====================================================================
# Figure 9 / Table 1 — VB on the 13 blocking benchmarks
# =====================================================================
@dataclass(frozen=True)
class Fig9Row:
    name: str
    t8_vanilla_ns: int
    t32_vanilla_ns: int
    t32_optimized_ns: int
    util_8t: float
    util_32t: float
    util_opt: float
    migr_in_8t: int
    migr_in_32t: int
    migr_in_opt: int
    migr_cross_8t: int
    migr_cross_32t: int
    migr_cross_opt: int

    @property
    def vanilla_ratio(self) -> float:
        return self.t32_vanilla_ns / self.t8_vanilla_ns

    @property
    def optimized_ratio(self) -> float:
        return self.t32_optimized_ns / self.t8_vanilla_ns


def fig09_rows(res: dict) -> list[Fig9Row]:
    """Figure 9's runs; Table 1 reads the same rows' util/migration
    columns."""
    rows = []
    for (name, label), base in _points(res, "fig09"):
        if label != "8T":
            continue
        over = res[f"fig09/{name}/32T"]
        best = res[f"fig09/{name}/opt"]
        s8, s32, sop = base["stats"], over["stats"], best["stats"]
        rows.append(Fig9Row(
            name=name,
            t8_vanilla_ns=base["duration_ns"],
            t32_vanilla_ns=over["duration_ns"],
            t32_optimized_ns=best["duration_ns"],
            util_8t=s8["cpu_utilization_pct"],
            util_32t=s32["cpu_utilization_pct"],
            util_opt=sop["cpu_utilization_pct"],
            migr_in_8t=s8["migrations_in_node"],
            migr_in_32t=s32["migrations_in_node"],
            migr_in_opt=sop["migrations_in_node"],
            migr_cross_8t=s8["migrations_cross_node"],
            migr_cross_32t=s32["migrations_cross_node"],
            migr_cross_opt=sop["migrations_cross_node"],
        ))
    return rows


# =====================================================================
# Figure 10 — VB on pthreads primitives
# =====================================================================
@dataclass(frozen=True)
class Fig10Row:
    primitive: str
    nthreads: int
    cores: int
    vanilla_ns: int
    optimized_ns: int

    @property
    def speedup(self) -> float:
        return self.vanilla_ns / self.optimized_ns


def fig10_rows(res: dict) -> tuple[list[Fig10Row], list[Fig10Row]]:
    """(a) varying threads on one core; (b) 32 threads on varying cores."""
    part_a = [
        Fig10Row(prim, int(n[:-1]), 1, r["duration_ns"],
                 res[f"fig10a/{prim}/{n}/opt"]["duration_ns"])
        for (prim, n, variant), r in _points(res, "fig10a")
        if variant == "van"
    ]
    part_b = [
        Fig10Row(prim, 32, int(c[:-1]), r["duration_ns"],
                 res[f"fig10b/{prim}/{c}/opt"]["duration_ns"])
        for (prim, c, variant), r in _points(res, "fig10b")
        if variant == "van"
    ]
    return part_a, part_b


# =====================================================================
# Figure 11 — exploiting CPU elasticity (core count sweep)
# =====================================================================
@dataclass(frozen=True)
class Fig11Point:
    app: str
    cores: int
    setting: str  # "#core-T(vanilla)" | "8T(vanilla)" | "32T(vanilla)" |
    #               "32T(pinned)" | "32T(optimized)"
    duration_ns: int | None  # None = crashed (pinning with too few CPUs)


def fig11_points(res: dict) -> list[Fig11Point]:
    return [
        Fig11Point(app, int(c[:-1]), setting, r["duration_ns"])
        for (app, c, setting), r in _points(res, "fig11")
    ]


# =====================================================================
# Figure 12 — memcached under oversubscription
# =====================================================================
@dataclass(frozen=True)
class Fig12Row:
    cores: int
    setting: str  # "4T(vanilla)" | "16T(vanilla)" | "16T(optimized)"
    throughput_ops: float
    latency: LatencySummary


def fig12_rows(res: dict) -> list[Fig12Row]:
    return [
        Fig12Row(int(c[:-1]), setting, r["throughput_ops"],
                 LatencySummary(**r["latency"]))
        for (c, setting), r in _points(res, "fig12")
    ]


# =====================================================================
# Figure 13 — BWD across ten spinlocks, container and KVM
# =====================================================================
@dataclass(frozen=True)
class Fig13Row:
    algorithm: str
    environment: str  # "container" | "kvm"
    setting: str  # "8T(vanilla)" | "32T(vanilla)" | "32T(PLE)" | "32T(optimized)"
    duration_ns: int


def fig13_rows(res: dict) -> list[Fig13Row]:
    return [
        Fig13Row(alg, env, setting, r["duration_ns"])
        for (env, alg, setting), r in _points(res, "fig13")
    ]


# =====================================================================
# Figure 14 — user-customized spinning (NPB lu, SPLASH-2 volrend)
# =====================================================================
@dataclass(frozen=True)
class Fig14Row:
    app: str
    environment: str
    nthreads: int
    setting: str  # "vanilla" | "PLE" | "optimized"
    duration_ns: int


def fig14_rows(res: dict) -> list[Fig14Row]:
    return [
        Fig14Row(app, env, int(n[:-1]), setting, r["duration_ns"])
        for (app, env, n, setting), r in _points(res, "fig14")
    ]


# =====================================================================
# Figure 15 — comparison with SHFLLOCK / Mutexee / MCS-TP
# =====================================================================
@dataclass(frozen=True)
class Fig15Row:
    app: str
    lock: str  # "pthread" | "mutexee" | "mcstp" | "shfllock" | "optimized"
    duration_ns: int


def fig15_rows(res: dict) -> list[Fig15Row]:
    return [
        Fig15Row(app, lock, r["duration_ns"])
        for (app, lock), r in _points(res, "fig15")
    ]


# =====================================================================
# Tables 2 and 3 — BWD accuracy
# =====================================================================
def table2_rows(res: dict) -> list[TpResult]:
    return [
        TpResult(alg, r["tries"], r["true_positives"])
        for (alg,), r in _points(res, "table2")
    ]


def table3_rows(res: dict) -> list[FpResult]:
    return [
        FpResult(name, r["tries"], r["false_positives"], r["overhead_pct"],
                 r["timer_overhead_pct"])
        for (name,), r in _points(res, "table3")
    ]
