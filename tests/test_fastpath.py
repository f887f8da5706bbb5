"""Backend parity: the fast hot core must be bit-identical to pure.

Three layers of evidence, mirroring the determinism contract in
docs/performance.md:

* engine parity — hypothesis drives randomized schedule/cancel/run-until
  scripts (including re-entrant scheduling and cancellation from inside
  callbacks) through the pure wheel and the compiled C core, asserting
  identical event order, clock, pending count, and peek time at every
  step;
* runqueue model check — the one runqueue both backends drive must
  match a plain sorted-list model op for op;
* kernel trace parity — the same scenario run under ``pure`` and
  ``fast`` must produce byte-identical trace streams, including a
  32-CPU futex-heavy run that drives the balancer through CPU hot-plug;
* wake-path parity — each futex wake completion the C cycle mirrors
  (VB in place, VB placed, vanilla; with and without the immediate-
  schedule preference, pinned tasks, CPUs going offline) agrees field
  for field untraced and record for record traced, with the C cycle's
  event accounting and reference counting checked alongside.

When the C core cannot load, ``fast`` runs the ``pure`` engine; the
fallback test below pins that down.
"""

from __future__ import annotations

import bisect
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import optimized_config, vanilla_config
from repro.fastpath import (
    BACKENDS,
    backend_info,
    build,
    current_backend,
    engine_class,
    fastcore_available,
    make_engine,
    set_backend,
)
from repro.fastpath.parity import (
    engine_backends,
    engine_parity,
    kernel_trace_parity,
)
from repro.kernel.kernel import Kernel
from repro.kernel.runqueue import VB_SENTINEL, CfsRunqueue
from repro.sim.engine import Engine
from repro.kernel.task import Task, TaskState
from repro.kernel.epoll import EpollInstance
from repro.prog.actions import (
    BarrierWait,
    Compute,
    EpollWait,
    MutexAcquire,
    MutexRelease,
    SleepNs,
    Yield,
)
from repro.sync import Barrier, Mutex, Mutexee

MS = 1_000_000
US = 1_000


# ---------------------------------------------------------------------------
# Engine parity (hypothesis property: schedule/cancel/run-until scripts)
# ---------------------------------------------------------------------------

_op = st.one_of(
    st.tuples(
        st.just("schedule"),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=400),
    ),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=1000)),
    st.tuples(st.just("run_until"), st.integers(min_value=0, max_value=300)),
    st.tuples(st.just("step")),
)


def _assert_same(results: dict) -> None:
    names = list(results)
    ref = results[names[0]]
    for name in names[1:]:
        got = results[name]
        assert got["log"] == ref["log"], f"{name} vs {names[0]}"
        assert got["snapshots"] == ref["snapshots"], f"{name} vs {names[0]}"


@settings(max_examples=60, deadline=None)
@given(st.lists(_op, min_size=1, max_size=60))
def test_engine_parity_randomized_scripts(ops):
    _assert_same(engine_parity(ops))


def test_engine_parity_cancel_heavy():
    # Deterministic cancel-storm: most events die before firing, which
    # exercises lazy tombstones + compaction in every implementation.
    ops = []
    for i in range(300):
        ops.append(("schedule", (i * 37) % 900, i))
    for i in range(280):
        ops.append(("cancel", i))
    ops.append(("run_until", 1_000))
    _assert_same(engine_parity(ops))


def test_engine_backends_present():
    names = [n for n, _f in engine_backends()]
    expected = ["pure", "fastcore"] if fastcore_available() else ["pure"]
    assert names == expected


# ---------------------------------------------------------------------------
# Engine compaction (the cancel-heavy pollution fix)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,factory", engine_backends())
def test_engine_compacts_under_cancel_storm(name, factory):
    e = factory()
    handles = [e.schedule(1000 + i, lambda: None) for i in range(4096)]
    for h in handles[:-8]:
        h.cancel()
    assert e.pending == 8
    # Compaction must have dropped the dead entries instead of letting
    # the queue hold 4088 tombstones until t=1000.
    if hasattr(e, "queue_len"):
        assert e.queue_len() <= 2 * e.pending + 64
    else:
        assert sum(len(b) for b in e._buckets.values()) <= 2 * e.pending + 64
    fired = []
    e.on_event = lambda: fired.append(e.now)
    e.run()
    assert e.events_run == 8


# ---------------------------------------------------------------------------
# Runqueue model check (the one CfsRunqueue both backends drive)
# ---------------------------------------------------------------------------

def _dummy_program():
    while True:
        yield Yield()


class _SortedListModel:
    """The runqueue's contract restated over a plain sorted list of
    ``((k0, seq), name)`` entries: keys as the queue builds them, pick
    order = list order, ``min_vruntime`` as CFS advances it."""

    def __init__(self, tasks):
        self.by_name = {t.name: t for t in tasks}
        self.entries = []
        self.seq = 0
        self.curr = None
        self.min_vruntime = 0

    def enqueue(self, t):
        self.seq += 1
        k0 = VB_SENTINEL + self.seq if t.thread_state else t.vruntime
        bisect.insort(self.entries, ((k0, self.seq), t.name))

    def dequeue(self, t):
        self.entries = [e for e in self.entries if e[1] != t.name]

    def queued(self, name):
        return any(e[1] == name for e in self.entries)

    def peek(self):
        return self.entries[0][1] if self.entries else None

    def pick(self):
        name = self.entries.pop(0)[1] if self.entries else None
        self.curr = self.by_name[name] if name else None
        return name

    def update_min(self):
        curr = self.curr
        vr = curr.vruntime if curr and curr.thread_state == 0 else None
        if self.entries:
            k0 = self.entries[0][0][0]
            if k0 < VB_SENTINEL and (vr is None or k0 < vr):
                vr = k0
        if vr is not None and vr > self.min_vruntime:
            self.min_vruntime = vr

    def snap(self):
        names = [n for _k, n in self.entries]
        blocked = sum(1 for k, _n in self.entries if k[0] >= VB_SENTINEL)
        curr = self.curr
        sched = len(names) - blocked + (
            1 if curr is not None and curr.thread_state == 0 else 0)
        steal = [n for n in names
                 if self.by_name[n].thread_state == 0
                 and self.by_name[n].state is TaskState.RUNNABLE]
        return (len(names), len(names) + (curr is not None),
                len(names) - blocked, sched, blocked, self.min_vruntime,
                names, steal)


def _rq_snap(rq):
    return (
        rq.nr_queued,
        rq.nr_running,
        rq.nr_queued_runnable,
        rq.nr_schedulable(),
        rq.nr_blocked,
        rq.min_vruntime,
        [t.name for t in rq.tasks()],
        [t.name for t in rq.steal_candidates()],
    )


_rq_op = st.one_of(
    st.tuples(
        st.just("enqueue"),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    ),
    st.tuples(st.just("dequeue"), st.integers(min_value=0, max_value=15)),
    st.tuples(st.just("pick")),
    st.tuples(st.just("peek")),
    st.tuples(st.just("update_min")),
    st.tuples(
        st.just("place"),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=2_000),
    ),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_rq_op, min_size=1, max_size=80))
def test_runqueue_parity_randomized_ops(ops):
    rq = CfsRunqueue(0)
    tasks = [Task(f"t{i}", _dummy_program()) for i in range(16)]
    model = _SortedListModel(tasks)

    for op in ops:
        kind = op[0]
        if kind == "enqueue":
            t = tasks[op[1]]
            if t.rq_key is None and rq.curr is not t:
                t.vruntime = op[2]
                t.thread_state = 1 if op[3] else 0
                t.state = TaskState.RUNNABLE
                rq.enqueue(t)
                model.enqueue(t)
        elif kind == "dequeue":
            t = tasks[op[1]]
            assert (t.rq_key is not None) == model.queued(t.name)
            if t.rq_key is not None:
                rq.dequeue(t)
                model.dequeue(t)
        elif kind == "pick":
            got = rq.pick_next()
            assert (got and got.name) == model.pick()
            rq.curr = got  # the previous current simply leaves
        elif kind == "peek":
            got = rq.peek_next()
            assert (got and got.name) == model.peek()
        elif kind == "update_min":
            rq.update_min_vruntime()
            model.update_min()
        elif kind == "place":
            t = tasks[op[1]]
            want = max(t.vruntime, model.min_vruntime - op[2])
            rq.place_vruntime(t, op[2])
            assert t.vruntime == want
        assert _rq_snap(rq) == model.snap(), op
        rq.validate()

    assert rq.recount_blocked() == rq.nr_blocked


# ---------------------------------------------------------------------------
# Kernel trace parity across backends
# ---------------------------------------------------------------------------

def _mixed_scenario(kernel: Kernel) -> None:
    def worker(i):
        for r in range(6):
            yield Compute(50 * US + i * 7 * US)
            if (i + r) % 3 == 0:
                yield SleepNs(30 * US)
            else:
                yield Yield()

    for i in range(10):
        kernel.spawn(worker(i), name=f"w{i}")


def test_kernel_trace_parity_mixed_workload():
    streams = kernel_trace_parity(_mixed_scenario, horizon_ns=20 * MS)
    assert streams["pure"], "scenario produced no trace events"
    assert streams["pure"] == streams["fast"]


def _kernel_state(k: Kernel) -> tuple:
    """Everything a run computes that both backends must agree on: clock,
    event count, every task's vruntime, state and ``TaskStats`` fields,
    the VB counters, PSI and runqueue-depth accounting, per-CPU time
    accounting, migration counters and the latency histograms."""
    tasks = [(t.name, t.vruntime, t.state.value, dataclasses.astuple(t.stats))
             for t in k.tasks]
    psi = (k.psi_some_ns, k.psi_full_ns, k.psi_waiting, k.psi_running,
           tuple(k._psi_checkpoints), k.rq_depth_integral_ns, k._rqd_total)
    cpus = [(c.busy_ns, c.sched_ns, c.stall_ns, c.poll_ns, c.irq_ns,
             c.nr_switches, c.poll_idle_since, c.rq.min_vruntime)
            for c in k.cpus]
    migrations = (k.migrations_in_node, k.migrations_cross_node,
                  k.wake_migrations, k.balance_migrations,
                  k.negative_latency_samples)
    hists = {name: h.to_dict() for name, h in k.hists.items()}
    return (k.now, k.engine.events_run, tasks,
            dataclasses.astuple(k.vb_policy.stats), psi, cpus, migrations,
            hists)


def _untraced_kernel(make_config, scenario, horizon_ns) -> Kernel:
    """One run under the current backend.  No tracing, so a fast kernel
    stays on the C cycle and its runqueue ops instead of bailing to
    Python on every event."""
    k = Kernel(make_config())
    scenario(k)
    k.run_for(horizon_ns)
    k.shutdown()
    return k


def _untraced_run(make_config, scenario, horizon_ns) -> tuple:
    """:func:`_kernel_state` of one untraced run."""
    return _kernel_state(_untraced_kernel(make_config, scenario, horizon_ns))


def _untraced_results(make_config, scenario, horizon_ns) -> dict:
    """:func:`_untraced_run` under each backend."""
    prev = current_backend()
    results = {}
    try:
        for backend in ("pure", "fast"):
            set_backend(backend)
            results[backend] = _untraced_run(make_config, scenario,
                                             horizon_ns)
    finally:
        set_backend(prev)
    return results


def test_kernel_results_identical_across_backends():
    results = _untraced_results(lambda: vanilla_config(cores=4, seed=2021),
                                _mixed_scenario, 20 * MS)
    assert results["pure"] == results["fast"]


def _wide_scenario(kernel: Kernel) -> None:
    """Futex-heavy load on 32 CPUs that shrinks to 16 and grows back,
    so newly-idle pulls and periodic balance ticks both fire."""
    locks = [Mutex(f"wide.m{j}") for j in range(4)]
    bar = Barrier(8, "wide.bar")

    def locker(i):
        m = locks[i % 4]
        for r in range(40):
            yield Compute(150 * US + (i * 13 % 7) * 10 * US)
            yield MutexAcquire(m)
            yield Compute(5 * US)
            yield MutexRelease(m)
            if (i + r) % 5 == 0:
                yield SleepNs(100 * US)

    def stage(i):
        for _ in range(40):
            yield Compute(150 * US + i * 10 * US)
            yield BarrierWait(bar)

    def hog(i):
        for _ in range(30):
            yield Compute(400 * US + i * 10 * US)
            yield Yield()

    for i in range(40):
        kernel.spawn(locker(i), name=f"lk{i}")
    for i in range(8):
        kernel.spawn(stage(i), name=f"st{i}")
    for i in range(16):
        kernel.spawn(hog(i), name=f"hog{i}")
    kernel.engine.schedule_at(kernel.now + 2 * MS, kernel.set_online_cpus, 16)
    kernel.engine.schedule_at(kernel.now + 10 * MS, kernel.set_online_cpus, 32)


_WIDE_CONFIGS = {
    "vanilla": lambda: vanilla_config(cores=32, seed=2021),
    "optimized": lambda: optimized_config(cores=32, seed=2021),
}


@pytest.mark.parametrize("name", sorted(_WIDE_CONFIGS))
def test_wide_machine_balancer_parity(name):
    horizon = 30 * MS
    streams = kernel_trace_parity(_wide_scenario, horizon_ns=horizon,
                                  config=_WIDE_CONFIGS[name]())
    kinds = {e[1] for e in streams["pure"]}
    assert {"idle-pull", "balance"} <= kinds, kinds
    assert streams["pure"] == streams["fast"]

    results = _untraced_results(_WIDE_CONFIGS[name], _wide_scenario, horizon)
    assert results["pure"] == results["fast"]


# ---------------------------------------------------------------------------
# Wake-path parity: park -> wake completion -> preempt -> dispatch in C
# ---------------------------------------------------------------------------

def _no_bwd(cfg, **vb):
    """``cfg`` without BWD's monitor timers, with optional VB overrides."""
    cfg = dataclasses.replace(cfg, bwd=dataclasses.replace(cfg.bwd,
                                                           enabled=False))
    if vb:
        cfg = dataclasses.replace(cfg, vb=dataclasses.replace(cfg.vb, **vb))
    return cfg


def _lock_scenario(ntasks, nlocks, rounds=30, pinned_every=0,
                   spin_locks=False):
    """``ntasks`` workers contending for ``nlocks`` mutexes (the even
    ones spin-then-park when ``spin_locks``); every ``pinned_every``-th
    worker is pinned to a CPU."""
    def scenario(kernel):
        locks = [(Mutexee if spin_locks and j % 2 == 0 else Mutex)(f"lk{j}")
                 for j in range(nlocks)]
        ncpu = len(kernel.online_cpus())

        def worker(i):
            lock = locks[i % nlocks]
            for r in range(rounds):
                yield Compute(20 * US + (i * 7 + r * 3) % 11 * US)
                yield MutexAcquire(lock)
                yield Compute(4 * US + i % 3 * US)
                yield MutexRelease(lock)

        for i in range(ntasks):
            pin = (i % ncpu if pinned_every and i % pinned_every == 0
                   else None)
            kernel.spawn(worker(i), name=f"w{i}", pinned_cpu=pin)
    return scenario


def _epoll_scenario(nworkers, posts=300, gap_ns=7 * US, online=None):
    """Interrupt-context ``epoll_post`` wakes (the memcached path) plus a
    mutex, with an optional ``(at_ns, n)`` list of CPU hot-plugs."""
    def scenario(kernel):
        ep = EpollInstance("ep")
        lock = Mutex("ep.lock")

        def server(i):
            while True:
                batch = yield EpollWait(ep, max_events=2)
                yield Compute(15 * US + len(batch) * (i % 4 + 1) * US)
                yield MutexAcquire(lock)
                yield Compute(2 * US)
                yield MutexRelease(lock)

        def post(n):
            kernel.epoll_post(ep, n)
            if n < posts:
                kernel.engine.schedule(gap_ns + n % 5 * US, post, n + 1)

        for i in range(nworkers):
            kernel.spawn(server(i), name=f"srv{i}")
        kernel.engine.schedule(gap_ns, post, 0)
        for at, n in online or ():
            kernel.engine.schedule_at(kernel.now + at, kernel.set_online_cpus,
                                      n)
    return scenario


# name -> (config factory, scenario, horizon, the trace's wake `how`)
_WAKE_SCENARIOS = {
    "vb-in-place": (
        lambda: _no_bwd(optimized_config(cores=2, seed=11)),
        _lock_scenario(8, 1, spin_locks=True), 4 * MS, "vb"),
    "vb-placed": (
        lambda: _no_bwd(optimized_config(cores=8, seed=12)),
        _epoll_scenario(6), 4 * MS, "vb-placed"),
    "vanilla": (
        lambda: _no_bwd(vanilla_config(cores=4, seed=13)),
        _epoll_scenario(6), 4 * MS, "vanilla"),
    "vb-no-immediate-schedule": (
        lambda: _no_bwd(optimized_config(cores=2, seed=14),
                        immediate_schedule=False),
        _lock_scenario(8, 1), 4 * MS, "vb"),
    "pinned": (
        lambda: _no_bwd(optimized_config(cores=4, seed=15)),
        _lock_scenario(10, 3, pinned_every=2), 4 * MS, "vb-placed"),
    "target-offline": (
        lambda: _no_bwd(optimized_config(cores=8, seed=16)),
        _epoll_scenario(10, online=[(1 * MS, 3), (2500 * US, 8)]),
        4 * MS, "vb-placed"),
}

# The reasons counters()["bailouts_by"] reports.  None of them is a park
# or a wake: those never leave C on an untraced CFS kernel.
_BAIL_REASONS = {"trace", "policy", "schedule-offline", "schedule-idle-pull",
                 "continue-spin", "exit", "complete-sleep",
                 "complete-subclass"}


@pytest.mark.parametrize("name", sorted(_WAKE_SCENARIOS))
def test_wake_path_parity(name):
    make_config, scenario, horizon, how = _WAKE_SCENARIOS[name]
    streams = kernel_trace_parity(scenario, horizon_ns=horizon,
                                  config=make_config())
    hows = {dict(e[4]).get("how") for e in streams["pure"] if e[1] == "wake"}
    assert how in hows, hows
    assert streams["pure"] == streams["fast"]

    prev = current_backend()
    try:
        set_backend("pure")
        pure = _untraced_kernel(make_config, scenario, horizon)
        set_backend("fast")
        fast = _untraced_kernel(make_config, scenario, horizon)
    finally:
        set_backend(prev)
    assert _kernel_state(fast) == _kernel_state(pure)
    if fast._cycle is not None:
        by = fast._cycle.counters()["bailouts_by"]
        assert set(by) == _BAIL_REASONS
        assert by["trace"] == 0 and by["policy"] == 0, by


def test_cycle_counts_each_event_once():
    # Futex-only, no timers (BWD off, no balance tick inside the
    # horizon): every engine event is a per-CPU event or a wake
    # completion, and each counts once, fast or bailed for one reason.
    if not fastcore_available():  # pragma: no cover - no C compiler
        pytest.skip("C core unavailable")
    cfg = _no_bwd(optimized_config(cores=4, seed=17))
    cfg = dataclasses.replace(cfg, scheduler=dataclasses.replace(
        cfg.scheduler, balance_interval_ns=1_000 * MS))
    prev = current_backend()
    try:
        set_backend("fast")
        k = Kernel(cfg)
        _lock_scenario(12, 2, rounds=20)(k)
        k.run_for(40 * MS)
    finally:
        set_backend(prev)
    assert k.live_tasks == 0  # the exits bailed inside their events
    c = k._cycle.counters()
    assert c["fast_events"] + c["bailouts"] == k.engine.events_run
    assert sum(c["bailouts_by"].values()) == c["bailouts"]
    assert c["bailouts_by"]["exit"] == 12
    assert c["bailouts"] < c["fast_events"] // 10
    k.shutdown()


def test_cycle_paths_do_not_leak():
    # The C wake/park paths juggle many references; a leaked one per
    # event grows memory with the run.  30 runs of an 8-CPU, 16-worker VB
    # scenario in one process must leave traced memory and the live
    # object count flat after a warm-up.
    if not fastcore_available():  # pragma: no cover - no C compiler
        pytest.skip("C core unavailable")
    import gc
    import tracemalloc

    def config():
        return _no_bwd(optimized_config(cores=8, seed=18))

    scenario = _epoll_scenario(16, posts=400, gap_ns=3 * US)
    prev = current_backend()
    tracemalloc.start()
    try:
        set_backend("fast")
        for _ in range(3):
            _untraced_kernel(config, scenario, 2 * MS)
        gc.collect()
        mem0 = tracemalloc.get_traced_memory()[0]
        objs0 = len(gc.get_objects())
        for _ in range(30):
            k = _untraced_kernel(config, scenario, 2 * MS)
            assert k._cycle.counters()["fast_events"] > 1000
            del k
        gc.collect()
        mem1 = tracemalloc.get_traced_memory()[0]
        objs1 = len(gc.get_objects())
    finally:
        tracemalloc.stop()
        set_backend(prev)
    # Tolerance: 64 KiB and 200 objects over 30 runs, far below the
    # ~30 x 5k wake and park events one leaked reference each would hold.
    assert mem1 - mem0 < 64 * 1024, mem1 - mem0
    assert objs1 - objs0 < 200, objs1 - objs0


@pytest.mark.parametrize("cores", [4, 32])
def test_cycle_keeps_runqueue_ops(cores):
    # The C cycle's runqueue ops need every CfsRunqueue slot it reads;
    # a slot that fails to resolve would leave the kernel without it.
    if not fastcore_available():  # pragma: no cover - no C compiler
        pytest.skip("C core unavailable")
    prev = current_backend()
    try:
        set_backend("fast")
        k = Kernel(vanilla_config(cores=cores, seed=1))
    finally:
        set_backend(prev)
    assert k._cycle is not None
    k.shutdown()


def test_cycle_requires_policy_gate():
    # The kernel always passes POLICY_IS_CFS; without it the C cycle
    # refuses to build rather than guess a policy.
    if not fastcore_available():  # pragma: no cover - no C compiler
        pytest.skip("C core unavailable")
    from repro.kernel.kernel import _cycle_support

    prev = current_backend()
    try:
        set_backend("fast")
        k = Kernel(vanilla_config(cores=2, seed=1))
    finally:
        set_backend(prev)
    with pytest.raises(KeyError, match="POLICY_IS_CFS"):
        build.load_fastcore().KernelCycle(k, _cycle_support())
    k.shutdown()


def test_cycle_requires_runqueue_slots():
    # A runqueue without a slot the C ops read fails construction
    # instead of falling back to per-call Python methods.
    if not fastcore_available():  # pragma: no cover - no C compiler
        pytest.skip("C core unavailable")
    from repro.kernel.kernel import _cycle_support

    class NoQueuedCount:
        __slots__ = tuple(s for s in CfsRunqueue.__slots__
                          if s != "nr_queued")

    prev = current_backend()
    try:
        set_backend("fast")
        k = Kernel(vanilla_config(cores=2, seed=1))
    finally:
        set_backend(prev)
    support = dict(_cycle_support(), POLICY_IS_CFS=True)
    build.load_fastcore().KernelCycle(k, support)  # the real queue resolves
    real = k.cpus[0].rq
    k.cpus[0].rq = NoQueuedCount()
    try:
        with pytest.raises(AttributeError, match="nr_queued"):
            build.load_fastcore().KernelCycle(k, support)
    finally:
        k.cpus[0].rq = real
    k.shutdown()


# ---------------------------------------------------------------------------
# Backend selection plumbing
# ---------------------------------------------------------------------------

def test_backend_selection_roundtrip():
    prev = current_backend()
    try:
        set_backend("fast")
        assert current_backend() == "fast"
        info = backend_info()
        assert info["backend"] == "fast" and "fastcore" in info
        if fastcore_available():
            assert engine_class().__name__ == "FastEngine"
        k = Kernel(vanilla_config(cores=1, seed=1))
        assert type(k.cpus[0].rq) is CfsRunqueue
        k.shutdown()
        set_backend("pure")
        assert backend_info() == {"backend": "pure"}
        assert engine_class().__name__ == "Engine"
        assert type(make_engine()).__name__ == "Engine"
        k = Kernel(vanilla_config(cores=1, seed=1))
        assert type(k.cpus[0].rq) is CfsRunqueue
        k.shutdown()
    finally:
        set_backend(prev)
    with pytest.raises(ValueError):
        set_backend("warp")
    assert BACKENDS == ("pure", "fast")


def test_kernel_uses_backend_engine_and_runqueue():
    prev = current_backend()
    try:
        for backend in BACKENDS:
            set_backend(backend)
            k = Kernel(vanilla_config(cores=2, seed=1))
            if backend == "fast" and fastcore_available():
                assert type(k.engine).__name__ == "FastEngine"
            assert all(type(c.rq) is CfsRunqueue for c in k.cpus)
            k.shutdown()
    finally:
        set_backend(prev)


def test_fast_backend_without_c_core_runs_pure_classes(monkeypatch):
    """If the C core cannot load, ``fast`` is the pure engine with the
    one runqueue: same classes, same results, and the report says so."""
    def config():
        return vanilla_config(cores=2, seed=2021)

    prev = current_backend()
    try:
        set_backend("pure")
        pure = _untraced_run(config, _mixed_scenario, 20 * MS)
        monkeypatch.setattr(build, "load_fastcore", lambda: None)
        set_backend("fast")
        assert engine_class() is Engine
        assert backend_info() == {"backend": "fast", "fastcore": False}
        k = Kernel(config())
        assert type(k.engine) is Engine and k._cycle is None
        assert all(type(c.rq) is CfsRunqueue for c in k.cpus)
        k.shutdown()
        fast = _untraced_run(config, _mixed_scenario, 20 * MS)
    finally:
        set_backend(prev)
    assert fast == pure
