"""Backend parity: the fast hot core must be bit-identical to pure.

Three layers of evidence, mirroring the determinism contract in
docs/performance.md:

* engine parity — hypothesis drives randomized schedule/cancel/run-until
  scripts (including re-entrant scheduling and cancellation from inside
  callbacks) through the pure wheel and the compiled C core, asserting
  identical event order, clock, pending count, and peek time at every
  step;
* runqueue parity — the heap runqueue must reproduce the rbtree's pick
  order op for op;
* kernel trace parity — the same scenario run under ``pure`` and
  ``fast`` must produce byte-identical trace streams, including a
  32-CPU futex-heavy run that drives the balancer through CPU hot-plug.

When the C core cannot load, ``fast`` runs the ``pure`` classes; the
fallback test below pins that down.
"""

from __future__ import annotations

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
    make_runqueue,
    runqueue_class,
    set_backend,
)
from repro.fastpath.parity import (
    engine_backends,
    engine_parity,
    kernel_trace_parity,
)
from repro.fastpath.runqueue import FastCfsRunqueue
from repro.kernel.kernel import Kernel
from repro.kernel.runqueue import CfsRunqueue
from repro.sim.engine import Engine
from repro.kernel.task import Task, TaskState
from repro.prog.actions import (
    BarrierWait,
    Compute,
    MutexAcquire,
    MutexRelease,
    SleepNs,
    Yield,
)
from repro.sync import Barrier, Mutex

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
# Runqueue parity (heap + tombstones vs red-black tree)
# ---------------------------------------------------------------------------

def _dummy_program():
    while True:
        yield Yield()


def _mirrored_tasks(n):
    pure = [Task(f"t{i}", _dummy_program()) for i in range(n)]
    fast = [Task(f"t{i}", _dummy_program()) for i in range(n)]
    return pure, fast


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
    pure_rq, fast_rq = CfsRunqueue(0), FastCfsRunqueue(0)
    pure_tasks, fast_tasks = _mirrored_tasks(16)

    def snap(rq, tasks):
        return (
            rq.nr_queued,
            rq.nr_running,
            rq.nr_queued_runnable,
            rq.nr_schedulable(),
            rq.nr_blocked,
            rq.min_vruntime,
            [t.name for t in rq.tasks()],
            [t.name for t in rq.steal_candidates()],
            [t.vruntime for t in tasks],
        )

    for op in ops:
        kind = op[0]
        if kind == "enqueue":
            i, vr, blocked = op[1], op[2], op[3]
            for tasks, rq in ((pure_tasks, pure_rq), (fast_tasks, fast_rq)):
                t = tasks[i]
                if t.rq_key is not None or rq.curr is t:
                    continue
                t.vruntime = vr
                t.thread_state = 1 if blocked else 0
                t.state = TaskState.RUNNABLE
                rq.enqueue(t)
        elif kind == "dequeue":
            i = op[1]
            for tasks, rq in ((pure_tasks, pure_rq), (fast_tasks, fast_rq)):
                t = tasks[i]
                if t.rq_key is not None:
                    rq.dequeue(t)
        elif kind == "pick":
            a = pure_rq.pick_next()
            b = fast_rq.pick_next()
            assert (a and a.name) == (b and b.name)
            # Put any previous current back out of the way.
            pure_rq.curr, fast_rq.curr = a, b
        elif kind == "peek":
            a = pure_rq.peek_next()
            b = fast_rq.peek_next()
            assert (a and a.name) == (b and b.name)
        elif kind == "update_min":
            pure_rq.update_min_vruntime()
            fast_rq.update_min_vruntime()
        elif kind == "place":
            i, bonus = op[1], op[2]
            pure_rq.place_vruntime(pure_tasks[i], bonus)
            fast_rq.place_vruntime(fast_tasks[i], bonus)
        assert snap(pure_rq, pure_tasks) == snap(fast_rq, fast_tasks), op

    assert pure_rq.recount_blocked() == fast_rq.recount_blocked()
    fast_rq.tree.validate()


def test_runqueue_tree_view_matches():
    rq = FastCfsRunqueue(3)
    _pure, tasks = _mirrored_tasks(6)
    for i, t in enumerate(tasks):
        t.vruntime = (i * 7) % 4
        rq.enqueue(t)
    rq.dequeue(tasks[2])
    items = list(rq.tree.items())
    assert [t.name for _k, t in items] == [t.name for t in rq.tasks()]
    assert sorted(k for k, _t in items) == [k for k, _t in items]
    assert rq.tree.min_item()[1] is items[0][1]
    assert rq.tree.size == 5
    rq.tree.validate()


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


def _untraced_run(make_config, scenario, horizon_ns) -> tuple:
    """Clock, event count and per-task stats of one run under the
    current backend.  No tracing, so a fast kernel stays on the C cycle
    and its runqueue ops instead of bailing to Python on every event."""
    k = Kernel(make_config())
    scenario(k)
    k.run_for(horizon_ns)
    stats = [(t.name, t.vruntime, dataclasses.astuple(t.stats))
             for t in k.tasks]
    k.shutdown()
    return k.now, k.engine.events_run, stats


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


@pytest.mark.parametrize("cores", [4, 32])
def test_cycle_keeps_runqueue_ops(cores):
    # A runqueue slot the C cycle cannot resolve silently turns its fast
    # runqueue ops off; counters() reports that as rq_ops == 0.
    if not fastcore_available():  # pragma: no cover - no C compiler
        pytest.skip("C core unavailable")
    prev = current_backend()
    try:
        set_backend("fast")
        k = Kernel(vanilla_config(cores=cores, seed=1))
    finally:
        set_backend(prev)
    assert k._cycle is not None
    assert k._cycle.counters()["rq_ops"] == 1
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
            assert isinstance(make_runqueue(0), FastCfsRunqueue)
        set_backend("pure")
        assert backend_info() == {"backend": "pure"}
        assert engine_class().__name__ == "Engine"
        assert isinstance(make_runqueue(0), CfsRunqueue)
        assert type(make_engine()).__name__ == "Engine"
    finally:
        set_backend(prev)
    with pytest.raises(ValueError):
        set_backend("warp")
    assert BACKENDS == ("pure", "fast")


def test_kernel_uses_backend_engine_and_runqueue():
    prev = current_backend()
    try:
        set_backend("fast")
        k = Kernel(vanilla_config(cores=2, seed=1))
        if fastcore_available():
            assert type(k.engine).__name__ == "FastEngine"
            assert isinstance(k.cpus[0].rq, FastCfsRunqueue)
        k.shutdown()
    finally:
        set_backend(prev)


def test_fast_backend_without_c_core_runs_pure_classes(monkeypatch):
    """If the C core cannot load, ``fast`` is the pure engine and
    runqueue: same classes, same results, and the report says so."""
    def config():
        return vanilla_config(cores=2, seed=2021)

    prev = current_backend()
    try:
        set_backend("pure")
        pure = _untraced_run(config, _mixed_scenario, 20 * MS)
        monkeypatch.setattr(build, "load_fastcore", lambda: None)
        set_backend("fast")
        assert engine_class() is Engine
        assert runqueue_class() is CfsRunqueue
        assert backend_info() == {"backend": "fast", "fastcore": False}
        k = Kernel(config())
        assert type(k.engine) is Engine and k._cycle is None
        assert all(type(c.rq) is CfsRunqueue for c in k.cpus)
        k.shutdown()
        fast = _untraced_run(config, _mixed_scenario, 20 * MS)
    finally:
        set_backend(prev)
    assert fast == pure
