"""Per-layer tracing from outside the program.

The tracer wraps the public entry points of each simulator layer, keeps
one span per call in memory (name, start, end, parent, spec) and rolls
the spans up into call counts and self time per layer.  A span's self
time is its duration minus the part covered by its child spans, so the
layer times add up to the traced wall time without double counting.

Each name is patched where its caller looks it up: methods on their
class, module-level functions in the globals of the module that calls
them.  Install before the first kernel is built, because the C kernel
cycle captures bound methods when it is constructed, and restore after.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array

SPEC_SPAN = "runners.spec"
SIM_SPAN = "sim.run"

# (owner, attribute, span name).  An owner is "module" or "module:Class".
SPAN_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.kernel.kernel:Kernel", "run_for", SIM_SPAN),
    ("repro.kernel.kernel:Kernel", "run_to_completion", SIM_SPAN),
    ("repro.kernel.kernel:Kernel", "futex_wait", "kernel.futex_wait"),
    ("repro.kernel.kernel:Kernel", "futex_wake", "kernel.futex_wake"),
    ("repro.kernel.kernel:Kernel", "epoll_post", "kernel.epoll_post"),
    ("repro.kernel.kernel:Kernel", "bwd_deschedule", "kernel.bwd_deschedule"),
    ("repro.core.virtual_blocking:VirtualBlockingPolicy", "wake_in_place",
     "core.vb.wake_in_place"),
    ("repro.core.bwd", "synthesize_lbr_signature", "hw.lbr"),
    ("repro.core.bwd", "synthesize_pmc_miss_free", "hw.pmc"),
    ("repro.fastpath.soa", "pick_busiest_eligible", "fastpath.soa"),
    ("repro.fastpath.soa", "balance_extremes", "fastpath.soa"),
    ("repro.fastpath.soa", "steal_candidates_vector", "fastpath.soa"),
    ("repro.sync.blocking:Mutex", "acquire", "sync"),
    ("repro.sync.blocking:Mutex", "release", "sync"),
    ("repro.sync.blocking:CondVar", "wait", "sync"),
    ("repro.sync.blocking:CondVar", "signal", "sync"),
    ("repro.sync.blocking:CondVar", "broadcast", "sync"),
    ("repro.sync.blocking:Barrier", "wait", "sync"),
    ("repro.sync.blocking:Semaphore", "wait", "sync"),
    ("repro.sync.blocking:Semaphore", "post", "sync"),
    ("repro.workloads.loadgen:OpenLoopClients", "start", "workloads.loadgen"),
    ("repro.workloads.loadgen:OpenLoopClients", "complete",
     "workloads.loadgen"),
    ("repro.workloads.loadgen:OpenLoopClients", "fail", "workloads.loadgen"),
    ("repro.workloads.loadgen:ClosedLoopClients", "start",
     "workloads.loadgen"),
    ("repro.workloads.loadgen:ClosedLoopClients", "complete",
     "workloads.loadgen"),
    ("repro.workloads.loadgen:ClosedLoopClients", "fail",
     "workloads.loadgen"),
    ("repro.workloads.loadgen:RateSchedule", "rate_at_np",
     "workloads.loadgen"),
    ("repro.resilience.server:ServerGuard", "admit", "resilience"),
    ("repro.resilience.server:ServerGuard", "serve_ok", "resilience"),
    ("repro.resilience.client:ResilientClients", "send", "resilience"),
    ("repro.resilience.client:ResilientClients", "server_finish",
     "resilience"),
)

# Patched without a span, to find every engine and kernel a spec builds:
# engines for their event counts, kernels for the C cycle's counters.
ENGINE_POINT = ("repro.kernel.kernel", "make_engine")
KERNEL_POINT = ("repro.kernel.kernel:Kernel", "__init__")

# Layers reported as call count (``<name>.calls``) and self time
# (``<name>.s``).
TIMED_LAYERS = (
    "kernel.futex_wait", "kernel.futex_wake", "kernel.epoll_post",
    "kernel.bwd_deschedule", "hw.lbr", "hw.pmc", "sync",
    "workloads.loadgen", "resilience",
)


def resolve_owner(path: str):
    """The module, or the class inside it, that ``path`` names."""
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def patch_targets() -> list[tuple[object, str]]:
    """Every (owner, attribute) the tracer replaces while installed."""
    points = [(o, a) for o, a, _ in SPAN_POINTS] + [ENGINE_POINT,
                                                    KERNEL_POINT]
    return [(resolve_owner(o), a) for o, a in points]


class Tracer:
    """Spans and per-layer totals for one process's traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []
        self.specs: list[str] = []
        self._spec = -1
        self._next_id = 0
        self._stack: list[list[int]] = []  # [span id, name id, start, child]
        # One row per closed span, in the order spans close.
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_spec = array("i")
        self.events = 0
        self.fast_events = 0
        self.bailouts = 0
        self.in_place_wakes = 0
        self._engines: list = []
        self._kernels: list = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.total_ns.append(0)
        return nid

    def _open(self, nid: int) -> None:
        sid = self._next_id
        self._next_id = sid + 1
        self._stack.append([sid, nid, time.perf_counter_ns(), 0])

    def _close(self) -> None:
        end = time.perf_counter_ns()
        sid, nid, start, child = self._stack.pop()
        dur = end - start
        self.calls[nid] += 1
        self.total_ns[nid] += dur
        self.self_ns[nid] += dur - child
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[3] += dur
            parent = top[0]
        self.span_id.append(sid)
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent)
        self.span_spec.append(self._spec)

    def wrap(self, fn, name: str, count_true: bool = False):
        """``fn`` recording one span named ``name`` per call."""
        nid = self._intern(name)
        tracer = self

        if count_true:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                tracer._open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close()
                if result:
                    tracer.in_place_wakes += 1
                return result
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                tracer._open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close()
        return traced

    @contextlib.contextmanager
    def spec(self, spec_id: str):
        """Root span for one spec; folds in its engines' and kernels'
        counters when the spec ends."""
        self._spec = len(self.specs)
        self.specs.append(spec_id)
        self._open(self._intern(SPEC_SPAN))
        try:
            yield
        finally:
            self._close()
            self._harvest()
            self._spec = -1

    def _harvest(self) -> None:
        for engine in self._engines:
            self.events += engine.events_run
        for kernel in self._kernels:
            cycle = getattr(kernel, "_cycle", None)
            if cycle is not None:
                counters = cycle.counters()
                self.fast_events += counters["fast_events"]
                self.bailouts += counters["bailouts"]
        self._engines.clear()
        self._kernels.clear()

    # -- install / restore ---------------------------------------------
    def install(self) -> None:
        """Replace every patch target with its traced version."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for o, attr, name in SPAN_POINTS:
            owner = resolve_owner(o)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(
                original, name, count_true=name == "core.vb.wake_in_place"))

        engines, kernels = self._engines, self._kernels
        owner = resolve_owner(ENGINE_POINT[0])
        make_engine = vars(owner)[ENGINE_POINT[1]]
        self._saved.append((owner, ENGINE_POINT[1], make_engine))

        @functools.wraps(make_engine)
        def recording_make_engine(*args, **kwargs):
            engine = make_engine(*args, **kwargs)
            engines.append(engine)
            return engine

        setattr(owner, ENGINE_POINT[1], recording_make_engine)

        owner = resolve_owner(KERNEL_POINT[0])
        init = vars(owner)[KERNEL_POINT[1]]
        self._saved.append((owner, KERNEL_POINT[1], init))

        @functools.wraps(init)
        def recording_init(kernel, *args, **kwargs):
            init(kernel, *args, **kwargs)
            kernels.append(kernel)

        setattr(owner, KERNEL_POINT[1], recording_init)

    def restore(self) -> None:
        """Put every original back, in reverse order of patching."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------
    def _get(self, table: list[int], name: str) -> int:
        nid = self._name_ids.get(name)
        return 0 if nid is None else table[nid]

    def layer_metrics(self) -> dict[str, dict]:
        """Per-layer totals: counts, ratios, and self time in host
        seconds."""
        calls, self_s = self.calls, self.self_ns
        g = self._get
        m: dict[str, tuple[float, str]] = {
            "runners.specs": (g(calls, SPEC_SPAN), "count"),
            "runners.spec_s": (g(self.total_ns, SPEC_SPAN) / 1e9, "s"),
            "runners.overhead_s": (g(self_s, SPEC_SPAN) / 1e9, "s"),
            "sim.events": (self.events, "count"),
            "sim.run_s": (g(self.total_ns, SIM_SPAN) / 1e9, "s"),
            "sim.ns_per_event": (
                g(self.total_ns, SIM_SPAN) / self.events
                if self.events else 0.0, "ns"),
            "kernel.dispatch.self_s": (g(self_s, SIM_SPAN) / 1e9, "s"),
            "core.vb.wake_in_place.calls": (
                g(calls, "core.vb.wake_in_place"), "count"),
            "core.vb.in_place_frac": (
                self.in_place_wakes / g(calls, "core.vb.wake_in_place")
                if g(calls, "core.vb.wake_in_place") else 0.0, "ratio"),
            "fastpath.fast_events": (self.fast_events, "count"),
            "fastpath.bailouts": (self.bailouts, "count"),
            "fastpath.fast_frac": (
                self.fast_events / (self.fast_events + self.bailouts)
                if self.fast_events + self.bailouts else 0.0, "ratio"),
            "fastpath.soa.calls": (g(calls, "fastpath.soa"), "count"),
            "fastpath.soa.s": (g(self_s, "fastpath.soa") / 1e9, "s"),
        }
        for name in TIMED_LAYERS:
            m[f"{name}.calls"] = (g(calls, name), "count")
            m[f"{name}.s"] = (g(self_s, name) / 1e9, "s")
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    def dump(self, path: str) -> None:
        """Write the spans as one ``.npz`` file: a column per field plus
        the name and spec tables the integer columns index into."""
        import numpy as np

        np.savez(
            path,
            id=np.frombuffer(self.span_id, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            spec=np.frombuffer(self.span_spec, dtype=np.int32),
            names=np.array(self.names),
            specs=np.array(self.specs),
        )
