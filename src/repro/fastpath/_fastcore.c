/* Accelerated discrete-event engine core (the `fast` backend).
 *
 * Drop-in replacement for repro.sim.engine.Engine with the identical
 * observable contract: same event total order, same clock semantics,
 * same error types and messages, same pending/events_run accounting.
 *
 * Representation: instead of the pure backend's bucketed timer wheel
 * (dict deadline -> FIFO list + heap of deadlines), events live in a
 * single binary heap of (time, seq) entries where `seq` is a global
 * schedule counter.  Because the wheel drains each deadline's bucket in
 * append (== seq) order, the two orders are provably identical: both
 * realize the total order (time, schedule order).  The heap keeps every
 * hot operation in C with no Python object traffic beyond the handle.
 *
 * Cancellation is lazy (a flag on the handle; entries are dropped when
 * they surface) with compaction: when the heap holds more than twice as
 * many entries as live events, cancelled entries are filtered out and
 * the heap is rebuilt -- cancel-heavy workloads cannot pollute the heap
 * the way cancelled-only deadlines pollute the pure wheel.  Rebuilding
 * cannot perturb order: keys (time, seq) are unique, so pop order is
 * independent of the heap's internal layout.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <time.h>

/* Exception classes installed by fastpath.build via _install();
 * fall back to RuntimeError if the module is used standalone. */
static PyObject *g_simulation_error = NULL;
static PyObject *g_soft_timeout_error = NULL;

/* Soft wall-clock deadline mirrored from repro.sim.engine (absolute
 * CLOCK_MONOTONIC seconds; time.monotonic uses the same clock on
 * Linux).  Process-global by design: one spec runs per worker. */
static int g_soft_active = 0;
static double g_soft_deadline = 0.0;

#define SOFT_DEADLINE_MASK 1023  /* poll every 1024 events */

static double
mono_now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

/* ------------------------------------------------------------------ */
/* Types                                                              */
/* ------------------------------------------------------------------ */

typedef struct {
    long long time;
    unsigned long long seq;
    PyObject *handle; /* strong ref to HandleObject */
} heapent;

typedef struct EngineObject {
    PyObject_HEAD
    long long now;
    long long events_run;
    long long live;
    unsigned long long seq;
    heapent *heap;
    Py_ssize_t heap_n;
    Py_ssize_t heap_cap;
    long long next_time; /* cached next-live-event time */
    int has_next_time;
    PyObject *on_event; /* post-event hook or NULL */
} EngineObject;

typedef struct {
    PyObject_HEAD
    EngineObject *engine; /* strong ref while live; NULL once consumed */
    PyObject *fn;         /* strong; cleared on cancel/fire */
    PyObject *args;       /* strong tuple; cleared on cancel/fire */
    long long time;
    char cancelled;
} HandleObject;

static PyTypeObject EngineType;
static PyTypeObject HandleType;

/* ------------------------------------------------------------------ */
/* Heap primitives (min-heap on (time, seq); keys are unique)          */
/* ------------------------------------------------------------------ */

static inline int
ent_lt(const heapent *a, const heapent *b)
{
    return a->time < b->time || (a->time == b->time && a->seq < b->seq);
}

static int
heap_reserve(EngineObject *e, Py_ssize_t need)
{
    Py_ssize_t cap;
    heapent *mem;
    if (need <= e->heap_cap)
        return 0;
    cap = e->heap_cap ? e->heap_cap * 2 : 64;
    while (cap < need)
        cap *= 2;
    mem = PyMem_Realloc(e->heap, (size_t)cap * sizeof(heapent));
    if (mem == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    e->heap = mem;
    e->heap_cap = cap;
    return 0;
}

/* Bubble the entry at `pos` up toward the root. */
static void
heap_siftdown(heapent *h, Py_ssize_t pos)
{
    heapent item = h[pos];
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (ent_lt(&item, &h[parent])) {
            h[pos] = h[parent];
            pos = parent;
        } else {
            break;
        }
    }
    h[pos] = item;
}

/* Push the entry at the root down into place (after a pop-replace). */
static void
heap_siftup(heapent *h, Py_ssize_t n, Py_ssize_t pos)
{
    heapent item = h[pos];
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && ent_lt(&h[child + 1], &h[child]))
            child += 1;
        if (ent_lt(&h[child], &item)) {
            h[pos] = h[child];
            pos = child;
        } else {
            break;
        }
    }
    h[pos] = item;
}

static int
heap_push(EngineObject *e, long long time, unsigned long long seq,
          PyObject *handle)
{
    if (heap_reserve(e, e->heap_n + 1) < 0)
        return -1;
    e->heap[e->heap_n].time = time;
    e->heap[e->heap_n].seq = seq;
    e->heap[e->heap_n].handle = handle;
    heap_siftdown(e->heap, e->heap_n);
    e->heap_n += 1;
    return 0;
}

/* Pop the root.  Caller owns the returned entry's handle reference. */
static heapent
heap_pop(EngineObject *e)
{
    heapent top = e->heap[0];
    e->heap_n -= 1;
    if (e->heap_n > 0) {
        e->heap[0] = e->heap[e->heap_n];
        heap_siftup(e->heap, e->heap_n, 0);
    }
    return top;
}

/* Drop cancelled entries from the heap top; return 1 if a live entry
 * is at the root afterwards, 0 if the heap drained. */
static int
heap_settle(EngineObject *e)
{
    while (e->heap_n > 0) {
        HandleObject *h = (HandleObject *)e->heap[0].handle;
        if (!h->cancelled)
            return 1;
        heapent ent = heap_pop(e);
        Py_DECREF(ent.handle);
    }
    return 0;
}

/* Filter out cancelled entries and re-heapify.  Key uniqueness makes
 * the rebuilt heap pop in exactly the same order as the old one. */
static void
engine_compact(EngineObject *e)
{
    Py_ssize_t i, j = 0;
    for (i = 0; i < e->heap_n; i++) {
        HandleObject *h = (HandleObject *)e->heap[i].handle;
        if (h->cancelled)
            Py_DECREF(e->heap[i].handle);
        else
            e->heap[j++] = e->heap[i];
    }
    e->heap_n = j;
    for (i = j / 2 - 1; i >= 0; i--)
        heap_siftup(e->heap, j, i);
}

/* ------------------------------------------------------------------ */
/* Handle                                                             */
/* ------------------------------------------------------------------ */

static void
handle_do_cancel(HandleObject *self)
{
    EngineObject *e;
    if (self->cancelled)
        return;
    self->cancelled = 1;
    e = self->engine;
    self->engine = NULL;
    if (e != NULL) {
        e->live -= 1;
        if (e->has_next_time && self->time <= e->next_time)
            e->has_next_time = 0;
        /* Heap-pollution guard: rebuild once cancelled entries
         * outnumber live ones (and the heap is big enough to matter). */
        if (e->heap_n > 64 && e->live * 2 < e->heap_n)
            engine_compact(e);
        Py_DECREF((PyObject *)e);
    }
    Py_CLEAR(self->fn);
    Py_CLEAR(self->args);
}

static PyObject *
handle_cancel(HandleObject *self, PyObject *Py_UNUSED(ignored))
{
    handle_do_cancel(self);
    Py_RETURN_NONE;
}

static PyObject *
handle_get_cancelled(HandleObject *self, void *Py_UNUSED(closure))
{
    return PyBool_FromLong(self->cancelled);
}

static PyObject *
handle_get_fn(HandleObject *self, void *Py_UNUSED(closure))
{
    PyObject *fn = self->fn ? self->fn : Py_None;
    Py_INCREF(fn);
    return fn;
}

static PyObject *
handle_get_args(HandleObject *self, void *Py_UNUSED(closure))
{
    if (self->args) {
        Py_INCREF(self->args);
        return self->args;
    }
    return PyTuple_New(0);
}

static int
handle_traverse(HandleObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->engine);
    Py_VISIT(self->fn);
    Py_VISIT(self->args);
    return 0;
}

static int
handle_clear(HandleObject *self)
{
    Py_CLEAR(self->engine);
    Py_CLEAR(self->fn);
    Py_CLEAR(self->args);
    return 0;
}

static void
handle_dealloc(HandleObject *self)
{
    PyObject_GC_UnTrack(self);
    handle_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef handle_methods[] = {
    {"cancel", (PyCFunction)handle_cancel, METH_NOARGS,
     "Prevent the event's callback from running."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef handle_members[] = {
    {"time", T_LONGLONG, offsetof(HandleObject, time), READONLY,
     "Scheduled fire time (ns)."},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef handle_getset[] = {
    {"cancelled", (getter)handle_get_cancelled, NULL,
     "True once cancelled or fired.", NULL},
    {"fn", (getter)handle_get_fn, NULL, NULL, NULL},
    {"args", (getter)handle_get_args, NULL, NULL, NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject HandleType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.fastpath._fastcore.FastEventHandle",
    .tp_basicsize = sizeof(HandleObject),
    .tp_dealloc = (destructor)handle_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Handle to a scheduled event; cancel() prevents its callback.",
    .tp_traverse = (traverseproc)handle_traverse,
    .tp_clear = (inquiry)handle_clear,
    .tp_methods = handle_methods,
    .tp_members = handle_members,
    .tp_getset = handle_getset,
};

/* ------------------------------------------------------------------ */
/* Engine                                                             */
/* ------------------------------------------------------------------ */

static PyObject *
engine_new(PyTypeObject *type, PyObject *Py_UNUSED(a), PyObject *Py_UNUSED(k))
{
    EngineObject *self = (EngineObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->now = 0;
    self->events_run = 0;
    self->live = 0;
    self->seq = 0;
    self->heap = NULL;
    self->heap_n = 0;
    self->heap_cap = 0;
    self->has_next_time = 0;
    self->next_time = 0;
    self->on_event = NULL;
    return (PyObject *)self;
}

static int
engine_traverse(EngineObject *self, visitproc visit, void *arg)
{
    Py_ssize_t i;
    Py_VISIT(self->on_event);
    for (i = 0; i < self->heap_n; i++)
        Py_VISIT(self->heap[i].handle);
    return 0;
}

static int
engine_clear_slots(EngineObject *self)
{
    Py_ssize_t i, n = self->heap_n;
    self->heap_n = 0;
    Py_CLEAR(self->on_event);
    for (i = 0; i < n; i++)
        Py_CLEAR(self->heap[i].handle);
    return 0;
}

static void
engine_dealloc(EngineObject *self)
{
    PyObject_GC_UnTrack(self);
    engine_clear_slots(self);
    PyMem_Free(self->heap);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Shared scheduling core; steals the reference to `call_args`. */
static PyObject *
engine_do_schedule(EngineObject *self, long long time, PyObject *fn,
                   PyObject *call_args)
{
    HandleObject *h;
    if (time < self->now) {
        Py_DECREF(call_args);
        PyErr_Format(g_simulation_error,
                     "cannot schedule event at t=%lld before now=%lld",
                     time, self->now);
        return NULL;
    }
    h = PyObject_GC_New(HandleObject, &HandleType);
    if (h == NULL) {
        Py_DECREF(call_args);
        return NULL;
    }
    Py_INCREF(self);
    h->engine = self;
    Py_INCREF(fn);
    h->fn = fn;
    h->args = call_args; /* stolen */
    h->time = time;
    h->cancelled = 0;
    PyObject_GC_Track((PyObject *)h);
    self->seq += 1;
    Py_INCREF((PyObject *)h);
    if (heap_push(self, time, self->seq, (PyObject *)h) < 0) {
        Py_DECREF((PyObject *)h);
        Py_DECREF((PyObject *)h);
        return NULL;
    }
    self->live += 1;
    if (self->has_next_time && time < self->next_time)
        self->next_time = time;
    return (PyObject *)h;
}

static PyObject *
engine_schedule_at(EngineObject *self, PyObject *args)
{
    Py_ssize_t n = PyTuple_GET_SIZE(args);
    long long time;
    PyObject *rest;
    if (n < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule_at() requires (time, fn, *args)");
        return NULL;
    }
    time = PyLong_AsLongLong(PyTuple_GET_ITEM(args, 0));
    if (time == -1 && PyErr_Occurred())
        return NULL;
    rest = PyTuple_GetSlice(args, 2, n);
    if (rest == NULL)
        return NULL;
    return engine_do_schedule(self, time, PyTuple_GET_ITEM(args, 1), rest);
}

static PyObject *
engine_schedule(EngineObject *self, PyObject *args)
{
    Py_ssize_t n = PyTuple_GET_SIZE(args);
    long long delay;
    PyObject *rest;
    if (n < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule() requires (delay, fn, *args)");
        return NULL;
    }
    delay = PyLong_AsLongLong(PyTuple_GET_ITEM(args, 0));
    if (delay == -1 && PyErr_Occurred())
        return NULL;
    if (delay < 0) {
        PyErr_Format(g_simulation_error, "negative delay %lld", delay);
        return NULL;
    }
    rest = PyTuple_GetSlice(args, 2, n);
    if (rest == NULL)
        return NULL;
    return engine_do_schedule(self, self->now + delay,
                              PyTuple_GET_ITEM(args, 1), rest);
}

static PyObject *
engine_peek_time(EngineObject *self, PyObject *Py_UNUSED(ignored))
{
    if (self->has_next_time)
        return PyLong_FromLongLong(self->next_time);
    if (!heap_settle(self))
        Py_RETURN_NONE;
    self->next_time = self->heap[0].time;
    self->has_next_time = 1;
    return PyLong_FromLongLong(self->next_time);
}

/* Fire one live, already-popped entry.  Returns 0 on success, -1 if the
 * callback (or the on_event hook) raised.  Consumes the entry's handle
 * reference. */
static int
engine_fire(EngineObject *self, heapent ent)
{
    HandleObject *h = (HandleObject *)ent.handle;
    PyObject *fn, *call_args, *result;
    self->has_next_time = 0;
    self->now = ent.time;
    self->events_run += 1;
    self->live -= 1;
    /* Mark consumed before the callback runs: a late cancel() is a
     * no-op and owners can see no cancellation is needed (pure-backend
     * contract). */
    h->cancelled = 1;
    Py_CLEAR(h->engine);
    fn = h->fn;
    call_args = h->args;
    h->fn = NULL;
    h->args = NULL;
    Py_DECREF(ent.handle);
    if (fn == NULL) { /* defensive: should be unreachable for live entries */
        Py_XDECREF(call_args);
        return 0;
    }
    result = PyObject_CallObject(fn, call_args);
    Py_DECREF(fn);
    Py_XDECREF(call_args);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    if (self->on_event != NULL && self->on_event != Py_None) {
        result = PyObject_CallNoArgs(self->on_event);
        if (result == NULL)
            return -1;
        Py_DECREF(result);
    }
    return 0;
}

static PyObject *
engine_step(EngineObject *self, PyObject *Py_UNUSED(ignored))
{
    heapent ent;
    if (!heap_settle(self))
        Py_RETURN_FALSE;
    ent = heap_pop(self);
    if (engine_fire(self, ent) < 0)
        return NULL;
    Py_RETURN_TRUE;
}

static PyObject *
engine_run(EngineObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"until", "max_events", "stop_when", NULL};
    PyObject *until_o = Py_None, *max_o = Py_None, *stop_when = Py_None;
    long long until = 0, max_events = 0, count = 0;
    int has_until, has_max, has_stop;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "|OOO", kwlist,
                                     &until_o, &max_o, &stop_when))
        return NULL;
    has_until = until_o != Py_None;
    if (has_until) {
        until = PyLong_AsLongLong(until_o);
        if (until == -1 && PyErr_Occurred())
            return NULL;
    }
    has_max = max_o != Py_None;
    if (has_max) {
        max_events = PyLong_AsLongLong(max_o);
        if (max_events == -1 && PyErr_Occurred())
            return NULL;
    }
    has_stop = stop_when != Py_None;

    for (;;) {
        heapent ent;
        long long t;
        if (has_stop) {
            PyObject *flag = PyObject_CallNoArgs(stop_when);
            int truthy;
            if (flag == NULL)
                return NULL;
            truthy = PyObject_IsTrue(flag);
            Py_DECREF(flag);
            if (truthy < 0)
                return NULL;
            if (truthy)
                Py_RETURN_NONE;
        }
        if (has_max && count >= max_events) {
            PyErr_Format(g_simulation_error,
                         "exceeded max_events=%lld at t=%lld; "
                         "likely a livelock in the simulated system",
                         max_events, self->now);
            return NULL;
        }
        if ((count & SOFT_DEADLINE_MASK) == 0 && g_soft_active
            && mono_now() > g_soft_deadline) {
            PyErr_Format(g_soft_timeout_error,
                         "soft deadline expired at t=%lld after %lld events",
                         self->now, self->events_run);
            return NULL;
        }
        if (!heap_settle(self)) {
            /* Queue drained: the run still covers [now, until]. */
            if (has_until && until > self->now)
                self->now = until;
            Py_RETURN_NONE;
        }
        t = self->heap[0].time;
        if (has_until && t > until) {
            self->next_time = t;
            self->has_next_time = 1;
            if (until > self->now)
                self->now = until;
            Py_RETURN_NONE;
        }
        ent = heap_pop(self);
        if (engine_fire(self, ent) < 0)
            return NULL;
        count += 1;
    }
}

static PyObject *
engine_recount_live(EngineObject *self, PyObject *Py_UNUSED(ignored))
{
    Py_ssize_t i;
    long long n = 0;
    for (i = 0; i < self->heap_n; i++) {
        HandleObject *h = (HandleObject *)self->heap[i].handle;
        if (!h->cancelled)
            n += 1;
    }
    return PyLong_FromLongLong(n);
}

static PyObject *
engine_queue_len(EngineObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromSsize_t(self->heap_n);
}

static PyObject *
engine_get_pending(EngineObject *self, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(self->live);
}

static PyObject *
engine_get_events_run(EngineObject *self, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(self->events_run);
}

static PyMethodDef engine_methods[] = {
    {"schedule_at", (PyCFunction)engine_schedule_at, METH_VARARGS,
     "schedule_at(time, fn, *args) -> handle"},
    {"schedule", (PyCFunction)engine_schedule, METH_VARARGS,
     "schedule(delay, fn, *args) -> handle"},
    {"peek_time", (PyCFunction)engine_peek_time, METH_NOARGS,
     "Time of the next live event, or None if the queue is empty."},
    {"step", (PyCFunction)engine_step, METH_NOARGS,
     "Run the next live event. Returns False if none remain."},
    {"run", (PyCFunction)engine_run, METH_VARARGS | METH_KEYWORDS,
     "run(until=None, max_events=None, stop_when=None)"},
    {"recount_live", (PyCFunction)engine_recount_live, METH_NOARGS,
     "From-scratch count of not-yet-cancelled queued events."},
    {"queue_len", (PyCFunction)engine_queue_len, METH_NOARGS,
     "Raw heap length including lazily-cancelled entries (introspection)."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef engine_members[] = {
    {"now", T_LONGLONG, offsetof(EngineObject, now), 0,
     "Simulated clock (ns)."},
    {"on_event", T_OBJECT, offsetof(EngineObject, on_event), 0,
     "Post-event hook: called (no args) after each fired event."},
    {"_live", T_LONGLONG, offsetof(EngineObject, live), 0,
     "Live-event counter behind `pending` (tests poke it)."},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef engine_getset[] = {
    {"pending", (getter)engine_get_pending, NULL,
     "Number of not-yet-cancelled events still in the queue (O(1)).", NULL},
    {"events_run", (getter)engine_get_events_run, NULL, NULL, NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject EngineType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.fastpath._fastcore.FastEngine",
    .tp_basicsize = sizeof(EngineObject),
    .tp_dealloc = (destructor)engine_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Event loop owning the simulated clock (accelerated backend).",
    .tp_traverse = (traverseproc)engine_traverse,
    .tp_clear = (inquiry)engine_clear_slots,
    .tp_methods = engine_methods,
    .tp_members = engine_members,
    .tp_getset = engine_getset,
    .tp_new = engine_new,
};

/* ------------------------------------------------------------------ */
/* KernelCycle: C fast path for the kernel's per-event hot cycle      */
/*                                                                    */
/* The simulator's inner loop fires one engine event per scheduling   */
/* milestone and walks sync-accounting -> action completion ->        */
/* generator resume -> dispatch, all over plain Python objects.  This */
/* object replays that exact control flow in C, and with it the futex */
/* chain that virtual blocking exists to shorten: a blocking action   */
/* completes -> park -> reschedule (or all-blocked poll) -> wake      */
/* completion -> enqueue -> wakeup preemption -> dispatch -> continue. */
/* Each C function names the Kernel method it mirrors.  It calls the  */
/* kernel's own Python methods for what stays rare: tracing on, a     */
/* non-CFS policy, offline CPUs, newly-idle pulls, spin rechecks,     */
/* task exit and SleepNs/Yield-subclass completions.  Behavior is     */
/* defined by kernel.py and this is purely an execution detail.  Task */
/* state lives in the instance dict exactly as Python left it;        */
/* CpuState/runqueue slots are read through their member-descriptor   */
/* offsets.                                                           */
/* ------------------------------------------------------------------ */

/* Interned attribute names (shared across all cycles). */
#define CYCLE_STRINGS(X) \
    X(state) X(mode) X(state_since) X(vruntime) X(weight) X(action) X(rq_key) \
    X(action_remaining) X(pending_result) X(wake_completed) \
    X(block_kind) X(stats) X(program) X(thread_state) \
    X(pending_penalty_ns) X(cpu) X(last_cpu) X(on_cpu_since) \
    X(woken_at) X(skip_flag) X(name) X(exit_error) \
    X(cpu_ns) X(spin_ns) X(wait_ns) X(sleep_ns) X(nr_switches) \
    X(nr_voluntary) X(nr_involuntary) X(nr_slice_expiries) \
    X(wakeup_latency_ns) \
    X(trace) X(enabled) X(record) X(psi_waiting) X(psi_running) \
    X(negative_latency_samples) \
    X(ns) X(cancelled) X(cancel) \
    X(context_switch_ns) X(sched_latency_ns) X(min_granularity_ns) \
    X(regular_slice_ns) X(wake_pending) X(saved_vruntime) X(vb_cpu) \
    X(pinned_cpu) X(sync_wake) X(profile) X(migration_weight) \
    X(nr_wakeups) X(nr_migrations_in_node) X(nr_migrations_cross_node) \
    X(migrations_in_node) X(migrations_cross_node) X(wake_migrations) \
    X(mode_since) X(random) X(same_node) X(dequeue) \
    X(immediate_schedule) X(all_blocked_poll_ns) X(all_blocked_polls) \
    X(wake_affinity_bias) X(migration_cost_in_node_ns) \
    X(migration_cost_cross_node_ns) X(rq_depth_integral_ns)

#define CYCLE_USTRINGS(X) \
    X(schedstats, "_schedstats") X(psi_pending, "_psi_pending") \
    X(smt_factor, "_smt_factor") X(h_wakeup, "_h_wakeup") \
    X(m_cpu_event, "_cpu_event") X(m_complete_action, "_complete_action") \
    X(m_continue, "_continue") X(m_schedule, "_schedule") \
    X(m_exit_task, "_exit_task") \
    X(m_start_action_generic, "_start_action_generic") \
    X(m_psi_update, "_psi_update") \
    X(m_finish_wake_vb, "_finish_wake_vb") \
    X(m_finish_wake_vb_placed, "_finish_wake_vb_placed") \
    X(m_finish_wake_vanilla, "_finish_wake_vanilla") \
    X(rqd_at, "_rqd_at") X(rqd_total, "_rqd_total") \
    X(h_block, "_h_block") X(online_list, "_online") \
    X(rng_sched, "_rng_sched") X(sleeper_credit, "_sleeper_credit_ns") \
    X(wakeup_gran, "_wakeup_gran_ns")

#define DECL_STR(n) static PyObject *s_##n = NULL;
#define DECL_USTR(n, lit) static PyObject *s_##n = NULL;
CYCLE_STRINGS(DECL_STR)
CYCLE_USTRINGS(DECL_USTR)
#undef DECL_STR
#undef DECL_USTR

static PyObject *g_float_one = NULL;

static int
cycle_init_strings(void)
{
#define INIT_STR(n) \
    if (s_##n == NULL && (s_##n = PyUnicode_InternFromString(#n)) == NULL) \
        return -1;
#define INIT_USTR(n, lit) \
    if (s_##n == NULL && (s_##n = PyUnicode_InternFromString(lit)) == NULL) \
        return -1;
    CYCLE_STRINGS(INIT_STR)
    CYCLE_USTRINGS(INIT_USTR)
#undef INIT_STR
#undef INIT_USTR
    if (g_float_one == NULL && (g_float_one = PyFloat_FromDouble(1.0)) == NULL)
        return -1;
    return 0;
}

/* Why an event went back to Python, in counters()["bailouts_by"]. */
enum {
    BAIL_TRACE,             /* tracing on: the Python path emits records */
    BAIL_POLICY,            /* non-CFS policy: only CFS hooks replay here */
    BAIL_SCHEDULE_OFFLINE,  /* _schedule on an offline CPU */
    BAIL_SCHEDULE_IDLE_PULL, /* _schedule on an empty queue (_idle_pull) */
    BAIL_CONTINUE_SPIN,     /* _continue on a spinning task (recheck) */
    BAIL_EXIT,              /* the program returned or raised */
    BAIL_COMPLETE_SLEEP,    /* SleepNs completion (timer-wake park) */
    BAIL_COMPLETE_SUBCLASS, /* completion of a Yield/SleepNs subclass */
    BAIL_N
};

static const char *const bail_names[BAIL_N] = {
    "trace", "policy", "schedule-offline", "schedule-idle-pull",
    "continue-spin", "exit", "complete-sleep", "complete-subclass",
};

typedef struct {
    PyObject_HEAD
    PyObject *kernel;          /* strong; the Kernel facade */
    EngineObject *engine;      /* strong; type-checked FastEngine */
    PyObject *cpus;            /* strong; kernel.cpus list */
    PyObject *sched;           /* strong; config.scheduler */
    PyObject *vbc;             /* strong; config.vb */
    PyObject *policy;          /* strong; kernel.policy (CfsPolicy) */
    PyObject *topology;        /* strong; kernel.topology */
    PyObject *vb_policy;       /* strong; kernel.vb_policy */
    /* Singletons handed over by kernel.py (enum members, classes). */
    PyObject *st_running, *st_runnable, *st_sleeping, *st_vblocked;
    PyObject *mode_compute, *mode_spin;
    PyObject *cls_compute, *cls_yield, *cls_sleep;
    PyObject *plain_complete;  /* frozenset of action classes */
    PyObject *action_dispatch; /* dict class -> unbound handler */
    PyObject *program_error;   /* exception class */
    PyObject *self_cb;         /* bound cpu_event, stored in handles */
    /* CpuState slot offsets (member descriptors). */
    Py_ssize_t o_id, o_rq, o_sib, o_gen, o_event, o_run_started,
        o_run_factor, o_slice_end, o_busy_ns, o_sched_ns, o_stall_ns,
        o_last_task, o_online, o_nr_switches, o_poll_idle_since, o_poll_ns;
    /* CfsRunqueue slot offsets.  The C runqueue ops mutate the same
     * heap list and counters the Python methods use, so both sides
     * interleave freely. */
    Py_ssize_t o_rq_curr, o_rq_heap, o_rq_nstale, o_rq_seq, o_rq_nqueued,
        o_rq_nblocked, o_rq_nenq, o_rq_minvr;
    long long vb_sentinel;
    long long compact_min;     /* CfsRunqueue._COMPACT_MIN */
    /* Each engine event the cycle owns (per-CPU events and the three
     * wake completions) counts once: fast, or bailed under the first
     * reason it handed work back to Python for. */
    long long fast_events;
    long long bailouts;
    long long bailouts_by[BAIL_N];
    int event_bail;            /* current event's first reason, or -1 */
    int policy_is_cfs;         /* 0: non-CFS policy, bail every event */
} CycleObject;

static PyTypeObject CycleType;

#define SLOTREF(o, off) (*(PyObject **)((char *)(o) + (off)))

/* Borrowed slot read; slots touched here are always initialized. */
static inline PyObject *
slot_get(PyObject *o, Py_ssize_t off)
{
    return SLOTREF(o, off);
}

static void
slot_set(PyObject *o, Py_ssize_t off, PyObject *v)
{
    PyObject *old = SLOTREF(o, off);
    Py_INCREF(v);
    SLOTREF(o, off) = v;
    Py_XDECREF(old);
}

static int
slot_ll(PyObject *o, Py_ssize_t off, long long *out)
{
    PyObject *v = SLOTREF(o, off);
    long long x;
    if (v == NULL) {
        PyErr_SetString(PyExc_AttributeError, "uninitialized slot");
        return -1;
    }
    x = PyLong_AsLongLong(v);
    if (x == -1 && PyErr_Occurred())
        return -1;
    *out = x;
    return 0;
}

static int
slot_set_ll(PyObject *o, Py_ssize_t off, long long v)
{
    PyObject *n = PyLong_FromLongLong(v);
    PyObject *old;
    if (n == NULL)
        return -1;
    old = SLOTREF(o, off);
    SLOTREF(o, off) = n;
    Py_XDECREF(old);
    return 0;
}

/* Borrowed instance dict, materializing a 3.11+ managed dict if needed. */
static PyObject *
inst_dict(PyObject *o)
{
    PyObject **dp = _PyObject_GetDictPtr(o);
    PyObject *d;
    if (dp == NULL) {
        PyErr_Format(PyExc_TypeError, "%s has no instance dict",
                     Py_TYPE(o)->tp_name);
        return NULL;
    }
    if (*dp != NULL)
        return *dp;
    d = PyObject_GenericGetDict(o, NULL);
    if (d == NULL)
        return NULL;
    Py_DECREF(d); /* the object keeps the materialized dict alive */
    return *dp;
}

/* Borrowed dict read that raises AttributeError when the key is gone
 * (matches what the Python attribute access would do). */
static PyObject *
dgetc(PyObject *d, PyObject *key)
{
    PyObject *v = PyDict_GetItemWithError(d, key);
    if (v == NULL && !PyErr_Occurred())
        PyErr_SetObject(PyExc_AttributeError, key);
    return v;
}

static int
dget_ll(PyObject *d, PyObject *key, long long *out)
{
    PyObject *v = dgetc(d, key);
    long long x;
    if (v == NULL)
        return -1;
    x = PyLong_AsLongLong(v);
    if (x == -1 && PyErr_Occurred())
        return -1;
    *out = x;
    return 0;
}

static int
dset_ll(PyObject *d, PyObject *key, long long v)
{
    PyObject *n = PyLong_FromLongLong(v);
    int r;
    if (n == NULL)
        return -1;
    r = PyDict_SetItem(d, key, n);
    Py_DECREF(n);
    return r;
}

static int
dadd_ll(PyObject *d, PyObject *key, long long delta)
{
    long long x;
    if (dget_ll(d, key, &x) < 0)
        return -1;
    return dset_ll(d, key, x + delta);
}

/* Plain-attribute read, instance dict first (these objects keep their
 * hot attributes as ordinary instance attrs; the GetAttr fallback keeps
 * exotic layouts correct). */
static PyObject *
oget(PyObject *o, PyObject *name) /* new ref */
{
    PyObject **dp = _PyObject_GetDictPtr(o);
    if (dp != NULL && *dp != NULL) {
        PyObject *v = PyDict_GetItemWithError(*dp, name);
        if (v != NULL)
            return Py_NewRef(v);
        if (PyErr_Occurred())
            return NULL;
    }
    return PyObject_GetAttr(o, name);
}

static int
attr_ll(PyObject *o, PyObject *name, long long *out)
{
    PyObject *v = oget(o, name);
    long long x;
    if (v == NULL)
        return -1;
    x = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (x == -1 && PyErr_Occurred())
        return -1;
    *out = x;
    return 0;
}

/* <obj>.<name> truthiness with dict-first lookup: -1 error, else 0/1. */
static int
aflag(PyObject *o, PyObject *name)
{
    PyObject *v = oget(o, name);
    int r;
    if (v == NULL)
        return -1;
    r = PyObject_IsTrue(v);
    Py_DECREF(v);
    return r;
}

/* kernel.<flag> truthiness: -1 error, else 0/1. */
static int
kflag(CycleObject *c, PyObject *name)
{
    return aflag(c->kernel, name);
}

/* Bail out: run kernel.<name>(...) and swallow the (None) result.  The
 * current event is charged to `reason` unless it already bailed. */
static int
bail_call(CycleObject *c, int reason, PyObject *name, PyObject *a1,
          PyObject *a2)
{
    PyObject *m = PyObject_GetAttr(c->kernel, name);
    PyObject *r;
    if (m == NULL)
        return -1;
    if (c->event_bail < 0)
        c->event_bail = reason;
    if (a2 != NULL)
        r = PyObject_CallFunctionObjArgs(m, a1, a2, NULL);
    else
        r = PyObject_CallOneArg(m, a1);
    Py_DECREF(m);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Open one cycle-owned event; returns the enclosing event's state. */
static int
cycle_event_begin(CycleObject *c)
{
    int saved = c->event_bail;
    c->event_bail = -1;
    return saved;
}

/* Count the event opened by cycle_event_begin exactly once. */
static void
cycle_event_end(CycleObject *c, int saved)
{
    if (c->event_bail < 0) {
        c->fast_events += 1;
    } else {
        c->bailouts += 1;
        c->bailouts_by[c->event_bail] += 1;
    }
    c->event_bail = saved;
}

/* The entry gate of every cycle-owned event: a non-CFS policy or
 * tracing on hands the whole event to the Python method `name`, which
 * emits the trace records and calls the policy hooks this cycle skips.
 * Returns 1 if it did, 0 to go on in C, -1 on error. */
static int
cycle_gate(CycleObject *c, PyObject *name, PyObject *a1, PyObject *a2)
{
    PyObject *trace;
    int tr;
    if (!c->policy_is_cfs)
        return bail_call(c, BAIL_POLICY, name, a1, a2) < 0 ? -1 : 1;
    trace = oget(c->kernel, s_trace);
    if (trace == NULL)
        return -1;
    tr = aflag(trace, s_enabled);
    Py_DECREF(trace);
    if (tr < 0)
        return -1;
    if (tr)
        return bail_call(c, BAIL_TRACE, name, a1, a2) < 0 ? -1 : 1;
    return 0;
}

/* task.account_state(now), in C (exact mirror of task.py). */
static int
account_state_c(CycleObject *c, PyObject *td, long long now)
{
    long long since, elapsed;
    PyObject *state;
    if (dget_ll(td, s_state_since, &since) < 0)
        return -1;
    elapsed = now - since;
    if (elapsed <= 0)
        return dset_ll(td, s_state_since, now);
    state = dgetc(td, s_state);
    if (state == NULL)
        return -1;
    if (state == c->st_running) {
        PyObject *mode = dgetc(td, s_mode);
        PyObject *stats, *sd;
        if (mode == NULL)
            return -1;
        stats = dgetc(td, s_stats);
        if (stats == NULL || (sd = inst_dict(stats)) == NULL)
            return -1;
        if (dadd_ll(sd, mode == c->mode_compute ? s_cpu_ns : s_spin_ns,
                    elapsed) < 0)
            return -1;
    } else if (state == c->st_runnable) {
        PyObject *stats = dgetc(td, s_stats), *sd;
        if (stats == NULL || (sd = inst_dict(stats)) == NULL)
            return -1;
        if (dadd_ll(sd, s_wait_ns, elapsed) < 0)
            return -1;
    } else if (state == c->st_sleeping || state == c->st_vblocked) {
        PyObject *stats = dgetc(td, s_stats), *sd;
        if (stats == NULL || (sd = inst_dict(stats)) == NULL)
            return -1;
        if (dadd_ll(sd, s_sleep_ns, elapsed) < 0)
            return -1;
    }
    return dset_ll(td, s_state_since, now);
}

static int cycle_continue(CycleObject *c, PyObject *cpu);
static int cycle_schedule(CycleObject *c, PyObject *cpu);

/* ------------------------------------------------------------------ */
/* Runqueue ops: CfsRunqueue's five hot methods in C.                 */
/*                                                                    */
/* These operate on the queue's own Python structures — the `_heap`   */
/* list of (k0, seq, key, task) tuples, the `nr_queued` and other     */
/* counter slots, the task's `rq_key` tombstone marker — so the       */
/* Python methods (dequeue, requeue, compaction, iteration)           */
/* interleave with them freely.  `seq` is unique, so comparing        */
/* (k0, seq) as C ints reproduces the tuple order exactly and pop     */
/* order is total.                                                    */
/* ------------------------------------------------------------------ */

static inline int
ent_k(PyObject *e, long long *k0, long long *seq)
{
    long long a = PyLong_AsLongLong(PyTuple_GET_ITEM(e, 0));
    long long b;
    if (a == -1 && PyErr_Occurred())
        return -1;
    b = PyLong_AsLongLong(PyTuple_GET_ITEM(e, 1));
    if (b == -1 && PyErr_Occurred())
        return -1;
    *k0 = a;
    *seq = b;
    return 0;
}

static int
rqheap_push(PyObject *heap, PyObject *entry) /* borrows entry */
{
    Py_ssize_t pos;
    long long ek0, eseq;
    if (ent_k(entry, &ek0, &eseq) < 0)
        return -1;
    if (PyList_Append(heap, entry) < 0)
        return -1;
    pos = PyList_GET_SIZE(heap) - 1;
    while (pos > 0) {
        Py_ssize_t pp = (pos - 1) >> 1;
        PyObject *par = PyList_GET_ITEM(heap, pp);
        long long pk0, pseq;
        if (ent_k(par, &pk0, &pseq) < 0)
            return -1;
        if (!(ek0 < pk0 || (ek0 == pk0 && eseq < pseq)))
            break;
        Py_INCREF(par);
        PyList_SetItem(heap, pos, par); /* drops the ref previously there */
        pos = pp;
    }
    Py_INCREF(entry);
    PyList_SetItem(heap, pos, entry);
    return 0;
}

/* Pop the root; heap must be non-empty.  Returns a new reference. */
static PyObject *
rqheap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *min = PyList_GET_ITEM(heap, 0);
    PyObject *last = PyList_GET_ITEM(heap, n - 1);
    long long lk0, lseq;
    Py_ssize_t pos;
    Py_INCREF(min);
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(min);
        Py_DECREF(last);
        return NULL;
    }
    n -= 1;
    if (n == 0) { /* `last` was the root itself */
        Py_DECREF(last);
        return min;
    }
    if (ent_k(last, &lk0, &lseq) < 0) {
        Py_DECREF(min);
        Py_DECREF(last);
        return NULL;
    }
    pos = 0; /* sink `last` from the root */
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        PyObject *ch;
        long long ck0, cseq;
        if (child >= n)
            break;
        ch = PyList_GET_ITEM(heap, child);
        if (ent_k(ch, &ck0, &cseq) < 0)
            goto err;
        if (child + 1 < n) {
            PyObject *ch2 = PyList_GET_ITEM(heap, child + 1);
            long long c2k0, c2seq;
            if (ent_k(ch2, &c2k0, &c2seq) < 0)
                goto err;
            if (c2k0 < ck0 || (c2k0 == ck0 && c2seq < cseq)) {
                child += 1;
                ch = ch2;
                ck0 = c2k0;
                cseq = c2seq;
            }
        }
        if (!(ck0 < lk0 || (ck0 == lk0 && cseq < lseq)))
            break;
        Py_INCREF(ch);
        PyList_SetItem(heap, pos, ch);
        pos = child;
    }
    Py_INCREF(last);
    PyList_SetItem(heap, pos, last);
    Py_DECREF(last);
    return min;
err:
    Py_INCREF(last); /* restore some valid object at pos */
    PyList_SetItem(heap, pos, last);
    Py_DECREF(last);
    Py_DECREF(min);
    return NULL;
}

/* CfsRunqueue._settle: pop stale entries off the root.  Returns
 * 1 if a live entry remains, 0 if the heap drained, -1 on error. */
static int
rq_settle(CycleObject *c, PyObject *rq)
{
    PyObject *heap = slot_get(rq, c->o_rq_heap);
    for (;;) {
        PyObject *e, *key, *task, *td, *rk, *dead;
        long long stale;
        if (PyList_GET_SIZE(heap) == 0)
            return 0;
        e = PyList_GET_ITEM(heap, 0);
        key = PyTuple_GET_ITEM(e, 2);
        task = PyTuple_GET_ITEM(e, 3);
        if ((td = inst_dict(task)) == NULL)
            return -1;
        rk = dgetc(td, s_rq_key);
        if (rk == NULL)
            return -1;
        if (rk == key)
            return 1;
        dead = rqheap_pop(heap);
        if (dead == NULL)
            return -1;
        Py_DECREF(dead);
        if (slot_ll(rq, c->o_rq_nstale, &stale) < 0 ||
            slot_set_ll(rq, c->o_rq_nstale, stale - 1) < 0)
            return -1;
    }
}

/* CfsRunqueue.peek_next: borrowed task or Py_None; NULL on error. */
static PyObject *
rq_peek_next_c(CycleObject *c, PyObject *rq)
{
    int live = rq_settle(c, rq);
    if (live < 0)
        return NULL;
    if (!live)
        return Py_None;
    return PyTuple_GET_ITEM(
        PyList_GET_ITEM(slot_get(rq, c->o_rq_heap), 0), 3);
}

/* CfsRunqueue.pick_next: new ref to task or Py_None; NULL on error. */
static PyObject *
rq_pick_next_c(CycleObject *c, PyObject *rq)
{
    int live = rq_settle(c, rq);
    PyObject *entry, *task, *td;
    long long k0, seq, size;
    if (live < 0)
        return NULL;
    if (!live)
        return Py_NewRef(Py_None);
    entry = rqheap_pop(slot_get(rq, c->o_rq_heap));
    if (entry == NULL)
        return NULL;
    if (ent_k(entry, &k0, &seq) < 0)
        goto err;
    if (k0 >= c->vb_sentinel) {
        long long nb;
        if (slot_ll(rq, c->o_rq_nblocked, &nb) < 0 ||
            slot_set_ll(rq, c->o_rq_nblocked, nb - 1) < 0)
            goto err;
    }
    task = PyTuple_GET_ITEM(entry, 3);
    if ((td = inst_dict(task)) == NULL)
        goto err;
    if (PyDict_SetItem(td, s_rq_key, Py_None) < 0)
        goto err;
    if (slot_ll(rq, c->o_rq_nqueued, &size) < 0 ||
        slot_set_ll(rq, c->o_rq_nqueued, size - 1) < 0)
        goto err;
    Py_INCREF(task);
    Py_DECREF(entry);
    return task;
err:
    Py_DECREF(entry);
    return NULL;
}

/* CfsRunqueue.enqueue. */
static int
rq_enqueue_c(CycleObject *c, PyObject *rq, PyObject *task)
{
    PyObject *td, *rk, *k0o, *seqo, *key, *entry;
    long long seq, ts, k0, nb, nenq, size;
    if ((td = inst_dict(task)) == NULL)
        return -1;
    rk = dgetc(td, s_rq_key);
    if (rk == NULL)
        return -1;
    if (rk != Py_None) { /* mirrors `assert task.rq_key is None` */
        PyErr_SetString(PyExc_AssertionError, "task already queued");
        return -1;
    }
    if (slot_ll(rq, c->o_rq_seq, &seq) < 0)
        return -1;
    seq += 1;
    if (slot_set_ll(rq, c->o_rq_seq, seq) < 0)
        return -1;
    if (dget_ll(td, s_thread_state, &ts) < 0)
        return -1;
    if (ts) {
        k0 = c->vb_sentinel + seq;
    } else if (dget_ll(td, s_vruntime, &k0) < 0) {
        return -1;
    }
    k0o = PyLong_FromLongLong(k0);
    seqo = PyLong_FromLongLong(seq);
    if (k0o == NULL || seqo == NULL) {
        Py_XDECREF(k0o);
        Py_XDECREF(seqo);
        return -1;
    }
    key = PyTuple_Pack(2, k0o, seqo);
    entry = key ? PyTuple_Pack(4, k0o, seqo, key, task) : NULL;
    Py_DECREF(k0o);
    Py_DECREF(seqo);
    if (entry == NULL) {
        Py_XDECREF(key);
        return -1;
    }
    if (rqheap_push(slot_get(rq, c->o_rq_heap), entry) < 0) {
        Py_DECREF(key);
        Py_DECREF(entry);
        return -1;
    }
    Py_DECREF(entry);
    if (PyDict_SetItem(td, s_rq_key, key) < 0) {
        Py_DECREF(key);
        return -1;
    }
    Py_DECREF(key);
    if (k0 >= c->vb_sentinel) {
        if (slot_ll(rq, c->o_rq_nblocked, &nb) < 0 ||
            slot_set_ll(rq, c->o_rq_nblocked, nb + 1) < 0)
            return -1;
    }
    if (slot_ll(rq, c->o_rq_nenq, &nenq) < 0 ||
        slot_set_ll(rq, c->o_rq_nenq, nenq + 1) < 0)
        return -1;
    if (slot_ll(rq, c->o_rq_nqueued, &size) < 0 ||
        slot_set_ll(rq, c->o_rq_nqueued, size + 1) < 0)
        return -1;
    return 0;
}

/* CfsRunqueue.nr_schedulable. */
static int
rq_nr_schedulable_c(CycleObject *c, PyObject *rq, long long *out)
{
    PyObject *curr;
    long long size, nb, n;
    if (slot_ll(rq, c->o_rq_nqueued, &size) < 0 ||
        slot_ll(rq, c->o_rq_nblocked, &nb) < 0)
        return -1;
    n = size - nb;
    curr = slot_get(rq, c->o_rq_curr);
    if (curr != NULL && curr != Py_None) {
        PyObject *td = inst_dict(curr);
        long long ts;
        if (td == NULL || dget_ll(td, s_thread_state, &ts) < 0)
            return -1;
        if (ts == 0)
            n += 1;
    }
    *out = n;
    return 0;
}

/* CfsRunqueue.update_min_vruntime. */
static int
rq_update_min_vruntime_c(CycleObject *c, PyObject *rq)
{
    PyObject *curr = slot_get(rq, c->o_rq_curr);
    long long vr = 0, minvr;
    int have_vr = 0, live;
    if (curr != NULL && curr != Py_None) {
        PyObject *td = inst_dict(curr);
        long long ts;
        if (td == NULL || dget_ll(td, s_thread_state, &ts) < 0)
            return -1;
        if (ts == 0) {
            if (dget_ll(td, s_vruntime, &vr) < 0)
                return -1;
            have_vr = 1;
        }
    }
    live = rq_settle(c, rq);
    if (live < 0)
        return -1;
    if (live) {
        PyObject *e = PyList_GET_ITEM(slot_get(rq, c->o_rq_heap), 0);
        long long k0 = PyLong_AsLongLong(PyTuple_GET_ITEM(e, 0));
        if (k0 == -1 && PyErr_Occurred())
            return -1;
        if (k0 < c->vb_sentinel && (!have_vr || k0 < vr)) {
            vr = k0;
            have_vr = 1;
        }
    }
    if (!have_vr)
        return 0;
    if (slot_ll(rq, c->o_rq_minvr, &minvr) < 0)
        return -1;
    if (vr > minvr)
        return slot_set_ll(rq, c->o_rq_minvr, vr);
    return 0;
}

/* CfsRunqueue.dequeue.  A dequeue that would trigger compaction runs
 * the Python method instead, so the rebuild has one implementation. */
static int
rq_dequeue_c(CycleObject *c, PyObject *rq, PyObject *task)
{
    PyObject *td, *key, *r;
    long long k0, size, stale, nb;
    if ((td = inst_dict(task)) == NULL)
        return -1;
    key = dgetc(td, s_rq_key);
    if (key == NULL)
        return -1;
    if (key == Py_None) { /* mirrors `assert key is not None` */
        PyErr_SetString(PyExc_AssertionError, "task not queued");
        return -1;
    }
    if (slot_ll(rq, c->o_rq_nqueued, &size) < 0 ||
        slot_ll(rq, c->o_rq_nstale, &stale) < 0)
        return -1;
    if (!PyTuple_Check(key) || PyTuple_GET_SIZE(key) < 1 ||
        (stale + 1 > c->compact_min && stale + 1 > size - 1)) {
        r = PyObject_CallMethodOneArg(rq, s_dequeue, task);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        return 0;
    }
    k0 = PyLong_AsLongLong(PyTuple_GET_ITEM(key, 0));
    if (k0 == -1 && PyErr_Occurred())
        return -1;
    /* The heap entry keeps `key` alive past this tombstoning store. */
    if (PyDict_SetItem(td, s_rq_key, Py_None) < 0)
        return -1;
    if (k0 >= c->vb_sentinel) {
        if (slot_ll(rq, c->o_rq_nblocked, &nb) < 0 ||
            slot_set_ll(rq, c->o_rq_nblocked, nb - 1) < 0)
            return -1;
    }
    if (slot_set_ll(rq, c->o_rq_nqueued, size - 1) < 0 ||
        slot_set_ll(rq, c->o_rq_nstale, stale + 1) < 0)
        return -1;
    return 0;
}

/* Kernel._put_prev_runnable in C. */
static int
cycle_put_prev(CycleObject *c, PyObject *cpu)
{
    PyObject *rq = slot_get(cpu, c->o_rq);
    PyObject *task = slot_get(rq, c->o_rq_curr);
    PyObject *td;
    long long now = c->engine->now;
    int ss;
    if (task == NULL || task == Py_None) {
        PyErr_SetString(PyExc_AssertionError, "no current task");
        return -1;
    }
    Py_INCREF(task);
    if ((td = inst_dict(task)) == NULL)
        goto fail;
    if (account_state_c(c, td, now) < 0)
        goto fail;
    if (PyDict_SetItem(td, s_state, c->st_runnable) < 0)
        goto fail;
    ss = kflag(c, s_schedstats);
    if (ss < 0)
        goto fail;
    if (ss) {
        PyObject *kd = inst_dict(c->kernel);
        if (kd == NULL || PyDict_SetItem(kd, s_psi_pending, Py_True) < 0)
            goto fail;
    }
    slot_set(rq, c->o_rq_curr, Py_None);
    slot_set(cpu, c->o_last_task, task);
    if (rq_enqueue_c(c, rq, task) < 0 ||
        rq_update_min_vruntime_c(c, rq) < 0)
        goto fail;
    Py_DECREF(task);
    return 0;
fail:
    Py_DECREF(task);
    return -1;
}

/* kernel._psi_update(now). */
static int
psi_update_call(CycleObject *c, long long now)
{
    PyObject *nowo = PyLong_FromLongLong(now), *r;
    if (nowo == NULL)
        return -1;
    r = PyObject_CallMethodOneArg(c->kernel, s_m_psi_update, nowo);
    Py_DECREF(nowo);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Kernel._psi_transition in C: _psi_update runs only on a predicate
 * flip. */
static int
cycle_psi_transition(CycleObject *c, long long now, long long d_wait,
                     long long d_run)
{
    PyObject *kd = inst_dict(c->kernel);
    long long w, r, nw, nr;
    if (kd == NULL || dget_ll(kd, s_psi_waiting, &w) < 0 ||
        dget_ll(kd, s_psi_running, &r) < 0)
        return -1;
    nw = w + d_wait;
    nr = r + d_run;
    if (((nw > 0) != (w > 0) || (nr == 0) != (r == 0)) &&
        psi_update_call(c, now) < 0)
        return -1;
    if (dset_ll(kd, s_psi_waiting, nw) < 0 ||
        dset_ll(kd, s_psi_running, nr) < 0)
        return -1;
    return 0;
}

/* Kernel._psi_flush in C. */
static int
cycle_psi_flush(CycleObject *c, long long now)
{
    PyObject *kd = inst_dict(c->kernel);
    int pending;
    if (kd == NULL)
        return -1;
    pending = aflag(c->kernel, s_psi_pending);
    if (pending <= 0)
        return pending;
    if (PyDict_SetItem(kd, s_psi_pending, Py_False) < 0)
        return -1;
    return cycle_psi_transition(c, now, 1, -1);
}

/* Kernel._depth_delta in C.  The integral stays far inside 64 bits
 * (600 s of simulated time at 1000 queued tasks is 6e14); past them this
 * raises rather than wrap. */
static int
cycle_depth_delta(CycleObject *c, long long now, long long delta)
{
    PyObject *kd = inst_dict(c->kernel);
    long long at, total, integral, prod, sum, dt;
    if (kd == NULL || dget_ll(kd, s_rqd_at, &at) < 0 ||
        dget_ll(kd, s_rqd_total, &total) < 0)
        return -1;
    dt = now - at;
    if (dt) {
        if (dget_ll(kd, s_rq_depth_integral_ns, &integral) < 0)
            return -1;
        if (__builtin_mul_overflow(dt, total, &prod) ||
            __builtin_add_overflow(integral, prod, &sum)) {
            PyErr_SetString(PyExc_OverflowError,
                            "runqueue-depth integral exceeds 64 bits");
            return -1;
        }
        if (dset_ll(kd, s_rq_depth_integral_ns, sum) < 0 ||
            dset_ll(kd, s_rqd_at, now) < 0)
            return -1;
    }
    return dset_ll(kd, s_rqd_total, total + delta);
}

/* handle.cancel(); with `if_live`, only when not handle.cancelled (as
 * Kernel._continue's inline cancel reads it). */
static int
event_cancel(PyObject *ev, int if_live)
{
    PyObject *r;
    if (Py_TYPE(ev) == &HandleType) { /* idempotent */
        handle_do_cancel((HandleObject *)ev);
        return 0;
    }
    if (if_live) { /* foreign handle class: go through its Python API */
        PyObject *cd = PyObject_GetAttr(ev, s_cancelled);
        int dead;
        if (cd == NULL)
            return -1;
        dead = PyObject_IsTrue(cd);
        Py_DECREF(cd);
        if (dead != 0)
            return dead < 0 ? -1 : 0;
    }
    r = PyObject_CallMethodNoArgs(ev, s_cancel);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Kernel._cancel_cpu_event in C. */
static int
cycle_cancel_cpu_event(CycleObject *c, PyObject *cpu)
{
    PyObject *ev;
    long long gen;
    int r;
    if (slot_ll(cpu, c->o_gen, &gen) < 0 ||
        slot_set_ll(cpu, c->o_gen, gen + 1) < 0)
        return -1;
    ev = slot_get(cpu, c->o_event);
    if (ev == NULL || ev == Py_None)
        return 0;
    Py_INCREF(ev);
    r = event_cancel(ev, 0);
    Py_DECREF(ev);
    if (r < 0)
        return -1;
    slot_set(cpu, c->o_event, Py_None);
    return 0;
}

/* Kernel._sync_current in C; `td` is the current task's dict. */
static int
cycle_sync_current(CycleObject *c, PyObject *cpu, PyObject *td)
{
    long long now = c->engine->now;
    long long start, elapsed, busy, weight;
    PyObject *ro;
    if (slot_ll(cpu, c->o_run_started, &start) < 0)
        return -1;
    if (now <= start)
        return 0;
    elapsed = now - start;
    if (slot_ll(cpu, c->o_busy_ns, &busy) < 0 ||
        slot_set_ll(cpu, c->o_busy_ns, busy + elapsed) < 0)
        return -1;
    if (dget_ll(td, s_weight, &weight) < 0)
        return -1;
    if (dadd_ll(td, s_vruntime,
                weight == 1024 ? elapsed : elapsed * 1024 / weight) < 0)
        return -1;
    ro = dgetc(td, s_action_remaining);
    if (ro == NULL)
        return -1;
    if (ro != Py_None) {
        long long rem = PyLong_AsLongLong(ro);
        double rf;
        if (rem == -1 && PyErr_Occurred())
            return -1;
        rf = PyFloat_AsDouble(slot_get(cpu, c->o_run_factor));
        if (rf == -1.0 && PyErr_Occurred())
            return -1;
        rem -= rf == 1.0 ? elapsed : (long long)(elapsed * rf);
        if (dset_ll(td, s_action_remaining, rem > 0 ? rem : 0) < 0)
            return -1;
    }
    if (account_state_c(c, td, now) < 0)
        return -1;
    return slot_set_ll(cpu, c->o_run_started, now);
}

/* task.set_mode(RunMode.COMPUTE, now). */
static int
set_mode_compute(CycleObject *c, PyObject *td, long long now)
{
    if (account_state_c(c, td, now) < 0 ||
        PyDict_SetItem(td, s_mode, c->mode_compute) < 0)
        return -1;
    return dset_ll(td, s_mode_since, now);
}

/* kernel.<hist>.record(value). */
static int
hist_record(CycleObject *c, PyObject *hist, long long value)
{
    PyObject *h = oget(c->kernel, hist), *v, *r;
    if (h == NULL)
        return -1;
    v = PyLong_FromLongLong(value);
    if (v == NULL) {
        Py_DECREF(h);
        return -1;
    }
    r = PyObject_CallMethodOneArg(h, s_record, v);
    Py_DECREF(h);
    Py_DECREF(v);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Clamp a latency probe at 0, counting kernel.negative_latency_samples
 * (the guard every probe site in kernel.py applies). */
static int
clamp_latency(CycleObject *c, long long *lat)
{
    if (*lat >= 0)
        return 0;
    *lat = 0;
    {
        PyObject *kd = inst_dict(c->kernel);
        if (kd == NULL || dadd_ll(kd, s_negative_latency_samples, 1) < 0)
            return -1;
    }
    return 0;
}

/* Kernel._calc_slice in C (one rq call + the clamp). */
static int
cycle_calc_slice(CycleObject *c, PyObject *rq, long long *out)
{
    long long nr, lat, gran, reg, sl;
    if (rq_nr_schedulable_c(c, rq, &nr) < 0)
        return -1;
    if (nr < 1)
        nr = 1;
    if (attr_ll(c->sched, s_sched_latency_ns, &lat) < 0 ||
        attr_ll(c->sched, s_min_granularity_ns, &gran) < 0 ||
        attr_ll(c->sched, s_regular_slice_ns, &reg) < 0)
        return -1;
    sl = lat / nr;
    if (sl > reg)
        sl = reg;
    if (sl < gran)
        sl = gran;
    *out = sl;
    return 0;
}

/* Kernel._dispatch in C (trace known disabled).  `task` is borrowed. */
static int
cycle_dispatch(CycleObject *c, PyObject *cpu, PyObject *task)
{
    long long now = c->engine->now;
    long long delay = 0, penalty, nr, lat, gran, reg, sl;
    PyObject *td, *rq, *sib, *woken, *idobj;
    int ss;

    Py_INCREF(task);
    if ((td = inst_dict(task)) == NULL)
        goto fail;
    rq = slot_get(cpu, c->o_rq);
    if (slot_get(cpu, c->o_last_task) != task) {
        long long ctx, v;
        PyObject *stats, *sd;
        if (attr_ll(c->sched, s_context_switch_ns, &ctx) < 0)
            goto fail;
        delay += ctx;
        if (slot_ll(cpu, c->o_sched_ns, &v) < 0 ||
            slot_set_ll(cpu, c->o_sched_ns, v + ctx) < 0)
            goto fail;
        stats = dgetc(td, s_stats);
        if (stats == NULL || (sd = inst_dict(stats)) == NULL)
            goto fail;
        if (dadd_ll(sd, s_nr_switches, 1) < 0)
            goto fail;
        if (slot_ll(cpu, c->o_nr_switches, &v) < 0 ||
            slot_set_ll(cpu, c->o_nr_switches, v + 1) < 0)
            goto fail;
    }
    ss = kflag(c, s_schedstats);
    if (ss < 0)
        goto fail;
    if (ss) {
        int pending = kflag(c, s_psi_pending);
        if (pending < 0)
            goto fail;
        PyObject *kd = inst_dict(c->kernel);
        if (kd == NULL)
            goto fail;
        if (pending) {
            if (PyDict_SetItem(kd, s_psi_pending, Py_False) < 0)
                goto fail;
        } else {
            long long w, run;
            if (dget_ll(kd, s_psi_waiting, &w) < 0 ||
                dget_ll(kd, s_psi_running, &run) < 0)
                goto fail;
            if (w == 1 || run == 0) {
                if (psi_update_call(c, now) < 0)
                    goto fail;
                /* Python rereads psi_running (`+=`) but reuses the
                 * pre-update psi_waiting read — mirror that exactly. */
                if (dget_ll(kd, s_psi_running, &run) < 0)
                    goto fail;
            }
            if (dset_ll(kd, s_psi_waiting, w - 1) < 0 ||
                dset_ll(kd, s_psi_running, run + 1) < 0)
                goto fail;
        }
    }
    if (dget_ll(td, s_pending_penalty_ns, &penalty) < 0)
        goto fail;
    if (penalty) {
        long long v;
        delay += penalty;
        if (slot_ll(cpu, c->o_stall_ns, &v) < 0 ||
            slot_set_ll(cpu, c->o_stall_ns, v + penalty) < 0)
            goto fail;
        if (dset_ll(td, s_pending_penalty_ns, 0) < 0)
            goto fail;
    }
    /* task.set_state(RUNNING, now) */
    if (account_state_c(c, td, now) < 0)
        goto fail;
    if (PyDict_SetItem(td, s_state, c->st_running) < 0)
        goto fail;
    if (dset_ll(td, s_state_since, now + delay) < 0)
        goto fail;
    idobj = slot_get(cpu, c->o_id);
    if (PyDict_SetItem(td, s_cpu, idobj) < 0 ||
        PyDict_SetItem(td, s_last_cpu, idobj) < 0 ||
        dset_ll(td, s_on_cpu_since, now) < 0)
        goto fail;
    woken = dgetc(td, s_woken_at);
    if (woken == NULL)
        goto fail;
    if (woken != Py_None) {
        long long wat = PyLong_AsLongLong(woken), lat2;
        PyObject *stats, *sd;
        if (wat == -1 && PyErr_Occurred())
            goto fail;
        lat2 = now - wat;
        if (clamp_latency(c, &lat2) < 0)
            goto fail;
        stats = dgetc(td, s_stats);
        if (stats == NULL || (sd = inst_dict(stats)) == NULL)
            goto fail;
        if (dadd_ll(sd, s_wakeup_latency_ns, lat2) < 0)
            goto fail;
        if (hist_record(c, s_h_wakeup, lat2) < 0)
            goto fail;
        if (PyDict_SetItem(td, s_woken_at, Py_None) < 0)
            goto fail;
    }
    if (PyDict_SetItem(td, s_skip_flag, Py_False) < 0)
        goto fail;
    if (slot_set_ll(cpu, c->o_run_started, now + delay) < 0)
        goto fail;
    /* run_factor: SMT sibling busy? */
    sib = slot_get(cpu, c->o_sib);
    {
        int busy = 0;
        if (sib != NULL && sib != Py_None) {
            PyObject *s_on = slot_get(sib, c->o_online);
            if (s_on != NULL && PyObject_IsTrue(s_on) == 1) {
                PyObject *srq = slot_get(sib, c->o_rq);
                if (srq != NULL && slot_get(srq, c->o_rq_curr) != Py_None)
                    busy = 1;
            }
        }
        if (busy) {
            PyObject *f = oget(c->kernel, s_smt_factor);
            if (f == NULL)
                goto fail;
            slot_set(cpu, c->o_run_factor, f);
            Py_DECREF(f);
        } else {
            slot_set(cpu, c->o_run_factor, g_float_one);
        }
    }
    /* slice = clamp(latency // max(nr, 1)) — replay of the CfsPolicy
     * slice_ns hook (SchedPolicy.slice_ns) as _dispatch calls it. */
    if (rq_nr_schedulable_c(c, rq, &nr) < 0)
        goto fail;
    if (attr_ll(c->sched, s_sched_latency_ns, &lat) < 0 ||
        attr_ll(c->sched, s_min_granularity_ns, &gran) < 0 ||
        attr_ll(c->sched, s_regular_slice_ns, &reg) < 0)
        goto fail;
    sl = lat / (nr > 1 ? nr : 1);
    if (sl > reg)
        sl = reg;
    if (sl < gran)
        sl = gran;
    if (slot_set_ll(cpu, c->o_slice_end, now + delay + sl) < 0)
        goto fail;
    if (rq_update_min_vruntime_c(c, rq) < 0)
        goto fail;
    Py_DECREF(task);
    return cycle_continue(c, cpu);
fail:
    Py_DECREF(task);
    return -1;
}

/* Kernel._schedule in C: dispatch the runnable head, or poll idle when
 * every queued task is virtually blocked.  An offline CPU and an empty
 * queue (the newly-idle pull) bail to Python. */
static int
cycle_schedule(CycleObject *c, PyObject *cpu)
{
    PyObject *rq = slot_get(cpu, c->o_rq);
    PyObject *online = slot_get(cpu, c->o_online);
    PyObject *head, *hd, *ts, *task;
    int r;
    if (online == NULL || PyObject_IsTrue(online) != 1)
        return bail_call(c, BAIL_SCHEDULE_OFFLINE, s_m_schedule, cpu, NULL);
    head = rq_peek_next_c(c, rq); /* borrowed */
    if (head == NULL)
        return -1;
    if (head == Py_None)
        return bail_call(c, BAIL_SCHEDULE_IDLE_PULL, s_m_schedule, cpu,
                         NULL);
    hd = inst_dict(head);
    if (hd == NULL)
        return -1;
    ts = dgetc(hd, s_thread_state);
    if (ts == NULL)
        return -1;
    r = PyObject_IsTrue(ts);
    if (r < 0)
        return -1;
    if (r) { /* all-blocked poll: the wake path charges the poll latency */
        long long now = c->engine->now;
        PyObject *vs, *vd;
        if (cycle_psi_flush(c, now) < 0)
            return -1;
        vs = oget(c->vb_policy, s_stats);
        if (vs == NULL)
            return -1;
        vd = inst_dict(vs);
        r = vd == NULL ? -1 : dadd_ll(vd, s_all_blocked_polls, 1);
        Py_DECREF(vs);
        if (r < 0)
            return -1;
        if (slot_get(cpu, c->o_poll_idle_since) == Py_None &&
            slot_set_ll(cpu, c->o_poll_idle_since, now) < 0)
            return -1;
        return cycle_cancel_cpu_event(c, cpu);
    }
    task = rq_pick_next_c(c, rq);
    if (task == NULL)
        return -1;
    slot_set(rq, c->o_rq_curr, task);
    r = cycle_dispatch(c, cpu, task);
    Py_DECREF(task);
    return r;
}

/* Kernel._park in C (trace off): `vb` re-keys the task at the tail of
 * its own runqueue, otherwise it sleeps off every queue. */
static int
cycle_park(CycleObject *c, PyObject *cpu, PyObject *task, PyObject *td,
           int vb)
{
    long long now = c->engine->now;
    PyObject *rq = slot_get(cpu, c->o_rq);
    PyObject *stats = dgetc(td, s_stats), *sd;
    int ss;
    if (stats == NULL || (sd = inst_dict(stats)) == NULL)
        return -1;
    if (dadd_ll(sd, s_nr_voluntary, 1) < 0 ||
        dadd_ll(sd, s_nr_switches, 1) < 0)
        return -1;
    ss = kflag(c, s_schedstats);
    if (ss < 0)
        return -1;
    if (ss) { /* VB keeps the task queued: depth unchanged */
        if (!vb && cycle_depth_delta(c, now, -1) < 0)
            return -1;
        if (cycle_psi_transition(c, now, 0, -1) < 0)
            return -1;
    }
    slot_set(rq, c->o_rq_curr, Py_None);
    slot_set(cpu, c->o_last_task, task);
    if (vb) {
        PyObject *vr = dgetc(td, s_vruntime);
        if (vr == NULL || dset_ll(td, s_thread_state, 1) < 0 ||
            PyDict_SetItem(td, s_saved_vruntime, vr) < 0)
            return -1;
        if (account_state_c(c, td, now) < 0 ||
            PyDict_SetItem(td, s_state, c->st_vblocked) < 0 ||
            PyDict_SetItem(td, s_vb_cpu, slot_get(cpu, c->o_id)) < 0)
            return -1;
        if (rq_enqueue_c(c, rq, task) < 0) /* tail via the sentinel key */
            return -1;
    } else {
        if (account_state_c(c, td, now) < 0 ||
            PyDict_SetItem(td, s_state, c->st_sleeping) < 0 ||
            PyDict_SetItem(td, s_cpu, Py_None) < 0)
            return -1;
    }
    if (rq_update_min_vruntime_c(c, rq) < 0)
        return -1;
    return cycle_schedule(c, cpu);
}

/* Kernel._continue in C: generator resume loop + next-event arming.
 * Spins bail to the Python method (safe at any loop boundary: all loop
 * state lives on the task). */
static int
cycle_continue(CycleObject *c, PyObject *cpu)
{
    PyObject *rq = slot_get(cpu, c->o_rq);
    PyObject *task = slot_get(rq, c->o_rq_curr);
    PyObject *td, *rem_o, *ev, *genobj, *argt, *h;
    long long now = c->engine->now;
    long long rem, need, end, start, slice_end, gen;
    double rf;
    if (task == NULL || task == Py_None) {
        PyErr_SetString(PyExc_AssertionError, "no current task");
        return -1;
    }
    Py_INCREF(task);
    if ((td = inst_dict(task)) == NULL)
        goto fail;
    for (;;) {
        PyObject *wc = dgetc(td, s_wake_completed);
        PyObject *action, *program, *pres, *yielded;
        PySendResult sr;
        int truthy;
        if (wc == NULL)
            goto fail;
        truthy = PyObject_IsTrue(wc);
        if (truthy < 0)
            goto fail;
        if (truthy) { /* a completed wake: resume the program */
            PyObject *mode;
            if (PyDict_SetItem(td, s_wake_completed, Py_False) < 0 ||
                PyDict_SetItem(td, s_block_kind, Py_None) < 0)
                goto fail;
            mode = dgetc(td, s_mode);
            if (mode == NULL)
                goto fail;
            /* Back from a spin-then-park wait: normal execution. */
            if (mode == c->mode_spin && set_mode_compute(c, td, now) < 0)
                goto fail;
        } else {
            action = dgetc(td, s_action);
            if (action == NULL)
                goto fail;
            if (action != Py_None)
                break;
        }
        program = dgetc(td, s_program);
        pres = program ? dgetc(td, s_pending_result) : NULL;
        if (pres == NULL)
            goto fail;
        sr = PyIter_Send(program, pres, &yielded);
        if (sr == PYGEN_RETURN) {
            int r;
            Py_XDECREF(yielded);
            r = bail_call(c, BAIL_EXIT, s_m_exit_task, cpu, task);
            Py_DECREF(task);
            return r;
        }
        if (sr == PYGEN_ERROR) {
            PyObject *t, *v, *tb, *nm, *msg, *exc;
            if (!PyErr_ExceptionMatches(PyExc_Exception))
                goto fail; /* BaseException: propagate as-is */
            PyErr_Fetch(&t, &v, &tb);
            PyErr_NormalizeException(&t, &v, &tb);
            if (v == NULL || PyDict_SetItem(td, s_exit_error, v) < 0) {
                PyErr_Restore(t, v, tb);
                goto fail;
            }
            if (bail_call(c, BAIL_EXIT, s_m_exit_task, cpu, task) < 0) {
                Py_XDECREF(t);
                Py_XDECREF(v);
                Py_XDECREF(tb);
                goto fail;
            }
            nm = dgetc(td, s_name);
            msg = nm ? PyUnicode_FromFormat(
                "program of task %R raised %R", nm, v) : NULL;
            exc = msg ? PyObject_CallOneArg(c->program_error, msg) : NULL;
            Py_XDECREF(msg);
            if (exc != NULL) {
                PyException_SetCause(exc, Py_NewRef(v));
                PyException_SetContext(exc, Py_NewRef(v));
                PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
                Py_DECREF(exc);
            }
            Py_XDECREF(t);
            Py_XDECREF(v);
            Py_XDECREF(tb);
            goto fail;
        }
        /* PYGEN_NEXT */
        if (PyDict_SetItem(td, s_pending_result, Py_None) < 0 ||
            PyDict_SetItem(td, s_action, yielded) < 0) {
            Py_DECREF(yielded);
            goto fail;
        }
        if ((PyObject *)Py_TYPE(yielded) == c->cls_compute) {
            long long ns;
            if (attr_ll(yielded, s_ns, &ns) < 0) {
                Py_DECREF(yielded);
                goto fail;
            }
            if (dset_ll(td, s_action_remaining, ns > 1 ? ns : 1) < 0) {
                Py_DECREF(yielded);
                goto fail;
            }
        } else {
            PyObject *handler = PyDict_GetItemWithError(
                c->action_dispatch, (PyObject *)Py_TYPE(yielded));
            PyObject *res;
            if (handler == NULL && PyErr_Occurred()) {
                Py_DECREF(yielded);
                goto fail;
            }
            if (handler != NULL) {
                res = PyObject_CallFunctionObjArgs(
                    handler, c->kernel, cpu, task, yielded, NULL);
            } else {
                PyObject *m = PyObject_GetAttr(c->kernel,
                                               s_m_start_action_generic);
                if (m == NULL) {
                    Py_DECREF(yielded);
                    goto fail;
                }
                res = PyObject_CallFunctionObjArgs(m, cpu, task, yielded,
                                                   NULL);
                Py_DECREF(m);
            }
            Py_DECREF(yielded);
            if (res == NULL)
                goto fail;
            Py_DECREF(res);
            continue;
        }
        Py_DECREF(yielded);
    }
    rem_o = dgetc(td, s_action_remaining);
    if (rem_o == NULL)
        goto fail;
    if (rem_o == Py_None) { /* spinning: recheck logic stays in Python */
        int r = bail_call(c, BAIL_CONTINUE_SPIN, s_m_continue, cpu, NULL);
        Py_DECREF(task);
        return r;
    }
    rem = PyLong_AsLongLong(rem_o);
    if (rem == -1 && PyErr_Occurred())
        goto fail;
    {
        PyObject *rf_o = slot_get(cpu, c->o_run_factor);
        rf = PyFloat_AsDouble(rf_o);
        if (rf == -1.0 && PyErr_Occurred())
            goto fail;
    }
    if (rf == 1.0) {
        need = rem;
    } else { /* math.ceil(rem / rf) without pulling in libm */
        double d = (double)rem / rf;
        need = (long long)d;
        if ((double)need < d)
            need += 1;
    }
    if (slot_ll(cpu, c->o_run_started, &start) < 0 ||
        slot_ll(cpu, c->o_slice_end, &slice_end) < 0)
        goto fail;
    end = start + need;
    if (slice_end < end)
        end = slice_end;
    if (end < now)
        end = now;
    if (slot_ll(cpu, c->o_gen, &gen) < 0)
        goto fail;
    gen += 1;
    if (slot_set_ll(cpu, c->o_gen, gen) < 0)
        goto fail;
    ev = slot_get(cpu, c->o_event);
    if (ev != NULL && ev != Py_None && event_cancel(ev, 1) < 0)
        goto fail;
    genobj = PyLong_FromLongLong(gen);
    if (genobj == NULL)
        goto fail;
    argt = PyTuple_Pack(2, slot_get(cpu, c->o_id), genobj);
    Py_DECREF(genobj);
    if (argt == NULL)
        goto fail;
    h = engine_do_schedule(c->engine, end, c->self_cb, argt);
    if (h == NULL)
        goto fail;
    slot_set(cpu, c->o_event, h);
    Py_DECREF(h);
    Py_DECREF(task);
    return 0;
fail:
    Py_DECREF(task);
    return -1;
}

/* Kernel._check_preempt in C: the CfsPolicy.check_preempt vruntime
 * gap decides whether the woken task preempts the CPU's current one. */
static int
cycle_check_preempt(CycleObject *c, PyObject *cpu, PyObject *woken_td)
{
    PyObject *rq = slot_get(cpu, c->o_rq);
    PyObject *curr = slot_get(rq, c->o_rq_curr), *ctd, *stats, *sd;
    long long cv, wv, gran;
    int r = -1;
    if (curr == NULL || curr == Py_None) {
        int online = PyObject_IsTrue(slot_get(cpu, c->o_online));
        if (online <= 0)
            return online;
        return cycle_schedule(c, cpu);
    }
    Py_INCREF(curr);
    if ((ctd = inst_dict(curr)) == NULL ||
        cycle_sync_current(c, cpu, ctd) < 0)
        goto done;
    if (dget_ll(ctd, s_vruntime, &cv) < 0 ||
        dget_ll(woken_td, s_vruntime, &wv) < 0 ||
        attr_ll(c->policy, s_wakeup_gran, &gran) < 0)
        goto done;
    if (cv - wv > gran) {
        stats = dgetc(ctd, s_stats);
        if (stats == NULL || (sd = inst_dict(stats)) == NULL ||
            dadd_ll(sd, s_nr_involuntary, 1) < 0)
            goto done;
        if (cycle_cancel_cpu_event(c, cpu) < 0 ||
            cycle_put_prev(c, cpu) < 0 ||
            cycle_schedule(c, cpu) < 0)
            goto done;
    }
    r = 0;
done:
    Py_DECREF(curr);
    return r;
}

/* ------------------------------------------------------------------ */
/* Wake completions: Kernel._finish_wake_vb / _vb_placed / _vanilla    */
/* as futex_wake schedules them (no explicit target).                 */
/* ------------------------------------------------------------------ */

/* The head every _finish_wake_* shares: a wake racing the pre-park
 * window (task still RUNNING or RUNNABLE) is flagged for the park to
 * consume, and a task not in the `parked` state is left alone.  Returns
 * 1 to go on with the wake, 0 if done, -1 on error. */
static int
wake_gate(CycleObject *c, PyObject *td, PyObject *parked)
{
    PyObject *st = dgetc(td, s_state);
    if (st == NULL)
        return -1;
    if (st == c->st_running || st == c->st_runnable)
        return PyDict_SetItem(td, s_wake_pending, Py_True) < 0 ? -1 : 0;
    return st == parked;
}

/* CPU load as the wake scans read it: rq.nr_queued + running. */
static int
cpu_load(CycleObject *c, PyObject *cpu, long long *out)
{
    PyObject *rq = slot_get(cpu, c->o_rq);
    PyObject *curr;
    if (slot_ll(rq, c->o_rq_nqueued, out) < 0)
        return -1;
    curr = slot_get(rq, c->o_rq_curr);
    if (curr != NULL && curr != Py_None)
        *out += 1;
    return 0;
}

/* kernel._rng_sched.random(). */
static int
rng_random(CycleObject *c, double *out)
{
    PyObject *rng = oget(c->kernel, s_rng_sched), *v;
    if (rng == NULL)
        return -1;
    v = PyObject_CallMethodNoArgs(rng, s_random);
    Py_DECREF(rng);
    if (v == NULL)
        return -1;
    *out = PyFloat_AsDouble(v);
    Py_DECREF(v);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* int(kernel._rng_sched.integers(0, n)). */
static int
rng_integers(CycleObject *c, long long n, long long *out)
{
    PyObject *rng = oget(c->kernel, s_rng_sched), *v, *idx;
    if (rng == NULL)
        return -1;
    v = PyObject_CallMethod(rng, "integers", "iL", 0, n);
    Py_DECREF(rng);
    if (v == NULL)
        return -1;
    idx = PyNumber_Long(v);
    Py_DECREF(v);
    if (idx == NULL)
        return -1;
    *out = PyLong_AsLongLong(idx);
    Py_DECREF(idx);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* Kernel._select_wake_cpu in C: the same scalar scans over
 * kernel._online and the same _rng_sched draws, in the same order. */
static int
select_wake_cpu_c(CycleObject *c, PyObject *td, int sync, long long *out)
{
    PyObject *pinned, *state, *prev_o, *online, *cpu;
    long long vb_home = 0, prev = 0, prev_load = 0, best_load = 0, id, load;
    long long stackbuf[64], *best = stackbuf;
    Py_ssize_t i, n, nbest = 0;
    int has_home = 0, prev_ok = 0, rc = -1;
    double bias, draw;

    pinned = dgetc(td, s_pinned_cpu);
    if (pinned == NULL)
        return -1;
    if (pinned != Py_None) {
        *out = PyLong_AsLongLong(pinned);
        return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
    }
    /* A virtually-blocked task still sits on its home runqueue; it does
     * not count against its own wake placement. */
    state = dgetc(td, s_state);
    if (state == NULL)
        return -1;
    if (state == c->st_vblocked) {
        if (dget_ll(td, s_vb_cpu, &vb_home) < 0)
            return -1;
        has_home = 1;
    }
    prev_o = dgetc(td, s_last_cpu);
    if (prev_o == NULL)
        return -1;
    online = oget(c->kernel, s_online_list);
    if (online == NULL)
        return -1;
    if (!PyList_Check(online) || PyList_GET_SIZE(online) == 0) {
        PyErr_SetString(PyExc_TypeError, "kernel._online: no CPU list");
        goto done;
    }
    n = PyList_GET_SIZE(online);
    if (prev_o != Py_None) {
        PyObject *pc;
        prev = PyLong_AsLongLong(prev_o);
        if (prev == -1 && PyErr_Occurred())
            goto done;
        pc = PyList_GetItem(c->cpus, (Py_ssize_t)prev);
        if (pc == NULL)
            goto done;
        prev_ok = PyObject_IsTrue(slot_get(pc, c->o_online));
        if (prev_ok < 0)
            goto done;
        if (prev_ok) {
            if (cpu_load(c, pc, &prev_load) < 0)
                goto done;
            if (has_home && prev == vb_home)
                prev_load -= 1;
            if (prev_load == 0) {
                *out = prev;
                rc = 0;
                goto done;
            }
            if (sync) {
                long long min_load = 0;
                for (i = 0; i < n; i++) {
                    id = PyLong_AsLongLong(PyList_GET_ITEM(online, i));
                    if (id == -1 && PyErr_Occurred())
                        goto done;
                    if ((cpu = PyList_GetItem(c->cpus, (Py_ssize_t)id))
                        == NULL || cpu_load(c, cpu, &load) < 0)
                        goto done;
                    if (i == 0 || load < min_load)
                        min_load = load;
                }
                if (prev_load <= min_load + 1) {
                    *out = prev;
                    rc = 0;
                    goto done;
                }
            }
        }
    }
    if (n > (Py_ssize_t)(sizeof(stackbuf) / sizeof(stackbuf[0]))) {
        best = PyMem_Malloc((size_t)n * sizeof(long long));
        if (best == NULL) {
            PyErr_NoMemory();
            goto done;
        }
    }
    for (i = 0; i < n; i++) {
        id = PyLong_AsLongLong(PyList_GET_ITEM(online, i));
        if (id == -1 && PyErr_Occurred())
            goto done;
        if ((cpu = PyList_GetItem(c->cpus, (Py_ssize_t)id)) == NULL ||
            cpu_load(c, cpu, &load) < 0)
            goto done;
        if (has_home && id == vb_home)
            load -= 1;
        if (nbest == 0 || load < best_load) {
            best_load = load;
            best[0] = id;
            nbest = 1;
        } else if (load == best_load) {
            best[nbest++] = id;
        }
    }
    {
        PyObject *bo = oget(c->sched, s_wake_affinity_bias);
        if (bo == NULL)
            goto done;
        bias = PyFloat_AsDouble(bo);
        Py_DECREF(bo);
        if (bias == -1.0 && PyErr_Occurred())
            goto done;
    }
    if (best_load >= 1) {
        /* No idle CPU: wake_affine keeps 1:1 wakeups near their cache
         * unless the previous CPU is clearly overloaded. */
        if (prev_ok && prev_load <= best_load + 1) {
            if (rng_random(c, &draw) < 0)
                goto done;
            if (draw < 0.8 + 0.2 * bias) {
                *out = prev;
                rc = 0;
                goto done;
            }
        }
    } else if (nbest > 1 && prev_o != Py_None) {
        int in_best = 0;
        for (i = 0; i < nbest; i++)
            in_best |= best[i] == prev;
        if (in_best) {
            if (rng_random(c, &draw) < 0)
                goto done;
            if (draw < bias) {
                *out = prev;
                rc = 0;
                goto done;
            }
        }
    }
    if (nbest == 1) {
        *out = best[0];
    } else {
        long long k;
        if (rng_integers(c, nbest, &k) < 0)
            goto done;
        if (k < 0 || k >= nbest) {
            PyErr_SetString(PyExc_IndexError, "list index out of range");
            goto done;
        }
        *out = best[k];
    }
    rc = 0;
done:
    if (best != stackbuf)
        PyMem_Free(best);
    Py_DECREF(online);
    return rc;
}

/* Kernel._count_migration(task, dest, wake=True) in C.  The refill
 * penalty is `int(cost * weight)` in Python number ops, so it rounds and
 * truncates exactly as the method does. */
static int
count_migration_c(CycleObject *c, PyObject *td, long long dest)
{
    PyObject *src_o = dgetc(td, s_last_cpu), *profile, *kd, *stats, *sd;
    PyObject *dest_o = NULL, *weight = NULL, *same_o = NULL, *cost = NULL;
    PyObject *pen = NULL, *ipen = NULL, *sum = NULL, *cur;
    long long src;
    int same, rc = -1;
    if (src_o == NULL)
        return -1;
    if (src_o == Py_None)
        return 0;
    src = PyLong_AsLongLong(src_o);
    if (src == -1 && PyErr_Occurred())
        return -1;
    if (src == dest)
        return 0;
    if ((profile = dgetc(td, s_profile)) == NULL ||
        (weight = oget(profile, s_migration_weight)) == NULL ||
        (dest_o = PyLong_FromLongLong(dest)) == NULL)
        goto done;
    same_o = PyObject_CallMethodObjArgs(c->topology, s_same_node, src_o,
                                        dest_o, NULL);
    if (same_o == NULL || (same = PyObject_IsTrue(same_o)) < 0)
        goto done;
    if ((kd = inst_dict(c->kernel)) == NULL ||
        (stats = dgetc(td, s_stats)) == NULL ||
        (sd = inst_dict(stats)) == NULL)
        goto done;
    if (dadd_ll(kd, same ? s_migrations_in_node : s_migrations_cross_node,
                1) < 0 ||
        dadd_ll(sd, same ? s_nr_migrations_in_node
                         : s_nr_migrations_cross_node, 1) < 0)
        goto done;
    cost = oget(c->sched, same ? s_migration_cost_in_node_ns
                               : s_migration_cost_cross_node_ns);
    if (cost == NULL || (pen = PyNumber_Multiply(cost, weight)) == NULL ||
        (ipen = PyNumber_Long(pen)) == NULL ||
        (cur = dgetc(td, s_pending_penalty_ns)) == NULL ||
        (sum = PyNumber_Add(cur, ipen)) == NULL ||
        PyDict_SetItem(td, s_pending_penalty_ns, sum) < 0)
        goto done;
    rc = dadd_ll(kd, s_wake_migrations, 1);
done:
    Py_XDECREF(dest_o);
    Py_XDECREF(weight);
    Py_XDECREF(same_o);
    Py_XDECREF(cost);
    Py_XDECREF(pen);
    Py_XDECREF(ipen);
    Py_XDECREF(sum);
    return rc;
}

/* Placement for the vanilla and placed VB wakes, decided now with every
 * earlier wake of the batch visible: _select_wake_cpu(task,
 * sync=task.sync_wake), then _count_migration.  Borrowed CPU or NULL. */
static PyObject *
wake_target(CycleObject *c, PyObject *td, long long *target)
{
    PyObject *sw = dgetc(td, s_sync_wake), *cpu;
    int sync;
    if (sw == NULL || (sync = PyObject_IsTrue(sw)) < 0)
        return NULL;
    if (select_wake_cpu_c(c, td, sync, target) < 0)
        return NULL;
    cpu = PyList_GetItem(c->cpus, (Py_ssize_t)*target);
    if (cpu == NULL || count_migration_c(c, td, *target) < 0)
        return NULL;
    return cpu;
}

/* The middle every wake completion shares, from the blocked-time sample
 * to nr_wakeups.  `depth`: the task was off every runqueue (vanilla). */
static int
wake_mark_runnable(CycleObject *c, PyObject *td, long long now, int depth)
{
    PyObject *stats, *sd;
    long long since, blocked;
    int ss;
    if (dget_ll(td, s_state_since, &since) < 0)
        return -1;
    blocked = now - since;
    if (clamp_latency(c, &blocked) < 0 ||
        hist_record(c, s_h_block, blocked) < 0)
        return -1;
    if (account_state_c(c, td, now) < 0 ||
        PyDict_SetItem(td, s_state, c->st_runnable) < 0)
        return -1;
    ss = kflag(c, s_schedstats);
    if (ss < 0)
        return -1;
    if (ss) {
        if (depth && cycle_depth_delta(c, now, 1) < 0) /* sleeping->queued */
            return -1;
        if (cycle_psi_transition(c, now, 1, 0) < 0)
            return -1;
    }
    if (PyDict_SetItem(td, s_block_kind, Py_None) < 0 ||
        PyDict_SetItem(td, s_wake_completed, Py_True) < 0 ||
        dset_ll(td, s_woken_at, now) < 0)
        return -1;
    stats = dgetc(td, s_stats);
    if (stats == NULL || (sd = inst_dict(stats)) == NULL)
        return -1;
    return dadd_ll(sd, s_nr_wakeups, 1);
}

/* The tail of the vanilla and placed VB wakes: CfsPolicy.place_wakeup
 * (sleeper credit via rq.place_vruntime), enqueue, _check_preempt. */
static int
wake_enqueue(CycleObject *c, PyObject *cpu, PyObject *task, PyObject *td)
{
    PyObject *rq = slot_get(cpu, c->o_rq);
    long long credit, minvr, vr;
    if (attr_ll(c->policy, s_sleeper_credit, &credit) < 0 ||
        slot_ll(rq, c->o_rq_minvr, &minvr) < 0 ||
        dget_ll(td, s_vruntime, &vr) < 0)
        return -1;
    if (minvr - credit > vr && dset_ll(td, s_vruntime, minvr - credit) < 0)
        return -1;
    if (rq_enqueue_c(c, rq, task) < 0)
        return -1;
    return cycle_check_preempt(c, cpu, td);
}

/* A wake ends the CPU's all-blocked poll: fold the poll time into
 * cpu.poll_ns.  Returns 1 if the CPU was polling, 0 if not, -1 on error. */
static int
end_poll_idle(CycleObject *c, PyObject *cpu, long long now)
{
    long long since, poll;
    if (slot_get(cpu, c->o_poll_idle_since) == Py_None)
        return 0;
    if (slot_ll(cpu, c->o_poll_idle_since, &since) < 0 ||
        slot_ll(cpu, c->o_poll_ns, &poll) < 0 ||
        slot_set_ll(cpu, c->o_poll_ns, poll + now - since) < 0)
        return -1;
    slot_set(cpu, c->o_poll_idle_since, Py_None);
    return 1;
}

/* Clear the VB flag and restore the vruntime saved at park. */
static int
vb_unflag(CycleObject *c, PyObject *td)
{
    PyObject *saved;
    if (dset_ll(td, s_thread_state, 0) < 0 ||
        (saved = dgetc(td, s_saved_vruntime)) == NULL)
        return -1;
    if (saved == Py_None)
        return 0;
    if (PyDict_SetItem(td, s_vruntime, saved) < 0)
        return -1;
    return PyDict_SetItem(td, s_saved_vruntime, Py_None);
}

/* Python's `a // 2`. */
static inline long long
floor_half(long long a)
{
    return a / 2 - (a < 0 && (a & 1));
}

/* Kernel._finish_wake_vanilla in C. */
static int
finish_wake_vanilla_c(CycleObject *c, PyObject *task)
{
    PyObject *td = inst_dict(task), *cpu;
    long long target;
    int r;
    if (td == NULL || (r = wake_gate(c, td, c->st_sleeping)) <= 0)
        return td == NULL ? -1 : r;
    if ((cpu = wake_target(c, td, &target)) == NULL ||
        wake_mark_runnable(c, td, c->engine->now, 1) < 0)
        return -1;
    return wake_enqueue(c, cpu, task, td);
}

/* Kernel._finish_wake_vb in C: clear the flag and re-key in place. */
static int
finish_wake_vb_c(CycleObject *c, PyObject *task)
{
    PyObject *td = inst_dict(task), *cpu, *rq;
    long long now = c->engine->now, home, vr, minvr, lat;
    int r, imm;
    if (td == NULL || (r = wake_gate(c, td, c->st_vblocked)) <= 0)
        return td == NULL ? -1 : r;
    if (dget_ll(td, s_vb_cpu, &home) < 0 ||
        (cpu = PyList_GetItem(c->cpus, (Py_ssize_t)home)) == NULL)
        return -1;
    rq = slot_get(cpu, c->o_rq);
    if (vb_unflag(c, td) < 0 ||
        (imm = aflag(c->vbc, s_immediate_schedule)) < 0)
        return -1;
    if (imm) { /* immediate-schedule preference for VB wakers */
        if (dget_ll(td, s_vruntime, &vr) < 0 ||
            slot_ll(rq, c->o_rq_minvr, &minvr) < 0 ||
            attr_ll(c->sched, s_sched_latency_ns, &lat) < 0)
            return -1;
        if (minvr < vr)
            vr = minvr;
        if (minvr - floor_half(lat) > vr)
            vr = minvr - floor_half(lat);
        if (dset_ll(td, s_vruntime, vr) < 0)
            return -1;
    }
    if (wake_mark_runnable(c, td, now, 0) < 0)
        return -1;
    if (!imm) { /* ablation: keep the restored vruntime, fair turn */
        if (dget_ll(td, s_vruntime, &vr) < 0 ||
            slot_ll(rq, c->o_rq_minvr, &minvr) < 0)
            return -1;
        if (minvr > vr && dset_ll(td, s_vruntime, minvr) < 0)
            return -1;
    }
    /* rq.requeue: re-key from the sentinel to the real vruntime */
    if (rq_dequeue_c(c, rq, task) < 0 || rq_enqueue_c(c, rq, task) < 0)
        return -1;
    if ((r = end_poll_idle(c, cpu, now)) < 0)
        return -1;
    if (r) { /* the woken task pays the expected flag-poll latency */
        long long pen, bp;
        if (attr_ll(c->vbc, s_all_blocked_poll_ns, &bp) < 0 ||
            dget_ll(td, s_pending_penalty_ns, &pen) < 0 ||
            dset_ll(td, s_pending_penalty_ns, pen + floor_half(bp)) < 0)
            return -1;
    }
    return cycle_check_preempt(c, cpu, td);
}

/* Kernel._finish_wake_vb_placed in C: the bucket was under-subscribed,
 * so clear the flag and move the task from its home queue to a chosen
 * CPU's queue. */
static int
finish_wake_vb_placed_c(CycleObject *c, PyObject *task)
{
    PyObject *td = inst_dict(task), *home, *cpu;
    long long now = c->engine->now, home_id, target, vr, hmin, cmin;
    int r;
    if (td == NULL || (r = wake_gate(c, td, c->st_vblocked)) <= 0)
        return td == NULL ? -1 : r;
    if (dget_ll(td, s_vb_cpu, &home_id) < 0 ||
        (home = PyList_GetItem(c->cpus, (Py_ssize_t)home_id)) == NULL)
        return -1;
    if (rq_dequeue_c(c, slot_get(home, c->o_rq), task) < 0)
        return -1;
    if ((r = end_poll_idle(c, home, now)) < 0)
        return -1;
    if (r && slot_get(slot_get(home, c->o_rq), c->o_rq_curr) == Py_None) {
        int online = PyObject_IsTrue(slot_get(home, c->o_online));
        if (online < 0 || (online && cycle_schedule(c, home) < 0))
            return -1;
    }
    if (vb_unflag(c, td) < 0 ||
        (cpu = wake_target(c, td, &target)) == NULL ||
        wake_mark_runnable(c, td, now, 0) < 0)
        return -1;
    if (dget_ll(td, s_vruntime, &vr) < 0 ||
        slot_ll(slot_get(home, c->o_rq), c->o_rq_minvr, &hmin) < 0 ||
        slot_ll(slot_get(cpu, c->o_rq), c->o_rq_minvr, &cmin) < 0 ||
        dset_ll(td, s_vruntime, vr - hmin + cmin) < 0)
        return -1;
    return wake_enqueue(c, cpu, task, td);
}

/* One wake-completion event: gate, then the C mirror. */
static PyObject *
wake_entry(CycleObject *c, PyObject *task, PyObject *method,
           int (*impl)(CycleObject *, PyObject *))
{
    int saved = cycle_event_begin(c);
    int r = cycle_gate(c, method, task, NULL);
    if (r == 0)
        r = impl(c, task);
    cycle_event_end(c, saved);
    if (r < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
cycle_finish_wake_vb(CycleObject *c, PyObject *task)
{
    return wake_entry(c, task, s_m_finish_wake_vb, finish_wake_vb_c);
}

static PyObject *
cycle_finish_wake_vb_placed(CycleObject *c, PyObject *task)
{
    return wake_entry(c, task, s_m_finish_wake_vb_placed,
                      finish_wake_vb_placed_c);
}

static PyObject *
cycle_finish_wake_vanilla(CycleObject *c, PyObject *task)
{
    return wake_entry(c, task, s_m_finish_wake_vanilla,
                      finish_wake_vanilla_c);
}

/* _cpu_event's plain-completion shortcut, then Kernel._complete_action
 * in C.  SleepNs (a park with a timer wake) and Yield/SleepNs subclasses
 * bail to the Python method; the sync accounting already done is what
 * it expects. */
static int
cycle_complete_action(CycleObject *c, PyObject *cpu, PyObject *task,
                      PyObject *td)
{
    PyObject *action = dgetc(td, s_action), *acls, *bk, *stats, *sd;
    int r, vb;
    if (action == NULL || (bk = dgetc(td, s_block_kind)) == NULL)
        return -1;
    acls = (PyObject *)Py_TYPE(action);
    r = PySet_Contains(c->plain_complete, acls);
    if (r < 0)
        return -1;
    if (r && bk == Py_None) /* plain completion: next action in-slice */
        return PyDict_SetItem(td, s_action, Py_None) < 0 ? -1
               : cycle_continue(c, cpu);
    if (acls == c->cls_yield) { /* step behind peers at the same vruntime */
        if (PyDict_SetItem(td, s_action, Py_None) < 0 ||
            (stats = dgetc(td, s_stats)) == NULL ||
            (sd = inst_dict(stats)) == NULL ||
            dadd_ll(sd, s_nr_voluntary, 1) < 0 ||
            dadd_ll(td, s_vruntime, 1) < 0 ||
            cycle_put_prev(c, cpu) < 0)
            return -1;
        return cycle_schedule(c, cpu);
    }
    if (acls == c->cls_sleep)
        return bail_call(c, BAIL_COMPLETE_SLEEP, s_m_complete_action, cpu,
                         task);
    r = PyObject_IsInstance(action, c->cls_yield);
    if (r == 0)
        r = PyObject_IsInstance(action, c->cls_sleep);
    if (r != 0)
        return r < 0 ? -1 : bail_call(c, BAIL_COMPLETE_SUBCLASS,
                                      s_m_complete_action, cpu, task);
    if (bk == Py_None) /* ordinary completion */
        return PyDict_SetItem(td, s_action, Py_None) < 0 ? -1
               : cycle_continue(c, cpu);
    /* A blocking action whose entry decided to park.  block_kind stays
     * set while parked; _park takes any kind but "vb" as a sleep. */
    vb = PyUnicode_Check(bk) && PyUnicode_CompareWithASCIIString(bk, "vb")
         == 0;
    r = aflag(task, s_wake_pending);
    if (r < 0)
        return -1;
    if (r) { /* the wake raced the pre-park window: consume it */
        if (PyDict_SetItem(td, s_wake_pending, Py_False) < 0 ||
            PyDict_SetItem(td, s_block_kind, Py_None) < 0 ||
            PyDict_SetItem(td, s_action, Py_None) < 0)
            return -1;
        return cycle_continue(c, cpu);
    }
    if (PyDict_SetItem(td, s_action, Py_None) < 0)
        return -1;
    {
        PyObject *mode = dgetc(td, s_mode);
        if (mode == NULL ||
            (mode == c->mode_spin &&
             set_mode_compute(c, td, c->engine->now) < 0))
            return -1;
    }
    return cycle_park(c, cpu, task, td, vb);
}

/* Kernel._cpu_event in C (past the entry gate). */
static int
cpu_event_c(CycleObject *c, long long cpu_id, long long gen)
{
    long long cgen, now, slice_end;
    PyObject *cpu, *rq, *task, *td, *rem_o;

    cpu = PyList_GetItem(c->cpus, (Py_ssize_t)cpu_id); /* borrowed */
    if (cpu == NULL)
        return -1;
    if (slot_ll(cpu, c->o_gen, &cgen) < 0)
        return -1;
    if (gen != cgen)
        return 0;
    rq = slot_get(cpu, c->o_rq);
    task = slot_get(rq, c->o_rq_curr);
    if (task == NULL || task == Py_None)
        return 0;
    Py_INCREF(task);
    if ((td = inst_dict(task)) == NULL)
        goto fail;
    now = c->engine->now;
    if (cycle_sync_current(c, cpu, td) < 0)
        goto fail;
    rem_o = dgetc(td, s_action_remaining);
    if (rem_o == NULL)
        goto fail;
    if (rem_o != Py_None) {
        long long rv = PyLong_AsLongLong(rem_o);
        if (rv == -1 && PyErr_Occurred())
            goto fail;
        if (rv == 0) { /* the action's charge finished */
            if (cycle_complete_action(c, cpu, task, td) < 0)
                goto fail;
            goto done;
        }
    }
    if (slot_ll(cpu, c->o_slice_end, &slice_end) < 0)
        goto fail;
    if (now >= slice_end) {
        PyObject *stats, *sd, *head;
        stats = dgetc(td, s_stats);
        if (stats == NULL || (sd = inst_dict(stats)) == NULL)
            goto fail;
        if (dadd_ll(sd, s_nr_slice_expiries, 1) < 0)
            goto fail;
        head = rq_peek_next_c(c, rq); /* borrowed */
        if (head == NULL)
            goto fail;
        if (head != Py_None) {
            PyObject *hd = inst_dict(head);
            PyObject *ts;
            int runnable;
            if (hd == NULL)
                goto fail;
            ts = dgetc(hd, s_thread_state);
            if (ts == NULL)
                goto fail;
            runnable = PyObject_IsTrue(ts) == 0;
            if (runnable) {
                if (dadd_ll(sd, s_nr_involuntary, 1) < 0)
                    goto fail;
                if (cycle_put_prev(c, cpu) < 0 ||
                    cycle_schedule(c, cpu) < 0)
                    goto fail;
                goto done;
            }
        }
        {
            long long sl;
            if (cycle_calc_slice(c, rq, &sl) < 0)
                goto fail;
            if (slot_set_ll(cpu, c->o_slice_end, now + sl) < 0)
                goto fail;
        }
    }
    if (cycle_continue(c, cpu) < 0)
        goto fail;
done:
    Py_DECREF(task);
    return 0;
fail:
    Py_DECREF(task);
    return -1;
}

/* The engine callback for per-CPU events. */
static PyObject *
cycle_cpu_event(CycleObject *c, PyObject *args)
{
    long long cpu_id, gen;
    int saved, r;
    if (!PyArg_ParseTuple(args, "LL", &cpu_id, &gen))
        return NULL;
    saved = cycle_event_begin(c);
    r = cycle_gate(c, s_m_cpu_event, PyTuple_GET_ITEM(args, 0),
                   PyTuple_GET_ITEM(args, 1));
    if (r == 0)
        r = cpu_event_c(c, cpu_id, gen);
    cycle_event_end(c, saved);
    if (r < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* KernelCycle construction                                           */
/* ------------------------------------------------------------------ */

static Py_ssize_t
resolve_slot(PyTypeObject *tp, const char *name)
{
    PyObject *descr = PyObject_GetAttrString((PyObject *)tp, name);
    Py_ssize_t off = -1;
    if (descr == NULL)
        return -1;
    if (Py_TYPE(descr) == &PyMemberDescr_Type) {
        PyMemberDef *m = ((PyMemberDescrObject *)descr)->d_member;
        if (m->type == T_OBJECT_EX && !(m->flags & READONLY))
            off = m->offset;
    }
    Py_DECREF(descr);
    if (off < 0 && !PyErr_Occurred())
        PyErr_Format(PyExc_TypeError,
                     "%s.%s is not a writable object slot",
                     tp->tp_name, name);
    return off;
}

static PyObject *
support_get(PyObject *support, const char *key)
{
    PyObject *v = PyDict_GetItemString(support, key);
    if (v == NULL) {
        PyErr_Format(PyExc_KeyError, "KernelCycle support missing %s", key);
        return NULL;
    }
    Py_INCREF(v);
    return v;
}

static PyObject *
cycle_new(PyTypeObject *type, PyObject *args, PyObject *Py_UNUSED(kwargs))
{
    PyObject *kernel, *support, *engine, *config, *cpu0, *rq0;
    CycleObject *c;
    if (cycle_init_strings() < 0)
        return NULL;
    if (!PyArg_ParseTuple(args, "OO!", &kernel, &PyDict_Type, &support))
        return NULL;
    c = (CycleObject *)type->tp_alloc(type, 0);
    if (c == NULL)
        return NULL;
    Py_INCREF(kernel);
    c->kernel = kernel;
    engine = PyObject_GetAttrString(kernel, "engine");
    if (engine == NULL)
        goto fail;
    if (Py_TYPE(engine) != &EngineType) {
        Py_DECREF(engine);
        PyErr_SetString(PyExc_TypeError,
                        "KernelCycle requires a FastEngine kernel");
        goto fail;
    }
    c->engine = (EngineObject *)engine;
    c->cpus = PyObject_GetAttrString(kernel, "cpus");
    if (c->cpus == NULL || !PyList_Check(c->cpus))
        goto fail;
    if (PyList_GET_SIZE(c->cpus) == 0) {
        PyErr_SetString(PyExc_ValueError, "kernel has no CPUs");
        goto fail;
    }
    config = PyObject_GetAttrString(kernel, "config");
    if (config == NULL)
        goto fail;
    c->sched = PyObject_GetAttrString(config, "scheduler");
    c->vbc = PyObject_GetAttrString(config, "vb");
    Py_DECREF(config);
    if (c->sched == NULL || c->vbc == NULL)
        goto fail;
    if ((c->policy = PyObject_GetAttrString(kernel, "policy")) == NULL ||
        (c->topology = PyObject_GetAttrString(kernel, "topology")) == NULL ||
        (c->vb_policy = PyObject_GetAttrString(kernel, "vb_policy")) == NULL)
        goto fail;
    if ((c->st_running = support_get(support, "RUNNING")) == NULL ||
        (c->st_runnable = support_get(support, "RUNNABLE")) == NULL ||
        (c->st_sleeping = support_get(support, "SLEEPING")) == NULL ||
        (c->st_vblocked = support_get(support, "VBLOCKED")) == NULL ||
        (c->mode_compute = support_get(support, "MODE_COMPUTE")) == NULL ||
        (c->mode_spin = support_get(support, "MODE_SPIN")) == NULL ||
        (c->cls_compute = support_get(support, "Compute")) == NULL ||
        (c->cls_yield = support_get(support, "Yield")) == NULL ||
        (c->cls_sleep = support_get(support, "SleepNs")) == NULL ||
        (c->plain_complete = support_get(support, "PLAIN_COMPLETE")) == NULL ||
        (c->action_dispatch = support_get(support, "ACTION_DISPATCH")) == NULL ||
        (c->program_error = support_get(support, "ProgramError")) == NULL)
        goto fail;
    cpu0 = PyList_GET_ITEM(c->cpus, 0);
    {
        PyTypeObject *ct = Py_TYPE(cpu0);
#define RESOLVE(field, name) \
        if ((c->field = resolve_slot(ct, name)) < 0) \
            goto fail;
        RESOLVE(o_id, "id")
        RESOLVE(o_rq, "rq")
        RESOLVE(o_sib, "sib")
        RESOLVE(o_gen, "gen")
        RESOLVE(o_event, "event")
        RESOLVE(o_run_started, "run_started")
        RESOLVE(o_run_factor, "run_factor")
        RESOLVE(o_slice_end, "slice_end")
        RESOLVE(o_busy_ns, "busy_ns")
        RESOLVE(o_sched_ns, "sched_ns")
        RESOLVE(o_stall_ns, "stall_ns")
        RESOLVE(o_last_task, "last_task")
        RESOLVE(o_online, "online")
        RESOLVE(o_nr_switches, "nr_switches")
        RESOLVE(o_poll_idle_since, "poll_idle_since")
        RESOLVE(o_poll_ns, "poll_ns")
#undef RESOLVE
    }
    rq0 = slot_get(cpu0, c->o_rq);
    if (rq0 == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cpu.rq unset");
        goto fail;
    }
    /* Runqueue slots are required: a slot that fails to resolve fails
     * construction, and the kernel then runs without the C cycle. */
    {
        PyTypeObject *rt = Py_TYPE(rq0);
        PyObject *vbo = support_get(support, "VB_SENTINEL");
        if (vbo == NULL)
            goto fail;
        c->vb_sentinel = PyLong_AsLongLong(vbo);
        Py_DECREF(vbo);
        if (c->vb_sentinel == -1 && PyErr_Occurred())
            goto fail;
#define RESOLVE_RQ(field, name) \
        if ((c->field = resolve_slot(rt, name)) < 0) \
            goto fail;
        RESOLVE_RQ(o_rq_curr, "curr")
        RESOLVE_RQ(o_rq_heap, "_heap")
        RESOLVE_RQ(o_rq_nstale, "_n_stale")
        RESOLVE_RQ(o_rq_seq, "_seq")
        RESOLVE_RQ(o_rq_nqueued, "nr_queued")
        RESOLVE_RQ(o_rq_nblocked, "nr_blocked")
        RESOLVE_RQ(o_rq_nenq, "nr_enqueues")
        RESOLVE_RQ(o_rq_minvr, "min_vruntime")
#undef RESOLVE_RQ
        vbo = PyObject_GetAttrString((PyObject *)rt, "_COMPACT_MIN");
        if (vbo == NULL)
            goto fail;
        c->compact_min = PyLong_AsLongLong(vbo);
        Py_DECREF(vbo);
        if (c->compact_min == -1 && PyErr_Occurred())
            goto fail;
    }
    /* Policy gate: a missing key fails construction (KeyError). */
    {
        PyObject *po = PyDict_GetItemString(support, "POLICY_IS_CFS");
        if (po == NULL) {
            PyErr_SetString(PyExc_KeyError,
                            "KernelCycle support missing POLICY_IS_CFS");
            goto fail;
        }
        if ((c->policy_is_cfs = PyObject_IsTrue(po)) < 0)
            goto fail;
    }
    c->self_cb = PyObject_GetAttrString((PyObject *)c, "cpu_event");
    if (c->self_cb == NULL)
        goto fail;
    c->event_bail = -1;
    return (PyObject *)c;
fail:
    Py_DECREF((PyObject *)c);
    return NULL;
}

static int
cycle_traverse(CycleObject *c, visitproc visit, void *arg)
{
    Py_VISIT(c->kernel);
    Py_VISIT((PyObject *)c->engine);
    Py_VISIT(c->cpus);
    Py_VISIT(c->sched);
    Py_VISIT(c->vbc);
    Py_VISIT(c->policy);
    Py_VISIT(c->topology);
    Py_VISIT(c->vb_policy);
    Py_VISIT(c->st_running);
    Py_VISIT(c->st_runnable);
    Py_VISIT(c->st_sleeping);
    Py_VISIT(c->st_vblocked);
    Py_VISIT(c->mode_compute);
    Py_VISIT(c->mode_spin);
    Py_VISIT(c->cls_compute);
    Py_VISIT(c->cls_yield);
    Py_VISIT(c->cls_sleep);
    Py_VISIT(c->plain_complete);
    Py_VISIT(c->action_dispatch);
    Py_VISIT(c->program_error);
    Py_VISIT(c->self_cb);
    return 0;
}

static int
cycle_clear(CycleObject *c)
{
    Py_CLEAR(c->kernel);
    Py_CLEAR(c->engine);
    Py_CLEAR(c->cpus);
    Py_CLEAR(c->sched);
    Py_CLEAR(c->vbc);
    Py_CLEAR(c->policy);
    Py_CLEAR(c->topology);
    Py_CLEAR(c->vb_policy);
    Py_CLEAR(c->st_running);
    Py_CLEAR(c->st_runnable);
    Py_CLEAR(c->st_sleeping);
    Py_CLEAR(c->st_vblocked);
    Py_CLEAR(c->mode_compute);
    Py_CLEAR(c->mode_spin);
    Py_CLEAR(c->cls_compute);
    Py_CLEAR(c->cls_yield);
    Py_CLEAR(c->cls_sleep);
    Py_CLEAR(c->plain_complete);
    Py_CLEAR(c->action_dispatch);
    Py_CLEAR(c->program_error);
    Py_CLEAR(c->self_cb);
    return 0;
}

static void
cycle_dealloc(CycleObject *c)
{
    PyObject_GC_UnTrack(c);
    cycle_clear(c);
    Py_TYPE(c)->tp_free((PyObject *)c);
}

static PyObject *
cycle_counters(CycleObject *c, PyObject *Py_UNUSED(ignored))
{
    PyObject *by = PyDict_New(), *out;
    int i;
    if (by == NULL)
        return NULL;
    for (i = 0; i < BAIL_N; i++) {
        PyObject *v = PyLong_FromLongLong(c->bailouts_by[i]);
        if (v == NULL || PyDict_SetItemString(by, bail_names[i], v) < 0) {
            Py_XDECREF(v);
            Py_DECREF(by);
            return NULL;
        }
        Py_DECREF(v);
    }
    out = Py_BuildValue("{s:L,s:L,s:N}", "fast_events", c->fast_events,
                        "bailouts", c->bailouts, "bailouts_by", by);
    return out;
}

static PyMethodDef cycle_methods[] = {
    {"cpu_event", (PyCFunction)cycle_cpu_event, METH_VARARGS,
     "cpu_event(cpu_id, gen): the accelerated per-CPU event callback."},
    {"finish_wake_vb", (PyCFunction)cycle_finish_wake_vb, METH_O,
     "finish_wake_vb(task): the in-place VB wake completion."},
    {"finish_wake_vb_placed", (PyCFunction)cycle_finish_wake_vb_placed,
     METH_O, "finish_wake_vb_placed(task): the placed VB wake completion."},
    {"finish_wake_vanilla", (PyCFunction)cycle_finish_wake_vanilla, METH_O,
     "finish_wake_vanilla(task): the vanilla wake completion."},
    {"counters", (PyCFunction)cycle_counters, METH_NOARGS,
     "Coverage of the events the cycle owns: {'fast_events': n, "
     "'bailouts': n, 'bailouts_by': {reason: n}}; each event counts "
     "once."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject CycleType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.fastpath._fastcore.KernelCycle",
    .tp_basicsize = sizeof(CycleObject),
    .tp_dealloc = (destructor)cycle_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "C fast path for the kernel's per-event scheduling cycle.",
    .tp_traverse = (traverseproc)cycle_traverse,
    .tp_clear = (inquiry)cycle_clear,
    .tp_methods = cycle_methods,
    .tp_new = cycle_new,
};

/* ------------------------------------------------------------------ */
/* Module                                                             */
/* ------------------------------------------------------------------ */

static PyObject *
mod_install(PyObject *Py_UNUSED(mod), PyObject *args)
{
    PyObject *sim_err, *soft_err;
    if (!PyArg_ParseTuple(args, "OO", &sim_err, &soft_err))
        return NULL;
    Py_INCREF(sim_err);
    Py_XSETREF(g_simulation_error, sim_err);
    Py_INCREF(soft_err);
    Py_XSETREF(g_soft_timeout_error, soft_err);
    Py_RETURN_NONE;
}

static PyObject *
mod_set_soft_deadline(PyObject *Py_UNUSED(mod), PyObject *arg)
{
    if (arg == Py_None) {
        g_soft_active = 0;
    } else {
        double v = PyFloat_AsDouble(arg);
        if (v == -1.0 && PyErr_Occurred())
            return NULL;
        g_soft_deadline = v;
        g_soft_active = 1;
    }
    Py_RETURN_NONE;
}

static PyMethodDef module_methods[] = {
    {"_install", mod_install, METH_VARARGS,
     "_install(SimulationError, SoftTimeoutError): wire exception types."},
    {"set_soft_deadline", mod_set_soft_deadline, METH_O,
     "Arm (absolute monotonic seconds) or disarm (None) the deadline."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef fastcore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_fastcore",
    .m_doc = "C core for the repro `fast` simulation backend.",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__fastcore(void)
{
    PyObject *m;
    if (PyType_Ready(&EngineType) < 0 || PyType_Ready(&HandleType) < 0 ||
        PyType_Ready(&CycleType) < 0)
        return NULL;
    m = PyModule_Create(&fastcore_module);
    if (m == NULL)
        return NULL;
    g_simulation_error = PyExc_RuntimeError;
    Py_INCREF(g_simulation_error);
    g_soft_timeout_error = PyExc_RuntimeError;
    Py_INCREF(g_soft_timeout_error);
    Py_INCREF(&EngineType);
    if (PyModule_AddObject(m, "FastEngine", (PyObject *)&EngineType) < 0) {
        Py_DECREF(&EngineType);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&HandleType);
    if (PyModule_AddObject(m, "FastEventHandle",
                           (PyObject *)&HandleType) < 0) {
        Py_DECREF(&HandleType);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&CycleType);
    if (PyModule_AddObject(m, "KernelCycle", (PyObject *)&CycleType) < 0) {
        Py_DECREF(&CycleType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
