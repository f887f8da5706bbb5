"""Per-CPU CFS runqueue: a binary heap ordered by virtual runtime.

Mirrors ``cfs_rq``: the currently running task is *not* queued; entries
are keyed by ``(vruntime, enqueue_seq)``; ``min_vruntime`` advances
monotonically and places newly woken tasks.

Virtual blocking inserts blocked tasks at the tail using a sentinel key
component far above any real vruntime (the paper's "arbitrarily large
virtual runtime"), so ``pick_next`` naturally prefers every runnable task
and only reaches blocked ones when the whole queue is blocked.

The kernel keeps these tasks in a red-black tree; here they sit in a
binary heap of ``(k0, seq, key, task)`` entries.  ``seq`` is unique per
enqueue, so the ``(k0, seq)`` order is total and the heap pops in
exactly the tree's in-order sequence — the only property pick order
depends on.  Dequeue is a lazy tombstone: an entry is live iff
``task.rq_key is key`` (the exact tuple object, so a task re-enqueued
under a new key does not resurrect its old entry); stale entries are
popped when they reach the root and compacted away once they outnumber
live ones.

Hot-path accounting is incremental: ``nr_queued`` and the VB-blocked
(sentinel-keyed) count ``nr_blocked`` are plain slots updated on
enqueue/dequeue/pick, so ``nr_schedulable()`` is O(1), and
``peek_next``/``update_min_vruntime`` settle the root and read it.  This
relies on an invariant the kernel maintains: a queued task's key class
(sentinel vs real vruntime) always matches its ``thread_state`` at every
point where the queue is observed — VB wake paths re-key the task in the
same uninterruptible step that clears the flag.

The C kernel cycle (``repro.fastpath``) runs enqueue, pick and the O(1)
queries directly on these slots and this heap list, so both sides
interleave freely.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Iterator

from .task import Task, TaskState

# An hour of virtual runtime: far beyond anything a real task accumulates.
VB_SENTINEL = 3_600_000_000_000


class CfsRunqueue:
    """One CPU's runqueue."""

    # Rebuild once tombstones outnumber live entries (and the heap is
    # big enough for the dead weight to matter).
    _COMPACT_MIN = 64

    __slots__ = (
        "cpu_id",
        "curr",
        "min_vruntime",
        "_seq",
        "nr_queued",
        "nr_blocked",
        "nr_enqueues",
        "_heap",
        "_n_stale",
        "key_fn",
    )

    def __init__(self, cpu_id: int):
        self.cpu_id = cpu_id
        self.curr: Task | None = None
        self.min_vruntime: int = 0
        self._seq = 0
        self.nr_queued = 0  # live entries, VB-blocked ones included
        self.nr_blocked = 0  # sentinel-keyed (VB-blocked) live entries
        self.nr_enqueues = 0
        # A policy that overrides queue_key installs it here; None keeps
        # vruntime keying (and its O(1) min path).
        self.key_fn = None
        # Comparison never reaches `key`/`task`: `seq` is unique.
        self._heap: list[tuple[int, int, tuple[int, int], Task]] = []
        self._n_stale = 0

    # ------------------------------------------------------------------
    # Size / load
    # ------------------------------------------------------------------
    @property
    def nr_running(self) -> int:
        """Linux's ``rq->nr_running``: queued + current.

        Virtually blocked tasks count — that stability is what kills the
        load fluctuation that triggers migration storms under vanilla
        blocking (Section 3.1 / Table 1).
        """
        return self.nr_queued + (1 if self.curr is not None else 0)

    @property
    def nr_queued_runnable(self) -> int:
        """Queued tasks pick_next may actually run (excludes VB-blocked).
        O(1): the blocked population is counted on enqueue/dequeue."""
        return self.nr_queued - self.nr_blocked

    def nr_schedulable(self) -> int:
        """Tasks that pick_next may actually run (excludes VB-blocked)."""
        n = self.nr_queued - self.nr_blocked
        curr = self.curr
        if curr is not None and curr.thread_state == 0:
            n += 1
        return n

    def recount_blocked(self) -> int:
        """From-scratch count of sentinel-keyed entries — the ground truth
        behind the incremental ``nr_blocked`` counter.  O(n); used by the
        invariant checker and tests, never by the scheduler hot path."""
        return sum(1 for key, _t in self.items() if key[0] >= VB_SENTINEL)

    # ------------------------------------------------------------------
    # Enqueue / dequeue
    # ------------------------------------------------------------------
    def _key_for(self, task: Task) -> tuple[int, int]:
        self._seq += 1
        if task.thread_state:
            return (VB_SENTINEL + self._seq, self._seq)
        kf = self.key_fn
        if kf is not None:
            return (kf(task), self._seq)
        return (task.vruntime, self._seq)

    def enqueue(self, task: Task) -> None:
        assert task.rq_key is None, f"{task} already queued"
        key = self._key_for(task)
        heappush(self._heap, (key[0], key[1], key, task))
        task.rq_key = key
        if key[0] >= VB_SENTINEL:
            self.nr_blocked += 1
        self.nr_enqueues += 1
        self.nr_queued += 1

    def dequeue(self, task: Task) -> None:
        key = task.rq_key
        assert key is not None, f"{task} not queued"
        task.rq_key = None  # tombstone: the heap entry is now stale
        if key[0] >= VB_SENTINEL:
            self.nr_blocked -= 1
        self.nr_queued -= 1
        self._n_stale += 1
        if (self._n_stale > self._COMPACT_MIN
                and self._n_stale > self.nr_queued):
            heap = self._heap
            heap[:] = [e for e in heap if e[3].rq_key is e[2]]
            heapify(heap)
            self._n_stale = 0

    def requeue(self, task: Task) -> None:
        """Re-insert with a key reflecting the task's current state."""
        self.dequeue(task)
        self.enqueue(task)

    # ------------------------------------------------------------------
    # Picking
    # ------------------------------------------------------------------
    def _settle(self) -> bool:
        """Pop stale entries off the heap root; True iff a live entry
        remains there."""
        heap = self._heap
        while heap:
            e = heap[0]
            if e[3].rq_key is e[2]:
                return True
            heappop(heap)
            self._n_stale -= 1
        return False

    def peek_next(self) -> Task | None:
        """Leftmost task; may be VB-blocked if every queued task is."""
        if not self._settle():
            return None
        return self._heap[0][3]

    def pick_next(self) -> Task | None:
        """Remove and return the leftmost task."""
        if not self._settle():
            return None
        k0, _seq, _key, task = heappop(self._heap)
        if k0 >= VB_SENTINEL:
            self.nr_blocked -= 1
        task.rq_key = None
        self.nr_queued -= 1
        return task

    def update_min_vruntime(self) -> None:
        """Advance ``min_vruntime`` monotonically toward the smallest
        runnable vruntime.  O(1) amortised: reads the settled root key and
        ignores it when it is a VB sentinel (every queued task blocked)."""
        curr = self.curr
        vr = None
        if curr is not None and curr.thread_state == 0:
            vr = curr.vruntime
        if self.key_fn is None:
            if self._settle():
                k0 = self._heap[0][0]
                if k0 < VB_SENTINEL and (vr is None or k0 < vr):
                    vr = k0
        else:
            # Policy keys are not vruntimes, so the root key says nothing
            # about the vruntime floor — scan the live entries (cold: only
            # policies with their own queue_key take it).
            for e in self._heap:
                t = e[3]
                if (t.rq_key is e[2] and t.thread_state == 0
                        and (vr is None or t.vruntime < vr)):
                    vr = t.vruntime
        if vr is not None and vr > self.min_vruntime:
            self.min_vruntime = vr

    def place_vruntime(self, task: Task, sleeper_bonus_ns: int = 0) -> None:
        """CFS ``place_entity``: cap a sleeper's vruntime near the queue's
        min so it gets scheduled soon without starving the queue."""
        target = self.min_vruntime - sleeper_bonus_ns
        task.vruntime = max(task.vruntime, target)

    # ------------------------------------------------------------------
    # Iteration (cold paths: balance candidate lists, invariants)
    # ------------------------------------------------------------------
    def items(self) -> list[tuple[tuple[int, int], Task]]:
        """Live ``(key, task)`` entries in pick order (a snapshot)."""
        live = [(e[2], e[3]) for e in self._heap if e[3].rq_key is e[2]]
        live.sort(key=itemgetter(0))
        return live

    def tasks(self) -> Iterator[Task]:
        """Queued tasks in key order (over a snapshot, so callers may
        mutate the queue while iterating)."""
        return (t for _k, t in self.items())

    def steal_candidates(self) -> Iterator[Task]:
        """Queued tasks eligible for migration (never the current task;
        VB-blocked tasks are skipped in migration, per Section 3.1).
        Use ``nr_queued_runnable`` for a pure existence check."""
        return (
            t
            for _k, t in self.items()
            if t.thread_state == 0 and t.state is TaskState.RUNNABLE
        )

    def validate(self) -> None:
        """Raise AssertionError if the heap/tombstone invariants broke."""
        heap = self._heap
        live = sum(1 for e in heap if e[3].rq_key is e[2])
        assert live == self.nr_queued, (
            f"nr_queued={self.nr_queued} but {live} live entries"
        )
        assert len(heap) == self.nr_queued + self._n_stale, (
            f"stale counter drifted: heap={len(heap)} "
            f"live={self.nr_queued} stale={self._n_stale}"
        )
        for i in range(1, len(heap)):
            parent = heap[(i - 1) >> 1]
            assert (parent[0], parent[1]) <= (heap[i][0], heap[i][1]), (
                "heap property violated"
            )
