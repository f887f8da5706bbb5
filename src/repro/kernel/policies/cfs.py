"""CFS: the default policy.

Every hook is the :class:`~repro.kernel.policy.SchedPolicy` default —
the base class *is* CFS, so that a policy overriding nothing is already
valid.  The kernel calls these hooks for every CFS decision; on the
``fast`` backend the C ``KernelCycle`` replays the same decisions for
dispatch, slice expiry, wake placement and wakeup preemption, and hands
everything else back to them (see ``docs/scheduling.md``).
"""

from __future__ import annotations

from ..policy import SchedPolicy, register


@register
class CfsPolicy(SchedPolicy):
    name = "cfs"
    sched_class = "fair"
    description = "weighted fair queueing on vruntime (the paper's baseline)"
    slice_model = ("`sched_latency / nr_schedulable` clamped to "
                   "[`min_granularity`, `regular_slice`]")
    preempt_rule = ("wakeup: `curr.vruntime - woken.vruntime > "
                    "wakeup_granularity`; tick: any queued runnable")
