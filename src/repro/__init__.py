"""repro — reproduction of "Towards Exploiting CPU Elasticity via Efficient
Thread Oversubscription" (HPDC '21).

A deterministic discrete-event simulator of a multicore machine running a
CFS-like kernel, with the paper's two contributions — **virtual blocking**
(`repro.core.virtual_blocking`) and **busy-waiting detection**
(`repro.core.bwd`) — implemented inside the simulated kernel, plus every
workload and baseline the paper evaluates.

Quickstart::

    from repro import Kernel, vanilla_config, optimized_config
    from repro.prog.actions import Compute, BarrierWait
    from repro.sync import Barrier

    cfg = optimized_config(cores=8)       # VB + BWD kernel
    kernel = Kernel(cfg)
    bar = Barrier(32)

    def worker(i):
        for _ in range(100):
            yield Compute(200_000)        # 200 us of work
            yield BarrierWait(bar)

    for i in range(32):                   # 4x thread oversubscription
        kernel.spawn(worker(i), name=f"w{i}")
    kernel.run_to_completion()
    print(f"finished at {kernel.now / 1e6:.2f} ms")

Every figure and table is a section of the report in
`repro.runners.full_report` (``python -m repro all``, or one section
with ``python -m repro fig09``); `repro.runners.figures` turns a
section's results into rows.
"""

from .config import (
    SimConfig,
    HardwareConfig,
    SchedulerConfig,
    FutexConfig,
    VirtualBlockingConfig,
    BwdConfig,
    PleConfig,
    UserSyncCosts,
    ExecMode,
    vanilla_config,
    optimized_config,
    ple_config,
)
from .errors import (
    ReproError,
    ConfigError,
    SimulationError,
    DeadlockError,
    ProgramError,
    TopologyError,
)
from .kernel import Kernel, Task, TaskState, ExecProfile
from .metrics import RunStats, collect, percentile, summarize_latencies

# 1.1.0: result payloads gained the "extra" histogram summaries — the bump
# invalidates pre-observability cache entries.
# 1.2.0: cache entries gained schema/sha256 integrity fields (CACHE_SCHEMA
# 2); the bump gives hardened entries fresh keys.
# 1.8.0: pluggable scheduler policies (repro.kernel.policy).  CFS results
# are bit-identical, but the bump keys the new sched/* specs cleanly.
__version__ = "1.8.0"

__all__ = [
    "SimConfig",
    "HardwareConfig",
    "SchedulerConfig",
    "FutexConfig",
    "VirtualBlockingConfig",
    "BwdConfig",
    "PleConfig",
    "UserSyncCosts",
    "ExecMode",
    "vanilla_config",
    "optimized_config",
    "ple_config",
    "ReproError",
    "ConfigError",
    "SimulationError",
    "DeadlockError",
    "ProgramError",
    "TopologyError",
    "Kernel",
    "Task",
    "TaskState",
    "ExecProfile",
    "RunStats",
    "collect",
    "percentile",
    "summarize_latencies",
    "__version__",
]
