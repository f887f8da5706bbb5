"""Opt-in accelerated hot core (``--backend fast``).

The simulator ships two interchangeable hot cores:

* ``pure`` (default) — the reference implementation: the bucketed
  timer-wheel :class:`repro.sim.engine.Engine` and the kernel's Python
  methods for every scheduling event.
* ``fast`` — this package: a C extension compiled on first use that
  supplies a slab/heap event engine and a kernel cycle replaying the
  common scheduling events in C.  When the extension cannot be built
  or loaded, ``fast`` runs the ``pure`` engine; ``backend_info()``
  reports which one ran.

Both cores drive the same runqueue,
:class:`repro.kernel.runqueue.CfsRunqueue`: the backend picks only the
engine and whether the C cycle runs.  It is a process-global execution
detail, *not* part of :class:`~repro.config.SimConfig` or any cache key:
both backends produce bit-identical results by construction (same event
total order, same RNG draw order), which the golden-digest suite and the
parity harness in ``tests/test_fastpath.py`` enforce.  Select with
``set_backend("fast")``, the ``REPRO_BACKEND`` environment variable, or
the ``--backend`` CLI flag.
"""

from __future__ import annotations

import os

BACKENDS = ("pure", "fast")

_backend = os.environ.get("REPRO_BACKEND", "pure").strip() or "pure"
if _backend not in BACKENDS:
    raise ValueError(
        f"REPRO_BACKEND={_backend!r}: expected one of {BACKENDS}"
    )


def current_backend() -> str:
    """The active backend name (``pure`` or ``fast``)."""
    return _backend


def set_backend(name: str) -> None:
    """Select the process-global backend for kernels built afterwards."""
    global _backend
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}: expected {BACKENDS}")
    _backend = name


def fastcore_available() -> bool:
    """True when the compiled C engine is (or can be made) importable."""
    from .build import load_fastcore

    return load_fastcore() is not None


def engine_class():
    """The engine class the current backend would instantiate."""
    if _backend == "fast":
        from .build import load_fastcore

        core = load_fastcore()
        if core is not None:
            return core.FastEngine
    from ..sim.engine import Engine

    return Engine


def make_engine():
    """A fresh engine for the current backend."""
    return engine_class()()


def backend_info() -> dict:
    """Backend provenance for reports (BENCH_core.json, telemetry)."""
    info = {"backend": _backend}
    if _backend == "fast":
        info["fastcore"] = fastcore_available()
    return info


def add_backend_argument(parser) -> None:
    """Attach the shared ``--backend`` CLI flag to an argparse parser."""
    parser.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default=None,
        help="simulator hot core: 'pure' (reference) or 'fast' "
        "(accelerated; bit-identical results). Defaults to "
        "$REPRO_BACKEND or 'pure'.",
    )


def apply_backend_argument(args) -> None:
    """Honor ``--backend`` if the caller's parser carried it."""
    backend = getattr(args, "backend", None)
    if backend:
        set_backend(backend)
