"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures: it runs
the specs of the corresponding report section once through
`repro.runners.full_report.run_section` (simulations are deterministic;
repeated timing rounds would only measure the host), reads rows with the
builders of `repro.runners.figures`, prints the reproduced rows next to
the paper's reported values, and asserts the paper's qualitative claims
on the output.  Where a benchmark departs from the report's design (a
shorter horizon, an SMT machine), it states the departure as a
`rewrite` of the spec params.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark's timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once
