"""Tests of the benchmark's own machinery.

They sit beside the benchmark, outside the repository's ``tests/``
tree, so the tier-1 run does not collect them.  Run from the root of the
repository::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os

import pytest

from perfbench import layers, worker  # worker puts src/ on sys.path
from perfbench.run import SHARED_COUNTS, check_backend, reference_digests
from perfbench.workloads import FIXTURE, FIXTURE_SEED

from repro.fastpath import current_backend, fastcore_available, set_backend

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Short specs that between them reach the futex/sync/VB, BWD (LBR, PMC,
# deschedule), epoll and load-generator layers.
SPEC_IDS = (
    "fig10a/mutex/4T/opt",
    "fig13/kvm/mcs/32T(optimized)",
    "serve/closed/low",
)


@pytest.fixture
def backend():
    """Select a backend for one test, restoring the previous one after."""
    previous = current_backend()
    yield set_backend
    set_backend(previous)


def digests(records: list[dict]) -> dict:
    return {r["id"]: r["digest"] for r in records}


def run_pass(tracer=None) -> list[dict]:
    """Run every spec once, in order, in this process."""
    runner = worker.new_runner()
    return [worker.run_spec(runner, spec, tracer)
            for spec in worker.report_specs(SPEC_IDS, FIXTURE_SEED)]


def traced_pass() -> tuple[dict, dict]:
    tracer = layers.Tracer()
    tracer.install()
    try:
        records = run_pass(tracer)
    finally:
        tracer.restore()
    return digests(records), tracer.layer_metrics()


def counts(metrics: dict) -> dict:
    return {k: m["value"] for k, m in metrics.items()
            if m["unit"] in ("count", "ratio")}


def test_install_then_restore_leaves_every_patched_attribute_identical():
    before = [(owner, attr, vars(owner)[attr])
              for owner, attr in layers.patch_targets()]
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert all(vars(o)[a] is not f for o, a, f in before)
    finally:
        tracer.restore()
    assert all(vars(o)[a] is f for o, a, f in before)


def test_traced_counts_repeat_exactly_and_results_are_unchanged(backend):
    backend("pure")
    untraced = digests(run_pass())
    first, first_layers = traced_pass()
    second, second_layers = traced_pass()
    assert first == untraced
    assert second == untraced
    assert counts(first_layers) == counts(second_layers)
    for name in ("sim.events", "kernel.futex_wait.calls", "sync.calls",
                 "hw.lbr.calls", "kernel.bwd_deschedule.calls",
                 "kernel.epoll_post.calls", "workloads.loadgen.calls"):
        assert first_layers[name]["value"] > 0, name


@pytest.mark.skipif(not fastcore_available(),
                    reason="the C core does not compile here")
def test_shared_counts_are_equal_on_both_backends(backend):
    by_backend = {}
    for name in ("pure", "fast"):
        backend(name)
        by_backend[name] = traced_pass()
    pure, fast = by_backend["pure"], by_backend["fast"]
    assert pure[0] == fast[0]
    for name in SHARED_COUNTS:
        assert pure[1][name]["value"] == fast[1][name]["value"], name
    assert fast[1]["fastpath.fast_events"]["value"] > 0


def test_a_corrupted_reference_fails_the_spec_it_touches(tmp_path, backend):
    backend("pure")
    run = [run_pass()]
    fixture = os.path.join(ROOT, FIXTURE)
    assert check_backend(run, SPEC_IDS,
                         reference_digests(fixture, SPEC_IDS), "pure") == []

    with open(fixture, "r", encoding="utf-8") as f:
        artifact = json.load(f)
    victim = SPEC_IDS[1]
    for entry in artifact["results"]:
        if entry["id"] == victim:
            entry["result"]["corrupted"] = True
    copy = tmp_path / "results-quick.json"
    copy.write_text(json.dumps(artifact), encoding="utf-8")

    problems = check_backend(run, SPEC_IDS,
                             reference_digests(str(copy), SPEC_IDS), "pure")
    assert len(problems) == 1 and victim in problems[0]


def test_an_untimed_backend_fails_every_spec():
    assert len(check_backend(None, SPEC_IDS, {}, "fast")) == len(SPEC_IDS)
