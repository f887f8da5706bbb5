"""Report-slice benchmark: time slices of the quick report on both hot
cores, check every result, and print every metric.

Run from the root of a checkout::

    python3 perfbench/run.py --workload memcached --seed 2021 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` also runs the
workload with the layer tracer installed and prints the per-layer
metrics instead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The metric table and the workloads' reasons are in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _ROOT)

from perfbench.workloads import (  # noqa: E402
    FIXTURE, FIXTURE_SEED, WORKLOADS,
)

BACKENDS = ("pure", "fast")
BUILD_DIR = ".bench_build"
SETUP_SPAWNS = 3  # set-up-only children; each measuring child adds one
CHILD_TIMEOUT_S = 150.0  # longest wait for one reply from a child

# Backend-independent counts, reported once: the traced pure and fast
# runs must agree on them exactly.
SHARED_COUNTS = (
    "runners.specs", "sim.events", "kernel.futex_wait.calls",
    "kernel.futex_wake.calls", "kernel.epoll_post.calls",
    "kernel.bwd_deschedule.calls", "core.vb.wake_in_place.calls",
    "core.vb.in_place_frac", "hw.lbr.calls", "hw.pmc.calls", "sync.calls",
    "workloads.loadgen.calls", "resilience.calls",
)
# Only the fast backend has the C cycle and the numpy load board.
FAST_ONLY = ("fastpath.fast_events", "fastpath.bailouts",
             "fastpath.fast_frac", "fastpath.soa.calls")
PER_BACKEND_TIMES = (
    "runners.spec_s", "runners.overhead_s", "sim.run_s", "sim.ns_per_event",
    "kernel.dispatch.self_s", "kernel.futex_wait.s", "kernel.futex_wake.s",
    "kernel.epoll_post.s", "kernel.bwd_deschedule.s", "hw.lbr.s", "hw.pmc.s",
    "sync.s", "workloads.loadgen.s", "resilience.s",
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Child:
    """A ``worker.py`` process for one backend, driven over its standard
    input and output (one JSON line per reply)."""

    def __init__(self, root: str, env: dict, workload: str, seed: int,
                 backend: str, spans_out: str | None = None) -> None:
        self.label = backend + (" traced" if spans_out else "")
        cmd = [sys.executable, os.path.join(root, "perfbench", "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--backend", backend]
        if spans_out:
            cmd += ["--spans-out", spans_out]
        cmd += ["--spawned-at", repr(time.monotonic())]
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, text=True,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        try:
            self.ready = self._read()
        except BenchError:
            self.kill()
            raise

    def _read(self) -> dict:
        readable, _, _ = select.select([self.proc.stdout], [], [],
                                       CHILD_TIMEOUT_S)
        if not readable:
            raise BenchError(f"{self.label} child: no reply within "
                             f"{CHILD_TIMEOUT_S:.0f} s")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"{self.label} child exited with code "
                             f"{self.proc.wait()}")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise BenchError(f"{self.label} child exited with code "
                             f"{self.proc.wait()}") from exc
        return self._read()

    def close(self) -> dict:
        """Stop the child; returns its last reply."""
        last = self.ask("exit")
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        return last

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


def child_env(root: str) -> dict:
    """The children's environment: no inherited REPRO_* settings, and the
    compiled C core cached inside the checkout."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["REPRO_FASTCORE_CACHE"] = os.path.join(root, BUILD_DIR, "fastcore")
    return env


def run_passes(kids: dict, n_specs: int, budget_s: float):
    """Run passes over the slice on every child until the next pass would
    overrun ``budget_s`` (at least one pass).

    The backends take turns spec by spec, alternating which goes first,
    so both are timed across the whole run and see the same machine
    conditions.  Returns (passes per backend, each a list of spec
    records; peak RSS per backend after its first pass)."""
    passes: dict[str, list[list[dict]]] = {b: [] for b in kids}
    rss: dict[str, float] = {}
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        for b in kids:
            passes[b].append([])
        for i in range(n_specs):
            order = list(kids) if i % 2 == 0 else list(reversed(kids))
            for b in order:
                passes[b][-1].append(kids[b].ask(f"run {i}"))
        if not rss:
            # Later passes only add allocator fragmentation, and their
            # number depends on machine speed.
            rss = {b: kids[b].ask("rss")["peak_rss_mb"] for b in kids}
        now = time.monotonic()
        if now - start + (now - t0) > budget_s:
            return passes, rss


def pass_wall(records: list[dict]) -> float:
    return sum(r["wall_s"] for r in records)


def reference_digests(fixture_path: str, ids) -> dict[str, str]:
    """Digests of the fixture's results for ``ids`` (a spec missing from
    the fixture gets no entry, so it fails the check)."""
    from perfbench.worker import result_digest

    with open(fixture_path, "r", encoding="utf-8") as f:
        results = json.load(f)["results"]
    wanted = set(ids)
    return {r["id"]: result_digest(r["result"])
            for r in results if r["id"] in wanted}


def check_backend(passes: list | None, ids, reference: dict | None,
                  label: str) -> list[str]:
    """Failed spec runs of one backend: every spec when the backend could
    not be timed (``passes`` is None), specs that raised, and results
    whose digest differs from ``reference`` (or, without a reference,
    from the backend's own first pass)."""
    if passes is None:
        return [f"{label}: {i}: C core unavailable, not timed" for i in ids]
    first = {r["id"]: r["digest"] for r in passes[0]}
    problems = []
    for n, records in enumerate(passes):
        for r in records:
            if r["error"]:
                problems.append(f"{label} pass {n}: {r['id']}: {r['error']}")
                continue
            want = (first if reference is None else reference).get(r["id"])
            if r["digest"] != want:
                problems.append(f"{label} pass {n}: {r['id']}: result "
                                f"differs from the reference")
    return problems


def combine_layers(untraced: dict, traced: dict, layers: dict,
                   issues: list) -> dict:
    """The per-layer metric set from the two traced children; a shared
    count on which the backends disagree is added to ``issues``."""
    metrics: dict[str, dict] = {}
    for name in SHARED_COUNTS:
        pure, fast = (layers[b][name]["value"] for b in BACKENDS)
        if pure != fast:
            issues.append(f"{name}: pure {pure} != fast {fast}")
        metrics[name] = layers["pure"][name]
    metrics["runners.result_bytes"] = {
        "value": sum(r["bytes"] for r in traced["pure"][0]),
        "unit": "bytes"}
    for name in FAST_ONLY:
        metrics[name] = layers["fast"][name]
    metrics["fastpath.soa.s.fast"] = layers["fast"]["fastpath.soa.s"]
    for name in PER_BACKEND_TIMES:
        for b in BACKENDS:
            metrics[f"{name}.{b}"] = layers[b][name]
    for b in BACKENDS:
        base = statistics.median(pass_wall(p) for p in untraced[b])
        metrics[f"trace.overhead_pct.{b}"] = {
            "value": 100.0 * (pass_wall(traced[b][0]) / base - 1.0),
            "unit": "%"}
    return metrics


def measure(root: str, workload: str, seed: int, seconds: float,
            trace: bool) -> tuple[dict, int, list[str], list[str], list]:
    """Build, time set-up, run both backends; with ``trace``, trace them.

    Returns (metrics, spec runs attempted, failed spec runs, other
    correctness issues, backend infos)."""
    ids = WORKLOADS[workload]
    env = child_env(root)
    os.makedirs(os.path.join(root, BUILD_DIR), exist_ok=True)
    started: list[Child] = []

    def start(backend: str, spans_out: str | None = None) -> Child:
        started.append(Child(root, env, workload, seed, backend, spans_out))
        return started[-1]

    try:
        # The first set-up in a checkout compiles the C core: not timed.
        start("pure").close()
        setups = []
        for _ in range(SETUP_SPAWNS):
            kid = start("pure")
            setups.append(kid.ready["setup_s"])
            kid.close()

        kids = {b: start(b) for b in BACKENDS}
        setups += [kids[b].ready["setup_s"] for b in BACKENDS]
        infos = [kids[b].ready["backend_info"] for b in BACKENDS]
        # Without the C core, fast is the pure-Python slab fallback: a
        # different program, so it is not timed and its specs fail.
        if not kids["fast"].ready["backend_info"]["fastcore"]:
            kids.pop("fast").close()
        passes, rss = run_passes(kids, len(ids), seconds)
        for kid in kids.values():
            kid.close()

        traced: dict[str, list] = {}
        layers: dict[str, dict] = {}
        if trace and len(kids) == len(BACKENDS):
            spans_dir = os.path.join(root, BUILD_DIR, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            tkids = {b: start(b, os.path.join(
                spans_dir, f"{workload}-{seed}-{b}.npz")) for b in BACKENDS}
            traced, _ = run_passes(tkids, len(ids), 0.0)
            layers = {b: tkids[b].close()["layers"] for b in BACKENDS}
    finally:
        for kid in started:
            kid.kill()

    if seed == FIXTURE_SEED:
        fixture = reference_digests(os.path.join(root, FIXTURE), ids)
        refs = {b: fixture for b in BACKENDS}
    else:
        # Off the fixture seed, the determinism contract still holds:
        # the fast core must reproduce the reference core's results.
        refs = {"pure": None,
                "fast": {r["id"]: r["digest"] for r in passes["pure"][0]}}
    failures: list[str] = []
    attempted = 0
    for b in BACKENDS:
        failures += check_backend(passes.get(b), ids, refs[b], b)
        attempted += len(ids) * max(1, len(passes.get(b, ())))
    for b in traced:
        # A traced run must compute exactly what the untraced run did.
        failures += check_backend(traced[b], ids, {
            r["id"]: r["digest"] for r in passes[b][0]}, f"{b} traced")
        attempted += len(ids)

    issues: list[str] = []
    if trace:
        metrics = (combine_layers(passes, traced, layers, issues)
                   if layers else {})
        return metrics, attempted, failures, issues, infos
    metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
    for b in BACKENDS:
        metrics[f"wall_s.{b}"] = {
            "value": (statistics.median(pass_wall(p) for p in passes[b])
                      if b in passes else None),
            "unit": "s"}
    for b in BACKENDS:
        metrics[f"peak_rss_mb.{b}"] = {"value": rss.get(b), "unit": "MiB"}
    metrics["failed_frac"] = {"value": len(failures) / attempted,
                              "unit": "ratio"}
    return metrics, attempted, failures, issues, infos


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="Time a slice of the quick report on both hot cores.")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=FIXTURE_SEED)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measuring budget for both backends together; "
                    "each runs at least one full pass of the slice")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    for need in (os.path.join("src", "repro", "__init__.py"), FIXTURE):
        if not os.path.isfile(os.path.join(root, need)):
            print(f"perfbench: {need} not found; run from the root of a "
                  f"checkout", file=sys.stderr)
            return 2
    try:
        metrics, attempted, failures, issues, infos = measure(
            root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  "
          f"specs {len(WORKLOADS[args.workload])}")
    for info in infos:
        print(f"backend {json.dumps(info, sort_keys=True)}")
    for problem in failures + issues:
        print(f"FAILED {problem}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']!s:>22} {m['unit']}")
    # failed_frac is printed above; the JSON carries it as failed/attempted.
    metrics.pop("failed_frac", None)
    print(json.dumps({
        "correct": not failures and not issues and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
