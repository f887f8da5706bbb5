"""One benchmark process: set up, then run specs on one backend on request.

``run.py`` starts one of these per backend, so that each backend's peak
memory belongs to a process that ran only that backend.  After set-up
(import ``repro``, build the report's spec list, load the compiled C
core, compiling it if absent) the child prints one JSON line and then
answers commands read from standard input, one JSON line each:

* ``run <i>``: run the workload's i-th spec through
  ``ParallelRunner(jobs=1, use_cache=False)``; reply with its wall time,
  result digest, result size and error, if any.
* ``rss``: reply with this process's peak resident memory so far.
* ``exit``: reply with the per-layer metrics when tracing, then stop.

With ``--spans-out`` the layer tracer is installed before the first spec
runs, and the spans are written to that file on ``exit``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

from perfbench.workloads import REPORT_SCALE, WORKLOADS  # noqa: E402


def canonical(result) -> bytes:
    """A result's canonical JSON (sorted keys, compact).

    NaN and infinities are encoded as their JSON tokens rather than
    rejected, so a result that holds one is compared, not dropped."""
    return json.dumps(result, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def result_digest(result) -> str:
    return hashlib.sha256(canonical(result)).hexdigest()


def report_specs(ids, seed: int) -> list:
    """The specs named by ``ids``, as the quick report builds them at
    ``seed``."""
    from repro.runners.full_report import ReportParams, build_all_specs

    params = ReportParams(scale=REPORT_SCALE, quick=True, seed=seed)
    by_id = {spec.id: spec
             for _, specs in build_all_specs(params) for spec in specs}
    missing = [i for i in ids if i not in by_id]
    if missing:
        raise SystemExit(f"perfbench: specs not in the report: {missing}")
    return [by_id[i] for i in ids]


def new_runner():
    """The report's runner, in-process and uncached; a failing spec is
    recorded rather than retried or raised."""
    from repro.runners.parallel import ParallelRunner

    return ParallelRunner(jobs=1, use_cache=False, cache_dir=None,
                          retries=0, strict=False)


def run_spec(runner, spec, tracer=None) -> dict:
    """Run one spec; returns its wall time, digest, size and error."""
    t0 = time.perf_counter()
    if tracer is None:
        [result] = runner.run([spec])
    else:
        with tracer.spec(spec.id):
            [result] = runner.run([spec])
    record = {"id": spec.id, "wall_s": time.perf_counter() - t0,
              "digest": None, "bytes": 0, "error": None}
    failure = runner.stats.failures.get(spec.id)
    if failure is not None:
        record["error"] = f"{failure['kind']}: {failure['error']}"
        return record
    blob = canonical(result)
    record["digest"] = hashlib.sha256(blob).hexdigest()
    record["bytes"] = len(blob)
    return record


def peak_rss_mb() -> float:
    """This process's peak resident memory so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reply(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--backend", choices=("pure", "fast"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="the parent's time.monotonic() just before it "
                    "started this process")
    ap.add_argument("--spans-out", default=None,
                    help="trace every spec and write the spans here")
    args = ap.parse_args(argv)

    # Set-up: everything a report run does before its first spec.
    from repro.fastpath import backend_info, set_backend
    from repro.fastpath.build import load_fastcore

    specs = report_specs(WORKLOADS[args.workload], args.seed)
    load_fastcore()
    ready = {"setup_s": time.monotonic() - args.spawned_at}
    set_backend(args.backend)
    ready["backend_info"] = backend_info()

    tracer = None
    if args.spans_out:
        from perfbench.layers import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        reply(ready)
        runner = new_runner()
        for line in sys.stdin:
            cmd, _, arg = line.strip().partition(" ")
            if cmd == "run":
                reply(run_spec(runner, specs[int(arg)], tracer))
            elif cmd == "rss":
                reply({"peak_rss_mb": peak_rss_mb()})
            elif cmd == "exit":
                break
            else:
                raise SystemExit(f"perfbench: unknown command {line!r}")
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is None:
        reply({})
        return 0
    tracer.dump(args.spans_out)
    reply({"layers": tracer.layer_metrics()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
