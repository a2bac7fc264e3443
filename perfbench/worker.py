"""One workload run in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --size full \
        --workdir DIR --result FILE [--trace] [--setup-only]

Set-up (imports, config, inputs, training for joint-metrics) ends when
the timed call starts; the worker reports that instant on the
system-wide monotonic clock so the parent can measure set-up from the
moment it spawned the process. The result is written as JSON to
``--result``; the exit code is 0 only when the run passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _blas_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    threads = {key: os.environ.get(key, "unset (library default)")
               for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                           "MKL_NUM_THREADS")}
    return {"name": blas.get("name", "unknown"),
            "version": blas.get("version", "unknown"),
            "threads": threads}


def _run(args, result: dict) -> bool:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np

    import workloads

    result["numpy"] = np.__version__
    result["blas"] = _blas_info(np)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    job = workloads.prepare(args.workload, args.seed, args.size, workdir)
    result["work"] = job.work
    recorder = uninstall = None
    if args.trace:
        import tracer

        recorder = tracer.SpanRecorder()
        uninstall = tracer.install(recorder)
    result["timed_start_monotonic"] = time.monotonic()
    if args.setup_only:
        return True
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    root = recorder.begin("harness.protocol") if recorder else None
    try:
        outcome = job.run()
    finally:
        if recorder:
            recorder.end(root)
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - cpu0
        if uninstall:
            uninstall()
    if recorder:
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (traces / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(recorder.columns()))
        result["layers"] = {"spans": recorder.summary(),
                           "counters": dict(recorder.counters),
                           "minima": recorder.minima,
                           "span_count": len(recorder.names),
                           "root_s": recorder.ends[root] - recorder.starts[root],
                           "self_sum_s": float(recorder.self_times().sum())}
    failures, digests = job.check(outcome)
    result["failures"] = failures
    result["digests"] = digests
    return not failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result: dict = {"workload": args.workload, "seed": args.seed,
                    "trace": args.trace, "setup_only": args.setup_only,
                    "failures": []}
    try:
        ok = _run(args, result)
    except Exception:  # noqa: BLE001 - reported to the parent as a failure
        result["failures"] = result.get("failures", []) + [
            traceback.format_exc()]
        ok = False
    # ru_maxrss is in KiB on Linux; MB here is 10^6 bytes.
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    Path(args.result).write_text(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
