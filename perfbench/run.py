"""obayes benchmark: one workload, measured in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/obayes`` and
``BENCHMARK.json`` must be there). Workloads: protocols (obi-eval, al-obi
and repeated-pool through the CLI), joint-metrics (library API), or ``all``
to run both in turn (see perfbench/layer_map.json for why each exists and
which layer metric should move which end-to-end metric).

Every workload run is a fresh interpreter started by this script, one at a
time: the next starts only after the previous has exited. Runs repeat the
same seed until the next one would end past ``--seconds``, with at least
two, so a same-seed rerun is always compared byte for byte.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians of
wall time, work per second and peak RSS over the timed runs, and the median
set-up time over the timed runs plus set-up-only runs (at least five
samples). The report also prints ``error_rate``, failed over attempted
runs; it is not a BENCHMARK.json metric because it reads 0 when nothing
fails, and ``attempted``/``failed`` carry it. ``--trace 1`` alternates
untraced and traced runs and reports the per-layer metrics from the traced
ones, where spans are recorded around obayes' public functions by
perfbench/tracer.py.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report and the environment stamp, also written to
``.perfbench/results/``. The exit code is 0 when every run passed its
checks, 1 when one failed, and 2 when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_TIMED_RUNS = 2
SETUP_SAMPLES = 5
# The whole invocation must end within 180 s; child timeouts shrink so
# that the last one still fits.
TOTAL_LIMIT_S = 170.0
MACHINE_NOTE = ("No machine setting (kernel, cgroups, CPU frequency, "
                "affinity, BLAS thread count) was changed to obtain these "
                "numbers.")
DERIVED_LAYER_METRICS = ("harness.cpu_s", "harness.trace_overhead_s")


class CheckoutError(RuntimeError):
    """The directory cannot be benchmarked; maps to exit code 2."""


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "obayes" / "__init__.py").is_file():
        raise CheckoutError(f"no obayes sources under {ROOT / 'src'}")
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as err:
        raise CheckoutError(f"cannot read {path}: {err}") from err
    unknown = [m["name"] for m in spec["per_layer"]
               if not layer_metric_known(m["name"])]
    if unknown:
        raise CheckoutError(f"per-layer metrics with no source: {unknown}")
    return spec


def layer_metric_known(name: str) -> bool:
    """Whether a traced run can produce the per-layer metric ``name``."""
    if name in DERIVED_LAYER_METRICS or name in tracer.COUNTERS \
            or name in tracer.MINIMA:
        return True
    span, _, field = name.rpartition(".")
    return field in ("calls", "s", "self_s") and span in tracer.SPAN_NAMES


def environment(seed: int) -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    affinity = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else None
    return {"nproc": os.cpu_count(), "usable_cpus": affinity,
            "cpu_model": cpu_model, "python": platform.python_version(),
            "platform": platform.platform(), "git": git_revision(),
            "workload_seed": seed, "note": MACHINE_NOTE}


def git_revision() -> dict:
    unknown = {"revision": "unknown", "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=20)

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return unknown
        rev = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.SubprocessError):
        return unknown
    if rev.returncode != 0 or status.returncode != 0:
        return unknown
    return {"revision": rev.stdout.strip(), "dirty": bool(status.stdout.strip())}


class Runner:
    """Spawns worker processes one at a time and keeps their results."""

    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.workdir = ROOT / ".perfbench" / "work" / (
            f"{args.workload}-{args.seed}-{os.getpid()}")
        self.results: list = []

    def spawn(self, trace: bool = False, setup_only: bool = False) -> dict:
        idx = len(self.results)
        child_dir = self.workdir / f"run-{idx}"
        result_path = self.workdir / f"run-{idx}.json"
        cmd = [sys.executable, str(WORKER), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--size", self.args.size,
               "--workdir", str(child_dir), "--result", str(result_path)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        timeout = max(5.0, TOTAL_LIMIT_S - (time.monotonic() - self.started))
        self.workdir.mkdir(parents=True, exist_ok=True)
        spawned = time.monotonic()
        try:
            # run() kills the child on timeout and waits for it to end.
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
            code, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            code, stderr = None, f"killed after {timeout:.0f} s"
        ended = time.monotonic()
        try:
            res = json.loads(result_path.read_text())
        except (OSError, ValueError):
            res = {"failures": []}
        res.update(exit_code=code, trace=trace, setup_only=setup_only,
                   elapsed_s=ended - spawned)
        if "timed_start_monotonic" in res:
            res["setup_s"] = res["timed_start_monotonic"] - spawned
        if code != 0 and not res["failures"]:
            res["failures"].append(f"exit code {code}: {stderr[-2000:]}")
        shutil.rmtree(child_dir, ignore_errors=True)
        result_path.unlink(missing_ok=True)
        self.results.append(res)
        return res

    def time_left(self, deadline: float, next_cost: float) -> bool:
        now = time.monotonic()
        return now + next_cost <= deadline and \
            now + next_cost <= self.started + TOTAL_LIMIT_S

    def measure(self) -> None:
        deadline = self.started + self.args.seconds
        if self.args.trace:
            while True:
                pair = [self.spawn(trace=False), self.spawn(trace=True)]
                cost = sum(r["elapsed_s"] for r in pair)
                if not self.time_left(deadline, cost):
                    break
            return
        while True:
            res = self.spawn()
            timed = [r for r in self.results if not r["setup_only"]]
            if len(timed) >= MIN_TIMED_RUNS and \
                    not self.time_left(deadline, res["elapsed_s"]):
                break
        while len([r for r in self.results if "setup_s" in r]) \
                < SETUP_SAMPLES:
            res = self.spawn(setup_only=True)
            if "setup_s" not in res:
                break

    def check_reruns(self) -> None:
        """Same-seed runs must produce identical output digests."""
        reference = None
        for res in self.results:
            digests = res.get("digests")
            if not digests:
                continue
            if reference is None:
                reference = digests
            elif digests != reference:
                res["failures"].append(
                    "output differs from the first same-seed run")


def _median(values) -> float:
    values = [float(v) for v in values]
    return statistics.median(values) if values else 0.0


def _spread(values) -> dict:
    values = [float(v) for v in values]
    if not values:
        return {"n": 0}
    return {"n": len(values), "median": statistics.median(values),
            "min": min(values), "max": max(values), "values": values}


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    timed = [r for r in runner.results
             if not r["setup_only"] and not r["trace"] and "wall_s" in r]
    passed = [r for r in timed if not r["failures"]] or timed
    samples = {
        "wall_s": [r["wall_s"] for r in passed],
        "work_per_s": [r["work"] / r["wall_s"] for r in passed],
        "setup_s": [r["setup_s"] for r in runner.results
                    if "setup_s" in r and not r["trace"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in passed],
        "cpu_s": [r["cpu_s"] for r in passed],
    }
    values = {name: _median(v) for name, v in samples.items()}
    return values, {name: _spread(v) for name, v in samples.items()}


def layer_value(name: str, layers: dict) -> float:
    if name in layers["counters"]:
        return float(layers["counters"][name])
    if name in tracer.MINIMA:
        # No observation on this workload: reported as 0.
        return float(layers["minima"].get(name, 0.0))
    span, _, field = name.rpartition(".")
    return float(layers["spans"].get(span, {}).get(field, 0.0))


def per_layer(runner: Runner, names) -> tuple[dict, dict]:
    traced = [r for r in runner.results if r["trace"] and "layers" in r]
    plain = [r for r in runner.results
             if not r["trace"] and not r["setup_only"] and "wall_s" in r]
    # Runs alternate untraced, traced; pairing neighbours cancels most of
    # the machine's drift in speed from the overhead estimate.
    overhead = _median(t["wall_s"] - p["wall_s"]
                       for p, t in zip(plain, traced))
    values = {}
    for name in names:
        if name == "harness.cpu_s":
            values[name] = _median(r["cpu_s"] for r in plain)
        elif name == "harness.trace_overhead_s":
            values[name] = overhead
        else:
            values[name] = _median(layer_value(name, r["layers"])
                                   for r in traced)
    spans = {"root_s": _median(r["layers"]["root_s"] for r in traced),
             "self_sum_s": _median(r["layers"]["self_sum_s"] for r in traced),
             "span_count": _median(r["layers"]["span_count"] for r in traced),
             "traced_runs": len(traced), "untraced_runs": len(plain)}
    return values, spans


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark one obayes workload.")
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at toy sizes (tests)")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be a non-negative 64-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def bench(args, spec: dict) -> dict:
    """Measure one workload, print its report and return its result."""
    runner = Runner(args)
    runner.measure()
    runner.check_reruns()
    shutil.rmtree(runner.workdir, ignore_errors=True)
    attempted = len(runner.results)
    failed = sum(1 for r in runner.results if r["failures"])
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values, detail = per_layer(runner, names)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        all_values, detail = end_to_end(runner)
        values = {name: all_values[name] for name in names}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    first = next((r for r in runner.results if "numpy" in r), {})
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "seconds": args.seconds,
        "work_unit": workloads.WORK_UNITS[args.workload],
        "closed_loop": "one run at a time, each in a fresh interpreter",
        "workload_config": workloads.describe(args.workload, args.size),
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "metrics": values, "samples": detail,
        "failures": [f for r in runner.results for f in r["failures"]],
        "digests": [r["digests"] for r in runner.results if "digests" in r][:1],
        "environment": dict(environment(args.seed),
                            numpy=first.get("numpy", "unknown"),
                            blas=first.get("blas", "unknown")),
    }
    _print_report(report, units)
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in names}}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_benchmark()
    except CheckoutError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    # Fill the bytecode cache so no timed run pays for compiling.
    for directory in (ROOT / "src", HERE):
        compileall.compile_dir(str(directory), quiet=1)
    if args.workload != "all":
        result = bench(args, spec)
    else:
        results = {}
        for name in workloads.NAMES:
            results[name] = bench(argparse.Namespace(**dict(
                vars(args), workload=name)), spec)
            print(f"result {name}: " + json.dumps(results[name]))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _print_report(report: dict, units: dict) -> None:
    print(f"perfbench {report['workload']} seed={report['seed']} "
          f"trace={report['trace']} size={report['size']}: "
          f"{report['attempted']} runs, {report['failed']} failed "
          f"(work unit: {report['work_unit']})")
    samples = report["samples"]
    for name, value in report["metrics"].items():
        s = samples.get(name)
        extra = ""
        if isinstance(s, dict) and s.get("n"):
            extra = (f"  median of n={s['n']} (min {s['min']:.6g}, "
                     f"max {s['max']:.6g})")
        print(f"  {name:<44} {value:>14.6g} {units[name]}{extra}")
    print(f"  {'error_rate':<44} {report['error_rate']:>14.6g} ratio  "
          f"{report['failed']}/{report['attempted']} runs failed")
    for line in report["failures"]:
        print(f"  FAILED: {line}")
    print("report: " + json.dumps({k: report[k] for k in
                                   ("environment", "digests", "samples")},
                                  sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
