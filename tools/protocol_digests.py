"""Print the sha256 of every output the benchmark's workloads produce.

    python3 tools/protocol_digests.py [--keep DIR] SEED [SEED ...]

Runs ``perfbench.workloads.ProtocolsJob`` (obi-eval, al-obi and
repeated-pool at the benchmark's full sizes) in this process for each
seed, and prints one ``label file sha256`` line per CSV, in run order;
the CLI's own messages go to standard error. A protocol run whose label
an earlier seed already ran (repeated-pool runs at root seeds SEED to
SEED+4) is skipped, so each label runs and prints once. Then runs
``perfbench.workloads.JointMetricsJob`` at full size for the seed and
prints its ``outputs`` digest (the sha256 of every estimator value, from
``JointMetricsJob.check``) as ``joint-metrics-seed-SEED outputs sha256``.
Two checkouts produce the same bits when their outputs compare equal
under ``diff``. Run it from the root of a source checkout; it imports the
``obayes`` sources under ``src/`` and only imports the workload module.
Exits 1 if any run fails the workload's own checks.

With ``--keep DIR`` the outputs stay in DIR: each seed's protocol runs
(without the skipped ones) under ``DIR/seed-SEED/`` and its joint-metrics values, as JSON, in
``DIR/joint-metrics-seed-SEED.json``. ``tools/output_diff.py`` compares
two such directories value by value.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import JointMetricsJob, ProtocolsJob  # noqa: E402


def _workdir(keep: Path | None, seed: int):
    if keep is None:
        return tempfile.TemporaryDirectory()
    path = keep / f"seed-{seed}"
    path.mkdir(parents=True, exist_ok=True)
    return contextlib.nullcontext(str(path))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Print the sha256 of every benchmark workload output.")
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="keep the outputs in DIR, for "
                        "tools/output_diff.py")
    parser.add_argument("seeds", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args(argv)
    status = 0
    done = set()
    for seed in args.seeds:
        with _workdir(args.keep, seed) as workdir:
            job = ProtocolsJob(seed, "full", Path(workdir))
            job.calls = [call for call in job.calls if call[0] not in done]
            done.update(label for label, *_ in job.calls)
            # The CLI reports each run on stdout; keep stdout for digests.
            with contextlib.redirect_stdout(sys.stderr):
                codes = job.run()
            failures, digests = job.check(codes)
        joint = JointMetricsJob(seed, "full")
        outputs = joint.run()
        joint_failures, joint_digests = joint.check(outputs)
        if args.keep is not None:
            (args.keep / f"joint-metrics-seed-{seed}.json").write_text(
                json.dumps(outputs, indent=1) + "\n")
        digests[f"joint-metrics seed {seed}"] = joint_digests
        for failure in failures + joint_failures:
            print(f"seed {seed}: {failure}", file=sys.stderr)
            status = 1
        for label, files in digests.items():
            for name, digest in files.items():
                print(f"{label.replace(' ', '-')} {name} {digest}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
