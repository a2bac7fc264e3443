"""The benchmark's workloads still run on the obayes sources.

perfbench/workloads.py drives the CLI entry point and calls the library
API with fixed signatures, so a change to one of them would otherwise
surface only as a failed benchmark run. Both workloads run here, in this
process, at their tiny sizes, and their own checks must pass.
"""

import contextlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import JointMetricsJob, ProtocolsJob  # noqa: E402


def test_protocols_workload_passes_its_checks(tmp_path):
    job = ProtocolsJob(5, "tiny", tmp_path)
    # The CLI reports each run on stdout, as in tools/protocol_digests.py.
    with contextlib.redirect_stdout(sys.stderr):
        codes = job.run()
    failures, digests = job.check(codes)
    assert failures == []
    assert sorted(digests) == sorted(label for label, *_ in job.calls)


def test_joint_metrics_workload_passes_its_checks():
    job = JointMetricsJob(5, "tiny")
    failures, digests = job.check(job.run())
    assert failures == []
    assert list(digests) == ["outputs"]
