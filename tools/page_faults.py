"""Time protocol runs through the CLI and count their minor page faults.

    python3 tools/page_faults.py [--repeat N] --run COMMAND CONFIG SEED
                                 [--run COMMAND CONFIG SEED ...]

Runs each ``obayes COMMAND --config CONFIG --seed SEED`` through
``obayes.harness.cli.main`` in this one process, in the order given, and
the whole list N times (default 1). Prints one ``round command config
seed exit wall_s minflt maxrss_mb`` line per call: its exit code, its
wall time, the growth of the process's minor page faults (``ru_minflt``)
across it, and the process's peak resident set size so far
(``ru_maxrss``, which Linux gives in KiB, as MB of 10^6 bytes), then
the sums and the peak. The first round shows what a fresh interpreter faults in;
later rounds show what one that has already run the list keeps faulting.
Outputs go to a temporary directory, and the CLI's own messages to
standard error. Run it from the root of a source checkout; it imports the
``obayes`` sources under ``src/`` and needs a platform with ``resource``.
"""

from __future__ import annotations

import argparse
import contextlib
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from obayes.harness.cli import main as obayes_main  # noqa: E402


def _usage() -> tuple[int, float]:
    """Minor page faults and peak resident set size (MB) so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_minflt, usage.ru_maxrss * 1024 / 1e6


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Wall time and minor page faults of protocol runs.")
    parser.add_argument("--run", nargs=3, action="append", required=True,
                        metavar=("COMMAND", "CONFIG", "SEED"))
    parser.add_argument("--repeat", type=int, default=1, metavar="N")
    args = parser.parse_args(argv)
    status = 0
    total_s, total_faults = 0.0, 0
    print("round command config seed exit wall_s minflt maxrss_mb")
    with tempfile.TemporaryDirectory() as workdir:
        for rnd in range(args.repeat):
            for i, (command, config, seed) in enumerate(args.run):
                out = Path(workdir) / f"{rnd}-{i}-{command}"
                argv = [command, "--config", config, "--seed", seed,
                        "--out", str(out)]
                faults, start = _usage()[0], time.perf_counter()
                with contextlib.redirect_stdout(sys.stderr):
                    code = obayes_main(argv)
                wall = time.perf_counter() - start
                faults, peak = _usage()[0] - faults, _usage()[1]
                total_s += wall
                total_faults += faults
                status = status or int(code != 0)
                print(f"{rnd} {command} {config} {seed} {code} "
                      f"{wall:.4f} {faults} {peak:.2f}")
    print(f"total - - - - {total_s:.4f} {total_faults} {_usage()[1]:.2f}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
