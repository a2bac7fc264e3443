"""Output bits at seed 0 against the committed golden digests.

`tools/protocol_digests.py 0` runs the benchmark's protocols, the small
grid, gap and CLI runs, the joint metrics, the grid checkpoint and the
flag runs, and prints one sha256 per output;
tests/data/protocol_digests.txt holds the lines it printed when they were
last meant to change. Digests belong to one numpy and BLAS stack, so on
another stack the digest test skips and names both. The flag runs' own
CSVs are read on any stack: they must carry the fallback and collapse
flags, and a collapsed sub-trial an ESS of 0.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import GOLDEN_DIGESTS, golden_stack, numeric_stack
from obayes.harness.io import read_records

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def seed_0_run(tmp_path_factory):
    """The tool's run at seed 0, and the directory that keeps its
    seed-0 outputs."""
    keep = tmp_path_factory.mktemp("digests")
    run = subprocess.run([sys.executable, "tools/protocol_digests.py",
                          "--keep", str(keep), "0"],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    return run, keep / "seed-0"


def _digests(lines) -> dict:
    """{(label, file): sha256} of the tool's output lines."""
    out = {}
    for line in lines:
        if line.strip() and not line.startswith("#"):
            label, name, digest = line.split()
            out[label, name] = digest
    return out


def test_seed_0_outputs_match_the_golden_digests(seed_0_run):
    golden, here = golden_stack(), numeric_stack()
    if golden != here:
        pytest.skip(f"digests recorded on {golden}; this is {here}")
    run, _ = seed_0_run
    assert run.returncode == 0, run.stderr[-2000:]
    expected = GOLDEN_DIGESTS.read_text().splitlines()
    got = run.stdout.splitlines()
    want, have = _digests(expected), _digests(got)
    differ = sorted(" ".join(key) for key in want.keys() | have.keys()
                    if want.get(key) != have.get(key))
    assert not differ, "outputs whose digest moved: " + ", ".join(differ)
    # The same outputs, in the tool's run order.
    assert got == [line for line in expected if not line.startswith("#")]


def test_flag_runs_write_fallback_and_collapse(seed_0_run):
    run, outputs = seed_0_run
    assert run.returncode == 0, run.stderr[-2000:]
    obi_eval = read_records(outputs / "flags-obi-eval-seed-0" / "metrics.csv")
    collapsed = [r.value for r in obi_eval
                 if r.metric == "ess" and r.flag == "collapse"]
    assert collapsed and set(collapsed) == {0.0}
    al_obi = read_records(outputs / "flags-al-obi-seed-0" / "metrics.csv")
    assert {(r.metric, r.flag) for r in al_obi if r.flag} == \
        {("acquired_pool_index", "fallback"), ("cross_entropy", "collapse")}
