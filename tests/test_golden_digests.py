"""Output bits at seed 0 against the committed golden digests.

`tools/protocol_digests.py 0` runs the benchmark's protocols, the small
grid, gap and CLI runs, the joint metrics and the grid checkpoint, and
prints one sha256 per output; tests/data/protocol_digests.txt holds the
lines it printed when they were last meant to change. Digests belong to
one numpy and BLAS stack, so on another stack the test skips and names
both.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import GOLDEN_DIGESTS, golden_stack, numeric_stack

ROOT = Path(__file__).resolve().parents[1]


def _digests(lines) -> dict:
    """{(label, file): sha256} of the tool's output lines."""
    out = {}
    for line in lines:
        if line.strip() and not line.startswith("#"):
            label, name, digest = line.split()
            out[label, name] = digest
    return out


def test_seed_0_outputs_match_the_golden_digests():
    golden, here = golden_stack(), numeric_stack()
    if golden != here:
        pytest.skip(f"digests recorded on {golden}; this is {here}")
    run = subprocess.run([sys.executable, "tools/protocol_digests.py", "0"],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    expected = GOLDEN_DIGESTS.read_text().splitlines()
    got = run.stdout.splitlines()
    want, have = _digests(expected), _digests(got)
    differ = sorted(" ".join(key) for key in want.keys() | have.keys()
                    if want.get(key) != have.get(key))
    assert not differ, "outputs whose digest moved: " + ", ".join(differ)
    # The same outputs, in the tool's run order.
    assert got == [line for line in expected if not line.startswith("#")]
