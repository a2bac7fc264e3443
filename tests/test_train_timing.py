"""tools/train_timing.py: one JSON line per protocol group shape."""

import json
import math
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "train_timing.py"


def test_tiny_run_prints_every_shape():
    run = subprocess.run([sys.executable, str(TOOL), "--repeat", "1",
                          "--epochs", "3"], capture_output=True, text=True,
                         timeout=120, check=True)
    lines = [json.loads(line) for line in run.stdout.splitlines()]
    assert [(r["k"], r["n"]) for r in lines] == [
        (1, 1), (1, 10), (1, 19), (3, 20), (3, 30), (3, 39),
        (4, 8), (4, 16), (4, 24), (11, 50)]
    for r in lines:
        assert r["epochs"] == 3 and r["ms"] > 0
        # Three epochs are too few to stop early: every epoch's batches,
        # and one loss call before training and one per window of
        # W = min(16, 1024 // (K n)) epochs, or per epoch when W is 1
        # (the K = 11 fits of 50 rows).
        assert r["grad_calls"] == 3 * math.ceil(r["n"] / 32)
        width = max(1, min(16, 1024 // (r["k"] * r["n"])))
        assert r["loss_calls"] == 1 + math.ceil(r["epochs"] / width)
