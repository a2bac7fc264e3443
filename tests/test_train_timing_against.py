"""tools/train_timing.py --against: interleaved pairs with another mlp.py."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "train_timing.py"


def test_against_the_checkout_itself_gives_the_same_bits_and_calls():
    run = subprocess.run([sys.executable, str(TOOL), "--repeat", "2",
                          "--epochs", "3", "--against", str(ROOT)],
                         capture_output=True, text=True, timeout=120,
                         check=True)
    lines = [json.loads(line) for line in run.stdout.splitlines()]
    assert [(r["k"], r["n"]) for r in lines] == [
        (1, 1), (1, 10), (1, 19), (3, 20), (3, 30), (3, 39),
        (4, 8), (4, 16), (4, 24), (11, 50)]
    for r in lines:
        assert r["bit_equal"] is True
        assert r["ms"] > 0 and r["against_ms"] > 0
        # The ratio is taken before the medians are rounded to microseconds.
        assert r["ratio"] == pytest.approx(r["ms"] / r["against_ms"],
                                           rel=1e-2)
        assert 0 <= r["wins"] + r["against_wins"] <= 2
        assert r["grad_calls"] == r["against_grad_calls"]
        assert r["loss_calls"] == r["against_loss_calls"]


def test_against_a_directory_without_mlp_fails(tmp_path):
    run = subprocess.run([sys.executable, str(TOOL), "--against",
                          str(tmp_path)], capture_output=True, text=True,
                         timeout=60)
    assert run.returncode != 0 and run.stdout == ""
    assert "mlp.py" in run.stderr
