"""tools/train_timing.py --against: interleaved pairs with another mlp.py."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
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


def test_group_uses_the_classes_of_the_module_it_is_given():
    # A side's arguments come from its own mlp.py, so a parent whose
    # TrainConfig has other fields pairs with this checkout.
    spec = importlib.util.spec_from_file_location("train_timing", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    class Arch(tool.mlp.MlpArchitecture):
        pass

    class Config(tool.mlp.TrainConfig):
        pass

    side = SimpleNamespace(MlpArchitecture=Arch, TrainConfig=Config)
    trains, arch, cfgs, streams, members = tool._group(side, 3, 20, 64, 7,
                                                       1.0)
    assert type(arch) is Arch and arch.hidden == 64
    assert [(type(c), c.epochs) for c in cfgs] == [(Config, 7)] * 3
    ours = tool._group(tool.mlp, 3, 20, 64, 7, 1.0)
    assert type(ours[1]) is tool.mlp.MlpArchitecture
    for a, b in zip(trains, ours[0]):
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
    assert streams == ours[3]
    assert members == ours[4] == ["0", "1", "2"]
