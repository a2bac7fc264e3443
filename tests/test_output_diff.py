"""tools/output_diff.py: per-(run, metric) differences of two output trees."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "output_diff",
    Path(__file__).resolve().parents[1] / "tools" / "output_diff.py")
output_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_diff)

HEADER = "metric,name,value,trial,sub_trial,step,n,strategy,branch,flag\n"


def _tree(root: Path, tc: str, step: str = "1", joint=(1.5, [2.0, 0.25])):
    run = root / "seed-0" / "repeated-pool-seed-0"
    run.mkdir(parents=True)
    (run / "metrics.csv").write_text(
        HEADER + f"total_correlation,,{tc},0,,{step},,bald,,\n"
        "accuracy,,0.5,0,,1,,bald,,\n"
        "cross_entropy,,inf,0,,1,,bald,,collapse\n")
    (root / "joint-metrics-seed-0.json").write_text(
        json.dumps({"tc": [joint[0]], "joint_mc": [joint[1]]}))
    return root


def test_identical_trees_exit_zero(tmp_path, capsys):
    a, b = _tree(tmp_path / "a", "0.25"), _tree(tmp_path / "b", "0.25")
    assert output_diff.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == ""


def test_names_each_moved_group(tmp_path, capsys):
    a = _tree(tmp_path / "a", "0.25")
    b = _tree(tmp_path / "b", "0.5", joint=(1.5, [2.0, 0.125]))
    assert output_diff.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "seed-0/repeated-pool-seed-0/metrics.csv total_correlation: "
        "max abs 0.25, max rel 0.5",
        "joint-metrics-seed-0.json joint_mc: max abs 0.125, max rel 0.5"]


def test_moved_coordinates_are_not_value_changes(tmp_path, capsys):
    a = _tree(tmp_path / "a", "0.25")
    b = _tree(tmp_path / "b", "0.25", step="2")
    assert output_diff.main([str(a), str(b)]) == 1
    assert "rows differ beyond their values" in capsys.readouterr().out


SEQUENCE = ("step,pool_index,original_index,y,score,strategy,seed,"
            "fallback\n")


def _sequences(root: Path, picks=(3, 7), scores=("0.5", "0.25")):
    cli = root / "seed-0" / "cli"
    cli.mkdir(parents=True)
    for strategy in ("bald", "epig"):
        rows = "".join(f"{i},{p},{p},1,{s},{strategy},0,0\n"
                       for i, (p, s) in enumerate(zip(picks, scores)))
        (cli / f"acquire-{strategy}-seed-0-sequence.csv").write_text(
            SEQUENCE + rows)
    return root


def test_sequence_scores_are_compared_and_summarized(tmp_path, capsys):
    a = _sequences(tmp_path / "a")
    b = _sequences(tmp_path / "b", scores=("0.5", "0.125"))
    assert output_diff.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "seed-0/cli/acquire-bald-seed-0-sequence.csv score: max abs 0.125, "
        "max rel 0.5",
        "seed-0/cli/acquire-epig-seed-0-sequence.csv score: max abs 0.125, "
        "max rel 0.5",
        "largest sequence score difference: 0.125"]


def test_changed_picks_are_named(tmp_path, capsys):
    a = _sequences(tmp_path / "a")
    b = _sequences(tmp_path / "b", picks=(3, 8))
    assert output_diff.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "seed-0/cli/acquire-bald-seed-0-sequence.csv: pool_index differs",
        "seed-0/cli/acquire-epig-seed-0-sequence.csv: pool_index differs"]


@pytest.mark.parametrize("old, new, gaps", [
    ([1.0, float("inf")], [1.0, float("inf")], (0.0, 0.0)),
    ([float("inf")], [3.0], (float("inf"), float("inf"))),
    ([0.0, -2.0], [0.0, -3.0], (1.0, 1 / 3)),
])
def test_gaps(old, new, gaps):
    assert output_diff._gaps(old, new) == pytest.approx(gaps)
