"""Tests of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((PERFBENCH / "layer_map.json").read_text())

# Per-layer metrics each workload must exercise (non-zero in a traced run).
EXERCISED = {
    "protocols": ["models.train.calls", "models.grad.calls",
                  "models.loss.calls", "models.forward.rows",
                  "models.forward.mb_computed", "obi.observe.examples",
                  "obi.bootstrap.calls", "obi.predict.s", "obi.ess_min",
                  "acquisition.active_sampling.candidates",
                  "acquisition.epig.pairs",
                  "acquisition.batch_bald.candidates",
                  "acquisition.bald.calls", "acquisition.run.calls",
                  "predictive.marginal.calls",
                  "predictive.joint_exact.assignments", "infometrics.tc.calls",
                  "numerics.lse_axis.calls", "numerics.ess.calls",
                  "data.generate.s", "harness.emit.bytes", "harness.records"],
    "joint-metrics": ["infometrics.sequence_ce.calls", "infometrics.oll.calls",
                      "infometrics.tc.calls", "predictive.joint_log_prob.calls",
                      "predictive.joint_exact.assignments",
                      "predictive.joint_mc.draws", "models.forward.calls",
                      "obi.observe.calls"],
}


def _run(workload, trace, cwd=ROOT, script=PERFBENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_names_in_benchmark_json_match_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert set(LAYER_MAP["workloads"]) == set(workloads.NAMES)
    for metric in SPEC["per_layer"]:
        assert run.layer_metric_known(metric["name"]), metric["name"]
    mapped = {m for layer in LAYER_MAP["layers"].values()
              for m in layer["metrics"]}
    assert mapped == {m["name"] for m in SPEC["per_layer"]}
    assert {m for names in EXERCISED.values() for m in names} <= mapped


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_workload_emits_every_end_to_end_metric(workload):
    result = _result(_run(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_TIMED_RUNS
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert list(result["metrics"]) == list(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert metric["value"] > 0, name


def test_all_runs_every_workload_in_one_command():
    result = _result(_run("all", trace=0))
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [
        f"{w}.{m['name']}" for w in workloads.NAMES
        for m in SPEC["end_to_end"]]


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_run_emits_every_per_layer_metric(workload):
    result = _result(_run(workload, trace=1))
    assert result["correct"] and result["failed"] == 0
    expected = [m["name"] for m in SPEC["per_layer"]]
    assert list(result["metrics"]) == expected
    for name in EXERCISED[workload]:
        assert result["metrics"][name]["value"] > 0, name
    assert result["metrics"]["harness.protocol.s"]["value"] > 0


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_span_self_times_sum_to_the_root_span(workload, tmp_path):
    out = tmp_path / "result.json"
    subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload,
         "--seed", "2", "--size", "tiny", "--workdir", str(tmp_path / "w"),
         "--result", str(out), "--trace"],
        cwd=ROOT, check=True, timeout=120)
    layers = json.loads(out.read_text())["layers"]
    assert layers["span_count"] > 10
    assert layers["self_sum_s"] == pytest.approx(layers["root_s"], rel=1e-9,
                                                 abs=1e-9)
    spans = layers["spans"]
    assert spans["harness.protocol"]["calls"] == 1
    assert all(entry["self_s"] >= -1e-9 for entry in spans.values())


def test_recorder_self_time_and_uninstall():
    import obayes.numerics as numerics
    import obayes.predictive as predictive

    rec = tracer.SpanRecorder()
    original = predictive.log_sum_exp_axis
    undo = tracer.install(rec)
    try:
        assert predictive.log_sum_exp_axis is not original
        assert numerics.log_sum_exp_axis is predictive.log_sum_exp_axis
        root = rec.begin("harness.protocol")
        predictive.log_sum_exp_axis(numerics.np.zeros((3, 2)), axis=0)
        rec.end(root)
    finally:
        undo()
    assert predictive.log_sum_exp_axis is original
    summary = rec.summary()
    assert summary["numerics.lse_axis"]["calls"] == 1
    assert rec.self_times().sum() == pytest.approx(
        rec.ends[root] - rec.starts[root], rel=1e-12)


def test_tracing_leaves_outputs_byte_identical(tmp_path):
    digests = []
    for trace in ([], ["--trace"]):
        out = tmp_path / f"result{len(trace)}.json"
        subprocess.run(
            [sys.executable, str(PERFBENCH / "worker.py"), "--workload",
             "protocols", "--seed", "4", "--size", "tiny", "--workdir",
             str(tmp_path / f"w{len(trace)}"), "--result", str(out), *trace],
            cwd=ROOT, check=True, timeout=120)
        digests.append(json.loads(out.read_text())["digests"])
    assert digests[0] == digests[1]
    assert set(digests[0]) == {"obi-eval seed 4", "al-obi seed 4",
                               "repeated-pool seed 4", "repeated-pool seed 5"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("protocols", trace=0, cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
