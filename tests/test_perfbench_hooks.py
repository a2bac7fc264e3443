"""The benchmark's span tracer still finds every public function it wraps.

perfbench/tracer.py rebinds obayes functions by module and name and reads
some of their parameters by name, so a rename under src/ would otherwise
surface only when the benchmark runs with tracing on.
"""

import importlib
import inspect
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracer  # noqa: E402
from obayes import acquisition, predictive  # noqa: E402
from obayes.data import Dataset  # noqa: E402


def _parameters_read(hook) -> set:
    """Argument names a tracer hook reads, written as args["name"]."""
    return set(re.findall(r'args\["(\w+)"\]', inspect.getsource(hook)))


def test_every_target_keeps_the_parameters_its_hook_reads():
    read = set()
    for module_name, attr, _, on_result, _ in tracer.TARGETS:
        fn = getattr(importlib.import_module(module_name), attr)
        if on_result is None:
            continue
        wanted = _parameters_read(on_result)
        missing = wanted - set(inspect.signature(fn).parameters)
        assert not missing, f"{module_name}.{attr} lacks {sorted(missing)}"
        read |= wanted
    # Guards the source scan itself: every hooked parameter was found.
    assert read == {"state", "pool", "pool_xs", "eval_xs", "allowed",
                    "ensemble", "xs", "num_draws", "records"}


def test_install_records_spans_and_uninstall_restores(coin_ensemble, coin_x):
    originals = (acquisition.active_sampling_scores,
                 acquisition.forward_log_probs, predictive.marginal_log_probs)
    recorder = tracer.SpanRecorder()
    uninstall = tracer.install(recorder)
    try:
        pool = Dataset(xs=np.tile(coin_x, (2, 1)), ys=[0, 1], num_classes=2)
        acquisition.active_sampling_scores(coin_ensemble, pool, pool)
        acquisition.batch_bald_gains(coin_ensemble, pool.xs, [], allowed=[1])
    finally:
        uninstall()
    spans = recorder.summary()
    assert spans["acquisition.active_sampling"]["calls"] == 1
    assert spans["acquisition.batch_bald"]["calls"] == 1
    assert spans["models.forward"]["calls"] >= 3
    assert recorder.counters["acquisition.active_sampling.candidates"] == 2
    assert recorder.counters["acquisition.batch_bald.candidates"] == 1
    assert (acquisition.active_sampling_scores,
            acquisition.forward_log_probs,
            predictive.marginal_log_probs) == originals
