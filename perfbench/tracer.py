"""In-memory span recorder and the wrappers that feed it.

A span is (name, start, end, parent). Spans live in a list while the
traced process runs and are summarised once at the end: per name the
call count, the inclusive time and the self time (duration minus the
time covered by direct child spans), plus named counters that the
wrappers derive from arguments and results.

Wrappers are installed by rebinding a function's name in every loaded
``obayes`` module that refers to it, including the module that defines
it, so calls made through any import path are seen. Nothing under
``src/`` is edited; ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np


class SpanRecorder:
    """Nested spans on one thread, kept in memory until ``summary``."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.counters = defaultdict(float)
        self.minima: dict = {}
        self._stack: list = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(None)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("spans closed out of order")

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] += amount

    def track_min(self, key: str, value: float) -> None:
        if key not in self.minima or value < self.minima[key]:
            self.minima[key] = float(value)

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        """``fn`` recorded as span ``name``.

        ``on_result(recorder, bound_args, result)`` and
        ``on_error(recorder, exc)`` add counters; arguments are bound to
        the signature only when ``on_result`` needs them.
        """
        signature = inspect.signature(fn) if on_result else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.end(idx)
                if on_error is not None:
                    on_error(self, exc)
                raise
            self.end(idx)
            if on_result is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_result(self, bound.arguments, result)
            return result

        return traced

    def durations(self) -> np.ndarray:
        if any(e is None for e in self.ends):
            raise RuntimeError("summary requested while spans are open")
        return np.array(self.ends) - np.array(self.starts)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        dur = self.durations()
        child = np.zeros_like(dur)
        parents = np.array(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur - child

    def summary(self) -> dict:
        """{name: {"calls", "s", "self_s"}}, times summed over calls.

        No target is reachable from a target of the same name, so the
        inclusive sums count no interval twice.
        """
        dur = self.durations()
        own = self.self_times()
        out: dict = {}
        for i, name in enumerate(self.names):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += float(dur[i])
            entry["self_s"] += float(own[i])
        return out

    def columns(self) -> dict:
        """Every span as parallel columns, for writing out after the run."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        return {"names": table, "name": [index[n] for n in self.names],
                "start": self.starts, "end": self.ends,
                "parent": self.parents}


def _rows_of(xs) -> int:
    return int(np.atleast_2d(np.asarray(xs, dtype=np.float64)).shape[0])


def _on_forward(rec, args, result):
    s, n, c = result.shape
    rec.count("models.forward.rows", s * n)
    rec.count("models.forward.mb_computed", s * n * c * 8 / 1e6)


def _on_observe(rec, args, result):
    rec.count("obi.observe.examples",
              result.num_observed - args["state"].num_observed)
    rec.track_min("obi.ess_min", result.ess)


def _on_collapse(rec, exc):
    if type(exc).__name__ == "PosteriorCollapseError":
        rec.count("obi.collapses")


def _on_active_sampling(rec, args, result):
    rec.count("acquisition.active_sampling.candidates", len(args["pool"]))


def _on_epig(rec, args, result):
    rec.count("acquisition.epig.pairs",
              _rows_of(args["pool_xs"]) * _rows_of(args["eval_xs"]))


def _on_batch_bald(rec, args, result):
    allowed = args["allowed"]
    rec.count("acquisition.batch_bald.candidates",
              len(result) if allowed is None else len(allowed))


def _on_joint_exact(rec, args, result):
    rec.count("predictive.joint_exact.assignments",
              args["ensemble"].num_classes ** _rows_of(args["xs"]))


def _on_joint_mc(rec, args, result):
    rec.count("predictive.joint_mc.draws", args["num_draws"])


def _on_emit(rec, args, result):
    rec.count("harness.emit.bytes", sum(p.stat().st_size for p in result))
    rec.count("harness.records", len(args["records"]))


# (defining module, function, span name, on_result, on_error)
TARGETS = (
    ("obayes.numerics", "log_sum_exp_axis", "numerics.lse_axis", None, None),
    ("obayes.numerics", "effective_sample_size", "numerics.ess", None, None),
    ("obayes.data", "generate_cluster_dataset", "data.generate", None, None),
    ("obayes.data", "duplicate_pool", "data.generate", None, None),
    ("obayes.models.mlp", "train_mc_dropout", "models.train", None, None),
    ("obayes.models.mlp", "train_deep_ensemble", "models.train", None, None),
    ("obayes.models.mlp", "mlp_gradient", "models.grad", None, None),
    ("obayes.models.mlp", "cross_entropy_loss", "models.loss", None, None),
    ("obayes.models.ensemble", "forward_log_probs", "models.forward",
     _on_forward, None),
    ("obayes.obi", "obi_observe_many", "obi.observe", _on_observe,
     _on_collapse),
    ("obayes.obi", "obi_bootstrap", "obi.bootstrap", None, None),
    ("obayes.obi", "obi_predict_batch", "obi.predict", None, None),
    ("obayes.acquisition", "active_sampling_scores",
     "acquisition.active_sampling", _on_active_sampling, None),
    ("obayes.acquisition", "epig_scores_singleton", "acquisition.epig",
     _on_epig, None),
    ("obayes.acquisition", "batch_bald_gains", "acquisition.batch_bald",
     _on_batch_bald, None),
    ("obayes.acquisition", "bald_scores", "acquisition.bald", None, None),
    ("obayes.acquisition", "run_acquisition", "acquisition.run", None, None),
    ("obayes.predictive", "marginal_log_probs", "predictive.marginal",
     None, None),
    ("obayes.predictive", "joint_log_prob", "predictive.joint_log_prob",
     None, None),
    ("obayes.predictive", "joint_entropy_exact", "predictive.joint_exact",
     _on_joint_exact, None),
    ("obayes.predictive", "joint_entropy_mc", "predictive.joint_mc",
     _on_joint_mc, None),
    ("obayes.infometrics", "joint_cross_entropy_sequence",
     "infometrics.sequence_ce", None, None),
    ("obayes.infometrics", "online_learning_loss", "infometrics.oll",
     None, None),
    ("obayes.infometrics", "total_correlation", "infometrics.tc", None, None),
    ("obayes.harness.io", "emit_results", "harness.emit", _on_emit, None),
)


def install(recorder: SpanRecorder, targets=TARGETS):
    """Rebind every target in each loaded obayes module; returns an undo."""
    for module_name, *_ in targets:
        importlib.import_module(module_name)
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "obayes"
                                     or name.startswith("obayes."))]
    undo = []
    for module_name, attr, span, on_result, on_error in targets:
        original = getattr(sys.modules[module_name], attr)
        wrapped = recorder.wrap(span, original, on_result, on_error)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    undo.append((module, key, original))
    if not undo:
        raise RuntimeError("no tracing target was found")

    def uninstall():
        for module, key, original in reversed(undo):
            setattr(module, key, original)

    return uninstall


SPAN_NAMES = frozenset({"harness.protocol"} | {t[2] for t in TARGETS})
# Counter keys the hooks above add, and the tracked minima.
COUNTERS = frozenset({
    "models.forward.rows", "models.forward.mb_computed",
    "obi.observe.examples", "obi.collapses",
    "acquisition.active_sampling.candidates", "acquisition.epig.pairs",
    "acquisition.batch_bald.candidates", "predictive.joint_exact.assignments",
    "predictive.joint_mc.draws", "harness.emit.bytes", "harness.records",
})
MINIMA = frozenset({"obi.ess_min"})
