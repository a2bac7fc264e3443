"""Time lockstep training at the group shapes the protocols train.

    python3 tools/train_timing.py [--repeat N] [--epochs E] [--against DIR]

Trains one ``models.mlp._train_lockstep`` group per shape, under the
allocator policy that importing ``obayes`` applies to the process:
lone fits at n = 1, 10 and 19 and groups of K = 3 at n = 20, 30 and 39
(hidden 64, 100 epochs: al-obi's retrains and obi-eval's prefix models),
groups of K = 4 at n = 8, 16 and 24 (hidden 32, 60 epochs:
repeated-pool's), and one group of K = 11 at n = 50 (hidden 64, 100
epochs: an obi-eval prefix group at criterion 4's config, whose K n >
512 gives a loss window of one epoch). Every fit is an MC-dropout
network at rate 0.5 on its own draw of four-class cluster data, with its
own stream. ``--epochs`` caps the epochs of every shape.

Each shape is trained once untimed with the gradient and loss kernels
counted, then N times (default 5) timed. One JSON line per shape gives
``k``, ``n``, ``hidden``, ``epochs``, the median wall time ``ms``, and
``grad_calls`` and ``loss_calls``. Run it from the root of a source
checkout; it imports the ``obayes`` sources under ``src/``.

``--against DIR`` compares this checkout's ``models/mlp.py`` with DIR's
``src/obayes/models/mlp.py``, loaded beside it in the same interpreter
(the rest of the package is this checkout's): separate processes are too
noisy to rank training changes on a small VM. Both sides train on the
same data and streams, each with an architecture and configs made by its
own ``MlpArchitecture`` and ``TrainConfig``, so a side whose config has
other fields still pairs. Each shape is then trained once untimed by
each side, and N pairs (default 5) timed, the side that runs first
alternating from pair to pair. Each line adds ``against_ms``,
DIR's median; ``ratio``, this checkout's median over DIR's; ``wins`` and
``against_wins``, the pairs each side ran faster; DIR's
``against_grad_calls`` and ``against_loss_calls``; and ``bit_equal``,
whether both sides trained every fit to the same parameter bits.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from obayes.data import generate_cluster_dataset  # noqa: E402
from obayes.models import mlp  # noqa: E402
from obayes.numerics import RngStream  # noqa: E402

# (fits K, training rows n, hidden width, epochs, cluster spread)
SHAPES = ([(1, n, 64, 100, 1.0) for n in (1, 10, 19)]
          + [(3, n, 64, 100, 1.0) for n in (20, 30, 39)]
          + [(4, n, 32, 60, 0.45) for n in (8, 16, 24)]
          + [(11, 50, 64, 100, 1.0)])


def _group(module, k: int, n: int, hidden: int, epochs: int,
           spread: float):
    """The arguments of one _train_lockstep call at this shape, with the
    architecture and configs made by `module`, an mlp.py. Every module
    gets the same data and streams."""
    trains = []
    for i in range(k):
        stream = RngStream(7).derive("shape", k, n, "fit", i)
        per_class = 10 if n <= 40 else math.ceil(n / 4)
        data = generate_cluster_dataset(per_class, 4, 2, spread, stream)
        order = stream.derive("order").generator().permutation(len(data))
        trains.append(data.subset(order[:n]))
    arch = module.MlpArchitecture(in_dim=2, hidden=hidden, num_classes=4,
                                  dropout_rate=0.5)
    cfg = module.TrainConfig(epochs=epochs)
    streams = [RngStream(8).derive("fit", i) for i in range(k)]
    return trains, arch, [cfg] * k, streams, [str(i) for i in range(k)]


def _load_against(root: str):
    """DIR's models/mlp.py as a module of this checkout's package."""
    path = Path(root).resolve() / "src" / "obayes" / "models" / "mlp.py"
    if not path.is_file():
        raise SystemExit(f"train_timing: no {path}")
    spec = importlib.util.spec_from_file_location("obayes.models._against",
                                                  path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _count_calls(module, args) -> tuple[dict, list]:
    """Gradient and loss calls of one training run of `args` through
    `module`, an mlp.py, and the run's trained parameters."""
    counts = {"grad_calls": 0, "loss_calls": 0}
    kernels = {"grad_calls": "mlp_gradient", "loss_calls": "cross_entropy_loss"}
    originals = {key: getattr(module, name) for key, name in kernels.items()}

    def counting(key):
        def call(*a, **kw):
            counts[key] += 1
            return originals[key](*a, **kw)
        return call

    try:
        for key, name in kernels.items():
            setattr(module, name, counting(key))
        trained = module._train_lockstep(*args)
    finally:
        for key, name in kernels.items():
            setattr(module, name, originals[key])
    return counts, trained


def _timed(module, args) -> float:
    start = time.perf_counter()
    module._train_lockstep(*args)
    return time.perf_counter() - start


def _same_bits(a: list, b: list) -> bool:
    return all(x.tobytes() == y.tobytes()
               for p, q in zip(a, b) for x, y in zip(p.arrays(), q.arrays()))


def _compare(against, shape: tuple, repeat: int) -> dict:
    """Interleaved pairs of this checkout's and `against`'s training, each
    side on the arguments its own mlp.py builds at `shape`."""
    group, against_group = _group(mlp, *shape), _group(against, *shape)
    counts, trained = _count_calls(mlp, group)
    against_counts, against_trained = _count_calls(against, against_group)
    times, against_times = [], []
    for i in range(repeat):
        sides = ((mlp, group, times), (against, against_group, against_times))
        for module, args, out in sides[::-1] if i % 2 else sides:
            out.append(_timed(module, args))
    ms = statistics.median(times)
    against_ms = statistics.median(against_times)
    return {"ms": round(1e3 * ms, 3), "against_ms": round(1e3 * against_ms, 3),
            "ratio": round(ms / against_ms, 4),
            "wins": sum(a < b for a, b in zip(times, against_times)),
            "against_wins": sum(b < a for a, b in zip(times, against_times)),
            **counts,
            **{"against_" + key: v for key, v in against_counts.items()},
            "bit_equal": _same_bits(trained, against_trained)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Wall time and kernel calls of lockstep training.")
    parser.add_argument("--repeat", type=int, default=5, metavar="N")
    parser.add_argument("--epochs", type=int, default=None, metavar="E")
    parser.add_argument("--against", default=None, metavar="DIR",
                        help="a source checkout whose mlp.py to pair with")
    args = parser.parse_args(argv)
    if args.repeat < 1 or (args.epochs is not None and args.epochs < 1):
        parser.error("--repeat and --epochs must be positive")
    against = _load_against(args.against) if args.against else None
    for k, n, hidden, epochs, spread in SHAPES:
        epochs = min(epochs, args.epochs or epochs)
        shape = (k, n, hidden, epochs, spread)
        if against is not None:
            result = _compare(against, shape, args.repeat)
        else:
            group = _group(mlp, *shape)
            counts, _ = _count_calls(mlp, group)
            times = [_timed(mlp, group) for _ in range(args.repeat)]
            result = {"ms": round(1e3 * statistics.median(times), 3),
                      **counts}
        print(json.dumps({"k": k, "n": n, "hidden": hidden,
                          "epochs": epochs, **result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
