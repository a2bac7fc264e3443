"""Single-hidden-layer classifier with hand-written backprop.

Two ensemble constructions share this network: deep ensembles (K
independently trained members, evaluated clean) and consistent MC dropout
(one trained network, S fixed dropout masks attached as parameter
samples). Masks are sampled once and reused for every input evaluated
under that sample; resampling per input would break joint predictives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import Dataset
from ..numerics import RngStream
from .ensemble import PosteriorEnsemble

# Elements of masked hidden activations McDropoutFamily.log_probs holds at
# once (512 KiB of float64, a few samples' worth at the usual sizes).
_CHUNK_ELEMENTS = 2 ** 16

# Adam's moment decays and denominator guard.
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
# Training stops once the full-set loss has fallen by less than this over
# the last _EARLY_STOP_PATIENCE epochs.
_EARLY_STOP_DELTA, _EARLY_STOP_PATIENCE = 1e-5, 5


@dataclass(frozen=True)
class MlpArchitecture:
    in_dim: int
    hidden: int
    num_classes: int
    dropout_rate: float = 0.5
    init_scale: float = 1.0

    def __post_init__(self):
        if self.hidden < 1 or self.in_dim < 1 or self.num_classes < 2:
            raise ValueError("layer widths must be positive, classes >= 2")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")


@dataclass
class MlpParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def copy(self) -> "MlpParams":
        return MlpParams(self.w1.copy(), self.b1.copy(),
                         self.w2.copy(), self.b2.copy())

    def arrays(self):
        return [self.w1, self.b1, self.w2, self.b2]


def init_params(arch: MlpArchitecture, gen: np.random.Generator) -> MlpParams:
    # He-style fan-in scaling for the rectifier.
    s1 = arch.init_scale * np.sqrt(2.0 / arch.in_dim)
    s2 = arch.init_scale * np.sqrt(2.0 / arch.hidden)
    return MlpParams(
        w1=s1 * gen.standard_normal((arch.in_dim, arch.hidden)),
        b1=np.zeros(arch.hidden),
        w2=s2 * gen.standard_normal((arch.hidden, arch.num_classes)),
        b2=np.zeros(arch.num_classes),
    )


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=-1, keepdims=True)
    z = logits - m
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _forward(params: MlpParams, xs: np.ndarray,
             mask_scale: np.ndarray | None = None):
    """Pre-activation, hidden, and logits; mask_scale rescales hidden units."""
    z1 = xs @ params.w1 + params.b1
    h = np.maximum(z1, 0.0)
    hd = h if mask_scale is None else h * mask_scale
    logits = hd @ params.w2 + params.b2
    return z1, hd, logits


def mlp_log_probs(params: MlpParams, xs: np.ndarray,
                  mask_scale: np.ndarray | None = None) -> np.ndarray:
    _, _, logits = _forward(params, xs, mask_scale)
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite activations in forward pass")
    return _log_softmax(logits)


def cross_entropy_loss(params: MlpParams, xs: np.ndarray, ys: np.ndarray,
                       mask_scale: np.ndarray | None = None) -> float:
    _, _, logits = _forward(params, xs, mask_scale)
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite activations in forward pass")
    # _log_softmax's operations, evaluated at the observed labels only.
    z = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    observed = z[np.arange(len(ys)), ys] - lse
    return float(-observed.mean())


def mlp_gradient(params: MlpParams, xs, ys,
                 mask_scale: np.ndarray | None = None,
                 out: MlpParams | None = None) -> MlpParams:
    """Exact gradient of the mean cross-entropy over the batch.

    With `out`, the gradient is written into its arrays (which must have
    the parameter shapes) and `out` is returned; otherwise new arrays are
    allocated. Both give the same bits.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    ys = np.asarray(ys, dtype=np.int64)
    if xs.shape[0] == 0:
        raise ValueError("empty reduction")
    n = xs.shape[0]
    z1, hd, logits = _forward(params, xs, mask_scale)
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite activations in forward pass")
    if out is None:
        out = MlpParams(*(np.empty_like(a) for a in params.arrays()))
    probs = np.exp(_log_softmax(logits))
    dlogits = probs
    dlogits[np.arange(n), ys] -= 1.0
    dlogits /= n
    np.matmul(hd.T, dlogits, out=out.w2)
    dlogits.sum(axis=0, out=out.b2)
    dhd = dlogits @ params.w2.T
    dh = dhd if mask_scale is None else dhd * mask_scale
    dz1 = dh * (z1 > 0.0)
    np.matmul(xs.T, dz1, out=out.w1)
    dz1.sum(axis=0, out=out.b1)
    return out


def _flat_views(arch: MlpArchitecture, flat: np.ndarray) -> MlpParams:
    """MlpParams whose arrays are views into one flat buffer."""
    d, h, c = arch.in_dim, arch.hidden, arch.num_classes
    ends = np.cumsum([d * h, h, h * c, c])
    w1, b1, w2, b2 = np.split(flat, ends[:-1])
    return MlpParams(w1=w1.reshape(d, h), b1=b1, w2=w2.reshape(h, c), b2=b2)


def _train_single(train: Dataset, arch: MlpArchitecture, cfg: TrainConfig,
                  stream: RngStream, member: str, use_dropout: bool) -> MlpParams:
    """Minibatch Adam with early stopping on the full-set loss.

    Parameters, gradient and Adam moments are flat buffers allocated once,
    so each step is one gradient write and one in-place Adam update of
    every parameter at once. Each epoch draws its permutation and then all
    of its dropout masks in one call, the same stream as one draw per step.
    """
    gen = stream.generator()
    flat = np.concatenate([a.ravel() for a in init_params(arch, gen).arrays()])
    params = _flat_views(arch, flat)
    grad_flat = np.empty_like(flat)
    grad = _flat_views(arch, grad_flat)
    m, v = np.zeros_like(flat), np.zeros_like(flat)
    step, denom = np.empty_like(flat), np.empty_like(flat)
    b1, b2 = _BETA1, _BETA2
    xs, ys = train.xs, train.ys
    n = len(train)
    bs = cfg.batch_size
    num_batches = -(-n // bs)
    keep = 1.0 - arch.dropout_rate
    dropout = use_dropout and arch.dropout_rate > 0.0
    scales = [None] * num_batches
    t = 0
    history = [cross_entropy_loss(params, xs, ys)]
    for epoch in range(1, cfg.epochs + 1):
        perm = gen.permutation(n)
        if dropout:
            masks = gen.random((num_batches, arch.hidden)) < keep
            scales = masks.astype(np.float64) / keep
        xs_epoch, ys_epoch = xs[perm], ys[perm]
        for b in range(num_batches):
            batch = slice(b * bs, (b + 1) * bs)
            try:
                mlp_gradient(params, xs_epoch[batch], ys_epoch[batch],
                             scales[b], out=grad)
            except ValueError as exc:
                raise _diverged(member, epoch) from exc
            t += 1
            # Adam over all parameters at once, one elementwise op at a time
            # in the per-array update's order, which the bits depend on:
            # m = b1 m + (1-b1) g, v = b2 v + ((1-b2) g) g,
            # w -= (lr m_hat) / (sqrt(v_hat) + eps).
            m *= b1
            np.multiply(1.0 - b1, grad_flat, out=step)
            m += step
            v *= b2
            np.multiply(1.0 - b2, grad_flat, out=step)
            step *= grad_flat
            v += step
            np.divide(m, 1.0 - b1 ** t, out=step)
            step *= cfg.learning_rate
            np.divide(v, 1.0 - b2 ** t, out=denom)
            np.sqrt(denom, out=denom)
            denom += _ADAM_EPS
            step /= denom
            flat -= step
        try:
            loss = cross_entropy_loss(params, xs, ys)
        except ValueError as exc:
            raise _diverged(member, epoch) from exc
        # Finite logits far enough apart still give an infinite loss.
        if not np.isfinite(loss):
            raise _diverged(member, epoch)
        history.append(loss)
        p = _EARLY_STOP_PATIENCE
        if len(history) > p and \
                history[-1 - p] - history[-1] < _EARLY_STOP_DELTA:
            break
    return params


def _diverged(member: str, epoch: int) -> ValueError:
    """Raised once a training run's forward pass or loss is non-finite."""
    return ValueError(f"training diverged: member {member}, epoch {epoch}")


class DeepEnsembleFamily:
    """Independently trained members, evaluated without dropout."""

    tag = "deep_ensemble"

    def __init__(self, arch: MlpArchitecture):
        self.arch = arch

    @property
    def num_classes(self) -> int:
        return self.arch.num_classes

    def log_probs(self, samples, xs) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        return np.stack([mlp_log_probs(p, xs) for p in samples])


class McDropoutFamily:
    """One trained network; parameter samples are fixed dropout masks."""

    tag = "mc_dropout"

    def __init__(self, arch: MlpArchitecture, params: MlpParams):
        self.arch = arch
        self.params = params

    @property
    def num_classes(self) -> int:
        return self.arch.num_classes

    def log_probs(self, samples, xs) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        keep = 1.0 - self.arch.dropout_rate
        w2 = self.params.w2
        z1 = xs @ self.params.w1 + self.params.b1
        h = np.maximum(z1, 0.0)                         # (N, H)
        scale = np.stack(samples) / keep                # (S, H)
        n, width = h.shape
        logits = np.empty((len(scale), n, w2.shape[1]))  # (S, N, C)
        # A few samples' masked hidden layers at a time, never all S; each
        # sample is still its own (N, H) @ (H, C) product.
        chunk = max(1, _CHUNK_ELEMENTS // (n * width))
        for lo in range(0, len(scale), chunk):
            np.matmul(h[None] * scale[lo:lo + chunk, None, :], w2,
                      out=logits[lo:lo + chunk])
        logits += self.params.b2
        if not np.all(np.isfinite(logits)):
            raise ValueError("non-finite activations in forward pass")
        return _log_softmax(logits)


def train_deep_ensemble(train: Dataset, arch: MlpArchitecture,
                        cfg: TrainConfig, num_members: int) -> PosteriorEnsemble:
    """K members differing only in derived seed (init and batch order)."""
    if num_members < 1:
        raise ValueError("need at least one ensemble member")
    if len(train) == 0:
        raise ValueError("empty training set")
    root = RngStream(seed=cfg.seed).derive("deep_ensemble")
    members = tuple(
        _train_single(train, arch, cfg, root.derive("member", k),
                      member=str(k), use_dropout=arch.dropout_rate > 0.0)
        for k in range(num_members)
    )
    return PosteriorEnsemble(samples=members,
                             log_weights=np.zeros(num_members),
                             family=DeepEnsembleFamily(arch))


def init_deep_ensemble(arch: MlpArchitecture, num_members: int,
                       rng: RngStream) -> PosteriorEnsemble:
    """Freshly initialized members, no training; see init_dropout_ensemble."""
    if num_members < 1:
        raise ValueError("need at least one ensemble member")
    members = tuple(init_params(arch, rng.derive("member", k).generator())
                    for k in range(num_members))
    return PosteriorEnsemble(samples=members,
                             log_weights=np.zeros(num_members),
                             family=DeepEnsembleFamily(arch))


def init_dropout_ensemble(arch: MlpArchitecture, num_samples: int,
                          rng: RngStream) -> PosteriorEnsemble:
    """Freshly initialized dropout ensemble, no training.

    Used as the scoring model before any data has been acquired; its
    predictions are arbitrary but deterministic in the stream.
    """
    if num_samples < 1:
        raise ValueError("need at least one dropout sample")
    if arch.dropout_rate == 0.0 and num_samples > 1:
        raise ValueError("degenerate dropout ensemble: dropout rate is zero")
    gen = rng.generator()
    params = init_params(arch, gen)
    keep = 1.0 - arch.dropout_rate
    if arch.dropout_rate == 0.0:
        masks = (np.ones((1, arch.hidden)),)
    else:
        masks = tuple((gen.random(arch.hidden) < keep).astype(np.float64)
                      for _ in range(num_samples))
    return PosteriorEnsemble(samples=masks,
                             log_weights=np.zeros(len(masks)),
                             family=McDropoutFamily(arch, params))


def train_mc_dropout(train: Dataset, arch: MlpArchitecture, cfg: TrainConfig,
                     num_samples: int, rng: RngStream) -> PosteriorEnsemble:
    """Train once with dropout, then freeze S masks as parameter samples."""
    if num_samples < 1:
        raise ValueError("need at least one dropout sample")
    if len(train) == 0:
        raise ValueError("empty training set")
    if arch.dropout_rate == 0.0 and num_samples > 1:
        raise ValueError("degenerate dropout ensemble: dropout rate is zero")
    params = _train_single(train, arch, cfg,
                           RngStream(seed=cfg.seed).derive("mc_dropout"),
                           member="shared", use_dropout=True)
    keep = 1.0 - arch.dropout_rate
    gen = rng.generator()
    if arch.dropout_rate == 0.0:
        masks = (np.ones((1, arch.hidden)),)
    else:
        masks = tuple((gen.random(arch.hidden) < keep).astype(np.float64)
                      for _ in range(num_samples))
    return PosteriorEnsemble(samples=masks,
                             log_weights=np.zeros(len(masks)),
                             family=McDropoutFamily(arch, params))
