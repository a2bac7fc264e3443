"""Single-hidden-layer classifier with hand-written backprop.

Two ensemble constructions share this network: deep ensembles (K
independently trained members, evaluated clean) and consistent MC dropout
(one trained network, S fixed dropout masks attached as parameter
samples). Masks are sampled once and reused for every input evaluated
under that sample; resampling per input would break joint predictives.

Every fit trains with one recipe, minibatches of _BATCH_SIZE rows and
Adam at _LEARNING_RATE, and a config sets only its epochs and seed.
Training runs in lockstep groups. Fits that share the architecture, the
training-set size and the epochs train together: the gradient and loss
kernels take a leading fit axis, so one call per step and one Adam
update serve every fit still training. Each fit keeps its own generator
and leaves the group when it stops early or diverges, so every fit's
parameters have the bits of training it alone; a single fit is a group
of one and runs the same stacked kernels.

Training runs a loss window of epochs at a time, once the untrained
network is judged alone. Fits leave only when a window is judged, so the
live set is fixed over its epochs: the window draws them all at its
start, trains them, saves each epoch's parameters, and one stacked loss
call over the saved epochs (a leading window axis) gives every loss at
once. The rule then runs epoch by epoch in the order of one call per
epoch, and a fit that stops inside the window leaves with the parameters
saved at its stop; the epochs it trained past it are dropped. The rule
is also the one place that finds a diverged fit: the kernels give NaN
for a fit whose logits are non-finite, a NaN gradient makes every later
loss of that fit NaN, and a NaN loss retires the fit at its epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..data import Dataset
from ..numerics import RngStream, _row_max, _row_sum
from .ensemble import PosteriorEnsemble, _read_only

# The training recipe: minibatch size and Adam's step size.
_BATCH_SIZE, _LEARNING_RATE = 32, 1e-3
# Adam's moment decays and denominator guard.
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
# Training stops once the full-set loss has fallen by less than this over
# the last _EARLY_STOP_PATIENCE epochs.
_EARLY_STOP_DELTA, _EARLY_STOP_PATIENCE = 1e-5, 5
# A loss window draws, trains and then judges in one loss call up to
# _LOSS_WINDOW epochs, and at most _LOSS_ROWS rows in all (window x fits x
# training rows); a group whose fits hold more than half the rows runs
# windows of one epoch.
_LOSS_WINDOW, _LOSS_ROWS = 16, 1024


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
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be positive")


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
    """Log-softmax over the last axis, written into `logits` and returned."""
    logits -= _row_max(logits)
    logits -= np.log(_row_sum(np.exp(logits)))
    return logits


def _forward(params: MlpParams, xs: np.ndarray,
             mask_scale: np.ndarray | None = None):
    """Hidden layer and logits; mask_scale rescales hidden units.

    Every array may carry leading fit axes (see mlp_gradient). Biases,
    the rectifier and masks are applied in place, to the products' fresh
    arrays.
    """
    hd = np.matmul(xs, params.w1)
    hd += params.b1[..., None, :]
    np.maximum(hd, 0.0, out=hd)
    if mask_scale is not None:
        hd *= mask_scale[..., None, :]
    logits = hd @ params.w2
    logits += params.b2[..., None, :]
    return hd, logits


def _nan_fits(logits: np.ndarray):
    """Set every logit of each fit whose logits are not all finite to NaN,
    in place; stacked fits' slices are independent, so the others keep
    their bits."""
    logits[~np.isfinite(logits).all(axis=(-2, -1))] = np.nan


def cross_entropy_loss(params: MlpParams, xs: np.ndarray, ys: np.ndarray,
                       mask_scale: np.ndarray | None = None):
    """Mean cross-entropy over the rows; one per fit for stacked fits
    (see mlp_gradient), as an array of their leading shape, such as (K,).

    A fit with any non-finite logit gets a NaN loss, and the other fits
    keep their bits. From finite logits the loss is never NaN, but it may
    be +inf.
    """
    _, logits = _forward(params, xs, mask_scale)
    if not np.isfinite(logits).all():
        _nan_fits(logits)
    # _log_softmax's operations, evaluated at the observed labels only.
    z = logits - _row_max(logits)
    lse = np.log(_row_sum(np.exp(z))[..., 0])
    ys = np.asarray(ys)
    observed = z.reshape(-1, z.shape[-1])[np.arange(ys.size), ys.reshape(-1)]
    # The negated mean, as np.mean computes it: a sum, then one division.
    loss = (lse - observed.reshape(lse.shape)).sum(axis=-1) / lse.shape[-1]
    return float(loss) if loss.ndim == 0 else loss


def mlp_gradient(params: MlpParams, xs, ys,
                 mask_scale: np.ndarray | None = None,
                 out: MlpParams | None = None) -> MlpParams:
    """Exact gradient of the mean cross-entropy over the batch.

    Stacked fits: parameters (K, D, H), (K, H), (K, H, C), (K, C),
    inputs (K, B, D), labels (K, B) and masks (K, H) give K gradients,
    each with the bits of the fit's own unstacked call.

    With `out`, the gradient is written into its arrays (which must have
    the parameter shapes) and `out` is returned; otherwise new arrays are
    allocated. Both give the same bits.

    A fit with any non-finite logit gets NaN in every gradient array,
    and the other fits keep their bits.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.int64)
    n = xs.shape[-2]
    if n == 0:
        raise ValueError("empty reduction")
    hd, logits = _forward(params, xs, mask_scale)
    if not np.isfinite(logits).all():
        _nan_fits(logits)
    if out is None:
        out = MlpParams(*(np.empty_like(a) for a in params.arrays()))
    dlogits = np.exp(_log_softmax(logits), out=logits)
    dlogits.reshape(-1, dlogits.shape[-1])[np.arange(ys.size),
                                            ys.reshape(-1)] -= 1.0
    dlogits /= n
    np.matmul(hd.swapaxes(-1, -2), dlogits, out=out.w2)
    dlogits.sum(axis=-2, out=out.b2)
    dz1 = dlogits @ params.w2.swapaxes(-1, -2)
    if mask_scale is not None:
        dz1 *= mask_scale[..., None, :]
    # The rectifier's gate read from the masked hidden layer: every scale
    # is 0 or at least 1, and a dropped unit's dz1 is already +-0.
    np.multiply(dz1, hd > 0.0, out=dz1)
    np.matmul(xs.swapaxes(-1, -2), dz1, out=out.w1)
    dz1.sum(axis=-2, out=out.b1)
    return out


def _flat_views(arch: MlpArchitecture, flat: np.ndarray) -> MlpParams:
    """MlpParams whose arrays are views into flat buffers, one per row of
    `flat` (P,) or (K, P)."""
    d, h, c = arch.in_dim, arch.hidden, arch.num_classes
    lead, b1_at, w2_at = flat.shape[:-1], d * h, d * h + h
    b2_at = w2_at + h * c
    return MlpParams(w1=flat[..., :b1_at].reshape(*lead, d, h),
                     b1=flat[..., b1_at:w2_at],
                     w2=flat[..., w2_at:b2_at].reshape(*lead, h, c),
                     b2=flat[..., b2_at:])


class _LiveFits:
    """The fits of a lockstep group that are still training.

    Row j of every per-fit array (`_ROWS`) belongs to fit `fits[j]`. Fits
    leave only when a loss window is judged, so the live set is fixed over
    a window's epochs: the window draws them all at its start, trains them
    and saves each one's parameters. A fit that stops or diverges leaves by
    dropping its rows, so the stacked calls see live fits only; a stopped
    fit's parameters at its stop go to `trained`.
    """

    _ROWS = ("flat", "m", "v", "xs", "ys")

    def __init__(self, arch: MlpArchitecture, gens: list, xs: np.ndarray,
                 ys: np.ndarray):
        self.arch = arch
        k, self.n = xs.shape[:2]
        self.bounds = [slice(lo, lo + _BATCH_SIZE)
                       for lo in range(0, self.n, _BATCH_SIZE)]
        dropout = arch.dropout_rate > 0.0
        self.keep = 1.0 - arch.dropout_rate if dropout else None
        self.gens = gens
        self.fits = list(range(k))
        self.histories = [[] for _ in gens]
        self.trained = [None] * k
        self.diverged = {}                          # fit -> (epoch, cause)
        self.flat = np.stack([np.concatenate([a.ravel() for a in
                                              init_params(arch, gen).arrays()])
                              for gen in gens])
        self.m, self.v = np.zeros_like(self.flat), np.zeros_like(self.flat)
        self.t = 0
        self.xs, self.ys = xs, ys
        # The loss window: the epochs trained and saved between judgements.
        self.width = max(1, min(_LOSS_WINDOW, _LOSS_ROWS // (k * self.n)))
        self._views()

    def _views(self):
        """What the hot path reads, rebuilt whenever the live set changes.
        Every kernel gets the (K, …) stacks of the live fits, a lone fit's
        (1, …) included."""
        self.params = _flat_views(self.arch, self.flat)
        self.grad_flat = np.empty_like(self.flat)
        self.grad = _flat_views(self.arch, self.grad_flat)
        self.step = np.empty_like(self.flat)
        self.denom = np.empty_like(self.flat)
        self.saved = np.empty((self.width, *self.flat.shape))
        # The full training sets, broadcast over the window axis.
        self.full_set = tuple(np.broadcast_to(a, (self.width, *a.shape))
                              for a in (self.xs, self.ys))

    def draw(self, count: int) -> list:
        """The live fits' next `count` epochs: per epoch, one (xs, ys,
        scales) triple of (K, …) stacks per batch, scales None without
        dropout.

        Each fit draws from its own generator an epoch at a time, its
        permutation and then its masks' uniforms: the same stream as one
        draw per step. Then one threshold makes every mask, and one gather
        each takes every epoch's rows and labels, at the flat indices
        perm + k n of fit k's rows. A window holds at most _LOSS_ROWS rows,
        or one epoch.
        """
        k, n, keep = len(self.fits), self.n, self.keep
        order = np.empty((count, k, n), dtype=np.intp)
        scales = None if keep is None else np.empty(
            (count, k, len(self.bounds), self.arch.hidden))
        for j, gen in enumerate(self.gens):
            for e in range(count):
                order[e, j] = gen.permutation(n)
                if keep is not None:
                    gen.random(out=scales[e, j])    # the masks' uniforms
        order += np.arange(0, k * n, n)[:, None]
        if keep is not None:
            np.divide(scales < keep, keep, out=scales)
        xs = self.xs.reshape(-1, self.xs.shape[-1]).take(order, axis=0)
        ys = self.ys.reshape(-1).take(order)
        return [[(xs[e, :, rows], ys[e, :, rows],
                  None if keep is None else scales[e, :, b])
                 for b, rows in enumerate(self.bounds)]
                for e in range(count)]

    def adam_step(self):
        """Adam over all parameters of every live fit at once, one
        elementwise op at a time in the per-array update's order, which
        the bits depend on: m = b1 m + (1-b1) g, v = b2 v + ((1-b2) g) g,
        w -= (lr m_hat) / (sqrt(v_hat) + eps)."""
        self.t += 1
        b1, b2, t = _BETA1, _BETA2, self.t
        m, v, grad = self.m, self.v, self.grad_flat
        step, denom = self.step, self.denom
        m *= b1
        np.multiply(1.0 - b1, grad, out=step)
        m += step
        v *= b2
        np.multiply(1.0 - b2, grad, out=step)
        step *= grad
        v += step
        np.divide(m, 1.0 - b1 ** t, out=step)
        step *= _LEARNING_RATE
        np.divide(v, 1.0 - b2 ** t, out=denom)
        np.sqrt(denom, out=denom)
        denom += _ADAM_EPS
        step /= denom
        self.flat -= step

    def judge(self, first: int, count: int):
        """Judge the live fits' parameters saved at epochs `first`, …,
        `first` + count - 1 (rows of `saved`) from one stacked loss call
        on them, and retire the fits that stopped or diverged.

        The early-stopping rule runs oldest epoch first, and a stopped fit
        keeps its parameters at its stop. A NaN loss (non-finite logits)
        is a divergence; so is an infinite one after epoch 0 (finite
        logits far enough apart)."""
        saved = self.saved[:count]
        xs, ys = self.full_set
        losses = cross_entropy_loss(_flat_views(self.arch, saved),
                                    xs[:count], ys[:count])
        p, left = _EARLY_STOP_PATIENCE, []
        losses = np.reshape(losses, (count, len(self.fits))).tolist()
        for epoch, (row, flat) in enumerate(zip(losses, saved), first):
            for j, loss in enumerate(row):
                if j in left:
                    continue
                if math.isnan(loss):
                    self.diverged[self.fits[j]] = (epoch, ValueError(
                        "non-finite activations in forward pass"))
                elif epoch > 0 and math.isinf(loss):
                    self.diverged[self.fits[j]] = (epoch, None)
                else:
                    history = self.histories[j]
                    history.append(loss)
                    if not (len(history) > p and history[-1 - p] - history[-1]
                            < _EARLY_STOP_DELTA):
                        continue
                    self.trained[self.fits[j]] = _flat_views(
                        self.arch, flat[j]).copy()
                left.append(j)
        if left:
            self.retire(left)

    def retire(self, rows):
        """Drop `rows` from the live set. The fits after the lowest-index
        diverged fit drop too: its error is the one the group raises."""
        first = min(self.diverged, default=len(self.trained))
        kept = [j for j, fit in enumerate(self.fits)
                if j not in rows and fit < first]
        for name in self._ROWS:
            setattr(self, name, getattr(self, name)[kept])
        self.fits = [self.fits[j] for j in kept]
        self.gens = [self.gens[j] for j in kept]
        self.histories = [self.histories[j] for j in kept]
        self._views()


def _train_lockstep(trains, arch: MlpArchitecture, cfgs, streams,
                    members) -> list:
    """Minibatch Adam with early stopping on the full-set loss, for K fits
    at once; returns each fit's parameters.

    The fits share the architecture, the training-set size and the epochs
    of `cfgs`; each has its own data and stream, and all train with
    _BATCH_SIZE and _LEARNING_RATE. Every step is one stacked gradient
    call and one in-place Adam update of (K, P) flat buffers over the live
    fits. Each fit draws its permutation and then all of its epoch's
    dropout masks from its own generator (the same stream as one draw per
    step), so its parameters have the bits of training it alone, which is
    the K = 1 case.

    The untrained network is judged alone, and then training runs a loss
    window at a time, of W = min(16, 1024 // (K n)) epochs, or one epoch
    when W is 1: the window draws its epochs, trains them, saves each
    epoch's parameters into a (W, K, P) buffer, and one stacked loss call
    judges them: 1 + ceil(E / W) calls over E epochs. The rule runs epoch
    by epoch: a fit leaves once its loss stops falling, with the
    parameters saved at that epoch (rolled back over the epochs it
    trained past it), or once its loss is NaN or infinite. The kernels
    give NaN for a fit whose logits are non-finite, and a NaN gradient
    makes the fit's parameters, and so its loss at that epoch's end, NaN:
    the fit diverges at the epoch where its logits first turned
    non-finite. It trains on NaN, and the fits after it train on, until
    the window is judged; that work is dropped. The lowest-index diverged
    fit then raises "training diverged: member …, epoch …", the error that
    training the fits one after another would raise first.
    """
    n = len(trains[0])
    if any(len(t) != n for t in trains):
        raise ValueError("lockstep fits need training sets of one size")
    if len({c.epochs for c in cfgs}) > 1:
        raise ValueError("lockstep fits need one number of epochs")
    live = _LiveFits(arch, [s.generator() for s in streams],
                     np.stack([t.xs for t in trains]),
                     np.stack([t.ys for t in trains]))
    live.saved[0] = live.flat
    live.judge(0, 1)
    done, epochs = 0, cfgs[0].epochs
    while live.fits and done < epochs:
        count = min(live.width, epochs - done)
        for e, batches in enumerate(live.draw(count)):
            for batch in batches:
                mlp_gradient(live.params, *batch, out=live.grad)
                live.adam_step()
            live.saved[e] = live.flat
        live.judge(done + 1, count)
        done += count
    if live.diverged:
        first = min(live.diverged)
        epoch, cause = live.diverged[first]
        raise _diverged(members[first], epoch) from cause
    for j, fit in enumerate(live.fits):
        live.trained[fit] = _flat_views(arch, live.flat[j]).copy()
    return live.trained


def _diverged(member: str, epoch: int) -> ValueError:
    """Raised once a training run's logits or loss are non-finite."""
    return ValueError(f"training diverged: member {member}, epoch {epoch}")


class DeepEnsembleFamily:
    """Independently trained members, evaluated without dropout."""

    tag = "deep_ensemble"

    def __init__(self, arch: MlpArchitecture, members):
        self.arch = arch
        self.members = tuple(members)

    @property
    def num_classes(self) -> int:
        return self.arch.num_classes

    @property
    def size(self) -> int:
        return len(self.members)

    def log_probs(self, xs) -> np.ndarray:
        return np.stack([_log_softmax(_forward(p, xs)[1])
                         for p in self.members])


class McDropoutFamily:
    """One trained network; parameter samples are fixed dropout masks.

    The (S, H) 0/1 masks are checked and folded into W2 once, here: the
    (S, H, C) masked weights are W2 with each mask's dropped rows zeroed.
    The family keeps read-only copies of the masks, and makes W2 read-only,
    so the folded weights cannot go stale.
    """

    tag = "mc_dropout"

    def __init__(self, arch: MlpArchitecture, params: MlpParams, masks):
        masks = _read_only(np.array(masks, dtype=np.float64))
        if masks.ndim != 2 or masks.shape[1] != arch.hidden or \
                not ((masks == 0.0) | (masks == 1.0)).all():
            raise ValueError("dropout samples must be 0/1 masks of width "
                             f"{arch.hidden}")
        self.arch = arch
        self.params = params
        self.masks = masks
        params.w2.flags.writeable = False
        self._masked_w2 = masks[:, :, None] * params.w2

    @property
    def num_classes(self) -> int:
        return self.arch.num_classes

    @property
    def size(self) -> int:
        return self.masks.shape[0]

    def log_probs(self, xs) -> np.ndarray:
        """The (S, N, C) table of the trained network under each mask.

        Every sample is one (N, H) @ (H, C) product of the rescaled hidden
        layer with its masked weights. For 0/1 masks every product term is
        the one that masking the hidden units gives (h * (1 / keep) times
        w, or a zero of the same sign), so the bits are the same; a call
        costs the hidden layer, one batched product and the log-softmax.
        """
        keep = 1.0 - self.arch.dropout_rate
        p = self.params
        h = np.maximum(xs @ p.w1 + p.b1, 0.0)               # (N, H)
        logits = np.matmul(h * (1.0 / keep), self._masked_w2)
        logits += p.b2                                      # (S, N, C)
        return _log_softmax(logits)


def train_deep_ensemble(train: Dataset, arch: MlpArchitecture,
                        cfg: TrainConfig, num_members: int) -> PosteriorEnsemble:
    """K members differing only in derived seed (init and batch order),
    trained as one lockstep group."""
    if num_members < 1:
        raise ValueError("need at least one ensemble member")
    if len(train) == 0:
        raise ValueError("empty training set")
    root = RngStream(seed=cfg.seed).derive("deep_ensemble")
    members = _train_lockstep(
        [train] * num_members, arch, [cfg] * num_members,
        [root.derive("member", k) for k in range(num_members)],
        [str(k) for k in range(num_members)])
    return PosteriorEnsemble(family=DeepEnsembleFamily(arch, members),
                             log_weights=np.zeros(num_members))


def init_deep_ensemble(arch: MlpArchitecture, num_members: int,
                       rng: RngStream) -> PosteriorEnsemble:
    """Freshly initialized members, no training; see init_dropout_ensemble."""
    if num_members < 1:
        raise ValueError("need at least one ensemble member")
    members = [init_params(arch, rng.derive("member", k).generator())
               for k in range(num_members)]
    return PosteriorEnsemble(family=DeepEnsembleFamily(arch, members),
                             log_weights=np.zeros(num_members))


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
    return _dropout_ensemble(arch, params, num_samples, gen)


def _dropout_ensemble(arch: MlpArchitecture, params: MlpParams,
                      num_samples: int, gen) -> PosteriorEnsemble:
    """`params` under S 0/1 masks of width H drawn from `gen`; at dropout
    rate zero (S is 1) the one mask keeps every unit."""
    masks = gen.random((num_samples, arch.hidden)) < 1.0 - arch.dropout_rate
    return PosteriorEnsemble(family=McDropoutFamily(arch, params, masks),
                             log_weights=np.zeros(num_samples))


def train_mc_dropout(train, arch: MlpArchitecture, cfg, num_samples: int,
                     rng):
    """Train once with dropout, then freeze S masks as parameter samples.

    Sequences of same-size training sets, configs and mask streams
    instead give a list of ensembles, one per fit, trained as one
    lockstep group; each equals its fit trained alone.
    """
    if num_samples < 1:
        raise ValueError("need at least one dropout sample")
    group = not isinstance(train, Dataset)
    trains, cfgs, rngs = (list(train), list(cfg), list(rng)) if group \
        else ([train], [cfg], [rng])
    if not trains or not len(trains) == len(cfgs) == len(rngs):
        raise ValueError("a fit group needs one training set, config and "
                         "mask stream per fit")
    if len(trains[0]) == 0:
        raise ValueError("empty training set")
    if arch.dropout_rate == 0.0 and num_samples > 1:
        raise ValueError("degenerate dropout ensemble: dropout rate is zero")
    trained = _train_lockstep(
        trains, arch, cfgs,
        [RngStream(seed=c.seed).derive("mc_dropout") for c in cfgs],
        ["shared"] * len(trains))
    ensembles = [_dropout_ensemble(arch, params, num_samples,
                                   stream.generator())
                 for params, stream in zip(trained, rngs)]
    return ensembles if group else ensembles[0]
