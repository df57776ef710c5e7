"""Model families and federated training primitives.

Two model families, both with hand-derived gradients on top of numpy:
multinomial logistic regression and a one-hidden-layer tanh MLP. Training
follows the cooperative round shape: clients take one mini-batch pass over
their retained samples, the cluster satellite takes one pass over the pooled
offloaded samples, then models merge by data-weighted intra-cluster
aggregation and an unweighted global mean.

The forward and backward passes are written once, over optional leading
model axes, so one call can step a whole stack of models: a round's local
updates run as one `local_update_stack`, of which `local_update` is the
one-model case. Its models train on row spans of a few sample blocks (one
per cluster in a protocol round), whose batches it gathers a chunk of steps
at a time. The passes work class-major, with logits (..., classes, rows),
so the softmax reduces along contiguous rows. A caller that takes many
gradients of one shape can hand them a `Workspace`, whose buffers the
passes write into in place of fresh arrays. They call the ufuncs'
reductions and the array methods directly, not numpy's Python-level
wrappers, which on a training step's small arrays cost about as much as the
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# rows of training batches gathered per take: a few steps of a round's widest
# stacks, small enough that the buffers stay a fraction of one cluster's data
CHUNK_ROWS = 2048


@dataclass(frozen=True)
class ModelLayout:
    kind: str  # "logistic" | "mlp"
    dims: tuple  # logistic: (in, classes); mlp: (in, hidden, classes)

    def __post_init__(self):
        if self.kind == "logistic":
            if len(self.dims) != 2:
                raise ValueError("logistic layout needs (in_dim, n_classes)")
        elif self.kind == "mlp":
            if len(self.dims) != 3:
                raise ValueError("mlp layout needs (in_dim, hidden, n_classes)")
        else:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if any(int(d) <= 0 for d in self.dims):
            raise ValueError("layout dimensions must be positive")

    @property
    def param_count(self) -> int:
        if self.kind == "logistic":
            d, c = self.dims
            return d * c + c
        d, h, c = self.dims
        return d * h + h + h * c + c

    @property
    def n_classes(self) -> int:
        return self.dims[-1]


@dataclass(frozen=True)
class ModelParams:
    values: np.ndarray  # flat float64 vector
    layout: ModelLayout

    def __post_init__(self):
        if self.values.shape != (self.layout.param_count,):
            raise ValueError(
                f"parameter vector length {self.values.shape} does not match layout "
                f"({self.layout.param_count})"
            )


@dataclass(frozen=True)
class TrainConfig:
    eta0: float = 0.1
    lr_schedule: str = "inv"  # "inv": eta0/(1+r); "constant": eta0
    momentum: float = 0.9
    prox_mu: float = 0.0  # 0 disables the proximal pull entirely
    batch_size: int = 32
    sat_batch_size: int | None = None  # None: same as batch_size
    single_step: bool = False
    seed: int = 0

    def learning_rate(self, round_index: int) -> float:
        if self.lr_schedule == "constant":
            return self.eta0
        if self.lr_schedule == "inv":
            return self.eta0 / (1.0 + round_index)
        raise ValueError(f"unknown lr schedule {self.lr_schedule!r}")


def init_model(layout: ModelLayout, seed: int = 0) -> ModelParams:
    """Small-uniform deterministic initialization."""
    rng = np.random.default_rng(seed)
    return ModelParams(rng.uniform(-0.05, 0.05, size=layout.param_count), layout)


def _views(values: np.ndarray, layout: ModelLayout):
    """Weight and bias views of flat parameters (..., P), over any leading
    model axes."""
    lead = values.shape[:-1]
    if layout.kind == "logistic":
        d, c = layout.dims
        w = values[..., : d * c].reshape(lead + (d, c))
        b = values[..., d * c:]
        return w, b
    d, h, c = layout.dims
    o = 0
    w1 = values[..., o:o + d * h].reshape(lead + (d, h)); o += d * h
    b1 = values[..., o:o + h]; o += h
    w2 = values[..., o:o + h * c].reshape(lead + (h, c)); o += h * c
    b2 = values[..., o:]
    return w1, b1, w2, b2


def _fresh(_name, shape):
    return np.empty(shape)


class Workspace:
    """Scratch arrays reused across gradient calls: `work(name, shape)` is a
    C-contiguous view of the first prod(shape) entries of the named buffer,
    which grows to the largest size asked of it. Each view is valid until the
    next call that asks for the same name."""

    def __init__(self):
        self._buffers = {}

    def __call__(self, name: str, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


def _stack_shape(a: tuple, b: tuple) -> tuple:
    """The broadcast of two leading-axis shapes. Equal or empty ones, the
    only kinds the callers pass, skip numpy's general rule and its few
    microseconds a call."""
    if a == b or not b:
        return a
    return b if not a else np.broadcast_shapes(a, b)


def _forward(params, X: np.ndarray, alloc=_fresh):
    """Class-major logits (..., classes, n) and the MLP's hidden activations
    (..., hidden, n), None for logistic, of the views `params` on features X
    (..., n, d): each layer is wᵀ @ Xᵀ, so that the softmax's reductions run
    along contiguous rows. `alloc(name, shape)` gives the output arrays."""
    Xt = X.swapaxes(-1, -2)
    n = X.shape[-2]
    if len(params) == 2:
        w, b = params
        wt = w.swapaxes(-1, -2)
        lead = _stack_shape(wt.shape[:-2], Xt.shape[:-2])
        logits = np.matmul(wt, Xt, out=alloc("logits", lead + (wt.shape[-2], n)))
        logits += b[..., None]
        return logits, None
    w1, b1, w2, b2 = params
    w1t, w2t = w1.swapaxes(-1, -2), w2.swapaxes(-1, -2)
    lead = _stack_shape(w1t.shape[:-2], Xt.shape[:-2])
    hidden = np.matmul(w1t, Xt, out=alloc("hidden", lead + (w1t.shape[-2], n)))
    hidden += b1[..., None]
    np.tanh(hidden, out=hidden)
    logits = np.matmul(w2t, hidden, out=alloc("logits", lead + (w2t.shape[-2], n)))
    logits += b2[..., None]
    return logits, hidden


def _softmax(logits: np.ndarray, label_index=None, alloc=_fresh):
    """Turn class-major logits (..., classes, n) into probabilities in place.

    Returns the partition sums (..., 1, n) of the shifted logits and, when
    `label_index` is given, the shifted logits of the true classes, taken
    before the exp overwrites them. The sums reuse the array that held the
    row maxima."""
    red = alloc("reduction", logits.shape[:-2] + (1, logits.shape[-1]))
    logits -= np.maximum.reduce(logits, axis=-2, keepdims=True, out=red)
    true = logits[label_index] if label_index is not None else None
    np.exp(logits, out=logits)
    den = np.add.reduce(logits, axis=-2, keepdims=True, out=red)
    logits /= den
    return den, true


def _label_index(y: np.ndarray):
    """Index of each row's true-class entry in a class-major (..., classes, n)
    array, for labels y (..., n)."""
    grids = np.ix_(*(np.arange(s) for s in y.shape))
    return (*grids[:-1], y, grids[-1])


def _mean_ce(den, true) -> float:
    return float(np.mean(np.log(den[..., 0, :]) - true))


def _loss_grad(values, layout: ModelLayout, X, y, with_loss: bool, work=None):
    """Mean cross-entropy gradient over any leading model axes: values
    (..., P), X (..., n, d) and y (..., n), broadcast against each other over
    those axes, give a (..., P) gradient. The loss is computed only when asked
    for, and only for one model (2-D X).

    With a `Workspace` as `work`, every array the passes write comes from it,
    the gradient too, which then stays valid until the next call on that
    workspace; without one each call allocates its own."""
    alloc = _fresh if work is None else work
    n = X.shape[-2]
    params = _views(values, layout)
    # the logits become the probabilities, then dz, in place
    dz, hidden = _forward(params, X, alloc)
    den, true = _softmax(dz, _label_index(y) if with_loss else None, alloc)
    loss = _mean_ce(den, true) if with_loss else None
    # minus a one-hot of the labels: p - 1 at the true class, p - 0 = p elsewhere
    dz -= y[..., None, :] == np.arange(layout.n_classes)[:, None]
    dz /= n
    lead = dz.shape[:-2]
    g = alloc("grad", lead + (layout.param_count,))
    dzt = dz.swapaxes(-1, -2)
    if layout.kind == "logistic":
        d, c = layout.dims
        np.matmul(X.swapaxes(-1, -2), dzt, out=g[..., :d * c].reshape(lead + (d, c)))
        np.add.reduce(dz, axis=-1, out=g[..., d * c:])
        return loss, g
    d, h, c = layout.dims
    o = d * h + h
    np.matmul(hidden, dzt, out=g[..., o:o + h * c].reshape(lead + (h, c)))
    np.add.reduce(dz, axis=-1, out=g[..., o + h * c:])
    dh = np.matmul(params[2], dz, out=alloc("dh", hidden.shape))
    hidden *= hidden
    np.subtract(1.0, hidden, out=hidden)
    dh *= hidden
    np.matmul(X.swapaxes(-1, -2), dh.swapaxes(-1, -2),
              out=g[..., :d * h].reshape(lead + (d, h)))
    np.add.reduce(dh, axis=-1, out=g[..., d * h:o])
    return loss, g


def loss_and_grad(values: np.ndarray, layout: ModelLayout, X: np.ndarray, y: np.ndarray):
    """Mean cross-entropy and its flat gradient."""
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    return _loss_grad(values, layout, X, y, with_loss=True)


def gradient(values: np.ndarray, layout: ModelLayout, X: np.ndarray, y: np.ndarray,
             work: Workspace | None = None):
    """Mean cross-entropy gradient alone, over any leading model axes:
    values (..., P), X (..., n, d) and y (..., n) give (..., P). With a
    `work`, the result is a view into it (see `_loss_grad`)."""
    return _loss_grad(values, layout, X, y, with_loss=False, work=work)[1]


def evaluate(model: ModelParams, test_set) -> tuple:
    """Top-1 accuracy and mean loss on a sample set, from one forward pass."""
    if len(test_set) == 0:
        raise ValueError("empty test set")
    y = test_set.labels
    logits, _ = _forward(_views(model.values, model.layout), test_set.features)
    acc = float(np.mean(np.argmax(logits, axis=0) == y))
    den, true = _softmax(logits, _label_index(y))
    return acc, _mean_ce(den, true)


def _schedule(lengths) -> list:
    """The runs of each step: for lengths (T, K), where lengths[t, i] is the
    length of model i's batch at step t and 0 once it is done, the
    (lo, hi, length) ranges of neighbouring models that step together."""
    steps, count = lengths.shape
    edges = [[0] for _ in range(steps)]
    for t, i in zip(*(a.tolist() for a in np.nonzero(np.diff(lengths, axis=1)))):
        edges[t].append(i + 1)
    rows = lengths.tolist()
    return [[(lo, hi, row[lo]) for lo, hi in zip(e, e[1:] + [count]) if row[lo]]
            for e, row in zip(edges, rows)]


def local_update_stack(values, layout: ModelLayout, blocks, spans, config: TrainConfig,
                       round_index: int, batch_sizes, streams) -> np.ndarray:
    """Local updates of K models at once; returns their (K, P) parameters.

    Model k trains on rows [start, stop) of `blocks[b]`, a sample set, for
    (b, start, stop) = `spans[k]`, with batch size `batch_sizes[k]`,
    shuffled by its own `default_rng([seed, round, *streams[k]])`
    permutation. Default mode is one mini-batch pass with momentum (plus an
    optional proximal pull toward the row's starting point); single_step
    mode takes exactly one plain SGD step on one sampled mini-batch.

    At step t every model that still has a batch takes it, and each run of
    neighbouring models whose batches have the same length steps as one
    (G, B, d) stack. A ragged last batch thus divides by its own size, and
    every row comes out bit for bit as a one-model update would leave it.

    The batches are gathered a chunk of consecutive steps at a time, about
    `CHUNK_ROWS` rows: one take per block stages the block's rows for the
    chunk, in training order, and one more lays all the staged rows out
    step by step, each run's batches in one piece, so that every stack is a
    view and no row is padding.
    """
    count = len(spans)
    sizes = [stop - start for _, start, stop in spans]
    if min(sizes) <= 0:
        raise ValueError("local update on empty sample set")
    bs = [max(1, min(int(b), n)) for b, n in zip(batch_sizes, sizes)]
    # the rows each model trains on: one batch in single_step mode
    used = [b if config.single_step else n for b, n in zip(bs, sizes)]
    steps = [-(-u // b) for u, b in zip(used, bs)]
    # most steps first, so the models still stepping at t are a prefix; at a
    # tie the longer last batch first, so equal lengths tend to sit together
    order = sorted(range(count), key=lambda k: (-steps[k], (steps[k] - 1) * bs[k] - used[k]))
    bs, used = [bs[k] for k in order], [used[k] for k in order]
    block_of = np.array([spans[k][0] for k in order], dtype=np.intp)
    # done[t, i]: the rows model i has trained on before step t; lengths[t, i]:
    # its batch at step t, 0 once it is done
    done = np.minimum(np.arange(steps[order[0]] + 1)[:, None] * bs, used)
    lengths = np.diff(done, axis=0)
    runs = _schedule(lengths)
    # the models' shuffles end to end, as block rows: model i's batch at step
    # t is the lengths[t, i] rows of its shuffle from done[t, i]
    shuffles = []
    for k in order:
        _, start, stop = spans[k]
        perm = np.random.default_rng([config.seed, round_index, *streams[k]]).permutation(
            stop - start)
        perm += start
        shuffles.append(perm)
    first = np.cumsum([0] + [len(p) for p in shuffles[:-1]])
    # src lists every batch's block rows in the order the chunks stage them:
    # block by block, then step by step and model by model. Batch (t, i)
    # starts at src[at[t, i]], and block b's rows for steps t0 to t1 - 1 are
    # src[bounds[t0, b]:bounds[t1, b]].
    batch = lengths.ravel()
    key = np.argsort(np.broadcast_to(block_of, lengths.shape).ravel(), kind="stable")
    staged = batch[key]
    begin = np.cumsum(staged)
    begin -= staged
    at = np.empty_like(batch)
    at[key] = begin
    at = at.reshape(lengths.shape)
    picks = np.repeat((done[:-1] + first).ravel()[key] - begin, staged)
    picks += np.arange(len(picks))
    src = np.concatenate(shuffles).take(picks)
    block_rows = done @ (block_of[:, None] == np.arange(len(blocks)))
    bounds = block_rows + (np.cumsum(block_rows[-1]) - block_rows[-1])
    chunks, t0, n = [], 0, 0
    for t, step_rows in enumerate(lengths.sum(axis=1).tolist()):
        if n and n + step_rows > CHUNK_ROWS:
            chunks.append((t0, t, n))
            t0, n = t, 0
        n += step_rows
    chunks.append((t0, len(runs), n))
    cap = max(n for _, _, n in chunks)
    dim = blocks[0].features.shape[1]
    stage_x, xs = np.empty((cap, dim)), np.empty((cap, dim))
    stage_y, ys = np.empty(cap, dtype=np.int64), np.empty(cap, dtype=np.int64)

    anchor = np.array(np.broadcast_to(values, (count, layout.param_count))[order],
                      dtype=np.float64)
    w = anchor.copy()
    velocity = np.zeros_like(w)
    eta = config.learning_rate(round_index)
    work = Workspace()
    for t0, t1, n in chunks:
        # stage: each block's rows for the chunk, in training order. Every
        # index is in range; mode="clip" takes straight into `out`, where the
        # default mode fills a temporary copy first.
        shift, o = [], 0
        for block, r0, r1 in zip(blocks, bounds[t0].tolist(), bounds[t1].tolist()):
            shift.append(o - r0)
            if r1 > r0:
                rows, stop = src[r0:r1], o + r1 - r0
                block.features.take(rows, axis=0, out=stage_x[o:stop], mode="clip")
                block.labels.take(rows, out=stage_y[o:stop], mode="clip")
                o = stop
        # step-major: model i's batch at step t is the lengths[t, i] stage
        # rows from at[t, i] + shift[block_of[i]]
        size = lengths[t0:t1].ravel()
        gap = (at[t0:t1] + np.array(shift)[block_of]).ravel()
        gap -= np.cumsum(size) - size
        placed = np.repeat(gap, size)
        placed += np.arange(n)
        stage_x.take(placed, axis=0, out=xs[:n], mode="clip")
        stage_y.take(placed, out=ys[:n], mode="clip")

        o = 0
        for t in range(t0, t1):
            for lo, hi, length in runs[t]:
                end = o + (hi - lo) * length
                X = xs[o:end].reshape(hi - lo, length, dim)
                y = ys[o:end].reshape(hi - lo, length)
                o = end
                w_run = w[lo:hi]
                g = gradient(w_run, layout, X, y, work)
                if not np.isfinite(g).all():
                    i = int(np.argmin(np.isfinite(g).all(axis=1)))
                    loss, _ = _loss_grad(w_run[i], layout, X[i], y[i], with_loss=True)
                    raise FloatingPointError(
                        f"non-finite gradient for model stream {tuple(streams[order[lo + i]])} "
                        f"at batch offset {t * bs[lo + i]} (loss={loss})"
                    )
                if config.prox_mu > 0.0:
                    pull = np.subtract(w_run, anchor[lo:hi], out=work("pull", g.shape))
                    pull *= config.prox_mu
                    g += pull
                if config.single_step:
                    g *= eta
                else:
                    v = velocity[lo:hi]
                    v *= config.momentum
                    v += g
                    np.multiply(v, eta, out=g)
                w_run -= g
    out = np.empty_like(w)
    out[order] = w
    return out


def local_update(
    model: ModelParams,
    samples,
    config: TrainConfig,
    round_index: int,
    batch_size: int | None = None,
    stream=(0,),
) -> ModelParams:
    """One local update on a sample set: the one-model case of
    `local_update_stack`, on the set as its one block."""
    bs = batch_size if batch_size is not None else config.batch_size
    values = local_update_stack(model.values, model.layout, [samples], [(0, 0, len(samples))],
                                config, round_index, [bs], [stream])
    return ModelParams(values[0], model.layout)


def intra_cluster_aggregate(sat_model, client_models, alphas, sizes) -> ModelParams:
    """Data-weighted merge of the satellite model with the cluster's clients.

    Satellite weight is the offloaded mass sum(alpha_k * |D_k|); client k
    weighs (1 - alpha_k) * |D_k|; the total normalizes to sum(|D_k|).
    """
    if len(client_models) != len(alphas) or len(client_models) != len(sizes):
        raise ValueError("client models, alphas and sizes must align")
    sat_weight = float(sum(a * s for a, s in zip(alphas, sizes)))
    denom = float(sum(sizes))
    if denom <= 0:
        raise ValueError("aggregate over zero data")
    ref = client_models[0] if client_models else sat_model
    acc = np.zeros_like(ref.values)
    if sat_weight > 0.0:
        if sat_model is None:
            raise ValueError("positive offload weight but no satellite model")
        acc += sat_weight * sat_model.values
    for m, a, s in zip(client_models, alphas, sizes):
        if m.layout != ref.layout:
            raise ValueError("mismatched layouts in aggregation")
        acc += (1.0 - a) * s * m.values
    return ModelParams(acc / denom, ref.layout)


def global_aggregate(cluster_models) -> ModelParams:
    """Unweighted mean over cluster models."""
    if not cluster_models:
        raise ValueError("no cluster models to aggregate")
    ref = cluster_models[0]
    acc = np.zeros_like(ref.values)
    for m in cluster_models:
        if m.layout != ref.layout:
            raise ValueError("mismatched layouts in aggregation")
        acc += m.values
    return ModelParams(acc / len(cluster_models), ref.layout)
