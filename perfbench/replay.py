"""Full-batch gradient-descent replay of the analyze protocol.

With every batch full, one protocol round is one plain gradient step on the
global objective F(w) = mean over clusters of the per-sample mean loss, and
each cluster's data is the union of its clients' samples whatever the
offload split. This module rebuilds the synthetic corpus and its partition
from the scenario's data section and runs that descent with its own
tanh-MLP gradient, so the `lhs`, `f0` and `f_star` of bounds.json can be
checked without calling the program's training code.
"""

from __future__ import annotations

import math

import numpy as np


def client_datasets(data: dict, n_clients: int, seed: int):
    """Per-client (features, labels), in scenario client order."""
    spc = int(data["samples_per_client"])
    classes, dim, noise = int(data["classes"]), int(data["dim"]), float(data["noise"])
    n = spc * n_clients
    means = np.random.default_rng(seed).standard_normal((classes, dim)) * (3.0 / math.sqrt(dim))
    rng = np.random.default_rng(seed)
    labels = np.tile(np.arange(classes, dtype=np.int64), n // classes + 1)[:n]
    labels = labels[rng.permutation(n)]
    features = means[labels] + noise * rng.standard_normal((n, dim))
    if data["partition"] != "shard_noniid":
        raise ValueError("the replay covers the shard_noniid partition only")
    per = int(data["shards_per_client"])
    total = n_clients * per
    size = n // total
    shards = np.argsort(labels, kind="stable")[: total * size].reshape(total, size)
    deal = np.random.default_rng(seed).permutation(total)
    out = []
    for k in range(n_clients):
        idx = np.sort(np.concatenate([shards[s] for s in deal[k * per:(k + 1) * per]]))
        out.append((features[idx], labels[idx]))
    return out


def _loss_grad(w, dims, x, y):
    d, h, c = dims
    w1 = w[: d * h].reshape(d, h)
    b1 = w[d * h: d * h + h]
    w2 = w[d * h + h: d * h + h + h * c].reshape(h, c)
    b2 = w[d * h + h + h * c:]
    hid = np.tanh(x @ w1 + b1)
    z = hid @ w2 + b2
    z = z - z.max(axis=1, keepdims=True)
    p = np.exp(z)
    s = p.sum(axis=1)
    rows = np.arange(len(y))
    loss = float(np.mean(np.log(s) - z[rows, y]))
    dz = p / s[:, None]
    dz[rows, y] -= 1.0
    dz /= len(y)
    dh = (dz @ w2.T) * (1.0 - hid * hid)
    grad = np.concatenate([(x.T @ dh).ravel(), dh.sum(0), (hid.T @ dz).ravel(), dz.sum(0)])
    return loss, grad


def gd_replay(raw: dict, data_seed: int, model_seed: int, lrs) -> dict:
    """lhs = sum_r eta_r |grad F(w_r)|^2 / sum_r eta_r, with f0 and f_star."""
    data = raw["data"]
    dims = (int(data["dim"]), int(data["model"]["hidden"]), int(data["classes"]))
    n_clients = sum(len(c["clients"]) for c in raw["clusters"])
    parts = client_datasets(data, n_clients, data_seed)
    clusters, k = [], 0
    for c in raw["clusters"]:
        m = len(c["clients"])
        clusters.append((np.concatenate([x for x, _ in parts[k:k + m]]),
                         np.concatenate([y for _, y in parts[k:k + m]])))
        k += m
    count = dims[0] * dims[1] + dims[1] + dims[1] * dims[2] + dims[2]
    w = np.random.default_rng(model_seed).uniform(-0.05, 0.05, size=count)

    def objective(v):
        pieces = [_loss_grad(v, dims, x, y) for x, y in clusters]
        return float(np.mean([p[0] for p in pieces])), np.mean([p[1] for p in pieces], axis=0)

    f0, g = objective(w)
    f_star, acc = f0, 0.0
    for eta in lrs:
        acc += eta * float(g @ g)
        w = w - eta * g
        f, g = objective(w)
        f_star = min(f_star, f)
    return {"lhs": acc / float(sum(lrs)), "f0": f0, "f_star": f_star}
