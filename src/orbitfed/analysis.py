"""Convergence-bound reporting: sample variances, the batching penalty, the
bound itself, and an empirical check of it on small instances.

The bound applies to the eta-weighted average squared gradient norm of the
global objective. Its noise term scales with a batching penalty that is zero
exactly when every client and satellite processes its full data each round,
and grows as mini-batches shrink. The smoothness and data-variability
constants are estimated as empirical maxima over random pairs, so they are
lower bounds on the true constants and the reported bound is "reported, not
certified". For logistic layouts a certified upper bound on the smoothness
constant is reported beside the estimate.

The smoothness estimate takes two full-data gradients per weight pair. Its
pairs run in blocks of about L_BLOCK_ROWS model-rows through one reused
`fl.Workspace`: each block's pairs are drawn as it runs, in the order one
pair at a time would draw them, and a corpus too large for one pair is
split into row blocks whose gradients are summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fl import TrainConfig, Workspace, gradient, init_model, loss_and_grad
from .scenario import concat_samples
from .sim import cluster_blocks, protocol_round

WEIGHT_SCALE = 0.5  # std of the random weights the smoothness estimate draws
BOUND_TRIALS = 4000  # smoothness-estimate trials behind a reported bound
L_BLOCK_ROWS = 4096  # model-rows per gradient call of the smoothness estimate's L loop
RHO_BLOCK = 16  # rho-estimate sample pairs per stacked gradient call; bounded by memory


def sample_variance(samples) -> float:
    """Unbiased sample variance of feature vectors about their mean."""
    x = samples.features if hasattr(samples, "features") else np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    if n < 2:
        raise ValueError("sample variance needs at least two samples")
    mean = x.mean(axis=0)
    return float(np.sum((x - mean) ** 2) / (n - 1))


@dataclass(frozen=True)
class BoundInputs:
    """Everything the bound needs besides the datasets themselves.

    Batch sizes are per-round constants: client_batch[k] samples processed by
    client k out of its client_pool[k] retained samples, and sat_batch[j] out
    of the sat_pool[j] samples gathered at cluster j's satellite.
    dataset_sizes holds the full per-client dataset sizes that weight the
    global objective, and v_client[k] and v_sat[j] the sample variances of
    client k's retained data and of cluster j's satellite pool.
    """

    learning_rates: tuple
    smoothness: float
    data_variability: float
    client_batch: dict
    client_pool: dict
    sat_batch: dict
    sat_pool: dict
    dataset_sizes: dict
    groups: dict  # cluster id -> tuple of client ids
    v_client: dict
    v_sat: dict
    f0: float = math.nan
    f_star: float = math.nan

    @property
    def rounds(self) -> int:
        return len(self.learning_rates)

    @property
    def gamma_r(self) -> float:
        return float(sum(self.learning_rates))

    @property
    def sum_eta_sq(self) -> float:
        return float(sum(e * e for e in self.learning_rates))

    def lr_premise_ok(self) -> bool:
        # the bound's derivation assumes eta_r <= 1/(2L)
        if self.smoothness <= 0:
            return True
        return max(self.learning_rates) <= 1.0 / (2.0 * self.smoothness) + 1e-12


def _batch_term(lam: float, pool: int, rho: float, variance: float) -> float:
    if pool <= 1:
        return 0.0
    if not 0 < lam <= pool:
        raise ValueError(f"batch size {lam} outside (0, {pool}]")
    return (1.0 - lam / pool) * ((pool - 1) * rho / lam) * variance


def omega(inputs: BoundInputs) -> float:
    """Batching penalty: 2/(sum |D_k|) times the round sum of per-client and
    per-satellite variance terms. Zero iff every batch is full."""
    d_tot = float(sum(inputs.dataset_sizes.values()))
    if d_tot <= 0:
        raise ValueError("no dataset mass")
    rho = inputs.data_variability
    per_round = 0.0
    for cid, members in inputs.groups.items():
        for k in members:
            per_round += _batch_term(
                inputs.client_batch[k], inputs.client_pool[k], rho, inputs.v_client[k])
        pool = inputs.sat_pool.get(cid, 0)
        if pool > 0:
            per_round += _batch_term(
                inputs.sat_batch[cid], pool, rho, inputs.v_sat[cid])
    return (2.0 / d_tot) * inputs.rounds * per_round


def convergence_bound(inputs: BoundInputs, omega_value: float) -> float:
    """U = 2(F(w0) - F*)/Gamma_R + 2 L Omega sum(eta^2)/Gamma_R."""
    gamma = inputs.gamma_r
    if gamma <= 0:
        raise ValueError("learning-rate sum must be positive")
    if math.isnan(inputs.f0) or math.isnan(inputs.f_star):
        raise ValueError("bound needs F(w0) and an F* surrogate")
    init_term = 2.0 * (inputs.f0 - inputs.f_star) / gamma
    noise_term = 2.0 * inputs.smoothness * omega_value * inputs.sum_eta_sq / gamma
    return init_term + noise_term


def build_bound_inputs(scenario, learning_rates, smoothness, rho,
                       f0=math.nan, f_star=math.nan,
                       lambda_client=None, lambda_sat=None) -> BoundInputs:
    """Assemble BoundInputs from an offloaded scenario: each client's
    retained rows and each cluster's satellite pool are read from the
    `ClusterBlock`s, with their sample variances (0 below two samples); a
    scenario without blocks is refused with `sim`'s SimError. Batch sizes
    default to the full pools (the protocol processes everything each
    round); an int lambda_client/lambda_sat models mini-batching, clamped
    to each pool."""

    def resolve(lam, full):
        if lam is None:
            return full
        return max(1, min(int(lam), full)) if full > 0 else full

    def var(samples):
        return sample_variance(samples) if len(samples) >= 2 else 0.0

    blocks = cluster_blocks(scenario)
    client_batch, client_pool, dataset_sizes, v_client = {}, {}, {}, {}
    for p in scenario.clients:
        block = blocks[p.cluster_id]
        retained = block.samples.rows(*block.retained[p.id])
        client_pool[p.id] = len(retained)
        client_batch[p.id] = resolve(lambda_client, len(retained))
        dataset_sizes[p.id] = p.size
        v_client[p.id] = var(retained)
    sat_batch, sat_pool, v_sat, groups = {}, {}, {}, {}
    for c in scenario.clusters:
        block = blocks[c.id]
        pool = block.samples.rows(*block.pool)
        sat_pool[c.id] = len(pool)
        sat_batch[c.id] = resolve(lambda_sat, len(pool))
        v_sat[c.id] = var(pool)
        groups[c.id] = tuple(p.id for p in scenario.cluster_clients(c.id))
    return BoundInputs(
        learning_rates=tuple(learning_rates), smoothness=smoothness,
        data_variability=rho, client_batch=client_batch, client_pool=client_pool,
        sat_batch=sat_batch, sat_pool=sat_pool, dataset_sizes=dataset_sizes,
        groups=groups, v_client=v_client, v_sat=v_sat, f0=f0, f_star=f_star,
    )


def _full_gradients(values, layout, x, y, block_rows: int, work: Workspace):
    """Full-data gradients of a (K, P) stack of models, taken over row blocks
    of at most `block_rows` and summed with weights n_b/n. With one block the
    result is a view into `work`."""
    n = len(x)
    if block_rows >= n:
        return gradient(values, layout, x, y, work=work)
    total = np.zeros(values.shape)
    for lo in range(0, n, block_rows):
        hi = min(lo + block_rows, n)
        g = gradient(values, layout, x[lo:hi], y[lo:hi], work=work)
        g *= (hi - lo) / n
        total += g
    return total


def estimate_smoothness_and_rho(layout, samples, trials: int = 10000, seed: int = 0):
    """Empirical maxima of the gradient Lipschitz ratio over random weight
    pairs (L) and over sample pairs at random weights (rho). Zero-distance
    pairs are skipped. Lower bounds on the true constants.

    The rng draws each L pair's w then its v, and all L pairs before any rho
    pair. The L pairs run in blocks through one reused `Workspace`. A block
    of m = max(1, L_BLOCK_ROWS // 2n) pairs, about L_BLOCK_ROWS model-rows,
    is drawn as it runs, as one (m, 2, P) normal draw, which is the stream
    of 2m single draws; its 2m models take their full-data gradients as one
    stack. A corpus of more than L_BLOCK_ROWS/2 rows runs one pair per block
    and sums its gradients over row blocks of L_BLOCK_ROWS/2 rows. The rho
    pairs' single-row gradients run RHO_BLOCK pairs per stacked call; each
    pair's weights and rows are drawn in the same order as one pair at a
    time."""
    dim = layout.param_count
    x = samples.features
    y = samples.labels
    n = len(x)
    rng = np.random.default_rng([int(seed), 23])
    n_pairs = max(1, trials // 2)
    work = Workspace()

    l_hat = 0.0
    per_block = max(1, L_BLOCK_ROWS // (2 * n))
    for lo in range(0, n_pairs, per_block):
        m = min(per_block, n_pairs - lo)
        wv = rng.normal(0.0, WEIGHT_SCALE, (m, 2, dim))
        g = _full_gradients(wv.reshape(2 * m, dim), layout, x, y, L_BLOCK_ROWS // 2, work)
        for k in range(m):
            d = float(np.linalg.norm(wv[k, 0] - wv[k, 1]))
            if d > 0.0:
                l_hat = max(l_hat, float(np.linalg.norm(g[2 * k] - g[2 * k + 1])) / d)

    rho_hat = 0.0
    for lo in range(0, n_pairs, RHO_BLOCK):
        m = min(RHO_BLOCK, n_pairs - lo)
        ws = np.empty((m, dim))
        ij = np.empty((m, 2), dtype=np.int64)
        for k in range(m):
            ws[k] = rng.normal(0.0, WEIGHT_SCALE, dim)
            ij[k] = rng.integers(0, n, size=2)
        d = np.linalg.norm(x[ij[:, 0]] - x[ij[:, 1]], axis=1)
        keep = d > 0.0
        if not keep.any():
            continue
        rows = ij[keep].ravel()
        g = gradient(np.repeat(ws[keep], 2, axis=0), layout, x[rows][:, None], y[rows][:, None],
                     work=work)
        g = g.reshape(-1, 2, dim)
        rho_hat = max(rho_hat, float(np.max(np.linalg.norm(g[:, 0] - g[:, 1], axis=1) / d[keep])))
    return l_hat, rho_hat


def certified_smoothness(layout, samples):
    """A certified upper bound on the smoothness constant of the mean
    softmax cross-entropy of a logistic layout: lambda_max(X~ᵀX~)/(2n), with
    X~ the features plus a bias column, since the Hessian in the logits,
    diag(p) - ppᵀ, is at most I/2 (Böhning, Ann. Inst. Statist. Math. 44,
    1992). None for an MLP, whose loss has no such closed form."""
    if layout.kind != "logistic":
        return None
    xt = np.hstack([samples.features, np.ones((len(samples), 1))])
    return float(np.linalg.eigvalsh(xt.T @ xt)[-1]) / (2.0 * len(samples))


def _global_loss_and_grad(values, layout, cluster_data):
    """F(w), the unweighted mean over clusters of the per-sample mean loss,
    and its gradient, from one pass over each cluster's data."""
    parts = [loss_and_grad(values, layout, x, y) for x, y in cluster_data]
    return float(np.mean([loss for loss, _ in parts])), np.mean([g for _, g in parts], axis=0)


def verify_bound_empirically(scenario, layout, rounds: int, seeds=tuple(range(10)),
                             eta0: float = 0.1, lr_schedule: str = "constant",
                             lambda_client=None, lambda_sat=None) -> dict:
    """Run the one-step-per-round protocol and check the measured weighted
    gradient norm against the bound, once per model seed of seeds, in
    order.

    The protocol recomposes the full-data cluster gradient when batches are
    full, so the full-batch case is plain gradient descent on the global
    objective. Aggregation weights use the actual integer sample counts.

    The scenario must be offloaded: each cluster's data is its
    `ClusterBlock`, its members' retained rows then its satellite pool. A
    scenario without blocks is refused with `sim`'s SimError before any
    estimate runs.
    """
    by_cluster = cluster_blocks(scenario)
    blocks = [by_cluster[c.id].samples for c in scenario.clusters]
    cluster_data = [(b.features, b.labels) for b in blocks]
    merged_all = concat_samples(blocks)
    l_hat, rho_hat = estimate_smoothness_and_rho(layout, merged_all, trials=BOUND_TRIALS)
    config = TrainConfig(eta0=eta0, lr_schedule=lr_schedule, single_step=True)
    lrs = [config.learning_rate(r) for r in range(rounds)]
    inputs = build_bound_inputs(scenario, lrs, l_hat, rho_hat, lambda_client=lambda_client,
                                lambda_sat=lambda_sat)
    # the integer count offloaded over the size: 1 - retained/size differs
    # in the last bit (1 - 2/3 != 1/3)
    eff_alpha = {k: (n - inputs.client_pool[k]) / n for k, n in inputs.dataset_sizes.items()}
    om = omega(inputs)

    per_seed = []
    for s in seeds:
        cfg = replace(config, seed=s)
        model = init_model(layout, seed=s)
        f0, g = _global_loss_and_grad(model.values, layout, cluster_data)
        f_star = f0
        lhs_acc = 0.0
        for r in range(rounds):
            lhs_acc += lrs[r] * float(np.dot(g, g))
            model = protocol_round(scenario, model, cfg, r, eff_alpha,
                                   client_batch=inputs.client_batch,
                                   sat_batch=inputs.sat_batch)
            f, g = _global_loss_and_grad(model.values, layout, cluster_data)
            f_star = min(f_star, f)
        lhs = lhs_acc / inputs.gamma_r
        bound = convergence_bound(replace(inputs, f0=f0, f_star=f_star), om)
        per_seed.append({
            "seed": s, "lhs": lhs, "f0": f0, "f_star": f_star,
            "bound": bound, "holds": lhs <= bound, "margin": bound - lhs,
        })

    return {
        "rounds": rounds,
        "seeds": len(seeds),
        "omega": om,
        "gamma_r": inputs.gamma_r,
        "sum_eta_sq": inputs.sum_eta_sq,
        "smoothness": l_hat,
        "smoothness_certified": certified_smoothness(layout, merged_all),
        "rho": rho_hat,
        "lr_premise_ok": inputs.lr_premise_ok(),
        "per_seed": per_seed,
        "holds_all": all(r["holds"] for r in per_seed),
        "min_margin": min(r["margin"] for r in per_seed),
        "lhs_mean": float(np.mean([r["lhs"] for r in per_seed])),
        "bound_mean": float(np.mean([r["bound"] for r in per_seed])),
        "certified": False,  # L and rho are empirical lower bounds
        "v_client": {str(k): v for k, v in inputs.v_client.items()},
        "v_sat": {str(k): v for k, v in inputs.v_sat.items()},
    }
