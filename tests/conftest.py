"""Shared builders for randomized test instances.

Two families:

* case1_instance: sized so that at any offload level the serving satellite
  finishes within one coverage window (frequency cap chosen above the
  single-window threshold, battery roomy enough for the slowest feasible
  frequency). On these the per-cluster objective decomposes exactly, which
  is what the brute-force comparisons rely on.
* multiwindow_instance: dark clusters where full offload needs several
  windows, exercising handoffs and the closed-form frequency branch.

All draws come from a caller-provided Generator so every test seeds its own.
The Hypothesis profile loaded here makes every property test derandomized
and free of deadlines; each test states only its number of examples.
"""

import math
from pathlib import Path

import numpy as np
from hypothesis import settings

from orbitfed.optimizer import DecisionVector, _contexts, solve_freq
from orbitfed.scenario import scenario_to_dict, validate_scenario

settings.register_profile("orbitfed", derandomize=True, deadline=None)
settings.load_profile("orbitfed")

KAPPA = 1e-28
DIST_M = 784e3
PATHLOSS = 2.0
NOISE_W_HZ = 3.98e-21

REFERENCE_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "reference.json"


def client_dict(pid, cpu_freq_hz, dataset_size, **kw):
    out = {
        "id": pid,
        "cpu_freq_hz": cpu_freq_hz,
        "cycles_per_sample": 3e7,
        "tx_power_w": 0.2,
        "max_offload_fraction": 0.8,
        "energy_budget_j": 50.0,
        "dataset_size": dataset_size,
    }
    out.update(kw)
    return out


def cluster_dict(cid, clients, **kw):
    out = {
        "id": cid,
        "bandwidth_hz": 1e6,
        "isl_rate_bps": 3.125e6,
        "coverage_s": 360.0,
        "sat_max_freq_hz": 1e10,
        "sat_cycles_per_sample": 3e7,
        "sat_tx_power_w": 10.0,
        "sat_initial_energy_j": 500.0,
        "sat_min_residual_j": 100.0,
        "sun_facing": False,
        "sun_power_w": 5.0,
        "sync_delay_s": 1.0,
        "glob_delay_s": 1.0,
        "sat_distance_m": DIST_M,
        "pathloss_exponent": PATHLOSS,
        "noise_density_w_per_hz": NOISE_W_HZ,
        "energy_coeff": KAPPA,
        "clients": clients,
    }
    out.update(kw)
    return out


def scenario_dict(clusters, param_count=1000, sample_bits=6272, name="test", seed=0, **kw):
    out = {
        "name": name,
        "seed": seed,
        "model": {"param_count": param_count, "bits_per_param": 32,
                  "sample_bits": sample_bits},
        "clusters": clusters,
    }
    out.update(kw)
    return out


def random_passes(rng, dwell_s, count):
    """count [start, end] coverage passes with gaps; about one in four is a
    short one of 3-15 s, and the rest last about dwell_s."""
    rows, t = [], float(rng.uniform(0.0, 30.0))
    for _ in range(count):
        short = rng.random() < 0.25
        dwell = float(rng.uniform(3.0, 15.0) if short else dwell_s * rng.uniform(0.8, 1.2))
        rows.append([t, t + dwell])
        t += dwell + float(rng.uniform(5.0, 90.0))
    return rows


def _uplink_tau(size_bits, b, p_tx):
    snr_num = p_tx * DIST_M ** (-PATHLOSS) / NOISE_W_HZ
    return size_bits / (b * math.log2(1.0 + snr_num / b))


def _one_cluster(rng, cid, pid0, n_clients, size_bits, qbits,
                 grid_sizes, sun, alpha_max, window_ratio):
    """window_ratio < 1 puts full offload inside one coverage window,
    > 1 forces multi-window geometry at full offload."""
    t_cov = float(rng.uniform(200.0, 500.0))
    m_s = float(rng.uniform(1e7, 5e7))
    if grid_sizes:
        sizes = 100.0 * rng.integers(2, 13, n_clients)
    else:
        sizes = rng.integers(150, 1501, n_clients).astype(float)
    amax = float(rng.uniform(0.4, 0.8)) if alpha_max is None else alpha_max
    a_cap = amax * float(sizes.sum())

    frac = float(rng.uniform(0.05, 0.4))  # tau_trans at full offload, as share of T
    rate = (size_bits + qbits * a_cap) / (frac * t_cov)
    tau_cap = frac * t_cov
    thresh_cap = m_s * a_cap / (t_cov - tau_cap)
    f_max = thresh_cap / window_ratio

    psi = float(rng.uniform(50.0, 150.0))
    p_sat = float(rng.uniform(5.0, 15.0))
    e_tr_cap = p_sat * tau_cap
    if window_ratio < 1.0:
        # battery covers the slowest single-window frequency with margin
        e_need = psi + e_tr_cap + KAPPA * (m_s * a_cap) * thresh_cap ** 2
        e_orig = e_need * float(rng.uniform(1.2, 3.0))
    else:
        # battery sized around a target full-window frequency
        f_target = f_max * float(rng.uniform(0.5, 1.3))
        e_orig = psi + e_tr_cap + KAPPA * (t_cov - tau_cap) * f_target ** 3

    bandwidth = float(np.exp(rng.uniform(np.log(2e5), np.log(5e6))))
    clients = []
    for k in range(n_clients):
        f_c = float(np.exp(rng.uniform(np.log(1e8), np.log(1e9))))
        m_c = float(rng.uniform(1e7, 5e7))
        p_c = float(rng.uniform(0.1, 0.5))
        e_loc0 = KAPPA * m_c * sizes[k] * f_c ** 2
        e_agg = p_c * _uplink_tau(size_bits, bandwidth / (4.0 * n_clients), p_c)
        budget = (e_loc0 + e_agg) * float(rng.uniform(1.5, 4.0))
        clients.append(client_dict(
            pid0 + k, f_c, int(sizes[k]),
            cycles_per_sample=m_c, tx_power_w=p_c,
            max_offload_fraction=amax, energy_budget_j=budget,
        ))

    return cluster_dict(
        cid, clients,
        bandwidth_hz=bandwidth,
        isl_rate_bps=rate,
        coverage_s=t_cov,
        sat_max_freq_hz=f_max,
        sat_cycles_per_sample=m_s,
        sat_tx_power_w=p_sat,
        sat_initial_energy_j=e_orig,
        sat_min_residual_j=psi,
        sun_facing=sun,
        sun_power_w=float(rng.uniform(2.0, 8.0)),
        sync_delay_s=float(rng.uniform(0.5, 2.0)),
        glob_delay_s=float(rng.uniform(0.5, 2.0)),
    )


def _draw_model(rng):
    param_count = int(rng.integers(300, 5001))
    qbits = float(rng.uniform(500.0, 7000.0))
    return param_count, 32.0 * param_count, qbits


def case1_instance(rng, n_clients=2, n_clusters=1, grid_sizes=False,
                   sun=None, alpha_max=None):
    pc, size_bits, qb = _draw_model(rng)
    clusters = []
    for cid in range(n_clusters):
        facing = bool(rng.integers(0, 2)) if sun is None else sun
        ratio = float(rng.uniform(0.2, 0.7))
        clusters.append(_one_cluster(
            rng, cid, cid * n_clients, n_clients, size_bits, qb,
            grid_sizes, facing, alpha_max, ratio))
    return validate_scenario(scenario_dict(clusters, param_count=pc, sample_bits=qb))


def multiwindow_instance(rng, n_clients=2, n_clusters=1):
    pc, size_bits, qb = _draw_model(rng)
    clusters = []
    for cid in range(n_clusters):
        ratio = float(rng.uniform(1.5, 4.0))
        clusters.append(_one_cluster(
            rng, cid, cid * n_clients, n_clients, size_bits, qb,
            False, False, None, ratio))
    return validate_scenario(scenario_dict(clusters, param_count=pc, sample_bits=qb))


def mixed_instance(rng):
    """1-3 clusters, some single-window (possibly sun), some multi-window dark."""
    pc, size_bits, qb = _draw_model(rng)
    n_clusters = int(rng.integers(1, 4))
    clusters = []
    pid = 0
    for cid in range(n_clusters):
        n_clients = int(rng.integers(2, 6))
        if rng.random() < 0.3:
            ratio = float(rng.uniform(1.5, 3.0))
            facing = False
        else:
            ratio = float(rng.uniform(0.2, 0.7))
            facing = bool(rng.integers(0, 2))
        clusters.append(_one_cluster(
            rng, cid, pid, n_clients, size_bits, qb, False, facing, None, ratio))
        pid += n_clients
    return validate_scenario(scenario_dict(clusters, param_count=pc, sample_bits=qb))


def decades_instance(rng):
    """A case1, multiwindow or mixed scenario whose satellites span decades:
    sun power, relay power, clock cap, cycles per sample and battery each
    scaled by up to a few, and each cluster sunlit or dark at random. Relays
    that draw less than the sun gives (sat_tx_power_w < sun_power_w) and
    clocks that draw more than the relay (kappa f^3 > sat_tx_power_w) both
    occur."""
    build = (case1_instance, multiwindow_instance, mixed_instance)[int(rng.integers(3))]
    raw = scenario_to_dict(build(rng))
    for c in raw["clusters"]:
        c["sun_facing"] = bool(rng.integers(2))
        c["sun_power_w"] *= 10.0 ** rng.uniform(-2.0, 2.0)
        c["sat_tx_power_w"] *= 10.0 ** rng.uniform(-2.0, 1.0)
        c["sat_max_freq_hz"] *= 10.0 ** rng.uniform(-1.0, 3.0)
        c["sat_cycles_per_sample"] *= 10.0 ** rng.uniform(0.0, 3.0)
        c["sat_initial_energy_j"] *= 10.0 ** rng.uniform(-1.0, 1.0)
    return validate_scenario(raw)


def default_init(scenario):
    """A plain feasible-looking decision for tests that need one: half-max
    offload (projected into the cluster cap), battery-max frequency at that
    offload, equal bandwidth split."""
    ctxs = _contexts(scenario)
    alpha = {}
    for ctx in ctxs:
        cluster = ctx.cluster
        base = ctx.alpha_max * 0.5
        total = float(np.sum(base * ctx.sizes))
        if total > cluster.max_offload_samples > 0:
            base = base * (cluster.max_offload_samples / total)
        elif cluster.max_offload_samples == 0:
            base = base * 0.0
        share = cluster.bandwidth_hz / len(ctx.ids)
        # the least offload each energy budget allows with an equal split,
        # unless the split busts some budget even at full offload
        need = ctx.energy_need + ctx.energy_slope * ctx.tau_agg(share)
        if np.all(need <= ctx.a_max + 1e-9 * ctx.sizes):
            base = np.maximum(base, np.clip(np.divide(need, ctx.sizes, out=np.zeros_like(need),
                                                      where=ctx.sizes > 0), 0.0, ctx.alpha_max))
        for k, pid in enumerate(ctx.ids):
            alpha[pid] = float(base[k])
    freq = solve_freq(scenario, alpha, ctxs)
    bandwidth = {}
    for ctx in ctxs:
        share = ctx.cluster.bandwidth_hz / len(ctx.ids)
        for pid in ctx.ids:
            bandwidth[pid] = share
    return DecisionVector(alpha=alpha, sat_freq_hz=freq, bandwidth_hz=bandwidth)
