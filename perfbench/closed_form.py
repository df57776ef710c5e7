"""The benchmark's own model of one round, recomputed from a raw scenario dict.

Nothing here imports orbitfed: these are the checks the program's outputs
are held to. Every cluster field is read from the dict as written, so the
scenario generators in workloads.py spell out every field they rely on.
"""

from __future__ import annotations

import math

CYC_EPS = 1e-9  # a window counts as fully used within this relative slack


class CheckError(AssertionError):
    """An output of the program disagrees with the benchmark's computation."""


def expect(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def sizes(raw: dict, cluster: dict):
    spc = (raw.get("data") or {}).get("samples_per_client", 0)
    return [float(k.get("dataset_size", spc)) for k in cluster["clients"]]


def coverage_s(cluster: dict) -> float:
    rows = cluster.get("coverage_intervals")
    if rows is None:
        return float(cluster["coverage_s"])
    return sum(r[-1] - r[-2] for r in rows) / len(rows)


def state_bits(raw: dict) -> float:
    return float(raw["model"]["param_count"]) * float(raw["model"]["bits_per_param"])


def decision_maps(dec: dict):
    """(alpha, freq, bandwidth) keyed by int id from a decision.json block."""
    return tuple({int(k): float(v) for k, v in dec[key].items()}
                 for key in ("alpha", "sat_freq_hz", "bandwidth_hz"))


def upload_s(raw: dict, cluster: dict, client: dict, b: float) -> float:
    snr = (client["tx_power_w"] * cluster["sat_distance_m"] ** (-cluster["pathloss_exponent"])
           / (b * cluster["noise_density_w_per_hz"]))
    return state_bits(raw) / (b * math.log2(1.0 + snr))


def cluster_round(raw: dict, cluster: dict, alpha: dict, freq: dict, bw: dict) -> dict:
    """Closed-form timing and energy of one cluster under a decision."""
    t_cov = coverage_s(cluster)
    ds = sizes(raw, cluster)
    ids = [k["id"] for k in cluster["clients"]]
    a = sum(alpha[i] * d for i, d in zip(ids, ds))
    f = freq[cluster["id"]]
    m_s = cluster["sat_cycles_per_sample"]
    tau_tr = (state_bits(raw) + raw["model"]["sample_bits"] * a) / cluster["isl_rate_bps"]
    e_tr = cluster["sat_tx_power_w"] * tau_tr
    kappa = cluster["energy_coeff"]
    if a > 0:
        n = int(math.floor(m_s * a / ((t_cov - tau_tr) * f)))
        rem = max(m_s * a - n * (t_cov - tau_tr) * f, 0.0)
        tau_rep = t_cov * n + rem / f + tau_tr
        chain = [(t_cov, kappa * (t_cov - tau_tr) * f ** 3 + e_tr)] * n
        chain.append((rem / f + tau_tr, kappa * rem * f ** 2 + e_tr))
    else:
        n, tau_rep = 0, tau_tr
        chain = [(tau_tr, e_tr)]

    locs, aggs, energy = [], [], []
    for k, i, d in zip(cluster["clients"], ids, ds):
        loc = k["cycles_per_sample"] * (1.0 - alpha[i]) * d / k["cpu_freq_hz"]
        agg = upload_s(raw, cluster, k, bw[i])
        locs.append(loc)
        aggs.append(agg)
        energy.append(kappa * k["cycles_per_sample"] * (1.0 - alpha[i]) * d
                      * k["cpu_freq_hz"] ** 2 + k["tx_power_w"] * agg)
    m = max(locs)
    if m <= t_cov * n:
        y = t_cov * n + max(aggs)
    else:
        h = math.floor(m / t_cov)
        v = max(max(t_cov * h, tl) + ta for tl, ta in zip(locs, aggs))
        y = v if v <= t_cov * (h + 1) else t_cov * (h + 1) + max(aggs)
    sync = cluster["sync_delay_s"]
    total = max(sync + y, sync + tau_rep) + cluster["glob_delay_s"]
    return {"total_s": total, "offloaded": a, "chain": chain, "client_energy": energy}


def round_latency(raw: dict, dec: dict) -> float:
    alpha, freq, bw = decision_maps(dec)
    return max(cluster_round(raw, c, alpha, freq, bw)["total_s"] for c in raw["clusters"])


def check_constraints(raw: dict, dec: dict, label: str):
    """Every operating constraint of the paper's problem, from the raw dict."""
    alpha, freq, bw = decision_maps(dec)
    tol = 1e-9
    for c in raw["clusters"]:
        cr = cluster_round(raw, c, alpha, freq, bw)
        for k, e in zip(c["clients"], cr["client_energy"]):
            a = alpha[k["id"]]
            expect(-tol <= a <= k["max_offload_fraction"] + tol,
                   f"{label}: client {k['id']} offload {a} outside [0, {k['max_offload_fraction']}]")
            budget = k["energy_budget_j"]
            expect(e <= budget * (1.0 + tol),
                   f"{label}: client {k['id']} energy {e} over budget {budget}")
        total_b = sum(bw[k["id"]] for k in c["clients"])
        expect(total_b <= c["bandwidth_hz"] * (1.0 + tol),
               f"{label}: cluster {c['id']} bandwidth {total_b} over budget {c['bandwidth_hz']}")
        f = freq[c["id"]]
        expect(0.0 < f <= c["sat_max_freq_hz"] * (1.0 + tol),
               f"{label}: cluster {c['id']} frequency {f} outside (0, {c['sat_max_freq_hz']}]")
        charge = c["sun_power_w"] if c["sun_facing"] else 0.0
        e0, psi = c["sat_initial_energy_j"], c["sat_min_residual_j"]
        for dwell, used in cr["chain"]:
            resid = e0 - used + dwell * charge
            expect(resid >= psi - tol * max(1.0, psi, e0),
                   f"{label}: cluster {c['id']} satellite residual {resid} below {psi}")
        cap = c.get("max_offload_samples", math.inf)
        expect(cr["offloaded"] <= cap * (1.0 + tol),
               f"{label}: cluster {c['id']} offload {cr['offloaded']} over cap {cap}")


class ScheduleWalk:
    """Per-cluster replay of the coverage windows a simulation consumes.

    Each round's windows are re-anchored so that the first unused interval
    opens at the cluster's path start; a satellite that fills its whole
    window hands off, and the client path may reach one window past the
    straggler's. The next round starts at the first interval not touched.
    """

    def __init__(self, raw: dict, cluster: dict, alpha: dict, freq: dict, bw: dict):
        self.cluster = cluster
        rows = cluster.get("coverage_intervals")
        self.rows = [tuple(r[-2:]) for r in rows] if rows is not None else None
        self.period = coverage_s(cluster)
        ds = sizes(raw, cluster)
        ids = [k["id"] for k in cluster["clients"]]
        self.a = sum(alpha[i] * d for i, d in zip(ids, ds))
        self.f = freq[cluster["id"]]
        self.cycles = cluster["sat_cycles_per_sample"] * self.a
        self.tau_tr = (state_bits(raw) + raw["model"]["sample_bits"] * self.a) / cluster["isl_rate_bps"]
        self.locs = [k["cycles_per_sample"] * (1.0 - alpha[i]) * d / k["cpu_freq_hz"]
                     for k, i, d in zip(cluster["clients"], ids, ds)]
        self.aggs = [upload_s(raw, cluster, k, bw[i]) for k, i in zip(cluster["clients"], ids)]
        self.pos = 0

    def _window(self, start: float, i: int):
        if self.rows is None:
            return start + i * self.period, start + (i + 1) * self.period
        expect(self.pos + i < len(self.rows),
               f"cluster {self.cluster['id']}: schedule walk ran out of intervals")
        base = self.rows[self.pos][0]
        s, e = self.rows[self.pos + i]
        return start + (s - base), start + (e - base)

    def round(self, path_start: float):
        """Walk one round; returns (handoffs, cluster completion time)."""
        remaining = self.cycles
        i = 0
        while True:
            s, e = self._window(path_start, i)
            cap = max(e - s - self.tau_tr, 0.0) * self.f
            take = min(remaining, cap)
            remaining -= take
            if (cap - take) <= CYC_EPS * max(1.0, cap):
                i += 1
                continue
            finish = s + self.tau_tr + take / self.f
            break
        used = i + 1
        gate = self._window(path_start, i)[0]
        ready = [path_start + t for t in self.locs]
        m_abs = max(ready)
        if m_abs <= gate:
            y = gate + max(self.aggs)
        else:
            j = 0
            while self._window(path_start, j)[1] <= m_abs:
                j += 1
            s_star, e_star = self._window(path_start, j)
            v = max(max(s_star, r) + ta for r, ta in zip(ready, self.aggs))
            used = max(used, j + 1)
            if v <= e_star:
                y = v
            else:
                y = self._window(path_start, j + 1)[0] + max(self.aggs)
                used = max(used, j + 2)
        if self.rows is not None:
            self.pos += used
        return i, max(y, finish)
