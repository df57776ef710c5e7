"""Latency and energy model for one round of satellite-assisted training.

All quantities are SI: seconds, joules, hertz, watts, bits. A round in a
cluster runs two parallel paths after a fixed sync delay: the client path
(local passes on retained data, then aggregation uploads to the serving
satellite) and the satellite path (compute on the offloaded pool, relayed
along the satellite chain whenever a coverage window expires). The cluster
finishes when both paths do, plus a fixed global exchange delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class IslLinkParams:
    """Physical parameters of the inter-satellite link."""

    bandwidth_hz: float
    tx_power_w: float
    gain_tx: float
    gain_rx: float
    pathloss: float  # dimensionless attenuation between adjacent satellites
    noise_density_w_per_hz: float


@dataclass(frozen=True)
class ModelFootprint:
    """Wire sizes of the learned state and of one training sample."""

    param_count: int
    bits_per_param: int = 32
    sample_bits: float = 6272  # one 28x28 8-bit image by default

    @property
    def state_bits(self) -> float:
        return float(self.param_count) * float(self.bits_per_param)


@dataclass(frozen=True)
class ClusterCosts:
    """Per-cluster timing and energy detail for one round."""

    cluster_id: int
    offloaded_samples: float
    tau_trans_s: float
    n_handoffs: int
    tau_rep_s: float
    sat_dwell_s: tuple
    sat_energy_j: tuple
    tau_local_s: tuple
    tau_agg_s: tuple
    client_local_energy_j: tuple
    client_agg_energy_j: tuple
    y_s: float
    y_case: int
    tau_client_path_s: float  # sync + y
    tau_sat_path_s: float  # sync + tau_rep
    total_s: float

    def as_dict(self) -> dict:
        return {
            "cluster_id": self.cluster_id,
            "offloaded_samples": self.offloaded_samples,
            "tau_trans_s": self.tau_trans_s,
            "n_handoffs": self.n_handoffs,
            "tau_rep_s": self.tau_rep_s,
            "sat_dwell_s": list(self.sat_dwell_s),
            "sat_energy_j": list(self.sat_energy_j),
            "tau_local_s": list(self.tau_local_s),
            "tau_agg_s": list(self.tau_agg_s),
            "client_local_energy_j": list(self.client_local_energy_j),
            "client_agg_energy_j": list(self.client_agg_energy_j),
            "y_s": self.y_s,
            "y_case": self.y_case,
            "tau_client_path_s": self.tau_client_path_s,
            "tau_sat_path_s": self.tau_sat_path_s,
            "total_s": self.total_s,
        }


@dataclass(frozen=True)
class CostBreakdown:
    """Full latency decomposition of one round."""

    clusters: tuple
    tau_round_s: float

    def cluster(self, cluster_id: int) -> ClusterCosts:
        for c in self.clusters:
            if c.cluster_id == cluster_id:
                return c
        raise KeyError(f"no cluster {cluster_id} in breakdown")

    def as_dict(self) -> dict:
        return {
            "tau_round_s": self.tau_round_s,
            "clusters": [c.as_dict() for c in self.clusters],
        }


def client_local_latency(profile, gamma: float, dataset_size: float) -> float:
    """Seconds one client spends computing on its retained share."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"retained fraction {gamma} outside [0, 1]")
    if dataset_size < 0:
        raise ValueError("negative dataset size")
    if profile.cpu_freq_hz <= 0:
        raise ValueError("client CPU frequency must be positive")
    return profile.cycles_per_sample * gamma * dataset_size / profile.cpu_freq_hz


def client_local_energy(profile, gamma: float, dataset_size: float, energy_coeff: float) -> float:
    """Joules one client spends computing on its retained share."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"retained fraction {gamma} outside [0, 1]")
    cycles = profile.cycles_per_sample * gamma * dataset_size
    return energy_coeff * cycles * profile.cpu_freq_hz ** 2


def isl_rate(link: IslLinkParams) -> float:
    """Achievable inter-satellite rate, bits/second."""
    snr = link.tx_power_w * link.gain_rx * link.gain_tx / (link.pathloss * link.noise_density_w_per_hz)
    return link.bandwidth_hz * math.log2(1.0 + snr)


def isl_transfer_latency(model: ModelFootprint, offloaded_samples: float, rate_bps: float) -> float:
    """Seconds to relay model state plus the offloaded pool over the ISL."""
    if rate_bps <= 0:
        raise ValueError("ISL rate must be positive")
    if offloaded_samples < 0:
        raise ValueError("negative offloaded sample count")
    return (model.state_bits + model.sample_bits * offloaded_samples) / rate_bps


def isl_transfer_energy(tau_trans_s: float, tx_power_w: float) -> float:
    """Joules a satellite spends on one ISL relay."""
    return tx_power_w * tau_trans_s


def handoff_count(
    offloaded_samples: float,
    cycles_per_sample: float,
    coverage_s: float,
    tau_trans_s: float,
    freq_hz: float,
) -> int:
    """Number of satellites that exhaust a full coverage window on compute.

    The chain needs this count plus one satellite in total; the final one
    finishes the residual cycles inside a partial window.
    """
    if coverage_s <= tau_trans_s:
        raise ValueError(
            f"coverage window {coverage_s} s does not outlast the relay time {tau_trans_s} s"
        )
    if offloaded_samples <= 0:
        return 0
    if freq_hz <= 0:
        raise ValueError("satellite frequency must be positive when work is offloaded")
    total_cycles = cycles_per_sample * offloaded_samples
    per_window = (coverage_s - tau_trans_s) * freq_hz
    return int(math.floor(total_cycles / per_window))


def _residual_cycles(offloaded_samples, cycles_per_sample, coverage_s, tau_trans_s, freq_hz) -> float:
    n = handoff_count(offloaded_samples, cycles_per_sample, coverage_s, tau_trans_s, freq_hz)
    total = cycles_per_sample * offloaded_samples
    rem = total - n * (coverage_s - tau_trans_s) * freq_hz
    return max(rem, 0.0)


def satellite_dwell_and_energy(
    role: str,
    offloaded_samples: float,
    cycles_per_sample: float,
    coverage_s: float,
    tau_trans_s: float,
    freq_hz: float,
    energy_coeff: float,
    transfer_energy_j: float,
) -> tuple:
    """Participation time and energy draw of one satellite in the chain.

    role "first" covers any satellite that spends its whole window computing;
    role "last" covers the one that finishes the residual and serves
    aggregation.
    """
    if role == "first":
        dwell = coverage_s
        energy = energy_coeff * (coverage_s - tau_trans_s) * freq_hz ** 3 + transfer_energy_j
        return dwell, energy
    if role == "last":
        if offloaded_samples <= 0:
            return tau_trans_s, transfer_energy_j
        rem = _residual_cycles(offloaded_samples, cycles_per_sample, coverage_s, tau_trans_s, freq_hz)
        dwell = rem / freq_hz + tau_trans_s
        energy = energy_coeff * rem * freq_hz ** 2 + transfer_energy_j
        return dwell, energy
    raise ValueError(f"unknown satellite role {role!r}")


def satellite_step_latency(
    offloaded_samples: float,
    cycles_per_sample: float,
    coverage_s: float,
    tau_trans_s: float,
    freq_hz: float,
) -> float:
    """Seconds from path start until the satellite side finishes its pass."""
    if offloaded_samples <= 0:
        if coverage_s <= tau_trans_s:
            raise ValueError(
                f"coverage window {coverage_s} s does not outlast the relay time {tau_trans_s} s"
            )
        return tau_trans_s
    n = handoff_count(offloaded_samples, cycles_per_sample, coverage_s, tau_trans_s, freq_hz)
    rem = _residual_cycles(offloaded_samples, cycles_per_sample, coverage_s, tau_trans_s, freq_hz)
    return coverage_s * n + rem / freq_hz + tau_trans_s


def uplink_rate(
    tx_power_w: float,
    bandwidth_hz: float,
    distance_m: float,
    pathloss_exponent: float,
    noise_density_w_per_hz: float,
) -> float:
    """Client-to-satellite uplink rate for a given bandwidth slice, bits/second."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    if tx_power_w <= 0:
        raise ValueError("transmit power must be positive")
    snr = tx_power_w * distance_m ** (-pathloss_exponent) / (bandwidth_hz * noise_density_w_per_hz)
    return bandwidth_hz * math.log2(1.0 + snr)


def uplink_agg_latency_energy(
    profile,
    bandwidth_hz: float,
    model: ModelFootprint,
    distance_m: float,
    pathloss_exponent: float,
    noise_density_w_per_hz: float,
) -> tuple:
    """Seconds and joules for one client's aggregation upload."""
    rate = uplink_rate(
        profile.tx_power_w, bandwidth_hz, distance_m, pathloss_exponent, noise_density_w_per_hz
    )
    tau = model.state_bits / rate
    return tau, profile.tx_power_w * tau


def cluster_client_path(tau_locals, tau_aggs, coverage_s: float, n_handoffs: int) -> tuple:
    """Completion time of the client path relative to path start.

    Returns (seconds, case) where case identifies which of the three timing
    regimes fired: 1 when every client finishes before the final chain
    satellite arrives, 2 when the straggler's serving satellite can still
    collect every upload inside its window, 3 when uploads must wait for the
    next satellite. Ties resolve to the lower case.
    """
    if len(tau_locals) == 0 or len(tau_locals) != len(tau_aggs):
        raise ValueError("need matching nonempty client latency lists")
    m = max(tau_locals)
    max_agg = max(tau_aggs)
    if m <= coverage_s * n_handoffs:
        return coverage_s * n_handoffs + max_agg, 1
    h = math.floor(m / coverage_s)
    v = max(
        max(coverage_s * h, tl) + ta for tl, ta in zip(tau_locals, tau_aggs)
    )
    if v <= coverage_s * (h + 1):
        return v, 2
    return coverage_s * (h + 1) + max_agg, 3


def cluster_costs(scenario, cluster, decision) -> ClusterCosts:
    """Evaluate the full latency/energy detail of one cluster for a decision."""
    profiles = scenario.cluster_clients(cluster.id)
    footprint = scenario.footprint
    alphas = [decision.alpha[p.id] for p in profiles]
    sizes = [p.size for p in profiles]
    offloaded = sum(a * s for a, s in zip(alphas, sizes))

    tau_trans = isl_transfer_latency(footprint, offloaded, cluster.isl_rate_bps)
    freq = decision.sat_freq_hz[cluster.id]
    n = handoff_count(
        offloaded, cluster.sat_cycles_per_sample, cluster.coverage_s, tau_trans, freq
    ) if offloaded > 0 else 0
    tau_rep = satellite_step_latency(
        offloaded, cluster.sat_cycles_per_sample, cluster.coverage_s, tau_trans, freq
    )
    e_trans = isl_transfer_energy(tau_trans, cluster.sat_tx_power_w)

    dwells = []
    energies = []
    for _ in range(n):
        d, e = satellite_dwell_and_energy(
            "first", offloaded, cluster.sat_cycles_per_sample, cluster.coverage_s,
            tau_trans, freq, cluster.energy_coeff, e_trans,
        )
        dwells.append(d)
        energies.append(e)
    d, e = satellite_dwell_and_energy(
        "last", offloaded, cluster.sat_cycles_per_sample, cluster.coverage_s,
        tau_trans, freq, cluster.energy_coeff, e_trans,
    )
    dwells.append(d)
    energies.append(e)

    tau_locals = []
    tau_aggs = []
    e_locals = []
    e_aggs = []
    for p, a in zip(profiles, alphas):
        gamma = 1.0 - a
        tau_locals.append(client_local_latency(p, gamma, p.size))
        e_locals.append(client_local_energy(p, gamma, p.size, cluster.energy_coeff))
        ta, ea = uplink_agg_latency_energy(
            p, decision.bandwidth_hz[p.id], footprint,
            cluster.sat_distance_m, cluster.pathloss_exponent, cluster.noise_density_w_per_hz,
        )
        tau_aggs.append(ta)
        e_aggs.append(ea)

    y, case = cluster_client_path(tau_locals, tau_aggs, cluster.coverage_s, n)
    tau_client = cluster.sync_delay_s + y
    tau_sat = cluster.sync_delay_s + tau_rep
    total = max(tau_client, tau_sat) + cluster.glob_delay_s

    return ClusterCosts(
        cluster_id=cluster.id,
        offloaded_samples=offloaded,
        tau_trans_s=tau_trans,
        n_handoffs=n,
        tau_rep_s=tau_rep,
        sat_dwell_s=tuple(dwells),
        sat_energy_j=tuple(energies),
        tau_local_s=tuple(tau_locals),
        tau_agg_s=tuple(tau_aggs),
        client_local_energy_j=tuple(e_locals),
        client_agg_energy_j=tuple(e_aggs),
        y_s=y,
        y_case=case,
        tau_client_path_s=tau_client,
        tau_sat_path_s=tau_sat,
        total_s=total,
    )


def round_latency(scenario, decision) -> CostBreakdown:
    """Completion time of one full round under a resource decision."""
    per_cluster = tuple(cluster_costs(scenario, c, decision) for c in scenario.clusters)
    return CostBreakdown(
        clusters=per_cluster,
        tau_round_s=max(c.total_s for c in per_cluster),
    )
