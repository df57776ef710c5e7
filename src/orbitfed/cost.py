"""Latency and energy model for one round of satellite-assisted training.

All quantities are SI: seconds, joules, hertz, watts, bits. A round in a
cluster runs two parallel paths after a fixed sync delay: the client path
(local passes on retained data, then aggregation uploads to the serving
satellite) and the satellite path (compute on the offloaded pool, relayed
along the satellite chain whenever a coverage window expires). The cluster
finishes when both paths do, plus a fixed global exchange delay.

`ClusterModel` is the one per-cluster copy of this model. Built once from a
cluster's clients, it prices the satellite chain for an offload total and a
satellite frequency, and every client at once through the per-equation
functions below, which work elementwise over numpy arrays. Reporting
(`cluster_costs`, `round_latency`), the optimizer's blocks, its feasibility
audit and its grid oracle all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


def _retained(gamma):
    gamma = np.asarray(gamma, dtype=float)
    if not ((gamma >= 0.0) & (gamma <= 1.0)).all():
        raise ValueError(f"retained fraction {gamma} outside [0, 1]")
    return gamma


def client_local_latency(profile, gamma, dataset_size):
    """Seconds one client spends computing on its retained share;
    elementwise over arrays of clients (a `ClusterModel` passes as the
    profile) and over a leading batch axis of gamma. Unchecked: a
    `ClusterModel` calls it on validated clients and shares in [0, 1]."""
    return profile.cycles_per_sample * gamma * dataset_size / profile.cpu_freq_hz


def client_local_energy(profile, gamma, dataset_size, energy_coeff: float):
    """Joules one client spends computing on its retained share; elementwise
    like `client_local_latency`."""
    cycles = profile.cycles_per_sample * _retained(gamma) * dataset_size
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


# a round whose offloaded work needs more satellites than this is refused:
# the cost breakdown and decision.json list every satellite of the chain
MAX_HANDOFFS = 10_000


def relay_chain(
    offloaded_samples: float,
    cycles_per_sample: float,
    coverage_s: float,
    tau_trans_s: float,
    freq_hz: float,
    energy_coeff: float = 0.0,
    transfer_energy_j: float = 0.0,
) -> tuple:
    """The satellite chain that computes the offloaded pool.

    Returns (n_handoffs, tau_rep, first, last): n satellites exhaust a full
    coverage window on compute and hand off, the final one finishes the
    residual cycles inside a partial window and serves aggregation, and the
    satellite side finishes tau_rep seconds after path start. first and last
    are the (dwell, energy) of one window-filling satellite and of the final
    one. Energies are zero without energy_coeff and transfer_energy_j.
    """
    window = coverage_s - tau_trans_s  # compute time of a window-filling satellite
    if window <= 0:
        raise ValueError(
            f"coverage window {coverage_s} s does not outlast the relay time {tau_trans_s} s"
        )
    first = (coverage_s, energy_coeff * window * freq_hz ** 3 + transfer_energy_j)
    if offloaded_samples <= 0:
        return 0, tau_trans_s, first, (tau_trans_s, transfer_energy_j)
    if freq_hz <= 0:
        raise ValueError("satellite frequency must be positive when work is offloaded")
    total_cycles = cycles_per_sample * offloaded_samples
    n = math.floor(total_cycles / (window * freq_hz))
    rem = max(total_cycles - n * window * freq_hz, 0.0)
    t_rem = rem / freq_hz
    return (n, coverage_s * n + t_rem + tau_trans_s, first,
            (t_rem + tau_trans_s, energy_coeff * rem * freq_hz ** 2 + transfer_energy_j))


def handoff_count(
    offloaded_samples: float,
    cycles_per_sample: float,
    coverage_s: float,
    tau_trans_s: float,
    freq_hz: float,
) -> int | float:
    """Number of satellites that exhaust a full coverage window on compute,
    inf when there are more than a float counts.

    The chain needs this count plus one satellite in total; the final one
    finishes the residual cycles inside a partial window.
    """
    try:
        return relay_chain(offloaded_samples, cycles_per_sample, coverage_s, tau_trans_s,
                           freq_hz)[0]
    except OverflowError:  # relay_chain floors an infinite quotient
        return math.inf


def uplink_snr_num(tx_power_w, distance_m: float, pathloss_exponent: float,
                   noise_density_w_per_hz: float):
    """p d^-xi / N0: the uplink SNR times the slice width, so a slice of b Hz
    sees SNR snr_num / b. Elementwise over arrays of transmit powers."""
    return tx_power_w * distance_m ** (-pathloss_exponent) / noise_density_w_per_hz


def slice_rate(snr_num, bandwidth_hz):
    """Rate b log2(1 + snr_num / b) of slice(s) of b Hz, bits/second,
    elementwise (an infinite slice reads nan)."""
    b = np.asarray(bandwidth_hz, dtype=float)
    return b * np.log2(1.0 + snr_num / b)


def upload_time(state_bits: float, snr_num, bandwidth_hz):
    """Seconds to upload state_bits on slice(s) of b Hz, elementwise.
    Unchecked: a `ClusterModel` calls it on validated clients and slices."""
    return state_bits / slice_rate(snr_num, bandwidth_hz)


def regime_geometry(tau_locals, coverage_s: float) -> tuple:
    """Where the straggler's serving window lets each client upload.

    The straggler finishes its local pass at m = max_k tau_local_k, inside
    window h = floor(m / T). Client k can start its upload at
    max(T h, tau_local_k), and the window closes at T (h + 1). Returns (m,
    offsets, deadline), over a leading batch axis of tau_locals too.
    """
    tau_locals = np.asarray(tau_locals, dtype=float)
    m = tau_locals.max(axis=-1)
    h = np.floor(m / coverage_s)
    return m, np.maximum((coverage_s * h)[..., None], tau_locals), coverage_s * (h + 1.0)


def cluster_client_path(tau_locals, tau_aggs, coverage_s: float, n_handoffs) -> tuple:
    """Completion time of the client path relative to path start.

    Returns (seconds, case) where case identifies which of the three timing
    regimes fired: 1 when every client finishes before the final chain
    satellite arrives, 2 when the straggler's serving satellite can still
    collect every upload inside its window, 3 when uploads must wait for the
    next satellite. Ties resolve to the lower case.

    Rows of a leading batch axis are separate cases, with n_handoffs a
    scalar or one count per row; they give arrays of seconds and cases.
    """
    tau_locals = np.asarray(tau_locals, dtype=float)
    tau_aggs = np.asarray(tau_aggs, dtype=float)
    if tau_locals.shape[-1:] in ((), (0,)) or tau_locals.shape != tau_aggs.shape:
        raise ValueError("need matching nonempty client latency lists")
    gate = coverage_s * np.asarray(n_handoffs)
    max_agg = tau_aggs.max(axis=-1)
    m, offsets, deadline = regime_geometry(tau_locals, coverage_s)
    v = (offsets + tau_aggs).max(axis=-1)
    case = np.where(m <= gate, 1, np.where(v <= deadline, 2, 3))
    y = np.where(case == 1, gate + max_agg, np.where(case == 2, v, deadline + max_agg))
    if tau_locals.ndim == 1:
        return float(y), int(case)
    return y, case


class ClusterModel:
    """One cluster's round-time and energy model, built once per cluster.

    The client fields are per-client arrays under the profile attribute
    names (`cycles_per_sample`, `cpu_freq_hz`, `tx_power_w`), so the model
    passes wherever a client profile does and the per-equation functions
    price all of its clients at once. The satellite side is scalar in the
    offloaded sample total a and the satellite frequency f.
    """

    def __init__(self, scenario, cluster):
        self.cluster = cluster
        self.footprint = scenario.footprint
        self.profiles = scenario.cluster_clients(cluster.id)
        self.ids = [p.id for p in self.profiles]
        self.sizes = np.array([float(p.size) for p in self.profiles])
        self.cycles_per_sample = np.array([p.cycles_per_sample for p in self.profiles])
        self.cpu_freq_hz = np.array([p.cpu_freq_hz for p in self.profiles])
        self.tx_power_w = np.array([p.tx_power_w for p in self.profiles])
        self.T = cluster.coverage_s
        self.p_charge = cluster.sun_power_w if cluster.sun_facing else 0.0
        self.snr_num = uplink_snr_num(self.tx_power_w, cluster.sat_distance_m,
                                      cluster.pathloss_exponent, cluster.noise_density_w_per_hz)
        self._chain_at = None

    def per_client(self, values: dict) -> np.ndarray:
        """A client-id map, such as a decision's offload or bandwidth, as an
        array in the model's client order."""
        return np.array([values[pid] for pid in self.ids], dtype=float)

    def offloaded(self, alpha) -> float:
        """Offloaded samples sum_k alpha_k |D_k|, summed in client order."""
        return sum((alpha * self.sizes).tolist())

    # --- satellite path -------------------------------------------------
    def tau_trans(self, a: float) -> float:
        return isl_transfer_latency(self.footprint, a, self.cluster.isl_rate_bps)

    def chain(self, a: float, f: float) -> tuple:
        """`relay_chain` at offload a and frequency f, after the relay time:
        (tau_trans, n_handoffs, tau_rep, first, last). The last chain is
        kept: solvers read it right after the battery check priced it.

        A chain of more than MAX_HANDOFFS handoffs is a ValueError that
        names the cluster: its count is asked first, since pricing it can
        overflow a float or the satellite list of its breakdown."""
        if self._chain_at != (a, f):
            c = self.cluster
            tau_tr = self.tau_trans(a)
            n = handoff_count(a, c.sat_cycles_per_sample, self.T, tau_tr, f)
            if n > MAX_HANDOFFS:
                raise ValueError(
                    f"cluster {c.id}: offloading {a:.6g} samples at {f:.6g} Hz needs "
                    f"{float(n):.6g} satellite handoffs, more than {MAX_HANDOFFS}")
            self._chain = (tau_tr,) + relay_chain(
                a, c.sat_cycles_per_sample, self.T, tau_tr, f, c.energy_coeff,
                isl_transfer_energy(tau_tr, c.sat_tx_power_w))
            self._chain_at = (a, f)
        return self._chain

    def n_handoffs(self, a: float, f: float) -> int:
        return self.chain(a, f)[1]

    def battery_margin(self, a: float, f: float) -> float:
        """Least battery residual over the relay chain at offload a and
        frequency f, less the floor psi: negative when a satellite ends its
        dwell below it."""
        c = self.cluster
        _, n, _, (d_first, e_first), (d, e) = self.chain(a, f)
        worst = c.sat_initial_energy_j - e + d * self.p_charge
        if n:
            worst = min(c.sat_initial_energy_j - e_first + d_first * self.p_charge, worst)
        return worst - c.sat_min_residual_j

    # --- client path, elementwise over clients --------------------------
    def tau_locals(self, alpha):
        return client_local_latency(self, 1.0 - alpha, self.sizes)

    def e_locals(self, alpha):
        return client_local_energy(self, 1.0 - alpha, self.sizes, self.cluster.energy_coeff)

    def tau_agg(self, b):
        return upload_time(self.footprint.state_bits, self.snr_num, b)

    def uplink(self, b) -> tuple:
        """Per-client upload seconds and joules for bandwidth slice(s) b."""
        tau = self.tau_agg(b)
        return tau, self.tx_power_w * tau


def cluster_costs(scenario, cluster, decision) -> ClusterCosts:
    """Evaluate the full latency/energy detail of one cluster for a decision."""
    model = ClusterModel(scenario, cluster)
    alpha = model.per_client(decision.alpha)
    offloaded = model.offloaded(alpha)
    tau_trans, n, tau_rep, first, last = model.chain(offloaded, decision.sat_freq_hz[cluster.id])
    sats = [first] * n + [last]
    tau_locals = model.tau_locals(alpha)
    tau_aggs, e_aggs = model.uplink(model.per_client(decision.bandwidth_hz))

    y, case = cluster_client_path(tau_locals, tau_aggs, model.T, n)
    tau_client = cluster.sync_delay_s + y
    tau_sat = cluster.sync_delay_s + tau_rep
    total = max(tau_client, tau_sat) + cluster.glob_delay_s

    return ClusterCosts(
        cluster_id=cluster.id,
        offloaded_samples=offloaded,
        tau_trans_s=tau_trans,
        n_handoffs=n,
        tau_rep_s=tau_rep,
        sat_dwell_s=tuple(d for d, _ in sats),
        sat_energy_j=tuple(e for _, e in sats),
        tau_local_s=tuple(tau_locals.tolist()),
        tau_agg_s=tuple(tau_aggs.tolist()),
        client_local_energy_j=tuple(model.e_locals(alpha).tolist()),
        client_agg_energy_j=tuple(e_aggs.tolist()),
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
