"""Latency and energy model for one round of satellite-assisted training.

All quantities are SI: seconds, joules, hertz, watts, bits. A round in a
cluster runs two parallel paths after a fixed sync delay: the client path
(local passes on retained data, then aggregation uploads to the serving
satellite) and the satellite path (compute on the offloaded pool, relayed
along the satellite chain whenever a coverage window expires). The cluster
finishes when both paths do, plus a fixed global exchange delay.

`ClusterModel` is the one per-cluster copy of this model. Built once from a
cluster's clients, it prices the satellite chain for offload totals and
satellite frequencies, and every client at once through the per-equation
functions below, which work elementwise over numpy arrays. Reporting
(`cluster_costs`, `round_latency`), the optimizer's blocks, its feasibility
audit and its grid oracle all read it.

The window rules live here alone. The satellite chain hands off once a
window is used up to within CYC_EPS (`used_up`). Its battery is checked at
each satellite's lowest point (`ClusterModel.battery_margin`): the dwell's
start, the relay's end (`relay_low`) or the dwell's end, whichever is
lowest. `relay_chain` and `cluster_client_path` price the fixed period T
in closed form; `walk_chain` and `client_path` walk any window sequence,
such as `FixedWindows(T)` or the passes of an explicit schedule, window by
window.

`ClusterRun` is the round model the simulator replays, one per cluster per
run: the decision priced once, the windows each round uses up, the
battery level, and each window's ledger (`SatWindowEnergy`). A round is
its `walk_chain` and `client_path` calls on its own windows.

The satellite chain (`relay_chain`, `handoff_count`, `ClusterModel.chain`
and `battery_margin`) takes Python floats or arrays of lanes alike: a
scalar call runs on Python floats and returns Python ints and floats, an
array call is elementwise and each lane reads bit for bit what the scalar
call on it reads. Powers are taken in Python floats (`lanewise`), because
numpy's vector power can round the last bit apart from libm's.
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


def _any_lane(mask):
    """Whether any lane of mask is set (mask is a bool for scalar inputs)."""
    return mask.any() if isinstance(mask, np.ndarray) else mask


def pick(mask, x, y):
    """np.where over lanes; for a scalar mask, x or y as it is. pick(y > x,
    y, x) is Python's max(x, y) lane by lane, and pick(y < x, y, x) its
    min."""
    return np.where(mask, x, y) if isinstance(mask, np.ndarray) else (x if mask else y)


def _floor(x):
    """np.floor over lanes; for a scalar math.floor, an int, which raises
    OverflowError on inf."""
    return np.floor(x) if isinstance(x, np.ndarray) else math.floor(x)


def _first_lane(x, mask):
    """x at the first set lane of mask, as a Python scalar; x itself when
    it is a scalar. Errors over lanes name the first lane that fails."""
    if isinstance(x, np.ndarray) or isinstance(mask, np.ndarray):
        return np.broadcast_to(x, np.shape(mask)).flat[int(np.argmax(mask))].item()
    return x


def lanewise(fn, x, *args):
    """fn(x, *args) in Python floats, lane by lane over an array, such as
    lanewise(pow, x, 3). numpy's vector power and arccos (a 0-d or one-lane
    array's too) can differ from libm's in the last bit, and then a lane
    would not read what a scalar call reads; sqrt, cos and the four
    operations agree."""
    if isinstance(x, np.ndarray):
        return np.array([fn(v, *args) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)
    return fn(float(x), *args)


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


def isl_transfer_latency(model: ModelFootprint, offloaded_samples, rate_bps: float):
    """Seconds to relay model state plus the offloaded pool over the ISL,
    elementwise over offload totals."""
    if rate_bps <= 0:
        raise ValueError("ISL rate must be positive")
    if _any_lane(offloaded_samples < 0):
        raise ValueError("negative offloaded sample count")
    return (model.state_bits + model.sample_bits * offloaded_samples) / rate_bps


def isl_transfer_energy(tau_trans_s: float, tx_power_w: float) -> float:
    """Joules a satellite spends on one ISL relay."""
    return tx_power_w * tau_trans_s


# a round whose offloaded work needs more satellites than this is refused:
# the cost breakdown and decision.json list every satellite of the chain
MAX_HANDOFFS = 10_000
# a window with cycles to compute is used up, and its satellite hands off,
# once its spare cycles are within this share of it (of one cycle, for a
# window of less than one); `used_up` is the one test of it
CYC_EPS = 1e-9


def used_up(cap, spare):
    """Whether a window that can compute cap cycles, with spare cycles left
    after its work, is used up (within CYC_EPS); elementwise over lanes."""
    return spare <= CYC_EPS * pick(cap > 1.0, cap, 1.0)


def relay_chain(
    offloaded_samples,
    cycles_per_sample: float,
    coverage_s: float,
    tau_trans_s,
    freq_hz,
    energy_coeff: float = 0.0,
    transfer_energy_j=0.0,
) -> tuple:
    """The satellite chain that computes the offloaded pool, elementwise
    over lanes of offload totals, relay times and frequencies.

    Returns (n_handoffs, tau_rep, first, last): n satellites exhaust a full
    coverage window on compute and hand off, the final one finishes the
    residual cycles inside a partial window and serves aggregation, and the
    satellite side finishes tau_rep seconds after path start. A final window
    used to within CYC_EPS is used up too, and one more satellite only
    relays. first and last are the (dwell, energy) of one window-filling
    satellite and of the final one. Energies are zero without energy_coeff
    and transfer_energy_j.

    A scalar count is an int, and one past a float's range raises
    OverflowError; a lane's count is a float, inf past that range.
    """
    args = (offloaded_samples, cycles_per_sample, coverage_s, tau_trans_s, freq_hz,
            energy_coeff, transfer_energy_j)
    if (isinstance(offloaded_samples, np.ndarray) or isinstance(tau_trans_s, np.ndarray)
            or isinstance(freq_hz, np.ndarray)):
        # a lane overflows to inf as a Python float does, without a warning
        with np.errstate(over="ignore"):
            return _relay_chain(*args)
    return _relay_chain(*args)


def _relay_chain(offloaded_samples, cycles_per_sample, coverage_s, tau_trans_s, freq_hz,
                 energy_coeff, transfer_energy_j):
    window = coverage_s - tau_trans_s  # compute time of a window-filling satellite
    short = window <= 0
    if _any_lane(short):
        raise ValueError(
            f"coverage window {coverage_s} s does not outlast the relay time "
            f"{_first_lane(tau_trans_s, short)} s"
        )
    first = (coverage_s, energy_coeff * window * lanewise(pow, freq_hz, 3) + transfer_energy_j)
    # a relay-only chain computes nothing at whatever frequency: no handoff,
    # and a final dwell of the relay alone
    work = offloaded_samples > 0
    f = pick(work, freq_hz, 1.0)
    if _any_lane(f <= 0):
        raise ValueError("satellite frequency must be positive when work is offloaded")
    total_cycles = cycles_per_sample * offloaded_samples
    n = pick(work, _floor(total_cycles / (window * f)), 0)
    rem = total_cycles - n * window * f
    rem = pick(rem < 0.0, 0.0, rem)  # rounding can leave it a hair below 0
    cap = window * f
    full = work & used_up(cap, cap - rem)
    n, rem = pick(full, n + 1, n), pick(full, 0.0, rem)
    t_rem = rem / f
    return (n, coverage_s * n + t_rem + tau_trans_s, first,
            (t_rem + tau_trans_s, energy_coeff * rem * lanewise(pow, freq_hz, 2) + transfer_energy_j))


def handoff_count(
    offloaded_samples,
    cycles_per_sample: float,
    coverage_s: float,
    tau_trans_s,
    freq_hz,
):
    """Number of satellites that exhaust a full coverage window on compute,
    inf when there are more than a float counts; elementwise like
    `relay_chain`.

    The chain needs this count plus one satellite in total; the final one
    finishes the residual cycles inside a partial window.
    """
    try:
        return relay_chain(offloaded_samples, cycles_per_sample, coverage_s, tau_trans_s,
                           freq_hz)[0]
    except OverflowError:  # relay_chain floors a scalar's infinite quotient
        return math.inf


@dataclass(frozen=True)
class FixedWindows:
    """Back-to-back coverage windows of T seconds from time 0: the window
    sequence the closed form prices."""

    T: float

    def window(self, i: int) -> tuple:
        """(start, end) of window i."""
        return self.T * i, self.T * (i + 1)

    def serving(self, t: float) -> int:
        """The index of the window open at time t."""
        return math.floor(t / self.T)


def walk_chain(windows, cycles: float, f: float, tau_tr: float) -> tuple:
    """The satellite chain window by window, on any window sequence with
    `window(i) -> (start, end)`, in Python floats.

    Each window's satellite relays for tau_tr seconds from its start, then
    computes at f what is left of cycles. A window is used up, and hands
    off, when it cannot fit the relay or when cycles remain and it has no
    room after them (`used_up`); a chain with nothing left to compute ends
    on the first window that fits its relay. The caller sees to it that the
    chain ends.

    Returns (rows, end): a row (i, start, end, taken, dwell, cap) per
    engaged window, with the cycles it computed, its satellite's dwell (the
    whole window when used up, else the relay and the compute) and the
    cycles it could compute after the relay; end is when the final
    satellite finishes.
    """
    rows, remaining, i = [], cycles, 0
    while True:
        s, e = windows.window(i)
        cap_s = max(e - s - tau_tr, 0.0)
        cap = cap_s * f
        take = min(remaining, cap)
        full = cap_s <= 0.0 or (remaining > 0.0 and used_up(cap, cap - take))
        remaining -= take
        busy = take / f if take > 0.0 else 0.0
        rows.append((i, s, e, take, e - s if full else tau_tr + busy, cap))
        if not full:
            return rows, s + tau_tr + busy
        i += 1


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


def client_path(windows, n: int, ready, aggs) -> tuple:
    """When the clients' uploads end, on any window sequence with `window(i)
    -> (start, end)` and `serving(t)`, the index of the window open at t:
    the one regime rule, for the closed form and the replay alike.

    The chain hands off n times, so its final satellite arrives at window
    n's start. ready and aggs are each client's local pass end and upload
    seconds, on the windows' clock. Returns (y, case, starts), where y is
    when the last upload ends, starts when each upload starts, and case
    which of the three timing regimes fired: 1 when every client is ready
    by the final satellite's arrival and uploads on it, 2 when the
    straggler's serving window can still collect every upload, each from
    the later of the window's start and the client's ready time, 3 when
    uploads must wait for the next window's start. Ties resolve to the
    lower case.
    """
    gate = windows.window(n)[0]
    m = max(ready)
    if m <= gate:
        return gate + max(aggs), 1, (gate,) * len(ready)
    j = windows.serving(m)
    s, e = windows.window(j)
    starts = [max(s, r) for r in ready]
    v = max([st + a for st, a in zip(starts, aggs)])
    if v <= e:
        return v, 2, starts
    # looking a window ahead consumes a pass of an explicit schedule
    s = windows.window(j + 1)[0]
    return s + max(aggs), 3, (s,) * len(ready)


def cluster_client_path(tau_locals, tau_aggs, coverage_s: float, n_handoffs) -> tuple:
    """Completion time of the client path relative to path start, and its
    case: `client_path` on fixed windows of coverage_s from path start."""
    tau_locals = np.asarray(tau_locals, dtype=float)
    tau_aggs = np.asarray(tau_aggs, dtype=float)
    if tau_locals.ndim != 1 or not tau_locals.size or tau_locals.shape != tau_aggs.shape:
        raise ValueError("need matching nonempty client latency lists")
    y, case, _ = client_path(FixedWindows(coverage_s), int(n_handoffs), tau_locals.tolist(),
                             tau_aggs.tolist())
    return y, case


def relay_low(level, e_tr, tau_tr, p):
    """A satellite's lower level of its dwell's start and its relay's end:
    it starts at level, and its relay of tau_tr seconds draws e_tr while
    charging at p; elementwise over lanes."""
    end = level - e_tr + tau_tr * p
    return pick(end < level, end, level)


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
    def tau_trans(self, a):
        return isl_transfer_latency(self.footprint, a, self.cluster.isl_rate_bps)

    def chain(self, a, f) -> tuple:
        """`relay_chain` at offload(s) a and frequency(ies) f, after the
        relay time: (tau_trans, n_handoffs, tau_rep, first, last),
        elementwise over lanes. The last scalar chain is kept: solvers read
        it right after the battery check priced it.

        A chain of more than MAX_HANDOFFS handoffs is a ValueError that
        names the cluster (and the first such lane): its satellite list in
        a breakdown would not fit, and a scalar count past a float's range
        overflows."""
        key = None if isinstance(a, np.ndarray) or isinstance(f, np.ndarray) else (a, f)
        if key is None or self._chain_at != key:
            c = self.cluster
            tau_tr = self.tau_trans(a)
            try:
                chain = relay_chain(a, c.sat_cycles_per_sample, self.T, tau_tr, f,
                                    c.energy_coeff, isl_transfer_energy(tau_tr, c.sat_tx_power_w))
            except OverflowError:  # a scalar count past a float's range
                chain = (math.inf,)
            n = chain[0]
            over = n > MAX_HANDOFFS
            if _any_lane(over):
                raise ValueError(
                    f"cluster {c.id}: offloading {_first_lane(a, over):.6g} samples at "
                    f"{_first_lane(f, over):.6g} Hz needs {float(_first_lane(n, over)):.6g} "
                    f"satellite handoffs, more than {MAX_HANDOFFS}")
            if key is None:
                return (tau_tr,) + chain
            self._chain = (tau_tr,) + chain
            self._chain_at = key
        return self._chain

    def n_handoffs(self, a, f):
        return self.chain(a, f)[1]

    def relay_margin(self, a):
        """The battery level at a satellite's relay's end or its dwell's
        start, whichever is lower, less the floor psi, at offload(s) a:
        E0 - max(0, e_tr - p tau_tr) - psi. Every satellite of the chain
        starts full and relays alike, and this never rises with the
        offload."""
        c = self.cluster
        tau_tr = self.tau_trans(a)
        return (relay_low(c.sat_initial_energy_j, isl_transfer_energy(tau_tr, c.sat_tx_power_w),
                          tau_tr, self.p_charge) - c.sat_min_residual_j)

    def battery_margin(self, a, f):
        """Lowest battery level over the relay chain at offload(s) a and
        frequency(ies) f, less the floor psi: negative when a satellite dips
        below it.

        A satellite's level changes at p - P_tx over its relay and at p -
        kappa f^3 over its compute, so it is lowest at its dwell's start,
        its relay's end (`relay_margin`) or its dwell's end."""
        c = self.cluster
        _, n, _, (d_first, e_first), (d, e) = self.chain(a, f)
        last = c.sat_initial_energy_j - e + d * self.p_charge - c.sat_min_residual_j
        low = self.relay_margin(a)
        low = pick(last < low, last, low)
        # a chain that hands off has window-filling satellites too
        first = c.sat_initial_energy_j - e_first + d_first * self.p_charge - c.sat_min_residual_j
        return pick((n > 0) & (first < low), first, low)

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


@dataclass(frozen=True)
class SatWindowEnergy:
    """One engaged window's battery ledger in a replayed round."""

    window: int
    dwell_s: float
    consumed_j: float
    charged_j: float
    residual_j: float
    lowest_j: float  # the lowest level over the dwell
    battery_ok: bool  # whether that lowest level stays at the floor psi


class ClusterRun:
    """One cluster's rounds under a run's fixed decision, window by window:
    the round model the simulator replays, built once per cluster per run.

    It prices the decision once in Python floats: the offload, the clock,
    the relay, the target cycles and each client's local and upload
    seconds. It serves each round's windows, `window(i)` and `serving(t)`
    (the first window that ends after t), on the replay's absolute clock:
    back to back from the path start on the fixed period, or on an explicit
    schedule the passes from the first unused one, re-anchored at the path
    start. A round uses up every pass it looked at, the one case 3 looks
    ahead to too. It carries the satellite battery level: every window
    starts full, or with `persistent` one level runs through the windows
    and rounds, capped at the initial charge.

    A fixed-window chain that `ClusterModel.chain` refuses, and a schedule
    that runs out, are ValueErrors that name the cluster.
    """

    def __init__(self, scenario, cluster, decision, persistent: bool = False):
        model = ClusterModel(scenario, cluster)
        alphas = model.per_client(decision.alpha)
        self.cluster, self.members, self.persistent = cluster, tuple(model.ids), persistent
        self.offloaded = a = model.offloaded(alphas)
        self.tau_tr = model.tau_trans(a)
        self.f = float(decision.sat_freq_hz[cluster.id])
        self.intervals = cluster.schedule.intervals if cluster.schedule is not None else None
        if self.intervals is None:
            # every fixed window is alike, so a chain the closed form refuses
            # would be handed off forever, or walked past the handoff limit
            try:
                model.chain(a, self.f)
            except ValueError as err:
                raise ValueError(f"cluster {cluster.id}: the relay chain on fixed windows never "
                                 f"ends within {MAX_HANDOFFS} satellite handoffs ({err})") from None
        self.e_tr = isl_transfer_energy(self.tau_tr, cluster.sat_tx_power_w)
        self.target_cycles = cluster.sat_cycles_per_sample * a
        self.p_charge = model.p_charge
        self.tau_locals = tuple(model.tau_locals(alphas).tolist())
        self.tau_aggs = tuple(model.tau_agg(model.per_client(decision.bandwidth_hz)).tolist())
        self.level = cluster.sat_initial_energy_j
        self.pos = 0  # the first unused pass of an explicit schedule
        self._start, self._windows = 0.0, []

    def window(self, i: int) -> tuple:
        """(start, end) of the round's window i."""
        ws = self._windows
        while len(ws) <= i:
            k = len(ws)
            if self.intervals is None:
                T = self.cluster.coverage_s
                ws.append((self._start + k * T, self._start + (k + 1) * T))
                continue
            if self.pos + k >= len(self.intervals):
                raise ValueError(
                    f"cluster {self.cluster.id}: coverage schedule exhausted after "
                    f"{len(self.intervals)} intervals; provide more passes or fewer rounds")
            base = self.intervals[self.pos][1]
            _, s, e = self.intervals[self.pos + k]
            ws.append((self._start + (s - base), self._start + (e - base)))
        return ws[i]

    def serving(self, t: float) -> int:
        """The index of the window open at t: the first that ends after it."""
        j = 0
        while self.window(j)[1] <= t:
            j += 1
        return j

    def replay(self, path_start: float) -> tuple:
        """One round from path_start: (rows, finish, y, case, starts,
        energy), `walk_chain`'s rows and chain end, `client_path`'s upload
        end, regime and upload starts, and a `SatWindowEnergy` per engaged
        window. The passes it looked at are used up."""
        self._start, self._windows = path_start, []
        rows, finish = walk_chain(self, self.target_cycles, self.f, self.tau_tr)
        y, case, starts = client_path(self, len(rows) - 1,
                                      [path_start + t for t in self.tau_locals], self.tau_aggs)
        self.pos += len(self._windows)
        return rows, finish, y, case, starts, tuple(self._ledger(i, take, dwell)
                                                   for i, _, _, take, dwell, _ in rows)

    def _ledger(self, i, take, dwell) -> SatWindowEnergy:
        """Window i's ledger from the level its satellite starts at. The
        battery is lowest at the window's start, the relay's end or the
        window's end (a relay that outlasts its window ends past it, above
        the window's end)."""
        c = self.cluster
        level = self.level  # without persistence it stays the initial charge
        consumed = c.energy_coeff * take * self.f ** 2 + self.e_tr
        charged = dwell * self.p_charge
        residual = level - consumed + charged
        if self.persistent:
            residual = self.level = min(residual, c.sat_initial_energy_j)
        lowest = min(relay_low(level, self.e_tr, self.tau_tr, self.p_charge), residual)
        psi = c.sat_min_residual_j
        return SatWindowEnergy(i, dwell, consumed, charged, residual, lowest,
                               lowest >= psi - 1e-9 * max(1.0, psi))
