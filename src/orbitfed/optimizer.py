"""Per-round resource allocation: offload split, satellite frequency, bandwidth.

No constraint couples two clusters and the round time is the largest
cluster total, so `optimize` solves each cluster alone and exactly. The
cluster problem is quasiconvex in its path time t: a target is reachable
when the least offload whose client path ends by t has a satellite chain, at
the battery-optimal frequency, that ends by t too. Regula falsi brackets the
least reachable t and `bisect` closes the bracket (`_solve_cluster`).

  - client side: at a target t the least offload is a separable convex
    problem with one price on the bandwidth budget (`_Solve`);
  - satellite frequency: the battery-constrained maximum in closed form,
    the root of a quadratic (dark) or a cubic (sunlit) in f when the work
    fits one coverage window and of the full-window energy model otherwise
    (`_battery_freq`). It is elementwise over offload totals: the solve
    calls it with one total, and the grid oracle once with all of its own.
    The battery is checked at each satellite's lowest point, which falls
    with the offload, so the totals it refuses are those past some total:
    a battery that refuses the least offload any target allows refuses
    the cluster.

The same search with the slices pinned is `solve_alpha`. With the offload
pinned only the bandwidth split is left, and one vectorised equalizer
(`_client_paths`) finds it for rows of offloads: the least common upload
completion the budget buys in the timing regime the offload's local times
and chain select. `solve_bandwidth` runs it on one row per cluster, and the
grid oracle on every profile that can win, keeping the winner's row as its
slices. Every bandwidth for
a target upload time comes from the closed-form inversion of the uplink
curve through the lower branch of Lambert W (`upload_bandwidth`).

`grid_search_cluster` is the exhaustive check of the solve on small
single-cluster instances, relay chains that hand off included: it bounds its
offload lattice tile by tile with a bisection-free lower bound, and bounds
and then equalizes bandwidth on the profiles of the tiles that can win.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import cost

BISECT_EPS = 1e-6
BISECT_MAX_ITER = 200
BAND_EPS = 1e-6  # bandwidth budget band (1 - eps) * B_j <= sum b <= B_j
# the grid keeps every profile whose lower bound comes within this share of
# an upper bound on the best, and the best profile's real decision must
# match its lattice total to it
GRID_RTOL = BAND_EPS
# the grid's tile edge, in profiles per axis: a tile's bound is one lower
# bound for its whole box of profiles, and a search prices the profiles of
# the few tiles whose bound can still win (on the oracle's 501 x 501
# lattices 1-3 of 256 tiles). Rows of client 0's axis are also marked in
# slabs of this many (16k totals on 501 x 501)
GRID_TILE = 32
# the lattice is the product of one alpha axis per client, so each client
# past these multiplies it by about 1 / alpha_step
GRID_MAX_CLIENTS = 3


class InfeasibleError(RuntimeError):
    """A resource block has no feasible point; carries slack diagnostics."""

    def __init__(self, message, slack=None):
        super().__init__(message)
        self.slack = slack


@dataclass(frozen=True)
class DecisionVector:
    alpha: dict  # client id -> offload fraction
    sat_freq_hz: dict  # cluster id -> satellite frequency
    bandwidth_hz: dict  # client id -> uplink bandwidth slice

    def as_dict(self) -> dict:
        return {
            "alpha": {str(k): v for k, v in sorted(self.alpha.items())},
            "sat_freq_hz": {str(k): v for k, v in sorted(self.sat_freq_hz.items())},
            "bandwidth_hz": {str(k): v for k, v in sorted(self.bandwidth_hz.items())},
        }


@dataclass(frozen=True)
class BisectResult:
    x: float
    lo: float
    hi: float
    status: str  # converged | degenerate | boundary_lo | boundary_hi
    iterations: int


def bisect(f, lo: float, hi: float, eps: float = BISECT_EPS,
           max_iter: int = BISECT_MAX_ITER) -> BisectResult:
    """Locate the zero crossing of a monotone function on [lo, hi].

    When f has the same sign at both ends there is no crossing inside the
    bracket; the endpoint nearer the target is returned with a boundary flag.
    """
    if hi < lo:
        raise ValueError("bisect needs lo <= hi")
    if hi == lo:
        return BisectResult(lo, lo, hi, "degenerate", 0)
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return BisectResult(lo, lo, lo, "converged", 0)
    if fhi == 0.0:
        return BisectResult(hi, hi, hi, "converged", 0)
    if (flo < 0.0) == (fhi < 0.0):
        if abs(flo) <= abs(fhi):
            return BisectResult(lo, lo, hi, "boundary_lo", 0)
        return BisectResult(hi, lo, hi, "boundary_hi", 0)
    tol = eps * max(1.0, abs(lo), abs(hi))
    it = 0
    while hi - lo > tol and it < max_iter:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return BisectResult(mid, mid, mid, "converged", it + 1)
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
        it += 1
    return BisectResult(0.5 * (lo + hi), lo, hi, "converged", it)


def _lambert_wm1(z: np.ndarray) -> np.ndarray:
    """Lower real branch W_{-1} of the Lambert W function, elementwise on
    -1/e <= z < 0, by Halley iteration (Corless et al., "On the Lambert W
    function", Adv. Comput. Math. 5, 1996). It starts from the branch-point
    series near -1/e and from the asymptotic log expansion towards 0, and
    three steps reach double precision from either start."""
    p = -np.sqrt(np.maximum(2.0 * (1.0 + math.e * z), 0.0))
    l1 = np.log(-z)
    l2 = np.log(-l1)
    w = np.where(z < -0.25, -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0))),
                 l1 - l2 + l2 / l1)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):
            ew = np.exp(w)
            f = w * ew - z
            wp1 = w + 1.0
            step = f / (ew * wp1 - 0.5 * (w + 2.0) * f / wp1)
            w = w - np.where(np.isfinite(step), step, 0.0)  # w = -1 is the root at -1/e
    return w


def _slice_closed_form(state_bits: float, c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """`upload_bandwidth` before its ulp correction: exact to rounding,
    inf for an unattainable target and 0 for an infinite one."""
    with np.errstate(divide="ignore"):
        q = state_bits * math.log(2.0) / (t * c)
    ok = (t > 0.0) & (q < 1.0) & (q > 0.0)
    q = np.where(ok, q, 0.5)
    u = -_lambert_wm1(-q * np.exp(-q)) / q
    return np.where(ok, c / (u - 1.0), np.where(t == math.inf, 0.0, math.inf))


def upload_bandwidth(state_bits: float, snr_num, target_s):
    """Smallest uplink slice b whose upload time state_bits / (b log2(1 +
    snr_num / b)) is at most target_s, elementwise over broadcast arrays (a
    float for scalar inputs).

    Closed form: with q = state_bits ln2 / (target_s snr_num), u =
    -W_{-1}(-q e^-q) / q solves ln u = q (u - 1), and b = snr_num / (u - 1).
    A target that is not positive, or not above the infinite-bandwidth floor
    state_bits ln2 / snr_num (q >= 1), is unattainable and gives inf. The
    closed form is exact to rounding; b is then stepped up by a few ulps
    where needed so the forward upload time never exceeds the target.
    """
    t = np.asarray(target_s, dtype=float)
    c = np.asarray(snr_num, dtype=float)
    b = _slice_closed_form(state_bits, c, t)
    # each pass raises a missing b by at least one ulp and doubles the step
    rel = np.finfo(float).eps
    with np.errstate(invalid="ignore"):
        while True:
            over = cost.upload_time(state_bits, c, b) > t  # inf slices read nan
            if not over.any():
                break
            b = np.where(over, b * (1.0 + rel), b)
            rel *= 2.0
    return float(b) if b.ndim == 0 else b


# ---------------------------------------------------------------------------
# per-cluster working context


class _Ctx(cost.ClusterModel):
    """A cluster's cost model plus the bounds the solver blocks share."""

    def __init__(self, scenario, cluster):
        super().__init__(scenario, cluster)
        self.alpha_max = np.array([p.max_offload_fraction for p in self.profiles])
        self.budgets = np.array([p.energy_budget_j for p in self.profiles])
        self.f_max = cluster.sat_max_freq_hz
        self.budget_hz = cluster.bandwidth_hz
        self.a_max = self.alpha_max * self.sizes  # offloadable samples per client
        self.a_cap = min(cluster.max_offload_samples, float(np.sum(self.a_max)))
        self.tau_budget = self.tau_agg(self.budget_hz)  # upload times on the whole budget
        # a client's least offload is a max of affine functions of its upload
        # time: each second the upload takes must come off its local time, at
        # `rate` samples a second, and each joule it spends off its compute
        # energy, at `per_joule` samples a joule
        self.rate = self.cpu_freq_hz / self.cycles_per_sample
        per_joule = 1.0 / (cluster.energy_coeff * self.cycles_per_sample * self.cpu_freq_hz ** 2)
        self.energy_slope = per_joule * self.tx_power_w
        self.energy_need = self.sizes - per_joule * self.budgets  # the energy line at tau = 0
        # upload time that the budget allows at full offload
        self.tau_energy = (self.a_max - self.energy_need) / self.energy_slope
        self.local_min = (self.sizes - self.a_max) / self.rate  # local time at full offload
        # upload time on unbounded bandwidth
        self.tau_floor = self.footprint.state_bits * math.log(2.0) / self.snr_num


def _contexts(scenario) -> list:
    """One working context per cluster, in scenario order. A caller that runs
    several blocks on one scenario builds them once and passes them to each
    block as `ctxs`; a block called without them builds its own."""
    return [_Ctx(scenario, cluster) for cluster in scenario.clusters]


# ---------------------------------------------------------------------------
# satellite frequency block (battery-limited maximum)


# The block runs on lanes: an array of offload totals, one lane each, or one
# total as a Python float. An array is split into the lanes that each regime
# and check concerns; a float runs the same code, where a split is a branch.
# Every lane reads bit for bit what a one-lane call on its total reads.


def _split(mask, *xs):
    """(xs on the lanes where mask holds, xs on the others), either None when
    it has no lane. xs are per-lane arrays, or one lane's scalars with a
    bool mask."""
    if not isinstance(mask, np.ndarray):
        return (xs, None) if mask else (None, xs)
    if mask.all():
        return xs, None
    if not mask.any():
        return None, xs
    rest = ~mask
    return tuple(x[mask] for x in xs), tuple(x[rest] for x in xs)


def _head(x):
    """The first lane of x, as a Python scalar."""
    return x[0].item() if isinstance(x, np.ndarray) else x


def _put(x, at, v):
    """x with its lanes at set to v; one lane's scalar is v itself."""
    if not isinstance(x, np.ndarray):
        return v
    x[at] = v
    return x


def _positions(x):
    """Lane positions of x, to write walked lanes back."""
    return np.arange(len(x)) if isinstance(x, np.ndarray) else 0


def _battery_lanes(ctx: _Ctx, a) -> tuple:
    """`_battery_freq` lane by lane: (freq, err), freq nan on the lanes the
    battery refuses and err the InfeasibleError of the first of them, or
    None. A scalar total gives a Python float."""
    c = ctx.cluster
    many = isinstance(a, np.ndarray) and a.ndim > 0
    a = np.asarray(a, dtype=float).reshape(-1) if many else float(a)
    size, ids = (a.size, np.arange(a.size)) if many else (1, 0)
    settled, refused = [], []  # (ids, freq) of the lanes solved; (id, error) of refused ones

    def refuse(bad, make):
        # bad holds the lanes a check refuses, ids first; make builds the
        # error of the first of them from its lane of the rest
        if bad is not None:
            refused.append((_head(bad[0]), make(*map(_head, bad[1:]))))

    tau_tr = ctx.tau_trans(a)
    bad, live = _split(tau_tr >= ctx.T, ids, tau_tr, a)
    refuse(bad, lambda tau, _: InfeasibleError(
        f"cluster {c.id}: relay time {tau:.3f} s exceeds the "
        f"coverage window {ctx.T:.3f} s", slack=ctx.T - tau))
    if live is not None:
        ids, tau_tr, a = live
        cyc = c.sat_cycles_per_sample * a
        e_tr = cost.isl_transfer_energy(tau_tr, c.sat_tx_power_w)
        relay, work = _split(cyc <= 0, ids, tau_tr, a, cyc, e_tr)
        if relay is not None:
            slack = ctx.relay_margin(relay[2])
            bad, fine = _split(slack < 0, relay[0], slack)
            refuse(bad, lambda s: InfeasibleError(
                f"cluster {c.id}: battery cannot cover the relay alone", slack=s))
            if fine is not None:
                settled.append((fine[0], ctx.f_max))
        if work is not None:
            ids, tau_tr, a, cyc, e_tr = work
            thresh = cyc / (ctx.T - tau_tr)
            one, multi = _split(ctx.f_max >= thresh, ids, tau_tr, a, cyc, e_tr, thresh)
            if one is not None:
                _single_window_lanes(ctx, one, settled, refuse)
            if multi is not None:
                _multi_window_lanes(ctx, multi, settled, refuse)

    err = min(refused, key=lambda r: r[0])[1] if refused else None
    if not many:
        return (settled[0][1] if settled else math.nan), err
    freq = np.full(size, math.nan)
    for at, f in settled:
        freq[at] = f
    return freq, err


def _single_window_lanes(ctx: _Ctx, lanes, settled, refuse):
    """The frequency of lanes that fit one window at f_max: the one
    satellite computes cyc at f and charges over its actual dwell. Lanes
    that one window cannot carry go on to `_multi_window_lanes`."""
    c = ctx.cluster
    a = lanes[2]
    fine, low = _split(ctx.battery_margin(a, ctx.f_max) >= 0.0, *lanes)
    if fine is not None:
        settled.append((fine[0], ctx.f_max))
    if low is None:
        return
    ids, tau_tr, a, cyc, e_tr, _ = low
    # from thresh up to the band cost.CYC_EPS above it the chain hands off
    # to a second satellite that only relays. The slowest single-window
    # frequency is the band's edge, where a window holds cyc / (1 - eps)
    # cycles (cyc + eps when that is under one cycle): start a few ulps past
    # it, and step up while rounding still hands off
    edge = cyc / (1.0 - cost.CYC_EPS)
    edge = cost.pick(edge < cyc + cost.CYC_EPS, cyc + cost.CYC_EPS, edge)
    slow = edge / (ctx.T - tau_tr) * (1.0 + 4.0 * math.ulp(1.0))
    slow = cost.pick(slow < ctx.f_max, slow, ctx.f_max)
    walk = (_positions(a), a, slow)
    while (walk := _split((ctx.n_handoffs(walk[1], walk[2]) > 0) & (walk[2] < ctx.f_max),
                          *walk)[0]) is not None:
        at, a_w, s_w = walk
        s_w = cost.lanewise(lambda v: math.nextafter(v, math.inf), s_w)
        slow, walk = _put(slow, at, s_w), (at, a_w, s_w)
    lo_slack = ctx.battery_margin(a, slow)
    short, ok = _split(lo_slack < 0.0, ids, lo_slack, tau_tr, a, cyc, e_tr, slow)
    if short is not None:
        # past a relay the battery covers, cycles that cost too much in one
        # window at the slowest clock that fits them there are spread over
        # full windows at a slower one, as a larger total's are; so the
        # battery refuses every total past one it refuses
        spread, bad = _split(ctx.relay_margin(short[3]) >= 0.0, *short)
        refuse(bad, lambda s, *_: InfeasibleError(
            f"cluster {c.id}: battery short by {-s:.6g} J even "
            "at the slowest single-window frequency", slack=s))
        if spread is not None:
            _multi_window_lanes(ctx, (spread[0],) + spread[2:], settled, refuse)
    if ok is None:
        return
    ids, _, tau_tr, a, cyc, e_tr, slow = ok
    f = ctx.f_max * _single_window_root(
        c.sat_initial_energy_j - e_tr + ctx.p_charge * tau_tr - c.sat_min_residual_j,
        c.energy_coeff * cyc * ctx.f_max ** 2, ctx.p_charge * cyc / ctx.f_max)
    f = cost.pick(f < ctx.f_max, f, ctx.f_max)
    f = cost.pick(f > slow, f, slow)
    # the root is exact to rounding; lower it a few ulps where needed so the
    # chain's own margin holds (it holds at slow)
    walk, rel = (_positions(a), a, slow, f), math.ulp(1.0)
    while (walk := _split(ctx.battery_margin(walk[1], walk[3]) < 0.0, *walk)[0]) is not None:
        at, a_w, s_w, f_w = walk
        f_w = f_w * (1.0 - rel)
        f_w = cost.pick(f_w > s_w, f_w, s_w)
        f, walk = _put(f, at, f_w), (at, a_w, s_w, f_w)
        rel *= 2.0
    settled.append((ids, f))


def _multi_window_lanes(ctx: _Ctx, lanes, settled, refuse):
    """The frequency of lanes that hand off: the full-dwell energy model,
    closed form."""
    c = ctx.cluster
    ids, tau_tr, a, _, e_tr, _ = lanes
    num = c.sat_initial_energy_j - e_tr + ctx.T * ctx.p_charge - c.sat_min_residual_j
    bad, ok = _split(num <= 0.0, ids, num, tau_tr, a, e_tr)
    refuse(bad, lambda v, *_: InfeasibleError(
        f"cluster {c.id}: battery cannot sustain any frequency "
        "across full coverage windows", slack=v))
    if ok is None:
        return
    ids, _, tau_tr, a, e_tr = ok
    f = battery_freq_closed_form(c.sat_initial_energy_j, e_tr, ctx.T, tau_tr, ctx.p_charge,
                                 c.sat_min_residual_j, c.energy_coeff, ctx.f_max)
    # only this regime hands off more than once; the count is checked
    # before the chain is priced, which refuses a chain past the limit
    n = cost.handoff_count(a, c.sat_cycles_per_sample, ctx.T, tau_tr, f)
    bad, ok = _split(n > cost.MAX_HANDOFFS, ids, n, a, f)
    refuse(bad, lambda n, a, _: InfeasibleError(
        f"cluster {c.id}: offloading {a:.6g} samples needs "
        f"{float(n):.6g} satellite handoffs, more than {cost.MAX_HANDOFFS}",
        slack=cost.MAX_HANDOFFS - float(n)))
    if ok is None:
        return
    ids, _, a, f = ok
    worst = ctx.battery_margin(a, f)
    # the full-window model holds every dwell's end at psi or above; what
    # it leaves out is the dip to the relay's end (a final satellite's
    # level ends between that dip and a full window's end)
    bad, ok = _split(worst < -1e-9 * max(1.0, c.sat_min_residual_j), ids, worst, f)
    refuse(bad, lambda w, _: InfeasibleError(
        f"cluster {c.id}: battery short by {-w:.6g} J at the relay's end "
        "across full coverage windows", slack=w))
    if ok is not None:
        settled.append((ok[0], ok[2]))


def _battery_freq(ctx: _Ctx, a):
    """Battery-feasible frequency maximizing satellite progress for offload
    total(s) a, for a relay chain of at most cost.MAX_HANDOFFS handoffs;
    elementwise over an array of totals, a float for a scalar. Raises the
    InfeasibleError of the first total the battery refuses."""
    freq, err = _battery_lanes(ctx, a)
    if err is not None:
        raise err
    return freq.reshape(np.shape(a)) if isinstance(freq, np.ndarray) else freq


def _single_window_root(head, e_max, charge):
    """Root s = f / f_max of the single-window battery margin head - e_max s^2
    + charge / s, which falls in s, lane by lane: head = E0 - e_tr + p
    tau_tr - psi, e_max = kappa cyc f_max^2 the compute energy at f_max,
    charge = p cyc / f_max what the charger gains over the compute time at
    f_max.

    Without sun s = sqrt(head / e_max). With it, times s the margin is the
    cubic s^3 - (head / e_max) s - charge / e_max = 0, which has one positive
    root: Cardano's formula when it is the only real root, and the largest
    of the trigonometric form's three otherwise (Nickalls, "A new approach
    to solving the cubic", Math. Gazette 77, 1993). Scaling by f_max keeps
    every term near 1. Roots, powers and arccos are taken in Python floats
    (`cost.lanewise`)."""
    s = np.empty(len(head)) if isinstance(head, np.ndarray) else None
    dark, sun = _split(charge == 0.0, _positions(head), head, e_max, charge)
    if dark is not None:
        at, head_d, e_d, _ = dark
        s = _put(s, at, cost.lanewise(math.sqrt, head_d / e_d))
    if sun is not None:
        at, head_s, e_s, charge_s = sun
        p3 = head_s / (3.0 * e_s)
        q2 = charge_s / (2.0 * e_s)
        disc = q2 * q2 - cost.lanewise(pow, p3, 3)
        one, three = _split(disc >= 0.0, at, p3, q2, disc)
        if one is not None:
            at, p3, q2, disc = one
            u = cost.lanewise(pow, q2 + cost.lanewise(math.sqrt, disc), 1.0 / 3.0)
            # u + p3 / u, written without the cancellation of a negative p3
            s = _put(s, at, 2.0 * q2 / (u * u - p3 + cost.lanewise(pow, p3 / u, 2)))
        if three is not None:
            at, p3, q2, _ = three
            r = q2 / cost.lanewise(pow, p3, 1.5)
            s = _put(s, at, 2.0 * cost.lanewise(math.sqrt, p3) * cost.lanewise(
                lambda v: math.cos(math.acos(v) / 3.0), cost.pick(r < 1.0, r, 1.0)))
    return s


def battery_freq_closed_form(e_orig, e_trans, coverage_s, tau_trans_s,
                             p_charge, psi, kappa, f_max):
    """Multi-window battery-optimal frequency, closed form with clipping;
    elementwise over lanes, a float for scalars."""
    num = e_orig - e_trans + coverage_s * p_charge - psi
    num = cost.pick(0.0 > num, 0.0, num)
    f = cost.lanewise(pow, num / (kappa * (coverage_s - tau_trans_s)), 1.0 / 3.0)
    return cost.pick(f < f_max, f, f_max)


def solve_freq(scenario, alpha, ctxs=None) -> dict:
    """Per-cluster battery-feasible frequency for a fixed offload vector."""
    out = {}
    for ctx in ctxs or _contexts(scenario):
        a = float(sum(alpha[p.id] * p.size for p in ctx.profiles))
        out[ctx.cluster.id] = _battery_freq(ctx, a)
    return out


# ---------------------------------------------------------------------------
# feasibility audit


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    scope: str
    ok: bool
    slack: float


@dataclass(frozen=True)
class FeasibilityReport:
    """Every operating constraint of a decision, and the cost breakdown
    they were audited on."""

    checks: tuple
    breakdown: cost.CostBreakdown

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.ok]

    def as_dict(self) -> dict:
        return {"ok": self.ok, "checks": [asdict(c) for c in self.checks]}


def _rel_ok(slack: float, scale: float) -> bool:
    return slack >= -1e-9 * max(1.0, abs(scale))


def check_feasibility(scenario, decision) -> FeasibilityReport:
    """Evaluate every operating constraint with numeric slack, on one
    `cost.round_latency` breakdown that the report keeps."""
    checks = []
    breakdown = cost.round_latency(scenario, decision)

    for p in scenario.clients:
        a = decision.alpha[p.id]
        slack = min(a, p.max_offload_fraction - a)
        checks.append(ConstraintCheck(
            "offload_fraction_range", f"client {p.id}", _rel_ok(slack, 1.0), slack))
        checks.append(ConstraintCheck(
            "retained_fraction_range", f"client {p.id}", _rel_ok(1.0 - a, 1.0), 1.0 - a))

    for cluster in scenario.clusters:
        cc = breakdown.cluster(cluster.id)
        f = decision.sat_freq_hz[cluster.id]
        slack_f = min(f, cluster.sat_max_freq_hz - f)
        checks.append(ConstraintCheck(
            "sat_freq_range", f"cluster {cluster.id}",
            _rel_ok(slack_f, cluster.sat_max_freq_hz), slack_f))

        members = scenario.cluster_clients(cluster.id)
        total_b = sum(decision.bandwidth_hz[p.id] for p in members)
        slack_b = cluster.bandwidth_hz - total_b
        checks.append(ConstraintCheck(
            "bandwidth_budget", f"cluster {cluster.id}",
            _rel_ok(slack_b, cluster.bandwidth_hz), slack_b))

        for p, e_loc, e_agg in zip(members, cc.client_local_energy_j, cc.client_agg_energy_j):
            slack_e = p.energy_budget_j - e_loc - e_agg
            checks.append(ConstraintCheck(
                "client_energy", f"client {p.id}",
                _rel_ok(slack_e, p.energy_budget_j), slack_e))

        slack_s = cost.ClusterModel(scenario, cluster).battery_margin(cc.offloaded_samples, f)
        name = "sat_energy_sun" if cluster.sun_facing else "sat_energy_dark"
        checks.append(ConstraintCheck(
            name, f"cluster {cluster.id}",
            _rel_ok(slack_s, max(cluster.sat_min_residual_j, cluster.sat_initial_energy_j)),
            slack_s))

        slack_a = cluster.max_offload_samples - cc.offloaded_samples
        scale_a = cc.offloaded_samples if math.isinf(cluster.max_offload_samples) else cluster.max_offload_samples
        checks.append(ConstraintCheck(
            "offload_budget", f"cluster {cluster.id}", _rel_ok(slack_a, scale_a), slack_a))

    return FeasibilityReport(checks=tuple(checks), breakdown=breakdown)


# ---------------------------------------------------------------------------
# per-cluster solve: bisection on the path time

# the path-time bracket closes to one or two ulps of t, so that an upload
# that is a small part of a long round is exact too
T_RTOL = math.ulp(1.0)
# the price solve stops when the slices miss the budget by this share
FILL_RTOL = 1e-13
# and each price's Newton steps on the slices when no log step passes this
SLICE_STEP_TOL = 1e-7
# a final satellite busy for all but this share of its window counts as
# handing off. The model and the replay hand off within cost.CYC_EPS of a
# full window, and an exact optimum can sit right on a window boundary; the
# wider margin keeps the solve's chains clear of that band through the
# replay's rounding of absolute window times, and through counts that
# floor with no band at all, as the benchmark's closed-form check does
FULL_WINDOW_RTOL = 1e-8


def _chain_end(ctx, a: float, f: float) -> tuple:
    """(handoffs, end) of the relay chain at offload a and frequency f, with
    a final window used to within FULL_WINDOW_RTOL counted as full."""
    tau_tr, n, end, _, (dwell, _) = ctx.chain(a, f)
    if dwell - tau_tr > (1.0 - FULL_WINDOW_RTOL) * (ctx.T - tau_tr):
        return n + 1, ctx.T * (n + 1) + tau_tr
    return n, end


def _rate_terms(c, b):
    """ln(R^2 / R') and its slope in ln b, for R(b) = b ln(1 + c / b) a
    slice's rate in nats a second. R' is summed as its series for a small
    c / b, where the closed form cancels."""
    u = c / b
    l1 = np.log1p(u)
    v = u / (1.0 + u)
    d1 = l1 - v
    small = u < 1e-3
    if small.any():
        us = u[small]
        d1[small] = us * us * (0.5 - us * (2.0 / 3.0 - us * (0.75 - 0.8 * us)))
    return 2.0 * np.log(b * l1) - np.log(d1), 2.0 * d1 / l1 + v * v / d1


class _Solve:
    """One cluster's problem at a path target t: the least offload that lets
    the client path end by t, over the bandwidth budget or for pinned
    slices. (With the offload pinned instead, `_client_paths` prices the
    slices.)

    In an upload window (g, L, D) of `cost.FixedWindows.upload_windows`
    client k needs at least max(floor_k, s_k - rate_k (D - tau_k), energy
    line at tau_k) samples offloaded, a max of affine functions of its
    upload time, and at most a_max_k. The least total over slices within
    the budget is separable and convex: one price mu gives each client the
    slice where r^2 / (Q r') = w_k / mu, w_k the slope of its active piece
    (Boyd & Vandenberghe, Convex Optimization, 2004, section 5.5.3); t only
    shifts the pieces.

    The client path never falls as the chain gets longer, so windows for n
    handoffs are safe for any chain of n or fewer; n is raised from below to
    the least offload's own chain until the two agree.
    """

    def __init__(self, ctx, tau=None):
        self.ctx = ctx
        self.tau = tau  # pinned upload times
        # slopes of the shallower and the steeper sloped piece
        slopes = np.concatenate((np.minimum(ctx.rate, ctx.energy_slope),
                                 np.maximum(ctx.rate, ctx.energy_slope)))
        self.targets = np.log(slopes) + math.log(math.log(2.0) * ctx.footprint.state_bits)
        self.c2 = np.concatenate((ctx.snr_num, ctx.snr_num))
        self.windows = cost.FixedWindows(ctx.T)
        # straggler windows past h_full hold every client's local pass
        self.h_full = math.ceil(float(np.max(ctx.sizes / ctx.rate)) / ctx.T) - 1
        self.z = None  # ln mu and the priced slices of the last budget fill
        self.priced = None

    def _fill(self, b_hi, b_flat, b_kink):
        """Slices max(b_hi, min(b_flat, max(K_lo, b_kink), K_hi)) at the
        price where they fill the budget, K_lo and K_hi the priced slices of
        the shallower and steeper piece and b_hi, b_flat and b_kink those at
        the longest upload, the flat piece's end and the kink. Bracketed
        Newton steps on the log of the sum in ln mu, each after Newton steps
        on ln K; None when even the longest uploads overfill the budget."""
        budget = self.ctx.budget_hz
        if float(np.sum(b_hi)) > budget:
            return None
        top = np.maximum(b_hi, b_flat)
        if float(np.sum(top)) <= budget:
            return top  # every client at its least offload
        k = len(b_hi)
        if self.z is None:
            self.priced = np.full(2 * k, budget / k)
            self.z = float(np.mean(_rate_terms(self.c2, self.priced)[0] - self.targets))
        z, lo, hi, best = self.z, -math.inf, math.inf, None
        for _ in range(BISECT_MAX_ITER):
            for _ in range(BISECT_MAX_ITER):
                val, slope = _rate_terms(self.c2, self.priced)
                step = (val - self.targets - z) / slope
                self.priced = self.priced * np.exp(-step)
                if np.max(np.abs(step)) <= SLICE_STEP_TOL:  # the error left is near its square
                    break
            k_lo, k_hi = self.priced[:k], self.priced[k:]
            b = np.maximum(b_hi, np.minimum(np.minimum(b_flat, np.maximum(k_lo, b_kink)), k_hi))
            s = float(np.sum(b))
            if abs(budget - s) <= FILL_RTOL * budget:
                best = b * min(1.0, budget / s)  # a hair over reads as full
                break
            if s < budget:
                best, lo = b, z
            else:
                hi = z
            if hi - lo <= FILL_RTOL * max(1.0, abs(z)):
                break
            free = (float(np.sum(np.where(b == k_lo, k_lo / slope[:k], 0.0)))
                    + float(np.sum(np.where(b == k_hi, k_hi / slope[k:], 0.0))))
            step = math.log(budget / s) * s / free if free > 0.0 else math.nan
            if lo < z + step < hi:
                z += step
            elif math.isfinite(lo) and math.isfinite(hi):
                z = 0.5 * (lo + hi)
            else:
                z += 2.0 if s < budget else -2.0
        self.z = z
        return best

    def ruled_out(self, L, bound):
        """Whether local passes that end by L miss on their own: local
        floors past a cap or totalling bound. Every earlier L misses too."""
        ctx = self.ctx
        floor = np.maximum(0.0, ctx.sizes - ctx.rate * L)
        return bool(np.any(floor > ctx.a_max)) or float(np.sum(floor)) >= bound

    def window(self, g, L, D):
        """(score, need, slices) in the window (g, L, D), whose local passes
        are not ruled out, or None when no split fits. The score is the
        least offload total; the slices are None when they are pinned."""
        ctx = self.ctx
        floor = np.maximum(0.0, ctx.sizes - ctx.rate * L)
        line = ctx.sizes - ctx.rate * D  # the deadline line at tau = 0
        tau_hi = np.minimum(D - g, np.minimum(D - ctx.local_min, ctx.tau_energy))
        tau, b = self.tau, None
        if tau is None:
            # where the need leaves its floor, and where the steeper sloped
            # piece takes over from the shallower (parallel lines cross at
            # +-inf or nowhere: the lower one never binds)
            x1 = np.minimum((floor - line) / ctx.rate, (floor - ctx.energy_need) / ctx.energy_slope)
            with np.errstate(divide="ignore", invalid="ignore"):
                cross = (line - ctx.energy_need) / (ctx.energy_slope - ctx.rate)
            k = len(floor)
            ends = _slice_closed_form(ctx.footprint.state_bits, np.concatenate((self.c2, ctx.snr_num)),
                                      np.concatenate((tau_hi, x1, np.fmax(x1, cross))))
            b = self._fill(ends[:k], ends[k:2 * k], ends[2 * k:])
            if b is None:
                return None
            tau = ctx.tau_agg(b)
        elif np.any(tau > tau_hi):
            return None
        need = np.maximum(line + ctx.rate * tau, ctx.energy_need + ctx.energy_slope * tau)
        need = np.minimum(np.maximum(floor, need), ctx.a_max)
        return float(np.sum(need)), need, b

    def least(self, t, n):
        """(alpha, slices, f, n, score) at the least score over the windows
        of target t, with the battery-optimal frequency and the chain's
        handoff count, raising the chain from n; alpha is None when no
        offload up to the cap fits."""
        ctx = self.ctx
        while True:
            best, pick = math.inf, None
            # L falls down the windows, so the first ruled out ends the list
            for g, L, D in self.windows.upload_windows(t, n, self.h_full):
                if self.ruled_out(L, best):
                    break
                got = self.window(g, L, D)
                if got is not None and got[0] < best:
                    best, pick = got[0], got
            if pick is None:
                return None, None, None, n, best
            _, need, b = pick
            alpha = np.minimum(np.divide(need, ctx.sizes, out=np.zeros_like(need),
                                         where=ctx.sizes > 0), ctx.alpha_max)
            a = ctx.offloaded(alpha)
            if a > ctx.a_cap * (1.0 + 1e-12):
                return None, None, None, n, best
            f = _battery_freq(ctx, a)
            n_a = _chain_end(ctx, a, f)[0]
            if n_a <= n:
                return alpha, b, f, n_a, best
            n = n_a


def _solve_cluster(ctx: _Ctx, b=None):
    """The least path time of one cluster, by bisection on it, and what
    reaches it: (alpha, slices, f, trials), the least offload at the
    battery-optimal frequency over the bandwidth budget, or with slices b
    pinned over those.

    A target t is reachable when the least offload whose client path ends by
    t has a satellite chain that ends by t too, at the battery-optimal
    frequency: that chain's end rises with the offload, and the least
    offload falls as t grows, so reachability is monotone in t and the
    problem is quasiconvex in it (Boyd & Vandenberghe, Convex Optimization,
    2004, section 4.2.5)."""
    c = ctx.cluster
    tau = None if b is None else ctx.tau_agg(b)
    # the least offload any target allows: each client's budget with its
    # upload on the whole band, or on its pinned slice
    need = ctx.energy_need + ctx.energy_slope * (ctx.tau_budget if b is None else tau)
    k = int(np.argmax(need - ctx.a_max))
    if need[k] > ctx.a_max[k] + 1e-9 * ctx.sizes[k]:
        with np.errstate(divide="ignore"):  # a dataless client's slack is -inf
            slack = float(ctx.alpha_max[k] - need[k] / ctx.sizes[k])
        raise InfeasibleError(f"client {ctx.ids[k]}: energy budget cannot be met even at "
                              "full offload with the bandwidth it can get", slack=slack)
    # the battery refuses every offload past one it refuses (each
    # satellite's lowest level falls with the offload), so a battery that
    # refuses the least offload any target allows refuses every target
    _battery_freq(ctx, min(float(np.sum(np.clip(need, 0.0, ctx.a_max))), ctx.a_cap))
    solve = _Solve(ctx, tau)
    # past this target no window grows, so only a late chain can still be
    # cured by waiting longer
    settled = (ctx.T * (max(solve.h_full, cost.MAX_HANDOFFS) + 2)
               + float(np.max(ctx.tau_energy if b is None else tau)))
    # no closure refers to itself or keeps a traceback: such a cycle would
    # hold the cluster's data until the next garbage collection
    gaps, kept, n_lo, why = {}, {}, [0], [None]

    def gap(t):
        # the chain's end less t for the least offload at t: at most 0 when
        # t is reachable; inf when nothing fits, with the error kept
        if t not in gaps:
            why[0] = None
            try:
                a_t, b_t, f_t, n_t, _ = solve.least(t, n_lo[0])
            except InfeasibleError as err:
                a_t, why[0] = None, err.with_traceback(None)
            gaps[t] = math.inf if a_t is None else _chain_end(ctx, ctx.offloaded(a_t), f_t)[1] - t
            if gaps[t] <= 0.0:
                # the least offload at t bounds the chain of every earlier t
                kept[t], n_lo[0] = (a_t, b_t, f_t), n_t
        return gaps[t]

    # Bracket the least reachable t by regula falsi (Illinois) on the gap,
    # which falls as t grows; a t without a gap takes a bisection step. No t
    # comes before a client's least local pass and fastest upload, or the relay.
    lo = max(float(np.max(ctx.local_min + (ctx.tau_floor if b is None else tau))),
             ctx.tau_trans(0.0))
    hi, d_lo, d_hi, moved, t = math.inf, None, None, None, 2.0 * lo
    for _ in range(BISECT_MAX_ITER):
        d = gap(t)
        if d <= 0.0:
            hi, d_hi = t, d
            if d == 0.0:
                lo = t  # t is the root
            elif moved == "hi" and d_lo is not None:
                d_lo *= 0.5  # lo kept twice running
            moved = "hi"
        else:
            if math.isinf(hi) and t > settled and math.isinf(d):
                raise why[0] or InfeasibleError(
                    f"cluster {c.id}: no round time meets the client energy budgets "
                    "and the offload cap within the bandwidth budget")
            lo, d_lo = t, d if math.isfinite(d) else None
            if moved == "lo" and d_hi is not None:
                d_hi *= 0.5  # hi kept twice running
            moved = "lo"
        if hi - lo <= 8.0 * T_RTOL * hi < math.inf:
            break
        if math.isinf(hi):  # a late chain's end is a reachable target
            t = t + d if math.isfinite(d) else 2.0 * t
        elif d_lo is not None and d_hi is not None:
            # at least a few ulps from either end, so that a root next to
            # one end closes the bracket
            step = 2.0 * T_RTOL * hi
            t = min(max(lo + (hi - lo) * d_lo / (d_lo - d_hi), lo + step), hi - step)
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
    if math.isinf(hi):
        raise InfeasibleError(f"cluster {c.id}: no round time is reachable")
    # then close the bracket to a near machine-tight one
    r = bisect(lambda t: -1.0 if gap(t) <= 0.0 else 1.0, lo, hi, eps=T_RTOL)
    alpha_t, b_t, f_t = kept[r.hi if r.status == "converged" else r.x]
    return alpha_t, b_t, f_t, len(gaps)


def _row_sums(b):
    """Each row's sum, added in client order: a row sums alike alone and in
    a batch."""
    return functools.reduce(np.add, b.T)


def _equalize(ctx: _Ctx, floors, x):
    """Per row of slice floors and upload offsets x, the least completion t
    whose slices max(b_k(t - x_k), floor_k) fit the budget, b_k(s) the least
    slice that uploads in s, and those slices scaled up to fill it.

    Regula falsi (Illinois) on g(t) = 1 - B / sum_k max(b_k(t - x_k),
    floor_k), which falls as t grows and is close to linear in it as the
    sum grows like a hyperbola. The bracket runs from the end of the fastest
    uploads, where g is 1, to the end of the floors' uploads, where every
    slice is its floor; each row stops on its own once its bracket is about
    an ulp wide."""
    budget = ctx.budget_hz
    lo = np.max(x + ctx.tau_floor, axis=1)
    hi = np.max(x + ctx.tau_agg(floors), axis=1)
    g_lo, g_hi = np.ones(len(lo)), 1.0 - budget / _row_sums(floors)
    b_hi, moved = floors.copy(), np.zeros(len(lo))  # the slices at hi; +1 when hi moved last
    live = np.flatnonzero(hi - lo > T_RTOL * hi)
    for _ in range(BISECT_MAX_ITER):
        if not live.size:
            break
        l, h, gl, gh, mv = lo[live], hi[live], g_lo[live], g_hi[live], moved[live]
        # at least a few ulps from either end, so that a root next to one
        # end closes the bracket
        step = 2.0 * T_RTOL * h
        t = np.minimum(np.maximum(l + (h - l) * gl / (gl - gh), l + step), h - step)
        t = np.where((l < t) & (t < h), t, 0.5 * (l + h))
        b = np.maximum(upload_bandwidth(ctx.footprint.state_bits, ctx.snr_num,
                                        t[:, None] - x[live]), floors[live])
        g = 1.0 - budget / _row_sums(b)
        reach = g <= 0.0
        # an end kept twice running has its value halved
        g_lo[live] = np.where(reach, np.where(mv > 0.0, 0.5 * gl, gl), g)
        g_hi[live] = np.where(reach, g, np.where(mv < 0.0, 0.5 * gh, gh))
        lo[live] = np.where(g < 0.0, l, t)  # where g is 0, t is the root
        hi[live] = np.where(reach, t, h)
        b_hi[live] = np.where(reach[:, None], b, b_hi[live])
        moved[live] = np.where(reach, 1.0, -1.0)
        live = live[hi[live] - lo[live] > T_RTOL * hi[live]]
    # the least slices at the least completion fill the budget; at the
    # bracket's reachable end they miss it by its width times the ratio of
    # the path to the upload time. Scaling them up keeps every floor, and
    # the ulp steps that undo an overfill stop at the floors, which fit
    b = b_hi * (budget / _row_sums(b_hi))[:, None]
    rel = math.ulp(1.0)
    while (over := _row_sums(b) > budget).any():
        b[over] = np.maximum(b[over] * (1.0 - rel), floors[over])
        rel *= 2.0
    return hi, b


def _client_paths(ctx: _Ctx, alphas, n):
    """The least client path time of each row of pinned offloads alphas (P
    x K) with relay chains of n handoffs (one count, or one per row), and
    the slices that reach it.

    Every slice keeps at least its energy floor, the least one whose upload
    the client's budget pays for after its local pass. The regime is the one
    `cost.client_path` prices, here on the offsets and deadline of
    `cost.regime_geometry` over the rows:
      1. every local pass ends by the final satellite's arrival T n: the
         uploads start there, and the path is T n plus the equalized upload
         U, on zero offsets;
      2. else the uploads start at the offsets of the straggler's window,
         and the equalized completion is the path while it meets the
         window's deadline;
      3. past it every upload waits for the next satellite: the deadline
         plus U."""
    floors = upload_bandwidth(ctx.footprint.state_bits, ctx.snr_num,
                              (ctx.budgets - ctx.e_locals(alphas)) / ctx.tx_power_w)
    spare = ctx.budget_hz - _row_sums(floors)
    if not np.all(spare >= 0.0):
        raise InfeasibleError(
            f"cluster {ctx.cluster.id}: the client energy budgets need more than the "
            "bandwidth budget at this offload", slack=float(np.min(spare)))
    m, x, deadline = cost.regime_geometry(ctx.tau_locals(alphas).T, ctx.T)
    x = np.stack(x, axis=1)
    gate = ctx.T * n
    first = m <= gate
    y, b = _equalize(ctx, floors, np.where(first[:, None], 0.0, x))
    late = ~first & (y > deadline)
    if late.any():
        u, b[late] = _equalize(ctx, floors[late], np.zeros_like(x[late]))
        y[late] = deadline[late] + u
    return np.where(first, gate + y, y), b


def solve_alpha(scenario, bandwidth: dict, ctxs=None) -> dict:
    """Per-client offload fractions for pinned bandwidth slices: the least
    offload that reaches the least path time."""
    out = {}
    for ctx in ctxs or _contexts(scenario):
        out.update(zip(ctx.ids, _solve_cluster(ctx, b=ctx.per_client(bandwidth))[0].tolist()))
    return out


def solve_bandwidth(scenario, alpha: dict, sat_freq: dict, ctxs=None) -> dict:
    """Per-client bandwidth slices for a pinned offload and frequency: the
    slices that reach the least client path time (`_client_paths`, one row
    per cluster)."""
    out = {}
    for ctx in ctxs or _contexts(scenario):
        a = ctx.per_client(alpha)
        n = ctx.n_handoffs(ctx.offloaded(a), sat_freq[ctx.cluster.id])
        out.update(zip(ctx.ids, _client_paths(ctx, a[None], n)[1][0].tolist()))
    return out


# ---------------------------------------------------------------------------
# the optimizer


@dataclass(frozen=True)
class OptimizeResult:
    decision: DecisionVector
    trace: tuple  # (stage, iteration, tau_round_s): one ("solve", 0, tau) row
    report: FeasibilityReport
    iterations: int  # the most path-time trials any cluster's solve took


def optimize(scenario) -> OptimizeResult:
    """Solve each cluster exactly and alone: no constraint couples two
    clusters, and the round time is the largest cluster total. A cluster
    keeps the least offload that reaches its least path time, the slices of
    that solve, and the battery-optimal frequency for the offload."""
    alpha, freq, bandwidth, steps = {}, {}, {}, 0
    for ctx in _contexts(scenario):
        a, b, f, it = _solve_cluster(ctx)
        alpha.update(zip(ctx.ids, a.tolist()))
        freq[ctx.cluster.id] = f
        bandwidth.update(zip(ctx.ids, b.tolist()))
        steps = max(steps, it)
    decision = DecisionVector(alpha=alpha, sat_freq_hz=freq, bandwidth_hz=bandwidth)
    report = check_feasibility(scenario, decision)
    return OptimizeResult(decision=decision, trace=(("solve", 0, report.breakdown.tau_round_s),),
                          report=report, iterations=steps)


def optimize_pinned_alpha(scenario, alpha: dict) -> DecisionVector:
    """Best frequency and bandwidth for a fixed offload vector (baselines)."""
    for p in scenario.clients:
        a = alpha[p.id]
        if a < -1e-12 or a > p.max_offload_fraction + 1e-12:
            raise InfeasibleError(
                f"client {p.id}: pinned offload {a} outside [0, {p.max_offload_fraction}]"
            )
    ctxs = _contexts(scenario)
    freq = solve_freq(scenario, alpha, ctxs)
    bandwidth = solve_bandwidth(scenario, alpha, freq, ctxs)
    return DecisionVector(alpha=dict(alpha), sat_freq_hz=freq, bandwidth_hz=bandwidth)


# ---------------------------------------------------------------------------
# brute-force comparator for small instances


def grid_refusal(scenario):
    """Why `grid_search_cluster` cannot search the scenario, or None: its
    lattice spans one cluster of at most GRID_MAX_CLIENTS clients."""
    counts = [len(c.client_ids) for c in scenario.clusters]
    if len(counts) == 1 and counts[0] <= GRID_MAX_CLIENTS:
        return None
    clusters = f"{len(counts)} cluster" + "s" * (len(counts) != 1)
    return (f"grid comparator works on single-cluster scenarios of at most {GRID_MAX_CLIENTS} "
            f"clients; this one has {clusters} of {', '.join(map(str, counts))} clients")


class _Lattice:
    """Every offload profile of a cluster on a per-client alpha lattice,
    with what its round time needs: the satellite path at the
    battery-optimal frequency and its handoff count, and a lower bound on
    the round time that costs no bisection, from the per-client bandwidth
    floors the energy budgets set (`bound`). `totals` prices the client
    path of chosen profiles with the pinned-offload equalizer
    `_client_paths`, each on its own chain's count, and `best` keeps the
    winner's slices from the row that scored it.

    The frequency and the chain come from one `_battery_freq` pass and one
    `chain` call over every distinct offload total (their powers once per
    distinct value, `cost.lanewise`), and `freq`, `handoffs`
    and the satellite path `rep` are kept once per total, the totals that
    occur sorted in `uniq`; `rows` finds a total's row in them, through the
    table `slot` over every total under the cap when those are no more than
    the profiles, else by search in `uniq`, so the tables stay no longer
    than the lattice. A profile that breaks a constraint gets an inf bound,
    so it never wins: one past the cluster's offload cap, one whose total
    the battery refuses, and one whose clients' energy floors overfill the
    band. The lattice raises only when the battery refuses every total,
    with the first refused total's error; `refusal` tells why a search
    found no profile with a finite bound.

    The lattice is the product of the clients' alpha axes, and a profile
    is named by its grid index, its place in the C order of
    meshgrid(indexing="ij") over them; `profiles` rebuilds the alphas and
    total of any profile from it. What depends on one client's offload
    alone (its alpha, local time, energy-floor slice and share of the
    offload total) is computed once per axis value and broadcast, and the
    upload time on the band the other clients' floors leave over the other
    K - 1 axes; only what couples all the clients (the straggler's window,
    the offsets, the floors' sum and the bound) is computed per profile.

    Boxes of GRID_TILE values per axis tile the lattice, and `tile_lower`
    holds one bound per tile (inf for a tile wholly past the cap): the
    formula of `bound` on each client's least local time and least floor
    over the tile's values of its axis, and on the least satellite path
    over the totals that occur in the tile's range of totals. So a tile's
    bound is at most the bound of each profile in it that the cap keeps:
    each input is at most the profile's own (its total occurs in the
    range), and every step from them is monotone in them. The straggler's
    end, max over k of tl_k, and its window's start T floor(m / T) are no
    later, nor is each offset max(start, tl_k); the band B less the other
    floors, summed in the same order, is no narrower; the floors' sum is
    no larger, so a tile that holds a profile within the band is within it;
    and IEEE add, subtract, max and `take` are monotone. Only the upload
    time's fall as its band grows rests on a library function, log2 in
    `cost.slice_rate`. A band that even the least floors overfill reads
    nan there, and the tile inf. `order` lists the tiles that hold a kept
    profile by ascending bound, ties by tile index, and `price` bounds a
    tile's profiles."""

    def __init__(self, scenario, alpha_step: float):
        refusal = grid_refusal(scenario)
        if refusal:
            raise ValueError(refusal)
        self.scenario = scenario
        self.cluster = cluster = scenario.clusters[0]
        self.ctx = ctx = _Ctx(scenario, cluster)
        k_count = len(ctx.sizes)

        # a lattice point past a client's offload cap is no decision at all
        axes = [np.arange(0.0, ctx.alpha_max[k] + alpha_step / 2, alpha_step)
                for k in range(k_count)]
        axes = [ax[ax <= ctx.alpha_max[k] * (1.0 + 1e-12)] for k, ax in enumerate(axes)]
        # offload totals are whole multiples of quant: axis value i of client
        # k offloads i * units[k] of them, none for a client without data
        sizes = [int(round(s)) for s in ctx.sizes]
        size_gcd = math.gcd(*sizes) or 1  # every client without data: all totals 0
        quant = alpha_step * size_gcd
        self.units = units = [s // size_gcd for s in sizes]
        # the totals under the cluster cap are 0 .. n_keep - 1: the last is
        # the largest i with i * quant (as the float product) under the cap
        top = sum((len(ax) - 1) * u for ax, u in zip(axes, units))
        limit = ctx.a_cap * (1.0 + 1e-12)
        last = top if top * quant <= limit else min(top, math.floor(limit / quant))
        while last * quant > limit:
            last -= 1
        while last < top and (last + 1) * quant <= limit:
            last += 1
        self.n_keep = n_keep = last + 1
        # an axis value that passes the cap on its own is in no kept profile
        self.axes = axes = [ax[:last // u + 1] if u else ax for ax, u in zip(axes, units)]
        self.shape = shape = tuple(len(ax) for ax in axes)
        self.edge = edge = GRID_TILE
        # the largest total is the last profile's; while it is under the cap
        # every profile is kept
        capped = sum((n - 1) * u for n, u in zip(shape, units)) >= n_keep

        def along(tables, rows=slice(None)):
            # one per-axis-value table per client, client 0's cut to rows,
            # each shaped to broadcast over the others
            return [np.reshape(t[rows] if k == 0 else t,
                               [-1 if j == k else 1 for j in range(k_count)])
                    for k, t in enumerate(tables)]

        # --- satellite-path inner minimum per offload total that occurs:
        # marked in a table over the totals under the cap when there are no
        # more of those than profiles, else sorted out of each slab's totals
        # (coprime sizes spread the totals far wider than the lattice)
        tabled = n_keep <= math.prod(shape)
        seen = np.zeros(n_keep if tabled else 0, dtype=bool)
        occur = []

        def distinct(v):
            # v's values sorted, once each (np.unique's hash pass is some
            # 10x slower on these)
            v = np.sort(v)
            return v[np.concatenate(([True], v[1:] != v[:-1]))]

        steps = [np.arange(n) * u for n, u in zip(shape, units)]
        for r in range(0, shape[0], edge):
            total = sum(along(steps, slice(r, r + edge))).reshape(-1)
            if capped:
                total = total[total < n_keep]
            if tabled:
                seen[total] = True
            else:
                occur.append(distinct(total))
        self.uniq = uniq = np.flatnonzero(seen) if tabled else distinct(np.concatenate(occur))
        # (total 0 always occurs, so the unsigned count never drops below 1)
        self.slot = (np.cumsum(seen, dtype=np.min_scalar_type(len(uniq))) - 1) if tabled else None
        a = uniq * quant
        best_f, err = _battery_lanes(ctx, a)
        ok = ~np.isnan(best_f)
        if not ok.any():
            raise err
        # a refused total keeps an inf satellite path and no handoff
        n, rep = np.zeros(len(a), np.min_scalar_type(cost.MAX_HANDOFFS)), np.full(len(a), math.inf)
        _, n[ok], rep[ok], _, _ = ctx.chain(a[ok], best_f[ok])
        self.handoffs, self.freq, self.rep = n, best_f, rep

        # --- client side: exact energy floors on the slices and local
        # times, per axis value; column k holds client k's axis, padded with
        # its first value (0)
        axis_alpha = np.zeros((max(shape), k_count))
        for k, ax in enumerate(axes):
            axis_alpha[:len(ax), k] = ax
        # (inf for an axis value whose budget no slice meets)
        b_axis = upload_bandwidth(ctx.footprint.state_bits, ctx.snr_num,
                                  (ctx.budgets - ctx.e_locals(axis_alpha)) / ctx.tx_power_w)
        self.b_axis = [b_axis[:n, k] for k, n in enumerate(shape)]
        tl_axis = ctx.tau_locals(axis_alpha)
        self.tl_axis = [tl_axis[:n, k] for k, n in enumerate(shape)]

        # --- one bound per tile, from each axis's least values over the
        # tile's range of it and the least path over the totals between the
        # tile's least and largest (a range minimum over rep, inf past it)
        starts = [np.arange(0, n, edge) for n in shape]
        lo = sum(along([s * u for s, u in zip(starts, units)]))
        hi = sum(along([(np.minimum(s + edge, n) - 1) * u
                        for s, n, u in zip(starts, shape, units)]))
        span = np.stack([np.searchsorted(uniq, lo),
                         np.searchsorted(uniq, np.minimum(hi, n_keep - 1), side="right")], axis=-1)
        path = np.minimum.reduceat(np.append(rep, math.inf), span.reshape(-1))[::2]

        def least(tables):
            return along([np.minimum.reduceat(t, s) for t, s in zip(tables, starts)])

        self.tile_lower = np.where(lo < n_keep, self._bound(
            least(self.tl_axis), least(self.b_axis), path.reshape(lo.shape)), math.inf)
        order = np.argsort(self.tile_lower, axis=None, kind="stable")
        self.order = order[lo.reshape(-1)[order] < n_keep]

    def _bound(self, tl, b, path):
        """The bound on per-client local ends tl and slice floors b (one
        array per client, broadcast) and satellite paths: client k gets at
        most the budget the other floors leave, so its upload ends no sooner
        than reach_k; that bounds the equalized completion and with it
        every regime: the first has zero offsets, and the third (deadline
        plus equalized upload) lies past the second because the deadline is
        past every offset. The bound holds when a chain hands off too:
        every upload offset is then at most the final satellite's arrival,
        where the uploads start. Inf where the floors overfill the band, or
        leave a client none (nan reach)."""
        ctx = self.ctx
        # each client's upload offset in the straggler's serving window
        x = cost.regime_geometry(tl, ctx.T)[1]
        with np.errstate(invalid="ignore", divide="ignore"):
            reach = functools.reduce(np.maximum, [
                x[k] + cost.upload_time(ctx.footprint.state_bits, ctx.snr_num[k],
                                        ctx.budget_hz - sum(b[:k] + b[k + 1:]))
                for k in range(len(b))])
        lower = self.cluster.sync_delay_s + np.maximum(path, reach) + self.cluster.glob_delay_s
        return np.where((sum(b) <= ctx.budget_hz) & ~np.isnan(lower), lower, math.inf)

    def bound(self, idx) -> np.ndarray:
        """The bound of the profiles at per-axis indices idx (arrays that
        broadcast against each other: np.unravel_index of grid indices, or
        `tile`'s open mesh); inf for one past the cap or that breaks a
        constraint."""
        total = sum(i * u for i, u in zip(idx, self.units))
        # (a total past the cap reads the last row's path or one past it)
        path = np.where(total < self.n_keep, self.rep.take(self.rows(total), mode="clip"), math.inf)
        return self._bound([t[i] for t, i in zip(self.tl_axis, idx)],
                           [b[i] for b, i in zip(self.b_axis, idx)], path)

    def tile(self, t) -> tuple:
        """The per-axis indices of tile t, a flat index into `tile_lower`, as
        an open mesh (np.ix_)."""
        at = np.unravel_index(t, self.tile_lower.shape)
        return np.ix_(*[np.arange(j * self.edge, min((j + 1) * self.edge, n))
                        for j, n in zip(at, self.shape)])

    def price(self, t) -> tuple:
        """(sel, lower) of tile t's profiles: their grid indices, ascending,
        and their bounds."""
        idx = self.tile(t)
        return np.ravel_multi_index(idx, self.shape).reshape(-1), self.bound(idx).reshape(-1)

    def refusal(self) -> InfeasibleError:
        """Why no profile has a finite bound: no profile under the cap has
        energy floors within the band, or each that has breaks the
        battery."""
        for t in self.order:
            idx = self.tile(t)
            kept = sum(i * u for i, u in zip(idx, self.units)) < self.n_keep
            floors = sum(b[i] for b, i in zip(self.b_axis, idx))
            if np.any(kept & (floors <= self.ctx.budget_hz)):
                return InfeasibleError("grid instance has no profile within every budget")
        return InfeasibleError("grid instance has an unmeetable client energy budget")

    def profiles(self, sel: np.ndarray) -> tuple:
        """(alphas, at) of the profiles at grid indices sel: their offloads,
        (P, K) column-major like every (P, K) array here (numpy reduces over
        the 2-3 clients of a row about 40x faster so), and the row of each
        one's offload total in `freq`, `handoffs` and `rep`."""
        idx = np.unravel_index(sel, self.shape)
        alphas = np.stack([ax[i] for ax, i in zip(self.axes, idx)]).T
        return alphas, self.rows(sum(i * u for i, u in zip(idx, self.units)))

    def rows(self, total: np.ndarray) -> np.ndarray:
        """The row of each offload total (in units of quant) in `freq`,
        `handoffs` and `rep`; a total past the cap reads the last row or
        one past it."""
        if self.slot is None:
            return np.searchsorted(self.uniq, total)
        return self.slot.take(total, mode="clip")

    def totals(self, sel: np.ndarray) -> tuple:
        """(totals, slices) of the profiles at grid indices sel: each one's
        round time, with the client path of the pinned-offload equalizer on
        its total's handoff count, and the slices (P x K) that reach it."""
        alphas, at = self.profiles(sel)
        y, b = _client_paths(self.ctx, alphas, self.handoffs[at])
        return (self.cluster.sync_delay_s + np.maximum(y, self.rep[at])
                + self.cluster.glob_delay_s), b

    def best(self, sel: np.ndarray, totals: np.ndarray, slices: np.ndarray):
        """The profile of sel with the least total as a real decision and
        the cost model's round time. Its slices are the row of `totals`
        that scored it: `_client_paths` prices each row alone, as
        `solve_bandwidth` prices the decision, on the handoff count of the
        profile's lattice total. The decision's own offload sum can round
        apart from that total; where its count then differs, the slices
        are solved afresh on the decision's count."""
        i = int(np.argmin(totals))
        alphas, at = self.profiles(sel[i:i + 1])
        alpha_pt = {pid: float(alphas[0, k]) for k, pid in enumerate(self.ctx.ids)}
        freq_map = {self.cluster.id: float(self.freq[at[0]])}
        n = self.ctx.n_handoffs(self.ctx.offloaded(alphas[0]), freq_map[self.cluster.id])
        if n == self.handoffs[at[0]]:
            b_map = dict(zip(self.ctx.ids, slices[i].tolist()))
        else:
            b_map = solve_bandwidth(self.scenario, alpha_pt, freq_map, [self.ctx])
        decision = DecisionVector(alpha=alpha_pt, sat_freq_hz=freq_map, bandwidth_hz=b_map)
        tau = cost.round_latency(self.scenario, decision).tau_round_s
        if tau > totals[i] * (1.0 + GRID_RTOL):
            raise AssertionError(
                f"grid comparator internal mismatch: exact {tau} vs grid {totals[i]}")
        return tau, decision


def grid_search_cluster(scenario, alpha_step: float = 1e-3):
    """Exhaustive offload-profile search for a single-cluster scenario.

    The offload profile is enumerated on a per-client alpha lattice
    (`_Lattice`), built from per-client axis tables broadcast over the grid.
    For each profile the two inner minimizations are independent: the
    satellite path wants the largest battery-feasible frequency, solved for
    every distinct offload total in one array pass, and the client path
    wants the bandwidth split that equalizes per-client completion, found
    by the pinned-offload equalizer `_client_paths` on the profile's own
    handoff count, with the uplink inverted in closed form. Profiles that
    break the cap, the battery or a client energy budget are dropped, and
    the search raises only when none is left.

    A bisection-free lower bound prunes the lattice, best first (branch
    and bound): tiles are visited by ascending tile bound and their
    profiles bounded, until a tile's bound passes the least profile bound
    found, ties going to the lower grid index. That profile, the one with
    the least bound on the whole lattice, is scored for an upper bound on
    the optimum; every tile whose bound comes within GRID_RTOL of it is
    bounded too, and only the profiles whose own bound does are evaluated
    (when that is the bound profile alone, its score is reused). The
    winner keeps the slices of the equalizer row that scored it. Returns
    (tau_round_s, DecisionVector). Intended for <= 3 clients.
    """
    lattice = _Lattice(scenario, alpha_step)
    bounds = lattice.tile_lower.reshape(-1)
    priced, least = [], (math.inf, 0)  # the least profile bound so far, and its grid index
    for t in lattice.order:
        # a tile bounded above the least bound holds no profile under it,
        # nor one tied with it at a lower grid index
        if bounds[t] > least[0]:
            break
        sel, lower = lattice.price(t)
        i = int(np.argmin(lower))
        least = min(least, (lower[i], sel[i]))
        priced.append((sel, lower))
    if least[0] == math.inf:
        raise lattice.refusal()
    ub, ub_slices = lattice.totals(np.array([least[1]]))
    limit = ub[0] * (1.0 + GRID_RTOL)
    for t in lattice.order[len(priced):]:
        if bounds[t] > limit:
            break
        priced.append(lattice.price(t))
    sel, lower = (np.concatenate(v) for v in zip(*priced))
    sel = np.sort(sel[lower <= limit])
    # the bound profile's lower bound is under its total, so a selection of
    # one profile is that profile, already scored
    if len(sel) == 1:
        return lattice.best(sel, ub, ub_slices)
    return lattice.best(sel, *lattice.totals(sel))
