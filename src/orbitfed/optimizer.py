"""Per-round resource allocation: offload split, satellite frequency, bandwidth.

The round objective max_j[max(client path, satellite path) + glob] is driven
by three coupled blocks, each solved exactly given the others:

  - offload fractions: an outer bisection balances the client path against
    the satellite path in total offloaded samples A_j, with an inner min-max
    equalization distributing A_j across clients in closed form
    (water-filling);
  - satellite frequency: the battery-constrained maximum in closed form,
    the root of a quadratic (dark) or a cubic (sunlit) in f when the work
    fits one coverage window and of the full-window energy model otherwise;
  - bandwidth: per-client floors from the energy budget, then safeguarded
    Newton steps on the equalized completion value until the slices fill
    the cluster budget.

A block-coordinate loop cycles the offload and bandwidth blocks. Because A_j
changes the relay time and hence the battery headroom, the offload block
evaluates the satellite path at the battery-optimal frequency for each trial
A_j, and a kept offload split always carries that frequency.

Every bandwidth for a target upload time comes from the closed-form
inversion of the uplink curve through the lower branch of Lambert W
(`upload_bandwidth`); no bisection runs on the uplink itself.

`grid_search_cluster` is the exhaustive check of the descent on small
single-window clusters: it prunes its offload lattice with a bisection-free
lower bound before it equalizes bandwidth on the profiles that can win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cost
from .cost import cluster_client_path

BISECT_EPS = 1e-6
BISECT_MAX_ITER = 200
BAND_EPS = 1e-6  # bandwidth budget band (1 - eps) * B_j <= sum b <= B_j
# the bandwidth block's Newton steps stop when the slices above their floors
# miss the budget by at most this share of their sum, well inside the band
BAND_AIM = 1e-4 * BAND_EPS
# a round whose offloaded work needs more satellites than this is refused:
# the cost breakdown and decision.json list every satellite of the chain
MAX_HANDOFFS = 10_000
DESCENT_RTOL = 1e-6  # stop the descent when an iteration gains less than this
# The bandwidth block stops within BAND_EPS of the budget, so a profile's real
# decision can sit up to that far above its exact grid total: the grid keeps
# and re-scores profiles within that window of the best. Lattices with many
# near ties (thousands on three clients) re-score only the first 20.
GRID_RTOL = BAND_EPS
GRID_RESCORE_MAX = 20


class InfeasibleError(RuntimeError):
    """A resource block has no feasible point; carries slack diagnostics."""

    def __init__(self, message, slack=None, report=None):
        super().__init__(message)
        self.slack = slack
        self.report = report


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

    @staticmethod
    def from_dict(d) -> "DecisionVector":
        return DecisionVector(
            alpha={int(k): float(v) for k, v in d["alpha"].items()},
            sat_freq_hz={int(k): float(v) for k, v in d["sat_freq_hz"].items()},
            bandwidth_hz={int(k): float(v) for k, v in d["bandwidth_hz"].items()},
        )


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
    with np.errstate(divide="ignore"):
        q = state_bits * math.log(2.0) / (t * c)
    ok = (t > 0.0) & (q < 1.0)
    q = np.where(ok, q, 0.5)
    u = -_lambert_wm1(-q * np.exp(-q)) / q
    b = np.where(ok, c / (u - 1.0), math.inf)
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
        self.a_cap = min(cluster.max_offload_samples, float(np.sum(self.alpha_max * self.sizes)))
        # reciprocal of per-client total work; zero for dataless clients so
        # the offload expressions stay finite (their mass is zero anyway)
        work = self.cycles_per_sample * self.sizes
        self.inv_work = np.divide(1.0, work, out=np.zeros_like(work), where=work > 0)
        self.e_full = self.e_locals(np.zeros(len(self.sizes)))  # compute energy at alpha = 0
        self.tau_budget = self.tau_agg(self.budget_hz)  # upload times on the whole budget
        # offload total -> battery-optimal frequency, or the InfeasibleError it
        # raised: the offload block's two bisections revisit most totals
        self.freq_at = {}

    def invert_tau_agg(self, targets, b_hi: float) -> np.ndarray:
        """Per client, the smallest slice with tau_agg <= target, capped at
        b_hi; inf where even b_hi misses the target."""
        targets = np.asarray(targets, dtype=float)
        b = upload_bandwidth(self.footprint.state_bits, self.snr_num, targets)
        tau_hi = self.tau_budget if b_hi == self.budget_hz else self.tau_agg(b_hi)
        return np.where(tau_hi > targets, math.inf, np.minimum(b, b_hi))

    def alpha_floor(self, e_aggs) -> np.ndarray:
        """Least offload per client that fits its energy budget after uploads
        costing e_aggs. Local compute is the only knob once the slice is
        fixed, so the budget turns into a lower bound on offload."""
        head = self.budgets - e_aggs
        lo = np.zeros(len(self.sizes))
        pos = self.e_full > 0
        lo[pos] = 1.0 - head[pos] / self.e_full[pos]
        lo[~pos & (head < 0)] = math.inf  # upload alone busts the budget
        if np.any(lo > self.alpha_max + 1e-9):
            k = int(np.argmax(lo - self.alpha_max))
            raise InfeasibleError(
                f"client {self.ids[k]}: energy budget cannot be met even at "
                "full offload with its current bandwidth slice",
                slack=float(self.alpha_max[k] - lo[k]),
            )
        return np.clip(lo, 0.0, self.alpha_max)


def _contexts(scenario) -> list:
    """One working context per cluster, in scenario order. A caller that runs
    several blocks on one scenario builds them once and passes them to each
    block as `ctxs`; a block called without them builds its own."""
    return [_Ctx(scenario, cluster) for cluster in scenario.clusters]


# ---------------------------------------------------------------------------
# satellite frequency block (battery-limited maximum)


def _best_freq(ctx: _Ctx, a: float) -> float:
    """Battery-feasible frequency maximizing satellite progress for offload a,
    for a relay chain of at most MAX_HANDOFFS handoffs."""
    if a not in ctx.freq_at:
        try:
            f = _battery_freq(ctx, a)
            n = ctx.n_handoffs(a, f)
            if n > MAX_HANDOFFS:
                raise InfeasibleError(
                    f"cluster {ctx.cluster.id}: offloading {a:.6g} samples needs "
                    f"{n} satellite handoffs, more than {MAX_HANDOFFS}",
                    slack=float(MAX_HANDOFFS - n),
                )
            ctx.freq_at[a] = f
        except InfeasibleError as err:
            ctx.freq_at[a] = err
    f = ctx.freq_at[a]
    if isinstance(f, InfeasibleError):
        raise f.with_traceback(None)  # a kept traceback would grow on each raise
    return f


def _battery_freq(ctx: _Ctx, a: float) -> float:
    c = ctx.cluster
    tau_tr = ctx.tau_trans(a)
    if tau_tr >= ctx.T:
        raise InfeasibleError(
            f"cluster {c.id}: relay time {tau_tr:.3f} s exceeds the "
            f"coverage window {ctx.T:.3f} s", slack=ctx.T - tau_tr,
        )
    cyc = c.sat_cycles_per_sample * a
    if cyc <= 0:
        slack = ctx.battery_margin(a, ctx.f_max)
        if slack < 0:
            raise InfeasibleError(
                f"cluster {c.id}: battery cannot cover the relay alone",
                slack=slack,
            )
        return ctx.f_max

    def margin(f):
        return ctx.battery_margin(a, f)

    thresh = cyc / (ctx.T - tau_tr)
    e_tr = cost.isl_transfer_energy(tau_tr, c.sat_tx_power_w)
    if ctx.f_max >= thresh:
        # single-window completion: the one satellite computes cyc at f and
        # charges over its actual dwell
        if margin(ctx.f_max) >= 0.0:
            return ctx.f_max
        lo_slack = margin(thresh)
        if lo_slack < 0.0:
            raise InfeasibleError(
                f"cluster {c.id}: battery short by {-lo_slack:.6g} J even "
                "at the slowest single-window frequency", slack=lo_slack,
            )
        f = max(thresh, min(ctx.f_max, ctx.f_max * _single_window_root(
            c.sat_initial_energy_j - e_tr + ctx.p_charge * tau_tr - c.sat_min_residual_j,
            c.energy_coeff * cyc * ctx.f_max ** 2, ctx.p_charge * cyc / ctx.f_max)))
        # the root is exact to rounding; lower it a few ulps where needed so
        # the chain's own margin holds (it holds at thresh)
        rel = math.ulp(1.0)
        while margin(f) < 0.0:
            f = max(thresh, f * (1.0 - rel))
            rel *= 2.0
        return f

    # multi-window regime: full-dwell energy model, closed form
    num = c.sat_initial_energy_j - e_tr + ctx.T * ctx.p_charge - c.sat_min_residual_j
    if num <= 0.0:
        raise InfeasibleError(
            f"cluster {c.id}: battery cannot sustain any frequency "
            "across full coverage windows", slack=num,
        )
    f = battery_freq_closed_form(c.sat_initial_energy_j, e_tr, ctx.T, tau_tr, ctx.p_charge,
                                 c.sat_min_residual_j, c.energy_coeff, ctx.f_max)
    worst = margin(f)
    if worst < -1e-9 * max(1.0, c.sat_min_residual_j):
        # charging over a shortened final dwell can undercut the full-window
        # model; refuse rather than return an infeasible frequency
        raise InfeasibleError(
            f"cluster {c.id}: final-satellite residual short by "
            f"{-worst:.6g} J under shortened-dwell charging", slack=worst,
        )
    return f


def _single_window_root(head: float, e_max: float, charge: float) -> float:
    """Root s = f / f_max of the single-window battery margin head - e_max s^2
    + charge / s, which falls in s: head = E0 - e_tr + p tau_tr - psi, e_max
    = kappa cyc f_max^2 the compute energy at f_max, charge = p cyc / f_max
    what the charger gains over the compute time at f_max.

    Without sun s = sqrt(head / e_max). With it, times s the margin is the
    cubic s^3 - (head / e_max) s - charge / e_max = 0, which has one positive
    root: Cardano's formula when it is the only real root, and the largest
    of the trigonometric form's three otherwise (Nickalls, "A new approach
    to solving the cubic", Math. Gazette 77, 1993). Scaling by f_max keeps
    every term near 1."""
    if charge == 0.0:
        return math.sqrt(head / e_max)
    p3 = head / (3.0 * e_max)
    q2 = charge / (2.0 * e_max)
    disc = q2 * q2 - p3 ** 3
    if disc >= 0.0:
        u = (q2 + math.sqrt(disc)) ** (1.0 / 3.0)
        # u + p3 / u, written without the cancellation of a negative p3
        return 2.0 * q2 / (u * u - p3 + (p3 / u) ** 2)
    return 2.0 * math.sqrt(p3) * math.cos(math.acos(min(1.0, q2 / p3 ** 1.5)) / 3.0)


def battery_freq_closed_form(e_orig, e_trans, coverage_s, tau_trans_s,
                           p_charge, psi, kappa, f_max) -> float:
    """Multi-window battery-optimal frequency, closed form with clipping."""
    num = max(e_orig - e_trans + coverage_s * p_charge - psi, 0.0)
    return min(f_max, (num / (kappa * (coverage_s - tau_trans_s))) ** (1.0 / 3.0))


def solve_freq(scenario, alpha, ctxs=None) -> dict:
    """Per-cluster battery-feasible frequency for a fixed offload vector."""
    out = {}
    for ctx in ctxs or _contexts(scenario):
        a = float(sum(alpha[p.id] * p.size for p in ctx.profiles))
        out[ctx.cluster.id] = _best_freq(ctx, a)
    return out


# ---------------------------------------------------------------------------
# offload block


def _equalize_local(ctx: _Ctx, a: float, lo: np.ndarray) -> np.ndarray:
    """Distribute offload mass a, at least lo per client, to minimize the
    worst client compute time.

    At water level nu client k keeps clip(1 - nu / full_k, lo_k, alpha_max_k),
    full_k its compute time at alpha = 0, so need(nu) = sum_k s_k alpha_k(nu)
    is piecewise linear and nonincreasing, with breakpoints full_k (1 -
    alpha_max_k) and full_k (1 - lo_k). need is evaluated at every
    breakpoint, and the level with need(nu) = a is solved on the linear
    piece that holds a (water-filling: Boyd & Vandenberghe, Convex
    Optimization, 2004, section 5.5.3). Dataless clients have no breakpoint
    and keep alpha_max; their mass is zero."""
    rate = ctx.cpu_freq_hz * ctx.inv_work  # 1 / full_k
    pos = rate > 0
    knots = np.concatenate(([0.0], (1.0 - ctx.alpha_max[pos]) / rate[pos],
                            (1.0 - lo[pos]) / rate[pos]))
    knots.sort()
    need = np.clip(1.0 - knots[:, None] * rate, lo, ctx.alpha_max) @ ctx.sizes
    j = int(np.argmax(need <= a))
    if need[j] > a:  # a sits below need at the last knot by rounding only
        nu = knots[-1]
    elif j == 0:
        nu = 0.0
    else:
        nu = knots[j - 1] + (knots[j] - knots[j - 1]) * (need[j - 1] - a) / (need[j - 1] - need[j])
    alpha = np.clip(1.0 - nu * rate, lo, ctx.alpha_max)
    # 1 - nu * rate drops the low bits of a small share, up to eps * sum(s)
    # of mass in all; the clients on the water line take the residual back
    wet = (alpha > lo) & (alpha < ctx.alpha_max)
    if wet.any():
        alpha[wet] += (a - float(alpha @ ctx.sizes)) / float(np.sum(ctx.sizes[wet]))
        np.clip(alpha, lo, ctx.alpha_max, out=alpha)
    return alpha


def _alpha_within(ctx: _Ctx, a: float, e_aggs: np.ndarray) -> np.ndarray:
    """Split total offload a across the cluster to minimize the worst client
    compute time, above the per-client energy floors."""
    lo = ctx.alpha_floor(e_aggs)
    a_floor = float(np.sum(lo * ctx.sizes))
    if a < a_floor - 1e-9 * max(1.0, a_floor):
        raise InfeasibleError(
            f"cluster {ctx.cluster.id}: client energy budgets need at least "
            f"{a_floor:.6g} offloaded samples at this split, got {a:.6g}"
        )
    a = max(a, a_floor)
    if a <= 0.0:
        return np.zeros(len(ctx.sizes))
    if a > ctx.a_cap * (1.0 + 1e-9) + 1e-9:
        raise InfeasibleError(
            f"cluster {ctx.cluster.id}: offload {a} exceeds capacity {ctx.a_cap}"
        )
    return _equalize_local(ctx, min(a, ctx.a_cap), lo)


def solve_alpha_within_cluster(scenario, cluster_id: int, a: float,
                               bandwidth: dict) -> dict:
    """Public per-cluster inner solver; returns client id -> alpha."""
    ctx = _Ctx(scenario, scenario.cluster(cluster_id))
    alpha = _alpha_within(ctx, a, ctx.uplink(ctx.per_client(bandwidth))[1])
    return dict(zip(ctx.ids, alpha.tolist()))


def _cluster_alpha(ctx: _Ctx, b: np.ndarray) -> np.ndarray:
    """Choose the cluster's total offload A by balancing the two paths, with
    the satellite at its battery-optimal frequency for each trial A, for
    the clients' bandwidth slices b."""
    tau_aggs, e_aggs = ctx.uplink(b)
    lo_vec = ctx.alpha_floor(e_aggs)
    a_lo = float(np.sum(lo_vec * ctx.sizes))
    if a_lo > ctx.a_cap * (1.0 + 1e-9):
        raise InfeasibleError(
            f"cluster {ctx.cluster.id}: client energy budgets need "
            f"{a_lo:.6g} offloaded samples, above the cap {ctx.a_cap:.6g}"
        )
    a_lo = min(a_lo, ctx.a_cap)

    def m_star(a):
        return float(np.max(ctx.tau_locals(
            _equalize_local(ctx, max(a, a_lo), lo_vec))))

    def gap(a):
        # positive while the worst client still outlasts the chain build-up
        try:
            f = _best_freq(ctx, a)
        except InfeasibleError:
            return -math.inf
        return m_star(a) - ctx.T * ctx.n_handoffs(a, f)

    r = bisect(gap, a_lo, ctx.a_cap)
    a_up = r.hi if gap(r.hi) <= 0 or r.status == "boundary_hi" else r.x
    if r.status == "boundary_lo":
        a_up = a_lo
    if r.status == "boundary_hi":
        a_up = ctx.a_cap

    # balance client path against satellite path on [a_lo, a_up]
    lo, hi = a_lo, a_up
    tol = BISECT_EPS * max(1.0, a_up)
    it = 0

    def paths(a):
        try:
            f = _best_freq(ctx, a)
        except InfeasibleError:
            return math.inf, math.inf, None
        alpha = _alpha_within(ctx, a, e_aggs)
        _, n, rep, _, _ = ctx.chain(a, f)
        y, _ = cluster_client_path(ctx.tau_locals(alpha), tau_aggs, ctx.T, n)
        return y, rep, f

    while hi - lo > tol and it < BISECT_MAX_ITER:
        mid = 0.5 * (lo + hi)
        y, rep, _ = paths(mid)
        if y >= rep:
            lo = mid
        else:
            hi = mid
        it += 1

    best_a, best_val = None, math.inf
    for a in (lo, 0.5 * (lo + hi), hi):
        y, rep, f = paths(a)
        val = max(y, rep)
        if val < best_val - 1e-15:
            best_a, best_val = a, val
    if best_val == math.inf:
        # no trial offload is battery-feasible; fall back to the floor
        y, rep, f = paths(a_lo)
        if f is None:
            raise InfeasibleError(
                f"cluster {ctx.cluster.id}: no battery-feasible offload level"
            )
        best_a = a_lo
    return _alpha_within(ctx, best_a, e_aggs)


def solve_alpha(scenario, bandwidth: dict, ctxs=None) -> dict:
    """Per-client offload fractions balancing client and satellite paths."""
    out = {}
    for ctx in ctxs or _contexts(scenario):
        out.update(zip(ctx.ids, _cluster_alpha(ctx, ctx.per_client(bandwidth)).tolist()))
    return out


# ---------------------------------------------------------------------------
# bandwidth block


def _bandwidth_cluster(ctx: _Ctx, alpha: np.ndarray, freq: float) -> np.ndarray:
    tl = ctx.tau_locals(alpha)
    n = ctx.n_handoffs(ctx.offloaded(alpha), freq)
    e_loc = ctx.e_locals(alpha)

    targets = (ctx.budgets - e_loc) / ctx.tx_power_w
    b_min = ctx.invert_tau_agg(targets, ctx.budget_hz)
    short = np.flatnonzero(np.isinf(b_min))
    if len(short):
        k = int(short[0])
        if targets[k] <= 0:
            raise InfeasibleError(
                f"client {ctx.ids[k]}: energy budget {ctx.budgets[k]} J is below "
                f"its compute draw {e_loc[k]:.6g} J", slack=float(targets[k]),
            )
        raise InfeasibleError(
            f"client {ctx.ids[k]}: cannot meet the energy budget within the "
            "cluster bandwidth", slack=float(targets[k] - ctx.tau_budget[k]),
        )

    x = np.zeros_like(tl)
    floors = b_min
    m, x2, deadline = cost.regime_geometry(tl, ctx.T)
    if m > ctx.T * n:
        # an unattainable deadline reads inf and fails the budget test
        floors2 = np.maximum(b_min, ctx.invert_tau_agg(deadline - x2, ctx.budget_hz))
        if float(np.sum(floors2)) <= ctx.budget_hz:
            x = x2
            floors = floors2

    if float(np.sum(floors)) > ctx.budget_hz:
        raise InfeasibleError(
            f"cluster {ctx.cluster.id}: bandwidth floors sum to "
            f"{float(np.sum(floors)):.6g} Hz over the budget {ctx.budget_hz:.6g} Hz",
            slack=ctx.budget_hz - float(np.sum(floors)),
        )

    return _equalize_slices(ctx, floors, x)


def _equalize_slices(ctx: _Ctx, floors: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The slices max(floor_k, b_k(nu - x_k)) at the least common completion
    nu whose sum S(nu) fits the budget B; b_k(t) is client k's smallest
    slice uploading within t.

    The slices above their floors sum to A(nu), convex and decreasing, with
    a pole where one slice takes all of B and close to a hyperbola near it,
    so 1 / A is close to linear in nu. Newton steps on 1 / A(nu) - 1 / R,
    R what the floored slices leave of B less half of BAND_AIM A, reach
    B - BAND_AIM A <= S <= B in a few inversions from either side: A, and
    with it the completion, is then within BAND_AIM of the equalized split.
    Each active slice has the analytic slope db/dt = -r^2 / (Q r'), r(b) =
    b log2(1 + c/b) its rate. The bracket costs no inversion: below
    max_k(x_k + tau_k(B)) a slice would exceed B, and at max_k(x_k +
    tau_k(c_k)) for a split c_k >= floor_k of B every slice is at most c_k,
    so the first step starts there with c_k the floors plus equal shares of
    what they leave. A step that leaves the bracket bisects it instead. The
    kept split is the last one that fits the budget: the floors, if no
    other does."""
    budget = ctx.budget_hz
    total = float(np.sum(floors))
    if total >= budget:
        return floors
    lo = float(np.max(x + ctx.tau_budget))
    hi = float(np.max(x + ctx.tau_agg(floors)))  # the floors-only end: S = total
    nu = float(np.max(x + ctx.tau_agg(floors + (budget - total) / len(floors))))
    best = floors
    # a backstop for a bracket that closes before the aim is met; it has to
    # be near machine tight or the split lands visibly short of B
    tol = 1e-13 * max(1.0, hi)
    for _ in range(BISECT_MAX_ITER):
        b = np.maximum(floors, ctx.invert_tau_agg(nu - x, budget))
        s = float(np.sum(b))
        on = b > floors
        b_on, c_on = b[on], ctx.snr_num[on]
        active = float(np.sum(b_on))
        if s > budget:
            lo = nu
        else:
            best = b
            if budget - s <= BAND_AIM * active:
                break
            hi = min(hi, nu)
        if hi - lo <= tol:
            break
        if math.isfinite(s):  # a slice past the bracket's low end reads inf
            room = budget - (s - active) - 0.5 * BAND_AIM * active
            r = cost.slice_rate(c_on, b_on)
            dr = r / b_on - c_on / ((b_on + c_on) * math.log(2.0))
            slope = -float(np.sum(r * r / dr)) / ctx.footprint.state_bits
            if slope < 0.0 and room > 0.0:
                nu += active * (1.0 - active / room) / slope
        if not lo < nu < hi:
            nu = 0.5 * (lo + hi)
    return best


def solve_bandwidth(scenario, alpha: dict, sat_freq: dict, ctxs=None) -> dict:
    """Per-client bandwidth slices equalizing completion under the budget."""
    out = {}
    for ctx in ctxs or _contexts(scenario):
        b = _bandwidth_cluster(ctx, ctx.per_client(alpha), sat_freq[ctx.cluster.id])
        out.update(zip(ctx.ids, b.tolist()))
    return out


# ---------------------------------------------------------------------------
# feasibility audit


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    scope: str
    ok: bool
    slack: float
    informational: bool = False

    def as_dict(self) -> dict:
        return {
            "name": self.name, "scope": self.scope, "ok": self.ok,
            "slack": self.slack, "informational": self.informational,
        }


@dataclass(frozen=True)
class FeasibilityReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok or c.informational for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.ok and not c.informational]

    def as_dict(self) -> dict:
        return {"ok": self.ok, "checks": [c.as_dict() for c in self.checks]}


def _rel_ok(slack: float, scale: float) -> bool:
    return slack >= -1e-9 * max(1.0, abs(scale))


def check_feasibility(scenario, decision, bound_value=None, bound_cap=None) -> FeasibilityReport:
    """Evaluate every operating constraint with numeric slack."""
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

    if bound_value is not None and bound_cap is not None:
        checks.append(ConstraintCheck(
            "convergence_bound", "global", bound_value <= bound_cap,
            bound_cap - bound_value, informational=True))

    return FeasibilityReport(checks=tuple(checks))


# ---------------------------------------------------------------------------
# block-coordinate descent


@dataclass(frozen=True)
class OptimizeResult:
    decision: DecisionVector
    trace: tuple  # (stage, iteration, tau_round_s)
    report: FeasibilityReport
    iterations: int

    def trace_values(self):
        return [t[2] for t in self.trace]

    def as_dict(self) -> dict:
        return {
            "decision": self.decision.as_dict(),
            "trace": [list(t) for t in self.trace],
            "feasible": self.report.ok,
            "iterations": self.iterations,
        }


def default_init(scenario, ctxs=None) -> DecisionVector:
    """Half-max offload (projected into the cluster cap), battery-max
    frequency at that offload, equal bandwidth split."""
    ctxs = ctxs or _contexts(scenario)
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
        try:
            base = np.maximum(base, ctx.alpha_floor(ctx.uplink(share)[1]))
        except InfeasibleError:
            pass  # equal split can't cover some budget; later blocks resolve it
        for k, pid in enumerate(ctx.ids):
            alpha[pid] = float(base[k])
    freq = solve_freq(scenario, alpha, ctxs)
    bandwidth = {}
    for ctx in ctxs:
        share = ctx.cluster.bandwidth_hz / len(ctx.ids)
        for pid in ctx.ids:
            bandwidth[pid] = share
    return DecisionVector(alpha=alpha, sat_freq_hz=freq, bandwidth_hz=bandwidth)


def _tau(scenario, decision) -> float:
    return cost.round_latency(scenario, decision).tau_round_s

def _client_energy_ok(ctxs, alpha, bandwidth) -> bool:
    for ctx in ctxs:
        e = ctx.e_locals(ctx.per_client(alpha)) + ctx.uplink(ctx.per_client(bandwidth))[1]
        if np.any(e > ctx.budgets * (1.0 + 1e-12)):
            return False
    return True


def optimize(scenario, iters: int = 10) -> OptimizeResult:
    """Cycle the three blocks, keeping the incumbent when a block candidate
    does not strictly improve the exact round time."""
    ctxs = _contexts(scenario)
    decision = default_init(scenario, ctxs)
    tau = _tau(scenario, decision)
    trace = [("init", 0, tau)]

    for i in range(iters):
        tau_before = tau

        # offload block, with the frequency it balanced the paths at
        alpha_new = solve_alpha(scenario, decision.bandwidth_hz, ctxs)
        candidate = DecisionVector(alpha_new, solve_freq(scenario, alpha_new, ctxs),
                                   decision.bandwidth_hz)
        # a block that returns the incumbent (the descent's last pass often
        # does) keeps its round time
        tau_cand = tau if candidate == decision else _tau(scenario, candidate)
        if tau_cand <= tau:
            decision, tau = candidate, tau_cand
        trace.append(("alpha", i, tau))

        # frequency block: the kept frequency is already
        # solve_freq(scenario, decision.alpha), since default_init and the
        # offload block set it and the bandwidth block leaves it, so the block
        # has nothing to change and only its trace row remains
        trace.append(("freq", i, tau))

        # bandwidth block
        b_new = solve_bandwidth(scenario, decision.alpha, decision.sat_freq_hz, ctxs)
        candidate = DecisionVector(decision.alpha, decision.sat_freq_hz, b_new)
        tau_cand = tau if candidate == decision else _tau(scenario, candidate)
        incumbent_ok = _client_energy_ok(ctxs, decision.alpha, decision.bandwidth_hz)
        if tau_cand <= tau or not incumbent_ok:
            decision, tau = candidate, tau_cand
        trace.append(("bandwidth", i, tau))

        if tau_before - tau <= DESCENT_RTOL * max(1.0, tau_before):
            break

    report = check_feasibility(scenario, decision)
    return OptimizeResult(
        decision=decision, trace=tuple(trace), report=report,
        iterations=trace[-1][1] + 1 if iters else 0,
    )


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


class _Lattice:
    """Every offload profile of a single-window cluster on a per-client alpha
    lattice, with what its round time needs: the satellite path at the
    battery-optimal frequency, the per-client bandwidth floors from the
    energy budgets, the local-compute offsets, and a lower bound on the
    round time that costs no bisection."""

    def __init__(self, scenario, alpha_step: float):
        if len(scenario.clusters) != 1:
            raise ValueError("grid comparator works on single-cluster scenarios")
        self.scenario = scenario
        self.cluster = cluster = scenario.clusters[0]
        self.ctx = ctx = _Ctx(scenario, cluster)
        k_count = len(ctx.sizes)
        if k_count > 3:
            raise ValueError("grid comparator is for at most 3 clients")

        axes = [np.arange(0.0, ctx.alpha_max[k] + alpha_step / 2, alpha_step)
                for k in range(k_count)]
        mesh = np.meshgrid(*[np.arange(len(ax)) for ax in axes], indexing="ij")
        pos = np.stack([m.ravel() for m in mesh], axis=1)  # (P, K) axis positions
        alphas = np.stack([axes[k][pos[:, k]] for k in range(k_count)], axis=1)
        a_vec = alphas @ ctx.sizes
        keep = a_vec <= ctx.a_cap * (1.0 + 1e-12)
        # column-major, like every (P, K) array derived from it: numpy
        # reduces over the 2-3 clients of a row about 40x faster so
        self.alphas = np.asfortranarray(alphas[keep])
        pos = pos[keep]
        a_vec = a_vec[keep]

        # --- satellite-path inner minimum per distinct offload total -----
        size_gcd = math.gcd(*[int(round(s)) for s in ctx.sizes]) if k_count > 1 else int(round(ctx.sizes[0]))
        quant = alpha_step * size_gcd
        a_idx = np.rint(a_vec / quant).astype(np.int64)
        uniq_idx, inverse = np.unique(a_idx, return_inverse=True)
        uniq_a = uniq_idx * quant

        best_rep = np.empty(len(uniq_a))
        best_f = np.empty(len(uniq_a))
        for i, a in enumerate(uniq_a.tolist()):
            f = _battery_freq(ctx, a)  # each total once, so no memo
            _, n, best_rep[i], _, _ = ctx.chain(a, f)
            if n != 0:
                raise ValueError("grid comparator expects single-window instances")
            best_f[i] = f
        self.rep = best_rep[inverse]
        self.freq = best_f[inverse]

        # --- client side: exact energy floors on the slices, per axis value;
        # column k holds client k's axis, padded with its first value (0)
        axis_alpha = np.zeros((max(len(ax) for ax in axes), k_count))
        for k, ax in enumerate(axes):
            axis_alpha[:len(ax), k] = ax
        targets = (ctx.budgets - ctx.e_locals(axis_alpha)) / ctx.tx_power_w
        if np.any(targets <= 0):
            raise InfeasibleError("grid instance has an unmeetable client energy budget")
        b_axis = upload_bandwidth(ctx.footprint.state_bits, ctx.snr_num, targets)
        b_min = np.empty_like(self.alphas)
        for k in range(k_count):
            b_min[:, k] = b_axis[pos[:, k], k]
        total_min = b_min.sum(axis=1)
        if np.any(np.isinf(b_min)) or np.any(total_min > ctx.budget_hz):
            raise InfeasibleError("grid instance has an unmeetable client energy budget")
        self.b_min = b_min

        tl = ctx.tau_locals(self.alphas)  # (P, K)
        m, self.x, self.deadline = cost.regime_geometry(tl, ctx.T)
        self.case1 = m <= 0.0

        # client k gets at most the budget the other floors leave, so its
        # upload ends no sooner than reach_k; that bounds the equalized
        # completion and with it every regime: the first has zero offsets,
        # and the third (deadline plus equalized upload) lies past the
        # second because the deadline is past every offset
        reach = self.x + ctx.tau_agg(ctx.budget_hz - (total_min[:, None] - b_min))
        self.lower = (cluster.sync_delay_s + np.maximum(self.rep, reach.max(axis=1))
                      + cluster.glob_delay_s)

    def totals(self, sel: np.ndarray) -> np.ndarray:
        """Round time of the profiles at indices sel, with the client path
        from the two equalization bisections."""
        ctx = self.ctx
        b_min = self.b_min[sel]
        x = self.x[sel]
        tau_floor = ctx.tau_agg(b_min)

        def least_target(lo, hi, offset):
            # least common completion time the bandwidth budget can buy
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                need = np.maximum(
                    upload_bandwidth(ctx.footprint.state_bits, ctx.snr_num, mid[:, None] - offset),
                    b_min)
                feas = need.sum(axis=1) <= ctx.budget_hz
                hi = np.where(feas, mid, hi)
                lo = np.where(feas, lo, mid)
            return hi

        # equalized completion of the straggler path
        val2 = least_target(x.max(axis=1), (x + tau_floor).max(axis=1), x)
        # when that misses the serving window, uploads wait for the next
        # satellite and the upload times alone are re-equalized
        # the slowest infinite-bandwidth upload: rate tends to snr_num / ln 2
        floor = float(np.max(ctx.footprint.state_bits * math.log(2.0) / ctx.snr_num))
        hi3 = least_target(np.full(len(sel), floor), tau_floor.max(axis=1), 0.0)
        deadline = self.deadline[sel]
        y = np.where(self.case1[sel], hi3, np.where(val2 <= deadline, val2, deadline + hi3))
        return (self.cluster.sync_delay_s + np.maximum(y, self.rep[sel])
                + self.cluster.glob_delay_s)

    def best(self, sel: np.ndarray, totals: np.ndarray):
        """Re-score the profiles of sel whose total is within GRID_RTOL of the
        least: each gets the bandwidth block's own split and the cost model's
        round time, and the fastest real decision wins."""
        t_min = float(np.min(totals))
        near = np.flatnonzero(totals <= t_min * (1.0 + GRID_RTOL))
        near = near[np.argsort(totals[near], kind="stable")[:GRID_RESCORE_MAX]]
        best_exact, best_decision = math.inf, None
        for i in near:
            idx = sel[i]
            alpha_pt = {pid: float(self.alphas[idx, k]) for k, pid in enumerate(self.ctx.ids)}
            freq_map = {self.cluster.id: float(self.freq[idx])}
            b_map = solve_bandwidth(self.scenario, alpha_pt, freq_map, [self.ctx])
            decision = DecisionVector(alpha=alpha_pt, sat_freq_hz=freq_map, bandwidth_hz=b_map)
            tau = _tau(self.scenario, decision)
            if tau < best_exact:
                best_exact, best_decision = tau, decision
        if best_exact > t_min * (1.0 + GRID_RTOL):
            raise AssertionError(
                f"grid comparator internal mismatch: exact {best_exact} vs grid {t_min}"
            )
        return best_exact, best_decision


def grid_search_cluster(scenario, alpha_step: float = 1e-3):
    """Exhaustive offload-profile search for a single-cluster scenario.

    The offload profile is enumerated on a per-client alpha lattice. For each
    profile the two inner minimizations are independent: the satellite path
    wants the largest battery-feasible frequency, and the client path wants
    the bandwidth split that equalizes per-client completion, found by
    bisection on the completion time with the uplink inverted in closed form.
    A bisection-free lower bound prunes the lattice first: the profile with
    the least bound gives an upper bound on the optimum, and only profiles
    whose bound comes within GRID_RTOL of it are evaluated. Returns
    (tau_round_s, DecisionVector). Intended for <= 3 clients.
    """
    lattice = _Lattice(scenario, alpha_step)
    ub = float(lattice.totals(np.array([np.argmin(lattice.lower)]))[0])
    sel = np.flatnonzero(lattice.lower <= ub * (1.0 + GRID_RTOL))
    return lattice.best(sel, lattice.totals(sel))
