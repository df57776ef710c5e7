"""Event-driven round execution over satellite coverage windows.

Each round the cluster head uploads the model state and the offloaded batch
to the satellite overhead; the relay chain hands work to successive passes
while clients train locally, and uploads are gated by whichever satellite
holds the final state. Timing follows the analytic cost model exactly when
coverage windows are a fixed period; explicit schedules generalize it with
the same rules (a satellite that fills its whole window always hands off, a
window shorter than the relay time contributes no compute).

Cost accounting uses the declared offload fractions (real-valued sample
mass); the learning side trains on the actual integer sample sets chosen by
the offload step. Satellite batteries are fresh each round by default, since
every pass is a different vehicle; persistent mode rolls one battery per
cluster across windows and rounds as a worst-case reuse model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cost
from .fl import (
    ModelParams,
    TrainConfig,
    evaluate,
    global_aggregate,
    init_model,
    intra_cluster_aggregate,
    local_update_stack,
)
from .scenario import satellite_pool

_CYC_EPS = 1e-9  # relative tolerance for "window fully used"


class SimError(RuntimeError):
    pass


@dataclass(frozen=True)
class SatWindowEnergy:
    window: int
    dwell_s: float
    consumed_j: float
    charged_j: float
    residual_j: float
    battery_ok: bool


@dataclass(frozen=True)
class ClusterRoundLog:
    cluster_id: int
    offloaded_samples: float
    tau_trans_s: float
    n_windows: int
    n_handoffs: int
    rep_finish_s: float  # relative to the cluster path start
    y_s: float
    y_case: int
    sat_cycles: float
    target_cycles: float
    energy: tuple  # SatWindowEnergy per engaged window


@dataclass(frozen=True)
class RoundRecord:
    index: int
    tau_round_s: float
    clock_s: float  # cumulative clock at round end
    accuracy: float
    loss: float
    clusters: dict  # cluster id -> ClusterRoundLog


class _Feed:
    """Hands out per-round coverage windows, re-anchored at the path start.

    Explicit schedules are consumed whole intervals at a time, preserving
    the gaps between them; the fixed mode synthesizes back-to-back windows
    of the configured period.
    """

    def __init__(self, cluster):
        self.period = cluster.coverage_s
        self.intervals = cluster.schedule.intervals if cluster.schedule is not None else None
        self.pos = 0
        self._round_pos = 0
        self._windows = []
        self._path_start = 0.0

    def start_round(self, path_start: float):
        self._path_start = path_start
        self._round_pos = self.pos
        self._windows = []

    def window(self, i: int):
        while len(self._windows) <= i:
            j = self._round_pos + len(self._windows)
            if self.intervals is None:
                k = len(self._windows)
                self._windows.append(
                    (self._path_start + k * self.period,
                     self._path_start + (k + 1) * self.period)
                )
            else:
                if j >= len(self.intervals):
                    raise SimError(
                        f"coverage schedule exhausted after {len(self.intervals)} "
                        "intervals; provide more passes or fewer rounds"
                    )
                base = self.intervals[self._round_pos][1]
                _, s, e = self.intervals[j]
                self._windows.append(
                    (self._path_start + (s - base), self._path_start + (e - base))
                )
        return self._windows[i]

    def end_round(self):
        if self.intervals is not None:
            self.pos = self._round_pos + len(self._windows)


@dataclass(frozen=True)
class _ClusterConstants:
    """One cluster's path under the run's fixed decision, priced once per run
    in Python scalars: the satellite side's offload, relay and target
    cycles, and each client's local-compute and upload seconds."""

    members: tuple  # client ids, in cluster order
    offloaded: float
    freq_hz: float
    tau_trans_s: float
    relay_energy_j: float
    target_cycles: float
    p_charge_w: float
    tau_locals: tuple
    tau_aggs: tuple
    local_max: float
    agg_max: float


def _cluster_constants(scenario, cluster, decision) -> _ClusterConstants:
    model = cost.ClusterModel(scenario, cluster)
    alphas = model.per_client(decision.alpha)
    # numpy's pairwise sum, which orders 8 or more terms unlike Python's sum
    a = float(np.sum(alphas * model.sizes))
    tau_tr = cost.isl_transfer_latency(scenario.footprint, a, cluster.isl_rate_bps)
    f = float(decision.sat_freq_hz[cluster.id])
    if cluster.schedule is None and a > 0.0 and f > 0.0 and cluster.coverage_s > tau_tr:
        # fixed windows give the chain in closed form; refuse, as the solver
        # does, a chain too long to walk two events a window
        n = cost.handoff_count(a, cluster.sat_cycles_per_sample, cluster.coverage_s, tau_tr, f)
        if n > cost.MAX_HANDOFFS:
            raise SimError(
                f"cluster {cluster.id}: offloading {a:.6g} samples at {f:.6g} Hz needs "
                f"{float(n):.6g} satellite handoffs on fixed coverage windows, more than "
                f"{cost.MAX_HANDOFFS}")
    tau_locals = tuple(model.tau_locals(alphas).tolist())
    tau_aggs = tuple(model.tau_agg(model.per_client(decision.bandwidth_hz)).tolist())
    return _ClusterConstants(
        members=tuple(model.ids), offloaded=a, freq_hz=f, tau_trans_s=tau_tr,
        relay_energy_j=cost.isl_transfer_energy(tau_tr, cluster.sat_tx_power_w),
        target_cycles=cluster.sat_cycles_per_sample * a,
        p_charge_w=model.p_charge, tau_locals=tau_locals, tau_aggs=tau_aggs,
        local_max=max(tau_locals), agg_max=max(tau_aggs),
    )


@dataclass
class SimState:
    scenario: object
    decision: object
    config: TrainConfig
    layout: object
    model: object
    clock_s: float
    round_index: int
    feeds: dict
    battery: dict
    persistent_battery: bool
    constants: dict  # cluster id -> _ClusterConstants


def init_state(scenario, decision, config: TrainConfig = None, layout=None,
               persistent_battery: bool = False) -> SimState:
    config = config if config is not None else TrainConfig()
    model = init_model(layout, seed=config.seed) if layout is not None else None
    if layout is not None and layout.param_count != scenario.footprint.param_count:
        raise SimError(
            f"model layout has {layout.param_count} parameters but the scenario "
            f"footprint declares {scenario.footprint.param_count}"
        )
    return SimState(
        scenario=scenario, decision=decision, config=config, layout=layout,
        model=model, clock_s=0.0, round_index=0,
        feeds={c.id: _Feed(c) for c in scenario.clusters},
        battery={c.id: c.sat_initial_energy_j for c in scenario.clusters},
        persistent_battery=persistent_battery,
        constants={c.id: _cluster_constants(scenario, c, decision) for c in scenario.clusters},
    )


def _cluster_path(state, cluster, feed, path_start, events):
    """Run one cluster's satellite chain and client uploads; returns the log
    plus the absolute completion times of both paths."""
    consts = state.constants[cluster.id]
    f = consts.freq_hz
    tau_tr = consts.tau_trans_s
    e_tr = consts.relay_energy_j

    feed.start_round(path_start)
    remaining = consts.target_cycles
    done_cycles = 0.0
    energy = []
    i = 0
    finish = None
    while True:
        s, e = feed.window(i)
        d = e - s
        cap_s = max(d - tau_tr, 0.0)
        cap_cycles = cap_s * f
        take = min(remaining, cap_cycles)
        relay_only = cap_cycles <= 0.0
        events.append({
            "t_s": s, "cluster": cluster.id, "kind": "relay",
            "window": i, "duration_s": tau_tr, "relay_only": relay_only,
        })
        if take > 0.0:
            events.append({
                "t_s": s + tau_tr, "cluster": cluster.id, "kind": "sat_compute",
                "window": i, "duration_s": take / f, "cycles": take,
            })
        # a window is used up when it cannot fit the relay, or when cycles
        # remain and it has no room left after them; a relay-only chain
        # ends on the first window that fits its relay
        used_up = cap_s <= 0.0 or (
            remaining > 0.0 and (cap_cycles - take) <= _CYC_EPS * max(1.0, cap_cycles))
        remaining -= take
        done_cycles += take
        if used_up:
            if take <= 0.0 and feed.intervals is None:
                raise SimError(
                    f"cluster {cluster.id}: a fixed coverage window computes none of the "
                    "offloaded cycles, so the relay chain never ends"
                )
            dwell = d
            consumed = cluster.energy_coeff * take * f ** 2 + e_tr
            energy.append((i, dwell, consumed, dwell * consts.p_charge_w))
            events.append({
                "t_s": e, "cluster": cluster.id, "kind": "handoff",
                "from_sat": i, "to_sat": i + 1,
            })
            i += 1
            if i > 10_000_000:
                raise SimError("relay chain failed to terminate")
            continue
        dwell = tau_tr + take / f if f > 0 else tau_tr
        consumed = cluster.energy_coeff * take * f ** 2 + e_tr
        energy.append((i, dwell, consumed, dwell * consts.p_charge_w))
        finish = s + tau_tr + (take / f if f > 0 else 0.0)
        break

    n_windows = i + 1
    gate = feed.window(i)[0]  # arrival of the final chain satellite

    # client path; rounding is monotone, so path_start + the slowest local
    # time is the latest of the clients' ready times
    for pid, tl in zip(consts.members, consts.tau_locals):
        events.append({
            "t_s": path_start, "cluster": cluster.id, "kind": "client_compute",
            "client": pid, "duration_s": tl,
        })
    m_abs = path_start + consts.local_max

    if m_abs <= gate:
        y_case = 1
        starts = (gate,) * len(consts.members)
        y_abs = gate + consts.agg_max
    else:
        j = 0
        while feed.window(j)[1] <= m_abs:
            j += 1
        s_star, e_star = feed.window(j)
        starts = [max(s_star, path_start + tl) for tl in consts.tau_locals]
        v = max([st + ta for st, ta in zip(starts, consts.tau_aggs)])
        if v <= e_star:
            y_case = 2
            y_abs = v
        else:
            y_case = 3
            s_next = feed.window(j + 1)[0]
            starts = (s_next,) * len(consts.members)
            y_abs = s_next + consts.agg_max

    for pid, st, ta in zip(consts.members, starts, consts.tau_aggs):
        events.append({
            "t_s": st, "cluster": cluster.id, "kind": "upload",
            "client": pid, "duration_s": ta,
        })

    # battery ledger
    ledger = []
    for idx, dwell, consumed, charged in energy:
        if state.persistent_battery:
            level = state.battery[cluster.id]
            residual = min(level - consumed + charged, cluster.sat_initial_energy_j)
            state.battery[cluster.id] = residual
        else:
            residual = cluster.sat_initial_energy_j - consumed + charged
        ok = residual >= cluster.sat_min_residual_j - 1e-9 * max(
            1.0, cluster.sat_min_residual_j)
        ledger.append(SatWindowEnergy(
            window=idx, dwell_s=dwell, consumed_j=consumed,
            charged_j=charged, residual_j=residual, battery_ok=ok,
        ))

    feed.end_round()
    log = ClusterRoundLog(
        cluster_id=cluster.id,
        offloaded_samples=consts.offloaded,
        tau_trans_s=tau_tr,
        n_windows=n_windows,
        n_handoffs=n_windows - 1,
        rep_finish_s=finish - path_start,
        y_s=y_abs - path_start,
        y_case=y_case,
        sat_cycles=done_cycles,
        target_cycles=consts.target_cycles,
        energy=tuple(ledger),
    )
    return log, y_abs, finish


def protocol_round(scenario, model, config: TrainConfig, round_index: int, alpha,
                   client_batch=None, sat_batch=None) -> ModelParams:
    """One protocol round of training from the global `model`: every cluster
    satellite that holds offloaded samples and every client take their local
    update, all stepped as one stack; then intra-cluster and global
    aggregation.

    alpha maps client id to its aggregation fraction. A satellite trains
    when its pool is nonempty and its aggregation weight sum(alpha_k |D_k|)
    is positive. client_batch and sat_batch map client and cluster ids to
    batch sizes; None means the config's.
    """
    sets, batches, streams, plan = [], [], [], []
    for cluster in scenario.clusters:
        members = scenario.cluster_clients(cluster.id)
        pool = satellite_pool(scenario, cluster.id)
        # an offload that rounds to 0 samples on every client leaves the pool
        # empty; the cluster then aggregates with the fractions realised, all 0
        alphas = [alpha[p.id] if len(pool) else 0.0 for p in members]
        sizes = [p.size for p in members]
        has_sat = sum(al * s for al, s in zip(alphas, sizes)) > 0
        if has_sat:
            sets.append(pool)
            batches.append(sat_batch[cluster.id] if sat_batch is not None
                           else config.sat_batch_size or config.batch_size)
            streams.append((1, cluster.id))
        for p in members:
            sets.append(p.dataset.retained)
            batches.append(client_batch[p.id] if client_batch is not None
                           else config.batch_size)
            streams.append((2, p.id))
        plan.append((has_sat, len(members), alphas, sizes))
    trained = iter(local_update_stack(model.values, model.layout, sets, config,
                                      round_index, batches, streams))
    cluster_models = []
    for has_sat, n_members, alphas, sizes in plan:
        sat_model = ModelParams(next(trained), model.layout) if has_sat else None
        client_models = [ModelParams(next(trained), model.layout)
                         for _ in range(n_members)]
        cluster_models.append(
            intra_cluster_aggregate(sat_model, client_models, alphas, sizes))
    return global_aggregate(cluster_models)


def _learning_step(state, test_set):
    """One protocol round of actual training on the attached datasets."""
    state.model = protocol_round(state.scenario, state.model, state.config,
                                 state.round_index, state.decision.alpha)
    if test_set is not None and len(test_set) > 0:
        return evaluate(state.model, test_set)
    return math.nan, math.nan


def run_round(state: SimState, test_set=None, events_out=None) -> RoundRecord:
    """Advance the state by one round; returns the round record."""
    scenario = state.scenario
    round_start = state.clock_s
    events = [] if events_out is None else events_out
    logs = {}
    round_end = round_start
    for cluster in scenario.clusters:
        path_start = round_start + cluster.sync_delay_s
        events.append({
            "t_s": round_start, "cluster": cluster.id, "kind": "sync",
            "duration_s": cluster.sync_delay_s,
        })
        log, y_abs, rep_abs = _cluster_path(
            state, cluster, state.feeds[cluster.id], path_start, events)
        logs[cluster.id] = log
        done = max(y_abs, rep_abs)
        events.append({
            "t_s": done, "cluster": cluster.id, "kind": "cluster_agg",
        })
        round_end = max(round_end, done + cluster.glob_delay_s)
    events.append({"t_s": round_end, "cluster": -1, "kind": "global_agg"})

    acc, loss = math.nan, math.nan
    if state.layout is not None:
        acc, loss = _learning_step(state, test_set)

    state.clock_s = round_end
    record = RoundRecord(
        index=state.round_index,
        tau_round_s=round_end - round_start,
        clock_s=round_end,
        accuracy=acc,
        loss=loss,
        clusters=logs,
    )
    state.round_index += 1
    return record


@dataclass(frozen=True)
class SimResult:
    scenario_name: str
    records: tuple
    metrics: tuple  # dict rows: round, clock_s, accuracy, loss, tau_round_s
    timeline: tuple  # event dicts with absolute t_s

    @property
    def final_accuracy(self) -> float:
        return self.metrics[-1]["accuracy"] if self.metrics else math.nan


def run_experiment(scenario, decision, rounds: int, config: TrainConfig = None,
                   layout=None, test_set=None,
                   persistent_battery: bool = False) -> SimResult:
    """Run a full experiment: `rounds` protocol rounds with timing, the
    energy ledger, and (when a model layout is given) actual training."""
    if layout is not None:
        for p in scenario.clients:
            if p.dataset is None:
                raise SimError(
                    f"client {p.id} has no attached dataset; run the data "
                    "preparation and offload steps first"
                )
    state = init_state(scenario, decision, config=config, layout=layout,
                       persistent_battery=persistent_battery)
    records = []
    metrics = []
    timeline = []
    for _ in range(rounds):
        rec = run_round(state, test_set=test_set, events_out=timeline)
        records.append(rec)
        metrics.append({
            "round": rec.index,
            "clock_s": rec.clock_s,
            "accuracy": rec.accuracy,
            "loss": rec.loss,
            "tau_round_s": rec.tau_round_s,
        })
    return SimResult(
        scenario_name=scenario.name,
        records=tuple(records),
        metrics=tuple(metrics),
        timeline=tuple(timeline),
    )
