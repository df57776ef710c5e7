"""Event-driven round execution over satellite coverage windows.

Each round the cluster head uploads the model state and the offloaded batch
to the satellite overhead; the relay chain hands work to successive passes
while clients train locally, and uploads are gated by whichever satellite
holds the final state. The window rules are `cost`'s: the replay walks each
round's coverage windows with `cost.walk_chain` and times the uploads with
`cost.client_path`, on the fixed period or on the passes of an explicit
schedule, and keeps only the events and the battery ledger. On a fixed
period this is the analytic cost model's timing.

Cost accounting uses the declared offload fractions (real-valued sample
mass); the learning side trains on the actual integer sample sets chosen by
the offload step. Satellite batteries are fresh each round by default, since
every pass is a different vehicle; persistent mode rolls one battery per
cluster across windows and rounds as a worst-case reuse model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


class SimError(RuntimeError):
    pass


@dataclass(frozen=True)
class SatWindowEnergy:
    window: int
    dwell_s: float
    consumed_j: float
    charged_j: float
    residual_j: float
    lowest_j: float  # the lowest level over the dwell
    battery_ok: bool  # whether that lowest level stays at the floor psi


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
        self.cluster_id = cluster.id
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
                        f"cluster {self.cluster_id}: coverage schedule exhausted after "
                        f"{len(self.intervals)} intervals; provide more passes or fewer rounds"
                    )
                base = self.intervals[self._round_pos][1]
                _, s, e = self.intervals[j]
                self._windows.append(
                    (self._path_start + (s - base), self._path_start + (e - base))
                )
        return self._windows[i]

    def serving(self, t: float) -> int:
        """The index of the window open at t: the first that ends after it."""
        j = 0
        while self.window(j)[1] <= t:
            j += 1
        return j

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


def _cluster_constants(scenario, cluster, decision) -> _ClusterConstants:
    model = cost.ClusterModel(scenario, cluster)
    alphas = model.per_client(decision.alpha)
    a = model.offloaded(alphas)
    tau_tr = model.tau_trans(a)
    f = float(decision.sat_freq_hz[cluster.id])
    if cluster.schedule is None:
        # every fixed window is alike, so one that fits no relay, or computes
        # nothing of a nonzero offload, is handed off forever; and the closed
        # form refuses, as the solver does, a chain too long to walk two
        # events a window
        if cluster.coverage_s <= tau_tr or (a > 0.0 and f <= 0.0):
            raise SimError(
                f"cluster {cluster.id}: a fixed coverage window of {cluster.coverage_s:.6g} s "
                f"fits no relay of {tau_tr:.6g} s or computes none of the offloaded cycles at "
                f"{f:.6g} Hz, so the relay chain never ends")
        try:
            model.chain(a, f)
        except ValueError as err:
            raise SimError(f"{err}: the replay would walk its satellite handoffs window by "
                           f"window, and allows no more than {cost.MAX_HANDOFFS}") from None
    tau_locals = tuple(model.tau_locals(alphas).tolist())
    tau_aggs = tuple(model.tau_agg(model.per_client(decision.bandwidth_hz)).tolist())
    return _ClusterConstants(
        members=tuple(model.ids), offloaded=a, freq_hz=f, tau_trans_s=tau_tr,
        relay_energy_j=cost.isl_transfer_energy(tau_tr, cluster.sat_tx_power_w),
        target_cycles=cluster.sat_cycles_per_sample * a,
        p_charge_w=model.p_charge, tau_locals=tau_locals, tau_aggs=tau_aggs,
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
    """Replay one cluster's round on `cost.walk_chain` and `cost.client_path`
    over its feed: append its events and return the log plus the absolute
    completion times of both paths."""
    consts = state.constants[cluster.id]
    f = consts.freq_hz
    tau_tr = consts.tau_trans_s
    e_tr = consts.relay_energy_j
    psi = cluster.sat_min_residual_j

    feed.start_round(path_start)
    rows, finish = cost.walk_chain(feed, consts.target_cycles, f, tau_tr)
    n = len(rows) - 1
    done_cycles = 0.0
    ledger = []
    for i, s, e, take, dwell, cap in rows:
        events.append({
            "t_s": s, "cluster": cluster.id, "kind": "relay",
            "window": i, "duration_s": tau_tr, "relay_only": cap <= 0.0,
        })
        if take > 0.0:
            events.append({
                "t_s": s + tau_tr, "cluster": cluster.id, "kind": "sat_compute",
                "window": i, "duration_s": take / f, "cycles": take,
            })
        if i < n:
            events.append({
                "t_s": e, "cluster": cluster.id, "kind": "handoff",
                "from_sat": i, "to_sat": i + 1,
            })
        done_cycles += take
        # the battery is lowest at the window's start, the relay's end or the
        # window's end (a relay that outlasts its window ends past it, above
        # the window's end)
        level = (state.battery[cluster.id] if state.persistent_battery
                 else cluster.sat_initial_energy_j)
        consumed = cluster.energy_coeff * take * f ** 2 + e_tr
        charged = dwell * consts.p_charge_w
        residual = level - consumed + charged
        if state.persistent_battery:
            residual = min(residual, cluster.sat_initial_energy_j)
            state.battery[cluster.id] = residual
        lowest = min(cost.relay_low(level, e_tr, tau_tr, consts.p_charge_w), residual)
        ledger.append(SatWindowEnergy(
            window=i, dwell_s=dwell, consumed_j=consumed, charged_j=charged,
            residual_j=residual, lowest_j=lowest,
            battery_ok=lowest >= psi - 1e-9 * max(1.0, psi),
        ))

    for pid, tl in zip(consts.members, consts.tau_locals):
        events.append({
            "t_s": path_start, "cluster": cluster.id, "kind": "client_compute",
            "client": pid, "duration_s": tl,
        })
    y_abs, y_case, starts = cost.client_path(
        feed, n, [path_start + tl for tl in consts.tau_locals], consts.tau_aggs)
    for pid, st, ta in zip(consts.members, starts, consts.tau_aggs):
        events.append({
            "t_s": st, "cluster": cluster.id, "kind": "upload",
            "client": pid, "duration_s": ta,
        })

    feed.end_round()
    log = ClusterRoundLog(
        cluster_id=cluster.id,
        offloaded_samples=consts.offloaded,
        tau_trans_s=tau_tr,
        n_windows=len(rows),
        n_handoffs=n,
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
