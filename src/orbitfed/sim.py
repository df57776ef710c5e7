"""Event-driven round execution over satellite coverage windows.

Each round the cluster head uploads the model state and the offloaded batch
to the satellite overhead; the relay chain hands work to successive passes
while clients train locally, and uploads are gated by whichever satellite
holds the final state. The round model is `cost`'s: each cluster's
`cost.ClusterRun`, built once per run, prices the decision, serves the
round's coverage windows (the fixed period, or the unused passes of an
explicit schedule), walks them with `cost.walk_chain` and
`cost.client_path`, and keeps the satellite battery level and each window's
ledger. This module turns each replayed round into events and a
`ClusterRoundLog`, and trains. On a fixed period the replay is the analytic
cost model's timing.

Cost accounting uses the declared offload fractions (real-valued sample
mass); the learning side trains on the actual integer sample sets chosen by
the offload step. Satellite batteries are fresh each window by default,
since every pass is a different vehicle; persistent mode rolls one battery
per cluster across windows and rounds as a worst-case reuse model.
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
    energy: tuple  # cost.SatWindowEnergy per engaged window


@dataclass(frozen=True)
class RoundRecord:
    index: int
    tau_round_s: float
    clock_s: float  # cumulative clock at round end
    accuracy: float
    loss: float
    clusters: dict  # cluster id -> ClusterRoundLog


@dataclass
class SimState:
    scenario: object
    decision: object
    config: TrainConfig
    layout: object
    model: object
    clock_s: float
    round_index: int
    runs: dict  # cluster id -> cost.ClusterRun


def init_state(scenario, decision, config: TrainConfig = None, layout=None,
               persistent_battery: bool = False) -> SimState:
    config = config if config is not None else TrainConfig()
    model = init_model(layout, seed=config.seed) if layout is not None else None
    if layout is not None and layout.param_count != scenario.footprint.param_count:
        raise SimError(
            f"model layout has {layout.param_count} parameters but the scenario "
            f"footprint declares {scenario.footprint.param_count}"
        )
    try:
        runs = {c.id: cost.ClusterRun(scenario, c, decision, persistent_battery)
                for c in scenario.clusters}
    except ValueError as err:
        raise SimError(str(err)) from None
    return SimState(scenario=scenario, decision=decision, config=config, layout=layout,
                    model=model, clock_s=0.0, round_index=0, runs=runs)


def _cluster_path(run, path_start, events):
    """Replay one cluster's round on its `cost.ClusterRun`: append its events
    and return the log plus the absolute completion times of both paths."""
    cid = run.cluster.id
    try:
        rows, finish, y_abs, y_case, starts, energy = run.replay(path_start)
    except ValueError as err:
        raise SimError(str(err)) from None
    n = len(rows) - 1
    done_cycles = 0.0
    for i, s, e, take, _, cap in rows:
        events.append({
            "t_s": s, "cluster": cid, "kind": "relay",
            "window": i, "duration_s": run.tau_tr, "relay_only": cap <= 0.0,
        })
        if take > 0.0:
            events.append({
                "t_s": s + run.tau_tr, "cluster": cid, "kind": "sat_compute",
                "window": i, "duration_s": take / run.f, "cycles": take,
            })
        if i < n:
            events.append({
                "t_s": e, "cluster": cid, "kind": "handoff",
                "from_sat": i, "to_sat": i + 1,
            })
        done_cycles += take
    for pid, tl in zip(run.members, run.tau_locals):
        events.append({
            "t_s": path_start, "cluster": cid, "kind": "client_compute",
            "client": pid, "duration_s": tl,
        })
    for pid, st, ta in zip(run.members, starts, run.tau_aggs):
        events.append({
            "t_s": st, "cluster": cid, "kind": "upload",
            "client": pid, "duration_s": ta,
        })
    log = ClusterRoundLog(
        cluster_id=cid,
        offloaded_samples=run.offloaded,
        tau_trans_s=run.tau_tr,
        n_windows=len(rows),
        n_handoffs=n,
        rep_finish_s=finish - path_start,
        y_s=y_abs - path_start,
        y_case=y_case,
        sat_cycles=done_cycles,
        target_cycles=run.target_cycles,
        energy=energy,
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
        log, y_abs, rep_abs = _cluster_path(state.runs[cluster.id], path_start, events)
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
