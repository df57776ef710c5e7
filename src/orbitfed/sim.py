"""Event-driven round execution over satellite coverage windows.

Each round the cluster head uploads the model state and the offloaded batch
to the satellite overhead; the relay chain hands work to successive passes
while clients train locally, and uploads are gated by whichever satellite
holds the final state. The round model is `cost`'s: each cluster's
`cost.ClusterRun`, built once per run, prices the decision, serves the
round's coverage windows (the fixed period, or the unused passes of an
explicit schedule), walks them with `cost.walk_chain` and
`cost.client_path`, and keeps each window's battery ledger. This module
turns each replayed round into timeline lines and a `ClusterRoundLog`, and
trains. On a fixed period the replay is the analytic cost model's timing.

Each timeline line is one event as `json.dumps(event, sort_keys=True)`
writes it, with its newline. The text of a line that holds for the whole run
(its keys, and each value up to the first that changes from round to round)
is formatted once per cluster when the state is built; a round formats only
its times, windows and cycles.

Cost accounting uses the declared offload fractions (real-valued sample
mass); the learning side trains on the actual integer sample sets chosen by
the offload step. Every window's satellite starts with a full battery,
since every pass is a different vehicle.
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
    text: dict  # cluster id -> _ClusterText


def _num(v) -> str:
    """`json.dumps(v)` for a bool, int or float: true or false, the int's
    repr, a finite float's repr, and NaN, Infinity or -Infinity."""
    if v is True or v is False:
        return "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if math.isfinite(v):
        return float.__repr__(v)
    return "NaN" if v != v else ("Infinity" if v > 0 else "-Infinity")


_GLOBAL_AGG = '{"cluster": -1, "kind": "global_agg", "t_s": '


@dataclass(frozen=True)
class _ClusterText:
    """One cluster's timeline text that holds for the run: each line kind's
    keys in sorted order and its values up to the first that changes from
    round to round, formatted once."""
    head: str  # '{"cluster": <id>, ', which opens every line of the cluster
    sync: str
    relay: tuple  # relay_only false, true
    computes: tuple  # client_compute, one per member
    uploads: tuple  # upload, one per member
    agg: str

    @classmethod
    def of(cls, run):
        cid = _num(run.cluster.id)
        head = f'{{"cluster": {cid}, '
        relay = f'{head}"duration_s": {_num(run.tau_tr)}, "kind": "relay", "relay_only": '

        def per_client(kind, durations):
            return tuple(f'{{"client": {_num(pid)}, "cluster": {cid}, "duration_s": {_num(d)}, '
                         f'"kind": "{kind}", "t_s": '
                         for pid, d in zip(run.members, durations))

        return cls(
            head=head,
            sync=f'{head}"duration_s": {_num(run.cluster.sync_delay_s)}, "kind": "sync", "t_s": ',
            relay=(f'{relay}false, "t_s": ', f'{relay}true, "t_s": '),
            computes=per_client("client_compute", run.tau_locals),
            uploads=per_client("upload", run.tau_aggs),
            agg=f'{head}"kind": "cluster_agg", "t_s": ',
        )


def init_state(scenario, decision, config: TrainConfig = None, layout=None) -> SimState:
    config = config if config is not None else TrainConfig()
    model = init_model(layout, seed=config.seed) if layout is not None else None
    if layout is not None and layout.param_count != scenario.footprint.param_count:
        raise SimError(
            f"model layout has {layout.param_count} parameters but the scenario "
            f"footprint declares {scenario.footprint.param_count}"
        )
    try:
        runs = {c.id: cost.ClusterRun(scenario, c, decision)
                for c in scenario.clusters}
    except ValueError as err:
        raise SimError(str(err)) from None
    return SimState(scenario=scenario, decision=decision, config=config, layout=layout,
                    model=model, clock_s=0.0, round_index=0, runs=runs,
                    text={cid: _ClusterText.of(run) for cid, run in runs.items()})


def _cluster_path(run, text, path_start, lines):
    """Replay one cluster's round on its `cost.ClusterRun`: append its
    timeline lines and return the log plus the absolute completion times of
    both paths."""
    try:
        rows, finish, y_abs, y_case, starts, energy = run.replay(path_start)
    except ValueError as err:
        raise SimError(str(err)) from None
    n = len(rows) - 1
    head = text.head
    done_cycles = 0.0
    for i, s, e, take, _, cap in rows:
        w = _num(i)
        lines.append(f'{text.relay[cap <= 0.0]}{_num(s)}, "window": {w}}}\n')
        if take > 0.0:
            lines.append(f'{head}"cycles": {_num(take)}, "duration_s": {_num(take / run.f)}, '
                         f'"kind": "sat_compute", "t_s": {_num(s + run.tau_tr)}, '
                         f'"window": {w}}}\n')
        if i < n:
            lines.append(f'{head}"from_sat": {w}, "kind": "handoff", "t_s": {_num(e)}, '
                         f'"to_sat": {_num(i + 1)}}}\n')
        done_cycles += take
    start = f"{_num(path_start)}}}\n"
    lines.extend([prefix + start for prefix in text.computes])
    lines.extend([f"{prefix}{_num(st)}}}\n" for prefix, st in zip(text.uploads, starts)])
    log = ClusterRoundLog(
        cluster_id=run.cluster.id,
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


def cluster_blocks(scenario) -> dict:
    """The cluster blocks `apply_offload` laid out, by cluster id; a
    SimError when it has not run."""
    if scenario.blocks is None:
        raise SimError("training reads the cluster blocks that apply_offload lays out; "
                       "run the offload step first")
    return scenario.blocks


def protocol_round(scenario, model, config: TrainConfig, round_index: int, alpha,
                   client_batch=None, sat_batch=None) -> ModelParams:
    """One protocol round of training from the global `model`: every cluster
    satellite that holds offloaded samples and every client take their local
    update, all stepped as one stack on row spans of the cluster blocks that
    `apply_offload` laid out; then intra-cluster and global aggregation.

    alpha maps client id to its aggregation fraction. A satellite trains
    when its pool is nonempty and its aggregation weight sum(alpha_k |D_k|)
    is positive. client_batch and sat_batch map client and cluster ids to
    batch sizes; None means the config's.
    """
    by_cluster = cluster_blocks(scenario)
    blocks, spans, batches, streams, plan = [], [], [], [], []
    for cluster in scenario.clusters:
        members = scenario.cluster_clients(cluster.id)
        block = by_cluster[cluster.id]
        b = len(blocks)
        blocks.append(block.samples)
        start, stop = block.pool
        # an offload that rounds to 0 samples on every client leaves the pool
        # empty; the cluster then aggregates with the fractions realised, all 0
        alphas = [alpha[p.id] if stop > start else 0.0 for p in members]
        sizes = [p.size for p in members]
        has_sat = sum(al * s for al, s in zip(alphas, sizes)) > 0
        if has_sat:
            spans.append((b, start, stop))
            batches.append(sat_batch[cluster.id] if sat_batch is not None
                           else config.sat_batch_size or config.batch_size)
            streams.append((1, cluster.id))
        for p in members:
            spans.append((b, *block.retained[p.id]))
            batches.append(client_batch[p.id] if client_batch is not None
                           else config.batch_size)
            streams.append((2, p.id))
        plan.append((has_sat, len(members), alphas, sizes))
    trained = iter(local_update_stack(model.values, model.layout, blocks, spans, config,
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
    """Advance the state by one round and return its record. The round's
    timeline lines are appended to events_out when it is given."""
    scenario = state.scenario
    round_start = state.clock_s
    t0 = f"{_num(round_start)}}}\n"
    lines = [] if events_out is None else events_out
    logs = {}
    round_end = round_start
    for cluster in scenario.clusters:
        text = state.text[cluster.id]
        path_start = round_start + cluster.sync_delay_s
        lines.append(text.sync + t0)
        log, y_abs, rep_abs = _cluster_path(state.runs[cluster.id], text, path_start, lines)
        logs[cluster.id] = log
        done = max(y_abs, rep_abs)
        lines.append(f"{text.agg}{_num(done)}}}\n")
        round_end = max(round_end, done + cluster.glob_delay_s)
    lines.append(f"{_GLOBAL_AGG}{_num(round_end)}}}\n")

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
    timeline: tuple  # lines, json.dumps(event, sort_keys=True) + "\n", absolute t_s

    @property
    def final_accuracy(self) -> float:
        return self.metrics[-1]["accuracy"] if self.metrics else math.nan


def run_experiment(scenario, decision, rounds: int, config: TrainConfig = None,
                   layout=None, test_set=None) -> SimResult:
    """Run a full experiment: `rounds` protocol rounds with timing, the
    energy ledger, and (when a model layout is given) actual training."""
    if layout is not None:
        for p in scenario.clients:
            if p.dataset is None:
                raise SimError(
                    f"client {p.id} has no attached dataset; run the data "
                    "preparation and offload steps first"
                )
    state = init_state(scenario, decision, config=config, layout=layout)
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
