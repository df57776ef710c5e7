"""Workload inputs, the CLI commands run on them, and the checks on every output.

A workload is built from a seed into a list of operations: one round. The
runner repeats that round, so every round runs the same commands on the same
inputs. Scenario families keep their shapes (cluster and client counts,
schedule kinds, rounds) fixed per slot and draw only the physical parameters
from the seed, so the cost of a round moves little from seed to seed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from closed_form import (
    ScheduleWalk,
    check_constraints,
    close,
    decision_maps,
    expect,
    round_latency,
)
from replay import gd_replay

REL = 1e-9  # agreement asked of values recomputed in closed form
REF_CPU = (2e8, 2.5e8, 3e8, 4e8, 5e8, 6e8, 7e8, 8e8, 9e8, 1e9)


@dataclass
class Op:
    """One CLI command; `check(out_dir)` raises CheckError on a wrong output
    and returns the modelled round latency of the decision it chose."""

    kind: str
    argv: list
    check: Callable
    scenario: str  # the tau_round_s metric averages over distinct scenarios


@dataclass
class Built:
    ops: list  # one round
    warmup: list  # argv of the untimed command run once at set-up


# ---------------------------------------------------------------------------
# scenario dicts: every field the closed form reads is written out


def client(pid, cpu_hz, size=None, **kw):
    out = {"id": pid, "cpu_freq_hz": cpu_hz, "cycles_per_sample": 3e7, "tx_power_w": 0.2,
           "max_offload_fraction": 0.8, "energy_budget_j": 50.0}
    if size is not None:
        out["dataset_size"] = int(size)
    out.update(kw)
    return out


def cluster(cid, clients, **kw):
    out = {"id": cid, "bandwidth_hz": 1e6, "isl_rate_bps": 1e5, "coverage_s": 360.0,
           "sat_max_freq_hz": 1e10, "sat_cycles_per_sample": 3e7, "sat_tx_power_w": 10.0,
           "sat_initial_energy_j": 500.0, "sat_min_residual_j": 100.0, "sun_facing": True,
           "sun_power_w": 5.0, "sync_delay_s": 1.0, "glob_delay_s": 1.0,
           "max_offload_samples": 1e12, "sat_distance_m": 784e3, "pathloss_exponent": 2.0,
           "noise_density_w_per_hz": 3.98e-21, "energy_coeff": 1e-28, "clients": clients}
    out.update(kw)
    return out


def scenario(name, clusters, **kw):
    out = {"name": name, "seed": 0, "clusters": clusters,
           "model": {"param_count": 334, "bits_per_param": 32, "sample_bits": 544}}
    out.update(kw)
    return out


def write(path: Path, raw: dict) -> str:
    path.write_text(json.dumps(raw, indent=1))
    return str(path)


def _jitter(rng, lo=0.9, hi=1.1):
    return float(rng.uniform(lo, hi))


def _ref_clients(rng, pid0, n, size, spread=(0.9, 1.1)):
    cpus = REF_CPU if n == len(REF_CPU) else np.geomspace(2e8, 1e9, n)
    return [client(pid0 + k, float(cpus[k]) * _jitter(rng, *spread), size) for k in range(n)]


def _handoff_cluster(rng, cid, pid0, n, **kw):
    """Dark cluster whose offloaded pool needs several short coverage windows:
    slow clients with large datasets, a capped satellite clock and 120 s passes."""
    clients = [client(pid0 + k, float(np.geomspace(1e8, 4e8, n)[k]) * _jitter(rng, 0.97, 1.03),
                      3000) for k in range(n)]
    fields = {"coverage_s": 120.0, "sat_max_freq_hz": 1e9 * _jitter(rng, 0.97, 1.03),
              "isl_rate_bps": 1e6, "sun_facing": False,
              "sat_initial_energy_j": 500.0 * _jitter(rng, 0.8, 1.2)}
    fields.update(kw)
    return cluster(cid, clients, **fields)


def _gappy_intervals(rng, count):
    """[start, end] passes with gaps; about one in five is a pass too short
    to finish the satellite's work, or even the relay, so the chain hands off."""
    rows, t = [], float(rng.uniform(0.0, 30.0))
    for _ in range(count):
        short = rng.random() < 0.2
        dwell = float(rng.uniform(3.0, 15.0) if short else rng.uniform(280.0, 440.0))
        rows.append([t, t + dwell])
        t += dwell + float(rng.uniform(5.0, 90.0))
    return rows


def _equal_intervals(period, count):
    return [[k * period, (k + 1) * period] for k in range(count)]


# ---------------------------------------------------------------------------
# checks shared by workloads


def read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def read_metrics(path: Path):
    with open(path, newline="") as fh:
        return [{"round": int(r["round"]), "clock_s": float(r["clock_s"]),
                 "accuracy": float(r["accuracy"]) if r["accuracy"] else math.nan,
                 "tau_round_s": float(r["tau_round_s"])}
                for r in csv.DictReader(fh)]


def check_decision(raw: dict, obj: dict, label: str, trace=True) -> float:
    """tau_round_s against the closed form, every constraint, monotone trace."""
    tau = round_latency(raw, obj["decision"])
    expect(close(obj["tau_round_s"], tau, REL),
           f"{label}: tau_round_s {obj['tau_round_s']!r} vs closed form {tau!r}")
    check_constraints(raw, obj["decision"], label)
    if trace:
        vals = [t[2] for t in obj["trace"]]
        expect(all(b <= a for a, b in zip(vals, vals[1:])),
               f"{label}: descent trace rises: {vals}")
    return tau


def _timeline_rounds(path: Path):
    """Per round, per cluster: (handoff events, sat_compute cycles)."""
    rounds, cur = [], {}
    with open(path) as fh:
        for line in fh:
            e = json.loads(line)
            kind = e["kind"]
            if kind == "global_agg":
                rounds.append(cur)
                cur = {}
                continue
            slot = cur.setdefault(e["cluster"], [0, 0.0])
            if kind == "handoff":
                slot[0] += 1
            elif kind == "sat_compute":
                slot[1] += e["cycles"]
    return rounds


def check_timing_run(raw: dict, dec: dict, leg: Path, label: str):
    """Replay every round of a timing-only run against the benchmark's walk.

    Fixed-period and gap-free equal-window scenarios must also reproduce the
    closed-form round latency in every round.
    """
    alpha, freq, bw = decision_maps(dec)
    walks = [ScheduleWalk(raw, c, alpha, freq, bw) for c in raw["clusters"]]
    closed = None
    if all(_equal_windows(c) for c in raw["clusters"]):
        closed = round_latency(raw, dec)
    metrics = read_metrics(leg / "metrics.csv")
    events = _timeline_rounds(leg / "timeline.jsonl")
    expect(len(events) == len(metrics), f"{label}: {len(events)} timeline rounds, "
           f"{len(metrics)} metric rows")
    start, running = 0.0, 0.0
    for row, seen in zip(metrics, events):
        r = row["round"]
        end = start
        for c, walk in zip(raw["clusters"], walks):
            handoffs, done = walk.round(start + c["sync_delay_s"])
            got_h, got_cycles = seen.get(c["id"], [0, 0.0])
            expect(got_h == handoffs, f"{label}: round {r} cluster {c['id']}: "
                   f"{got_h} handoffs, schedule walk gives {handoffs}")
            expect(close(got_cycles, walk.cycles, REL),
                   f"{label}: round {r} cluster {c['id']}: sat_compute cycles "
                   f"{got_cycles!r}, offloaded work is {walk.cycles!r}")
            end = max(end, done + c["glob_delay_s"])
        expect(close(row["tau_round_s"], end - start, REL),
               f"{label}: round {r} tau_round_s {row['tau_round_s']!r}, walk gives {end - start!r}")
        if closed is not None:
            expect(close(row["tau_round_s"], closed, REL),
                   f"{label}: round {r} tau_round_s {row['tau_round_s']!r}, closed form {closed!r}")
        running += row["tau_round_s"]
        expect(close(row["clock_s"], running, REL),
               f"{label}: round {r} clock_s {row['clock_s']!r} vs running sum {running!r}")
        start = row["clock_s"]


def _equal_windows(c: dict) -> bool:
    rows = c.get("coverage_intervals")
    if rows is None:
        return True
    first = rows[0][1] - rows[0][0]
    return all(b[0] == a[1] and b[1] - b[0] == first for a, b in zip(rows, rows[1:]))


# ---------------------------------------------------------------------------
# plan: optimize, then a long timing-only simulate, over a scenario family


def plan_family(seed: int, small=False):
    rng = np.random.default_rng([seed, 101])
    fam = {}
    sun = rng.permutation([True, True, True, False, False])
    fam["ref"] = (scenario("plan-ref", [
        cluster(j, _ref_clients(rng, 10 * j, 10, 600), sun_facing=bool(sun[j]),
                sat_initial_energy_j=500.0 * _jitter(rng, 0.8, 1.2),
                bandwidth_hz=1e6 * _jitter(rng, 0.8, 1.25))
        for j in range(5)]), 400)
    fam["handoff"] = (scenario("plan-handoff", [
        cluster(0, _ref_clients(rng, 0, 6, 600), bandwidth_hz=6e5 * _jitter(rng)),
        _handoff_cluster(rng, 1, 6, 6),
        _handoff_cluster(rng, 2, 12, 6, bandwidth_hz=6e5 * _jitter(rng))]), 400)
    rounds = 200
    fam["explicit"] = (scenario("plan-explicit", [
        cluster(0, _ref_clients(rng, 0, 5, 600), sun_facing=False),
        cluster(1, _ref_clients(rng, 5, 5, 600), coverage_intervals=_gappy_intervals(rng, 5 * rounds)),
        cluster(2, _ref_clients(rng, 10, 5, 600), sun_facing=False,
                coverage_intervals=_gappy_intervals(rng, 5 * rounds))]), rounds)
    period = float(rng.integers(330, 391))
    fam["gapfree"] = (scenario("plan-gapfree", [
        cluster(0, _ref_clients(rng, 0, 8, 600), coverage_intervals=_equal_intervals(period, 4 * rounds)),
        _handoff_cluster(rng, 1, 8, 8, coverage_intervals=_equal_intervals(120.0, 12 * rounds))]), rounds)
    if small:
        fam = {k: (dict(raw, clusters=[dict(c, clients=c["clients"][:3]) for c in raw["clusters"][:3]]), 5)
               for k, (raw, _) in fam.items()}
    return fam


def build_plan(seed: int, work: Path, small=False) -> Built:
    ops = []
    for key, (raw, rounds) in plan_family(seed, small).items():
        path = write(work / f"plan-{key}.json", raw)

        def check_opt(out, raw=raw, key=key):
            return check_decision(raw, read_json(out / "decision.json"), f"optimize {key}")

        def check_sim(out, raw=raw, key=key, rounds=rounds):
            obj = read_json(out / "optimized" / "decision.json")
            tau = check_decision(raw, obj, f"simulate {key}")
            legs = read_json(out / "summary.json")["rows"]
            expect(len(legs) == 1 and legs[0]["rounds"] == rounds, f"simulate {key}: legs {legs}")
            check_timing_run(raw, obj["decision"], out / "optimized" / f"seed{legs[0]['seed']}",
                             f"simulate {key}")
            return tau

        ops.append(Op("optimize", ["--mode", "optimize", "--scenario", path], check_opt, key))
        ops.append(Op("simulate", ["--mode", "simulate", "--scenario", path,
                                   "--rounds", str(rounds)], check_sim, key))
    return Built(ops, ops[0].argv)


# ---------------------------------------------------------------------------
# oracle: optimize --grid-oracle on single-window two-client instances


# per instance: dataset sizes (grid-friendly multiples of 100), client clocks, sun-facing
ORACLE_SLOTS = (((600, 400), (2e8, 5e8), True), ((800, 500), (3e8, 1.5e8), False))
ORACLE_ALPHA_MAX = 0.5  # fixes the lattice at 501 x 501 profiles


def oracle_instance(rng, sizes, clocks, sun, alpha_max):
    """One cluster, two clients: the acceptance test's single-window family,
    drawn within 1% of fixed centres. Full offload fits one coverage window
    at the frequency cap, and the battery covers the slowest single-window
    clock with room to spare."""

    def j(centre):
        return centre * _jitter(rng, 0.99, 1.01)

    kappa, qbits, param_count = 1e-28, int(j(3000)), int(j(1000))
    size_bits = 32.0 * param_count
    t_cov, m_s, frac = j(350.0), j(3e7), j(0.2)
    a_cap = alpha_max * float(sum(sizes))
    rate = (size_bits + qbits * a_cap) / (frac * t_cov)
    thresh = m_s * a_cap / (t_cov - frac * t_cov)
    psi, p_sat, bandwidth = j(100.0), j(10.0), j(1e6)
    e_need = psi + p_sat * frac * t_cov + kappa * (m_s * a_cap) * thresh ** 2
    clients = []
    for k, (size, clock) in enumerate(zip(sizes, clocks)):
        f_c, m_c, p_c = j(clock), j(3e7), j(0.3)
        b = bandwidth / (4.0 * len(sizes))
        snr = p_c * 784e3 ** -2.0 / (b * 3.98e-21)
        e_agg = p_c * size_bits / (b * math.log2(1.0 + snr))
        budget = (kappa * m_c * size * f_c ** 2 + e_agg) * j(2.5)
        clients.append(client(k, f_c, size, cycles_per_sample=m_c, tx_power_w=p_c,
                              max_offload_fraction=alpha_max, energy_budget_j=budget))
    return scenario("oracle", [cluster(
        0, clients, bandwidth_hz=bandwidth, isl_rate_bps=rate, coverage_s=t_cov,
        sat_max_freq_hz=thresh / j(0.45), sat_cycles_per_sample=m_s, sat_tx_power_w=p_sat,
        sat_initial_energy_j=e_need * j(2.0), sat_min_residual_j=psi, sun_facing=sun,
        sun_power_w=j(5.0), sync_delay_s=j(1.0), glob_delay_s=j(1.0))],
        model={"param_count": param_count, "bits_per_param": 32, "sample_bits": qbits})


def build_oracle(seed: int, work: Path, small=False) -> Built:
    ops = []
    for i, (sizes, clocks, sun) in enumerate(ORACLE_SLOTS[:1] if small else ORACLE_SLOTS):
        raw = oracle_instance(np.random.default_rng([seed, 202, i]), sizes, clocks, sun,
                              0.1 if small else ORACLE_ALPHA_MAX)
        path = write(work / f"oracle-{i}.json", raw)

        def check(out, raw=raw, i=i):
            obj = read_json(out / "decision.json")
            label = f"oracle {i}"
            tau = check_decision(raw, obj, label)
            grid = obj["grid"]
            tau_grid = round_latency(raw, grid["decision"])
            expect(close(grid["tau_round_s"], tau_grid, REL),
                   f"{label}: grid tau_round_s {grid['tau_round_s']!r} vs closed form {tau_grid!r}")
            check_constraints(raw, grid["decision"], f"{label} grid")
            expect(abs(grid["gap_rel"]) <= 0.02, f"{label}: gap_rel {grid['gap_rel']} beyond 2%")
            expect(close(grid["gap_rel"], (tau - tau_grid) / tau_grid, 1e-6)
                   or abs(grid["gap_rel"]) < 1e-12,
                   f"{label}: gap_rel {grid['gap_rel']!r} vs {(tau - tau_grid) / tau_grid!r}")
            return tau

        ops.append(Op("grid", ["--mode", "optimize", "--grid-oracle", "--scenario", path],
                      check, f"oracle-{i}"))
    return Built(ops, ["--mode", "optimize", "--scenario", ops[0].argv[-1]])


# ---------------------------------------------------------------------------
# train: the README's five-series sweep on the reference scenario


def reference_like(rng, spc, name):
    """The reference scenario, written out in full, with each client clock and
    battery jittered by a few percent so the chosen decision moves with the seed."""
    sun = (True, True, True, False, False)
    return scenario(name, [
        cluster(j, _ref_clients(rng, 10 * j, 10, None, (0.97, 1.03)), sun_facing=sun[j],
                sat_initial_energy_j=500.0 * _jitter(rng, 0.95, 1.05))
        for j in range(5)],
        data={"source": "synthetic", "samples_per_client": spc, "classes": 10, "dim": 16,
              "noise": 0.5, "test_samples": 2000, "partition": "shard_noniid",
              "shards_per_client": 2, "sensitive_fraction": 0.2,
              "model": {"kind": "mlp", "hidden": 12}},
        train={"eta0": 0.1, "lr_schedule": "inv", "momentum": 0.9, "batch_size": 32})


SWEEP_SERIES = ("alpha_0.0", "alpha_0.3", "alpha_0.4", "alpha_0.8", "optimized")
TARGET_ACC = 0.9
SMALL_TARGET_ACC = 0.3  # three rounds of six clients reach this, not the headline gap


def first_crossing(metrics, target):
    for m in metrics:
        if not math.isnan(m["accuracy"]) and m["accuracy"] >= target:
            return m["round"], m["clock_s"]
    return None, None


def check_sweep(raw: dict, out: Path, data_seed: int, rounds: int, target: float,
                headline=True) -> float:
    """Per-round latency and clocks of every leg, accuracies, the summary's
    crossings, and (with `headline`) the paper's claim: the optimized split
    reaches the target accuracy at an earlier simulated clock than
    terrestrial-only training."""
    summary = read_json(out / "summary.json")
    rows = {(r["series"], r["seed"]): r for r in summary["rows"]}
    expect(sorted(rows) == [(s, data_seed) for s in SWEEP_SERIES],
           f"sweep: summary rows {sorted(rows)}")
    clocks, tau_opt = {}, None
    for series in SWEEP_SERIES:
        obj = read_json(out / series / "decision.json")
        tau = round_latency(raw, obj["decision"])
        expect(close(obj["tau_round_s"], tau, REL),
               f"sweep {series}: tau_round_s {obj['tau_round_s']!r} vs closed form {tau!r}")
        if series == "optimized":
            tau_opt = tau
        metrics = read_metrics(out / series / f"seed{data_seed}" / "metrics.csv")
        expect(len(metrics) == rounds, f"sweep {series}: {len(metrics)} rounds")
        running = 0.0
        for m in metrics:
            expect(close(m["tau_round_s"], tau, REL),
                   f"sweep {series} round {m['round']}: tau_round_s {m['tau_round_s']!r} "
                   f"vs closed form {tau!r}")
            running += m["tau_round_s"]
            expect(close(m["clock_s"], running, REL),
                   f"sweep {series} round {m['round']}: clock_s off the running sum")
            expect(0.0 <= m["accuracy"] <= 1.0,
                   f"sweep {series} round {m['round']}: accuracy {m['accuracy']}")
        rnd, clock = first_crossing(metrics, target)
        row = rows[(series, data_seed)]
        expect(row["target_round"] == rnd and row["target_clock_s"] == clock,
               f"sweep {series}: summary crossing ({row['target_round']}, "
               f"{row['target_clock_s']}) vs metrics.csv ({rnd}, {clock})")
        clocks[series] = math.inf if clock is None else clock
    expect(not headline or clocks["optimized"] < clocks["alpha_0.0"],
           f"sweep seed {data_seed}: optimized reaches {target} at {clocks['optimized']} s, "
           f"terrestrial-only at {clocks['alpha_0.0']} s")
    return tau_opt


def build_train(seed: int, work: Path, small=False) -> Built:
    rng = np.random.default_rng([seed, 303])
    data_seed = int(rng.integers(0, 1_000_000))
    raw = reference_like(rng, 600, "train")
    rounds, target = 30, TARGET_ACC
    if small:
        raw["clusters"] = [dict(c, clients=c["clients"][:3]) for c in raw["clusters"][:2]]
        raw["data"]["test_samples"] = 500
        rounds, target = 3, SMALL_TARGET_ACC
    path = write(work / "train.json", raw)
    argv = ["--mode", "sweep", "--scenario", path, "--rounds", str(rounds),
            "--seeds", str(data_seed), "--target-acc", str(target)]
    return Built([Op("sweep", argv,
                     lambda out: check_sweep(raw, out, data_seed, rounds, target, headline=not small),
                     "train")],
                 ["--mode", "optimize", "--scenario", path])


# ---------------------------------------------------------------------------
# bound: analyze on a reference-shaped scenario with few samples per client


def check_bounds(raw: dict, out: Path, data_seed: int, rounds: int, model_seeds: int) -> float:
    rep = read_json(out / "bounds.json")
    expect(rep["omega"] == 0.0, f"analyze: omega {rep['omega']} with full batches")
    eta0 = raw["train"]["eta0"]
    lrs = [eta0 / (1 + r) for r in range(rounds)]
    gamma, sq = float(sum(lrs)), float(sum(e * e for e in lrs))
    expect(close(rep["gamma_r"], gamma, 1e-12), f"analyze: gamma_r {rep['gamma_r']!r} vs {gamma!r}")
    expect(close(rep["sum_eta_sq"], sq, 1e-12), f"analyze: sum_eta_sq {rep['sum_eta_sq']!r} vs {sq!r}")
    expect(len(rep["per_seed"]) == model_seeds, f"analyze: {len(rep['per_seed'])} seed rows")
    for row in rep["per_seed"]:
        u = (2.0 * (row["f0"] - row["f_star"]) / rep["gamma_r"]
             + 2.0 * rep["smoothness"] * rep["omega"] * rep["sum_eta_sq"] / rep["gamma_r"])
        expect(close(row["bound"], u, 1e-12),
               f"analyze seed {row['seed']}: bound {row['bound']!r} vs recomputed {u!r}")
    replay = gd_replay(raw, data_seed, rep["per_seed"][0]["seed"], lrs)
    for key in ("lhs", "f0", "f_star"):
        got = rep["per_seed"][0][key]
        expect(close(got, replay[key], 1e-8),
               f"analyze: first seed {key} {got!r}, gradient-descent replay {replay[key]!r}")
    return round_latency(raw, rep["decision"])


def build_bound(seed: int, work: Path, small=False) -> Built:
    rng = np.random.default_rng([seed, 404])
    data_seed = int(rng.integers(0, 1_000_000))
    raw = reference_like(rng, 20, "bound")
    raw["data"]["test_samples"] = 500
    if small:
        raw["clusters"] = [dict(c, clients=c["clients"][:2]) for c in raw["clusters"][:2]]
    rounds, model_seeds = 20, 2
    path = write(work / "bound.json", raw)
    argv = ["--mode", "analyze", "--scenario", path, "--rounds", str(rounds),
            "--seeds", f"{data_seed},{data_seed + 1}"]
    return Built([Op("analyze", argv,
                     lambda out: check_bounds(raw, out, data_seed, rounds, model_seeds), "bound")],
                 ["--mode", "optimize", "--scenario", path])


WORKLOADS = {"plan": build_plan, "oracle": build_oracle, "train": build_train,
            "bound": build_bound}
