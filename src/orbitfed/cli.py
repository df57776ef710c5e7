"""Command-line entry point: optimize, simulate, analyze, sweep, summarize.

Every run directory gets a manifest with the fully resolved configuration,
and all outputs are deterministic functions of (scenario, plan, seeds): no
timestamps, sorted JSON keys, fixed float formatting via repr. The timeline
is written as the simulator formats it, one `json.dumps(event,
sort_keys=True)` line per event.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import __version__
from .analysis import verify_bound_empirically
from .fl import ModelLayout
from .optimizer import (
    DecisionVector,
    InfeasibleError,
    check_feasibility,
    grid_refusal,
    grid_search_cluster,
    optimize,
    optimize_pinned_alpha,
)
from .scenario import (
    ScenarioError,
    apply_offload,
    load_scenario,
    prepare_data,
    scenario_to_dict,
)
from .sim import SimError, run_experiment

NOT_REACHED = "not reached"
SWEEP_SERIES = (
    ("alpha_0.0", "terrestrial_only", None),
    ("alpha_0.3", "fixed_ratio", 0.3),
    ("alpha_0.4", "fixed_ratio", 0.4),
    ("alpha_0.8", "fixed_ratio", 0.8),
    ("optimized", "optimized", None),
)


@dataclass(frozen=True)
class ExperimentPlan:
    scenario_path: str
    mode: str
    baseline: str = "optimized"
    alpha_fixed: float = None
    prox_mu: float = 0.0
    rounds: int = 20
    seeds: tuple = (0,)
    target_acc: float = None
    out_dir: str = "orbitfed_run"
    single_step: bool = False
    grid_oracle: bool = False


class CliError(RuntimeError):
    pass


# the modes that read each flag; a flag away from its default in any other
# mode would be recorded in the manifest and ignored, so it is refused
FLAG_MODES = {
    "single_step": ("simulate", "sweep", "analyze"),
    "prox_mu": ("simulate", "sweep"),
    "target_acc": ("simulate", "sweep", "summarize"),
    "grid_oracle": ("optimize",),
    "rounds": ("simulate", "sweep", "analyze"),
    "seeds": ("simulate", "sweep", "analyze"),
}


# ---------------------------------------------------------------------------
# deterministic writers


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return "" if math.isnan(v) else repr(v)
    return str(v)


def _write_metrics(path: Path, metrics):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "clock_s", "accuracy", "loss", "tau_round_s"])
        for m in metrics:
            w.writerow([_fmt(m[k]) for k in
                        ("round", "clock_s", "accuracy", "loss", "tau_round_s")])


def _write_timeline(path: Path, lines):
    """Write the simulator's timeline lines as they are, streamed."""
    with open(path, "w") as fh:
        fh.writelines(lines)


# ---------------------------------------------------------------------------
# plan resolution


def _pinned_alpha(scenario, baseline: str, alpha_fixed):
    if baseline == "terrestrial_only":
        return {p.id: 0.0 for p in scenario.clients}
    if baseline == "full_offload":
        alpha = {p.id: p.max_offload_fraction for p in scenario.clients}
        for c in scenario.clusters:
            members = scenario.cluster_clients(c.id)
            total = sum(alpha[p.id] * p.size for p in members)
            if total > c.max_offload_samples:
                scale = c.max_offload_samples / total
                for p in members:
                    alpha[p.id] *= scale
        return alpha
    if baseline == "fixed_ratio":
        if alpha_fixed is None:
            raise CliError("fixed_ratio baseline needs --alpha-fixed")
        cap = min(p.max_offload_fraction for p in scenario.clients)
        if not 0.0 <= alpha_fixed <= cap + 1e-12:
            raise CliError(
                f"offload ratio {alpha_fixed} outside [0, {cap}] allowed by the scenario")
        return {p.id: float(alpha_fixed) for p in scenario.clients}
    raise CliError(f"unknown baseline {baseline!r}")


def _resolve_decision(scenario, baseline: str, alpha_fixed):
    """Decision vector for a series, its feasibility report (which carries
    the decision's cost breakdown) and the solve's record; baselines keep
    alpha pinned but still get frequency and bandwidth optimized."""
    if baseline == "optimized":
        res = optimize(scenario)
        return res.decision, res.report, {
            "trace": [list(t) for t in res.trace],
            "iterations": res.iterations,
            "feasible": res.report.ok,
        }
    alpha = _pinned_alpha(scenario, baseline, alpha_fixed)
    dec = optimize_pinned_alpha(scenario, alpha)
    report = check_feasibility(scenario, dec)
    return dec, report, {"trace": None, "iterations": 0, "feasible": report.ok}


def _resolve_layout(scenario, test_set) -> ModelLayout:
    cfg = scenario.data
    kind, dim = cfg["model"]["kind"], test_set.feature_dim
    # a synthetic corpus has the classes it was drawn with; files, every
    # label the clients train on or the test set holds
    if cfg["source"] == "synthetic":
        classes = cfg["classes"]
    else:
        held = [test_set] + [part for p in scenario.clients
                             for part in (p.dataset.sensitive, p.dataset.nonsensitive)]
        classes = 1 + max(int(s.labels.max()) for s in held if len(s))
    dims = (dim, cfg["model"]["hidden"], classes) if kind == "mlp" else (dim, classes)
    layout = ModelLayout(kind, dims)
    if layout.param_count != scenario.footprint.param_count:
        raise CliError(
            f"model.param_count in the scenario is {scenario.footprint.param_count} "
            f"but the {kind} layout has {layout.param_count}; align them"
        )
    return layout


def _first_crossing(metrics, target):
    for m in metrics:
        acc = m["accuracy"]
        if not math.isnan(acc) and acc >= target:
            return m["round"], m["clock_s"]
    return None, None


# ---------------------------------------------------------------------------
# mode implementations


def _prepare(scenario, seed: int):
    scenario = replace(scenario, seed=seed)
    if scenario.data is None:
        return scenario, None
    return prepare_data(scenario)


def _simulate_leg(prepared, plan, decision, seed, leg_dir: Path):
    scenario, test = prepared
    layout = _resolve_layout(scenario, test) if test is not None else None
    if layout is not None:
        scenario = apply_offload(scenario, decision.alpha)
    cfg = replace(scenario.train, prox_mu=plan.prox_mu, single_step=plan.single_step, seed=seed)
    result = run_experiment(scenario, decision, plan.rounds, config=cfg, layout=layout,
                            test_set=test)
    leg_dir.mkdir(parents=True, exist_ok=True)
    _write_metrics(leg_dir / "metrics.csv", result.metrics)
    _write_timeline(leg_dir / "timeline.jsonl", result.timeline)
    rnd, clock = (None, None)
    if plan.target_acc is not None:
        rnd, clock = _first_crossing(result.metrics, plan.target_acc)
    return {
        "seed": seed,
        "rounds": plan.rounds,
        "final_accuracy": None if math.isnan(result.final_accuracy) else result.final_accuracy,
        "target_round": rnd,
        "target_clock_s": clock,
    }


def _solve_series(scenario, plan, series):
    """Each (name, baseline, alpha_fixed) series' decision, feasibility
    report and solve record, all solved before the caller writes a file; an
    error names the series it refused."""
    solved = []
    for name, baseline, alpha_fixed in series:
        try:
            solved.append(_resolve_decision(scenario, baseline, alpha_fixed))
        except CliError as err:
            raise CliError(f"{plan.mode} series {name}: {err}") from None
        except InfeasibleError as err:
            raise InfeasibleError(f"{plan.mode} series {name}: {err}", err.slack) from None
    return solved


def _run_series(scenario, plan, series, out: Path):
    """Solve every series on the first seed's data, then simulate every
    series on every seed. Each seed's data is prepared once and shared by
    its legs."""
    base = _prepare(scenario, plan.seeds[0])
    decisions = []
    # the solved list lives only as long as this loop: holding every report
    # through the legs' training raised a sweep's peak RSS by up to 1.7 MB
    for (name, baseline, alpha_fixed), (decision, report, meta) in zip(
            series, _solve_series(base[0], plan, series)):
        (out / name).mkdir(parents=True, exist_ok=True)
        _write_json(out / name / "decision.json", {
            "baseline": baseline,
            "alpha_fixed": alpha_fixed,
            "tau_round_s": report.breakdown.tau_round_s,
            "decision": decision.as_dict(),
            **meta,
        })
        decisions.append((name, decision))
    rows = []
    for seed in plan.seeds:
        prepared = base if seed == plan.seeds[0] else _prepare(scenario, seed)
        for name, decision in decisions:
            leg = _simulate_leg(prepared, plan, decision, seed, out / name / f"seed{seed}")
            rows.append({"series": name, **leg})
    return rows


def _series_summary(rows, target_acc):
    per_series = {}
    for row in rows:
        s = per_series.setdefault(row["series"], {"seeds": 0, "reached": 0, "clocks": []})
        s["seeds"] += 1
        if row["target_clock_s"] is not None:
            s["reached"] += 1
            s["clocks"].append(row["target_clock_s"])
    out = {}
    for name in sorted(per_series):
        s = per_series[name]
        out[name] = {
            "seeds": s["seeds"],
            "reached": s["reached"],
            "mean_clock_s": (sum(s["clocks"]) / len(s["clocks"])) if s["clocks"] else NOT_REACHED,
        }
    return {"target_accuracy": target_acc, "rows": rows, "per_series": out}


def _mode_optimize(scenario, plan, out: Path):
    scenario, _ = _prepare(scenario, plan.seeds[0])
    decision, report, meta = _resolve_decision(scenario, plan.baseline, plan.alpha_fixed)
    tau = report.breakdown.tau_round_s
    obj = {
        "baseline": plan.baseline,
        "tau_round_s": tau,
        "decision": decision.as_dict(),
        "feasibility": report.as_dict(),
        "clusters": [asdict(c) for c in report.breakdown.clusters],
        **meta,
    }
    if plan.grid_oracle:
        tau_grid, grid_dec = grid_search_cluster(scenario)
        obj["grid"] = {
            "tau_round_s": tau_grid,
            "decision": grid_dec.as_dict(),
            "gap_rel": (tau - tau_grid) / tau_grid,
        }
    _write_json(out / "decision.json", obj)
    print(f"tau_round = {tau:.6f} s  feasible = {report.ok}")
    print(f"wrote {out / 'decision.json'}")


def _mode_simulate(scenario, plan, out: Path):
    name = {
        "terrestrial_only": "alpha_0.0",
        "full_offload": "alpha_max",
        "fixed_ratio": f"alpha_{plan.alpha_fixed:g}" if plan.alpha_fixed is not None else "alpha_fixed",
        "optimized": "optimized",
    }[plan.baseline]
    rows = _run_series(scenario, plan, [(name, plan.baseline, plan.alpha_fixed)], out)
    _write_json(out / "summary.json", _series_summary(rows, plan.target_acc))
    print(f"wrote {out / 'summary.json'} ({len(rows)} legs)")


def _mode_sweep(scenario, plan, out: Path):
    rows = _run_series(scenario, plan, SWEEP_SERIES, out)
    rows.sort(key=lambda r: (r["series"], r["seed"]))
    _write_json(out / "summary.json", _series_summary(rows, plan.target_acc))
    print(f"wrote {out / 'summary.json'} ({len(rows)} legs)")


def _mode_analyze(scenario, plan, out: Path):
    scenario, test = _prepare(scenario, plan.seeds[0])
    if test is None:
        raise CliError("analyze mode needs a data section in the scenario")
    decision = _resolve_decision(scenario, plan.baseline, plan.alpha_fixed)[0]
    offloaded = apply_offload(scenario, decision.alpha)
    layout = _resolve_layout(offloaded, test)
    train = scenario.train
    lam = train.batch_size if plan.single_step else None
    report = verify_bound_empirically(
        offloaded, layout, rounds=plan.rounds, seeds=plan.seeds,
        eta0=train.eta0, lr_schedule=train.lr_schedule, lambda_client=lam, lambda_sat=lam,
    )
    report["decision"] = decision.as_dict()
    _write_json(out / "bounds.json", report)
    print(f"bound = {report['bound_mean']:.6g}  measured = {report['lhs_mean']:.6g}  "
          f"holds = {report['holds_all']}")
    print(f"wrote {out / 'bounds.json'}")


def _mode_summarize(plan, out: Path):
    if plan.target_acc is None:
        raise CliError("summarize needs --target-acc")
    rows = []
    for path in sorted(out.rglob("metrics.csv")):
        with open(path) as fh:
            reader = csv.DictReader(fh)
            metrics = [
                {
                    "round": int(r["round"]),
                    "clock_s": float(r["clock_s"]),
                    "accuracy": float(r["accuracy"]) if r["accuracy"] else math.nan,
                }
                for r in reader
            ]
        rnd, clock = _first_crossing(metrics, plan.target_acc)
        rows.append({
            "series": str(path.parent.relative_to(out)),
            "target_round": rnd,
            "target_clock_s": clock if clock is not None else NOT_REACHED,
        })
    if not rows:
        raise CliError(f"no metrics.csv found under {out}")
    width = max(len(r["series"]) for r in rows)
    print(f"{'series':<{width}}  time_to_{plan.target_acc:g}")
    for r in rows:
        val = r["target_clock_s"]
        shown = f"{val:.3f} s" if isinstance(val, float) else val
        print(f"{r['series']:<{width}}  {shown}")
    _write_json(out / "summary.json", {"target_accuracy": plan.target_acc, "rows": rows})
    return 0


# ---------------------------------------------------------------------------


def run(plan: ExperimentPlan) -> int:
    if plan.rounds < 1:
        raise CliError(f"--rounds {plan.rounds} is not a positive count")
    if not 0.0 <= plan.prox_mu < math.inf:
        raise CliError(f"--prox-mu {plan.prox_mu} is not a finite nonnegative coefficient")
    if plan.mode == "sweep" and (plan.baseline != "optimized" or plan.alpha_fixed is not None):
        raise CliError("sweep runs its own five series; it takes no --baseline or --alpha-fixed")
    if plan.alpha_fixed is not None and plan.baseline != "fixed_ratio":
        raise CliError(f"--alpha-fixed {plan.alpha_fixed} needs --baseline fixed_ratio")
    for field, modes in FLAG_MODES.items():
        if plan.mode not in modes and getattr(plan, field) != getattr(ExperimentPlan, field):
            raise CliError(f"--{field.replace('_', '-')} needs --mode {' or '.join(modes)}")
    if plan.target_acc is not None and not 0.0 <= plan.target_acc <= 1.0:
        raise CliError(f"--target-acc {plan.target_acc} is not an accuracy in [0, 1]")
    out = Path(plan.out_dir)
    if plan.mode == "summarize":
        out.mkdir(parents=True, exist_ok=True)
        return _mode_summarize(plan, out)

    if not plan.scenario_path:
        raise CliError(f"mode {plan.mode} needs --scenario")
    scenario = load_scenario(plan.scenario_path)
    refusal = grid_refusal(scenario) if plan.grid_oracle else None
    if refusal:
        raise CliError(f"--grid-oracle: {refusal}")
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json", {
        "version": __version__,
        "plan": {**asdict(plan), "seeds": list(plan.seeds)},
        "scenario": scenario_to_dict(scenario),
    })

    modes = {"optimize": _mode_optimize, "simulate": _mode_simulate,
             "sweep": _mode_sweep, "analyze": _mode_analyze}
    if plan.mode not in modes:
        raise CliError(f"unknown mode {plan.mode!r}")
    modes[plan.mode](scenario, plan, out)
    return 0


def _parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        # a seed seeds numpy's generators, which take nonnegative integers
        bounds = re.fullmatch(r"([0-9]+)(?:\s*-\s*([0-9]+))?", part)
        if bounds is None:
            raise CliError(f"seed {part!r} is neither a nonnegative integer nor a range "
                           "of them such as 0-9")
        a, b = int(bounds[1]), int(bounds[2] or bounds[1])
        if b < a:
            raise CliError(f"seed range {part!r} runs backwards")
        seeds.extend(range(a, b + 1))
    if not seeds:
        raise CliError(f"no seeds in {text!r}")
    seen = set()
    for seed in seeds:
        if seed in seen:
            raise CliError(f"seed {seed} repeats in {text!r}; each seed runs once")
        seen.add(seed)
    return tuple(seeds)


class _Parser(argparse.ArgumentParser):
    """A usage error is a CliError, reported as one JSON line like the rest."""

    def error(self, message):
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="orbitfed",
        description="Optimize and simulate satellite-assisted federated training.",
    )
    p.add_argument("--scenario", dest="scenario_path", default=None, help="scenario JSON file")
    p.add_argument("--mode", required=True,
                   choices=["optimize", "simulate", "analyze", "sweep", "summarize"])
    p.add_argument("--baseline", default="optimized",
                   choices=["optimized", "terrestrial_only", "full_offload", "fixed_ratio"])
    p.add_argument("--alpha-fixed", type=float, default=None,
                   help="offload ratio for the fixed_ratio baseline")
    p.add_argument("--prox-mu", type=float, default=0.0,
                   help="FedProx proximal coefficient for the client objective (0: FedAvg)")
    p.add_argument("--rounds", type=int, default=20)
    p.add_argument("--seeds", default="0",
                   help="comma list and/or ranges, e.g. 0,1,2 or 0-9")
    p.add_argument("--target-acc", type=float, default=None)
    p.add_argument("--out", dest="out_dir", default="orbitfed_run", help="output directory")
    p.add_argument("--single-step", action="store_true",
                   help="one SGD step per round (analysis mode of the protocol)")
    p.add_argument("--grid-oracle", action="store_true",
                   help="also run the exhaustive grid comparator (small instances)")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return run(ExperimentPlan(**{**vars(args), "seeds": _parse_seeds(args.seeds)}))
    except (ScenarioError, InfeasibleError, SimError, CliError, ValueError, OSError) as exc:
        report = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ScenarioError):
            report["details"] = exc.errors
        if isinstance(exc, InfeasibleError) and exc.slack is not None:
            slack = float(exc.slack)
            report["slack"] = slack if math.isfinite(slack) else None
        print(json.dumps(report, sort_keys=True), file=sys.stderr)
        return 1
    except Exception as exc:  # a fault in orbitfed itself: still one JSON line
        report = {"error": "internal", "kind": type(exc).__name__, "message": str(exc)}
        print(json.dumps(report, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
