"""The benchmark's own tests: every workload at its smallest size, and checks
that reject planted wrong outputs.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import orbitfed.cli as cli  # noqa: E402
from closed_form import CheckError, round_latency  # noqa: E402
from tracer import Tracer, metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_round(name, work: Path, tracer=None):
    """Build the small workload, run each command once, check it; returns
    (built, out dirs)."""
    work.mkdir(parents=True, exist_ok=True)
    built = WORKLOADS[name](3, work, small=True)
    outs = []
    for k, op in enumerate(built.ops):
        out = work / f"op{k}"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(op.argv + ["--out", str(out)]) == 0, op.argv
        assert op.check(out) > 0.0
        if tracer is not None:
            tracer.end_op(0, op.kind == "sweep")
        outs.append(out)
    return built, outs


def edit_json(path: Path, fn):
    obj = json.loads(path.read_text())
    fn(obj)
    path.write_text(json.dumps(obj))


def rejects(op, out, match):
    with pytest.raises(CheckError, match=match):
        op.check(out)


@pytest.fixture(scope="module")
def plan(tmp_path_factory):
    return run_round("plan", tmp_path_factory.mktemp("plan"))


def test_plan_decision_tau_off_by_1e_6_is_rejected(plan):
    built, outs = plan
    edit_json(outs[0] / "decision.json", lambda o: o.update(tau_round_s=o["tau_round_s"] * (1 + 1e-6)))
    rejects(built.ops[0], outs[0], "tau_round_s")


def test_plan_dropped_sat_compute_event_is_rejected(plan):
    built, outs = plan
    k = next(i for i, op in enumerate(built.ops) if op.kind == "simulate" and op.scenario == "explicit")
    timeline = next((outs[k] / "optimized").glob("seed*/timeline.jsonl"))
    lines = timeline.read_text().splitlines(keepends=True)
    drop = next(i for i, line in enumerate(lines) if '"sat_compute"' in line)
    timeline.write_text("".join(lines[:drop] + lines[drop + 1:]))
    rejects(built.ops[k], outs[k], "sat_compute cycles")


def test_plan_rising_descent_trace_is_rejected(plan):
    built, outs = plan
    k = next(i for i, op in enumerate(built.ops) if op.kind == "optimize" and op.scenario == "handoff")
    edit_json(outs[k] / "decision.json", lambda o: o["trace"].append(["alpha", 9, o["trace"][-1][2] * 1.01]))
    rejects(built.ops[k], outs[k], "trace rises")


def test_plan_bandwidth_over_budget_is_rejected(plan):
    built, outs = plan
    k = next(i for i, op in enumerate(built.ops) if op.kind == "optimize" and op.scenario == "gapfree")
    raw = json.loads(Path(built.ops[k].argv[-1]).read_text())

    def widen(o):
        bw = o["decision"]["bandwidth_hz"]
        bw[sorted(bw)[0]] *= 1.5
        o["tau_round_s"] = round_latency(raw, o["decision"])  # only the budget is broken
    edit_json(outs[k] / "decision.json", widen)
    rejects(built.ops[k], outs[k], "bandwidth")


def test_oracle_checks_and_planted_grid_gap(tmp_path):
    built, outs = run_round("oracle", tmp_path)
    edit_json(outs[0] / "decision.json", lambda o: o["grid"].update(gap_rel=0.03))
    rejects(built.ops[0], outs[0], "gap_rel")


def test_train_swapped_crossing_clocks_are_rejected(tmp_path):
    built, outs = run_round("train", tmp_path)
    summary = outs[0] / "summary.json"
    rows = json.loads(summary.read_text())["rows"]
    clocks = {r["series"]: r["target_clock_s"] for r in rows}
    assert clocks["optimized"] is not None and clocks["alpha_0.0"] is not None
    assert clocks["optimized"] != clocks["alpha_0.0"]

    def swap(o):
        for r in o["rows"]:
            if r["series"] in ("optimized", "alpha_0.0"):
                other = "alpha_0.0" if r["series"] == "optimized" else "optimized"
                r["target_clock_s"] = clocks[other]
    edit_json(summary, swap)
    rejects(built.ops[0], outs[0], "crossing")


def test_bound_checks_and_planted_lhs(tmp_path):
    built, outs = run_round("bound", tmp_path)
    edit_json(outs[0] / "bounds.json",
              lambda o: o["per_seed"][0].update(lhs=o["per_seed"][0]["lhs"] * (1 + 1e-6)))
    rejects(built.ops[0], outs[0], "lhs")


def test_traced_round_reports_every_per_layer_metric(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        run_round("bound", tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert cli.main.__module__ == "orbitfed.cli" and not hasattr(cli.main, "__wrapped__")
    metrics = tracer.metrics()
    assert set(metrics) == set(metric_units())
    assert metrics["fl.loss_and_grad.calls"]["value"] > 0
    assert metrics["analysis.estimate_smoothness_and_rho.self_ms"]["value"] > 0
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} == set(metrics)
