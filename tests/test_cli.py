"""End-to-end checks of the command-line entry point: run layout, determinism,
baseline wiring, and the summarize table."""

import collections
import csv
import importlib
import itertools
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import orbitfed
from orbitfed import cost
from orbitfed.cli import (
    CliError,
    _parse_seeds,
    _prepare,
    _write_timeline,
    main,
)
from orbitfed.optimizer import (
    BAND_EPS,
    InfeasibleError,
    _Ctx,
    _battery_lanes,
    check_feasibility,
    optimize,
)
from orbitfed.scenario import scenario_to_dict, validate_scenario
from orbitfed.sim import run_experiment

from conftest import (
    REFERENCE_SCENARIO,
    case1_instance,
    client_dict,
    cluster_dict,
    events_of,
    mixed_instance,
    multiwindow_instance,
    random_passes,
    scenario_dict,
)


def tiny_spec(n_clients=3, seed=0):
    # three clients, logistic model on 6 features / 3 classes (21 parameters)
    clients = [client_dict(k, 2e8, 0) for k in range(n_clients)]
    return scenario_dict(
        [cluster_dict(0, clients)], param_count=21, sample_bits=6 * 32 + 32,
        seed=seed,
        data={"source": "synthetic", "samples_per_client": 60, "classes": 3,
              "dim": 6, "noise": 0.4, "test_samples": 120, "partition": "iid",
              "sensitive_fraction": 0.2, "model": {"kind": "logistic"}},
        train={"eta0": 0.3, "lr_schedule": "inv", "batch_size": 16,
               "momentum": 0.5},
    )


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_spec()))
    return path


def read_bytes(path):
    return path.read_bytes()


class TestSeedParsing:
    def test_comma_list(self):
        assert _parse_seeds("0,1,2") == (0, 1, 2)

    def test_range(self):
        assert _parse_seeds("3-6") == (3, 4, 5, 6)

    def test_mixed(self):
        assert _parse_seeds("5, 7-9, 12") == (5, 7, 8, 9, 12)

    def test_negative_seed_rejected(self):
        # numpy's generators refuse a negative seed, and only after the
        # manifest is written
        with pytest.raises(CliError, match="seed '-3' is neither a nonnegative integer"):
            _parse_seeds("0,-3")

    @pytest.mark.parametrize("part", ["abc", "1--3", "-1-3", "1.5", "2-x"])
    def test_malformed_seed_rejected(self, part):
        with pytest.raises(CliError, match=f"seed '{re.escape(part)}' is neither"):
            _parse_seeds(f"0,{part}")

    def test_spaced_range(self):
        assert _parse_seeds("1 - 3") == (1, 2, 3)

    def test_empty_rejected(self):
        with pytest.raises(CliError, match="no seeds"):
            _parse_seeds(" , ")

    def test_reversed_range_rejected(self):
        # range(3, 2) is empty: the part would vanish from the list silently
        with pytest.raises(CliError, match="seed range '3-1' runs backwards"):
            _parse_seeds("1,3-1")

    @pytest.mark.parametrize("text, seed", [("0,0", 0), ("0-2,1", 1), ("4, 2-5", 4)])
    def test_repeated_seed_rejected(self, text, seed):
        # a repeated seed would run its legs twice into one seed directory
        with pytest.raises(CliError, match=f"seed {seed} repeats in '{text}'"):
            _parse_seeds(text)


class TestOptimizeMode:
    def test_writes_decision_and_manifest(self, spec_path, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["--mode", "optimize", "--scenario", str(spec_path),
                   "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["plan"]["mode"] == "optimize"
        assert "scenario" in manifest and "version" in manifest
        dec = json.loads((out / "decision.json").read_text())
        assert dec["feasible"] is True
        assert dec["tau_round_s"] > 0
        assert set(dec["decision"]) == {"alpha", "sat_freq_hz", "bandwidth_hz"}
        assert "tau_round" in capsys.readouterr().out

    def test_optimized_beats_terrestrial_on_reference(self, tmp_path):
        taus = {}
        for baseline in ("optimized", "terrestrial_only"):
            out = tmp_path / baseline
            rc = main(["--mode", "optimize", "--scenario",
                       str(REFERENCE_SCENARIO), "--baseline", baseline,
                       "--out", str(out)])
            assert rc == 0
            taus[baseline] = json.loads(
                (out / "decision.json").read_text())["tau_round_s"]
        assert taus["optimized"] < taus["terrestrial_only"]

    def test_full_offload_respects_a_zero_cluster_cap(self, tmp_path):
        spec = json.loads(REFERENCE_SCENARIO.read_text())
        capped = spec["clusters"][1]
        capped["max_offload_samples"] = 0
        path = tmp_path / "capped.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "run"
        rc = main(["--mode", "optimize", "--scenario", str(path),
                   "--baseline", "full_offload", "--out", str(out)])
        assert rc == 0
        dec = json.loads((out / "decision.json").read_text())
        assert dec["feasible"] is True
        alpha = dec["decision"]["alpha"]
        ids = [str(c["id"]) for c in capped["clients"]]
        assert all(alpha[pid] == 0.0 for pid in ids)
        assert any(v > 0.0 for pid, v in alpha.items() if pid not in ids)

    def test_grid_oracle_close(self, tmp_path):
        spec = tiny_spec(n_clients=2)
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "run"
        rc = main(["--mode", "optimize", "--scenario", str(path),
                   "--grid-oracle", "--out", str(out)])
        assert rc == 0
        dec = json.loads((out / "decision.json").read_text())
        assert dec["grid"]["tau_round_s"] > 0
        assert dec["grid"]["gap_rel"] <= 0.02

    def test_grid_oracle_drops_totals_the_battery_refuses(self, tmp_path):
        # at a third of its battery the cluster cannot compute the largest
        # lattice totals even at the slowest single-window frequency, and the
        # battery binds the optimum; the grid drops those totals' profiles
        full = case1_instance(np.random.default_rng([6161, 7]), n_clients=2, grid_sizes=True)
        raw = scenario_to_dict(full)
        raw["clusters"][0]["sat_initial_energy_j"] *= 0.3
        sc = validate_scenario(raw)
        ctx = _Ctx(sc, sc.clusters[0])
        assert "slowest single-window" in str(_battery_lanes(ctx, ctx.a_cap)[1])
        path = tmp_path / "battery.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        rc = main(["--mode", "optimize", "--scenario", str(path),
                   "--grid-oracle", "--out", str(out)])
        assert rc == 0
        dec = json.loads((out / "decision.json").read_text())
        assert dec["tau_round_s"] > optimize(full).report.breakdown.tau_round_s
        assert abs(dec["grid"]["gap_rel"]) <= 0.02
        assert dec["tau_round_s"] <= dec["grid"]["tau_round_s"] * (1.0 + BAND_EPS)


class TestSimulateMode:
    def test_run_layout(self, spec_path, tmp_path):
        out = tmp_path / "run"
        rc = main(["--mode", "simulate", "--scenario", str(spec_path),
                   "--rounds", "4", "--out", str(out)])
        assert rc == 0
        leg = out / "optimized" / "seed0"
        with open(leg / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert [r["round"] for r in rows] == ["0", "1", "2", "3"]
        assert float(rows[-1]["clock_s"]) > float(rows[0]["clock_s"])
        events = events_of((leg / "timeline.jsonl").read_text().splitlines())
        assert any(e["kind"] == "global_agg" for e in events)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["per_series"]["optimized"]["seeds"] == 1

    def test_reruns_are_byte_identical(self, spec_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["--mode", "simulate", "--scenario", str(spec_path),
                       "--rounds", "3", "--seeds", "0,1", "--out", str(out)])
            assert rc == 0
            outs.append(out)
        for seed in ("seed0", "seed1"):
            for fname in ("metrics.csv", "timeline.jsonl"):
                a = read_bytes(outs[0] / "optimized" / seed / fname)
                b = read_bytes(outs[1] / "optimized" / seed / fname)
                assert a == b

    def test_each_seed_s_data_is_dropped_before_the_next_is_prepared(self, spec_path,
                                                                     tmp_path, monkeypatch):
        """A seed's prepared rows are freed once its legs are done, so that
        preparing the next seed's does not hold two seeds' rows at once."""
        prepare, held, alive = orbitfed.cli._prepare, [], []

        def tracked(scenario, seed):
            alive.append(sum(r() is not None for r in held))
            prepared = prepare(scenario, seed)
            held.append(weakref.ref(prepared[0].clients[0].dataset.samples.features))
            return prepared

        monkeypatch.setattr(orbitfed.cli, "_prepare", tracked)
        assert main(["--mode", "simulate", "--scenario", str(spec_path), "--rounds", "1",
                     "--seeds", "0,1,2", "--out", str(tmp_path / "run")]) == 0
        assert alive == [0, 0, 0]

    def test_prox_mu_alone_runs_fedprox(self, spec_path, tmp_path):
        """A nonzero --prox-mu is all FedProx needs: it changes the training
        and so metrics.csv, and leaves the timeline as it is."""
        legs = []
        for name, extra in (("fedavg", []), ("fedprox", ["--prox-mu", "0.5"])):
            out = tmp_path / name
            rc = main(["--mode", "simulate", "--scenario", str(spec_path),
                       "--rounds", "3", "--out", str(out), *extra])
            assert rc == 0
            legs.append(out / "optimized" / "seed0")
        assert read_bytes(legs[0] / "metrics.csv") != read_bytes(legs[1] / "metrics.csv")
        assert read_bytes(legs[0] / "timeline.jsonl") == read_bytes(legs[1] / "timeline.jsonl")

    def test_full_offload_series_name(self, spec_path, tmp_path):
        out = tmp_path / "run"
        rc = main(["--mode", "simulate", "--scenario", str(spec_path),
                   "--baseline", "full_offload", "--rounds", "2",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "alpha_max" / "seed0" / "metrics.csv").exists()


    def test_offload_that_rounds_to_no_samples_trains_clients_only(self, tmp_path):
        """A cluster cap of half a sample rounds every client's offload to
        0 samples, so the satellite pool is empty; the cluster aggregates
        with the fractions realised, all 0, where it raised "positive
        offload weight but no satellite model"."""
        spec = tiny_spec(n_clients=2)
        spec["clusters"][0]["max_offload_samples"] = 0.5
        spec["data"]["samples_per_client"] = 30
        path = tmp_path / "sliver.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "run"
        rc = main(["--mode", "simulate", "--scenario", str(path), "--rounds", "2",
                   "--out", str(out)])
        assert rc == 0
        alpha = json.loads((out / "optimized" / "decision.json").read_text())["decision"]["alpha"]
        assert sum(alpha.values()) > 0.0
        assert all(round(a * 30) == 0 for a in alpha.values())
        with open(out / "optimized" / "seed0" / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 and all(0.0 <= float(r["accuracy"]) <= 1.0 for r in rows)

    def test_offload_stays_within_the_nonsensitive_pool(self, tmp_path, capsys):
        """With half of each client's samples sensitive, the plan offloads
        at most the other half, where the default `max_offload_fraction` of
        0.8 planned 23 of 30 samples against a pool of 15 and `apply_offload`
        raised."""
        spec = json.loads(REFERENCE_SCENARIO.read_text())
        spec["data"].update(sensitive_fraction=0.5, samples_per_client=30)
        path = tmp_path / "sensitive.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "run"
        rc = main(["--mode", "simulate", "--scenario", str(path), "--rounds", "2",
                   "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        alpha = json.loads((out / "optimized" / "decision.json").read_text())["decision"]["alpha"]
        assert max(alpha.values()) > 0.0
        assert all(round(a * 30) <= 15 for a in alpha.values())
        with open(out / "optimized" / "seed0" / "metrics.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 2


def dumps_lines(events):
    return "".join(json.dumps(e, sort_keys=True) + "\n" for e in events)


class TestTimelineWriter:
    def test_real_timelines(self, tmp_path):
        """The timelines of reference `simulate --rounds 3` and of a builder
        scenario that follows explicit coverage schedules are written as the
        simulator formats them, one json.dumps(e, sort_keys=True) line per
        event."""
        out = tmp_path / "ref"
        assert main(["--mode", "simulate", "--scenario", str(REFERENCE_SCENARIO),
                     "--rounds", "3", "--out", str(out)]) == 0
        lines = (out / "optimized" / "seed0" / "timeline.jsonl").read_text()
        assert lines == dumps_lines(json.loads(line) for line in lines.splitlines())

        rng = np.random.default_rng([7272, 1])
        raw = scenario_to_dict(mixed_instance(rng))
        for c in raw["clusters"]:
            c["coverage_intervals"] = random_passes(rng, c["coverage_s"], 40)
        sc = validate_scenario(raw)
        timeline = run_experiment(sc, optimize(sc).decision, rounds=5).timeline
        events = events_of(timeline)
        assert {e["kind"] for e in events} >= {"relay", "sat_compute", "upload", "handoff"}
        path = tmp_path / "timeline.jsonl"
        _write_timeline(path, timeline)
        assert path.read_text() == "".join(timeline) == dumps_lines(events)


class TestSweepMode:
    def test_five_series(self, spec_path, tmp_path):
        out = tmp_path / "run"
        rc = main(["--mode", "sweep", "--scenario", str(spec_path),
                   "--rounds", "3", "--target-acc", "0.5", "--out", str(out)])
        assert rc == 0
        names = ["alpha_0.0", "alpha_0.3", "alpha_0.4", "alpha_0.8", "optimized"]
        for name in names:
            assert (out / name / "seed0" / "metrics.csv").exists()
            assert (out / name / "decision.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert sorted(summary["per_series"]) == names
        assert [r["series"] for r in summary["rows"]] == names

    @pytest.mark.parametrize("field, value, error, message", [
        ("sensitive_fraction", 0.5, "CliError", "sweep series alpha_0.8: offload ratio 0.8 "
                                                "outside [0, 0.5] allowed by the scenario"),
        ("energy_budget_j", 1e-3, "InfeasibleError", "sweep series alpha_0.0: cluster 0: "
                                                     "the client energy budgets need more "
                                                     "than the bandwidth budget at this offload"),
    ])
    def test_refused_series_is_named_before_any_file(self, tmp_path, capsys, field, value,
                                                     error, message):
        """Half the samples sensitive caps every client's offload at 0.5, so
        the sweep's alpha_0.8 series is refused; a client budget of 1 mJ
        refuses every series, the first being alpha_0.0. The error names the
        series, not a flag the sweep was never given, and no series is solved
        into a file before it."""
        spec = tiny_spec()
        if field == "sensitive_fraction":
            spec["data"][field] = value
        else:
            spec["clusters"][0]["clients"][0][field] = value
        path = tmp_path / "refused.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "run"
        rc = main(["--mode", "sweep", "--scenario", str(path), "--rounds", "2",
                   "--out", str(out)])
        assert rc == 1
        (line,) = capsys.readouterr().err.splitlines()
        report = json.loads(line)
        assert (report["error"], report["message"]) == (error, message)
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    def test_pinned_series_share_no_state(self, spec_path, tmp_path):
        # alpha_0.0 must match a standalone terrestrial run bit for bit
        sweep_out = tmp_path / "sweep"
        rc = main(["--mode", "sweep", "--scenario", str(spec_path),
                   "--rounds", "3", "--out", str(sweep_out)])
        assert rc == 0
        solo_out = tmp_path / "solo"
        rc = main(["--mode", "simulate", "--scenario", str(spec_path),
                   "--baseline", "terrestrial_only", "--rounds", "3",
                   "--out", str(solo_out)])
        assert rc == 0
        a = read_bytes(sweep_out / "alpha_0.0" / "seed0" / "metrics.csv")
        b = read_bytes(solo_out / "alpha_0.0" / "seed0" / "metrics.csv")
        assert a == b


class TestPricingOnce:
    @pytest.mark.parametrize("argv, clients, calls", [
        (["--mode", "optimize"], 3, (1, 1)),
        (["--mode", "optimize", "--grid-oracle"], 2, (2, 1)),
        (["--mode", "simulate", "--rounds", "1"], 3, (1, 1)),
        (["--mode", "analyze", "--rounds", "1"], 3, (1, 1)),
        (["--mode", "sweep", "--rounds", "1"], 3, (5, 5)),
    ])
    def test_each_decision_is_priced_and_audited_once(self, tmp_path, monkeypatch,
                                                       argv, clients, calls):
        """Every command prices and audits each decision it writes once: the
        feasibility report carries the breakdown it audited, and the writers
        read it. The grid oracle prices its own decision once more. Both
        functions are wrapped at every module binding, so a call through
        any import is counted."""
        counts = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        mods = [orbitfed] + [importlib.import_module(f"orbitfed.{m}") for m in
                             ("cli", "scenario", "cost", "optimizer", "sim", "fl", "analysis")]
        for fn in (cost.round_latency, check_feasibility):
            wrapper = counted(fn.__name__, fn)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        monkeypatch.setattr(mod, attr, wrapper)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(tiny_spec(n_clients=clients)))
        assert main(argv + ["--scenario", str(path), "--out", str(tmp_path / "run")]) == 0
        assert (counts["round_latency"], counts["check_feasibility"]) == calls
        monkeypatch.undo()
        sc = _prepare(validate_scenario(tiny_spec(n_clients=clients)), 0)[0]
        res = optimize(sc)
        assert res.report.breakdown == cost.round_latency(sc, res.decision)


class TestAnalyzeMode:
    def test_bounds_report(self, spec_path, tmp_path):
        out = tmp_path / "run"
        rc = main(["--mode", "analyze", "--scenario", str(spec_path),
                   "--rounds", "3", "--seeds", "0-1", "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "bounds.json").read_text())
        assert rep["holds_all"] is True
        assert rep["omega"] == 0.0  # full batches by default
        assert set(rep["v_client"]) == {"0", "1", "2"}
        assert "decision" in rep and "v_sat" in rep
        assert "smoothness_certified" in rep

    def test_seeds_are_the_model_seeds(self, spec_path, tmp_path):
        # the data is prepared at the first seed, and each seed given runs
        # the protocol from its own model draw, in order
        reps = {}
        for seeds in ("3,4", "3,9"):
            out = tmp_path / seeds
            assert main(["--mode", "analyze", "--scenario", str(spec_path), "--rounds", "2",
                         "--seeds", seeds, "--out", str(out)]) == 0
            reps[seeds] = json.loads((out / "bounds.json").read_text())
        assert [r["seed"] for r in reps["3,4"]["per_seed"]] == [3, 4]
        assert [r["seed"] for r in reps["3,9"]["per_seed"]] == [3, 9]
        assert reps["3,4"]["per_seed"][0] == reps["3,9"]["per_seed"][0]
        assert reps["3,4"]["per_seed"][1]["f0"] != reps["3,9"]["per_seed"][1]["f0"]
        assert reps["3,4"]["seeds"] == 2

    def test_rerun_writes_identical_bounds(self, spec_path, tmp_path):
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["--mode", "analyze", "--scenario", str(spec_path), "--rounds", "3",
                         "--seeds", "0-1", "--out", str(out)]) == 0
            runs.append((out / "bounds.json").read_bytes())
        assert runs[0] == runs[1]


def write_metrics(path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "clock_s", "accuracy", "loss", "tau_round_s"])
        w.writerows(rows)


class TestSummarizeMode:
    def test_first_crossing_and_sentinel(self, tmp_path, capsys):
        out = tmp_path / "runs"
        write_metrics(out / "fast" / "seed0" / "metrics.csv",
                      [[0, 50.0, 0.30, 1.0, 50.0],
                       [1, 100.0, 0.60, 0.8, 50.0],
                       [2, 150.0, 0.70, 0.7, 50.0]])
        write_metrics(out / "slow" / "seed0" / "metrics.csv",
                      [[0, 80.0, 0.20, 1.2, 80.0],
                       [1, 160.0, 0.40, 1.0, 80.0]])
        rc = main(["--mode", "summarize", "--target-acc", "0.5",
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        by_series = {r["series"]: r for r in summary["rows"]}
        assert by_series["fast/seed0"]["target_clock_s"] == 100.0
        assert by_series["fast/seed0"]["target_round"] == 1
        assert by_series["slow/seed0"]["target_clock_s"] == "not reached"
        shown = capsys.readouterr().out
        assert "not reached" in shown and "100.000 s" in shown

    def test_needs_target(self, tmp_path, capsys):
        rc = main(["--mode", "summarize", "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "target-acc" in err["message"]

    def test_empty_tree_is_an_error(self, tmp_path, capsys):
        rc = main(["--mode", "summarize", "--target-acc", "0.5",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "no metrics.csv" in json.loads(capsys.readouterr().err)["message"]


class TestErrorReporting:
    def test_invalid_scenario_is_structured(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        spec = tiny_spec()
        spec["clusters"][0]["bandwidth_hz"] = -1
        path.write_text(json.dumps(spec))
        rc = main(["--mode", "optimize", "--scenario", str(path),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScenarioError"
        assert err["details"]

    def test_missing_scenario_flag(self, tmp_path, capsys):
        rc = main(["--mode", "optimize", "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "--scenario" in json.loads(capsys.readouterr().err)["message"]

    def test_alpha_fixed_out_of_range(self, spec_path, tmp_path, capsys):
        rc = main(["--mode", "optimize", "--scenario", str(spec_path),
                   "--baseline", "fixed_ratio", "--alpha-fixed", "0.95",
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "outside" in json.loads(capsys.readouterr().err)["message"]

    def test_bad_seed_string_is_structured(self, spec_path, tmp_path, capsys):
        rc = main(["--mode", "optimize", "--scenario", str(spec_path),
                   "--seeds", ",", "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "no seeds" in json.loads(capsys.readouterr().err)["message"]

    def test_reversed_seed_range_is_structured(self, spec_path, tmp_path, capsys):
        rc = main(["--mode", "optimize", "--scenario", str(spec_path),
                   "--seeds", "0,3-1", "--out", str(tmp_path / "run")])
        assert rc == 1
        (line,) = capsys.readouterr().err.splitlines()
        report = json.loads(line)
        assert report["error"] == "CliError" and "'3-1'" in report["message"]

    def test_repeated_seed_is_structured(self, spec_path, tmp_path, capsys):
        run = tmp_path / "run"
        rc = main(["--mode", "simulate", "--scenario", str(spec_path), "--rounds", "2",
                   "--target-acc", "0.1", "--seeds", "0-2,1", "--out", str(run)])
        assert rc == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "CliError",
                                    "message": "seed 1 repeats in '0-2,1'; each seed runs once"}
        assert not run.exists()

    @pytest.mark.parametrize("seeds", ["-3", "abc"])
    def test_negative_or_malformed_seed_is_structured(self, spec_path, tmp_path, capsys, seeds):
        run = tmp_path / "run"
        rc = main(["--mode", "simulate", "--scenario", str(spec_path), "--rounds", "2",
                   "--seeds", seeds, "--out", str(run)])
        assert rc == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {
            "error": "CliError",
            "message": f"seed '{seeds}' is neither a nonnegative integer nor a range of them "
                       "such as 0-9"}
        assert not run.exists()

    @pytest.mark.parametrize("argv, why", [
        (["--mode", "optimize", "--alpha-fixed", "0.3"],
         "--alpha-fixed 0.3 needs --baseline fixed_ratio"),
        (["--mode", "simulate", "--rounds", "2", "--baseline", "full_offload",
          "--alpha-fixed", "0.3"], "--alpha-fixed 0.3 needs --baseline fixed_ratio"),
        (["--mode", "simulate", "--rounds", "2", "--grid-oracle"],
         "--grid-oracle needs --mode optimize"),
        (["--mode", "analyze", "--rounds", "2", "--grid-oracle"],
         "--grid-oracle needs --mode optimize"),
        (["--mode", "sweep", "--rounds", "2", "--baseline", "full_offload"],
         "sweep runs its own five series; it takes no --baseline or --alpha-fixed"),
        (["--mode", "sweep", "--rounds", "2", "--baseline", "fixed_ratio", "--alpha-fixed", "0.3"],
         "sweep runs its own five series; it takes no --baseline or --alpha-fixed"),
        # no mode reads a carried battery level, so no mode takes the flag
        (["--mode", "optimize", "--persistent-battery"],
         "unrecognized arguments: --persistent-battery"),
        (["--mode", "analyze", "--rounds", "2", "--persistent-battery"],
         "unrecognized arguments: --persistent-battery"),
        (["--mode", "summarize", "--target-acc", "0.5", "--persistent-battery"],
         "unrecognized arguments: --persistent-battery"),
        (["--mode", "optimize", "--single-step"],
         "--single-step needs --mode simulate or sweep or analyze"),
        (["--mode", "summarize", "--target-acc", "0.5", "--single-step"],
         "--single-step needs --mode simulate or sweep or analyze"),
        (["--mode", "optimize", "--prox-mu", "0.5"],
         "--prox-mu needs --mode simulate or sweep"),
        (["--mode", "analyze", "--rounds", "2", "--prox-mu", "0.5"],
         "--prox-mu needs --mode simulate or sweep"),
        (["--mode", "summarize", "--target-acc", "0.5", "--prox-mu", "0.5"],
         "--prox-mu needs --mode simulate or sweep"),
        (["--mode", "optimize", "--target-acc", "0.5"],
         "--target-acc needs --mode simulate or sweep or summarize"),
        (["--mode", "analyze", "--rounds", "2", "--target-acc", "0"],
         "--target-acc needs --mode simulate or sweep or summarize"),
        (["--mode", "optimize", "--rounds", "7"],
         "--rounds needs --mode simulate or sweep or analyze"),
        (["--mode", "summarize", "--target-acc", "0.5", "--rounds", "7"],
         "--rounds needs --mode simulate or sweep or analyze"),
        (["--mode", "optimize", "--seeds", "1,2,3"],
         "--seeds needs --mode simulate or sweep or analyze"),
        (["--mode", "summarize", "--target-acc", "0.5", "--seeds", "1"],
         "--seeds needs --mode simulate or sweep or analyze"),
    ], ids=["optimize-alpha", "simulate-alpha", "simulate-grid", "analyze-grid",
            "sweep-baseline", "sweep-alpha", "optimize-battery", "analyze-battery",
            "summarize-battery", "optimize-single-step", "summarize-single-step",
            "optimize-prox", "analyze-prox", "summarize-prox", "optimize-target",
            "analyze-target", "optimize-rounds", "summarize-rounds", "optimize-seeds",
            "summarize-seeds"])
    def test_flags_the_mode_would_ignore_are_refused(self, spec_path, tmp_path, capsys, argv,
                                                      why):
        """A flag that the mode or baseline never reads is an error, not a
        run that records it in the manifest and does something else."""
        run = tmp_path / "run"
        rc = main([*argv, "--scenario", str(spec_path), "--out", str(run)])
        assert rc == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "CliError", "message": why}
        assert not run.exists()

    @pytest.mark.parametrize("argv, why", [
        (["--mode", "simulate", "--rounds", "2", "--persistent-battery"],
         "unrecognized arguments: --persistent-battery"),
        (["--mode", "simulate", "--rounds", "2", "--algorithm", "fedprox"],
         "unrecognized arguments: --algorithm fedprox"),
        (["--mode", "bogus"], "argument --mode: invalid choice: "),
        (["--mode", "simulate", "--rounds", "x"], "argument --rounds: invalid int value: "),
        ([], "the following arguments are required: --mode"),
    ], ids=["persistent-battery", "algorithm", "bad-mode", "bad-rounds", "no-mode"])
    def test_usage_errors_are_one_json_line(self, spec_path, tmp_path, capsys, argv, why):
        """A command line that argparse refuses comes back as one JSON
        error line with exit code 1, like every other error, not as usage
        text and exit code 2. Only the message's start is checked, since
        argparse words the rest differently across Python versions."""
        run = tmp_path / "run"
        rc = main([*argv, "--scenario", str(spec_path), "--out", str(run)])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        report = json.loads(line)
        assert report.keys() == {"error", "message"} and report["error"] == "CliError"
        assert report["message"].startswith(why), report["message"]
        assert not run.exists()

    @pytest.mark.parametrize("clusters, clients, why", [
        (5, None, "5 clusters of 10, 10, 10, 10, 10 clients"),
        (1, None, "1 cluster of 10 clients"),
        (1, 4, "1 cluster of 4 clients"),
    ], ids=["reference", "reference-cluster-0", "four-clients"])
    def test_grid_oracle_refuses_what_the_grid_cannot_search(self, tmp_path, capsys, clusters,
                                                              clients, why):
        """A scenario the grid comparator cannot take is refused before the
        solve runs and before any file is written."""
        raw = json.loads(REFERENCE_SCENARIO.read_text())
        raw["clusters"] = raw["clusters"][:clusters]
        if clients is not None:
            raw["clusters"][0]["clients"] = raw["clusters"][0]["clients"][:clients]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(raw))
        run = tmp_path / "run"
        rc = main(["--mode", "optimize", "--grid-oracle", "--scenario", str(path),
                   "--out", str(run)])
        assert rc == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "CliError", "message": (
            "--grid-oracle: grid comparator works on single-cluster scenarios of at most 3 "
            f"clients; this one has {why}")}
        assert not run.exists()

    @pytest.mark.parametrize("extra, why", [
        (["--rounds", "-3"], "--rounds -3 is not a positive count"),
        (["--rounds", "0"], "--rounds 0 is not a positive count"),
        (["--rounds", "2", "--prox-mu", "-2"],
         "--prox-mu -2.0 is not a finite nonnegative coefficient"),
        (["--rounds", "2", "--prox-mu", "inf"],
         "--prox-mu inf is not a finite nonnegative coefficient"),
    ])
    def test_flag_values_the_run_would_ignore_are_refused(self, spec_path, tmp_path, capsys,
                                                          extra, why):
        rc = main(["--mode", "simulate", "--scenario", str(spec_path),
                   "--out", str(tmp_path / "run"), *extra])
        assert rc == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "CliError", "message": why}
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("mode, target", [
        ("simulate", "nan"), ("simulate", "1.5"), ("sweep", "-0.1"), ("summarize", "inf"),
    ])
    def test_target_accuracy_outside_0_1_is_refused(self, spec_path, tmp_path, capsys, mode,
                                                     target):
        """An accuracy target is a fraction: NaN would be written to
        summary.json, which JSON cannot spell, a target above 1 is never
        reached and one below 0 is crossed at round 0."""
        run = tmp_path / "run"
        rounds = [] if mode == "summarize" else ["--rounds", "2"]
        rc = main(["--mode", mode, "--scenario", str(spec_path), *rounds,
                   "--target-acc", target, "--out", str(run)])
        assert rc == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {
            "error": "CliError",
            "message": f"--target-acc {float(target)} is not an accuracy in [0, 1]"}
        assert not run.exists()

    def run_infeasible(self, spec, tmp_path, capsys, extra=()):
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(spec))
        rc = main(["--mode", "optimize", "--scenario", str(path),
                   "--out", str(tmp_path / "run"), *extra])
        assert rc == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "InfeasibleError"
        return err

    def test_infeasible_budget_reports_its_slack(self, tmp_path, capsys):
        spec = tiny_spec()
        spec["clusters"][0]["clients"][0]["energy_budget_j"] = 1e-3
        err = self.run_infeasible(spec, tmp_path, capsys)
        with pytest.raises(InfeasibleError) as exc:
            optimize(_prepare(validate_scenario(spec), 0)[0])
        assert exc.value.slack < 0
        assert err["slack"] == exc.value.slack

    def test_unbounded_slack_reads_null(self, tmp_path, capsys):
        # a dataless client whose upload alone busts its budget: no offload
        # can help, and the slack is -inf, which JSON cannot spell
        spec = scenario_dict([cluster_dict(0, [
            client_dict(0, 2e8, 0, energy_budget_j=1e-9), client_dict(1, 2e8, 100)])])
        err = self.run_infeasible(spec, tmp_path, capsys)
        assert "slack" in err and err["slack"] is None

    @pytest.mark.parametrize("freq", [1e-310, 1e-300])
    def test_crawling_satellite_clock_offloads_nothing(self, tmp_path, capsys, freq):
        """Any offload to a satellite at 1e-310 Hz needs more handoffs than a
        float counts, and pricing that chain overflowed into an internal
        error. The solver keeps every sample on the ground; the full-offload
        baseline is refused, with the count printed as a float, not the
        300-digit integer it is at 1e-300 Hz."""
        clients = [client_dict(k, 2e8, 600) for k in range(2)]
        spec = scenario_dict([cluster_dict(0, clients, sat_max_freq_hz=freq)])
        path = tmp_path / "crawl.json"
        path.write_text(json.dumps(spec))
        args = ["--mode", "optimize", "--scenario", str(path), "--out", str(tmp_path / "run")]
        assert main(args) == 0
        out = json.loads((tmp_path / "run" / "decision.json").read_text())
        assert out["feasible"] and set(out["decision"]["alpha"].values()) == {0.0}
        capsys.readouterr()
        err = self.run_infeasible(spec, tmp_path, capsys, ["--baseline", "full_offload"])
        assert re.fullmatch(r"cluster 0: offloading 960 samples needs (inf|8\.04328e\+307) "
                            r"satellite handoffs, more than 10000", err["message"])

    def test_internal_fault_is_one_json_line(self, spec_path, tmp_path, capsys, monkeypatch):
        def diverge(plan):
            raise FloatingPointError("non-finite gradient for model stream (2, 0)")
        monkeypatch.setattr(orbitfed.cli, "run", diverge)
        rc = main(["--mode", "simulate", "--scenario", str(spec_path),
                   "--out", str(tmp_path / "run")])
        assert rc != 0
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "internal"
        assert err["kind"] == "FloatingPointError"
        assert "(2, 0)" in err["message"]


SCALED_CLUSTER_FIELDS = (
    "bandwidth_hz", "isl_rate_bps", "coverage_s", "sat_max_freq_hz", "sat_cycles_per_sample",
    "sat_tx_power_w", "sat_initial_energy_j", "sat_min_residual_j", "sun_power_w",
    "energy_coeff", "noise_density_w_per_hz", "sat_distance_m", "sync_delay_s",
    "glob_delay_s")
SCALED_CLIENT_FIELDS = ("cpu_freq_hz", "cycles_per_sample", "tx_power_w", "energy_budget_j")


class TestRandomScenarios:
    def test_optimize_solves_or_reports_infeasible(self, tmp_path, capsys):
        """A scenario that validates either solves with every constraint
        met, or fails as one InfeasibleError JSON line: never an internal
        error or a traceback. The builders' physical fields are scaled by up
        to three decades each way, one factor per field."""
        runs = itertools.count()

        @settings(max_examples=300)
        @given(st.sampled_from([case1_instance, multiwindow_instance, mixed_instance]),
               st.integers(0, 2 ** 32 - 1),
               st.dictionaries(st.sampled_from(SCALED_CLUSTER_FIELDS + SCALED_CLIENT_FIELDS
                                                + ("sample_bits", "param_count")),
                               st.floats(-3.0, 3.0)))
        def check(build, seed, decades):
            def scale(field):
                return 10.0 ** decades.get(field, 0.0)

            raw = scenario_to_dict(build(np.random.default_rng([7070, seed])))
            raw["model"]["sample_bits"] *= scale("sample_bits")
            raw["model"]["param_count"] = max(1, round(raw["model"]["param_count"]
                                                       * scale("param_count")))
            for c in raw["clusters"]:
                for key in SCALED_CLUSTER_FIELDS:
                    c[key] *= scale(key)
                for p in c["clients"]:
                    for key in SCALED_CLIENT_FIELDS:
                        p[key] *= scale(key)
            run = tmp_path / f"run{next(runs)}"
            run.mkdir()
            (run / "scenario.json").write_text(json.dumps(raw))
            rc = main(["--mode", "optimize", "--scenario", str(run / "scenario.json"),
                       "--out", str(run / "out")])
            err = capsys.readouterr().err
            assert "Traceback" not in err
            if rc == 0:
                assert json.loads((run / "out" / "decision.json").read_text())["feasible"]
            else:
                lines = err.strip().splitlines()
                assert len(lines) == 1
                assert json.loads(lines[0])["error"] == "InfeasibleError", lines[0]

        check()


class TestRandomScheduleReplay:
    def test_simulate_solves_or_reports_one_error(self, tmp_path, capsys):
        """A timing-only simulate over builder scenarios, about half of whose
        clusters follow a random explicit coverage schedule, either runs its
        rounds or fails as one InfeasibleError or SimError JSON line: never
        an internal error or a traceback. Physical fields are scaled by up to
        two decades each way, one factor per field."""
        runs = itertools.count()

        @settings(max_examples=300)
        @given(st.sampled_from([case1_instance, multiwindow_instance, mixed_instance]),
               st.integers(0, 2 ** 32 - 1),
               st.dictionaries(st.sampled_from(SCALED_CLUSTER_FIELDS + SCALED_CLIENT_FIELDS),
                               st.floats(-2.0, 2.0)))
        def check(build, seed, decades):
            rng = np.random.default_rng([7171, seed])
            raw = scenario_to_dict(build(rng))
            for c in raw["clusters"]:
                for key in SCALED_CLUSTER_FIELDS:
                    c[key] *= 10.0 ** decades.get(key, 0.0)
                for p in c["clients"]:
                    for key in SCALED_CLIENT_FIELDS:
                        p[key] *= 10.0 ** decades.get(key, 0.0)
                if rng.random() < 0.5:
                    c["coverage_intervals"] = random_passes(rng, c["coverage_s"], 40)
            run = tmp_path / f"run{next(runs)}"
            run.mkdir()
            (run / "scenario.json").write_text(json.dumps(raw))
            rc = main(["--mode", "simulate", "--scenario", str(run / "scenario.json"),
                       "--rounds", "5", "--out", str(run / "out")])
            err = capsys.readouterr().err
            assert "Traceback" not in err
            if rc != 0:
                lines = err.strip().splitlines()
                assert len(lines) == 1
                assert json.loads(lines[0])["error"] in ("InfeasibleError", "SimError"), lines[0]

        check()


class TestConsoleScript:
    def test_installed_entry_point(self, spec_path, tmp_path):
        # Run the console script declared in pyproject.toml the way a
        # generated wrapper does, against the package of this checkout, so
        # no install (and no stray `orbitfed` on PATH) is involved.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["orbitfed"]
        module, attr = target.split(":")
        src_dir = Path(orbitfed.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src_dir), os.environ.get("PYTHONPATH")]))}
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys; from {module} import {attr}; sys.exit({attr}())",
             "--mode", "optimize", "--scenario", str(spec_path),
             "--out", str(out)],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "tau_round" in proc.stdout
        assert (out / "decision.json").exists()
