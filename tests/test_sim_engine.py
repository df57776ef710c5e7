"""Event-level simulation: timing agreement with the closed-form costs,
coverage replay, energy ledger, and training reproducibility."""

import dataclasses
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitfed import cost
from orbitfed.fl import ModelLayout, TrainConfig
from orbitfed.optimizer import (
    DecisionVector,
    InfeasibleError,
    check_feasibility,
    optimize,
    optimize_pinned_alpha,
)
from orbitfed.scenario import apply_offload, prepare_data, scenario_to_dict, validate_scenario
from orbitfed.sim import SimError, _num, init_state, run_experiment, run_round

from conftest import (
    REFERENCE_SCENARIO,
    case1_instance,
    client_dict,
    cluster_dict,
    decades_instance,
    default_init,
    events_of,
    mixed_instance,
    multiwindow_instance,
    random_passes,
    scenario_dict,
)


def chain_cluster(**kw):
    # one client; alpha=0.5 puts 6000 samples on the satellite, and the
    # frequency cap forces a 3-window chain (two handoffs)
    c = client_dict(0, 2e8, 12000, max_offload_fraction=0.5,
                    energy_budget_j=5000.0)
    return cluster_dict(0, [c], isl_rate_bps=3.125e6, sat_max_freq_hz=2e8,
                        coverage_s=360.0, **kw)


def chain_decision(sc):
    return DecisionVector(alpha={0: 0.5}, sat_freq_hz={0: 2e8},
                          bandwidth_hz={0: sc.clusters[0].bandwidth_hz})


def learnable_scenario(seed=0, n_clients=4, alpha=0.3):
    clients = [client_dict(k, 2e8 + 5e7 * k, 0) for k in range(n_clients)]
    spec = scenario_dict(
        [cluster_dict(0, clients)], param_count=36,
        sample_bits=8 * 32 + 32, seed=seed,
        data={"source": "synthetic", "samples_per_client": 120, "classes": 4,
              "dim": 8, "noise": 0.4, "test_samples": 400,
              "partition": "iid", "sensitive_fraction": 0.2,
              "model": {"kind": "logistic"}},
    )
    sc = validate_scenario(spec)
    sc, test = prepare_data(sc)
    sc = apply_offload(sc, {p.id: alpha for p in sc.clients})
    return sc, test


class TestTimingAgreement:
    def test_matches_closed_form_single_window(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            sc = case1_instance(rng, n_clients=3)
            d = optimize(sc).decision
            rec = run_round(init_state(sc, d))
            want = cost.round_latency(sc, d).tau_round_s
            assert rec.tau_round_s == pytest.approx(want, abs=1e-9, rel=1e-12)

    def test_matches_closed_form_multiwindow(self):
        rng = np.random.default_rng(22)
        for _ in range(8):
            sc = multiwindow_instance(rng, n_clients=2)
            d = default_init(sc)
            rec = run_round(init_state(sc, d))
            want = cost.round_latency(sc, d).tau_round_s
            assert rec.tau_round_s == pytest.approx(want, abs=1e-9, rel=1e-12)

    def test_fixed_period_replay_equals_model(self):
        """Every fixed-period round replays the cost model: the round time
        and, per cluster, the handoff count, the client path and its regime.
        Slices scaled down by up to 1e7 stretch the uploads, so the drawn
        rounds reach all three regimes."""
        seen = set()

        @settings(max_examples=200)
        @given(st.sampled_from([(case1_instance, False), (case1_instance, True),
                                (multiwindow_instance, False), (mixed_instance, False)]),
               st.integers(0, 2 ** 32 - 1), st.floats(-7.0, 0.0))
        def check(family, seed, squeeze):
            build, optimized = family
            sc = build(np.random.default_rng([5151, seed]))
            d = optimize(sc).decision if optimized else default_init(sc)
            d = DecisionVector(d.alpha, d.sat_freq_hz,
                               {k: b * 10.0 ** squeeze for k, b in d.bandwidth_hz.items()})
            want = cost.round_latency(sc, d)
            for rec in run_experiment(sc, d, rounds=3).records:
                assert rec.tau_round_s == pytest.approx(want.tau_round_s, abs=1e-9, rel=1e-12)
                for cc in want.clusters:
                    log = rec.clusters[cc.cluster_id]
                    assert (log.n_handoffs, log.y_case) == (cc.n_handoffs, cc.y_case)
                    assert log.y_s == pytest.approx(cc.y_s, abs=1e-9, rel=1e-12)
                    seen.add(cc.y_case)

        check()
        assert seen == {1, 2, 3}

    def test_optimized_chains_replay_as_priced(self):
        # an exact optimum can end a relay chain right on a window boundary
        # (multiwindow [5151, 96] does), where the replay hands off within
        # 1e-9 of a full window; the solve keeps clear of that band
        for i in range(100):
            for build in (multiwindow_instance, mixed_instance):
                sc = build(np.random.default_rng([5151, i]))
                try:
                    d = optimize(sc).decision
                except InfeasibleError:
                    continue
                want = cost.round_latency(sc, d)
                rec = run_experiment(sc, d, rounds=1).records[0]
                assert rec.tau_round_s == pytest.approx(want.tau_round_s, abs=1e-9, rel=1e-12)
                for cc in want.clusters:
                    assert rec.clusters[cc.cluster_id].n_handoffs == cc.n_handoffs

    def test_final_window_within_the_band_hands_off_as_replayed(self):
        # a pinned clock leaves the final window 1e-10 of its cycles short
        # of full: the model, like the replay, counts it used up, and one
        # more satellite only relays
        sc = validate_scenario(scenario_dict([chain_cluster()], param_count=100000))
        c = sc.clusters[0]
        tau_tr = cost.isl_transfer_latency(sc.footprint, 6000.0, c.isl_rate_bps)
        f = c.sat_cycles_per_sample * 6000.0 / ((2.0 - 1e-10) * (c.coverage_s - tau_tr))
        d = DecisionVector({0: 0.5}, {0: f}, {0: c.bandwidth_hz})
        want = cost.round_latency(sc, d)
        rec = run_experiment(sc, d, rounds=1).records[0]
        assert want.clusters[0].n_handoffs == rec.clusters[0].n_handoffs == 2
        assert rec.tau_round_s == want.tau_round_s

    def test_every_round_agrees_over_many(self):
        rng = np.random.default_rng(23)
        sc = mixed_instance(rng)
        d = default_init(sc)
        state = init_state(sc, d)
        want = cost.round_latency(sc, d).tau_round_s
        for _ in range(20):
            rec = run_round(state)
            assert rec.tau_round_s == pytest.approx(want, abs=1e-9, rel=1e-12)


class TestEvents:
    def test_no_offload_means_no_satellite_compute(self):
        sc = validate_scenario(scenario_dict(
            [cluster_dict(0, [client_dict(k, 2e8, 1000) for k in range(3)])]))
        d = DecisionVector(alpha={k: 0.0 for k in range(3)},
                           sat_freq_hz={0: 1e9},
                           bandwidth_hz={k: 1e6 / 3 for k in range(3)})
        lines = []
        run_round(init_state(sc, d), events_out=lines)
        events = events_of(lines)
        kinds = {e["kind"] for e in events}
        assert "sat_compute" not in kinds
        assert "relay" in kinds  # the state still crosses the ISL

    def test_two_handoffs_engage_three_satellites(self):
        sc = validate_scenario(scenario_dict([chain_cluster()],
                                             param_count=100000))
        d = chain_decision(sc)
        lines = []
        rec = run_round(init_state(sc, d), events_out=lines)
        events = events_of(lines)
        log = rec.clusters[0]
        assert log.n_handoffs == 2
        assert log.n_windows == 3
        windows = {e["window"] for e in events if e["kind"] == "sat_compute"}
        assert windows == {0, 1, 2}
        handoffs = [e for e in events if e["kind"] == "handoff"]
        assert [(h["from_sat"], h["to_sat"]) for h in handoffs] == [(0, 1), (1, 2)]

    def test_short_window_logs_relay_only(self):
        # 5 s of coverage cannot even fit the 13.07 s relay; the window is
        # burned on relaying and the chain moves on
        spec = scenario_dict([chain_cluster(
            coverage_intervals=[[0, 5], [5, 365], [365, 725], [725, 1085],
                                [1085, 1445], [1445, 1805]],
        )], param_count=100000)
        sc = validate_scenario(spec)
        d = chain_decision(sc)
        lines = []
        rec = run_round(init_state(sc, d), events_out=lines)
        events = events_of(lines)
        first = [e for e in events if e["kind"] == "relay" and e["window"] == 0]
        assert first[0]["relay_only"] is True
        assert rec.clusters[0].sat_cycles == pytest.approx(
            rec.clusters[0].target_cycles, rel=1e-12)

    def test_zero_rounds_is_empty(self):
        rng = np.random.default_rng(24)
        sc = case1_instance(rng)
        res = run_experiment(sc, default_init(sc), rounds=0)
        assert res.metrics == ()
        assert res.timeline == ()
        assert math.isnan(res.final_accuracy)


    def test_relay_only_chain_on_a_crawling_clock_keeps_its_window(self):
        """At 1e-300 Hz a window holds under 1e-9 cycles. A chain with
        nothing offloaded still ends in the first window, as
        cost.relay_chain prices it; it used to hand off on every window up
        to its 10,000,000-window guard."""
        clients = [client_dict(k, 2e8, 600) for k in range(2)]
        sc = validate_scenario(scenario_dict(
            [cluster_dict(0, clients, sat_max_freq_hz=1e-300)]))
        d = DecisionVector(alpha={0: 0.0, 1: 0.0}, sat_freq_hz={0: 1e-300},
                           bandwidth_hz={0: 5e5, 1: 5e5})
        res = run_experiment(sc, d, rounds=3)
        assert not any(e["kind"] == "handoff" for e in events_of(res.timeline))
        want = cost.round_latency(sc, d).tau_round_s
        for rec in res.records:
            assert (rec.clusters[0].n_windows, rec.clusters[0].n_handoffs) == (1, 0)
            assert rec.tau_round_s == pytest.approx(want, abs=1e-9, rel=1e-12)

    def test_relay_only_chain_hands_off_a_window_too_short_for_the_relay(self):
        # the 10.24 ms relay does not fit the first 5 ms pass
        clients = [client_dict(k, 2e8, 600) for k in range(2)]
        sc = validate_scenario(scenario_dict([cluster_dict(
            0, clients, sat_max_freq_hz=1e-300,
            coverage_intervals=[[0, 0.005], [10, 370], [380, 740]])]))
        d = DecisionVector(alpha={0: 0.0, 1: 0.0}, sat_freq_hz={0: 1e-300},
                           bandwidth_hz={0: 5e5, 1: 5e5})
        lines = []
        rec = run_round(init_state(sc, d), events_out=lines)
        events = events_of(lines)
        assert (rec.clusters[0].n_windows, rec.clusters[0].n_handoffs) == (2, 1)
        relays = [e for e in events if e["kind"] == "relay"]
        assert [e["relay_only"] for e in relays] == [True, False]

    def test_fixed_window_shorter_than_the_relay_is_reported(self):
        # every fixed window is alike, so a relay-only chain on 5 ms windows
        # and its 10.24 ms relay would be handed off forever
        clients = [client_dict(k, 2e8, 600) for k in range(2)]
        sc = validate_scenario(scenario_dict(
            [cluster_dict(0, clients, coverage_s=0.005)]))
        d = DecisionVector(alpha={0: 0.0, 1: 0.0}, sat_freq_hz={0: 1e9},
                           bandwidth_hz={0: 5e5, 1: 5e5})
        with pytest.raises(SimError, match="never ends"):
            run_round(init_state(sc, d))

    def test_fixed_windows_that_compute_nothing_are_refused_up_front(self):
        """An offload at a stopped clock would hand every fixed window off
        unused: the state refuses it before a round is walked."""
        clients = [client_dict(k, 2e8, 600) for k in range(2)]
        sc = validate_scenario(scenario_dict([cluster_dict(0, clients)]))
        d = DecisionVector(alpha={0: 0.5, 1: 0.5}, sat_freq_hz={0: 0.0},
                           bandwidth_hz={0: 5e5, 1: 5e5})
        with pytest.raises(SimError, match="cluster 0: .* never ends"):
            init_state(sc, d)

    @pytest.mark.parametrize("freq", [1e-300, 1e-310, 1.0])
    def test_fixed_chain_past_the_handoff_limit_is_refused_before_the_walk(self, freq):
        """Offloading 600 samples to a crawling clock needs far more handoffs
        than the solver allows: about 5e7 at 1 Hz, 5e307 at 1e-300 Hz, and
        more than a float holds at 1e-310 Hz. At 1e-300 Hz the walk used to
        take two events a window for about 10 minutes."""
        clients = [client_dict(k, 2e8, 600) for k in range(2)]
        sc = validate_scenario(scenario_dict(
            [cluster_dict(0, clients, sat_max_freq_hz=1e-300)]))
        d = DecisionVector(alpha={0: 0.5, 1: 0.5}, sat_freq_hz={0: freq},
                           bandwidth_hz={0: 5e5, 1: 5e5})
        t0 = time.perf_counter()
        with pytest.raises(SimError, match=r"cluster 0: .* satellite handoffs .* more than 10000"):
            run_experiment(sc, d, rounds=2)
        assert time.perf_counter() - t0 < 1.0

    def test_event_values_are_plain_python(self):
        """Every timeline line parses to an event whose values are floats,
        ints, bools or strings. Slices scaled down stretch the uploads, so
        all three regimes are replayed."""
        rng = np.random.default_rng(27)
        ref = validate_scenario(json.loads(REFERENCE_SCENARIO.read_text()))
        runs = [(ref, optimize(ref).decision)]
        for squeeze in (0.0, -3.0, -5.0, -7.0):
            for build in (case1_instance, multiwindow_instance, mixed_instance):
                sc = build(rng)
                d = default_init(sc)
                runs.append((sc, DecisionVector(
                    d.alpha, d.sat_freq_hz,
                    {k: b * 10.0 ** squeeze for k, b in d.bandwidth_hz.items()})))
        explicit = validate_scenario(scenario_dict([chain_cluster(
            coverage_intervals=random_passes(rng, 360.0, 40))], param_count=100000))
        runs.append((explicit, chain_decision(explicit)))
        regimes = set()
        for sc, d in runs:
            res = run_experiment(sc, d, rounds=3)
            regimes |= {log.y_case for rec in res.records for log in rec.clusters.values()}
            types = {type(v) for e in events_of(res.timeline) for v in e.values()}
            assert types <= {float, int, bool, str}, types
        assert regimes == {1, 2, 3}


SPECIAL_NUMBERS = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308 / 3, -1e-310, math.nan, math.inf,
                   -math.inf, 1e300, -1e300, 1.0, 0.1, 1e16, 1e-7, np.float64(0.1),
                   np.float64(-0.0), np.float64(math.nan), np.float64(-math.inf),
                   np.float64(5e-324), True, False, 0, 1, -1, 2 ** 70, -2 ** 70, 10 ** 400)


class TestTimelineLines:
    def test_number_formatter_matches_json_dumps(self):
        """Every number in a timeline line is formatted as json.dumps would:
        signed zeros, subnormals, NaN, infinities, huge floats, np.float64,
        bools and negative and big ints."""
        for v in SPECIAL_NUMBERS:
            assert _num(v) == json.dumps(v), v

        @settings(max_examples=500)
        @given(st.one_of(st.floats(), st.floats().map(np.float64), st.booleans(),
                         st.integers(), st.integers(-2 ** 80, 2 ** 80)))
        def check(v):
            assert _num(v) == json.dumps(v)

        check()

    def test_lines_equal_json_dumps(self):
        """Every line the simulator writes is json.dumps(e, sort_keys=True)
        of the event it parses to. Builder scenarios replay all three
        regimes (slices scaled down stretch the uploads), and explicit
        schedules with short passes replay relay-only windows and handoffs."""
        seen = set()

        @settings(max_examples=100)
        @given(st.sampled_from([case1_instance, multiwindow_instance, mixed_instance]),
               st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, -3.0, -5.0, -7.0]),
               st.booleans())
        def check(build, seed, squeeze, explicit):
            rng = np.random.default_rng([7373, seed])
            raw = scenario_to_dict(build(rng))
            if explicit:
                for c in raw["clusters"]:
                    c["coverage_intervals"] = random_passes(rng, c["coverage_s"], 60)
            sc = validate_scenario(raw)
            d = default_init(sc)
            d = DecisionVector(d.alpha, d.sat_freq_hz,
                               {k: b * 10.0 ** squeeze for k, b in d.bandwidth_hz.items()})
            res = run_experiment(sc, d, rounds=3)
            for line in res.timeline:
                assert line == json.dumps(json.loads(line), sort_keys=True) + "\n"
            seen.update(f"case {log.y_case}" for rec in res.records
                        for log in rec.clusters.values())
            seen.update(e["kind"] + ("-only" if e.get("relay_only") else "")
                        for e in events_of(res.timeline))

        check()
        assert seen == {"case 1", "case 2", "case 3", "sync", "relay", "relay-only",
                        "sat_compute", "handoff", "client_compute", "upload", "cluster_agg",
                        "global_agg"}


def priced_decisions(sc, rng):
    """The optimized decision of a scenario and one pinned to random offloads,
    each with its audit; a decision the solver refuses is left out."""
    alpha = {p.id: float(rng.uniform(0.0, p.max_offload_fraction)) for p in sc.clients}
    for solve in (lambda: optimize(sc).decision, lambda: optimize_pinned_alpha(sc, alpha)):
        try:
            d = solve()
        except InfeasibleError:
            continue
        yield d, check_feasibility(sc, d)


class TestLowestPointReplay:
    """Optimized and pinned decisions on scenarios whose satellites span
    decades of sun power, relay power, clock, work and battery."""

    def test_feasible_decisions_stay_above_the_floor(self):
        """A decision reported feasible replays no window whose lowest level
        is below psi. The draws reach sunlit relays and clocks that draw
        more than the relay, and chains that hand off."""
        seen = set()

        @settings(max_examples=150)
        @given(st.integers(0, 2 ** 32 - 1))
        def check(seed):
            rng = np.random.default_rng([6363, seed])
            sc = decades_instance(rng)
            for d, report in priced_decisions(sc, rng):
                if not report.ok:
                    continue
                rec = run_experiment(sc, d, rounds=1).records[0]
                for c in sc.clusters:
                    psi = c.sat_min_residual_j
                    for w in rec.clusters[c.id].energy:
                        assert w.battery_ok and w.lowest_j >= psi - 1e-9 * max(1.0, psi)
                    f = d.sat_freq_hz[c.id]
                    seen.add(("sunlit", c.sun_facing))
                    seen.add(("compute over the relay", c.energy_coeff * f ** 3 > c.sat_tx_power_w))
                    seen.add(("hands off", rec.clusters[c.id].n_handoffs > 0))

        check()
        assert seen == {(k, v) for k in ("sunlit", "compute over the relay", "hands off")
                        for v in (False, True)}

    def test_decisions_replay_the_handoffs_priced(self):
        """Every optimized or pinned decision replays the handoff count and
        the round time `cost.round_latency` priced."""
        counts = set()

        @settings(max_examples=150)
        @given(st.integers(0, 2 ** 32 - 1))
        def check(seed):
            rng = np.random.default_rng([6464, seed])
            sc = decades_instance(rng)
            for d, report in priced_decisions(sc, rng):
                rec = run_experiment(sc, d, rounds=1).records[0]
                want = report.breakdown
                assert rec.tau_round_s == pytest.approx(want.tau_round_s, abs=1e-9, rel=1e-12)
                for cc in want.clusters:
                    assert rec.clusters[cc.cluster_id].n_handoffs == cc.n_handoffs
                    counts.add(min(cc.n_handoffs, 2))

        check()
        assert counts == {0, 1, 2}

    def test_lowest_ledger_point_is_the_closed_form_margin(self):
        """On fixed windows the lowest level of a replayed round's ledger,
        less psi, is `ClusterModel.battery_margin` at the decision's offload
        and clock, to 1e-12 of the initial charge: the closed form checks
        the battery at the points the ledger walks. Optimized decisions and
        decisions pinned at 0.3 and at 0.8 (or each client's cap, if lower),
        on the reference and on builder scenarios."""
        seen = set()

        def check_scenario(sc):
            decisions = []
            for share in (None, 0.3, 0.8):
                try:
                    decisions.append(optimize(sc).decision if share is None else
                                     optimize_pinned_alpha(sc, {
                                         p.id: min(share, p.max_offload_fraction)
                                         for p in sc.clients}))
                except InfeasibleError:
                    continue
                seen.add(share)
            for d in decisions:
                rec = run_experiment(sc, d, rounds=1).records[0]
                for c in sc.clusters:
                    model = cost.ClusterModel(sc, c)
                    a = model.offloaded(model.per_client(d.alpha))
                    want = model.battery_margin(a, d.sat_freq_hz[c.id])
                    log = rec.clusters[c.id]
                    got = min(w.lowest_j for w in log.energy) - c.sat_min_residual_j
                    assert got == pytest.approx(want, rel=0.0,
                                                abs=1e-12 * c.sat_initial_energy_j)
                    seen.add(("hands off", log.n_handoffs > 0))
                    seen.add(("sunlit", c.sun_facing))

        check_scenario(validate_scenario(json.loads(REFERENCE_SCENARIO.read_text())))

        @settings(max_examples=60)
        @given(st.sampled_from([case1_instance, multiwindow_instance, mixed_instance,
                                decades_instance]),
               st.integers(0, 2 ** 32 - 1))
        def check(build, seed):
            check_scenario(build(np.random.default_rng([6565, seed])))

        check()
        assert seen == {None, 0.3, 0.8, *((k, v) for k in ("hands off", "sunlit")
                                                  for v in (False, True))}


class TestCoverageReplay:
    def test_explicit_uniform_schedule_equals_fixed(self):
        fixed = validate_scenario(scenario_dict([chain_cluster()],
                                                param_count=100000))
        t = 360.0
        intervals = [[k * t, (k + 1) * t] for k in range(12)]
        explicit = validate_scenario(scenario_dict(
            [chain_cluster(coverage_intervals=intervals)], param_count=100000))
        d = chain_decision(fixed)
        a = run_experiment(fixed, d, rounds=3)
        b = run_experiment(explicit, d, rounds=3)
        for ra, rb in zip(a.records, b.records):
            assert rb.tau_round_s == pytest.approx(ra.tau_round_s, rel=1e-12)
            assert rb.clusters[0].n_handoffs == ra.clusters[0].n_handoffs

    def test_longer_dwells_change_handoffs_not_cycles(self):
        fixed = validate_scenario(scenario_dict([chain_cluster()],
                                                param_count=100000))
        # longer passes let the same workload finish in fewer windows
        intervals = []
        start = 0.0
        for k in range(14):
            dwell = 360.0 if k % 2 else 600.0
            intervals.append([start, start + dwell])
            start += dwell + 30.0
        explicit = validate_scenario(scenario_dict(
            [chain_cluster(coverage_intervals=intervals)], param_count=100000))
        d = chain_decision(fixed)
        a = run_experiment(fixed, d, rounds=3)
        b = run_experiment(explicit, d, rounds=3)
        for ra, rb in zip(a.records, b.records):
            la, lb = ra.clusters[0], rb.clusters[0]
            assert lb.sat_cycles == pytest.approx(la.sat_cycles, rel=1e-12)
        assert any(rb.clusters[0].n_handoffs != ra.clusters[0].n_handoffs
                   for ra, rb in zip(a.records, b.records))

    @pytest.mark.parametrize("straggler_hz, case, starts", [
        (1e8, 2, (151.0, 181.0)),  # ready at 181 s: each at max(pass start, ready)
        (7.5e7, 3, (401.0, 401.0)),  # ready at 241 s, its upload ends past 251 s
    ])
    def test_upload_starts_on_a_gappy_schedule(self, straggler_hz, case, starts):
        """On passes [0, 100], [150, 250], [400, 500], [600, 700] from the
        path start at 1 s, a relay-only chain ends in the first pass and the
        clients, ready at 51 s and later, upload in the straggler's pass. In
        case 3 they wait for the next pass's start, not its end.

        A round uses up every pass it looked at. Case 2 looks at two passes
        a round, so two rounds replay and the third finds the schedule
        exhausted; case 3's look-ahead uses the third pass too, so the
        second round finds it exhausted."""
        clients = [client_dict(0, 3.6e8, 600), client_dict(1, straggler_hz, 600)]
        sc = validate_scenario(scenario_dict([cluster_dict(
            0, clients, coverage_intervals=[[0, 100], [150, 250], [400, 500], [600, 700]])]))
        d = DecisionVector(alpha={0: 0.0, 1: 0.0}, sat_freq_hz={0: 1e9},
                           bandwidth_hz={0: 100.0, 1: 100.0})
        state = init_state(sc, d)
        lines = []
        rec = run_round(state, events_out=lines)
        events = events_of(lines)
        assert (rec.clusters[0].n_handoffs, rec.clusters[0].y_case) == (0, case)
        assert tuple(e["t_s"] for e in events if e["kind"] == "upload") == starts
        if case == 2:
            again = run_round(state).clusters[0]
            assert (again.n_windows, again.y_case) == (1, 2)
        with pytest.raises(SimError, match="cluster 0: coverage schedule exhausted"):
            run_round(state)

    def test_exhausted_schedule_is_reported(self):
        spec = scenario_dict([chain_cluster(
            coverage_intervals=[[0, 360], [360, 720]])], param_count=100000)
        sc = validate_scenario(spec)
        with pytest.raises(SimError, match="cluster 0: coverage schedule exhausted"):
            run_experiment(sc, chain_decision(sc), rounds=2)


class TestConservation:
    def test_cycles_conserved_across_rounds(self):
        rng = np.random.default_rng(25)
        for _ in range(5):
            sc = multiwindow_instance(rng)
            d = default_init(sc)
            res = run_experiment(sc, d, rounds=4)
            for rec in res.records:
                for log in rec.clusters.values():
                    assert log.sat_cycles == pytest.approx(
                        log.target_cycles, rel=1e-12)
            event_total = sum(e["cycles"] for e in events_of(res.timeline)
                              if e["kind"] == "sat_compute")
            record_total = sum(log.sat_cycles for rec in res.records
                               for log in rec.clusters.values())
            assert event_total == pytest.approx(record_total, rel=1e-12)

    def test_ledger_identity_per_window(self):
        rng = np.random.default_rng(26)
        sc = multiwindow_instance(rng)
        cluster = sc.clusters[0]
        d = default_init(sc)
        res = run_experiment(sc, d, rounds=3)
        for rec in res.records:
            for w in rec.clusters[cluster.id].energy:
                want = cluster.sat_initial_energy_j - w.consumed_j + w.charged_j
                assert w.residual_j == pytest.approx(want, rel=1e-9)

    def test_battery_ledger_identity(self):
        """Every window's residual is the initial charge, with which each
        window's satellite starts, less what it consumed plus what it
        charged; battery_ok says whether its lowest level over the window
        stays at psi. A floor psi raised anywhere up to the initial charge
        leaves some windows below it."""
        seen = set()

        @settings(max_examples=120)
        @given(st.sampled_from([case1_instance, multiwindow_instance, mixed_instance]),
               st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0), st.integers(1, 6))
        def check(build, seed, floor, rounds):
            sc = build(np.random.default_rng([5252, seed]))
            d = default_init(sc)
            sc = dataclasses.replace(sc, clusters=tuple(
                dataclasses.replace(c, sat_min_residual_j=floor * c.sat_initial_energy_j)
                for c in sc.clusters))
            res = run_experiment(sc, d, rounds=rounds)
            for c in sc.clusters:
                e0, psi = c.sat_initial_energy_j, c.sat_min_residual_j
                for rec in res.records:
                    for w in rec.clusters[c.id].energy:
                        assert w.residual_j == pytest.approx(e0 - w.consumed_j + w.charged_j,
                                                             rel=1e-12, abs=1e-9)
                        assert w.lowest_j <= min(e0, w.residual_j)
                        assert w.battery_ok == (w.lowest_j >= psi - 1e-9 * max(1.0, psi))
                        seen.add(w.battery_ok)

        check()
        assert seen == {False, True}


class TestTraining:
    def test_identical_seeds_identical_runs(self):
        sc, test = learnable_scenario(seed=3)
        d = default_init(sc)
        layout = ModelLayout("logistic", (8, 4))
        cfg = TrainConfig(eta0=0.2, seed=3)
        a = run_experiment(sc, d, rounds=5, config=cfg, layout=layout, test_set=test)
        b = run_experiment(sc, d, rounds=5, config=cfg, layout=layout, test_set=test)
        assert a.metrics == b.metrics

    def test_model_path_ignores_satellite_timing(self):
        # the chain length changes the clock, never the learned weights
        sc, test = learnable_scenario(seed=4)
        layout = ModelLayout("logistic", (8, 4))
        cfg = TrainConfig(eta0=0.2, seed=4)
        base = default_init(sc)
        slow = DecisionVector(base.alpha,
                              {0: base.sat_freq_hz[0] / 1000.0}, base.bandwidth_hz)
        a = run_experiment(sc, base, rounds=5, config=cfg, layout=layout, test_set=test)
        b = run_experiment(sc, slow, rounds=5, config=cfg, layout=layout, test_set=test)
        assert [m["accuracy"] for m in a.metrics] == [m["accuracy"] for m in b.metrics]
        assert [m["loss"] for m in a.metrics] == [m["loss"] for m in b.metrics]
        assert a.metrics[-1]["clock_s"] < b.metrics[-1]["clock_s"]

    def test_accuracy_improves_on_learnable_data(self):
        sc, test = learnable_scenario(seed=5)
        d = default_init(sc)
        layout = ModelLayout("logistic", (8, 4))
        cfg = TrainConfig(eta0=0.3, momentum=0.9, seed=5)
        res = run_experiment(sc, d, rounds=12, config=cfg, layout=layout, test_set=test)
        accs = [m["accuracy"] for m in res.metrics]
        assert accs[-1] > 0.8
        assert accs[-1] > accs[0]

    def test_missing_datasets_are_reported(self):
        rng = np.random.default_rng(27)
        sc = case1_instance(rng)
        with pytest.raises(SimError, match="no attached dataset"):
            run_experiment(sc, default_init(sc), rounds=1,
                           layout=ModelLayout("logistic", (8, 4)))

    def test_layout_must_match_footprint(self):
        sc, test = learnable_scenario(seed=6)
        with pytest.raises(SimError, match="footprint"):
            run_experiment(sc, default_init(sc), rounds=1,
                           layout=ModelLayout("mlp", (16, 12, 10)), test_set=test)
