"""Resource allocation blocks and the per-cluster solve."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orbitfed import cost, optimizer
from orbitfed.optimizer import (
    BAND_EPS,
    GRID_RTOL,
    DecisionVector,
    InfeasibleError,
    _Ctx,
    _Lattice,
    _battery_freq,
    _battery_lanes,
    _client_paths,
    _contexts,
    bisect,
    check_feasibility,
    grid_search_cluster,
    battery_freq_closed_form,
    optimize,
    optimize_pinned_alpha,
    solve_alpha,
    solve_bandwidth,
    solve_freq,
    upload_bandwidth,
)
from orbitfed.scenario import scenario_to_dict, validate_scenario
from orbitfed.sim import run_experiment

from conftest import (
    REFERENCE_SCENARIO,
    case1_instance,
    client_dict,
    cluster_dict,
    decades_instance,
    default_init,
    mixed_instance,
    multiwindow_instance,
    scenario_dict,
)


def two_client_scenario(freqs=(2e8, 2e8), sizes=(1000, 1000), **client_kw):
    clients = [client_dict(k, f, s, **client_kw)
               for k, (f, s) in enumerate(zip(freqs, sizes))]
    return validate_scenario(scenario_dict([cluster_dict(0, clients)]))


def handoff_scenario():
    # one cluster whose offloaded work spans several coverage windows
    clients = [client_dict(k, f, 3000)
               for k, f in enumerate(np.geomspace(1e8, 4e8, 6))]
    return validate_scenario(scenario_dict(
        [cluster_dict(0, clients, coverage_s=120.0, sat_max_freq_hz=1e9,
                      isl_rate_bps=1e6)],
        param_count=334, sample_bits=544))


class TestUploadBandwidth:
    S = 10688.0  # state bits
    C = 5e7  # SNR numerator p d^-xi / N0

    def tau(self, b, c=C):
        return self.S / (b * np.log2(1.0 + c / b))

    def test_round_trip_scalar_and_vector(self):
        b = self.C / np.geomspace(1e-3, 1e6, 2001)  # c / b from 1e-3 to 1e6
        t = self.tau(b)
        got = upload_bandwidth(self.S, self.C, t)
        assert np.max(np.abs(self.tau(got) / t - 1.0)) <= 1e-12
        # the slice itself is well conditioned once c / b >= 1
        well = self.C / b >= 1.0
        assert np.max(np.abs(got[well] / b[well] - 1.0)) <= 1e-12
        for tk, gk in zip(t[::50], got[::50]):
            one = upload_bandwidth(self.S, self.C, float(tk))
            assert isinstance(one, float)
            assert one == gk

    def test_result_is_the_least_feasible_slice(self):
        rng = np.random.default_rng(11)
        c = 10.0 ** rng.uniform(5, 9, 5000)
        t = self.S * math.log(2.0) / c * (1.0 + 10.0 ** rng.uniform(-9, 4, 5000))
        b = upload_bandwidth(self.S, c, t)
        assert np.all(np.isfinite(b)) and np.all(b > 0)
        assert np.all(self.tau(b, c) <= t)
        well = c / b >= 1.0  # where the slice is well conditioned
        assert np.all(self.tau(b[well] * (1.0 - 1e-9), c[well]) > t[well])
        for ck, tk, bk in zip(c[::250], t[::250], b[::250]):
            one = upload_bandwidth(self.S, float(ck), float(tk))
            assert one == bk and self.tau(one, ck) <= tk

    def test_unattainable_targets_read_inf(self):
        floor = self.S * math.log(2.0) / self.C  # upload time at infinite bandwidth
        bad = [0.0, -1.0, floor, floor * (1.0 - 1e-9)]
        for t in bad:
            assert upload_bandwidth(self.S, self.C, t) == math.inf
        got = upload_bandwidth(self.S, self.C, np.array(bad + [floor * (1.0 + 1e-6)]))
        assert np.all(got[:-1] == math.inf)
        assert np.isfinite(got[-1]) and self.tau(got[-1]) <= floor * (1.0 + 1e-6)
        # just above the floor the forward formula itself rounds coarsely;
        # whatever comes back still meets the target
        near = floor * (1.0 + 10.0 ** -np.arange(4.0, 17.0))
        got = upload_bandwidth(self.S, self.C, near)
        assert np.all(self.tau(got[np.isfinite(got)]) <= near[np.isfinite(got)])


def lattice_instance(n_clients, capped, slow=False, sizes=None, seed=0):
    # a cluster cap at half the clients' own caps drops about half the
    # lattice; slow client k keeps its full local pass for 2.5 + 0.7 k
    # coverage windows, so the straggler's window varies over the lattice;
    # sizes replaces the clients' dataset sizes (1000 and 1200 on 2 clients)
    sc = case1_instance(np.random.default_rng([4204, seed]), n_clients=n_clients,
                        grid_sizes=True, alpha_max=0.12 if n_clients == 3 else None)
    if sizes is not None:
        sc = sc.with_clients([dataclasses.replace(p, dataset_size=n)
                              for p, n in zip(sc.clients, sizes)])
    if slow:
        T = sc.clusters[0].coverage_s
        sc = sc.with_clients([dataclasses.replace(
            p, cpu_freq_hz=p.cycles_per_sample * p.size / ((2.5 + 0.7 * k) * T))
            for k, p in enumerate(sc.clients)])
    if capped:
        c = sc.clusters[0]
        cap = sum(p.max_offload_fraction * p.size for p in sc.cluster_clients(c.id))
        sc = dataclasses.replace(
            sc, clusters=(dataclasses.replace(c, max_offload_samples=cap / 2),))
    return sc


def handoff_instance(seed=5):
    # two dark clients whose chains hand off over the lattice (once at the
    # winner of seed 5, at step 1e-2)
    return multiwindow_instance(np.random.default_rng([4300, seed]), n_clients=2)


def kept(lattice):
    """The grid indices of the lattice's profiles under the cluster's cap."""
    idx = np.unravel_index(np.arange(math.prod(lattice.shape)), lattice.shape)
    return np.flatnonzero(sum(i * u for i, u in zip(idx, lattice.units)) < lattice.n_keep)


def bounds(lattice, sel):
    """The lattice's bound of each profile at grid indices sel."""
    return lattice.bound(np.unravel_index(sel, lattice.shape))


class TestGridPruning:
    @staticmethod
    def check_every_profile(sc):
        # the search scores the profiles whose bound comes within GRID_RTOL
        # of the total of the one with the least bound (the first, on a tie)
        lattice = _Lattice(sc, 1e-2)
        every = kept(lattice)
        totals, slices = lattice.totals(every)
        lower = bounds(lattice, every)
        assert np.all(lower <= totals)
        scored, best = [], _Lattice.best
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Lattice, "best", lambda self, sel, *a: scored.append(sel) or best(
                self, sel, *a))
            grid = grid_search_cluster(sc, alpha_step=1e-2)
        np.testing.assert_array_equal(
            scored[0], every[lower <= totals[np.argmin(lower)] * (1.0 + GRID_RTOL)])
        assert lattice.best(every, totals, slices) == grid

    @pytest.mark.parametrize("n_clients,seed", [(2, 0), (2, 1), (3, 0), (3, 1)])
    def test_pruned_search_matches_every_profile(self, n_clients, seed):
        # the 3-client lattice stays small with a tight offload range
        self.check_every_profile(case1_instance(
            np.random.default_rng([4204, seed]), n_clients=n_clients, grid_sizes=True,
            alpha_max=0.12 if n_clients == 3 else None))

    @pytest.mark.parametrize("n_clients,capped,slow", [(2, True, False), (3, True, False),
                                                       (2, False, True), (2, True, True)])
    def test_capped_or_slow_search_matches_every_profile(self, n_clients, capped, slow):
        self.check_every_profile(lattice_instance(n_clients, capped, slow))

    @pytest.mark.parametrize("capped", [False, True])
    @pytest.mark.parametrize("sizes", [(1000, 0), (0, 0), (1000, 1201)],
                             ids=["one-without-data", "none-with-data", "coprime"])
    def test_odd_sizes_search_matches_every_profile(self, sizes, capped):
        self.check_every_profile(lattice_instance(2, capped, sizes=sizes))

    def test_tile_bounds_lie_under_their_profiles(self, monkeypatch):
        """Each tile's bound is at most the bound of every profile in it
        that the cap keeps, at any tile edge, and the best-first search
        still finds what scoring every profile finds. The draws cover 2 and
        3 clients, capped and slow clients, clients without data, coprime
        sizes and chains that hand off."""
        families = {
            "lattice": lambda n, capped, slow, seed: lattice_instance(n, capped, slow, seed=seed),
            # (a slow client needs data to be slow)
            "one-without-data": lambda n, capped, slow, seed: lattice_instance(
                2, capped, False, (1000, 0), seed),
            "none-with-data": lambda n, capped, slow, seed: lattice_instance(
                2, capped, False, (0, 0), seed),
            "coprime": lambda n, capped, slow, seed: lattice_instance(
                2, capped, slow, (1000, 1201), seed),
            "handoff": lambda n, capped, slow, seed: handoff_instance(seed),
        }
        seen = set()

        @settings(max_examples=60)
        @example("lattice", 3, True, True, 0, 4)
        @example("handoff", 2, False, False, 5, 7)
        @given(st.sampled_from(sorted(families)), st.sampled_from([2, 3]), st.booleans(),
               st.booleans(), st.integers(0, 3), st.integers(1, 40))
        def check(family, n_clients, capped, slow, seed, edge):
            monkeypatch.setattr(optimizer, "GRID_TILE", edge)
            sc = families[family](n_clients, capped, slow, seed)
            lattice = _Lattice(sc, 1e-2)
            every = kept(lattice)
            tile_of = np.ravel_multi_index(
                [i // edge for i in np.unravel_index(every, lattice.shape)],
                lattice.tile_lower.shape)
            # the tiles that hold a kept profile, each once, by ascending bound
            np.testing.assert_array_equal(np.sort(lattice.order), np.unique(tile_of))
            assert np.all(np.diff(lattice.tile_lower.flat[lattice.order]) >= 0.0)
            assert np.all(lattice.tile_lower.flat[tile_of] <= bounds(lattice, every))
            TestGridPruning.check_every_profile(sc)
            ctx = lattice.ctx
            seen.add((family, len(sc.clients), capped, ctx.T < ctx.local_min.max(),
                      lattice.handoffs.max() > 0))

        check()
        assert {f for f, *_ in seen} == set(families)
        assert {n for _, n, *_ in seen} == {2, 3}
        assert all(any(draw[k] for draw in seen) for k in (2, 3, 4))  # capped, slow, handoffs


class TestLattice:
    """The lattice's per-axis build against the per-profile formulas it
    broadcasts, with and without a binding cluster cap. A client without
    data adds nothing to any offload total; coprime sizes spread the totals
    over more values than the lattice has profiles."""

    @pytest.fixture(params=[(2, False), (2, True), (3, False), (3, True), (2, False, True),
                            (2, True, True), (2, False, False, (1000, 0)),
                            (2, True, False, (1000, 0)), (2, False, False, (0, 0)),
                            (2, False, False, (1000, 1201)), (2, True, False, (1000, 1201))],
                    ids=["2-clients", "2-clients-capped", "3-clients", "3-clients-capped",
                         "2-slow-clients", "2-slow-clients-capped", "one-without-data",
                         "one-without-data-capped", "none-with-data", "coprime",
                         "coprime-capped"])
    def lattice(self, request):
        return _Lattice(lattice_instance(*request.param), 1e-2)

    def test_profiles_are_the_capped_product_in_meshgrid_order(self, lattice):
        ctx = lattice.ctx
        axes = [np.arange(0.0, a + 5e-3, 1e-2) for a in ctx.alpha_max]
        axes = [ax[ax <= a * (1.0 + 1e-12)] for ax, a in zip(axes, ctx.alpha_max)]
        every = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        under = every @ ctx.sizes <= ctx.a_cap * (1.0 + 1e-12)
        assert (not under.all()) == (ctx.a_cap < ctx.a_max.sum())
        np.testing.assert_array_equal(every_profile(lattice)[0], every[under])
        # a profile the cap drops has an inf bound
        past = np.setdiff1d(np.arange(math.prod(lattice.shape)), kept(lattice))
        assert np.all(np.isinf(bounds(lattice, past)))

    def test_satellite_path_per_quantised_total(self, lattice):
        ctx = lattice.ctx
        quant = 1e-2 * (math.gcd(*[int(s) for s in ctx.sizes]) or 1)
        alphas, slot = every_profile(lattice)
        totals = np.rint(alphas @ ctx.sizes / quant) * quant
        for a in np.unique(totals).tolist():
            f = _battery_freq(ctx, a)
            at = slot[totals == a]
            assert np.all(lattice.freq[at] == f)
            assert np.all(lattice.rep[at] == ctx.chain(a, f)[2])
            assert np.all(lattice.handoffs[at] == ctx.chain(a, f)[1])

    def test_client_path_per_profile(self, lattice):
        ctx = lattice.ctx
        every = kept(lattice)
        alphas, slot = lattice.profiles(every)
        deadline = cost.regime_geometry(ctx.tau_locals(alphas).T, ctx.T)[2]
        slow = ctx.T < ctx.local_min.max()
        assert (np.unique(deadline).size > 1) == slow
        # each total is the cost model's round time of the profile's
        # decision, and the bound from the per-axis floors lies under it
        at = np.random.default_rng(64).choice(len(alphas), 64, replace=False)
        totals = lattice.totals(every[at])[0]
        assert np.all(bounds(lattice, every[at]) <= totals * (1.0 + 1e-12))
        for i, total in zip(at, totals):
            alpha = dict(zip(ctx.ids, alphas[i].tolist()))
            freq = {ctx.cluster.id: float(lattice.freq[slot[i]])}
            decision = DecisionVector(alpha, freq, solve_bandwidth(lattice.scenario, alpha, freq))
            tau = cost.round_latency(lattice.scenario, decision).tau_round_s
            assert total == pytest.approx(tau, rel=1e-12)

    def test_blocks_of_one_row_build_the_same_lattice(self, lattice, monkeypatch):
        # tiles of one profile and one tile over the whole lattice build the
        # same lattice and search alike: with one profile per tile, each
        # tile's bound is its profile's and client 0's axis is marked one
        # row at a time; with one tile, its profiles are bounded as one box
        sc = lattice.scenario
        assert lattice.shape[0] > 1
        want = grid_search_cluster(sc, alpha_step=1e-2)

        def build(edge):
            monkeypatch.setattr(optimizer, "GRID_TILE", edge)
            return _Lattice(sc, 1e-2), grid_search_cluster(sc, alpha_step=1e-2)

        (whole, grid_whole), (ones, grid_ones) = build(max(lattice.shape)), build(1)
        every = np.arange(math.prod(lattice.shape))
        assert ones.tile_lower.shape == lattice.shape
        assert ones.tile_lower.tobytes() == bounds(ones, every).tobytes()
        np.testing.assert_array_equal(np.sort(ones.order), kept(ones))
        assert whole.tile_lower.shape == (1,) * len(lattice.shape)
        np.testing.assert_array_equal(whole.order, [0])
        sel, lower = whole.price(0)
        np.testing.assert_array_equal(sel, every)
        assert lower.tobytes() == ones.tile_lower.reshape(-1).tobytes()
        assert np.all(whole.tile_lower[(0,) * len(lattice.shape)] <= lower)
        for name in ("uniq", "rep", "freq", "handoffs"):
            assert getattr(ones, name).tobytes() == getattr(whole, name).tobytes()
        assert (ones.slot is None) == (whole.slot is None)
        if whole.slot is not None:
            np.testing.assert_array_equal(ones.slot, whole.slot)
        assert ones.totals(kept(ones))[0].tobytes() == whole.totals(kept(whole))[0].tobytes()
        assert grid_ones == grid_whole == want

    def test_spread_totals_keep_memory_to_the_lattice(self):
        # sizes with gcd 1 put about 3e6 offload totals under the cap but
        # only 42 x 42 profiles on the lattice: the totals that occur are
        # sorted out, with no table over the whole range (24 MB of rows)
        sc = lattice_instance(2, False, sizes=(30000, 29999))
        sc = sc.with_clients([dataclasses.replace(p, energy_budget_j=1e9) for p in sc.clients])
        tracemalloc.start()
        try:
            lattice = _Lattice(sc, 1e-2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lattice.slot is None and len(lattice.uniq) == math.prod(lattice.shape)
        assert peak < 1e6
        alphas, at = every_profile(lattice)
        totals = np.rint(alphas @ lattice.ctx.sizes / 1e-2)
        assert np.all(lattice.uniq[at] == totals)


def every_profile(lattice):
    """(alphas, slot) of every kept profile of the lattice, by grid index."""
    return lattice.profiles(kept(lattice))


def grid_matches_optimize(sc, alpha_step):
    """The two asserts of the acceptance cross-check; returns (optimized,
    grid) breakdowns."""
    tau_bcd = cost.round_latency(sc, optimize(sc).decision)
    tau_grid, grid = grid_search_cluster(sc, alpha_step=alpha_step)
    assert abs(tau_bcd.tau_round_s - tau_grid) <= 0.02 * tau_grid
    assert tau_bcd.tau_round_s <= tau_grid * (1.0 + BAND_EPS)
    return tau_bcd, cost.round_latency(sc, grid)


class TestGridDropsProfiles:
    """A profile that breaks a constraint never wins the grid, and the grid
    raises only when no profile is left. Each lattice total prices the
    client path on its own chain's handoff count."""

    def test_multiwindow_draws_match_optimize(self):
        handoffs = []
        for seed in range(12):
            sc = multiwindow_instance(np.random.default_rng([4300, seed]), n_clients=2)
            bcd, grid = grid_matches_optimize(sc, 2e-3)
            handoffs += [bcd.clusters[0].n_handoffs, grid.clusters[0].n_handoffs]
        assert max(handoffs) >= 1

    def test_energy_bound_offload(self):
        # client 1's local pass alone costs 0.108 J of its 0.08 J budget, so
        # it must offload over a quarter of its data: the lattice drops the
        # profiles below that, about half of them
        sc = validate_scenario(scenario_dict([cluster_dict(0, [
            client_dict(0, 2e8, 600, max_offload_fraction=0.5, energy_budget_j=0.08),
            client_dict(1, 3e8, 400, max_offload_fraction=0.5, energy_budget_j=0.08)],
            sun_facing=True, sat_initial_energy_j=5000.0)], param_count=334, sample_bits=544))
        lattice = _Lattice(sc, 2e-3)
        dropped = np.isinf(bounds(lattice, kept(lattice)))
        assert dropped.any() and not dropped.all()
        assert np.all(lattice.rep[every_profile(lattice)[1]] < math.inf)
        grid_matches_optimize(sc, 2e-3)

    def test_totals_the_battery_spreads_over_windows(self):
        # a slow clock whose battery-optimal chain hands off for the larger
        # totals, though the best profile's does not
        sc = validate_scenario(scenario_dict([cluster_dict(
            0, [client_dict(k, 2e8, 1000, energy_budget_j=1e9) for k in range(2)],
            sat_max_freq_hz=1.6e8, energy_coeff=1e-22, sat_initial_energy_j=5000.0)]))
        assert _Lattice(sc, 0.01).handoffs.max() >= 1
        bcd, _ = grid_matches_optimize(sc, 0.01)
        assert bcd.tau_round_s == pytest.approx(128.98, abs=5e-3)

    def test_every_profile_over_an_energy_budget_is_refused(self):
        sc = validate_scenario(scenario_dict([cluster_dict(
            0, [client_dict(k, 2e8, 1000, energy_budget_j=1e-6) for k in range(2)])]))
        with pytest.raises(InfeasibleError, match="unmeetable client energy budget"):
            grid_search_cluster(sc, 1e-2)

    def test_battery_and_energy_budgets_leave_no_profile(self):
        # the battery carries small totals only, and the energy budgets need
        # each client to offload half its data
        def build(e0):
            return validate_scenario(scenario_dict([cluster_dict(
                0, [client_dict(k, 2e8, 1000, energy_budget_j=0.06) for k in range(2)],
                sat_initial_energy_j=e0)]))
        sc = build(110.0)
        ctx = _Ctx(sc, sc.clusters[0])
        assert not math.isnan(_battery_lanes(ctx, 0.0)[0])
        lattice = _Lattice(build(5000.0), 1e-2)
        assert np.isinf(bounds(lattice, kept(lattice))).any()
        with pytest.raises(InfeasibleError, match="no profile within every budget"):
            grid_search_cluster(sc, 1e-2)


class TestGridWinner:
    """The grid's decision keeps the slices of the lattice row that scored
    it: they are what a fresh `solve_bandwidth` gives the winning profile,
    and the grid's time is the cost model's."""

    @pytest.fixture(params=["single-window", "handoff", "3-clients"])
    def instance(self, request):
        if request.param == "single-window":
            return lattice_instance(2, False), 0
        if request.param == "handoff":
            return handoff_instance(), 1
        return lattice_instance(3, False), 0

    def test_reused_slices_match_a_fresh_solve(self, instance):
        sc, handoffs = instance
        tau, decision = grid_search_cluster(sc, alpha_step=1e-2)
        breakdown = cost.round_latency(sc, decision)
        assert breakdown.clusters[0].n_handoffs == handoffs
        assert decision.bandwidth_hz == solve_bandwidth(sc, decision.alpha, decision.sat_freq_hz)
        assert tau == breakdown.tau_round_s

    def test_a_winner_counted_apart_is_solved_afresh(self, instance, monkeypatch):
        # when the decision's own offload sum hands off another number of
        # times than its lattice total, the scored row's slices do not
        # apply: best solves them on the decision's count
        sc, _ = instance
        lattice = _Lattice(sc, 1e-2)
        every = kept(lattice)
        totals, slices = lattice.totals(every)
        solves = []
        monkeypatch.setattr(optimizer, "solve_bandwidth",
                            lambda *a: solves.append(a) or solve_bandwidth(*a))
        want = lattice.best(every, totals, slices)
        assert not solves
        lattice.handoffs = lattice.handoffs + 1
        assert lattice.best(every, totals, np.full_like(slices, np.nan)) == want
        assert len(solves) == 1


class TestBisect:
    def test_linear_root(self):
        r = bisect(lambda x: x - 3.0, 0.0, 10.0)
        assert r.status == "converged"
        assert r.x == pytest.approx(3.0, abs=2e-5)  # default eps is 1e-6 of span
        tight = bisect(lambda x: x - 3.0, 0.0, 10.0, eps=1e-12)
        assert tight.x == pytest.approx(3.0, abs=1e-10)

    def test_same_sign_returns_nearer_edge(self):
        r = bisect(lambda x: x + 1.0, 0.0, 10.0)  # positive everywhere
        assert r.status == "boundary_lo"
        assert r.x == 0.0
        r = bisect(lambda x: x - 20.0, 0.0, 10.0)  # negative everywhere
        assert r.status == "boundary_hi"
        assert r.x == 10.0

    def test_zero_width_bracket(self):
        r = bisect(lambda x: x, 4.0, 4.0)
        assert r.status == "degenerate"
        assert r.x == 4.0

    def test_reversed_bracket_rejected(self):
        with pytest.raises(ValueError):
            bisect(lambda x: x, 1.0, 0.0)


class TestSolveAlpha:
    def test_fast_satellite_drives_offload_to_cap(self):
        sc = two_client_scenario(freqs=(1e8, 1e8))
        out = solve_alpha(sc, {0: 5e5, 1: 5e5})
        total = sum(out[p.id] * p.size for p in sc.clients)
        cap = sum(p.max_offload_fraction * p.size for p in sc.clients)
        assert total == pytest.approx(cap, rel=1e-3)

    def test_fast_clients_drive_offload_to_zero(self):
        # client compute finishes in seconds while the relay+compute chain
        # would take hours: keep everything local
        clients = [client_dict(k, 2e9, 1000) for k in range(2)]
        sc = validate_scenario(scenario_dict(
            [cluster_dict(0, clients, isl_rate_bps=1e4, sat_max_freq_hz=1e6)]))
        out = solve_alpha(sc, {0: 5e5, 1: 5e5})
        total = sum(out[p.id] * p.size for p in sc.clients)
        assert total <= 1e-3 * sum(p.size for p in sc.clients)

    def test_output_respects_client_caps(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            sc = mixed_instance(rng)
            init = default_init(sc)
            out = solve_alpha(sc, init.bandwidth_hz)
            for p in sc.clients:
                assert -1e-12 <= out[p.id] <= p.max_offload_fraction + 1e-12


class TestBatteryFreqClosedForm:
    ARGS = dict(e_orig=500.0, e_trans=130.66, coverage_s=360.0,
                tau_trans_s=13.066, psi=100.0, kappa=1e-28)

    def test_charged_branch_unclipped(self):
        f = battery_freq_closed_form(p_charge=5.0, f_max=1e12, **self.ARGS)
        want = ((500.0 - 130.66 + 360.0 * 5.0 - 100.0)
                / (1e-28 * (360.0 - 13.066))) ** (1 / 3)
        assert f == pytest.approx(want, rel=1e-12)
        assert f == pytest.approx(3.907e9, rel=1e-3)

    def test_charged_branch_clipped(self):
        assert battery_freq_closed_form(p_charge=5.0, f_max=4e8, **self.ARGS) == 4e8

    def test_dark_branch(self):
        f = battery_freq_closed_form(p_charge=0.0, f_max=1e12, **self.ARGS)
        assert f == pytest.approx(1.980e9, rel=1e-3)
        assert battery_freq_closed_form(p_charge=0.0, f_max=4e8, **self.ARGS) == 4e8

    def test_budget_exactly_consumed_by_transfer(self):
        # psi equal to what remains after the transfer: compute can only
        # spend the charge collected during coverage
        args = dict(self.ARGS)
        args["psi"] = args["e_orig"] - args["e_trans"]
        f = battery_freq_closed_form(p_charge=5.0, f_max=1e12, **args)
        want = (360.0 * 5.0 / (1e-28 * (360.0 - 13.066))) ** (1 / 3)
        assert f == pytest.approx(want, rel=1e-12)
        assert battery_freq_closed_form(p_charge=0.0, f_max=1e12, **args) == 0.0

    def test_sunlit_never_below_dark(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            e = rng.uniform(100, 1000)
            etr = rng.uniform(0, 80)
            t = rng.uniform(60, 600)
            ttr = rng.uniform(0, 0.5 * t)
            psi = rng.uniform(0, 90)
            fmax = rng.uniform(1e8, 1e10)
            dark = battery_freq_closed_form(e, etr, t, ttr, 0.0, psi, 1e-28, fmax)
            sun = battery_freq_closed_form(e, etr, t, ttr, rng.uniform(0, 20), psi, 1e-28, fmax)
            assert sun >= dark

    def test_drained_battery_gives_zero(self):
        assert battery_freq_closed_form(100.0, 50.0, 360.0, 10.0, 0.0, 200.0,
                                      1e-28, 1e9) == 0.0


def battery_bound_cluster(rng, sun):
    """A one-client single-window cluster whose battery binds strictly
    between the single-window threshold and the frequency cap at offload a:
    the compute energy at the drawn root f* is the charge over a full window
    plus 50-1000 J, so the battery also covers the relay alone. Returns
    (context, a)."""
    t_cov = float(rng.uniform(200.0, 600.0))
    size = int(rng.integers(200, 3001))
    m_s = float(rng.uniform(1e7, 5e7))
    a = 0.8 * size
    bits = 32.0 * 1000 + 6272.0 * a
    rate = bits / (float(rng.uniform(0.05, 0.4)) * t_cov)
    tau_tr = bits / rate
    cyc = m_s * a
    thresh = cyc / (t_cov - tau_tr)
    f_max = thresh * float(rng.uniform(1.5, 5.0))
    p_sat = float(rng.uniform(5.0, 15.0))
    psi = float(rng.uniform(50.0, 150.0))
    p = float(rng.uniform(2.0, 8.0))
    f_star = thresh + float(rng.uniform(0.05, 0.95)) * (f_max - thresh)
    kappa = (p * t_cov + float(rng.uniform(50.0, 1000.0))) / (cyc * f_star ** 2)
    charge = p * (tau_tr + cyc / f_star) if sun else 0.0
    e0 = psi + p_sat * tau_tr + kappa * cyc * f_star ** 2 - charge
    cluster = cluster_dict(
        0, [client_dict(0, 2e8, size)], coverage_s=t_cov, isl_rate_bps=rate,
        sat_max_freq_hz=f_max, sat_cycles_per_sample=m_s, sat_tx_power_w=p_sat,
        sat_initial_energy_j=e0, sat_min_residual_j=psi, sun_facing=sun,
        sun_power_w=p, energy_coeff=kappa)
    sc = validate_scenario(scenario_dict([cluster], param_count=1000))
    return _Ctx(sc, sc.clusters[0]), a


class TestBatteryFreqSingleWindow:
    """The single-window frequency in closed form against a near machine-tight
    bisection of the battery margin."""

    @pytest.mark.parametrize("sun", [False, True])
    def test_matches_bisection(self, sun):
        for i in range(300):
            ctx, a = battery_bound_cluster(np.random.default_rng([8080, i]), sun)
            thresh = ctx.cluster.sat_cycles_per_sample * a / (ctx.T - ctx.tau_trans(a))
            assert ctx.battery_margin(a, ctx.f_max) < 0.0 <= ctx.battery_margin(a, thresh)
            f = _battery_freq(ctx, a)
            assert type(f) is float
            assert ctx.battery_margin(a, f) >= 0.0
            r = bisect(lambda g: ctx.battery_margin(a, g), thresh, ctx.f_max,
                       eps=1e-16, max_iter=3000)
            assert f == pytest.approx(r.lo, rel=1e-13)

    def test_battery_short_at_the_threshold_is_reported(self):
        sc = validate_scenario(scenario_dict([cluster_dict(
            0, [client_dict(0, 2e8, 1000)], sat_max_freq_hz=1e9,
            sat_initial_energy_j=0.0, sat_min_residual_j=400.0)]))
        with pytest.raises(InfeasibleError, match="slowest single-window"):
            _battery_freq(_Ctx(sc, sc.clusters[0]), 800.0)

    def test_threshold_chain_with_a_relay_only_satellite_is_not_refused(self):
        # from the threshold up to the band cost.CYC_EPS above it the chain
        # hands off to a second satellite that only relays, as the replay
        # does. A battery whose clock lies just past the band keeps it with
        # no handoff; one whose clock lies inside it spreads the cycles over
        # full windows, and the second satellite only relays
        ctx, a = battery_bound_cluster(np.random.default_rng([9, 0]), False)
        thresh = ctx.cluster.sat_cycles_per_sample * a / (ctx.T - ctx.tau_trans(a))
        assert ctx.n_handoffs(a, thresh) == ctx.n_handoffs(a, thresh * (1.0 + 5e-10)) == 1
        c, cyc = ctx.cluster, ctx.cluster.sat_cycles_per_sample * a
        for rise, handoffs in ((4e-9, 0), (5e-10, 1)):
            # the one satellite of a dark chain ends its dwell at psi at `at`
            at = thresh * (1.0 + rise)
            ctx.cluster = dataclasses.replace(c, sat_initial_energy_j=(
                c.sat_min_residual_j + c.sat_tx_power_w * ctx.tau_trans(a)
                + c.energy_coeff * cyc * at ** 2))
            f = _battery_freq(ctx, a)
            assert ctx.battery_margin(a, f) >= 0.0 and ctx.n_handoffs(a, f) == handoffs
            if handoffs:
                assert thresh < f < at
            else:
                assert f == pytest.approx(at, rel=1e-13)


def scalar_root(head, e_max, charge):
    """The single-window root in Python floats, as the scalar solver takes
    it: (branch, s)."""
    if charge == 0.0:
        return "dark", math.sqrt(head / e_max)
    p3 = head / (3.0 * e_max)
    q2 = charge / (2.0 * e_max)
    disc = q2 * q2 - p3 ** 3
    if disc >= 0.0:
        u = (q2 + math.sqrt(disc)) ** (1.0 / 3.0)
        return "cardano", 2.0 * q2 / (u * u - p3 + (p3 / u) ** 2)
    return "trig", 2.0 * math.sqrt(p3) * math.cos(math.acos(min(1.0, q2 / p3 ** 1.5)) / 3.0)


def scalar_closed_form(e_orig, e_trans, coverage_s, tau_trans_s, p_charge, psi, kappa, f_max):
    num = max(e_orig - e_trans + coverage_s * p_charge - psi, 0.0)
    return min(f_max, (num / (kappa * (coverage_s - tau_trans_s))) ** (1.0 / 3.0))


def scalar_battery_freq(ctx, a):
    """The battery-optimal frequency of one offload total, solved in Python
    floats step by step as a scalar solver would: (branch, freq), freq None
    where the battery refuses the total."""
    c = ctx.cluster
    tau_tr = ctx.tau_trans(a)
    if tau_tr >= ctx.T:
        return "refused", None
    cyc = c.sat_cycles_per_sample * a
    if cyc <= 0:
        return ("relay", ctx.f_max) if ctx.battery_margin(a, ctx.f_max) >= 0 else ("refused", None)
    thresh = cyc / (ctx.T - tau_tr)
    e_tr = c.sat_tx_power_w * tau_tr
    if ctx.f_max >= thresh:
        if ctx.battery_margin(a, ctx.f_max) >= 0.0:
            return "f_max", ctx.f_max
        edge = max(cyc / (1.0 - cost.CYC_EPS), cyc + cost.CYC_EPS)
        slow = min(edge / (ctx.T - tau_tr) * (1.0 + 4.0 * math.ulp(1.0)), ctx.f_max)
        while ctx.n_handoffs(a, slow) and slow < ctx.f_max:
            slow = math.nextafter(slow, math.inf)
        if ctx.battery_margin(a, slow) >= 0.0:
            branch, s = scalar_root(
                c.sat_initial_energy_j - e_tr + ctx.p_charge * tau_tr - c.sat_min_residual_j,
                c.energy_coeff * cyc * ctx.f_max ** 2, ctx.p_charge * cyc / ctx.f_max)
            f = max(slow, min(ctx.f_max, ctx.f_max * s))
            rel = math.ulp(1.0)
            while ctx.battery_margin(a, f) < 0.0:
                f = max(slow, f * (1.0 - rel))
                rel *= 2.0
            return branch, f
        # one window cannot carry the cycles: past a relay the battery
        # covers, they spread over full windows at a slower clock
        if c.sat_initial_energy_j - max(0.0, e_tr - ctx.p_charge * tau_tr) < c.sat_min_residual_j:
            return "refused", None
        branch = "spread"
    else:
        branch = "multi"
    if c.sat_initial_energy_j - e_tr + ctx.T * ctx.p_charge - c.sat_min_residual_j <= 0.0:
        return "refused", None
    f = scalar_closed_form(c.sat_initial_energy_j, e_tr, ctx.T, tau_tr, ctx.p_charge,
                           c.sat_min_residual_j, c.energy_coeff, ctx.f_max)
    if cost.handoff_count(a, c.sat_cycles_per_sample, ctx.T, tau_tr, f) > cost.MAX_HANDOFFS:
        return "refused", None
    if ctx.battery_margin(a, f) < -1e-9 * max(1.0, c.sat_min_residual_j):
        return "refused", None
    return branch, f


def one_total(ctx, a):
    """`_battery_freq` of one total: (freq, None), or (None, (message, slack))."""
    try:
        return _battery_freq(ctx, a), None
    except InfeasibleError as err:
        return None, (str(err), err.slack)


class TestBatteryFreqLanes:
    def test_lanes_match_one_total_calls(self):
        """`_battery_freq` over an array of totals reads, lane by lane, bit
        for bit what a one-total call reads, and that is what a step-by-step
        solve in Python floats reads; an array with a refused total raises
        the first one's error. The draws reach every regime and every root
        branch, and refuse totals too."""
        seen = set()

        @settings(max_examples=200)
        @example("bound-sun", 3, 0.0, [0.0, 1.0, 2.0, 2.4, 3.0])
        @given(st.sampled_from(["bound-dark", "bound-sun", "case1", "multiwindow", "mixed"]),
               st.integers(0, 2 ** 32 - 1), st.floats(-1.5, 0.5),
               st.lists(st.floats(0.0, 3.0), min_size=1, max_size=12))
        def check(family, seed, battery_decades, shares):
            rng = np.random.default_rng([5151, seed])
            if family.startswith("bound"):
                # the battery binds between the threshold and the cap at a
                ctx, a = battery_bound_cluster(rng, family == "bound-sun")
                a_ref = 0.5 * a
                # a weaker charger moves sunlit roots to the trigonometric branch
                ctx.p_charge *= 10.0 ** battery_decades
            else:
                build = {"case1": case1_instance, "multiwindow": multiwindow_instance,
                         "mixed": mixed_instance}[family]
                raw = scenario_to_dict(build(rng))
                for c in raw["clusters"]:
                    c["sat_initial_energy_j"] *= 10.0 ** battery_decades
                sc = validate_scenario(raw)
                ctx = _contexts(sc)[int(rng.integers(len(sc.clusters)))]
                a_ref = ctx.a_cap
            totals = np.array([0.0] + [a_ref * x for x in shares])
            freq = np.empty(len(totals))
            first_refused = None
            for i, a in enumerate(totals.tolist()):
                branch, want = scalar_battery_freq(ctx, a)
                got, err = one_total(ctx, a)
                assert (got is None) == (want is None) == (err is not None)
                if got is None:
                    first_refused = err if first_refused is None else first_refused
                    freq[i] = math.nan
                else:
                    assert type(got) is float and got == want
                    freq[i] = got
                seen.add(branch)
            lanes, err = optimizer._battery_lanes(ctx, totals)
            np.testing.assert_array_equal(lanes, freq)
            if first_refused is None:
                assert err is None
                np.testing.assert_array_equal(_battery_freq(ctx, totals), freq)
                np.testing.assert_array_equal(_battery_freq(ctx, totals[:, None]), freq[:, None])
            else:
                with pytest.raises(InfeasibleError) as raised:
                    _battery_freq(ctx, totals)
                assert (str(raised.value), raised.value.slack) == first_refused
                assert (str(err), err.slack) == first_refused

        check()
        assert seen == {"relay", "f_max", "dark", "cardano", "trig", "multi", "spread", "refused"}

    def test_refused_totals_are_a_suffix(self):
        """Over increasing offload totals, the totals the battery refuses
        form a suffix: each satellite's level at its relay's end, and at its
        dwell's end at the slowest clock that fits the work in one window,
        falls with the offload, and work one window cannot carry is spread
        over full windows as a larger total's is. The draws reach relays
        that draw less than the sun gives, clocks that draw more than the
        relay, totals spread over windows, and refusals after accepted
        totals and from the first one on."""
        seen = set()

        @settings(max_examples=300)
        @given(st.integers(0, 2 ** 32 - 1),
               st.lists(st.floats(0.0, 1.5), min_size=1, max_size=24))
        def check(seed, shares):
            rng = np.random.default_rng([6262, seed])
            sc = decades_instance(rng)
            ctx = _contexts(sc)[int(rng.integers(len(sc.clusters)))]
            c = ctx.cluster
            totals = np.array(sorted([0.0] + [ctx.a_cap * x for x in shares]))
            freq, _ = optimizer._battery_lanes(ctx, totals)
            refused = np.isnan(freq)
            first = int(np.argmax(refused)) if refused.any() else len(totals)
            assert refused[first:].all()
            if first < len(totals):
                seen.add("refused from zero" if first == 0 else "refused past accepted")
            if ctx.p_charge > c.sat_tx_power_w:
                seen.add("relay under the sun")
            a, f = totals[:first], freq[:first]
            work = a > 0.0
            if np.any(work & (c.energy_coeff * f ** 3 > c.sat_tx_power_w)):
                seen.add("compute over the relay")
            tau_tr = ctx.tau_trans(a)
            if np.any(work & (ctx.f_max * (ctx.T - tau_tr) >= c.sat_cycles_per_sample * a)
                      & (ctx.n_handoffs(a, f) > 0)):
                seen.add("spread")

        check()
        assert seen == {"refused from zero", "refused past accepted", "relay under the sun",
                        "compute over the relay", "spread"}


def capped_slices(ctx, targets):
    """Per client, the least slice whose upload ends within target, capped
    at the budget: inf where even the whole budget misses the target."""
    b = upload_bandwidth(ctx.footprint.state_bits, ctx.snr_num, targets)
    return np.where(ctx.tau_budget > targets, math.inf, np.minimum(b, ctx.budget_hz))


def bandwidth_floors(ctx, alpha, freq):
    """The bandwidth block's floors and upload offsets, recomputed: the
    energy floors, raised so every upload ends inside the straggler's
    window (offsets x2) when those floors fit the budget, else zero offsets.
    Also returns the handoff count."""
    tl = ctx.tau_locals(alpha)
    n = ctx.n_handoffs(ctx.offloaded(alpha), freq)
    floors = capped_slices(ctx, (ctx.budgets - ctx.e_locals(alpha)) / ctx.tx_power_w)
    m, x2, deadline = cost.regime_geometry(tl, ctx.T)
    x2 = np.array(x2)
    if m > ctx.T * n:
        floors2 = np.maximum(floors, capped_slices(ctx, deadline - x2))
        if np.sum(floors2) <= ctx.budget_hz:
            return floors2, x2, n
    return floors, np.zeros(len(floors)), n


def bisected_completion(ctx, floors, x):
    """The least common completion whose slices fit the budget, by a near
    machine-tight bisection on nu, read back from the slices it keeps."""
    def alloc(nu):
        return np.maximum(floors, capped_slices(ctx, nu - x))

    r = bisect(lambda nu: float(np.sum(alloc(nu))) - ctx.budget_hz, float(np.max(x)),
               float(np.max(x + ctx.tau_agg(floors))), eps=1e-15, max_iter=2000)
    return float(np.max(x + ctx.tau_agg(alloc(r.hi))))


class TestSolveBandwidth:
    def test_matches_tight_bisection(self):
        """Every slice keeps its floor, the slices fill the budget band, and
        the equalized completion is the one a near machine-tight bisection
        finds. Bandwidth budgets scaled over five decades, with the energy
        budgets scaled inversely so the uploads stay affordable, reach all
        three timing regimes."""
        seen = set()

        @settings(max_examples=200)
        @given(st.sampled_from([case1_instance, multiwindow_instance, mixed_instance]),
               st.integers(0, 2 ** 32 - 1), st.floats(-4.0, 1.0), st.floats(0.0, 1.0))
        # the drawn examples depend on the constants of the loaded modules,
        # so two fixed ones hold the rarer regimes 3 and 1 in every run
        @example(case1_instance, 6443, -3.5, 0.0)
        @example(multiwindow_instance, 209, -1.3, 0.8)
        def check(build, seed, squeeze, u):
            raw = scenario_to_dict(build(np.random.default_rng([6161, seed])))
            for c in raw["clusters"]:
                c["bandwidth_hz"] *= 10.0 ** squeeze
                for p in c["clients"]:
                    p["energy_budget_j"] *= 10.0 ** -squeeze
            sc = validate_scenario(raw)
            alpha = {p.id: u * p.max_offload_fraction for p in sc.clients}
            try:
                freq = solve_freq(sc, alpha)
            except InfeasibleError:
                return
            for ctx in _contexts(sc):
                a, f = ctx.per_client(alpha), freq[ctx.cluster.id]
                try:
                    b = ctx.per_client(solve_bandwidth(sc, alpha, freq, [ctx]))
                except InfeasibleError:
                    continue
                floors, x, n = bandwidth_floors(ctx, a, f)
                assert np.all(b >= floors)
                assert (1.0 - BAND_EPS) * ctx.budget_hz <= float(np.sum(b)) <= ctx.budget_hz
                got = float(np.max(x + ctx.tau_agg(b)))
                assert got == pytest.approx(bisected_completion(ctx, floors, x), rel=1e-9)
                seen.add(cost.client_path(cost.FixedWindows(ctx.T), n, ctx.tau_locals(a).tolist(),
                                          ctx.tau_agg(b).tolist())[1])

        check()
        assert seen == {1, 2, 3}

    def test_one_client_takes_the_budget(self):
        sc = validate_scenario(scenario_dict([cluster_dict(0, [client_dict(0, 2e8, 1000)])]))
        alpha = {0: 0.0}
        b = solve_bandwidth(sc, alpha, solve_freq(sc, alpha))[0]
        assert b <= sc.clusters[0].bandwidth_hz
        assert b == pytest.approx(sc.clusters[0].bandwidth_hz, rel=1e-12)

    def test_floors_that_fill_the_budget_are_kept(self):
        # energy budgets that leave the clients floors of about a quarter and
        # three quarters of the band, and a band that is exactly their sum
        sc = two_client_scenario()
        ctx = _Ctx(sc, sc.clusters[0])
        e_loc = ctx.e_locals(np.zeros(2))
        budgets = e_loc + ctx.uplink(np.array([0.25, 0.75]) * ctx.budget_hz)[1]
        floors = upload_bandwidth(ctx.footprint.state_bits, ctx.snr_num,
                                  (budgets - e_loc) / ctx.tx_power_w)
        raw = scenario_to_dict(sc)
        raw["clusters"][0]["bandwidth_hz"] = float(np.sum(floors))
        for p, e in zip(raw["clusters"][0]["clients"], budgets):
            p["energy_budget_j"] = float(e)
        sc = validate_scenario(raw)
        assert float(np.sum(floors)) == sc.clusters[0].bandwidth_hz
        alpha = {0: 0.0, 1: 0.0}
        b = solve_bandwidth(sc, alpha, solve_freq(sc, alpha))
        assert np.array_equal([b[0], b[1]], floors)

    def test_reference_optimize_inverts_at_most_150_times(self, monkeypatch):
        # a count, so no wall-clock bound; a plain nu bisection makes 555
        sc = validate_scenario(json.loads(REFERENCE_SCENARIO.read_text()))
        calls = count_calls(monkeypatch, "upload_bandwidth")
        optimize(sc)
        assert len(calls) <= 150

    def test_identical_clients_split_evenly(self):
        sc = two_client_scenario()
        alpha = {0: 0.0, 1: 0.0}
        out = solve_bandwidth(sc, alpha, solve_freq(sc, alpha))
        b = sc.clusters[0].bandwidth_hz
        assert out[0] == pytest.approx(b / 2, rel=1e-5)
        assert out[1] == pytest.approx(b / 2, rel=1e-5)

    def test_weak_transmitter_gets_more(self):
        clients = [client_dict(0, 2e8, 1000, tx_power_w=0.1),
                   client_dict(1, 2e8, 1000, tx_power_w=0.3)]
        sc = validate_scenario(scenario_dict([cluster_dict(0, clients)]))
        alpha = {0: 0.0, 1: 0.0}
        out = solve_bandwidth(sc, alpha, solve_freq(sc, alpha))
        assert out[0] > out[1]

    def test_matches_coarse_grid(self):
        clients = [client_dict(0, 2e8, 1000, tx_power_w=0.1),
                   client_dict(1, 2e8, 1000, tx_power_w=0.3)]
        sc = validate_scenario(scenario_dict([cluster_dict(0, clients)]))
        cluster = sc.clusters[0]
        alpha = {0: 0.0, 1: 0.0}
        freq = solve_freq(sc, alpha)
        out = solve_bandwidth(sc, alpha, freq)
        model = cost.ClusterModel(sc, cluster)
        tl = [p.cycles_per_sample * p.size / p.cpu_freq_hz for p in sc.clients]

        def completion(b0):
            ta = model.tau_agg(np.array([b0, cluster.bandwidth_hz - b0]))
            return max(t + a for t, a in zip(tl, ta.tolist()))

        grid = np.arange(1e3, cluster.bandwidth_hz, 1e3)
        best = min(completion(b0) for b0 in grid)
        assert completion(out[0]) <= best * (1 + 1e-6)

    def test_tight_energy_budget_pins_the_floor(self):
        # client 1's budget only covers an upload at ~70% of the band,
        # so the equalizing split must leave it pinned there
        base = client_dict(0, 2e8, 1000)
        pin = client_dict(1, 2e8, 1000)
        sc = validate_scenario(scenario_dict([cluster_dict(0, [base, pin])]))
        cluster = sc.clusters[0]
        p1 = sc.client(1)
        e_loc = cost.client_local_energy(p1, 1.0, p1.size, cluster.energy_coeff)
        b_pin = 0.7 * cluster.bandwidth_hz
        _, e_up = cost.ClusterModel(sc, cluster).uplink(b_pin)  # both clients on b_pin
        pin["energy_budget_j"] = e_loc + e_up[1]
        sc = validate_scenario(scenario_dict([cluster_dict(0, [base, pin])]))
        alpha = {0: 0.0, 1: 0.0}
        out = solve_bandwidth(sc, alpha, solve_freq(sc, alpha))
        assert out[1] == pytest.approx(b_pin, rel=1e-3)
        assert out[0] + out[1] <= cluster.bandwidth_hz * (1 + 1e-9)

    def test_impossible_budget_is_reported(self):
        bad = client_dict(1, 2e8, 1000, energy_budget_j=1e-9)
        sc = validate_scenario(scenario_dict(
            [cluster_dict(0, [client_dict(0, 2e8, 1000), bad])]))
        alpha = {0: 0.0, 1: 0.0}
        with pytest.raises(InfeasibleError):
            solve_bandwidth(sc, alpha, solve_freq(sc, alpha))


class TestClientPaths:
    """The pinned-offload equalizer on rows of offloads."""

    def test_batch_rows_match_rows_alone(self):
        """A row solved in a batch gets the path time and slices it gets
        alone, bit for bit. Random offloads and handoff counts on clusters
        of 1-12 clients, whose bandwidth budgets are scaled over five
        decades (energy budgets scaled inversely), reach all three timing
        regimes."""
        seen = set()

        @settings(max_examples=60)
        @given(st.sampled_from([case1_instance, multiwindow_instance]), st.integers(1, 12),
               st.integers(0, 2 ** 32 - 1), st.floats(-4.0, 1.0), st.integers(1, 12))
        # as in test_matches_tight_bisection, a fixed example holds regime 3
        @example(case1_instance, 9, 19, -3.5, 8)
        def check(build, clients, seed, squeeze, rows):
            rng = np.random.default_rng([5151, seed])
            raw = scenario_to_dict(build(rng, n_clients=clients))
            for c in raw["clusters"]:
                c["bandwidth_hz"] *= 10.0 ** squeeze
                for p in c["clients"]:
                    p["energy_budget_j"] *= 10.0 ** -squeeze
            sc = validate_scenario(raw)
            for ctx in _contexts(sc):
                alone = []
                for _ in range(rows):
                    a = rng.uniform(0.0, 1.0, len(ctx.ids)) * ctx.alpha_max
                    n = int(rng.integers(0, 3))
                    try:
                        alone.append((a, n, _client_paths(ctx, a[None], n)))
                    except InfeasibleError:
                        continue
                if not alone:
                    continue
                alphas = np.array([a for a, _, _ in alone])
                counts = np.array([n for _, n, _ in alone])
                y, b = _client_paths(ctx, alphas, counts)
                for i, (a, n, (y1, b1)) in enumerate(alone):
                    assert y[i] == y1[0] and np.array_equal(b[i], b1[0])
                    seen.add(cost.client_path(cost.FixedWindows(ctx.T), n, ctx.tau_locals(a).tolist(),
                                              ctx.tau_agg(b1[0]).tolist())[1])

        check()
        assert seen == {1, 2, 3}

    def test_floors_past_the_budget_are_refused(self):
        # a band a part in 1e9 narrower than the energy floors' sum at zero
        # offload refuses that row, with the shortfall as the slack; half
        # the data offloaded spends less on local passes and leaves lower
        # floors, which fit
        sc = two_client_scenario(freqs=(2e8, 3e8))
        ctx = _Ctx(sc, sc.clusters[0])
        alphas = np.array([[0.0, 0.0], [0.5, 0.5]])
        floors = upload_bandwidth(ctx.footprint.state_bits, ctx.snr_num,
                                  (ctx.budgets - ctx.e_locals(alphas)) / ctx.tx_power_w)
        raw = scenario_to_dict(sc)
        raw["clusters"][0]["bandwidth_hz"] = float(np.sum(floors[0])) * (1.0 - 1e-9)
        sc = validate_scenario(raw)
        ctx = _Ctx(sc, sc.clusters[0])
        for rows in (alphas, alphas[:1]):
            with pytest.raises(InfeasibleError, match="cluster 0: the client energy") as exc:
                _client_paths(ctx, rows, 0)
            assert exc.value.slack == pytest.approx(-1e-9 * float(np.sum(floors[0])), rel=1e-3)
        y, b = _client_paths(ctx, alphas[1:], 0)
        assert np.all(b >= floors[1]) and float(np.sum(b)) <= ctx.budget_hz
        assert float(np.sum(b)) >= (1.0 - BAND_EPS) * ctx.budget_hz


def solo_scenario(sc, cluster_id):
    raw = scenario_to_dict(sc)
    raw["clusters"] = [c for c in raw["clusters"] if c["id"] == cluster_id]
    return validate_scenario(raw)


def count_calls(monkeypatch, name):
    calls = []
    inner = getattr(optimizer, name)

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(optimizer, name, counted)
    return calls


class TestOptimize:
    def test_each_cluster_total_equals_its_solo_solve(self):
        # no constraint couples two clusters, so each one's total is the
        # one it gets as a one-cluster scenario
        reference = validate_scenario(json.loads(REFERENCE_SCENARIO.read_text()))
        mixed = [mixed_instance(np.random.default_rng([1204, i])) for i in range(12)]
        checked = 0
        for sc in [reference, handoff_scenario()] + mixed:
            joint = cost.round_latency(sc, optimize(sc).decision)
            for cluster in sc.clusters:
                alone = solo_scenario(sc, cluster.id)
                total = cost.round_latency(alone, optimize(alone).decision).clusters[0].total_s
                assert joint.cluster(cluster.id).total_s == pytest.approx(total, rel=1e-9)
                checked += 1
        assert checked >= 20

    @pytest.fixture(scope="class")
    def stable_rounds(self):
        reference = validate_scenario(json.loads(REFERENCE_SCENARIO.read_text()))
        scenarios = (reference, handoff_scenario())
        return scenarios, [optimize(sc).trace[-1][2] for sc in scenarios]

    # the path-time bracket, the budget fill and the slices' Newton steps;
    # a part in 1e9, and a factor that moves where each one stops
    @pytest.mark.parametrize("name", ["T_RTOL", "FILL_RTOL", "SLICE_STEP_TOL"])
    @pytest.mark.parametrize("scale", [1.0 - 1e-9, 1.0 + 1e-9, 0.1, 10.0])
    def test_round_time_is_stable_under_solver_tolerances(self, monkeypatch, stable_rounds,
                                                          name, scale):
        # an exact solve does not move with its stopping rules
        scenarios, before = stable_rounds
        monkeypatch.setattr(optimizer, name, getattr(optimizer, name) * scale)
        after = [optimize(sc).trace[-1][2] for sc in scenarios]
        assert after == pytest.approx(before, rel=1e-8)

    def test_reference_solve_call_counts(self, monkeypatch):
        # counts, so no wall-clock bound: the measured counts plus 20%
        sc = validate_scenario(json.loads(REFERENCE_SCENARIO.read_text()))
        freq_calls = count_calls(monkeypatch, "_battery_freq")
        slice_calls = count_calls(monkeypatch, "upload_bandwidth")
        closed_calls = count_calls(monkeypatch, "_slice_closed_form")
        optimize(sc)
        assert len(freq_calls) <= 76  # 64 measured
        assert len(closed_calls) <= 70  # 59 measured
        assert slice_calls == []  # no ulp-corrected inversion at all

    def test_trace_never_increases(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            sc = mixed_instance(rng)
            res = optimize(sc)
            vals = [tau for _, _, tau in res.trace]
            for a, b in zip(vals, vals[1:]):
                assert b <= a + 1e-9
            assert res.report.ok

    def test_last_trace_value_is_exact_round_time(self):
        # the trace reuses each block candidate's round time, so its last
        # entry must equal a fresh evaluation of the kept decision bit for bit
        reference = validate_scenario(json.loads(REFERENCE_SCENARIO.read_text()))
        for sc in (reference, handoff_scenario()):
            res = optimize(sc)
            breakdown = cost.round_latency(sc, res.decision)
            assert res.trace[-1][2] == breakdown.tau_round_s
        assert breakdown.clusters[0].n_handoffs > 0

    def test_kept_frequency_is_battery_optimal_for_kept_offload(self):
        # each cluster keeps the battery-optimal frequency of its kept offload
        reference = validate_scenario(json.loads(REFERENCE_SCENARIO.read_text()))
        for sc in (reference, handoff_scenario()):
            dec = optimize(sc).decision
            assert dec.sat_freq_hz == solve_freq(sc, dec.alpha)

    def test_close_to_exhaustive_search(self):
        rng = np.random.default_rng(7)
        sc = case1_instance(rng, n_clients=2, grid_sizes=True)
        res = optimize(sc)
        tau_bcd = res.trace[-1][2]
        tau_grid, _ = grid_search_cluster(sc, alpha_step=1e-3)
        assert tau_bcd <= tau_grid * 1.02
        assert tau_bcd <= tau_grid * (1.0 + BAND_EPS)

    def test_chain_beyond_the_handoff_limit_is_infeasible(self):
        # half the offload cap takes 2.4e10 cycles; at 1 kHz that is about
        # 67,000 full windows, each listed in the cost breakdown
        sc = validate_scenario(scenario_dict([cluster_dict(
            0, [client_dict(k, 2e8, 1000) for k in range(2)], sat_max_freq_hz=1e3)]))
        with pytest.raises(InfeasibleError, match="handoffs, more than 10000") as exc:
            optimize_pinned_alpha(sc, {0: 0.4, 1: 0.4})
        assert exc.value.slack < 0
        # the optimizer hands such a satellite only what it finishes inside
        # one window
        kept = cost.round_latency(sc, optimize(sc).decision).clusters[0]
        assert kept.n_handoffs == 0 and kept.offloaded_samples < 0.01

    @pytest.mark.parametrize("clock", [1e-310, 1e-300])
    @pytest.mark.parametrize("call", ["round_latency", "check_feasibility", "solve_bandwidth"])
    def test_caller_chain_past_the_handoff_limit_names_its_cluster(self, call, clock):
        # a caller's decision at a crawling clock: its handoff count passes
        # a float at 1e-310 Hz, and a list of its satellites at 1e-300 Hz
        sc = two_client_scenario()
        alpha, freq = {0: 0.4, 1: 0.4}, {0: clock}
        half = sc.clusters[0].bandwidth_hz / 2.0
        decision = DecisionVector(alpha, freq, {0: half, 1: half})
        calls = {"round_latency": lambda: cost.round_latency(sc, decision),
                 "check_feasibility": lambda: check_feasibility(sc, decision),
                 "solve_bandwidth": lambda: solve_bandwidth(sc, alpha, freq)}
        with pytest.raises(ValueError, match="cluster 0: offloading 800 samples .* handoffs, "
                                             "more than 10000"):
            calls[call]()

    def test_sunlit_battery_short_of_the_relay_is_refused(self):
        # the battery cannot pay for the relay alone, nor for the offload
        # cap, past the handoff limit at 1 kHz. A sliver computed slowly
        # charges over the whole window and ends its dwell far above psi,
        # but every offload dips below it at its relay's end
        clients = [client_dict(k, 2e8, 1000) for k in range(2)]
        sc = validate_scenario(scenario_dict([cluster_dict(
            0, clients, sat_max_freq_hz=1e3, sun_facing=True, sat_initial_energy_j=100.0256)]))
        ctx = _Ctx(sc, sc.clusters[0])
        assert "relay alone" in str(_battery_lanes(ctx, 0.0)[1])
        assert "handoffs, more than 10000" in str(_battery_lanes(ctx, ctx.a_cap)[1])
        with pytest.raises(InfeasibleError, match="relay alone"):
            optimize(sc)
        # the sliver the end-of-dwell check let through: 0.005 samples
        sliver = DecisionVector({0: 2.5e-6, 1: 2.5e-6}, {0: 1e3}, {0: 5e5, 1: 5e5})
        assert not check_feasibility(sc, sliver).ok
        (window,) = run_experiment(sc, sliver, rounds=1).records[0].clusters[0].energy
        assert window.residual_j > 849.0
        assert window.lowest_j == pytest.approx(99.974, abs=1e-3) and not window.battery_ok

    def test_uploads_that_wait_many_windows(self):
        # uploads of about 73 one-second coverage windows: the best local
        # pass ends 72 windows before the latest one an upload can wait for
        sc = validate_scenario(scenario_dict([cluster_dict(
            0, [client_dict(0, 2e8, 1000, energy_budget_j=500.0)], coverage_s=1.0,
            isl_rate_bps=1e9, bandwidth_hz=20.0)]))
        ctx = _Ctx(sc, sc.clusters[0])
        assert ctx.tau_budget[0] > 64 * ctx.T
        tau = optimize(sc).trace[-1][2]
        # with one client the slice is the whole band: a lattice on the offload
        lattice = math.inf
        for a in np.linspace(0.0, 0.8, 401):
            alpha = {0: float(a)}
            decision = DecisionVector(alpha=alpha, sat_freq_hz=solve_freq(sc, alpha),
                                      bandwidth_hz={0: ctx.budget_hz})
            if check_feasibility(sc, decision).ok:
                lattice = min(lattice, cost.round_latency(sc, decision).tau_round_s)
        assert tau <= lattice * (1.0 + 1e-12)
        assert tau == pytest.approx(lattice, rel=1e-3)
        # the optimum hands off twice, so the grid prices that chain too
        assert cost.round_latency(sc, optimize(sc).decision).clusters[0].n_handoffs == 2
        tau_grid = grid_search_cluster(sc, alpha_step=2e-3)[0]
        assert tau <= tau_grid * (1.0 + 1e-12)
        assert tau == pytest.approx(tau_grid, rel=1e-3)

    def test_pinned_alpha_out_of_range_rejected(self):
        sc = two_client_scenario()
        with pytest.raises(InfeasibleError, match="pinned offload"):
            optimize_pinned_alpha(sc, {0: 0.9, 1: 0.0})

    def test_grid_needs_single_cluster(self):
        sc = validate_scenario(json.loads(REFERENCE_SCENARIO.read_text()))
        with pytest.raises(ValueError, match="single-cluster"):
            grid_search_cluster(sc)


class TestFeasibilityReport:
    def base_decision(self, sc):
        alpha = {p.id: 0.0 for p in sc.clients}
        freq = {c.id: c.sat_max_freq_hz for c in sc.clusters}
        bw = {}
        for c in sc.clusters:
            members = sc.cluster_clients(c.id)
            for p in members:
                bw[p.id] = c.bandwidth_hz / len(members)
        return DecisionVector(alpha, freq, bw)

    def test_conservative_decision_passes(self):
        sc = validate_scenario(json.loads(REFERENCE_SCENARIO.read_text()))
        report = check_feasibility(sc, self.base_decision(sc))
        assert report.ok
        assert report.failed() == []

    def test_saturated_bandwidth_has_zero_slack(self):
        sc = two_client_scenario()
        report = check_feasibility(sc, self.base_decision(sc))
        assert report.ok
        slack = [c.slack for c in report.checks if c.name == "bandwidth_budget"]
        assert slack == [0.0]

    def test_unreachable_residual_fails_with_negative_slack(self):
        clients = [client_dict(k, 2e8, 1000) for k in range(2)]
        sc = validate_scenario(scenario_dict(
            [cluster_dict(0, clients, sat_min_residual_j=600.0,
                          sat_initial_energy_j=500.0)]))
        report = check_feasibility(sc, self.base_decision(sc))
        assert not report.ok
        bad = [c for c in report.failed() if c.name.startswith("sat_energy")]
        assert bad and bad[0].slack < 0
