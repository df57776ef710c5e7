"""Latency/energy formula checks: frozen hand-computed values, independent
re-derivations, and structural invariants."""

import math
import re
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitfed import cost
from orbitfed.cost import (
    IslLinkParams,
    ModelFootprint,
    client_local_energy,
    client_local_latency,
    cluster_client_path,
    cluster_costs,
    handoff_count,
    isl_rate,
    isl_transfer_energy,
    isl_transfer_latency,
    relay_chain,
    round_latency,
    slice_rate,
    upload_time,
    uplink_snr_num,
)
from orbitfed.optimizer import DecisionVector

from conftest import client_dict, cluster_dict, scenario_dict
from orbitfed.scenario import validate_scenario


def profile(f=2e8, m=3e7, p=0.2):
    return SimpleNamespace(cpu_freq_hz=f, cycles_per_sample=m, tx_power_w=p)


# the worked relay chain used across several checks: 6000 offloaded samples,
# 100k params at 32 bits, 6272 bits/sample, 3.125 Mbps ISL, T=360 s, f_S=2e8
CHAIN = dict(
    model=ModelFootprint(100000, 32, 6272),
    samples=6000.0,
    rate=3.125e6,
    t=360.0,
    f=2e8,
    m_s=3e7,
)
CHAIN_TAU_TRANS = (100000 * 32 + 6272 * 6000) / 3.125e6  # 13.06624
CHAIN_REM = 3e7 * 6000 - 2 * (360 - CHAIN_TAU_TRANS) * 2e8  # cycles left for sat 3


class TestClientLocal:
    def test_worked_latency(self):
        # m=3e7, gamma*|D|=600, f=2e8
        assert client_local_latency(profile(), 0.5, 1200) == pytest.approx(90.0, rel=1e-12)

    def test_vanishing_share(self):
        assert client_local_latency(profile(), 1e-12, 1200) < 1e-6

    def test_cpu_range_brackets_latency(self):
        lo = client_local_latency(profile(f=3e8), 1.0, 600)
        hi = client_local_latency(profile(f=1e8), 1.0, 600)
        assert lo == pytest.approx(60.0) and hi == pytest.approx(180.0)

    def test_worked_energy(self):
        e = client_local_energy(profile(), 0.5, 1200, 1e-28)
        assert e == pytest.approx(0.072, rel=1e-12)

    def test_zero_share_zero_energy(self):
        assert client_local_energy(profile(), 0.0, 1200, 1e-28) == 0.0

    def test_energy_latency_product_invariant(self):
        # doubling f quadruples E and halves tau, so E*tau^2 is fixed
        p1, p2 = profile(f=2e8), profile(f=4e8)
        e1 = client_local_energy(p1, 0.5, 1200, 1e-28)
        e2 = client_local_energy(p2, 0.5, 1200, 1e-28)
        t1 = client_local_latency(p1, 0.5, 1200)
        t2 = client_local_latency(p2, 0.5, 1200)
        assert e1 * t1 ** 2 == pytest.approx(e2 * t2 ** 2, rel=1e-12)


class TestIsl:
    def test_snr_one_gives_bandwidth(self):
        link = IslLinkParams(1e6, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert isl_rate(link) == pytest.approx(1e6)

    def test_snr_three_doubles(self):
        link = IslLinkParams(1e6, 3.0, 1.0, 1.0, 1.0, 1.0)
        assert isl_rate(link) == pytest.approx(2e6)

    def test_worked_transfer_latency(self):
        tau = isl_transfer_latency(CHAIN["model"], 6000, 3.125e6)
        assert tau == pytest.approx(CHAIN_TAU_TRANS, rel=1e-12)
        assert tau == pytest.approx(13.066, abs=5e-4)

    def test_no_samples_model_only(self):
        tau = isl_transfer_latency(CHAIN["model"], 0, 3.125e6)
        assert tau == pytest.approx(3.2e6 / 3.125e6, rel=1e-12)

    def test_bits_sample_product_symmetry(self):
        a = isl_transfer_latency(ModelFootprint(1000, 32, 4000), 500, 1e6)
        b = isl_transfer_latency(ModelFootprint(1000, 32, 8000), 250, 1e6)
        assert a == pytest.approx(b, rel=1e-12)

    def test_transfer_energy(self):
        assert isl_transfer_energy(CHAIN_TAU_TRANS, 10.0) == pytest.approx(130.66, abs=5e-3)
        assert isl_transfer_energy(0.0, 10.0) == 0.0
        assert isl_transfer_energy(2 * 1.5, 7.0) == pytest.approx(2 * isl_transfer_energy(1.5, 7.0))


class TestHandoffChain:
    def test_worked_count(self):
        n = handoff_count(6000, 3e7, 360, CHAIN_TAU_TRANS, 2e8)
        assert n == 2

    def test_no_work_no_handoffs(self):
        assert handoff_count(0, 3e7, 360, 1.0, 2e8) == 0

    def test_fast_satellite_single_window(self):
        assert handoff_count(6000, 3e7, 360, CHAIN_TAU_TRANS, 1e9) == 0

    def test_coverage_shorter_than_relay_rejected(self):
        with pytest.raises(ValueError):
            handoff_count(6000, 3e7, 10.0, 13.0, 2e8)

    def test_count_past_a_float_reads_inf(self):
        # relay_chain itself floors the infinite quotient and overflows
        with pytest.raises(OverflowError):
            cost.relay_chain(6000, 3e7, 360, CHAIN_TAU_TRANS, 1e-310)
        assert handoff_count(6000, 3e7, 360, CHAIN_TAU_TRANS, 1e-310) == math.inf
        assert handoff_count(6000, 3e7, 360, CHAIN_TAU_TRANS, 1e-300) == pytest.approx(
            6000 * 3e7 / ((360 - CHAIN_TAU_TRANS) * 1e-300))

    def test_lanes_read_what_scalar_calls_read(self):
        """relay_chain, handoff_count and ClusterModel.chain and
        battery_margin over arrays read, lane by lane, exactly what scalar
        calls read, and scalar calls return Python ints and floats. Clocks
        run from crawling (counts past a float's range) to above the
        single-window threshold; offloads include relay-only lanes."""
        sc = validate_scenario(scenario_dict([cluster_dict(
            0, [client_dict(0, 2e8, 20000)], sun_facing=True, sat_initial_energy_j=3000.0)]))
        model = cost.ClusterModel(sc, sc.clusters[0])
        c = model.cluster
        seen = set()

        offload = st.one_of(st.just(0.0), st.floats(0.0, 16000.0))
        # a clock that fills some windows, a crawling one, or any fast one
        clock = st.one_of(st.tuples(st.just("windows"), st.floats(0.01, 3.0)),
                          st.tuples(st.just("crawl"), st.floats(-310.0, -290.0)),
                          st.tuples(st.just("clock"), st.floats(6.0, 10.5)))

        @settings(max_examples=150)
        @given(st.lists(st.tuples(offload, clock), min_size=1, max_size=8))
        def check(rows):
            a = np.array([r[0] for r in rows])
            tau = model.tau_trans(a)
            f = np.array([3e7 * ai / ((360.0 - ti) * x) if kind == "windows" and ai > 0.0
                          else 10.0 ** (9.0 if kind == "windows" else x)
                          for (ai, (kind, x)), ti in zip(rows, tau.tolist())])
            e_tr = isl_transfer_energy(tau, c.sat_tx_power_w)
            counts = handoff_count(a, 3e7, 360.0, tau, f)
            chain = relay_chain(a, 3e7, 360.0, tau, f, 1e-28, e_tr)
            fits = counts <= cost.MAX_HANDOFFS
            if not fits.all():
                k = int(np.argmin(fits))  # the first lane past the limit is named
                with pytest.raises(ValueError, match=re.escape(
                        f"cluster 0: offloading {a[k]:.6g} samples at {f[k]:.6g} Hz")):
                    model.chain(a, f)
            if fits.any():
                priced = model.chain(a[fits], f[fits])
                margins = model.battery_margin(a[fits], f[fits])
            for i, (ai, fi, ti, ei) in enumerate(zip(a.tolist(), f.tolist(), tau.tolist(),
                                                     e_tr.tolist())):
                n = handoff_count(ai, 3e7, 360.0, ti, fi)
                assert n == counts[i] and (type(n) is int or n == math.inf)
                seen.add("relay" if ai == 0.0 else n if n == math.inf else min(n, 2))
                if n == math.inf:
                    continue
                one = relay_chain(ai, 3e7, 360.0, ti, fi, 1e-28, ei)
                assert type(one[0]) is int and type(one[1]) is float
                assert one == (chain[0][i], chain[1][i], (chain[2][0], chain[2][1][i]),
                               (chain[3][0][i], chain[3][1][i]))
                if fits[i]:
                    j = int(np.count_nonzero(fits[:i]))
                    scalar = model.chain(ai, fi)
                    assert scalar[0] == priced[0][j] and scalar[1] == priced[1][j]
                    margin = model.battery_margin(ai, fi)
                    assert type(margin) is float and margin == margins[j]

        check()
        assert seen == {"relay", 0, 1, 2, math.inf}

    def test_worked_last_dwell(self):
        dwell, energy = relay_chain(
            6000, 3e7, 360, CHAIN_TAU_TRANS, 2e8, 1e-28, 10.0 * CHAIN_TAU_TRANS
        )[3]
        assert dwell == pytest.approx(CHAIN_REM / 2e8 + CHAIN_TAU_TRANS, rel=1e-12)
        assert dwell == pytest.approx(219.2, abs=5e-2)
        assert energy == pytest.approx(1e-28 * CHAIN_REM * 4e16 + 130.6624, rel=1e-12)

    def test_first_dwell_is_full_window(self):
        dwell, energy = relay_chain(
            6000, 3e7, 360, CHAIN_TAU_TRANS, 2e8, 1e-28, 130.6624
        )[2]
        assert dwell == 360.0
        assert energy == pytest.approx(1e-28 * (360 - CHAIN_TAU_TRANS) * 8e24 + 130.6624, rel=1e-12)

    def test_single_window_collapse(self):
        # fast satellite, whole pass in one window
        dwell, _ = relay_chain(6000, 3e7, 360, CHAIN_TAU_TRANS, 1e9, 1e-28, 0.0)[3]
        assert dwell == pytest.approx(3e7 * 6000 / 1e9 + CHAIN_TAU_TRANS, rel=1e-12)

    def test_worked_step_latency(self):
        tau = relay_chain(6000, 3e7, 360, CHAIN_TAU_TRANS, 2e8)[1]
        assert tau == pytest.approx(720 + CHAIN_REM / 2e8 + CHAIN_TAU_TRANS, rel=1e-12)
        assert tau == pytest.approx(939.2, abs=5e-2)

    def test_relay_only_step(self):
        assert relay_chain(0, 3e7, 360, 1.024, 2e8)[1] == pytest.approx(1.024)

    def test_step_latency_nondecreasing_in_volume(self):
        taus = [
            relay_chain(a, 3e7, 360, (3.2e6 + 6272 * a) / 3.125e6, 2e8)[1]
            for a in np.linspace(0, 12000, 400)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(taus, taus[1:]))

    def test_chain_identity(self):
        # T*N + rem/f + tau_trans == (N+1)*tau_trans + cycles/f when each full
        # window contributes (T - tau_trans)*f cycles
        for a in (1500.0, 6000.0, 9999.0):
            tau_tr = (3.2e6 + 6272 * a) / 3.125e6
            n = handoff_count(a, 3e7, 360, tau_tr, 2e8)
            lhs = relay_chain(a, 3e7, 360, tau_tr, 2e8)[1]
            rhs = (n + 1) * tau_tr + 3e7 * a / 2e8
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestUplink:
    ARGS = dict(distance_m=784e3, pathloss_exponent=2.0, noise_density_w_per_hz=3.98e-21)

    def test_worked_latency_energy(self):
        # the chain scenario's one client: 0.2 W over the link in ARGS
        sc = chain_scenario()
        (tau,), (e,) = cost.ClusterModel(sc, sc.cluster(0)).uplink(1e6)
        snr = 0.2 * 784e3 ** -2 / (1e6 * 3.98e-21)
        assert snr == pytest.approx(81.8, abs=0.1)
        assert tau == pytest.approx(3.2e6 / (1e6 * math.log2(1 + snr)), rel=1e-12)
        assert tau == pytest.approx(0.502, abs=5e-4)
        assert e == pytest.approx(0.100, abs=5e-4)

    def test_latency_decreasing_in_bandwidth(self):
        snr_num = uplink_snr_num(0.2, **self.ARGS)
        taus = [upload_time(ModelFootprint(100000, 32, 6272).state_bits, snr_num, b)
                for b in np.geomspace(1e4, 1e8, 60)]
        assert all(b < a for a, b in zip(taus, taus[1:]))


class TestClientPath:
    def test_case1_all_done_before_final_arrival(self):
        y, case = cluster_client_path([100.0, 500.0], [0.5, 0.4], 360.0, 2)
        assert case == 1
        assert y == pytest.approx(720.5)

    def test_case2_worked(self):
        y, case = cluster_client_path([90.0], [0.5], 360.0, 0)
        assert (y, case) == (pytest.approx(90.5), 2)

    def test_case3_boundary_crossing(self):
        y, case = cluster_client_path([359.9], [0.5], 360.0, 0)
        assert (y, case) == (pytest.approx(360.5), 3)

    def test_case_conditions_hold_for_returned_case(self):
        rng = np.random.default_rng(42)
        seen = set()
        for _ in range(10000):
            n = int(rng.integers(0, 4))
            t = float(rng.uniform(50, 500))
            k = int(rng.integers(1, 6))
            tl = rng.uniform(0, 4 * t, k).tolist()
            ta = rng.uniform(0.01, 5, k).tolist()
            y, case = cluster_client_path(tl, ta, t, n)
            seen.add(case)
            m = max(tl)
            h = math.floor(m / t)
            v = max(max(t * h, a) + b for a, b in zip(tl, ta))
            # exactly one regime per the precedence ordering
            if m <= t * n:
                assert case == 1 and y == pytest.approx(t * n + max(ta))
            elif v <= t * (h + 1):
                assert case == 2 and y == pytest.approx(v)
            else:
                assert case == 3 and y == pytest.approx(t * (h + 1) + max(ta))
        assert seen == {1, 2, 3}

    def test_batched_rows_equal_scalar_calls(self):
        """A leading batch axis prices each row exactly as its own scalar
        call, and the drawn rows reach all three regimes."""
        seen = set()

        @settings(max_examples=200)
        @given(st.floats(50.0, 500.0), st.integers(1, 4), st.integers(1, 6), st.data())
        def check(t, k, rows, data):
            # local times anywhere in three windows or on a window edge
            local = st.one_of(st.floats(0.0, 3.0 * t), st.integers(0, 3).map(lambda h: h * t))
            tl = data.draw(st.lists(st.lists(local, min_size=k, max_size=k),
                                    min_size=rows, max_size=rows))
            ta = data.draw(st.lists(st.lists(st.floats(1e-3, t), min_size=k, max_size=k),
                                    min_size=rows, max_size=rows))
            n = data.draw(st.lists(st.integers(0, 3), min_size=rows, max_size=rows))
            y, case = cluster_client_path(np.array(tl), np.array(ta), t, np.array(n))
            assert y.shape == case.shape == (rows,)
            for i in range(rows):
                assert (y[i], case[i]) == cluster_client_path(tl[i], ta[i], t, n[i])
            seen.update(case.tolist())

        check()
        assert seen == {1, 2, 3}


def chain_scenario(alpha_max=0.95):
    """One cluster, one client sized so the worked relay chain appears."""
    c = client_dict(0, 2e8, 6600, max_offload_fraction=alpha_max)
    cl = cluster_dict(0, [c], sat_max_freq_hz=2e8, coverage_s=360.0,
                      sync_delay_s=1.0, glob_delay_s=2.0,
                      sat_initial_energy_j=1e9, sat_min_residual_j=0.0)
    return validate_scenario(scenario_dict([cl], param_count=100000, sample_bits=6272))


class TestRoundLatency:
    def test_worked_composition(self):
        sc = chain_scenario()
        dec = DecisionVector(alpha={0: 10.0 / 11.0}, sat_freq_hz={0: 2e8},
                             bandwidth_hz={0: 1e6})
        bd = round_latency(sc, dec)
        cl = bd.cluster(0)
        assert cl.offloaded_samples == pytest.approx(6000.0)
        assert cl.n_handoffs == 2
        assert cl.tau_rep_s == pytest.approx(939.19872, rel=1e-9)
        assert cl.tau_local_s[0] == pytest.approx(90.0)
        # satellite path dominates: 1 + 939.19872 + 2
        assert bd.tau_round_s == pytest.approx(942.19872, rel=1e-9)
        assert bd.tau_round_s == pytest.approx(942.2, abs=5e-2)

    def test_zero_offload_relay_only(self):
        sc = chain_scenario()
        dec = DecisionVector(alpha={0: 0.0}, sat_freq_hz={0: 2e8}, bandwidth_hz={0: 1e6})
        bd = round_latency(sc, dec)
        cl = bd.cluster(0)
        assert cl.tau_rep_s == pytest.approx(3.2e6 / 3.125e6, rel=1e-12)
        assert cl.n_handoffs == 0
        # terrestrial path: full local pass dominates
        assert cl.tau_local_s[0] == pytest.approx(3e7 * 6600 / 2e8, rel=1e-12)

    def test_round_dominates_components(self):
        sc = chain_scenario()
        dec = DecisionVector(alpha={0: 0.5}, sat_freq_hz={0: 2e8}, bandwidth_hz={0: 1e6})
        bd = round_latency(sc, dec)
        cl = bd.cluster(0)
        assert bd.tau_round_s >= cl.tau_client_path_s
        assert bd.tau_round_s >= cl.tau_sat_path_s
        assert bd.tau_round_s == pytest.approx(
            max(cl.tau_client_path_s, cl.tau_sat_path_s) + 2.0, rel=1e-12)

    def test_energy_ledger_identity(self):
        sc = chain_scenario()
        dec = DecisionVector(alpha={0: 10.0 / 11.0}, sat_freq_hz={0: 2e8},
                             bandwidth_hz={0: 1e6})
        cl = cluster_costs(sc, sc.cluster(0), dec)
        n = cl.n_handoffs
        e_tr = 10.0 * cl.tau_trans_s
        rem = 3e7 * 6000 - n * (360 - cl.tau_trans_s) * 2e8
        expect = n * (1e-28 * (360 - cl.tau_trans_s) * 8e24 + e_tr) + 1e-28 * rem * 4e16 + e_tr
        assert sum(cl.sat_energy_j) == pytest.approx(expect, rel=1e-12)
        assert len(cl.sat_energy_j) == n + 1

    def test_deterministic(self):
        sc = chain_scenario()
        dec = DecisionVector(alpha={0: 0.37}, sat_freq_hz={0: 1.7e8}, bandwidth_hz={0: 8.2e5})
        a = round_latency(sc, dec)
        b = round_latency(sc, dec)
        assert a.tau_round_s == b.tau_round_s
        assert asdict(a.cluster(0)) == asdict(b.cluster(0))


class TestUnitSanity:
    def test_representative_magnitudes(self):
        # cycles/(cycles/s) must come out as seconds in sane ranges for
        # Table-like magnitudes
        tau = client_local_latency(profile(f=1e9, m=3e7), 1.0, 1200)
        assert 1.0 < tau < 1e3
        e = client_local_energy(profile(f=1e9, m=3e7), 1.0, 1200, 1e-28)
        assert 1e-3 < e < 1e2
        tau_tr = isl_transfer_latency(ModelFootprint(100000), 6000, 3.125e6)
        assert 1.0 < tau_tr < 100.0
        rate = slice_rate(uplink_snr_num(0.2, 784e3, 2.0, 3.98e-21), 1e6)
        assert 1e5 < rate < 1e8
