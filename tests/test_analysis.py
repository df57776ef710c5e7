"""Variance measures, the batching penalty, the convergence bound, and the
empirical bound check."""

import math

import numpy as np
import pytest

from orbitfed.analysis import (
    L_BLOCK_ROWS,
    WEIGHT_SCALE,
    BoundInputs,
    build_bound_inputs,
    certified_smoothness,
    convergence_bound,
    estimate_smoothness_and_rho,
    omega,
    sample_variance,
    verify_bound_empirically,
)
from orbitfed.fl import ModelLayout, loss_and_grad
from orbitfed.scenario import (
    SampleSet,
    apply_offload,
    concat_samples,
    prepare_data,
    synthetic_dataset,
    validate_scenario,
)

from conftest import client_dict, cluster_dict, scenario_dict


def inputs_for(lrs=(0.1,), lam=2, pool=4, rho=1.0, var=3.0, smooth=1.0,
               f0=math.nan, f_star=math.nan):
    # single cluster, single client, no satellite pool
    return BoundInputs(
        learning_rates=tuple(lrs), smoothness=smooth, data_variability=rho,
        client_batch={0: lam}, client_pool={0: pool},
        sat_batch={0: 0}, sat_pool={0: 0},
        dataset_sizes={0: pool}, groups={0: (0,)},
        f0=f0, f_star=f_star, v_client={0: var},
    )


def offloaded_scenario(seed=0, n_clients=3, alpha=0.3, samples=80,
                       noise=0.4, partition="iid"):
    clients = [client_dict(k, 2e8, 0) for k in range(n_clients)]
    spec = scenario_dict(
        [cluster_dict(0, clients)], param_count=27, sample_bits=6 * 32 + 32,
        seed=seed,
        data={"source": "synthetic", "samples_per_client": samples,
              "classes": 3, "dim": 6, "noise": noise, "test_samples": 100,
              "partition": partition, "sensitive_fraction": 0.2,
              "model": {"kind": "logistic"}},
    )
    sc, _ = prepare_data(validate_scenario(spec))
    return apply_offload(sc, {p.id: alpha for p in sc.clients})


class TestSampleVariance:
    def test_two_point_hand_value(self):
        assert sample_variance(np.array([0.0, 2.0])) == 2.0

    def test_identical_samples(self):
        assert sample_variance(np.full(8, 3.7)) == 0.0

    def test_matches_two_pass_formula(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((100, 20))
        mean = x.mean(axis=0)
        want = float(np.sum((x - mean) ** 2) / 99)
        got = sample_variance(SampleSet(x, np.zeros(100, dtype=np.int64),
                                        np.arange(100, dtype=np.int64)))
        assert got == pytest.approx(want, rel=1e-12)

    def test_translation_invariant(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((40, 5))
        assert sample_variance(x + 17.3) == pytest.approx(
            sample_variance(x), rel=1e-10)

    def test_quadratic_under_scaling(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((40, 5))
        assert sample_variance(2.5 * x) == pytest.approx(
            6.25 * sample_variance(x), rel=1e-10)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="two samples"):
            sample_variance(np.array([1.0]))


class TestOmega:
    def test_full_batches_give_zero(self):
        assert omega(inputs_for(lam=4, pool=4)) == 0.0

    def test_hand_value(self):
        # one client, pool 4, batch 2, rho 1, variance 3, one round:
        # (2/4) * (1 - 2/4) * (3/2) * 3 = 1.125
        assert omega(inputs_for()) == pytest.approx(1.125, rel=1e-12)

    def test_scales_with_round_count(self):
        assert omega(inputs_for(lrs=(0.1, 0.05, 0.02))) == pytest.approx(
            3 * 1.125, rel=1e-12)

    def test_smaller_batches_hurt_more(self):
        vals = [omega(inputs_for(lam=lam, pool=8)) for lam in (8, 4, 2, 1)]
        assert vals[0] == 0.0
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_nonnegative_and_zero_iff_full(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pool = int(rng.integers(2, 40))
            lam = int(rng.integers(1, pool + 1))
            val = omega(inputs_for(lam=lam, pool=pool,
                                   rho=float(rng.uniform(0.1, 5)),
                                   var=float(rng.uniform(0.1, 5))))
            assert val >= 0.0
            assert (val == 0.0) == (lam == pool)

    def test_satellite_pool_contributes(self):
        base = inputs_for()
        with_sat = BoundInputs(
            learning_rates=base.learning_rates, smoothness=1.0,
            data_variability=1.0, client_batch={0: 4}, client_pool={0: 4},
            sat_batch={0: 2}, sat_pool={0: 4}, dataset_sizes={0: 4},
            groups={0: (0,)}, v_client={0: 3.0}, v_sat={0: 3.0})
        assert omega(with_sat) == pytest.approx(1.125, rel=1e-12)


class TestConvergenceBound:
    def test_constant_rate_no_noise(self):
        r, eta = 8, 0.05
        inp = inputs_for(lrs=(eta,) * r, lam=4, pool=4, f0=3.0, f_star=1.0)
        assert convergence_bound(inp, 0.0) == pytest.approx(
            2 * (3.0 - 1.0) / (r * eta), rel=1e-12)

    def test_decaying_rate_matches_hand_sum(self):
        eta0, r = 0.2, 6
        lrs = [eta0 / (1 + i) for i in range(r)]
        gamma = sum(lrs)
        sum_sq = sum(e * e for e in lrs)
        om, smooth = 0.7, 2.0
        inp = inputs_for(lrs=lrs, smooth=smooth, f0=4.0, f_star=0.5)
        want = 2 * (4.0 - 0.5) / gamma + 2 * smooth * om * sum_sq / gamma
        assert convergence_bound(inp, om) == pytest.approx(want, rel=1e-12)

    def test_vanishes_with_more_rounds_at_fixed_omega(self):
        def u(r):
            inp = inputs_for(lrs=(0.01,) * r, f0=3.0, f_star=1.0)
            return convergence_bound(inp, 0.5)
        assert u(100_000) < u(10_000) < u(1_000)

    def test_decreasing_in_rate_sum(self):
        us = []
        for r in (4, 8, 16, 32):
            inp = inputs_for(lrs=(0.05,) * r, lam=4, pool=4, f0=3.0, f_star=1.0)
            us.append(convergence_bound(inp, 0.0))
        assert all(b < a for a, b in zip(us, us[1:]))

    def test_missing_anchors_rejected(self):
        with pytest.raises(ValueError, match="F"):
            convergence_bound(inputs_for(), 0.0)


class TestEstimation:
    def test_logistic_estimate_stable_across_seeds(self):
        layout = ModelLayout("logistic", (6, 3))
        data = synthetic_dataset(60, n_classes=3, feature_dim=6, seed=4)
        ls = [estimate_smoothness_and_rho(layout, data, trials=4000, seed=s)[0]
              for s in range(3)]
        assert max(ls) / min(ls) < 1.10

    def test_duplicated_dataset_keeps_rho(self):
        layout = ModelLayout("logistic", (6, 3))
        data = synthetic_dataset(20, n_classes=3, feature_dim=6, seed=5)
        doubled = concat_samples([data, data])
        # the max-over-draws estimator needs enough trials to stabilise
        _, rho_a = estimate_smoothness_and_rho(layout, data, trials=30000)
        _, rho_b = estimate_smoothness_and_rho(layout, doubled, trials=30000)
        assert rho_b == pytest.approx(rho_a, rel=0.05)


def per_pair_estimate(layout, samples, trials, seed=0):
    """The estimate one pair at a time, as the plain reference for the
    blocked one: same draws, same skips, one gradient per call."""
    grad = lambda w, xx, yy: loss_and_grad(w, layout, xx, yy)[1]
    x, y = samples.features, samples.labels
    rng = np.random.default_rng([seed, 23])
    n_pairs = max(1, trials // 2)
    l_hat = 0.0
    for _ in range(n_pairs):
        w = rng.normal(0.0, WEIGHT_SCALE, layout.param_count)
        v = rng.normal(0.0, WEIGHT_SCALE, layout.param_count)
        d = float(np.linalg.norm(w - v))
        if d > 0.0:
            l_hat = max(l_hat, float(np.linalg.norm(grad(w, x, y) - grad(v, x, y))) / d)
    rho_hat = 0.0
    for _ in range(n_pairs):
        w = rng.normal(0.0, WEIGHT_SCALE, layout.param_count)
        i, j = rng.integers(0, len(x), size=2)
        d = float(np.linalg.norm(x[i] - x[j]))
        if d > 0.0:
            gi = grad(w, x[i:i + 1], y[i:i + 1])
            gj = grad(w, x[j:j + 1], y[j:j + 1])
            rho_hat = max(rho_hat, float(np.linalg.norm(gi - gj)) / d)
    return l_hat, rho_hat


def with_duplicate_row(samples):
    # the last row repeats the first, so some sample pairs are zero apart
    return concat_samples([samples, samples.take([0])])


class TestBlockedEstimate:
    @pytest.mark.parametrize("layout", [ModelLayout("mlp", (5, 4, 3)),
                                        ModelLayout("logistic", (5, 3))], ids=["mlp", "logistic"])
    @pytest.mark.parametrize("trials", [1, 2, 3, 33, 4000])
    def test_matches_per_pair_reference(self, layout, trials):
        data = with_duplicate_row(synthetic_dataset(6, n_classes=3, feature_dim=5, seed=2))
        got = estimate_smoothness_and_rho(layout, data, trials=trials, seed=7)
        want = per_pair_estimate(layout, data, trials, seed=7)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("layout", [ModelLayout("mlp", (5, 4, 3)),
                                        ModelLayout("logistic", (5, 3))], ids=["mlp", "logistic"])
    @pytest.mark.parametrize("rows", [700, 5000])
    def test_row_blocks_and_partial_pair_block(self, layout, rows):
        # 700 rows: blocks of 2 pairs, so 3 pairs leave a partial last block;
        # 5000 rows: 1 pair per block, its gradients summed over 3 row blocks
        block_rows = L_BLOCK_ROWS // 2
        assert L_BLOCK_ROWS // (2 * 700) == 2 and 2 * block_rows < 5000 <= 3 * block_rows
        data = synthetic_dataset(rows, n_classes=3, feature_dim=5, seed=3)
        got = estimate_smoothness_and_rho(layout, data, trials=7, seed=7)
        want = per_pair_estimate(layout, data, 7, seed=7)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_identical_rows_give_zero_rho(self):
        layout = ModelLayout("logistic", (5, 3))
        one = synthetic_dataset(1, n_classes=3, feature_dim=5, seed=2)
        l_hat, rho_hat = estimate_smoothness_and_rho(layout, concat_samples([one, one]), trials=40)
        assert l_hat > 0.0
        assert rho_hat == 0.0


class TestCertifiedSmoothness:
    def test_empirical_never_exceeds_certified(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            n, dim, classes = (int(v) for v in rng.integers((2, 1, 2), (40, 7, 6)))
            data = SampleSet(rng.normal(0.0, float(rng.uniform(0.1, 3.0)), (n, dim)),
                             rng.integers(0, classes, n), np.arange(n))
            layout = ModelLayout("logistic", (dim, classes))
            l_hat, _ = estimate_smoothness_and_rho(layout, data, trials=400,
                                                   seed=int(rng.integers(0, 1000)))
            assert 0.0 < l_hat <= certified_smoothness(layout, data)

    def test_none_for_mlp(self):
        data = synthetic_dataset(10, n_classes=3, feature_dim=4, seed=0)
        assert certified_smoothness(ModelLayout("mlp", (4, 3, 3)), data) is None


class TestBoundInputsFromScenario:
    def test_pools_track_offload(self):
        sc = offloaded_scenario(alpha=0.25, samples=80)
        inp = build_bound_inputs(sc, [0.1], smoothness=1.0, rho=1.0)
        assert inp.client_pool == {0: 60, 1: 60, 2: 60}
        assert inp.sat_pool == {0: 60}
        assert inp.dataset_sizes == {0: 80, 1: 80, 2: 80}
        assert inp.client_batch == inp.client_pool  # defaults to full

    def test_batch_clamped_to_pool(self):
        sc = offloaded_scenario(alpha=0.25, samples=80)
        inp = build_bound_inputs(sc, [0.1], 1.0, 1.0, lambda_client=10 ** 6)
        assert inp.client_batch == inp.client_pool


class TestVerifyBound:
    def test_full_batch_convex_holds_with_margin(self):
        sc = offloaded_scenario(seed=1)
        rep = verify_bound_empirically(sc, ModelLayout("logistic", (6, 3)),
                                       rounds=15, seeds=range(4), eta0=0.05)
        assert rep["holds_all"]
        assert rep["omega"] == 0.0
        assert rep["min_margin"] > 0
        assert rep["bound_mean"] > rep["lhs_mean"]
        assert rep["certified"] is False
        assert 0.0 < rep["smoothness"] <= rep["smoothness_certified"]

    def test_single_round_holds(self):
        sc = offloaded_scenario(seed=2)
        rep = verify_bound_empirically(sc, ModelLayout("logistic", (6, 3)),
                                       rounds=1, seeds=range(3), eta0=0.05)
        assert rep["holds_all"]

    def test_slack_tightens_as_batches_fill(self):
        sc = offloaded_scenario(seed=3)
        pool = len(sc.clients[0].dataset.retained)
        margins = []
        for lam in (1, max(pool // 4, 2), pool):
            rep = verify_bound_empirically(
                sc, ModelLayout("logistic", (6, 3)), rounds=10, seeds=range(3),
                eta0=0.05, lambda_client=lam, lambda_sat=lam)
            assert rep["holds_all"]
            margins.append(rep["bound_mean"] - rep["lhs_mean"])
        assert margins[0] > margins[1] > margins[2]

    def test_premise_flag_tracks_rate(self):
        sc = offloaded_scenario(seed=4)
        layout = ModelLayout("logistic", (6, 3))
        small = verify_bound_empirically(sc, layout, rounds=2, seeds=[0], eta0=1e-4)
        big = verify_bound_empirically(sc, layout, rounds=2, seeds=[0], eta0=50.0)
        assert small["lr_premise_ok"]
        assert not big["lr_premise_ok"]
