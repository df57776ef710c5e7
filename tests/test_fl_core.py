"""Model families, local updates, and aggregation rules."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orbitfed import fl
from orbitfed.fl import (
    ModelLayout,
    ModelParams,
    TrainConfig,
    Workspace,
    _loss_grad,
    evaluate,
    global_aggregate,
    gradient,
    init_model,
    intra_cluster_aggregate,
    local_update,
    local_update_stack,
    loss_and_grad,
)
from orbitfed.scenario import SampleSet, synthetic_dataset

MLP = ModelLayout("mlp", (16, 12, 10))
LOGISTIC = ModelLayout("logistic", (8, 4))


def sample_set(n, dim, classes, seed=0):
    rng = np.random.default_rng(seed)
    return SampleSet(
        rng.standard_normal((n, dim)),
        rng.integers(0, classes, n).astype(np.int64),
        np.arange(n, dtype=np.int64),
    )


def scalarish(value, layout=ModelLayout("logistic", (1, 1))):
    # 2-parameter stand-in for a scalar model: every entry equals value
    return ModelParams(np.full(layout.param_count, float(value)), layout)


class TestInit:
    def test_deterministic(self):
        a = init_model(MLP, seed=7)
        b = init_model(MLP, seed=7)
        assert np.array_equal(a.values, b.values)
        c = init_model(MLP, seed=8)
        assert not np.array_equal(a.values, c.values)

    def test_mlp_param_count(self):
        assert ModelLayout("mlp", (784, 32, 10)).param_count == 25450

    def test_logistic_param_count(self):
        layout = ModelLayout("logistic", (20, 4))
        assert layout.param_count == 84
        assert init_model(layout, seed=0).values.shape == (84,)

    def test_small_uniform_range(self):
        m = init_model(MLP, seed=0)
        assert np.all(np.abs(m.values) <= 0.05)


class TestGradients:
    @pytest.mark.parametrize("layout", [MLP, LOGISTIC], ids=["mlp", "logistic"])
    def test_matches_central_differences(self, layout):
        rng = np.random.default_rng(11)
        data = sample_set(6, layout.dims[0], layout.n_classes, seed=5)
        eps = 1e-5
        for trial in range(100):
            w = rng.uniform(-0.5, 0.5, layout.param_count)
            i = int(rng.integers(0, layout.param_count))
            _, g = loss_and_grad(w, layout, data.features, data.labels)
            wp = w.copy(); wp[i] += eps
            wm = w.copy(); wm[i] -= eps
            lp, _ = loss_and_grad(wp, layout, data.features, data.labels)
            lm, _ = loss_and_grad(wm, layout, data.features, data.labels)
            num = (lp - lm) / (2 * eps)
            assert g[i] == pytest.approx(num, rel=1e-5, abs=1e-8)

    def test_single_sample_update_matches_gradient(self):
        data = sample_set(1, 8, 4, seed=9)
        model = init_model(LOGISTIC, seed=1)
        cfg = TrainConfig(eta0=0.05, lr_schedule="constant", single_step=True, seed=0)
        out = local_update(model, data, cfg, 0)
        implied = (model.values - out.values) / 0.05
        _, g = loss_and_grad(model.values, LOGISTIC, data.features, data.labels)
        assert np.allclose(implied, g, rtol=1e-10, atol=1e-12)


def rowmajor_loss_grad(values, layout, X, y):
    """One model's mean cross-entropy, gradient and shifted logits, written
    row-major (logits (n, classes)) as the plain reference for the kernel."""
    n = len(y)
    if layout.kind == "logistic":
        d, c = layout.dims
        w, b = values[:d * c].reshape(d, c), values[d * c:]
        z = X @ w + b
    else:
        d, h, c = layout.dims
        w1 = values[:d * h].reshape(d, h)
        b1 = values[d * h:d * h + h]
        w2 = values[d * h + h:d * h + h + h * c].reshape(h, c)
        b2 = values[d * h + h + h * c:]
        a = np.tanh(X @ w1 + b1)
        z = a @ w2 + b2
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    loss = np.mean(np.log(e.sum(axis=1)) - z[np.arange(n), y])
    dz = e / e.sum(axis=1, keepdims=True)
    dz[np.arange(n), y] -= 1.0
    dz /= n
    if layout.kind == "logistic":
        parts = [X.T @ dz, dz.sum(axis=0)]
    else:
        dh = (dz @ w2.T) * (1.0 - a ** 2)
        parts = [X.T @ dh, dh.sum(axis=0), a.T @ dz, dz.sum(axis=0)]
    return loss, np.concatenate([p.ravel() for p in parts]), z


def assert_rel(got, want, tol=1e-12):
    assert np.linalg.norm(np.asarray(got) - want) <= tol * np.linalg.norm(want), (got, want)


class TestClassMajorKernel:
    @settings(max_examples=80)
    @given(kind=st.sampled_from(["logistic", "mlp"]), rows=st.integers(1, 40),
           classes=st.integers(2, 7), dim=st.integers(1, 6), hidden=st.integers(1, 6),
           lead=st.lists(st.integers(1, 3), max_size=2), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_rowmajor_reference(self, kind, rows, classes, dim, hidden, lead, seed):
        dims = (dim, classes) if kind == "logistic" else (dim, hidden, classes)
        layout = ModelLayout(kind, dims)
        rng = np.random.default_rng(seed)
        lead = tuple(lead)
        values = rng.normal(0.0, 1.0, lead + (layout.param_count,))
        X = rng.normal(0.0, 2.0, lead + (rows, dim))
        y = rng.integers(0, classes, lead + (rows,))
        g = gradient(values, layout, X, y)
        assert g.shape == values.shape
        for i in np.ndindex(*lead):
            want_loss, want_grad, z = rowmajor_loss_grad(values[i], layout, X[i], y[i])
            assert_rel(g[i], want_grad)
            loss, g1 = loss_and_grad(values[i], layout, X[i], y[i])
            assert_rel(g1, want_grad)
            assert_rel(loss, want_loss)
            acc, ev_loss = evaluate(ModelParams(values[i], layout),
                                    SampleSet(X[i], y[i], np.arange(rows)))
            assert_rel(ev_loss, want_loss)
            assert acc == np.mean(np.argmax(z, axis=1) == y[i])


class TestWorkspace:
    def test_reused_buffers_match_fresh_calls_bit_for_bit(self):
        """One workspace through calls whose stack, rows and layout shrink,
        largest first, so each later call runs on buffers an earlier one left
        full: every loss and gradient equals a fresh-buffer call's."""
        rng = np.random.default_rng(44)
        work = Workspace()
        # (layout, model axes, rows, features shared by the stack)
        calls = [(MLP, (4,), 300, True), (MLP, (3,), 120, False), (LOGISTIC, (5,), 90, True),
                 (MLP, (), 57, True), (LOGISTIC, (2, 2), 11, False), (MLP, (2,), 1, False),
                 (LOGISTIC, (), 3, True), (MLP, (4,), 300, True)]
        for layout, lead, rows, shared in calls:
            dim, classes = layout.dims[0], layout.n_classes
            values = rng.normal(0.0, 0.5, lead + (layout.param_count,))
            X = rng.normal(0.0, 1.0, (() if shared else lead) + (rows, dim))
            y = rng.integers(0, classes, (() if shared else lead) + (rows,))
            _, got = _loss_grad(values, layout, X, y, with_loss=False, work=work)
            assert np.array_equal(got, gradient(values, layout, X, y))
            if not lead:
                loss, got = _loss_grad(values, layout, X, y, with_loss=True, work=work)
                want_loss, want = loss_and_grad(values, layout, X, y)
                assert loss == want_loss
                assert np.array_equal(got, want)


class TestLocalUpdate:
    def test_zero_lr_is_identity(self):
        data = sample_set(40, 16, 10, seed=2)
        model = init_model(MLP, seed=3)
        cfg = TrainConfig(eta0=0.0, lr_schedule="constant", seed=0)
        out = local_update(model, data, cfg, 0)
        assert np.array_equal(out.values, model.values)

    def test_full_batch_convex_descent(self):
        # multinomial logistic is convex; full-batch steps at a small rate
        # must strictly decrease the loss
        data = synthetic_dataset(120, n_classes=4, feature_dim=8, seed=4)
        model = init_model(ModelLayout("logistic", (8, 4)), seed=0)
        cfg = TrainConfig(eta0=0.05, lr_schedule="constant", single_step=True,
                          batch_size=len(data), seed=0)
        losses = []
        for r in range(12):
            losses.append(loss_and_grad(model.values, model.layout,
                                        data.features, data.labels)[0])
            model = local_update(model, data, cfg, r)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_empty_set_rejected(self):
        model = init_model(LOGISTIC)
        with pytest.raises(ValueError, match="empty"):
            local_update(model, SampleSet.empty(8), TrainConfig(), 0)

    def test_fedprox_zero_mu_identical_to_fedavg(self):
        data = sample_set(64, 16, 10, seed=6)
        model = init_model(MLP, seed=1)
        plain = TrainConfig(eta0=0.1, momentum=0.9, prox_mu=0.0, seed=3)
        prox = TrainConfig(eta0=0.1, momentum=0.9, prox_mu=0.0, seed=3)
        a = local_update(model, data, plain, 2)
        b = local_update(model, data, prox, 2)
        assert np.array_equal(a.values, b.values)

    def test_fedprox_pulls_toward_anchor(self):
        data = sample_set(64, 16, 10, seed=6)
        model = init_model(MLP, seed=1)
        free = local_update(model, data, TrainConfig(eta0=0.1, prox_mu=0.0, seed=3), 0)
        pulled = local_update(model, data, TrainConfig(eta0=0.1, prox_mu=5.0, seed=3), 0)
        assert np.linalg.norm(pulled.values - model.values) < np.linalg.norm(
            free.values - model.values)

    def test_deterministic_per_stream(self):
        data = sample_set(64, 16, 10, seed=6)
        model = init_model(MLP, seed=1)
        cfg = TrainConfig(eta0=0.1, seed=3)
        a = local_update(model, data, cfg, 0, stream=(2, 5))
        b = local_update(model, data, cfg, 0, stream=(2, 5))
        c = local_update(model, data, cfg, 0, stream=(2, 6))
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)


def whole(sets):
    """Spans that train each set as its own block."""
    return [(k, 0, len(s)) for k, s in enumerate(sets)]


def looped_update(values, layout, samples, cfg, r, bs, stream):
    """The one-model update written as a plain loop over loss_and_grad."""
    n = len(samples)
    bs = max(1, min(bs, n))
    order = np.random.default_rng([cfg.seed, r, *stream]).permutation(n)
    eta = cfg.learning_rate(r)
    w, v = values.copy(), np.zeros_like(values)
    starts = [0] if cfg.single_step else range(0, n, bs)
    for start in starts:
        batch = order[start:start + bs]
        _, g = loss_and_grad(w, layout, samples.features[batch], samples.labels[batch])
        g = g + cfg.prox_mu * (w - values) if cfg.prox_mu > 0.0 else g
        if cfg.single_step:
            w = w - eta * g
        else:
            v = cfg.momentum * v + g
            w = w - eta * v
    return w


STACK_CONFIGS = {
    "momentum": TrainConfig(eta0=0.1, seed=3),
    "fedprox": TrainConfig(eta0=0.2, prox_mu=0.5, seed=4),
    "single_step": TrainConfig(eta0=0.1, single_step=True, seed=5),
    "single_step_prox": TrainConfig(eta0=0.1, single_step=True, prox_mu=0.3, seed=6,
                                    lr_schedule="constant"),
}


class TestStackedUpdate:
    # n = 1, n < batch, exact multiples and ragged last batches of one and
    # of batch - 1 rows; 52 and 49 end in batches of 20 and 17 rows, so at
    # step 1 the satellite's length 17 comes in two runs
    SIZES = (1, 2, 5, 31, 32, 33, 49, 52, 64, 65, 100)

    @pytest.mark.parametrize("layout", [LOGISTIC, MLP, ModelLayout("mlp", (7, 5, 3))],
                             ids=["logistic", "mlp", "mlp_odd"])
    @pytest.mark.parametrize("cfg", STACK_CONFIGS.values(), ids=STACK_CONFIGS.keys())
    def test_matches_looped_updates_bit_for_bit(self, layout, cfg):
        d, c = layout.dims[0], layout.n_classes
        sets = [sample_set(n, d, c, seed=i) for i, n in enumerate(self.SIZES)]
        sets.append(sample_set(150, d, c, seed=99))  # a satellite pool
        batches = [32] * len(self.SIZES) + [17]
        streams = [(2, i) for i in range(len(self.SIZES))] + [(1, 0)]
        start = np.random.default_rng(1).uniform(-0.3, 0.3, (len(sets), layout.param_count))
        stacked = local_update_stack(start, layout, sets, whole(sets), cfg, 2, batches, streams)
        for k, samples in enumerate(sets):
            ref = looped_update(start[k], layout, samples, cfg, 2, batches[k], streams[k])
            assert np.array_equal(stacked[k], ref), (k, len(samples))

    def test_shared_start_vector_broadcasts(self):
        sets = [sample_set(n, 16, 10, seed=n) for n in (3, 40, 70)]
        model = init_model(MLP, seed=2)
        cfg = TrainConfig(eta0=0.1, seed=1)
        streams = [(2, k) for k in range(3)]
        stacked = local_update_stack(model.values, MLP, sets, whole(sets), cfg, 0, [32] * 3,
                                     streams)
        for k, samples in enumerate(sets):
            one = local_update(model, samples, cfg, 0, stream=streams[k])
            assert np.array_equal(stacked[k], one.values)

    def test_planted_nan_names_the_model_stream(self):
        # the satellite's shuffle position q holds the NaN row: a batch in
        # the first chunk, then one gathered past fl.CHUNK_ROWS rows
        start = init_model(LOGISTIC).values
        for n, q, later in ((60, 37, False), (2 * fl.CHUNK_ROWS, 2 * fl.CHUNK_ROWS - 10, True)):
            sets = [sample_set(20, 8, 4, seed=20), sample_set(45, 8, 4, seed=45),
                    sample_set(n, 8, 4, seed=60)]
            sets[2].features[np.random.default_rng([0, 0, 1, 7]).permutation(n)[q], 3] = np.nan
            offset = q // 16 * 16
            assert later == (offset > fl.CHUNK_ROWS)
            with pytest.raises(FloatingPointError,
                               match=rf"stream \(1, 7\) at batch offset {offset} \("):
                local_update_stack(start, LOGISTIC, sets, whole(sets), TrainConfig(seed=0), 0,
                                   [16, 16, 16], [(2, 0), (2, 1), (1, 7)])

    def test_empty_member_rejected(self):
        sets = [sample_set(10, 8, 4), SampleSet.empty(8)]
        with pytest.raises(ValueError, match="empty"):
            local_update_stack(init_model(LOGISTIC).values, LOGISTIC, sets, whole(sets),
                               TrainConfig(), 0, [4, 4], [(2, 0), (2, 1)])

    @settings(max_examples=60)
    @given(
        clusters=st.lists(st.tuples(st.integers(0, 40), st.lists(st.integers(1, 40), min_size=1,
                                                                  max_size=3)),
                          min_size=1, max_size=3),
        client_batch=st.integers(1, 12), sat_batch=st.integers(1, 12),
        cfg=st.sampled_from(sorted(STACK_CONFIGS)),
        layout=st.sampled_from([LOGISTIC, ModelLayout("mlp", (8, 3, 4))]),
        chunk_rows=st.sampled_from([1, 7, 64, fl.CHUNK_ROWS]), seed=st.integers(0, 2**16))
    @example(clusters=[(0, [1, 2]), (9, [40, 5, 1])], client_batch=4, sat_batch=3,
             cfg="single_step_prox", layout=LOGISTIC, chunk_rows=7, seed=0)
    @example(clusters=[(33, [1, 17]), (0, [3])], client_batch=8, sat_batch=5,
             cfg="fedprox", layout=ModelLayout("mlp", (8, 3, 4)), chunk_rows=1, seed=1)
    def test_block_spans_match_one_model_updates(self, clusters, client_batch, sat_batch,
                                                 cfg, layout, chunk_rows, seed):
        # each cluster's block holds its pool (0 rows: no satellite model),
        # then its members' sets, as apply_offload lays them out
        rng = np.random.default_rng(seed)
        blocks, spans, batches, streams = [], [], [], []
        for b, (pool, members) in enumerate(clusters):
            blocks.append(sample_set(pool + sum(members), 8, 4, seed=seed + b))
            if pool:
                spans.append((b, 0, pool))
                batches.append(sat_batch)
                streams.append((1, b))
            o = pool
            for k, n in enumerate(members):
                spans.append((b, o, o + n))
                batches.append(client_batch)
                streams.append((2, 10 * b + k))
                o += n
        start = rng.uniform(-0.3, 0.3, (len(spans), layout.param_count))
        config = STACK_CONFIGS[cfg]
        with mock.patch.object(fl, "CHUNK_ROWS", chunk_rows):
            stacked = local_update_stack(start, layout, blocks, spans, config, 1, batches,
                                         streams)
        for k, (b, lo, hi) in enumerate(spans):
            one = local_update(ModelParams(start[k], layout), blocks[b].rows(lo, hi), config, 1,
                               batch_size=batches[k], stream=streams[k])
            ref = looped_update(start[k], layout, blocks[b].rows(lo, hi), config, 1, batches[k],
                                streams[k])
            assert np.array_equal(stacked[k], one.values), (k, hi - lo)
            assert np.array_equal(stacked[k], ref), (k, hi - lo)


class TestIntraClusterAggregate:
    def test_fixed_point(self):
        w = scalarish(1.5)
        out = intra_cluster_aggregate(w, [w, w], [0.3, 0.6], [100, 200])
        assert np.allclose(out.values, 1.5)

    def test_zero_alpha_recovers_client_fedavg(self):
        out = intra_cluster_aggregate(None, [scalarish(2.0), scalarish(4.0)],
                                      [0.0, 0.0], [100, 300])
        assert np.allclose(out.values, (100 * 2 + 300 * 4) / 400)

    def test_hand_weighted_mean(self):
        out = intra_cluster_aggregate(
            scalarish(1.0), [scalarish(2.0), scalarish(4.0)],
            [0.5, 0.25], [100, 300],
        )
        # satellite mass 50+75=125, clients 50 and 225, denominator 400
        assert np.allclose(out.values, 2.8125)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            alphas = rng.uniform(0, 0.8, n)
            sizes = rng.integers(10, 500, n).astype(float)
            sat_w = float(np.sum(alphas * sizes))
            client_w = (1 - alphas) * sizes
            total = (sat_w + client_w.sum()) / sizes.sum()
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(1)
        models = [ModelParams(rng.standard_normal(84), ModelLayout("logistic", (20, 4)))
                  for _ in range(3)]
        shift = 2.75
        shifted = [ModelParams(m.values + shift, m.layout) for m in models]
        base = intra_cluster_aggregate(models[0], models[1:], [0.4, 0.2], [50, 150])
        moved = intra_cluster_aggregate(shifted[0], shifted[1:], [0.4, 0.2], [50, 150])
        assert np.allclose(moved.values, base.values + shift, atol=1e-12)

    def test_missing_satellite_with_positive_mass_rejected(self):
        with pytest.raises(ValueError, match="satellite"):
            intra_cluster_aggregate(None, [scalarish(1.0)], [0.5], [100])


class TestGlobalAggregate:
    def test_single_cluster_identity(self):
        m = scalarish(3.25)
        out = global_aggregate([m])
        assert np.array_equal(out.values, m.values)

    def test_unweighted_mean(self):
        out = global_aggregate([scalarish(v) for v in (1, 2, 3, 4, 5)])
        assert np.allclose(out.values, 3.0)

    def test_mean_of_means_not_size_weighted(self):
        # two clusters with very different data mass still count equally
        heavy = intra_cluster_aggregate(None, [scalarish(10.0)], [0.0], [10000])
        light = intra_cluster_aggregate(None, [scalarish(0.0)], [0.0], [1])
        out = global_aggregate([heavy, light])
        assert np.allclose(out.values, 5.0)

    def test_affine_equivariance(self):
        models = [scalarish(v) for v in (0.5, 2.5)]
        shifted = [scalarish(v + 1.5) for v in (0.5, 2.5)]
        assert np.allclose(global_aggregate(shifted).values,
                           global_aggregate(models).values + 1.5, atol=1e-12)


class TestEvaluate:
    def test_random_model_near_chance(self):
        data = synthetic_dataset(2000, n_classes=10, feature_dim=16, seed=0)
        accs = [evaluate(init_model(MLP, seed=s), data)[0] for s in range(5)]
        assert abs(np.mean(accs) - 0.1) < 0.03

    def test_separable_data_learnable(self):
        data = synthetic_dataset(800, n_classes=4, feature_dim=8, noise=0.05, seed=1)
        model = init_model(ModelLayout("logistic", (8, 4)), seed=0)
        cfg = TrainConfig(eta0=0.3, lr_schedule="constant", momentum=0.9, seed=0)
        for r in range(30):
            model = local_update(model, data, cfg, r)
        acc, _ = evaluate(model, data)
        assert acc > 0.95

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate(init_model(MLP), SampleSet.empty(16))
