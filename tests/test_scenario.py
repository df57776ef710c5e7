"""Scenario validation, data partitioning, offload materialization, and
coverage schedules."""

import itertools
import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitfed.cli import main
from orbitfed.fl import TrainConfig
from orbitfed.scenario import (
    _CLIENT,
    _CLUSTER,
    _SCENARIO,
    SampleSet,
    ScenarioError,
    apply_offload,
    attach_datasets,
    concat_samples,
    load_coverage_schedule,
    load_csv_dataset,
    load_idx,
    load_scenario,
    partition_dataset,
    prepare_data,
    scenario_to_dict,
    synthetic_dataset,
    validate_scenario,
)

from conftest import (
    REFERENCE_SCENARIO,
    case1_instance,
    client_dict,
    cluster_dict,
    mixed_instance,
    multiwindow_instance,
    random_passes,
    scenario_dict,
)

README = REFERENCE_SCENARIO.parent.parent / "README.md"


def small_scenario(n_clients=2, **client_kw):
    clients = [client_dict(k, 2e8, 1000, **client_kw) for k in range(n_clients)]
    return validate_scenario(scenario_dict([cluster_dict(0, clients)]))


class TestValidate:
    def test_reference_scenario_is_valid(self):
        spec = json.loads(REFERENCE_SCENARIO.read_text())
        sc = validate_scenario(spec)
        assert len(sc.clusters) == 5
        assert len(sc.clients) == 50
        assert sum(c.sun_facing for c in sc.clusters) == 3

    def test_empty_cluster_rejected(self):
        spec = scenario_dict([cluster_dict(0, [])])
        with pytest.raises(ScenarioError, match="empty cluster"):
            validate_scenario(spec)

    def test_offload_fraction_out_of_range(self):
        spec = scenario_dict(
            [cluster_dict(0, [client_dict(0, 2e8, 100, max_offload_fraction=1.2)])]
        )
        with pytest.raises(ScenarioError, match=r"client 0: max_offload_fraction must be in \[0, 1\]"):
            validate_scenario(spec)

    def test_duplicate_client_ids(self):
        spec = scenario_dict(
            [cluster_dict(0, [client_dict(0, 2e8, 100), client_dict(0, 3e8, 100)])]
        )
        with pytest.raises(ScenarioError, match="duplicate client id"):
            validate_scenario(spec)

    def test_nonpositive_constant_rejected(self):
        spec = scenario_dict([cluster_dict(0, [client_dict(0, -2e8, 100)])])
        with pytest.raises(ScenarioError):
            validate_scenario(spec)

    def test_error_list_collects_everything(self):
        spec = scenario_dict([
            cluster_dict(0, []),
            cluster_dict(1, [client_dict(0, 2e8, 100, max_offload_fraction=1.2)]),
        ])
        with pytest.raises(ScenarioError) as err:
            validate_scenario(spec)
        assert len(err.value.errors) >= 2


# one field per family: cluster fields that must be positive, cluster fields
# that must be nonnegative, client fields that must be positive, ISL link
# parameters; each with the values that slip past a bare `<= 0` / `< 0` test
NON_FINITE_CASES = [
    ("cluster", "coverage_s", math.nan),
    ("cluster", "bandwidth_hz", math.inf),
    ("cluster", "isl_rate_bps", math.nan),
    ("cluster", "sync_delay_s", math.nan),
    ("cluster", "sat_initial_energy_j", math.inf),
    ("cluster", "max_offload_samples", math.nan),
    ("client", "cpu_freq_hz", math.nan),
    ("client", "energy_budget_j", math.inf),
    ("client", "tx_power_w", math.nan),
    ("isl_link", "pathloss", math.nan),
    # counts that go through int(): inf used to escape as an OverflowError
    ("client", "dataset_size", math.inf),
    ("client", "dataset_size", math.nan),
    ("model", "param_count", math.nan),
    ("model", "bits_per_param", math.inf),
    ("data", "samples_per_client", math.inf),
    # fields no check read: a NaN pathloss exponent failed in the solver, an
    # infinite link gain was reported as an "ISL rate", a NaN eta0 reached training
    ("cluster", "pathloss_exponent", math.nan),
    ("isl_link", "gain_tx", math.inf),
    ("train", "eta0", math.nan),
]


def spec_with(where, field, value):
    clients = [client_dict(0, 2e8, 100), client_dict(1, 3e8, 100)]
    spec = scenario_dict([cluster_dict(0, clients)])
    cluster = spec["clusters"][0]
    if where == "cluster":
        cluster[field] = value
    elif where == "client":
        cluster["clients"][1][field] = value
    elif where in ("model", "data", "train"):
        spec.setdefault(where, {})[field] = value
    else:
        cluster["isl_link"] = {"bandwidth_hz": 1e6, "tx_power_w": 1.0,
                               "pathloss": 1e-9, "noise_density_w_per_hz": 4e-21}
        cluster["isl_link"][field] = value
    return spec


class TestNonFiniteRejected:
    @pytest.mark.parametrize("where,field,value", NON_FINITE_CASES)
    def test_validate_names_the_field(self, where, field, value):
        with pytest.raises(ScenarioError) as err:
            validate_scenario(spec_with(where, field, value))
        assert any(field in e for e in err.value.errors), err.value.errors

    @pytest.mark.parametrize("where,field,value", NON_FINITE_CASES)
    def test_cli_reports_one_json_line(self, where, field, value, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec_with(where, field, value)))  # NaN / Infinity tokens
        rc = main(["--mode", "optimize", "--scenario", str(path), "--out", str(tmp_path / "run")])
        assert rc == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ScenarioError"
        assert err["details"]

    def test_negative_infinity_is_rejected(self):
        with pytest.raises(ScenarioError, match="max_offload_samples"):
            validate_scenario(spec_with("cluster", "max_offload_samples", -math.inf))

    def test_unlimited_offload_budget_stays_valid(self):
        sc = validate_scenario(spec_with("cluster", "max_offload_samples", math.inf))
        assert sc.clusters[0].max_offload_samples == math.inf


# each case breaks the JSON shape of one part of a valid two-client spec;
# the error must name that part
SHAPE_CASES = {
    "cluster_entry_not_object": "clusters[1]",
    "clusters_not_list": "clusters must be a list",
    "clients_string": "clients must be a list",
    "clients_object": "clients must be a list",
    "client_entry_not_object": "clients[1]",
}


def misshapen_spec(case):
    spec = scenario_dict([cluster_dict(0, [client_dict(0, 2e8, 100), client_dict(1, 3e8, 100)])])
    cluster = spec["clusters"][0]
    if case == "cluster_entry_not_object":
        spec["clusters"].append([1, 2])
    elif case == "clusters_not_list":
        spec["clusters"] = {"0": cluster}
    elif case == "clients_string":
        cluster["clients"] = "0,1"
    elif case == "clients_object":
        cluster["clients"] = {"0": {}}
    else:
        cluster["clients"][1] = 7
    return spec


class TestMisshapenRejected:
    @pytest.mark.parametrize("case", sorted(SHAPE_CASES))
    def test_validate_names_the_field(self, case):
        with pytest.raises(ScenarioError) as err:
            validate_scenario(misshapen_spec(case))
        assert any(SHAPE_CASES[case] in e for e in err.value.errors), err.value.errors

    @pytest.mark.parametrize("case", sorted(SHAPE_CASES))
    def test_cli_reports_one_json_line(self, case, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(misshapen_spec(case)))
        rc = main(["--mode", "optimize", "--scenario", str(path), "--out", str(tmp_path / "run")])
        assert rc == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ScenarioError"
        assert any(SHAPE_CASES[case] in e for e in err["details"]), err["details"]


# values of the wrong JSON type; each escaped as a bare ValueError, TypeError
# or AttributeError, was read as some other value, or was not read at all
WRONG_TYPE_CASES = [
    (("model", "sample_bits", "x"), "model.sample_bits must be a number"),
    (("model", "sample_bits", [1]), "model.sample_bits must be a number"),
    (("model", "param_count", None), "model.param_count must be a number"),
    (("model", "bits_per_param", True), "model.bits_per_param must be a number"),
    (("client", "dataset_size", "100"), "client 1: dataset_size must be a number"),
    (("data", "samples_per_client", [60]), "data.samples_per_client must be a number"),
    (("model", "param_count", 1000.5), "model.param_count must be a whole number"),
    (("model", None, "abc"), "model must be an object"),
    (("data", None, [1]), "data must be an object"),
    (("train", None, 3), "train must be an object"),
    (("cluster", "sat_max_freq_hz", "fast"), "cluster 0: sat_max_freq_hz must be a number"),
    (("cluster", "sat_max_freq_hz", "1e10"), "cluster 0: sat_max_freq_hz must be a number"),
    (("cluster", "isl_link", 5), "cluster 0: isl_link must be an object"),
    (("data", "noise", None), "data.noise must be a number"),
    (("train", "eta0", None), "train.eta0 must be a number"),
    (("data", "model", [1]), "data.model must be an object"),
    (("cluster", "sun_facing", "no"), "cluster 0: sun_facing must be true or false"),
    (("cluster", "glob_delay_s", True), "cluster 0: glob_delay_s must be a number"),
    (("cluster", "id", 1.5), "clusters[0]: id must be a whole number"),
    (("train", "batch_size", "x"), "train.batch_size must be a number"),
    (("train", "sat_batch_size", "x"), "train.sat_batch_size must be a number"),
    (("train", "lr_schedule", "cosine"), "train.lr_schedule must be one of 'inv', 'constant'"),
    (("cluster", "coverage_intervals", 360), "cluster 0: coverage_intervals must be a list"),
    (("cluster", "coverage_file", 3), "cluster 0: coverage_file must be a string"),
]
WRONG_TYPE_IDS = [f"{w}.{f}={v!r}" for (w, f, v), _ in WRONG_TYPE_CASES]


def wrong_type_spec(where, field, value):
    if field is not None:
        return spec_with(where, field, value)
    spec = spec_with("model", "param_count", 1000)
    spec[where] = value
    return spec


class TestWrongTypeRejected:
    @pytest.mark.parametrize("case,message", WRONG_TYPE_CASES, ids=WRONG_TYPE_IDS)
    def test_validate_names_the_field(self, case, message):
        with pytest.raises(ScenarioError) as err:
            validate_scenario(wrong_type_spec(*case))
        assert message in err.value.errors

    @pytest.mark.parametrize("case,message", WRONG_TYPE_CASES, ids=WRONG_TYPE_IDS)
    def test_cli_reports_one_json_line(self, case, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(wrong_type_spec(*case)))
        rc = main(["--mode", "optimize", "--scenario", str(path), "--out", str(tmp_path / "run")])
        assert rc == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ScenarioError"
        assert message in err["details"]

    def test_fractional_sample_bits_are_kept(self):
        sc = validate_scenario(spec_with("model", "sample_bits", 6272.5))
        assert sc.footprint.sample_bits == 6272.5

    def test_data_and_train_defaults_are_filled_in(self):
        sc = validate_scenario(spec_with("data", "source", "synthetic"))
        assert sc.data["samples_per_client"] == 200 and sc.data["model"]["kind"] == "mlp"
        assert sc.data["seed"] is None  # the scenario seed
        assert sc.train == TrainConfig()

    def test_samples_per_client_default_is_the_materialized_count(self):
        spec = spec_with("data", "dim", 4)
        del spec["clusters"][0]["clients"][0]["dataset_size"]
        sc = validate_scenario(spec)
        prepared, _ = prepare_data(sc)
        assert sc.clients[0].dataset_size == prepared.clients[0].size == 200

    def test_whole_float_counts_are_read_as_ints(self):
        sc = validate_scenario(spec_with("client", "dataset_size", 100.0))
        assert sc.clients[1].dataset_size == 100
        assert isinstance(sc.clients[1].dataset_size, int)


def corpus(n, labels=None, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    y = np.zeros(n, dtype=np.int64) if labels is None else np.asarray(labels, dtype=np.int64)
    return SampleSet(rng.standard_normal((n, dim)), y, np.arange(n, dtype=np.int64))


class TestPartition:
    def test_iid_even_split(self):
        parts = partition_dataset(corpus(60000, labels=np.arange(60000) % 10), 50, mode="iid")
        assert len(parts) == 50
        assert all(len(p) == 1200 for p in parts)

    def test_single_label_shards(self):
        parts = partition_dataset(corpus(100), 2, mode="shard_noniid", shards_per_client=2)
        assert all(len(p) == 50 for p in parts)
        assert all((p.labels == 0).all() for p in parts)

    def test_shard_label_support_bounded(self):
        samples = synthetic_dataset(1000, n_classes=10, feature_dim=8, seed=3)
        parts = partition_dataset(samples, 5, mode="shard_noniid", shards_per_client=2, seed=1)
        for p in parts:
            assert len(np.unique(p.labels)) <= 2

    def test_no_sample_duplicated(self):
        samples = synthetic_dataset(1000, n_classes=10, feature_dim=8, seed=3)
        for mode in ("iid", "shard_noniid"):
            parts = partition_dataset(samples, 5, mode=mode, seed=2)
            ids = np.concatenate([p.ids for p in parts])
            assert len(ids) == len(np.unique(ids))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            partition_dataset(corpus(3), 2, mode="shard_noniid", shards_per_client=2)


class TestSyntheticDataset:
    def test_matches_mixture_formula(self):
        # noise * N(0, I) plus the row's class mean, from the same draws
        data = synthetic_dataset(997, n_classes=13, feature_dim=5, noise=1.2, seed=3)
        mean_rng, rng = np.random.default_rng(3), np.random.default_rng(3)
        means = mean_rng.standard_normal((13, 5)) * (3.0 / math.sqrt(5))
        labels = np.tile(np.arange(13), 997 // 13 + 1)[:997][rng.permutation(997)]
        expect = rng.standard_normal((997, 5)) * 1.2 + means[labels]
        assert (data.labels == labels).all()
        assert data.features.tobytes() == expect.tobytes()

    def test_no_corpus_sized_temporary(self):
        tracemalloc.start()
        try:
            data = synthetic_dataset(20000, n_classes=10, feature_dim=16, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the corpus itself lives in its own mapping, outside tracemalloc
        assert peak < 0.5 * data.features.nbytes


def attached_scenario(sizes=(1000, 1000), sensitive_fraction=0.2, seed=0):
    clients = [client_dict(k, 2e8, 0) for k in range(len(sizes))]
    sc = validate_scenario(scenario_dict([cluster_dict(0, clients)], seed=seed))
    per = {
        k: synthetic_dataset(sizes[k], n_classes=5, feature_dim=6, seed=seed + k)
        for k in range(len(sizes))
    }
    return attach_datasets(sc, per, sensitive_fraction=sensitive_fraction, seed=seed)


# no sensitive rows, the default share, and every row sensitive (every pool empty)
FRACTIONS = (0.0, 0.2, 1.0)


def capped(sc, alpha):
    """alpha, each client's fraction cut to its offload cap."""
    return {p.id: min(alpha[p.id], p.max_offload_fraction) for p in sc.clients}


def assert_row_range(part, whole, lo, hi):
    """part's arrays are views of rows [lo, hi) of whole's, and of no other."""
    assert len(part) == hi - lo
    for name in ("features", "labels", "ids"):
        mine, rows = getattr(part, name), getattr(whole, name)
        assert lo == hi or np.shares_memory(mine, rows[lo:hi])
        assert not np.shares_memory(mine, rows[:lo])
        assert not np.shares_memory(mine, rows[hi:])


def satellite_pool(out, cluster_id):
    """The cluster's satellite pool, a row range of its block."""
    block = out.blocks[cluster_id]
    return block.samples.rows(*block.pool)


def split(out, p):
    """Client p's offloaded and retained rows, as row ranges of its
    cluster's block: the pool holds the members' offloaded rows in member
    order."""
    block = out.blocks[p.cluster_id]
    o = block.pool[0]
    for q in out.cluster_clients(p.cluster_id):
        lo, hi = block.retained[q.id]
        n_off = q.size - (hi - lo)
        if q.id == p.id:
            return block.samples.rows(o, o + n_off), block.samples.rows(lo, hi)
        o += n_off


def check_block_layout(out):
    """Each cluster's block holds its members' retained rows, then its pool,
    and every set is a row range of it in corpus order."""
    for c in out.clusters:
        block = out.blocks[c.id].samples
        members = out.cluster_clients(c.id)
        pool = satellite_pool(out, c.id)
        # each member's retained rows, in member order, then the pool
        parts = [split(out, p)[1] for p in members] + [pool]
        assert sum(map(len, parts)) == len(block)
        o = 0
        for part in parts:
            assert_row_range(part, block, o, o + len(part))
            o += len(part)
        # the pool is the members' offloaded rows in member order, each
        # member's a slice of it
        assert np.array_equal(pool.ids, np.concatenate(
            [split(out, p)[0].ids for p in members]))
        for p in members:
            d = p.dataset
            offloaded, retained = split(out, p)
            assert len(offloaded) == 0 or np.shares_memory(offloaded.features, pool.features)
            # rows keep their corpus order: the offloaded rows as they sit
            # among the nonsensitive ones, the retained sensitive then kept
            off = np.isin(d.nonsensitive.ids, offloaded.ids)
            assert np.array_equal(offloaded.ids, d.nonsensitive.ids[off])
            src = concat_samples([d.sensitive, d.nonsensitive])
            want = np.concatenate([np.arange(len(d.sensitive)),
                                   len(d.sensitive) + np.flatnonzero(~off)])
            for name in ("features", "labels", "ids"):
                assert np.array_equal(getattr(retained, name), getattr(src, name)[want])


class TestApplyOffload:
    def test_zero_alpha_identity(self):
        for fraction in FRACTIONS:
            sc = attached_scenario(sensitive_fraction=fraction)
            out = apply_offload(sc, {0: 0.0, 1: 0.0})
            for p in out.clients:
                offloaded, retained = split(out, p)
                assert len(offloaded) == 0
                assert len(retained) == p.size

    def test_alpha_max_count(self):
        sc = attached_scenario(sizes=(1200, 1200))
        out = apply_offload(sc, {0: 0.8, 1: 0.8})
        assert all(len(split(out, p)[0]) == 960 for p in out.clients)

    def test_sensitive_never_offloaded(self):
        sc = attached_scenario(sizes=(1000,), sensitive_fraction=0.4)
        p0 = sc.clients[0]
        assert len(p0.dataset.nonsensitive) == 600
        out = apply_offload(sc, {0: 0.5})
        offloaded, retained = split(out, out.clients[0])
        assert len(offloaded) == 500 and len(retained) == 500
        sensitive_ids = set(out.clients[0].dataset.sensitive.ids.tolist())
        assert sensitive_ids <= set(retained.ids.tolist())
        assert not sensitive_ids & set(offloaded.ids.tolist())

    def test_union_preserves_corpus(self):
        for fraction in FRACTIONS:
            sc = attached_scenario(sizes=(700, 900), sensitive_fraction=fraction)
            out = apply_offload(sc, capped(sc, {0: 0.3, 1: 0.6}))
            for before, after in zip(sc.clients, out.clients):
                got = np.sort(np.concatenate([s.ids for s in split(out, after)]))
                want = np.sort(np.concatenate([before.dataset.sensitive.ids,
                                               before.dataset.nonsensitive.ids]))
                assert np.array_equal(got, want)

    def test_idempotent_for_fixed_seed(self):
        for fraction in FRACTIONS:
            sc = attached_scenario(sensitive_fraction=fraction)
            a = apply_offload(sc, capped(sc, {0: 0.4, 1: 0.7}))
            b = apply_offload(sc, capped(sc, {0: 0.4, 1: 0.7}))
            for pa, pb in zip(a.clients, b.clients):
                for sa, sb in zip(split(a, pa), split(b, pb)):
                    assert np.array_equal(sa.ids, sb.ids)

    def test_exceeding_cap_rejected(self):
        sc = attached_scenario()
        with pytest.raises(ValueError, match="offload fraction"):
            apply_offload(sc, {0: 0.9, 1: 0.0})

    def test_satellite_pool_is_union(self):
        for fraction, size in zip(FRACTIONS, (250 + 200, 250 + 200, 0)):
            sc = attached_scenario(sizes=(500, 800), sensitive_fraction=fraction)
            out = apply_offload(sc, capped(sc, {0: 0.5, 1: 0.25}))
            assert len(satellite_pool(out, 0)) == size

    @pytest.mark.parametrize("fraction", FRACTIONS)
    def test_sets_are_views_of_the_client_rows_then_the_block(self, fraction):
        sc = attached_scenario(sizes=(300, 200), sensitive_fraction=fraction)
        out = apply_offload(sc, capped(sc, {0: 0.5, 1: 0.3}))
        # the split is recorded only in the blocks: the clients are the same
        assert sc.blocks is None and out.clients is sc.clients
        for before in sc.clients:
            d, n_sens = before.dataset, round(fraction * before.size)
            # every privacy-class set is a row range of the client's one
            # array, sensitive rows first, each group in corpus order
            assert d.n_sensitive == n_sens
            assert_row_range(d.sensitive, d.samples, 0, n_sens)
            assert_row_range(d.nonsensitive, d.samples, n_sens, before.size)
            assert np.all(np.diff(d.sensitive.ids) > 0) and np.all(np.diff(d.nonsensitive.ids) > 0)
            # the offload sets are rows of the block, a copy of its own
            assert not np.shares_memory(d.samples.features, out.blocks[0].samples.features)
        check_block_layout(out)
        assert (len(satellite_pool(out, 0)) > 0) == (fraction < 1.0)

    def test_sets_are_row_ranges_of_their_cluster_block(self):
        clients = [client_dict(k, 2e8, 0) for k in range(4)]
        sc = validate_scenario(scenario_dict([cluster_dict(0, clients[:3]),
                                              cluster_dict(1, clients[3:])]))
        per = {k: synthetic_dataset(n, n_classes=5, feature_dim=6, seed=k)
               for k, n in enumerate((300, 200, 150, 90))}
        for fraction in FRACTIONS:
            attached = attach_datasets(sc, per, sensitive_fraction=fraction)
            out = apply_offload(attached, capped(attached, {0: 0.5, 1: 0.0, 2: 0.3, 3: 0.0}))
            check_block_layout(out)


class TestCoverage:
    def test_fixed_period_intervals(self):
        # a fixed period is coverage_s; as a schedule it is rejected by name
        for field, value in (("coverage_intervals", 360), ("coverage_file", 3),
                             ("coverage_intervals", {"period_s": 360.0})):
            with pytest.raises(ScenarioError, match=f"cluster 0: {field} must be"):
                validate_scenario(spec_with("cluster", field, value))

    @pytest.mark.parametrize("rows", [[5], [[0.0, math.nan]], [[0.0, True]], [[1, 2, 3, 4]]])
    def test_malformed_rows_are_named(self, rows):
        with pytest.raises(ScenarioError, match="cluster 0: coverage_intervals: interval 0"):
            validate_scenario(spec_with("cluster", "coverage_intervals", rows))

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "cov.txt"
        f.write_text("# only a comment\n")
        with pytest.raises(ValueError, match="empty"):
            load_coverage_schedule(f)

    @pytest.mark.parametrize("row", ["0 10.0", "0 10.0 20.0 1", "x 10.0 20.0",
                                     "1.5 10.0 20.0", "0 start 20.0"])
    def test_malformed_file_row_named_by_line(self, tmp_path, row):
        # a wrong field count and a non-numeric field are both named by line
        f = tmp_path / "cov.txt"
        f.write_text(f"# passes\n0 0.0 5.0\n{row}\n")
        with pytest.raises(ValueError, match="line 3: expected 'index start_s end_s'"):
            load_coverage_schedule(f)

    def test_mean_dwell_from_file(self, tmp_path):
        f = tmp_path / "cov.txt"
        rows = []
        start = 0.0
        for i, dwell in enumerate([388.0, 428.0, 408.0, 400.0, 416.0]):
            rows.append(f"{i} {start} {start + dwell}")
            start += dwell + 30.0
        f.write_text("\n".join(rows) + "\n")
        sched = load_coverage_schedule(f)
        assert sched.mean_dwell_s() == pytest.approx(408.0)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            load_coverage_schedule([(0, 0.0, 100.0), (1, 90.0, 200.0)])

    def test_nonmonotone_rejected(self):
        with pytest.raises(ValueError, match="monotone"):
            load_coverage_schedule([(0, 50.0, 100.0), (1, 0.0, 40.0)])


class TestManifestRoundTrip:
    def test_builder_scenarios_with_schedules_validate_back(self, tmp_path):
        """scenario_to_dict writes what validate_scenario reads back to an
        equal scenario; about a third of the clusters follow explicit
        passes given inline, and a third passes from a coverage file. The
        train section is random, with some fields left to their defaults."""
        files = itertools.count()

        @settings(max_examples=100)
        @given(st.sampled_from([case1_instance, multiwindow_instance, mixed_instance]),
               st.integers(0, 2 ** 32 - 1))
        def check(build, seed):
            rng = np.random.default_rng([7272, seed])
            raw = scenario_to_dict(build(rng))
            for c in raw["clusters"]:
                kind, rows = int(rng.integers(0, 3)), random_passes(rng, c["coverage_s"], 6)
                if kind == 1:
                    c["coverage_intervals"] = rows
                elif kind == 2:
                    path = tmp_path / f"passes{next(files)}.txt"
                    path.write_text("".join(f"{k} {a!r} {b!r}\n" for k, (a, b) in enumerate(rows)))
                    c["coverage_file"] = str(path)
            train = {"eta0": float(rng.uniform(1e-3, 1.0)),
                     "lr_schedule": ("inv", "constant")[int(rng.integers(0, 2))],
                     "momentum": float(rng.uniform(0.0, 1.0)),
                     "batch_size": int(rng.integers(1, 257)),
                     "sat_batch_size": None if rng.random() < 0.3 else int(rng.integers(1, 257))}
            raw["train"] = {k: v for k, v in train.items() if rng.random() < 0.8}
            sc = validate_scenario(raw)
            assert validate_scenario(scenario_to_dict(sc)) == sc

        check()

    def test_reference_with_a_schedule_keeps_it(self):
        spec = json.loads(REFERENCE_SCENARIO.read_text())
        spec["clusters"][0]["coverage_intervals"] = [[0, 300], [320, 700], [710, 1000], [1100, 1500]]
        sc = validate_scenario(spec)
        back = validate_scenario(scenario_to_dict(sc))
        assert back == sc
        assert back.clusters[0].schedule.intervals[3] == (3, 1100.0, 1500.0)
        assert back.clusters[0].coverage_s == 342.5  # the mean dwell

    def test_train_section_is_written(self):
        spec = json.loads(REFERENCE_SCENARIO.read_text())
        spec["train"] = {"eta0": 0.03, "lr_schedule": "constant", "momentum": 0.5,
                         "batch_size": 8, "sat_batch_size": 64}
        sc = validate_scenario(spec)
        raw = scenario_to_dict(sc)
        assert raw["train"] == spec["train"]
        assert validate_scenario(raw).train == sc.train != TrainConfig()


def table_fields(table):
    for key, (_, rule) in table.items():
        yield key
        if isinstance(rule, dict):
            yield from table_fields(rule)


class TestReadme:
    def test_jsonc_example_validates(self):
        block = README.read_text().split("```jsonc\n", 1)[1].split("```", 1)[0]
        sc = validate_scenario(json.loads(re.sub(r"//[^\n]*", "", block)))
        assert sc.data["model"]["kind"] == "mlp"

    def test_every_table_field_is_named(self):
        text = README.read_text()
        fields = {*table_fields(_SCENARIO), *table_fields(_CLUSTER), *table_fields(_CLIENT)}
        missing = sorted(f for f in fields if f"`{f}`" not in text and f'"{f}"' not in text)
        assert not missing


class TestPrepareData:
    def test_synthetic_end_to_end(self):
        spec = scenario_dict(
            [cluster_dict(0, [client_dict(k, 2e8, 0) for k in range(4)])],
            data={"source": "synthetic", "samples_per_client": 50, "classes": 5,
                  "dim": 8, "partition": "iid", "test_samples": 40},
        )
        sc, test = prepare_data(validate_scenario(spec))
        assert all(p.size == 50 for p in sc.clients)
        assert len(test) == 40
        assert test.feature_dim == 8

    def test_train_and_test_share_class_structure(self):
        # a near-noiseless mixture: test points sit close to training points
        # of the same class, so the split must come from one mixture
        spec = scenario_dict(
            [cluster_dict(0, [client_dict(0, 2e8, 0)])],
            data={"source": "synthetic", "samples_per_client": 200, "classes": 4,
                  "dim": 6, "noise": 0.01, "partition": "iid", "test_samples": 50},
        )
        sc, test = prepare_data(validate_scenario(spec))
        train = sc.clients[0].dataset.samples
        for i in range(len(test)):
            d = np.linalg.norm(train.features - test.features[i], axis=1)
            assert train.labels[np.argmin(d)] == test.labels[i]

    def test_rows_are_held_in_two_copies(self):
        # each client's rows once and each cluster's block once: the
        # offload step copies the rows, and nothing else holds them again,
        # with the prepared scenario kept alive as a sweep keeps it
        sc = load_scenario(REFERENCE_SCENARIO)

        def offloaded():
            prepared, test = prepare_data(sc)
            return prepared, apply_offload(prepared, {p.id: p.max_offload_fraction / 2
                                                      for p in prepared.clients}), test

        offloaded()  # once untraced, so that lazy imports are not counted
        tracemalloc.start()
        try:
            prepared, out, test = offloaded()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        def nbytes(s):
            return s.features.nbytes + s.labels.nbytes + s.ids.nbytes

        # each block sits in an anonymous mapping of its own, which
        # tracemalloc does not see, so the blocks' bytes are added to it
        rows = sum(nbytes(b.samples) for b in out.blocks.values())
        assert held + rows - nbytes(test) <= 2.5 * rows
        assert rows == sum(nbytes(p.dataset.samples) for p in out.clients)

    def test_csv_roundtrip(self, tmp_path):
        f = tmp_path / "data.csv"
        lines = ["1,0.5,0.25", "0,1.5,2.5", "1,0.0,1.0", "0,2.0,0.5"]
        f.write_text("\n".join(lines) + "\n")
        spec = scenario_dict(
            [cluster_dict(0, [client_dict(0, 2e8, 0), client_dict(1, 2e8, 0)])],
            data={"source": "csv", "path": str(f), "partition": "iid"},
        )
        sc, test = prepare_data(validate_scenario(spec))
        assert sum(p.size for p in sc.clients) == 4


def write_idx(directory, images, labels, name="digits", image_magic=0x00000803,
              label_magic=0x00000801, n_images=None, n_labels=None):
    """An IDX image/label pair packed as `load_idx` reads it: a big-endian
    header, then one unsigned byte per pixel or label. n_images and n_labels
    replace the counts the headers declare."""
    n, rows, cols = images.shape
    images_path, labels_path = directory / f"{name}-images.idx", directory / f"{name}-labels.idx"
    images_path.write_bytes(struct.pack(">IIII", image_magic, n if n_images is None else n_images,
                                        rows, cols) + images.astype(np.uint8).tobytes())
    labels_path.write_bytes(struct.pack(">II", label_magic, n if n_labels is None else n_labels)
                            + labels.astype(np.uint8).tobytes())
    return images_path, labels_path


def digit_samples(n=120, side=4, classes=3, seed=0):
    """n random side x side images and their labels, every class present."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % classes
    images = rng.integers(0, 256, (n, side, side)) // (labels[:, None, None] + 1)
    return images.astype(np.uint8), labels


def write_csv(path, images, labels):
    """The samples as `load_csv_dataset` reads them: a header row, then a
    label and each image's pixels over 255 per row."""
    features = images.reshape(len(images), -1) / 255.0
    path.write_text("label," + ",".join(f"p{j}" for j in range(features.shape[1])) + "\n"
                    + "".join(f"{y}," + ",".join(map(repr, row.tolist())) + "\n"
                              for y, row in zip(labels.tolist(), features)))
    return path


class TestDataFiles:
    """The IDX and CSV loaders on small files written here: what they read,
    and each malformed file refused with a ValueError that names it."""

    def test_idx_reads_pixels_over_255_and_labels(self, tmp_path):
        images, labels = digit_samples()
        got = load_idx(*write_idx(tmp_path, images, labels))
        np.testing.assert_array_equal(got.features, images.reshape(len(images), -1) / 255.0)
        np.testing.assert_array_equal(got.labels, labels)
        np.testing.assert_array_equal(got.ids, np.arange(len(images)))

    @pytest.mark.parametrize("which, magic, why", [
        ("images", {"image_magic": 0x00000801}, "bad image magic 0x00000801"),
        ("labels", {"label_magic": 0x00000803}, "bad label magic 0x00000803"),
    ])
    def test_idx_bad_magic(self, tmp_path, which, magic, why):
        images, labels = digit_samples()
        paths = dict(zip(("images", "labels"), write_idx(tmp_path, images, labels, **magic)))
        with pytest.raises(ValueError, match=re.escape(f"{paths[which]}: {why}")):
            load_idx(paths["images"], paths["labels"])

    @pytest.mark.parametrize("which, keep, size", [
        ("images", 0, 16), ("images", 15, 16), ("labels", 0, 8), ("labels", 7, 8)])
    def test_idx_shorter_than_its_header(self, tmp_path, which, keep, size):
        images, labels = digit_samples()
        paths = dict(zip(("images", "labels"), write_idx(tmp_path, images, labels)))
        paths[which].write_bytes(paths[which].read_bytes()[:keep])
        with pytest.raises(ValueError, match=re.escape(
                f"{paths[which]}: {keep} bytes, shorter than the {size}-byte IDX header")):
            load_idx(paths["images"], paths["labels"])

    @pytest.mark.parametrize("which", ["images", "labels"])
    def test_idx_truncated(self, tmp_path, which):
        images, labels = digit_samples()
        paths = dict(zip(("images", "labels"), write_idx(tmp_path, images, labels)))
        paths[which].write_bytes(paths[which].read_bytes()[:-1])
        kind = "image" if which == "images" else "label"
        with pytest.raises(ValueError, match=re.escape(f"{paths[which]}: {kind} file truncated")):
            load_idx(paths["images"], paths["labels"])

    def test_idx_count_mismatch(self, tmp_path):
        images, labels = digit_samples()
        paths = write_idx(tmp_path, images, labels[:-1], n_labels=119)
        with pytest.raises(ValueError, match=re.escape("image/label count mismatch (120 vs 119)")):
            load_idx(*paths)

    def test_empty_images_file_is_a_structured_error(self, tmp_path, capsys):
        # an empty images file used to reach struct.unpack and read as an
        # internal fault
        images, labels = digit_samples()
        images_path, labels_path = write_idx(tmp_path, images, labels)
        images_path.write_bytes(b"")
        spec = data_spec({"source": "idx", "images": str(images_path),
                          "labels": str(labels_path)})
        path = tmp_path / "idx.json"
        path.write_text(json.dumps(spec))
        rc = main(["--mode", "simulate", "--rounds", "1", "--scenario", str(path),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": f"{images_path}: 0 bytes, shorter than the 16-byte IDX header"}

    def test_csv_header_row_is_skipped(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("label,x,y\n1,0.5,0.25\n\n0,1.5,-2.5\n")
        got = load_csv_dataset(f)
        np.testing.assert_array_equal(got.features, [[0.5, 0.25], [1.5, -2.5]])
        np.testing.assert_array_equal(got.labels, [1, 0])

    @pytest.mark.parametrize("rows, why", [
        (["1,0.5,0.25", "0,1.5"], "row 2: 1 features, not 2 as in the first row"),
        (["label,x,y", "1,0.5,0.25", "0,1.5,2.5,3.5"],
         "row 3: 3 features, not 2 as in the first row"),
        (["1,0.5,0.25", "0,x,0.5"], "row 2: non-numeric value"),
        (["1,0.5,0.25", "0,nan,0.5"], "row 2: non-finite feature"),
        (["1,0.5,0.25", "0,0.5,-inf"], "row 2: non-finite feature"),
        (["1,0.5,0.25", "-1,0.5,0.5"], "row 2: label '-1' is not a nonnegative integer"),
        (["1.7,0.5,0.25"], "row 1: label '1.7' is not a nonnegative integer"),
        (["1,0.5,0.25", "nan,0.5,0.5"], "row 2: label 'nan' is not a nonnegative integer"),
        (["1,0.5,0.25", "inf,0.5,0.5"], "row 2: label 'inf' is not a nonnegative integer"),
        (["1,0.5,0.25", "1e19,0.5,0.5"], "row 2: label '1e19' is not a nonnegative integer below 2^63"),
    ], ids=["ragged-short", "ragged-long", "non-numeric", "nan-feature", "inf-feature",
            "negative-label", "fractional-label", "nan-label", "inf-label", "huge-label"])
    def test_csv_bad_row_is_refused(self, tmp_path, rows, why):
        f = tmp_path / "data.csv"
        f.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{f} {why}")):
            load_csv_dataset(f)

    @pytest.mark.parametrize("text", ["", "\n\n", "label,x,y\n"], ids=["empty", "blank", "header"])
    def test_csv_without_samples_is_refused(self, tmp_path, text):
        f = tmp_path / "data.csv"
        f.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{f}: empty CSV dataset")):
            load_csv_dataset(f)

    def test_idx_and_csv_copies_give_the_same_metrics(self, tmp_path):
        images, labels = digit_samples()
        images_path, labels_path = write_idx(tmp_path, images, labels)
        csv_path = write_csv(tmp_path / "digits.csv", images, labels)
        metrics = []
        for name, data in (("idx", {"source": "idx", "images": str(images_path),
                                    "labels": str(labels_path)}),
                           ("csv", {"source": "csv", "path": str(csv_path)})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(data_spec(data)))
            run = tmp_path / f"run-{name}"
            assert main(["--mode", "simulate", "--rounds", "3", "--scenario", str(path),
                         "--out", str(run)]) == 0
            metrics.append((run / "optimized" / "seed0" / "metrics.csv").read_bytes())
        assert metrics[0] == metrics[1]
        assert len(metrics[0].splitlines()) == 4

    def test_summary_says_when_accuracy_is_on_the_training_corpus(self, tmp_path):
        images, labels = digit_samples()
        test_images, test_labels = digit_samples(n=60, seed=1)
        csv_path = write_csv(tmp_path / "digits.csv", images, labels)
        test_path = write_csv(tmp_path / "test.csv", test_images, test_labels)
        synthetic = {"source": "synthetic", "samples_per_client": 40, "classes": 3, "dim": 16}
        for name, data, note in (
                ("train-only", {"source": "csv", "path": str(csv_path)}, "training corpus"),
                ("with-test", {"source": "csv", "path": str(csv_path),
                               "test_path": str(test_path)}, None),
                ("synthetic", synthetic, None)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(data_spec(data)))
            run = tmp_path / f"run-{name}"
            assert main(["--mode", "simulate", "--rounds", "2", "--scenario", str(path),
                         "--out", str(run)]) == 0
            summary = json.loads((run / "summary.json").read_text())
            assert summary.get("accuracy_on") == note
            assert set(summary) - {"accuracy_on"} == {"target_accuracy", "rows", "per_series"}

    def test_relative_paths_resolve_against_the_scenario_file(self, tmp_path, monkeypatch):
        # every file field is relative to the scenario's directory, and the
        # run starts in another one
        home = tmp_path / "scenarios"
        (home / "data").mkdir(parents=True)
        images, labels = digit_samples()
        test_images, test_labels = digit_samples(n=60, seed=1)
        write_idx(home / "data", images, labels)
        write_idx(home / "data", test_images, test_labels, name="test")
        write_csv(home / "data" / "digits.csv", images, labels)
        write_csv(home / "data" / "test.csv", test_images, test_labels)
        (home / "passes.txt").write_text("".join(f"{i} {400.0 * i} {400.0 * i + 360.0}\n"
                                                 for i in range(200)))
        monkeypatch.chdir(tmp_path.parent)
        metrics = []
        for name, data in (("idx", {"source": "idx", "images": "data/digits-images.idx",
                                    "labels": "data/digits-labels.idx",
                                    "test_images": "data/test-images.idx",
                                    "test_labels": "data/test-labels.idx"}),
                           ("csv", {"source": "csv", "path": "data/digits.csv",
                                    "test_path": "data/test.csv"})):
            spec = data_spec(data)
            spec["clusters"][0]["coverage_file"] = "passes.txt"
            path = home / f"{name}.json"
            path.write_text(json.dumps(spec))
            run = tmp_path / f"run-{name}"
            assert main(["--mode", "simulate", "--rounds", "3", "--scenario", str(path),
                         "--out", str(run)]) == 0
            metrics.append((run / "optimized" / "seed0" / "metrics.csv").read_bytes())
            # the manifest names each file by its absolute path
            recorded = json.loads((run / "manifest.json").read_text())["scenario"]["data"]
            assert {k: recorded[k] for k in data if k != "source"} == {
                k: str(home / v) for k, v in data.items() if k != "source"}
        assert metrics[0] == metrics[1]
        assert len(metrics[0].splitlines()) == 4

    def test_class_count_covers_the_training_labels(self, tmp_path, capsys):
        # training labels 0-3 against test labels 0-2: the layout has the
        # four classes the clients train on, so a scenario sized for three
        # is refused, and one sized for four trains
        paths = {}
        for name, classes in (("path", 4), ("test_path", 3)):
            paths[name] = str(write_csv(tmp_path / f"{name}.csv",
                                        *digit_samples(classes=classes, seed=classes)))
        runs = []
        for param_count in (51, 68):
            spec = data_spec({"source": "csv", **paths})
            spec["model"]["param_count"] = param_count
            path = tmp_path / f"csv-{param_count}.json"
            path.write_text(json.dumps(spec))
            runs.append(main(["--mode", "simulate", "--rounds", "1", "--scenario", str(path),
                              "--out", str(tmp_path / f"run-{param_count}")]))
            if param_count == 51:
                assert json.loads(capsys.readouterr().err) == {
                    "error": "CliError",
                    "message": "model.param_count in the scenario is 51 but the logistic "
                               "layout has 68; align them"}
        assert runs == [1, 0]


def data_spec(data):
    """Three clients training a logistic model on 16 features and 3
    classes, from the data section data."""
    return scenario_dict(
        [cluster_dict(0, [client_dict(k, 2e8, 0) for k in range(3)])],
        param_count=51, sample_bits=16 * 32 + 32,
        data={**data, "partition": "iid", "sensitive_fraction": 0.2,
              "model": {"kind": "logistic"}},
        train={"eta0": 0.3, "lr_schedule": "inv", "batch_size": 16, "momentum": 0.5})
