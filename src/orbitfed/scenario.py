"""Scenario description: clusters, clients, datasets, coverage.

A scenario is the immutable world the optimizer and simulator operate on.
Scenario files are plain JSON; ``validate_scenario`` turns the parsed dict
into typed records and reports every violation it finds in one pass rather
than stopping at the first.

Design notes:
  - Sample identity is tracked with per-corpus integer ids so that offload
    bookkeeping (sensitive vs nonsensitive, offloaded vs retained) can be
    checked with set arithmetic.
  - Clients may carry only a ``dataset_size`` (enough for cost and resource
    work); materialized data is attached later from the scenario's data
    section or by a test harness.
"""

from __future__ import annotations

import csv
import json
import math
import mmap
import numbers
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .cost import IslLinkParams, ModelFootprint, isl_rate


class ScenarioError(ValueError):
    """Raised with the full list of validation problems."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid scenario:\n" + "\n".join(f"  - {e}" for e in self.errors))


# ---------------------------------------------------------------------------
# samples and datasets


@dataclass(frozen=True)
class SampleSet:
    """A bag of labeled feature vectors with stable per-corpus ids."""

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64
    ids: np.ndarray  # (n,) int64, unique within one corpus

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.ids.shape != (n,):
            raise ValueError("features, labels and ids must agree in length")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "SampleSet":
        idx = np.asarray(indices, dtype=np.int64)
        return SampleSet(self.features[idx], self.labels[idx], self.ids[idx])

    @staticmethod
    def empty(feature_dim: int) -> "SampleSet":
        return SampleSet(
            np.zeros((0, feature_dim), dtype=np.float64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )


def concat_samples(sets) -> SampleSet:
    sets = [s for s in sets if len(s) > 0]
    if not sets:
        raise ValueError("cannot concatenate zero nonempty sample sets")
    return SampleSet(
        np.concatenate([s.features for s in sets], axis=0),
        np.concatenate([s.labels for s in sets]),
        np.concatenate([s.ids for s in sets]),
    )


@dataclass(frozen=True)
class DatasetHandle:
    """One client's data split into privacy classes and offload state."""

    sensitive: SampleSet
    nonsensitive: SampleSet
    offloaded: SampleSet
    retained: SampleSet

    @property
    def size(self) -> int:
        return len(self.sensitive) + len(self.nonsensitive)

    @staticmethod
    def fresh(sensitive: SampleSet, nonsensitive: SampleSet) -> "DatasetHandle":
        if len(sensitive) == 0 and len(nonsensitive) == 0:
            raise ValueError("client dataset is empty")
        dim = sensitive.feature_dim if len(sensitive) else nonsensitive.feature_dim
        if len(sensitive) and len(nonsensitive):
            retained = concat_samples([sensitive, nonsensitive])
        else:
            retained = sensitive if len(sensitive) else nonsensitive
        return DatasetHandle(
            sensitive=sensitive,
            nonsensitive=nonsensitive,
            offloaded=SampleSet.empty(dim),
            retained=retained,
        )


# ---------------------------------------------------------------------------
# world records


@dataclass(frozen=True)
class ClientProfile:
    id: int
    cluster_id: int
    cpu_freq_hz: float
    cycles_per_sample: float
    tx_power_w: float
    max_offload_fraction: float
    energy_budget_j: float  # per-round compute + upload cap
    dataset_size: int = 0
    dataset: DatasetHandle | None = None

    @property
    def size(self) -> int:
        if self.dataset is not None:
            return self.dataset.size
        return self.dataset_size


@dataclass(frozen=True)
class CoverageSchedule:
    """Satellite visibility over the cluster: fixed-period or explicit windows."""

    mode: str  # "fixed" | "explicit"
    period_s: float = 0.0
    intervals: tuple = ()  # (satellite_index, start_s, end_s) rows

    def mean_dwell_s(self) -> float:
        if self.mode == "fixed":
            return self.period_s
        return float(np.mean([e - s for _, s, e in self.intervals]))


@dataclass(frozen=True)
class ClusterSpec:
    id: int
    client_ids: tuple
    bandwidth_hz: float  # shared uplink budget B_j
    sat_max_freq_hz: float
    sat_cycles_per_sample: float
    sat_tx_power_w: float
    isl_rate_bps: float
    sat_initial_energy_j: float
    sat_min_residual_j: float
    sun_facing: bool
    sun_power_w: float
    coverage_s: float  # dwell used for planning (mean dwell when a schedule is set)
    glob_delay_s: float
    sync_delay_s: float
    max_offload_samples: float
    sat_distance_m: float
    pathloss_exponent: float
    noise_density_w_per_hz: float
    energy_coeff: float
    isl_link: IslLinkParams | None = None
    schedule: CoverageSchedule | None = None


@dataclass(frozen=True)
class Scenario:
    name: str
    clusters: tuple
    clients: tuple
    footprint: ModelFootprint
    seed: int = 0
    data_config: dict | None = None
    # cluster id -> the cluster's offloaded samples, set by apply_offload; the
    # members' offloaded sets are row slices of it, so the pool costs no copy
    sat_pools: dict | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_client_by_id", {c.id: c for c in self.clients})
        object.__setattr__(self, "_cluster_by_id", {c.id: c for c in self.clusters})

    def client(self, client_id: int) -> ClientProfile:
        return self._client_by_id[client_id]

    def cluster(self, cluster_id: int) -> ClusterSpec:
        return self._cluster_by_id[cluster_id]

    def cluster_clients(self, cluster_id: int) -> tuple:
        spec = self._cluster_by_id[cluster_id]
        return tuple(self._client_by_id[cid] for cid in spec.client_ids)

    def with_clients(self, new_clients, sat_pools=None) -> "Scenario":
        return replace(self, clients=tuple(new_clients), sat_pools=sat_pools)


# ---------------------------------------------------------------------------
# validation

_CLUSTER_DEFAULTS = {
    "sat_max_freq_hz": 1e10,
    "sat_cycles_per_sample": 3e7,
    "sat_tx_power_w": 10.0,
    "sat_initial_energy_j": 500.0,
    "sat_min_residual_j": 100.0,
    "sun_facing": False,
    "sun_power_w": 5.0,
    "coverage_s": 360.0,
    "glob_delay_s": 1.0,
    "sync_delay_s": 1.0,
    "max_offload_samples": math.inf,
    "sat_distance_m": 784e3,
    "pathloss_exponent": 2.0,
    "noise_density_w_per_hz": 3.98e-21,
    "energy_coeff": 1e-28,
}

_CLIENT_DEFAULTS = {
    "cycles_per_sample": 3e7,
    "tx_power_w": 0.2,
    "max_offload_fraction": 0.8,
    "energy_budget_j": 1.0,
    "dataset_size": 0,
}


def _positive(value) -> bool:
    # NaN fails every comparison, so a bare `<= 0` test would let it through
    v = float(value)
    return math.isfinite(v) and v > 0


def _nonnegative(value) -> bool:
    v = float(value)
    return math.isfinite(v) and v >= 0


def _number(value, name: str, errors: list, fallback):
    """A finite real number, as given; anything else (strings, lists, null,
    booleans, NaN, inf) is reported under the field's name and replaced by
    fallback, so validation goes on to the next field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        errors.append(f"{name} must be a number")
        return fallback
    if not math.isfinite(value):
        errors.append(f"{name} must be finite")
        return fallback
    return value


def _count(value, name: str, errors: list, fallback: int = 0) -> int:
    """A whole-number field as an int; a fraction is reported, not truncated."""
    value = _number(value, name, errors, fallback)
    if value != int(value):
        errors.append(f"{name} must be a whole number")
        return fallback
    return int(value)


def _section(spec: dict, key: str, errors: list) -> dict:
    """The object under a top-level key; {} when absent or null."""
    value = spec.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        errors.append(f"{key} must be an object")
        return {}
    return value


def validate_scenario(spec: dict) -> Scenario:
    """Build an immutable Scenario from a parsed description.

    Raises ScenarioError listing every problem found.
    """
    errors = []
    if not isinstance(spec, dict):
        raise ScenarioError(["scenario description must be a mapping"])

    model_spec = _section(spec, "model", errors)
    param_count = _count(model_spec.get("param_count", 100000), "model.param_count", errors, 1)
    bits_per_param = _count(model_spec.get("bits_per_param", 32), "model.bits_per_param", errors, 1)
    # bits per offloaded sample is a size, not a count: a fraction is kept
    sample_bits = _number(model_spec.get("sample_bits", 6272), "model.sample_bits", errors, 1)
    if param_count <= 0:
        errors.append("model.param_count must be positive")
    if bits_per_param <= 0:
        errors.append("model.bits_per_param must be positive")
    if sample_bits <= 0:
        errors.append("model.sample_bits must be positive")
    footprint = ModelFootprint(param_count, bits_per_param, sample_bits)

    raw_clusters = spec.get("clusters", [])
    if not isinstance(raw_clusters, list):
        errors.append("clusters must be a list")
        raw_clusters = []
    elif not raw_clusters:
        errors.append("scenario has no clusters")

    # clients that omit dataset_size inherit the planned per-client count, so
    # cost and resource questions work before any data is materialized
    data_spec = _section(spec, "data", errors)
    _section(spec, "train", errors)  # read by the command line, checked here
    default_size = _count(data_spec.get("samples_per_client", 0), "data.samples_per_client", errors)

    clusters = []
    clients = []
    seen_clients = set()
    seen_clusters = set()
    for ci, raw in enumerate(raw_clusters):
        if not isinstance(raw, dict):
            errors.append(f"clusters[{ci}] must be an object")
            continue
        cid = int(raw.get("id", ci))
        if cid in seen_clusters:
            errors.append(f"duplicate cluster id {cid}")
        seen_clusters.add(cid)
        vals = dict(_CLUSTER_DEFAULTS)
        vals.update({k: raw[k] for k in _CLUSTER_DEFAULTS if k in raw})

        link = None
        rate = raw.get("isl_rate_bps", None)
        if "isl_link" in raw:
            lk = raw["isl_link"]
            try:
                link = IslLinkParams(
                    bandwidth_hz=float(lk["bandwidth_hz"]),
                    tx_power_w=float(lk["tx_power_w"]),
                    gain_tx=float(lk.get("gain_tx", 1.0)),
                    gain_rx=float(lk.get("gain_rx", 1.0)),
                    pathloss=float(lk["pathloss"]),
                    noise_density_w_per_hz=float(lk["noise_density_w_per_hz"]),
                )
                if not all(_positive(v) for v in (link.bandwidth_hz, link.tx_power_w,
                                                  link.pathloss, link.noise_density_w_per_hz)):
                    errors.append(f"cluster {cid}: ISL link parameters must be positive and finite")
                else:
                    rate = isl_rate(link)
            except KeyError as missing:
                errors.append(f"cluster {cid}: isl_link missing field {missing}")
        if rate is None:
            rate = 3.125e6
        if not _positive(rate):
            errors.append(f"cluster {cid}: ISL rate must be positive and finite")

        schedule = None
        if "coverage_file" in raw:
            try:
                schedule = load_coverage_schedule(raw["coverage_file"])
                vals["coverage_s"] = schedule.mean_dwell_s()
            except (OSError, ValueError) as exc:
                errors.append(f"cluster {cid}: coverage schedule: {exc}")
        elif "coverage_intervals" in raw:
            try:
                schedule = load_coverage_schedule(raw["coverage_intervals"])
                vals["coverage_s"] = schedule.mean_dwell_s()
            except ValueError as exc:
                errors.append(f"cluster {cid}: coverage schedule: {exc}")

        for key in ("bandwidth_hz",):
            if key not in raw:
                errors.append(f"cluster {cid}: missing {key}")
        for key, val in (
            ("bandwidth_hz", raw.get("bandwidth_hz", 0.0)),
            ("sat_max_freq_hz", vals["sat_max_freq_hz"]),
            ("sat_cycles_per_sample", vals["sat_cycles_per_sample"]),
            ("sat_tx_power_w", vals["sat_tx_power_w"]),
            ("coverage_s", vals["coverage_s"]),
            ("sat_distance_m", vals["sat_distance_m"]),
            ("noise_density_w_per_hz", vals["noise_density_w_per_hz"]),
            ("energy_coeff", vals["energy_coeff"]),
        ):
            if not _positive(val):
                errors.append(f"cluster {cid}: {key} must be positive and finite")
        for key in ("sat_initial_energy_j", "sat_min_residual_j", "sun_power_w",
                    "glob_delay_s", "sync_delay_s"):
            if not _nonnegative(vals[key]):
                errors.append(f"cluster {cid}: {key} must be nonnegative and finite")
        # an unlimited offload budget is spelled +inf
        cap = float(vals["max_offload_samples"])
        if math.isnan(cap) or cap < 0:
            errors.append(f"cluster {cid}: max_offload_samples must be nonnegative")

        raw_members = raw.get("clients", [])
        if not isinstance(raw_members, list):
            errors.append(f"cluster {cid}: clients must be a list")
            raw_members = []
        elif not raw_members:
            errors.append(f"empty cluster {cid}")
        member_ids = []
        for ki, rk in enumerate(raw_members):
            if not isinstance(rk, dict):
                errors.append(f"cluster {cid}: clients[{ki}] must be an object")
                continue
            kid = int(rk.get("id", len(clients)))
            if kid in seen_clients:
                errors.append(f"duplicate client id {kid}")
            seen_clients.add(kid)
            member_ids.append(kid)
            cv = dict(_CLIENT_DEFAULTS)
            cv["dataset_size"] = default_size
            cv.update({k: rk[k] for k in _CLIENT_DEFAULTS if k in rk})
            if "cpu_freq_hz" not in rk:
                errors.append(f"client {kid}: missing cpu_freq_hz")
            cpu = float(rk.get("cpu_freq_hz", 0.0))
            for key, val in (("cpu_freq_hz", cpu),
                             ("cycles_per_sample", cv["cycles_per_sample"]),
                             ("tx_power_w", cv["tx_power_w"]),
                             ("energy_budget_j", cv["energy_budget_j"])):
                if not _positive(val):
                    errors.append(f"client {kid}: {key} must be positive and finite")
            amax = float(cv["max_offload_fraction"])
            if not 0.0 <= amax <= 1.0:
                errors.append(f"client {kid}: offload fraction out of range ({amax})")
            dataset_size = _count(cv["dataset_size"], f"client {kid}: dataset_size", errors)
            if dataset_size < 0:
                errors.append(f"client {kid}: dataset_size must be nonnegative")
            clients.append(ClientProfile(
                id=kid,
                cluster_id=cid,
                cpu_freq_hz=cpu,
                cycles_per_sample=float(cv["cycles_per_sample"]),
                tx_power_w=float(cv["tx_power_w"]),
                max_offload_fraction=amax,
                energy_budget_j=float(cv["energy_budget_j"]),
                dataset_size=dataset_size,
            ))

        clusters.append(ClusterSpec(
            id=cid,
            client_ids=tuple(member_ids),
            bandwidth_hz=float(raw.get("bandwidth_hz", 0.0)),
            sat_max_freq_hz=float(vals["sat_max_freq_hz"]),
            sat_cycles_per_sample=float(vals["sat_cycles_per_sample"]),
            sat_tx_power_w=float(vals["sat_tx_power_w"]),
            isl_rate_bps=float(rate),
            sat_initial_energy_j=float(vals["sat_initial_energy_j"]),
            sat_min_residual_j=float(vals["sat_min_residual_j"]),
            sun_facing=bool(vals["sun_facing"]),
            sun_power_w=float(vals["sun_power_w"]),
            coverage_s=float(vals["coverage_s"]),
            glob_delay_s=float(vals["glob_delay_s"]),
            sync_delay_s=float(vals["sync_delay_s"]),
            max_offload_samples=float(vals["max_offload_samples"]),
            sat_distance_m=float(vals["sat_distance_m"]),
            pathloss_exponent=float(vals["pathloss_exponent"]),
            noise_density_w_per_hz=float(vals["noise_density_w_per_hz"]),
            energy_coeff=float(vals["energy_coeff"]),
            isl_link=link,
            schedule=schedule,
        ))

    if errors:
        raise ScenarioError(errors)

    return Scenario(
        name=str(spec.get("name", "scenario")),
        clusters=tuple(clusters),
        clients=tuple(clients),
        footprint=footprint,
        seed=int(spec.get("seed", 0)),
        data_config=spec.get("data"),
    )


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_scenario(json.load(fh))


def scenario_to_dict(scenario: Scenario) -> dict:
    """Reverse serialization used for run manifests (datasets omitted)."""
    out = {
        "name": scenario.name,
        "seed": scenario.seed,
        "model": {
            "param_count": scenario.footprint.param_count,
            "bits_per_param": scenario.footprint.bits_per_param,
            "sample_bits": scenario.footprint.sample_bits,
        },
        "clusters": [],
    }
    if scenario.data_config is not None:
        out["data"] = scenario.data_config
    for c in scenario.clusters:
        row = {
            "id": c.id,
            "bandwidth_hz": c.bandwidth_hz,
            "sat_max_freq_hz": c.sat_max_freq_hz,
            "sat_cycles_per_sample": c.sat_cycles_per_sample,
            "sat_tx_power_w": c.sat_tx_power_w,
            "isl_rate_bps": c.isl_rate_bps,
            "sat_initial_energy_j": c.sat_initial_energy_j,
            "sat_min_residual_j": c.sat_min_residual_j,
            "sun_facing": c.sun_facing,
            "sun_power_w": c.sun_power_w,
            "coverage_s": c.coverage_s,
            "glob_delay_s": c.glob_delay_s,
            "sync_delay_s": c.sync_delay_s,
            "max_offload_samples": (
                "inf" if math.isinf(c.max_offload_samples) else c.max_offload_samples
            ),
            "sat_distance_m": c.sat_distance_m,
            "pathloss_exponent": c.pathloss_exponent,
            "noise_density_w_per_hz": c.noise_density_w_per_hz,
            "energy_coeff": c.energy_coeff,
            "clients": [
                {
                    "id": p.id,
                    "cpu_freq_hz": p.cpu_freq_hz,
                    "cycles_per_sample": p.cycles_per_sample,
                    "tx_power_w": p.tx_power_w,
                    "max_offload_fraction": p.max_offload_fraction,
                    "energy_budget_j": p.energy_budget_j,
                    "dataset_size": p.size,
                }
                for p in scenario.cluster_clients(c.id)
            ],
        }
        out["clusters"].append(row)
    return out


# ---------------------------------------------------------------------------
# coverage schedules


def load_coverage_schedule(source) -> CoverageSchedule:
    """Build a schedule from a fixed period, interval rows, or an interval file.

    File rows are whitespace-separated ``satellite_index start_s end_s``,
    sorted by start time. In-memory rows may drop the index ([start, end]
    pairs are numbered by position).
    """
    if isinstance(source, (int, float)):
        if source <= 0:
            raise ValueError("fixed coverage period must be positive")
        return CoverageSchedule(mode="fixed", period_s=float(source))
    if isinstance(source, dict):
        return load_coverage_schedule(source.get("period_s", 0.0))

    if isinstance(source, (str, Path)):
        rows = []
        with open(source, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                parts = text.split()
                if len(parts) != 3:
                    raise ValueError(f"line {line_no}: expected 'index start_s end_s'")
                rows.append((int(parts[0]), float(parts[1]), float(parts[2])))
    else:
        rows = []
        for k, item in enumerate(source):
            item = tuple(item)
            if len(item) == 2:
                rows.append((k, float(item[0]), float(item[1])))
            else:
                i, s, e = item
                rows.append((int(i), float(s), float(e)))

    if not rows:
        raise ValueError("empty coverage schedule")
    prev_start = -math.inf
    prev_end = -math.inf
    for idx, start, end in rows:
        if end <= start:
            raise ValueError(f"interval {idx}: end {end} not after start {start}")
        if start < prev_start:
            raise ValueError(f"interval {idx}: starts are not monotone")
        if start < prev_end:
            raise ValueError(f"interval {idx}: overlaps the previous interval")
        prev_start, prev_end = start, end
    return CoverageSchedule(mode="explicit", intervals=tuple(rows))


# ---------------------------------------------------------------------------
# data sources and partitioning


def synthetic_dataset(
    n_samples: int,
    n_classes: int = 10,
    feature_dim: int = 32,
    noise: float = 0.6,
    seed: int = 0,
    class_scale: float = 3.0,
    mean_seed: int | None = None,
) -> SampleSet:
    """Balanced Gaussian-mixture corpus with one mean per class.

    mean_seed pins the class means separately from the draw seed, so a test
    corpus with a different seed can still come from the same mixture.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    mean_rng = np.random.default_rng(seed if mean_seed is None else mean_seed)
    rng = np.random.default_rng(seed)
    means = mean_rng.standard_normal((n_classes, feature_dim)) * (class_scale / math.sqrt(feature_dim))
    labels = np.tile(np.arange(n_classes, dtype=np.int64), n_samples // n_classes + 1)[:n_samples]
    labels = labels[rng.permutation(n_samples)]
    # Drawn into an anonymous mapping of its own and shifted by the class
    # means in 128 KiB row blocks, so no corpus-sized block passes through the
    # heap. A process that prepares data command after command then keeps a
    # steady peak RSS: a freed heap block the next corpus cannot reuse leaves
    # it one corpus higher, by heap layout alone.
    buf = mmap.mmap(-1, n_samples * feature_dim * 8)
    features = np.frombuffer(buf, dtype=np.float64).reshape(n_samples, feature_dim)
    rng.standard_normal(out=features)
    features *= noise
    step = max(1, 16384 // feature_dim)
    for lo in range(0, n_samples, step):
        features[lo:lo + step] += means[labels[lo:lo + step]]
    return SampleSet(features, labels, np.arange(n_samples, dtype=np.int64))


def load_idx(images_path, labels_path) -> SampleSet:
    """Read an IDX image/label pair (the classic big-endian digit format)."""
    with open(images_path, "rb") as fh:
        magic, n, rows, cols = struct.unpack(">IIII", fh.read(16))
        if magic != 0x00000803:
            raise ValueError(f"bad image magic 0x{magic:08x}")
        raw = fh.read(n * rows * cols)
    if len(raw) != n * rows * cols:
        raise ValueError("image file truncated")
    features = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols).astype(np.float64) / 255.0

    with open(labels_path, "rb") as fh:
        magic, nl = struct.unpack(">II", fh.read(8))
        if magic != 0x00000801:
            raise ValueError(f"bad label magic 0x{magic:08x}")
        labels = np.frombuffer(fh.read(nl), dtype=np.uint8).astype(np.int64)
    if nl != n or labels.shape[0] != n:
        raise ValueError(f"image/label count mismatch ({n} vs {nl})")
    return SampleSet(features, labels, np.arange(n, dtype=np.int64))


def load_csv_dataset(path) -> SampleSet:
    """Read ``label,f1,f2,...`` rows; a non-numeric first row is a header."""
    features = []
    labels = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for i, row in enumerate(reader):
            if not row:
                continue
            try:
                lab = int(float(row[0]))
                feat = [float(v) for v in row[1:]]
            except ValueError:
                if i == 0:
                    continue
                raise ValueError(f"row {i + 1}: non-numeric value")
            labels.append(lab)
            features.append(feat)
    if not features:
        raise ValueError("empty CSV dataset")
    widths = {len(f) for f in features}
    if len(widths) != 1:
        raise ValueError("inconsistent feature width across CSV rows")
    return SampleSet(
        np.asarray(features, dtype=np.float64),
        np.asarray(labels, dtype=np.int64),
        np.arange(len(labels), dtype=np.int64),
    )


def partition_dataset(samples: SampleSet, n_clients: int, mode: str = "iid",
                      shards_per_client: int = 2, seed: int = 0):
    """Split a corpus across clients; remainder samples are dropped.

    iid draws a uniform permutation; shard_noniid sorts by label, cuts equal
    shards (n_clients * shards_per_client of them) and deals each client its
    shards at random, which concentrates label support.
    """
    if n_clients <= 0:
        raise ValueError("n_clients must be positive")
    n = len(samples)
    rng = np.random.default_rng(seed)

    if mode == "iid":
        per = n // n_clients
        if per == 0:
            raise ValueError("too few samples to give every client at least one")
        perm = rng.permutation(n)
        return [samples.take(np.sort(perm[k * per:(k + 1) * per])) for k in range(n_clients)]

    if mode == "shard_noniid":
        total_shards = n_clients * shards_per_client
        shard_size = n // total_shards
        if shard_size == 0:
            raise ValueError(
                f"too few samples ({n}) for {total_shards} shards"
            )
        order = np.argsort(samples.labels, kind="stable")[: total_shards * shard_size]
        shard_of = order.reshape(total_shards, shard_size)
        deal = rng.permutation(total_shards)
        out = []
        for k in range(n_clients):
            mine = deal[k * shards_per_client:(k + 1) * shards_per_client]
            idx = np.sort(np.concatenate([shard_of[s] for s in mine]))
            out.append(samples.take(idx))
        return out

    raise ValueError(f"unknown partition mode {mode!r}")


def attach_datasets(scenario: Scenario, per_client: dict,
                    sensitive_fraction: float = 0.2, seed=None) -> Scenario:
    """Attach materialized sample sets, marking a seeded sensitive fraction."""
    if not 0.0 <= sensitive_fraction <= 1.0:
        raise ValueError("sensitive_fraction outside [0, 1]")
    base_seed = scenario.seed if seed is None else seed
    new_clients = []
    for p in scenario.clients:
        ss = per_client[p.id]
        n = len(ss)
        n_sens = round(sensitive_fraction * n)
        rng = np.random.default_rng([base_seed, 7, p.id])
        picks = np.sort(rng.choice(n, size=n_sens, replace=False)) if n_sens else np.array([], dtype=np.int64)
        mask = np.zeros(n, dtype=bool)
        mask[picks] = True
        handle = DatasetHandle.fresh(ss.take(np.where(mask)[0]), ss.take(np.where(~mask)[0]))
        new_clients.append(replace(p, dataset=handle, dataset_size=n))
    return scenario.with_clients(new_clients)


def apply_offload(scenario: Scenario, alpha) -> Scenario:
    """Materialize per-client offloaded/retained sets for an offload vector.

    alpha is a mapping from client id to fraction (a sequence in scenario
    client order also works). Selection is uniform over the nonsensitive pool
    under a seed fixed by (scenario seed, client id), so reapplication is
    idempotent.
    """
    if not isinstance(alpha, dict):
        alpha = {p.id: a for p, a in zip(scenario.clients, alpha)}
    picks, retained = {}, {}
    for p in scenario.clients:
        a = float(alpha[p.id])
        if a < -1e-12 or a > p.max_offload_fraction + 1e-12:
            raise ValueError(
                f"client {p.id}: offload fraction {a} outside [0, {p.max_offload_fraction}]"
            )
        if p.dataset is None:
            raise ValueError(f"client {p.id}: no materialized dataset to offload from")
        n_off = round(a * p.dataset.size)
        nonsens = p.dataset.nonsensitive
        if n_off > len(nonsens):
            raise ValueError(
                f"client {p.id}: offload of {n_off} exceeds nonsensitive pool {len(nonsens)}"
            )
        rng = np.random.default_rng([scenario.seed, 11, p.id])
        chosen = np.sort(rng.choice(len(nonsens), size=n_off, replace=False)) if n_off else np.array([], dtype=np.int64)
        mask = np.zeros(len(nonsens), dtype=bool)
        mask[chosen] = True
        picks[p.id] = chosen
        kept_nonsens = nonsens.take(np.where(~mask)[0])
        if len(p.dataset.sensitive) and len(kept_nonsens):
            retained[p.id] = concat_samples([p.dataset.sensitive, kept_nonsens])
        elif len(p.dataset.sensitive):
            retained[p.id] = p.dataset.sensitive
        else:
            retained[p.id] = kept_nonsens

    # each cluster's offloaded rows are gathered once, in member order, into
    # the satellite pool; a member's offloaded set is its slice of the pool
    offloaded, pools = {}, {}
    for c in scenario.clusters:
        members = scenario.cluster_clients(c.id)
        total = sum(len(picks[p.id]) for p in members)
        dim = members[0].dataset.nonsensitive.feature_dim
        pool = SampleSet(np.empty((total, dim)), np.empty(total, dtype=np.int64),
                         np.empty(total, dtype=np.int64))
        o = 0
        for p in members:
            src, idx = p.dataset.nonsensitive, picks[p.id]
            part = slice(o, o + len(idx))
            np.take(src.features, idx, axis=0, out=pool.features[part])
            np.take(src.labels, idx, out=pool.labels[part])
            np.take(src.ids, idx, out=pool.ids[part])
            offloaded[p.id] = SampleSet(pool.features[part], pool.labels[part], pool.ids[part])
            o += len(idx)
        pools[c.id] = pool

    new_clients = [
        replace(p, dataset=DatasetHandle(
            sensitive=p.dataset.sensitive,
            nonsensitive=p.dataset.nonsensitive,
            offloaded=offloaded[p.id],
            retained=retained[p.id],
        ))
        for p in scenario.clients
    ]
    return scenario.with_clients(new_clients, sat_pools=pools)


def satellite_pool(scenario: Scenario, cluster_id: int) -> SampleSet:
    """Union of the cluster's offloaded sets (the satellite's training data)."""
    if scenario.sat_pools is not None:
        return scenario.sat_pools[cluster_id]
    # apply_offload has not run, so nothing is offloaded yet
    for p in scenario.cluster_clients(cluster_id):
        if p.dataset is not None:
            return SampleSet.empty(p.dataset.retained.feature_dim)
    raise ValueError(f"cluster {cluster_id}: no materialized datasets")


def prepare_data(scenario: Scenario) -> tuple:
    """Materialize train/test data from the scenario's data section.

    Returns (scenario_with_datasets, test_set). Synthetic sources generate a
    fresh corpus; idx/csv sources read files. The corpus is partitioned over
    all clients in scenario order.
    """
    cfg = scenario.data_config
    if cfg is None:
        raise ValueError("scenario has no data section")
    source = cfg.get("source", "synthetic")
    n_clients = len(scenario.clients)
    seed = int(cfg.get("seed", scenario.seed))

    if source == "synthetic":
        spc = int(cfg.get("samples_per_client", 200))
        n_classes = int(cfg.get("classes", 10))
        dim = int(cfg.get("dim", 32))
        noise = float(cfg.get("noise", 0.6))
        corpus = synthetic_dataset(spc * n_clients, n_classes, dim, noise, seed=seed)
        # fresh draws for test, same class means as the training corpus
        test = synthetic_dataset(
            int(cfg.get("test_samples", 1000)), n_classes, dim, noise,
            seed=seed + 1, mean_seed=seed,
        )
    elif source == "idx":
        corpus = load_idx(cfg["images"], cfg["labels"])
        test = load_idx(cfg["test_images"], cfg["test_labels"]) if "test_images" in cfg else corpus
    elif source == "csv":
        corpus = load_csv_dataset(cfg["path"])
        test = load_csv_dataset(cfg["test_path"]) if "test_path" in cfg else corpus
    else:
        raise ValueError(f"unknown data source {source!r}")

    mode = cfg.get("partition", "iid")
    parts = partition_dataset(
        corpus, n_clients, mode=mode,
        shards_per_client=int(cfg.get("shards_per_client", 2)), seed=seed,
    )
    per_client = {p.id: parts[i] for i, p in enumerate(scenario.clients)}
    attached = attach_datasets(
        scenario, per_client,
        sensitive_fraction=float(cfg.get("sensitive_fraction", 0.2)),
        seed=seed,
    )
    return attached, test
