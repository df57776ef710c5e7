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
  - Each training row is held once per layout: in its client's
    ``DatasetHandle.samples`` (sensitive rows first) and, once
    ``apply_offload`` has run, in its cluster's ``ClusterBlock``. Every
    client and privacy-class set is a row range of the first, and every
    retained set and satellite pool a row range of the second.
  - The offload split is recorded once, in the ``ClusterBlock``: the
    clients keep only their own rows, and training and the convergence
    bound read each retained range and pool from the block.
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
from .fl import TrainConfig


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

    def rows(self, start: int, stop: int) -> "SampleSet":
        """Rows [start, stop), as views of this set's arrays."""
        return SampleSet(self.features[start:stop], self.labels[start:stop],
                         self.ids[start:stop])

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
    """One client's data: its rows laid out once, split into privacy
    classes.

    `samples` holds the client's sensitive rows, then its nonsensitive rows,
    each group in corpus order, and `sensitive` and `nonsensitive` are row
    ranges of it. The offload split is not kept here: `apply_offload`
    records it in the cluster's `ClusterBlock`.
    """

    samples: SampleSet
    n_sensitive: int

    def __post_init__(self):
        if len(self.samples) == 0:
            raise ValueError("client dataset is empty")

    @property
    def size(self) -> int:
        return len(self.samples)

    @property
    def sensitive(self) -> SampleSet:
        return self.samples.rows(0, self.n_sensitive)

    @property
    def nonsensitive(self) -> SampleSet:
        return self.samples.rows(self.n_sensitive, len(self.samples))


@dataclass(frozen=True)
class ClusterBlock:
    """A cluster's training rows in one sample set, as `apply_offload` lays
    them out: each member's retained rows in member order (its sensitive
    rows, then the nonsensitive rows it keeps), then the satellite pool
    (each member's offloaded rows, in member order). It is the one record
    of the offload split: the pool and every member's retained set are row
    ranges of it, and the whole block is the cluster's data as the
    convergence analysis reads it. Its arrays share one anonymous mapping,
    outside the heap."""

    samples: SampleSet
    pool: tuple  # (start, stop) of the satellite pool
    retained: dict  # client id -> (start, stop) of its retained rows


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
    """Satellite visibility over the cluster: explicit pass windows."""

    intervals: tuple  # (satellite_index, start_s, end_s) rows

    def mean_dwell_s(self) -> float:
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
    schedule: CoverageSchedule | None = None


@dataclass(frozen=True)
class Scenario:
    name: str
    clusters: tuple
    clients: tuple
    footprint: ModelFootprint
    seed: int = 0
    data: dict | None = None  # the data section, every field filled in
    train: TrainConfig = TrainConfig()  # the train section
    # cluster id -> the cluster's ClusterBlock, set by apply_offload
    blocks: dict | None = field(default=None, repr=False, compare=False)

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


# ---------------------------------------------------------------------------
# validation: one table per section, mapping each field to (default, rule)

_REQUIRED = object()  # the default of a field that has to be given


class _Broken(ValueError):
    """A value that breaks its rule; the message says what it must be."""


def _finite(value, inf_ok=False):
    # JSON has no NaN and no booleans among its numbers, but Python's json
    # reads NaN and counts True as a Real; NaN fails every comparison, so a
    # range test alone would let it through. The exact-type test spares the
    # json reader's own int and float the slower abstract-class test.
    if type(value) not in (float, int) and (isinstance(value, bool)
                                            or not isinstance(value, numbers.Real)):
        raise _Broken("be a number")
    if not math.isfinite(value) and (not inf_ok or math.isnan(value)):
        raise _Broken('be a number or "inf"' if inf_ok else "be finite")
    return value


def _positive(value):
    if _finite(value) <= 0:
        raise _Broken("be positive")
    return float(value)


def _nonnegative(value):
    if _finite(value) < 0:
        raise _Broken("be nonnegative")
    return float(value)


def _fraction(value):
    if not 0 <= _finite(value) <= 1:
        raise _Broken("be in [0, 1]")
    return float(value)


def _size(value):
    """Positive, and kept as given: bits per sample may be fractional."""
    if _finite(value) <= 0:
        raise _Broken("be positive")
    return value


def _whole(value):
    if _finite(value) != int(value):
        raise _Broken("be a whole number")
    return int(value)


def _tally(value):
    """A whole number, zero included."""
    if _whole(value) < 0:
        raise _Broken("be nonnegative")
    return int(value)


def _count(value):
    """A whole number above zero."""
    if _whole(value) <= 0:
        raise _Broken("be positive")
    return int(value)


def _cap(value):
    """A nonnegative number; "inf" is no cap."""
    if value == "inf":
        return math.inf
    if _finite(value, inf_ok=True) < 0:
        raise _Broken("be nonnegative")
    return float(value)


def _flag(value):
    if not isinstance(value, bool):
        raise _Broken("be true or false")
    return value


def _text(value):
    if not isinstance(value, str):
        raise _Broken("be a string")
    return value


def _list(value):
    if not isinstance(value, list):
        raise _Broken("be a list")
    return value


def _one_of(*choices):
    def rule(value):
        if not isinstance(value, str) or value not in choices:
            raise _Broken("be one of " + ", ".join(map(repr, choices)))
        return value
    return rule


_ISL_LINK = {
    "bandwidth_hz": (_REQUIRED, _positive),
    "tx_power_w": (_REQUIRED, _positive),
    "gain_tx": (1.0, _positive),
    "gain_rx": (1.0, _positive),
    "pathloss": (_REQUIRED, _positive),
    "noise_density_w_per_hz": (_REQUIRED, _positive),
}

_CLUSTER = {
    "bandwidth_hz": (_REQUIRED, _positive),
    "sat_max_freq_hz": (1e10, _positive),
    "sat_cycles_per_sample": (3e7, _positive),
    "sat_tx_power_w": (10.0, _positive),
    "isl_rate_bps": (3.125e6, _positive),
    "isl_link": (None, _ISL_LINK),  # sets isl_rate_bps from the link budget
    "sat_initial_energy_j": (500.0, _nonnegative),
    "sat_min_residual_j": (100.0, _nonnegative),
    "sun_facing": (False, _flag),
    "sun_power_w": (5.0, _nonnegative),
    "coverage_s": (360.0, _positive),
    "coverage_intervals": (None, _list),  # sets coverage_s to the mean dwell
    "coverage_file": (None, _text),  # the same rows in a file; wins over the list
    "glob_delay_s": (1.0, _nonnegative),
    "sync_delay_s": (1.0, _nonnegative),
    "max_offload_samples": (math.inf, _cap),
    "sat_distance_m": (784e3, _positive),
    "pathloss_exponent": (2.0, _positive),
    "noise_density_w_per_hz": (3.98e-21, _positive),
    "energy_coeff": (1e-28, _positive),
    "clients": ([], _list),
}

_CLIENT = {
    "cpu_freq_hz": (_REQUIRED, _positive),
    "cycles_per_sample": (3e7, _positive),
    "tx_power_w": (0.2, _positive),
    "max_offload_fraction": (0.8, _fraction),
    "energy_budget_j": (1.0, _positive),
    "dataset_size": (0, _tally),  # samples_per_client when a data section is given
}

_DATA = {
    "source": ("synthetic", _one_of("synthetic", "idx", "csv")),
    "seed": (None, _tally),  # None: the scenario seed
    "samples_per_client": (200, _count),
    "classes": (10, _count),
    "dim": (32, _count),
    "noise": (0.6, _nonnegative),
    "test_samples": (1000, _count),
    "images": (None, _text),
    "labels": (None, _text),
    "test_images": (None, _text),
    "test_labels": (None, _text),
    "path": (None, _text),
    "test_path": (None, _text),
    "partition": ("iid", _one_of("iid", "shard_noniid")),
    "shards_per_client": (2, _count),
    "sensitive_fraction": (0.2, _fraction),
    "model": ({}, {"kind": ("mlp", _one_of("mlp", "logistic")), "hidden": (32, _count)}),
}
_SOURCE_FILES = {"synthetic": (), "idx": ("images", "labels"), "csv": ("path",)}

# the defaults are TrainConfig's; its other fields come from the command line
_TRAIN = {
    "eta0": (TrainConfig.eta0, _positive),
    "lr_schedule": (TrainConfig.lr_schedule, _one_of("inv", "constant")),
    "momentum": (TrainConfig.momentum, _fraction),
    "batch_size": (TrainConfig.batch_size, _count),
    "sat_batch_size": (TrainConfig.sat_batch_size, _count),  # None: batch_size
}

_MODEL = {
    "param_count": (100000, _count),
    "bits_per_param": (ModelFootprint.bits_per_param, _count),
    "sample_bits": (ModelFootprint.sample_bits, _size),
}

_SCENARIO = {
    "name": ("scenario", _text),
    "seed": (0, _tally),  # seeds numpy generators, which take no negative seed
    "model": ({}, _MODEL),
    "clusters": ([], _list),
    "data": (None, _DATA),  # None: timing and energy only
    "train": ({}, _TRAIN),
}


def _read(raw: dict, table: dict, prefix: str, errors: list) -> dict:
    """Every field of table from raw, checked, or its default when absent.

    A broken rule is reported as "<prefix><field> must ..." and the default
    stands in, so reading goes on to the next field. A null field is
    accepted where the default is None. A nested table reads an object;
    null or absent is its default.
    """
    out = {}
    for key, (default, rule) in table.items():
        value = raw.get(key)
        if isinstance(rule, dict):
            if value is None:
                value = default
            elif not isinstance(value, dict):
                errors.append(f"{prefix}{key} must be an object")
                value = default
            out[key] = None if value is None else _read(value, rule, f"{prefix}{key}.", errors)
        elif value is None and (default is None or key not in raw):
            if default is _REQUIRED:
                errors.append(f"{prefix}{key} must be given")
            out[key] = default
        else:
            try:
                out[key] = rule(value)
            except _Broken as broken:
                errors.append(f"{prefix}{key} must {broken}")
                out[key] = default
    return out


def _file_fields(values: dict, table: dict) -> dict:
    """The table's fields among values, as a scenario file spells them."""
    return {key: "inf" if values[key] == math.inf else values[key]
            for key in table if values.get(key) is not None}


def validate_scenario(spec: dict) -> Scenario:
    """Build an immutable Scenario from a parsed description.

    Raises ScenarioError listing every problem found.
    """
    if not isinstance(spec, dict):
        raise ScenarioError(["scenario description must be a mapping"])
    errors = []
    top = _read(spec, _SCENARIO, "", errors)
    data = top["data"]
    client_table = _CLIENT
    if data is not None:
        for key in _SOURCE_FILES[data["source"]]:
            if data[key] is None:
                errors.append(f"data.{key} must be given for source {data['source']!r}")
        if (data["test_images"] is None) != (data["test_labels"] is None):
            errors.append("data.test_images and data.test_labels must be given together")
        # clients that omit dataset_size inherit the planned per-client count,
        # so cost and resource questions work before any data is materialized
        client_table = {**_CLIENT, "dataset_size": (data["samples_per_client"], _tally)}
    if not top["clusters"]:
        errors.append("scenario has no clusters")

    clusters, clients = [], []
    seen_clusters, seen_clients = set(), set()
    for ci, raw in enumerate(top["clusters"]):
        if not isinstance(raw, dict):
            errors.append(f"clusters[{ci}] must be an object")
            continue
        cid = _read(raw, {"id": (ci, _whole)}, f"clusters[{ci}]: ", errors)["id"]
        if cid in seen_clusters:
            errors.append(f"duplicate cluster id {cid}")
        seen_clusters.add(cid)
        before = len(errors)
        vals = _read(raw, _CLUSTER, f"cluster {cid}: ", errors)
        link, members = vals.pop("isl_link"), vals.pop("clients")
        if link is not None and len(errors) == before:
            vals["isl_rate_bps"] = isl_rate(IslLinkParams(**link))
            if not 0 < vals["isl_rate_bps"] < math.inf:
                errors.append(f"cluster {cid}: isl_link must give a positive finite rate")
        path, rows, schedule = vals.pop("coverage_file"), vals.pop("coverage_intervals"), None
        if path is not None or rows is not None:
            try:
                schedule = load_coverage_schedule(rows if path is None else path)
                vals["coverage_s"] = schedule.mean_dwell_s()
            except (OSError, ValueError) as exc:
                field_name = "coverage_intervals" if path is None else "coverage_file"
                errors.append(f"cluster {cid}: {field_name}: {exc}")

        if not members:
            errors.append(f"empty cluster {cid}")
        member_ids = []
        for ki, rk in enumerate(members):
            if not isinstance(rk, dict):
                errors.append(f"cluster {cid}: clients[{ki}] must be an object")
                continue
            kid = _read(rk, {"id": (len(clients), _whole)},
                        f"cluster {cid}: clients[{ki}]: ", errors)["id"]
            if kid in seen_clients:
                errors.append(f"duplicate client id {kid}")
            seen_clients.add(kid)
            member_ids.append(kid)
            clients.append(ClientProfile(id=kid, cluster_id=cid,
                                         **_read(rk, client_table, f"client {kid}: ", errors)))
        clusters.append(ClusterSpec(id=cid, client_ids=tuple(member_ids), schedule=schedule, **vals))

    if errors:
        raise ScenarioError(errors)
    return Scenario(
        name=top["name"],
        clusters=tuple(clusters),
        clients=tuple(clients),
        footprint=ModelFootprint(**top["model"]),
        seed=top["seed"],
        data=data,
        train=TrainConfig(**top["train"]),
    )


# the file fields of a scenario, by section; load_scenario resolves them
_DATA_FILES = ("images", "labels", "test_images", "test_labels", "path", "test_path")


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file. A relative path in one of its file
    fields (the data files and each cluster's `coverage_file`) is taken
    from the scenario file's directory, not the working directory, and is
    kept as an absolute path, so that the run's manifest names the file
    wherever it is replayed from."""
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    here = Path(path).absolute().parent
    if isinstance(spec, dict):
        clusters = spec.get("clusters")
        sections = [(spec.get("data"), _DATA_FILES)] + [
            (c, ("coverage_file",)) for c in (clusters if isinstance(clusters, list) else ())]
        for section, keys in sections:
            for key in keys if isinstance(section, dict) else ():
                value = section.get(key)
                if isinstance(value, str) and not Path(value).is_absolute():
                    section[key] = str(here / value)
    return validate_scenario(spec)


def scenario_to_dict(scenario: Scenario) -> dict:
    """The scenario as a file, written from the validation tables, for run
    manifests; a coverage schedule is written inline as its intervals. The
    train section holds the fields a scenario file sets; the rest of
    `TrainConfig` comes from the command line. Datasets are left out."""
    out = {
        "name": scenario.name,
        "seed": scenario.seed,
        "model": _file_fields(vars(scenario.footprint), _MODEL),
        "clusters": [],
    }
    if scenario.data is not None:
        out["data"] = _file_fields(scenario.data, _DATA)
    out["train"] = _file_fields(vars(scenario.train), _TRAIN)
    for c in scenario.clusters:
        row = {"id": c.id, **_file_fields(vars(c), _CLUSTER)}
        if c.schedule is not None:
            # a row numbered by its position is written as the pair it reads back from
            row["coverage_intervals"] = [[s, e] if i == k else [i, s, e]
                                         for k, (i, s, e) in enumerate(c.schedule.intervals)]
        row["clients"] = [{"id": p.id, **_file_fields(vars(p), _CLIENT)}
                          for p in scenario.cluster_clients(c.id)]
        out["clusters"].append(row)
    return out


# ---------------------------------------------------------------------------
# coverage schedules


def load_coverage_schedule(source) -> CoverageSchedule:
    """Build a schedule from interval rows or an interval file.

    File rows are whitespace-separated ``satellite_index start_s end_s``,
    sorted by start time. In-memory rows may drop the index ([start, end]
    pairs are numbered by position).
    """
    items = source
    if isinstance(source, (str, Path)):
        items = []
        with open(source, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                try:
                    index, start, end = text.split()
                    items.append((int(index), float(start), float(end)))
                except ValueError:
                    raise ValueError(f"line {line_no}: expected 'index start_s end_s', "
                                     f"got {text!r}") from None
    rows = []
    for k, item in enumerate(items):
        if not isinstance(item, (list, tuple)) or len(item) not in (2, 3):
            raise ValueError(f"interval {k}: expected [start, end] or [index, start, end]")
        try:
            *index, start, end = map(_finite, item)
        except _Broken as broken:
            raise ValueError(f"interval {k}: each entry must {broken}") from None
        rows.append((int(index[0]) if index else k, float(start), float(end)))

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
    return CoverageSchedule(intervals=tuple(rows))


# ---------------------------------------------------------------------------
# data sources and partitioning


def synthetic_dataset(
    n_samples: int,
    n_classes: int = 10,
    feature_dim: int = 32,
    noise: float = 0.6,
    seed: int = 0,
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
    means = mean_rng.standard_normal((n_classes, feature_dim)) * (3.0 / math.sqrt(feature_dim))
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


def _idx_header(fh, path, fmt: str) -> tuple:
    """The big-endian header fmt at the start of an IDX file, refused with a
    ValueError that names the file when the file is shorter than it."""
    size = struct.calcsize(fmt)
    head = fh.read(size)
    if len(head) != size:
        raise ValueError(f"{path}: {len(head)} bytes, shorter than the {size}-byte IDX header")
    return struct.unpack(fmt, head)


def load_idx(images_path, labels_path) -> SampleSet:
    """Read an IDX image/label pair (the classic big-endian digit format)."""
    with open(images_path, "rb") as fh:
        magic, n, rows, cols = _idx_header(fh, images_path, ">IIII")
        if magic != 0x00000803:
            raise ValueError(f"{images_path}: bad image magic 0x{magic:08x}")
        raw = fh.read(n * rows * cols)
    if len(raw) != n * rows * cols:
        raise ValueError(f"{images_path}: image file truncated")
    features = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols).astype(np.float64) / 255.0

    with open(labels_path, "rb") as fh:
        magic, nl = _idx_header(fh, labels_path, ">II")
        if magic != 0x00000801:
            raise ValueError(f"{labels_path}: bad label magic 0x{magic:08x}")
        raw = fh.read(nl)
    if nl != n:
        raise ValueError(f"image/label count mismatch ({n} vs {nl})")
    if len(raw) != nl:
        raise ValueError(f"{labels_path}: label file truncated")
    labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    return SampleSet(features, labels, np.arange(n, dtype=np.int64))


def load_csv_dataset(path) -> SampleSet:
    """Read ``label,f1,f2,...`` rows; a non-numeric first row is a header.
    A label is a nonnegative integer below 2^63, a feature a finite number, and every
    row has the first row's width; a row that breaks one is refused."""
    features = []
    labels = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for i, row in enumerate(reader):
            if not row:
                continue
            try:
                lab = float(row[0])
                feat = [float(v) for v in row[1:]]
            except ValueError:
                if i == 0:
                    continue
                raise ValueError(f"{path} row {i + 1}: non-numeric value")
            if not (0.0 <= lab < 2.0 ** 63 and lab.is_integer()):
                raise ValueError(f"{path} row {i + 1}: label {row[0]!r} is not a "
                                 "nonnegative integer below 2^63")
            if not all(map(math.isfinite, feat)):
                raise ValueError(f"{path} row {i + 1}: non-finite feature")
            if features and len(feat) != len(features[0]):
                raise ValueError(f"{path} row {i + 1}: {len(feat)} features, not "
                                 f"{len(features[0])} as in the first row")
            labels.append(int(lab))
            features.append(feat)
    if not features:
        raise ValueError(f"{path}: empty CSV dataset")
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
    """Attach materialized sample sets, marking a seeded sensitive fraction.

    Each client's rows are taken once into its `DatasetHandle.samples`,
    sensitive rows first. A client's `max_offload_fraction` is capped at its
    nonsensitive share."""
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
        rest = np.ones(n, dtype=bool)
        rest[picks] = False
        handle = DatasetHandle(ss.take(np.concatenate([picks, np.flatnonzero(rest)])), n_sens)
        # only nonsensitive samples leave the client, so round(alpha * n)
        # stays within the pool when alpha does within its share
        alpha_max = min(p.max_offload_fraction, (n - n_sens) / n)
        new_clients.append(replace(p, dataset=handle, dataset_size=n,
                                   max_offload_fraction=alpha_max))
    return replace(scenario, clients=tuple(new_clients), blocks=None)


def _fill(block: SampleSet, start: int, src: SampleSet, idx) -> int:
    """Copy src's rows idx into block's rows from start on; return where
    they stop."""
    stop = start + len(idx)
    np.take(src.features, idx, axis=0, out=block.features[start:stop])
    np.take(src.labels, idx, out=block.labels[start:stop])
    np.take(src.ids, idx, out=block.ids[start:stop])
    return stop


def apply_offload(scenario: Scenario, alpha) -> Scenario:
    """The scenario with each cluster's `ClusterBlock` laid out for an
    offload vector; its clients are left as they are.

    alpha maps client id to fraction. Selection is uniform over the
    nonsensitive pool under a seed fixed by (scenario seed, client id), so
    reapplication is idempotent.

    Each cluster's rows are copied once, in place, from its members'
    `DatasetHandle.samples` into its block: each member's retained rows,
    then the satellite pool. The block's ranges are the one record of the
    split, and training reads every cluster's batches from its one array.
    """
    offloaded = {}  # client id -> its offloaded rows, as indices into its samples
    for p in scenario.clients:
        a = float(alpha[p.id])
        if a < -1e-12 or a > p.max_offload_fraction + 1e-12:
            raise ValueError(
                f"client {p.id}: offload fraction {a} outside [0, {p.max_offload_fraction}]"
            )
        if p.dataset is None:
            raise ValueError(f"client {p.id}: no materialized dataset to offload from")
        n_off = round(a * p.dataset.size)
        n_nonsens = p.dataset.size - p.dataset.n_sensitive
        if n_off > n_nonsens:
            raise ValueError(
                f"client {p.id}: offload of {n_off} exceeds nonsensitive pool {n_nonsens}"
            )
        rng = np.random.default_rng([scenario.seed, 11, p.id])
        picks = np.sort(rng.choice(n_nonsens, size=n_off, replace=False)) if n_off else np.array([], dtype=np.int64)
        offloaded[p.id] = p.dataset.n_sensitive + picks

    blocks = {}
    for c in scenario.clusters:
        members = scenario.cluster_clients(c.id)
        total = sum(p.dataset.size for p in members)
        dim = members[0].dataset.samples.feature_dim
        # features, labels and ids in one anonymous mapping of the block's
        # own: a block in the heap fills the hole the partition leaves, so
        # each training round grows the heap and glibc trims it again
        buf = np.frombuffer(mmap.mmap(-1, total * (dim + 2) * 8), dtype=np.float64)
        block = SampleSet(buf[:total * dim].reshape(total, dim),
                          buf[total * dim:total * (dim + 1)].view(np.int64),
                          buf[total * (dim + 1):].view(np.int64))
        retained, o = {}, 0
        for p in members:
            kept = np.ones(p.dataset.size, dtype=bool)
            kept[offloaded[p.id]] = False
            start, o = o, _fill(block, o, p.dataset.samples, np.flatnonzero(kept))
            retained[p.id] = (start, o)
        pool_start = o
        for p in members:
            o = _fill(block, o, p.dataset.samples, offloaded[p.id])
        blocks[c.id] = ClusterBlock(block, (pool_start, o), retained)
    return replace(scenario, blocks=blocks)


def tests_on_corpus(data: dict) -> bool:
    """Whether `prepare_data` measures accuracy on the training corpus: a
    file source whose data section names no test files."""
    return data["source"] != "synthetic" and data[
        "test_images" if data["source"] == "idx" else "test_path"] is None


def prepare_data(scenario: Scenario) -> tuple:
    """Materialize train/test data from the scenario's data section.

    Returns (scenario_with_datasets, test_set). Synthetic sources generate a
    fresh corpus; idx/csv sources read files, and without test files the
    training corpus is the test set (`tests_on_corpus`). The corpus is
    partitioned over all clients in scenario order.
    """
    cfg = scenario.data
    if cfg is None:
        raise ValueError("scenario has no data section")
    seed = scenario.seed if cfg["seed"] is None else cfg["seed"]
    if cfg["source"] == "synthetic":
        shape = (cfg["classes"], cfg["dim"], cfg["noise"])
        corpus = synthetic_dataset(cfg["samples_per_client"] * len(scenario.clients), *shape,
                                   seed=seed)
        # fresh draws for test, same class means as the training corpus
        test = synthetic_dataset(cfg["test_samples"], *shape, seed=seed + 1, mean_seed=seed)
    elif cfg["source"] == "idx":
        corpus = load_idx(cfg["images"], cfg["labels"])
        test = corpus if tests_on_corpus(cfg) else load_idx(cfg["test_images"],
                                                             cfg["test_labels"])
    else:
        corpus = load_csv_dataset(cfg["path"])
        test = corpus if tests_on_corpus(cfg) else load_csv_dataset(cfg["test_path"])

    parts = partition_dataset(corpus, len(scenario.clients), mode=cfg["partition"],
                              shards_per_client=cfg["shards_per_client"], seed=seed)
    per_client = {p.id: parts[i] for i, p in enumerate(scenario.clients)}
    attached = attach_datasets(scenario, per_client,
                               sensitive_fraction=cfg["sensitive_fraction"], seed=seed)
    return attached, test
