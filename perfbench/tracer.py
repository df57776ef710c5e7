"""Spans and counters around orbitfed's public functions, set from outside.

`Tracer.install()` replaces every module binding of each traced function
(for example `orbitfed.sim.local_update` as well as `orbitfed.fl.local_update`
and the package re-export) with a wrapper, and `uninstall()` puts the
originals back. Nothing under `src/` changes.

A span is (id, name, start, end, parent id, thread id). Spans live in memory
until `write()`. A thread with no open span parents its spans to the
operation's root span, so the legs of a threaded sweep hang under the
`cli.main` call that started them. Self time is a span's duration minus the
union of its children's intervals; with threads that union hides parent
work that overlapped a child running in another thread.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict

MODULES = ("cli", "scenario", "cost", "optimizer", "sim", "fl", "analysis")

# layer -> functions that get a span
SPANNED = {
    "cli": ("main",),
    "scenario": ("validate_scenario", "prepare_data", "apply_offload"),
    "cost": ("round_latency",),
    "optimizer": ("optimize", "optimize_pinned_alpha", "solve_alpha", "solve_freq",
                  "solve_bandwidth", "check_feasibility", "grid_search_cluster"),
    "sim": ("run_experiment", "run_round"),
    "fl": ("local_update", "loss_and_grad", "evaluate", "intra_cluster_aggregate",
           "global_aggregate"),
    "analysis": ("verify_bound_empirically", "estimate_smoothness_and_rho"),
}

# self-time metrics: metric name -> span names summed into it
SELF_MS = {
    "cli.self_ms": ("cli.main",),
    "scenario.validate_scenario.self_ms": ("scenario.validate_scenario",),
    "scenario.prepare_data.self_ms": ("scenario.prepare_data",),
    "scenario.apply_offload.self_ms": ("scenario.apply_offload",),
    "cost.round_latency.self_ms": ("cost.round_latency",),
    "optimizer.optimize.self_ms": ("optimizer.optimize",),
    "optimizer.optimize_pinned_alpha.self_ms": ("optimizer.optimize_pinned_alpha",),
    "optimizer.solve_alpha.self_ms": ("optimizer.solve_alpha",),
    "optimizer.solve_freq.self_ms": ("optimizer.solve_freq",),
    "optimizer.solve_bandwidth.self_ms": ("optimizer.solve_bandwidth",),
    "optimizer.check_feasibility.self_ms": ("optimizer.check_feasibility",),
    "optimizer.grid_search_cluster.self_ms": ("optimizer.grid_search_cluster",),
    "sim.run_experiment.self_ms": ("sim.run_experiment",),
    "sim.run_round.self_ms": ("sim.run_round",),
    "fl.local_update.self_ms": ("fl.local_update",),
    "fl.loss_and_grad.self_ms": ("fl.loss_and_grad",),
    "fl.evaluate.self_ms": ("fl.evaluate",),
    "fl.aggregate.self_ms": ("fl.intra_cluster_aggregate", "fl.global_aggregate"),
    "analysis.verify_bound_empirically.self_ms": ("analysis.verify_bound_empirically",),
    "analysis.estimate_smoothness_and_rho.self_ms": ("analysis.estimate_smoothness_and_rho",),
}

# per-op counts: metric name -> counter key
COUNTS = {
    "cost.round_latency.calls": "cost.round_latency",
    "optimizer.optimize.iterations": "optimize.iterations",
    "optimizer.bisect.calls": "bisect.calls",
    "optimizer.bisect.iterations": "bisect.iterations",
    "optimizer.grid.rescored": "grid.rescored",
    "sim.run_round.calls": "sim.run_round",
    "sim.windows": "sim.windows",
    "sim.events": "sim.events",
    "fl.local_update.calls": "fl.local_update",
    "fl.loss_and_grad.calls": "fl.loss_and_grad",
    "fl.loss_and_grad.rows": "fl.loss_and_grad.rows",
}

SOLVES = ("optimizer.optimize", "optimizer.optimize_pinned_alpha",
          "optimizer.grid_search_cluster")


def metric_units():
    """Every per-layer metric with its unit and better direction."""
    out = {name: ("ms", "lower") for name in SELF_MS}
    out.update({name: ("count", "lower") for name in COUNTS})
    out["cost.round_latency.repeat_share"] = ("ratio", "lower")
    out["cli.output_kb"] = ("kB", "lower")
    out["cli.sweep_workers"] = ("count", "higher")
    return out


def _decision_key(scenario, decision):
    return (id(scenario), tuple(sorted(decision.alpha.items())),
            tuple(sorted(decision.sat_freq_hz.items())),
            tuple(sorted(decision.bandwidth_hz.items())))


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, thread)
        self.counts = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._root = None
        self._patched = []
        self._seen = {}  # (solve span id, decision key) for repeat_share
        self._sweep_threads = set()
        self.ops = 0
        self.output_bytes = 0
        self.sweep_ops = 0
        self.sweep_threads = 0

    # --- spans -----------------------------------------------------------
    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _open(self, name):
        st = self._stack()
        with self._lock:
            sid = self._next
            self._next += 1
        parent = st[-1][0] if st else self._root
        st.append((sid, name, parent))
        return sid

    def _span(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._stack()
            sid = tracer._open(name)
            if name == "cli.main" and not st[:-1]:
                tracer._root = sid
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                _, _, parent = st.pop()
                with tracer._lock:
                    tracer.spans.append((sid, name, t0, t1, parent, threading.get_ident()))
                    tracer.counts[name] += 1
            if after is not None:
                with tracer._lock:
                    after(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _enclosing(self, names):
        for sid, name, _ in reversed(self._stack()):
            if name in names:
                return sid
        return self._root

    # --- counters attached to particular functions (called under the lock) ---
    def _after_round_latency(self, args, kwargs, out):
        key = (self._enclosing(SOLVES), _decision_key(args[0], args[1]))
        if key in self._seen:
            self.counts["cost.round_latency.repeat"] += 1
        self._seen[key] = True

    def _after_loss_and_grad(self, args, kwargs, out):
        self.counts["fl.loss_and_grad.rows"] += args[2].shape[0]

    def _after_optimize(self, args, kwargs, out):
        self.counts["optimize.iterations"] += out.iterations

    def _after_solve_bandwidth(self, args, kwargs, out):
        if any(name == "optimizer.grid_search_cluster" for _, name, _ in self._stack()):
            self.counts["grid.rescored"] += 1

    def _after_run_experiment(self, args, kwargs, out):
        self.counts["sim.events"] += len(out.timeline)
        self.counts["sim.windows"] += sum(
            log.n_windows for rec in out.records for log in rec.clusters.values())
        self._sweep_threads.add(threading.get_ident())

    def _bisect(self, fn):
        counts, lock = self.counts, self._lock

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            with lock:
                counts["bisect.calls"] += 1
                counts["bisect.iterations"] += out.iterations
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # --- patching ---------------------------------------------------------
    def install(self):
        import orbitfed

        mods = [orbitfed] + [importlib.import_module(f"orbitfed.{m}") for m in MODULES]
        after = {
            "cost.round_latency": self._after_round_latency,
            "fl.loss_and_grad": self._after_loss_and_grad,
            "optimizer.optimize": self._after_optimize,
            "optimizer.solve_bandwidth": self._after_solve_bandwidth,
            "sim.run_experiment": self._after_run_experiment,
        }
        replace = {}
        for layer, names in SPANNED.items():
            mod = importlib.import_module(f"orbitfed.{layer}")
            for fname in names:
                orig = getattr(mod, fname)
                span = f"{layer}.{fname}"
                replace[id(orig)] = (orig, self._span(span, orig, after.get(span)))
        bisect = importlib.import_module("orbitfed.optimizer").bisect
        replace[id(bisect)] = (bisect, self._bisect(bisect))
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched = []

    # --- per-operation bookkeeping ---------------------------------------
    def end_op(self, output_bytes: int, is_sweep: bool):
        self.ops += 1
        self.output_bytes += output_bytes
        self._root = None
        self._seen.clear()
        if is_sweep:
            self.sweep_ops += 1
            self.sweep_threads += len(self._sweep_threads)
        self._sweep_threads.clear()

    # --- results ------------------------------------------------------------
    def self_times(self):
        """Seconds of self time summed per span name."""
        children = defaultdict(list)
        for sid, _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        out = defaultdict(float)
        for sid, name, t0, t1, _, _ in self.spans:
            covered, reach = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out[name] += (t1 - t0) - covered
        return out

    def metrics(self) -> dict:
        n = max(self.ops, 1)
        selfs = self.self_times()
        out = {}
        for metric, names in SELF_MS.items():
            out[metric] = 1e3 * sum(selfs.get(s, 0.0) for s in names) / n
        for metric, key in COUNTS.items():
            out[metric] = self.counts.get(key, 0.0) / n
        calls = self.counts.get("cost.round_latency", 0.0)
        out["cost.round_latency.repeat_share"] = (
            self.counts.get("cost.round_latency.repeat", 0.0) / calls if calls else 0.0)
        out["cli.output_kb"] = self.output_bytes / 1e3 / n
        out["cli.sweep_workers"] = (
            self.sweep_threads / self.sweep_ops if self.sweep_ops else 0.0)
        units = metric_units()
        return {k: {"value": v, "unit": units[k][0]} for k, v in out.items()}

    def write(self, path):
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        threads = sorted({s[5] for s in self.spans})
        tindex = {t: i for i, t in enumerate(threads)}
        with open(path, "w") as fh:
            json.dump({
                "fields": ["id", "name", "start_s", "end_s", "parent", "thread"],
                "names": names,
                "spans": [[s[0], index[s[1]], s[2], s[3], s[4], tindex[s[5]]]
                          for s in self.spans],
                "counts": dict(self.counts),
            }, fh)
