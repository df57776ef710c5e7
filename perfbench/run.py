"""orbitfed benchmark: one workload per process, closed loop, checked outputs.

    python3 perfbench/run.py --workload plan --seed 1 --seconds 20 --trace 0

One caller runs `orbitfed.cli.main([...])` in-process, back to back, on the
inputs workloads.py builds from the seed, and checks every output. It repeats
whole rounds of the workload's commands until `--seconds` have passed. The
last stdout line is a JSON object: `correct`, `attempted`, `failed` and the
metrics, end to end with `--trace 0`, per layer with `--trace 1`. Result,
trace and scratch files go under perfbench/_out/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
SETUP_REPEATS = 5
MAX_RUN_S = 150.0  # stop after the round that passes this, whatever --seconds says
# The probe's time on the 2-CPU box that README.md's figures come from. Timed
# work is scaled by PROBE_REF_S / probe() to that box's reference speed.
PROBE_REF_S = 1.5e-3


def probe() -> float:
    """Fastest of five runs of a fixed interpreter-bound loop: how fast this
    machine runs Python right now. On a shared box other tenants' load moves
    it by up to 2x within minutes, and orbitfed's commands move with it."""
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(seconds: float, before: float, after: float) -> float:
    """Seconds at reference speed, from the probes taken around the work."""
    return seconds * PROBE_REF_S / (0.5 * (before + after))


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def setup(build, seed: int, work: Path, main):
    """Input generation and an untimed warm-up command, from a clean directory."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    built = build(seed, work)
    rc = main(built.warmup + ["--out", str(work / "warmup")])
    if rc != 0:
        raise RuntimeError(f"warm-up command {built.warmup} exited with {rc}")
    return built


def run(workload: str, seed: int, seconds: float, trace: bool):
    sys.path.insert(0, str(ROOT / "src"))
    import orbitfed.cli as cli
    from closed_form import CheckError
    from workloads import WORKLOADS

    t_import = time.perf_counter() - T_START
    p_import = probe()
    t_import = scaled(t_import, p_import, p_import)
    # a fixed-width pid keeps the paths written into manifest.json, and so
    # cli.output_kb, the same from run to run
    work = OUT / f"work-{workload}-{seed}-{os.getpid():07d}"
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        p0 = probe()
        t0 = time.perf_counter()
        built = setup(WORKLOADS[workload], seed, work, cli.main)
        raw_setups.append(time.perf_counter() - t0)
        setups.append(scaled(raw_setups[-1], p0, probe()))

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    attempted = failed = 0
    correct = True
    # per command of the round, one entry per round: seconds, and seconds at reference speed
    durations = [[] for _ in built.ops]
    scaled_durations = [[] for _ in built.ops]
    taus = {}
    t_loop = time.perf_counter()
    try:
        while True:
            for k, op in enumerate(built.ops):
                out = work / f"op{k}"
                shutil.rmtree(out, ignore_errors=True)
                argv = op.argv + ["--out", str(out)]
                attempted += 1
                p0 = probe()
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(sys.stderr):
                        rc = cli.main(argv)
                except Exception:
                    rc = None
                    traceback.print_exc()
                durations[k].append(time.perf_counter() - t0)
                scaled_durations[k].append(scaled(durations[k][-1], p0, probe()))
                if tracer is not None:
                    tracer.end_op(tree_bytes(out) if out.exists() else 0, op.kind == "sweep")
                if rc != 0:
                    failed += 1
                    print(f"op {op.kind} {argv} failed (exit {rc})", file=sys.stderr)
                    continue
                try:
                    taus[op.scenario] = op.check(out)
                except CheckError as exc:
                    correct = False
                    print(f"check failed: {exc}", file=sys.stderr)
                shutil.rmtree(out, ignore_errors=True)
            elapsed = time.perf_counter() - t_loop
            if elapsed >= seconds or elapsed >= MAX_RUN_S:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    # each command counts with its median over the run's rounds
    def rate(per_command):
        return len(built.ops) / sum(map(statistics.median, per_command))

    ops_per_s = rate(scaled_durations)
    print(f"{workload}: {attempted} commands; {rate(durations):.6g} commands/s as timed, "
          f"{ops_per_s:.6g} at reference speed; set-up {statistics.median(raw_setups):.4g} s "
          f"as timed{' (traced)' if tracer else ''}", file=sys.stderr)
    if tracer is not None:
        metrics = tracer.metrics()
        tracer.write(OUT / f"trace-{workload}-seed{seed}.json")
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "setup_s": {"value": t_import + statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "tau_round_s": {"value": statistics.fmean(taus.values()) if taus else float("nan"),
                            "unit": "s"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["plan", "oracle", "train", "bound"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "orbitfed" / "cli.py").is_file():
        print(f"no orbitfed sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    line = json.dumps(result, sort_keys=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
