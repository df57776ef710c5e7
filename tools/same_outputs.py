"""Check that a git ref and the working tree write byte-identical outputs.

    python tools/same_outputs.py <git-ref>

The ref is exported with `git archive` into a temporary directory. Both
trees then run one fixed command list, each from its own directory but with
the same relative input and output paths, so that the paths written into
the manifests agree. The commands are:

- `optimize`, then `simulate` for the family's rounds, on every scenario of
  the benchmark's `plan` family at seeds 1-3 (`perfbench/workloads.py`
  `plan_family`);
- `simulate --baseline terrestrial_only` and `simulate --baseline
  full_offload` for the family's rounds, on every scenario of the `plan`
  family at seed 1. They replay windows with no satellite compute, and
  `full_offload` long handoff chains and relay-only windows;
- `optimize --grid-oracle` on every instance of the benchmark's `oracle`
  workload at seeds 1-3 (`perfbench/workloads.py` `build_oracle`), and on
  the seed-1 instances again with the cluster's `max_offload_samples` at half
  their offloadable total, so that the grid drops the profiles past the cap;
- `optimize --grid-oracle` on instances past the `oracle` workload's
  two-client single windows (`extra_grids`): three clients on a 51^3
  lattice; three clients on a 101^3 lattice, which spans 4 search tiles on
  every axis, with and without a binding cluster cap, so that a ref that
  bounds every profile checks the tiled search in three dimensions; and a
  dark cluster whose slow satellite clock hands the winner's chain off;
- on `scenarios/reference.json`: `optimize`, `simulate --rounds 3`,
  `simulate --rounds 3 --prox-mu 0.1` (FedProx training),
  `simulate --rounds 3 --single-step`, `simulate --rounds 2 --seeds 0,1`
  (a second seed's data prepared after the first seed's legs),
  `sweep --rounds 2 --seeds 0`, `analyze --rounds 3` and
  `analyze --rounds 3 --single-step` (mini-batches, so that the batching
  penalty reads the pools' non-zero variances);
- on copies of the reference (`VARIANTS`): `simulate --rounds 3` with 40
  samples per client and a satellite batch of 20, so that training stacks
  ragged last batches, sets smaller than their batch and two batch sizes;
  and `simulate --rounds 2` and `analyze --rounds 2` with an iid partition
  and no sensitive rows, and with every row sensitive (every satellite pool
  empty), so that the clients' row layouts and the cluster blocks are
  checked at both ends of the sensitive share.

Both trees read the inputs this tree writes. The script lists every output
file, manifests included, whose bytes differ or that only one tree wrote,
and every command whose exit status or error line differs. It exits 1 if
anything differs and 0 if all is identical.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)  # of the plan family and the oracle instances; the first also capped
BASELINES = ("terrestrial_only", "full_offload")  # simulated on the plan family at seed 1
REFERENCE = ("inputs/reference.json", [
    ("optimize", []),
    ("simulate", ["--rounds", "3"]),
    ("simulate", ["--rounds", "3", "--prox-mu", "0.1"]),
    ("simulate", ["--rounds", "3", "--single-step"]),
    ("simulate", ["--rounds", "2", "--seeds", "0,1"]),
    ("sweep", ["--rounds", "2", "--seeds", "0"]),
    ("analyze", ["--rounds", "3"]),
    ("analyze", ["--rounds", "3", "--single-step"]),
])
# copies of the reference: name, updates to its data and train sections, and
# the commands run on it
SIMULATE_AND_ANALYZE = [("simulate", ["--rounds", "2"]), ("analyze", ["--rounds", "2"])]
VARIANTS = [
    ("small-batches", {"samples_per_client": 40}, {"sat_batch_size": 20},
     [("simulate", ["--rounds", "3"])]),
    ("iid-no-sensitive", {"partition": "iid", "sensitive_fraction": 0.0}, {},
     SIMULATE_AND_ANALYZE),
    ("all-sensitive", {"sensitive_fraction": 1.0}, {}, SIMULATE_AND_ANALYZE),
]

# run in each tree: argv[1] is its src directory, argv[2] the command list;
# prints each command's exit status and stderr as JSON
RUNNER = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import orbitfed
from orbitfed.cli import main
if not orbitfed.__file__.startswith(sys.argv[1]):
    sys.exit(f"imported {orbitfed.__file__}, not the tree under {sys.argv[1]}")
status = []
for argv in json.loads(open(sys.argv[2]).read()):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status.append([main(argv), err.getvalue()])
print(json.dumps(status))
"""


def extra_grids() -> dict:
    """Grid-oracle scenarios by name: three clients on 51^3 and 101^3
    lattices, the larger also with the cluster's `max_offload_samples` at
    half the offloadable total, and two slow clients under a dark, slow
    satellite whose chains hand off (twice at the grid's winner)."""
    from workloads import client, cluster, oracle_instance, scenario

    def three(alpha_max):
        return oracle_instance(np.random.default_rng([SEEDS[0], 204]), (600, 400, 500),
                               (2e8, 5e8, 3e8), True, alpha_max)

    wide, capped = three(0.1), three(0.1)
    (c,) = capped["clusters"]
    c["max_offload_samples"] = 0.5 * sum(
        p["max_offload_fraction"] * p["dataset_size"] for p in c["clients"])
    handoff = scenario("handoff", [cluster(
        0, [client(k, f, 3000, max_offload_fraction=0.3) for k, f in enumerate((1e8, 4e8))],
        coverage_s=120.0, sat_max_freq_hz=1e8, isl_rate_bps=1e6, sun_facing=False)])
    return {"grid-3-clients": three(0.05), "grid-3-clients-wide": wide,
            "grid-3-clients-wide-capped": capped, "grid-handoff": handoff}


def write_inputs(inputs: Path) -> list:
    """Write the input scenarios and return the command list."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import build_oracle, plan_family

    inputs.mkdir(parents=True)
    commands = []
    for seed in SEEDS:
        for key, (raw, rounds) in plan_family(seed).items():
            name = f"inputs/plan-{key}-{seed}.json"
            (inputs.parent / name).write_text(json.dumps(raw, indent=1))
            commands.append(["--mode", "optimize", "--scenario", name,
                             "--out", f"out/plan-{key}-{seed}-optimize"])
            commands.append(["--mode", "simulate", "--scenario", name, "--rounds", str(rounds),
                             "--out", f"out/plan-{key}-{seed}-simulate"])
            if seed != SEEDS[0]:
                continue
            for baseline in BASELINES:
                commands.append(["--mode", "simulate", "--scenario", name, "--rounds", str(rounds),
                                 "--baseline", baseline,
                                 "--out", f"out/plan-{key}-{seed}-{baseline}"])
    for seed in SEEDS:
        work = inputs / f"oracle-{seed}"
        work.mkdir()
        for op in build_oracle(seed, work).ops:
            # the instance's scenario path is the command's last argument
            name = str(Path(op.argv[-1]).relative_to(inputs.parent))
            commands.append([*op.argv[:-1], name, "--out", f"out/{op.scenario}-{seed}-grid"])
            if seed != SEEDS[0]:
                continue
            raw = json.loads(Path(op.argv[-1]).read_text())
            (cluster,) = raw["clusters"]
            cluster["max_offload_samples"] = 0.5 * sum(
                c["max_offload_fraction"] * c["dataset_size"] for c in cluster["clients"])
            capped = name.replace(".json", "-capped.json")
            (inputs.parent / capped).write_text(json.dumps(raw, indent=1))
            commands.append([*op.argv[:-1], capped,
                             "--out", f"out/{op.scenario}-{seed}-grid-capped"])
    for key, raw in extra_grids().items():
        name = f"inputs/{key}.json"
        (inputs.parent / name).write_text(json.dumps(raw, indent=1))
        commands.append(["--mode", "optimize", "--grid-oracle", "--scenario", name,
                         "--out", f"out/{key}"])
    path, runs = REFERENCE
    shutil.copy(ROOT / "scenarios" / "reference.json", inputs.parent / path)
    for k, (mode, extra) in enumerate(runs):
        commands.append(["--mode", mode, "--scenario", path, *extra,
                         "--out", f"out/reference-{k}-{mode}"])
    for key, data, train, runs in VARIANTS:
        raw = json.loads((ROOT / "scenarios" / "reference.json").read_text())
        raw["data"].update(data)
        raw["train"].update(train)
        name = f"inputs/reference-{key}.json"
        (inputs.parent / name).write_text(json.dumps(raw, indent=1))
        for mode, extra in runs:
            commands.append(["--mode", mode, "--scenario", name, *extra,
                             "--out", f"out/reference-{key}-{mode}"])
    return commands


def export(ref: str, dest: Path):
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                             check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def files(top: Path) -> dict:
    return {str(p.relative_to(top)): p for p in sorted(top.rglob("*")) if p.is_file()}


def first_difference(a: bytes, b: bytes) -> str:
    for n, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if x != y:
            return f"line {n}"
    return f"length {len(a)} vs {len(b)} bytes"


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    ref = argv[0]
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        base, work = tmp / "base", tmp / "work"
        commands = write_inputs(base / "inputs")
        shutil.copytree(base / "inputs", work / "inputs")
        (tmp / "commands.json").write_text(json.dumps(commands))
        export(ref, tmp / "tree")
        procs = [subprocess.Popen([sys.executable, "-c", RUNNER, str(src),
                                   str(tmp / "commands.json")],
                                  cwd=cwd, stdout=subprocess.PIPE, text=True)
                 for src, cwd in ((tmp / "tree" / "src", base), (ROOT / "src", work))]
        outs = [p.communicate()[0] for p in procs]
        if any(p.returncode for p in procs):
            print("a runner failed; see its traceback above", file=sys.stderr)
            return 1
        status = [json.loads(o) for o in outs]
        differ = [f"exit {a} vs {b}: {' '.join(cmd)}" for cmd, a, b in zip(commands, *status)
                  if a != b]
        left, right = files(base / "out"), files(work / "out")
        for name in sorted(left.keys() | right.keys()):
            if name not in right or name not in left:
                differ.append(f"only in {ref if name in left else 'the working tree'}: {name}")
                continue
            a, b = left[name].read_bytes(), right[name].read_bytes()
            if a != b:
                differ.append(f"differs at {first_difference(a, b)}: {name}")
    print(f"{len(commands)} commands, {len(left.keys() | right.keys())} output files, "
          f"{len(differ)} differences against {ref}")
    for line in differ:
        print(line)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
