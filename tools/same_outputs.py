"""Check that a git ref and the working tree write byte-identical outputs.

    python tools/same_outputs.py <git-ref>

The ref is exported with `git archive` into a temporary directory. Both
trees then run one fixed command list, each from its own directory but with
the same relative input and output paths, so that the paths written into
the manifests agree. The commands are:

- `optimize`, then `simulate` for the family's rounds, on every scenario of
  the benchmark's `plan` family at seeds 1-3 (`perfbench/workloads.py`
  `plan_family`);
- on `scenarios/reference.json`: `optimize`, `simulate --rounds 3`,
  `simulate --rounds 5 --persistent-battery`, `sweep --rounds 2 --seeds 0`
  and `analyze --rounds 3`.

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

ROOT = Path(__file__).resolve().parent.parent
PLAN_SEEDS = (1, 2, 3)
REFERENCE = ("inputs/reference.json", [
    ("optimize", []),
    ("simulate", ["--rounds", "3"]),
    ("simulate", ["--rounds", "5", "--persistent-battery"]),
    ("sweep", ["--rounds", "2", "--seeds", "0"]),
    ("analyze", ["--rounds", "3"]),
])

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


def write_inputs(inputs: Path) -> list:
    """Write the input scenarios and return the command list."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import plan_family

    inputs.mkdir(parents=True)
    commands = []
    for seed in PLAN_SEEDS:
        for key, (raw, rounds) in plan_family(seed).items():
            name = f"inputs/plan-{key}-{seed}.json"
            (inputs.parent / name).write_text(json.dumps(raw, indent=1))
            commands.append(["--mode", "optimize", "--scenario", name,
                             "--out", f"out/plan-{key}-{seed}-optimize"])
            commands.append(["--mode", "simulate", "--scenario", name, "--rounds", str(rounds),
                             "--out", f"out/plan-{key}-{seed}-simulate"])
    path, runs = REFERENCE
    shutil.copy(ROOT / "scenarios" / "reference.json", inputs.parent / path)
    for k, (mode, extra) in enumerate(runs):
        commands.append(["--mode", mode, "--scenario", path, *extra,
                         "--out", f"out/reference-{k}-{mode}"])
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
