"""Capture the reference data the benchmark compares against.

    python3 perfbench/capture.py golden      # golden.json
    python3 perfbench/capture.py tripwires   # tripwires.json

``golden`` runs every command of the README's command list, plain and with
--json, and records each one's arguments, exit code and exact standard
output (for ``catalog write``, also the SHA-256 of the catalog it writes).
cli_oneshot checks these byte for byte.

``tripwires`` makes the traced run of every workload with seed 1 and the
run length in BENCHMARK.json, and records its exact counts.  A traced run
with that seed and length reports any count that differs.

Rerun either only when the program is meant to change what it records.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import clilayer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

README_COMMANDS = [
    ["derive", "--genus", "4"],
    ["verify", "--example", "quartic-pencil"],
    ["verify", "--example", "genus4-quadric"],
    ["verify", "--example", "genus2-relation"],
    ["chow", "eval", "(a+b)^2*(a+3b)*2b", "--dims", "1,3"],
    ["teich", "pair", "--kind", "abelian", "--genus", "3", "--chi", "6", "--lyapunov", "1"],
    ["teich", "pair", "--kind", "quadratic", "--genus", "3", "--chi", "2", "--carea", "1/2"],
    ["threshold", "--kind", "abelian", "--genus", "3", "-a", "1", "-b", "1", "--c0", "0"],
    ["certify", "--kind", "quadratic", "--genus", "3", "-a", "1", "-b", "2", "--c", "1/3",
     "--cmax", "2"],
    ["catalog", "list", "--genus", "5"],
]
WRITE_COMMAND = ["catalog", "write", "--genus", "3", "--genus", "4"]
TRIPWIRE_SEED = 1


def golden() -> int:
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    env = clilayer.child_env(ROOT)
    catalog = ROOT / clilayer.GOLDEN_CATALOG
    entries = []
    for args in README_COMMANDS + [a + ["--json"] for a in README_COMMANDS] + [WRITE_COMMAND]:
        if catalog.exists():
            catalog.unlink()
        child = clilayer.run_child(["-m", "hodgediv.cli", *args], ROOT, env, scratch)
        if child.code != 0:
            print(f"{' '.join(args)} exited {child.code}: {child.stderr}", file=sys.stderr)
            return 1
        entry = {"args": args, "exit": child.code, "stdout": child.stdout}
        if args == WRITE_COMMAND:
            entry["catalog_sha256"] = hashlib.sha256(catalog.read_bytes()).hexdigest()
        entries.append(entry)
    (HERE / "golden.json").write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} golden outputs")
    return 0


def tripwires() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from run import TRIPWIRES
    from workloads import WORKLOADS
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    recorded = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(TRIPWIRE_SEED), "--seconds", str(seconds),
                               "--trace", "1"], cwd=ROOT, capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"traced run of {name} failed: {proc.stdout[-2000:]}{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return 1
        recorded[name] = {"seed": TRIPWIRE_SEED, "seconds": seconds,
                          "counts": {k: result["metrics"][k]["value"] for k in TRIPWIRES}}
    (HERE / "tripwires.json").write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"wrote tripwires for {len(recorded)} workloads")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["golden"]:
        sys.exit(golden())
    if sys.argv[1:] == ["tripwires"]:
        sys.exit(tripwires())
    print(__doc__, file=sys.stderr)
    sys.exit(2)
