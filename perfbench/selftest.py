"""Self-test of the benchmark itself, at tiny sizes (a few minutes).

    python3 perfbench/selftest.py

For every workload it checks that an untraced and a traced run exit 0 and
print, as their last line, a correct result carrying every metric of
BENCHMARK.json with its unit; that a wrong result injected into one op is
counted in ``failed`` instead of crashing the run; and that two traced runs
with the same seed give the same exact counts.  It checks that the tracer
wraps a function of every layer that BENCHMARK.json names and every
function a per-layer metric reads, also after ``functools.cache`` has
replaced one.  Finally it checks that the benchmark fails, printing no
result, where the program's sources are absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from run import TRIPWIRES, layer_metrics, unwrapped
from tracing import LAYERS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(script: Path, *args: str) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(script), *args], cwd=script.parent.parent,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def result_of(name: str, seed: int, trace: int, *extra: str) -> dict:
    code, lines = bench(HERE / "run.py", "--workload", name, "--seed", str(seed),
                        "--seconds", "1", "--trace", str(trace), *extra)
    assert code == 0 and lines, f"{name} trace={trace} {extra}: exit {code}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def check_metrics(result: dict, declared: list[dict], nonzero: bool, where: str):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"{where}: metrics differ: {set(got) ^ set(want)} " \
                        f"{[k for k in got if k in want and got[k] != want[k]]}"
    for k, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), f"{where}: {k} is not a number"
        assert not nonzero or v["value"] > 0, f"{where}: {k} is {v['value']}"


def check_tracer():
    """With every hodgediv module loaded and ``picard.basis`` replaced, at
    every binding, by ``functools.cache`` of itself (as a caching change
    would), the tracer must wrap every function a metric reads, some
    function of every layer, and see a call through the cached binding."""
    sys.path.insert(0, str(ROOT / "src"))
    mods = [importlib.import_module(f"hodgediv.{m}") for m in LAYERS]
    mods.append(sys.modules["hodgediv"])
    original = mods[LAYERS.index("picard")].basis
    cached = functools.cache(original)
    rebound = [m for m in mods if vars(m).get("basis") is original]
    for m in rebound:
        m.basis = cached
    tracer = Tracer()
    tracer.install()
    try:
        _, named = layer_metrics(SimpleNamespace(counters={}),
                                 {"functions": {}, "rhs_C_dot_D_under_derive": 0}, tracer)
        missing = unwrapped(named, tracer)
        assert not missing, f"the tracer did not wrap {missing}"
        # The cli layer's metrics come from child processes (clilayer.py).
        layers = {m["name"].split(".")[0] for m in SPEC["per_layer"]} & set(LAYERS) - {"cli"}
        bare = [lay for lay in layers if not any(n.startswith(lay + ".") for n in tracer.wrapped)]
        assert not bare, f"the tracer wrapped no function of {bare}"
        picard = mods[LAYERS.index("picard")]
        picard.basis(picard.PHODGE_ABELIAN, 3)
        assert tracer.summary()["functions"]["picard.basis"]["calls"] == 1, "cached basis not traced"
    finally:
        tracer.uninstall()
        for m in rebound:
            m.basis = original
    print(f"tracer: wraps {len(tracer.wrapped)} functions, among them all that the metrics read")


def main() -> int:
    check_tracer()
    for name in WORKLOADS:
        plain = result_of(name, 1, 0)
        assert plain["correct"] and plain["failed"] == 0, f"{name}: {plain}"
        check_metrics(plain, SPEC["end_to_end"], True, f"{name} untraced")

        injected = result_of(name, 1, 0, "--inject-fault", "0")
        assert not injected["correct"] and injected["failed"] == 1, f"{name} injected: {injected}"
        check_metrics(injected, SPEC["end_to_end"], False, f"{name} injected")

        traced = [result_of(name, 2, 1) for _ in range(2)]
        for r in traced:
            assert r["correct"] and r["failed"] == 0, f"{name} traced: {r}"
            check_metrics(r, SPEC["per_layer"], False, f"{name} traced")
        counts = [{k: r["metrics"][k]["value"] for k in TRIPWIRES} for r in traced]
        assert counts[0] == counts[1], f"{name}: exact counts differ between traced runs"
        if name == "derive_sweep":
            per_index = counts[0]["testcurves.rhs_C_dot_D.per_index"]
            print(f"derive_sweep testcurves.rhs_C_dot_D.per_index = {per_index}")
        print(f"{name}: ok (attempted {plain['attempted']}, traced {counts[0]['trace.ops']} ops)")

    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench(bare / "perfbench" / "run.py", "--workload", "derive_sweep",
                        "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert code != 0 and not any(line.startswith("{") for line in lines), (code, lines)
    print("without the program's sources: exit", code, "and no result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
