"""hodgediv benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  With ``--trace 0`` the run prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run (see
README.md next to this file).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Scratch
files go to ``.perfbench_tmp/`` and result files to ``.perfbench_out/`` at
the checkout root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import traceback
from contextlib import nullcontext
from fractions import Fraction
from itertools import islice
from pathlib import Path
from time import perf_counter, process_time

import clilayer
from tracing import Tracer
from workloads import COMMAND_FAMILIES, WORKLOADS, Clock

ROOT = Path(__file__).resolve().parent.parent
CPUS = sorted(os.sched_getaffinity(0))
SETUP_SAMPLES = 7
PROBE_EVERY_S = 0.02
# Op and set-up times are scaled to a CPU on which speed_probe() takes this
# long; on the 2-vCPU VM the benchmark was built on it took 110-230 us.
REFERENCE_PROBE_S = 200e-6


def tail(values: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank), and that percentile; the maximum when there are too few
    samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    p = math.floor(100 * (n - 10) / n)
    return ordered[math.ceil(p * n / 100) - 1], p


def environment() -> dict:
    rev = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        rev = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if ref_file.is_file():
                rev = ref_file.read_text().strip()
            elif packed.is_file():
                rev = next((line.split()[0] for line in packed.read_text().splitlines()
                            if line.endswith(" " + ref[5:])), ref)
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_rev": rev, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": cpu}


def speed_probe() -> float:
    """CPU seconds a fixed pure-Python Fraction loop takes (best of four,
    so that caches a child process evicted are warm again): the momentary
    speed of the CPU this process runs on, measured without hodgediv."""
    best = math.inf
    for _ in range(4):
        t0 = process_time()
        total = Fraction(0)
        for i in range(1, 60):
            total += Fraction(1, i)
        best = min(best, process_time() - t0)
    return best


def fastest_cpu() -> float:
    """Pin this process to the CPU whose speed probe is fastest now, and
    return that probe time.  Children started later inherit the pin."""
    best_cpu, best = None, math.inf
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        probe = speed_probe()
        if probe < best:
            best_cpu, best = cpu, probe
    os.sched_setaffinity(0, {best_cpu})
    return best


def set_up(wl) -> tuple[float, list[str]]:
    """Import the workload's modules and run one warm-up op.  Returns the
    CPU seconds of the import and of the op's calls into hodgediv, scaled
    by the speed probes before and after, and the warm-up's failures."""
    before = fastest_cpu()
    t0 = process_time()
    wl.setup()
    clock = Clock()
    clock.elapsed = process_time() - t0
    inp = wl.warmup_input()
    failures = []
    try:
        result = wl.run(inp, clock)
        wl.check(inp, result)
    except Exception as exc:  # a broken program is reported, not fatal
        failures.append(f"warm-up: {type(exc).__name__}: {exc}")
    wl.reset()
    return clock.elapsed * REFERENCE_PROBE_S / ((before + speed_probe()) / 2), failures


def measure(wl, inputs, budget: float, tracer: Tracer | None = None,
            inject_at: int | None = None) -> dict:
    """Closed loop, one caller: run, then check, each op in turn until the
    inputs end or ``budget`` seconds of op time are spent.

    Between ops, at most every PROBE_EVERY_S, the loop probes the speed of
    the CPU the last ops ran on and moves to the fastest CPU.  Each op
    records the mean of the probes before and after it.  Garbage is
    collected only when Python's collector decides to, as in real use."""
    ops, failures, pending = [], [], []
    spent, probe, probed_at = 0.0, 0.0, -math.inf
    quiet = tracer.suspended if tracer else nullcontext
    inputs = iter(inputs)
    while spent < budget:
        with quiet():
            inp = next(inputs, None)
        if inp is None:
            break
        if perf_counter() - probed_at >= PROBE_EVERY_S:
            close_probes(pending)
            probe, probed_at = fastest_cpu(), perf_counter()
        index, clock, ok = len(ops), Clock(), True
        try:
            with tracer.op() if tracer else nullcontext():
                result = wl.run(inp, clock)
            if index == inject_at:
                result = wl.corrupt(result)
            with quiet():
                wl.check(inp, result)
        except Exception as exc:  # every failed op is counted, none is fatal
            ok = False
            failures.append(f"op {index}: {type(exc).__name__}: {exc}")
        ops.append({"key": wl.op_key(index, inp), "latency": clock.elapsed,
                    "probe": probe, "ok": ok})
        pending.append(ops[-1])
        spent += clock.elapsed
    close_probes(pending)
    return {"ops": ops, "failures": failures}


def close_probes(pending: list[dict]):
    """Give the ops run since the last probe the mean of the probes before
    and after them."""
    after = speed_probe()
    for o in pending:
        o["probe"] = (o["probe"] + after) / 2
    pending.clear()


def scaled_latencies(wl, ops: list[dict]) -> tuple[list[float], list[bool]]:
    """The latencies the end-to-end metrics are computed from, with their
    ok flags.

    On the shared 2-vCPU VM the benchmark was built on, the speed of a vCPU
    changes by up to 1.8x, from one op to the next or for minutes at a
    time, as other tenants load the machine, and op times follow the speed
    probe.  Every op time is therefore scaled to a CPU of the reference
    speed, by REFERENCE_PROBE_S over the op's probe time.  The probe touches
    no hodgediv code, so a change to the program moves the scaled times as
    it moves the raw ones.  A workload run in rounds takes, per op, the
    least of its wl.rounds scaled samples: the scaled samples of one op are
    still bimodal, and the least of five falls in the lower mode."""
    def scaled(o):
        return o["latency"] * REFERENCE_PROBE_S / o["probe"]

    if wl.rounds == 1:
        return [scaled(o) for o in ops], [o["ok"] for o in ops]
    by_key: dict = {}
    for o in ops:
        by_key.setdefault(o["key"], []).append(o)
    return ([min(map(scaled, samples)) for samples in by_key.values()],
            [all(o["ok"] for o in samples) for samples in by_key.values()])


def end_to_end(wl, ops: list[dict], setups: list[float], peak_kib: int):
    lat, oks = scaled_latencies(wl, ops)
    tail_s, pct = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (sum(oks) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
    }
    raw = [o["latency"] for o in ops]
    notes = {"tail_percentile": pct, "samples": len(lat), "ops_run": len(ops),
             "median_probe_us": statistics.median(o["probe"] for o in ops) * 1e6,
             "setup_samples": setups,
             "unscaled": {"ops_per_s": sum(o["ok"] for o in ops) / sum(raw),
                          "op_p50_ms": statistics.median(raw) * 1e3}}
    return metrics, notes


def child(args: list[str], scratch: Path) -> tuple[dict, int]:
    """Run this script in a fresh interpreter, free to use every CPU; return
    its last output line, parsed, and its peak RSS in KiB."""
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, CPUS)
    try:
        res = clilayer.run_child([str(Path(__file__)), *args], ROOT, dict(os.environ), scratch)
    finally:
        os.sched_setaffinity(0, pinned)
    lines = res.stdout.strip().splitlines()
    if res.code != 0 or not lines:
        raise RuntimeError(f"child {args} failed ({res.code}): {res.stderr[-2000:]}")
    return json.loads(lines[-1]), res.peak_kib


def untraced_run(wl, args, setup_s: float, scratch: Path):
    """Set-up samples are spread over the run: one per round, or one after
    each of SETUP_SAMPLES - 1 equal parts of an in-process run."""
    common = ["--workload", wl.name, "--seed", str(args.seed), "--seconds", str(args.seconds)]

    def setup_sample():
        return child(common + ["--setup-only"], scratch)[0]["setup_s"]

    setups, attempted, ops, failures = [setup_s], 0, [], []
    if wl.rounds > 1:
        # Every round runs the whole op set in a fresh process, so the
        # number of samples per op is the same on every commit.
        peak_kib = 0
        for r in range(wl.rounds):
            extra = ["--round", str(r)]
            if r == 0 and args.inject_fault is not None:
                extra += ["--inject-fault", str(args.inject_fault)]
            res, kib = child(common + extra, scratch)
            ops += res["ops"]
            failures += [f"round {r} {f}" for f in res["failures"]]
            setups.append(res["setup_s"])
            attempted += 1  # the round's warm-up op
            peak_kib = max(peak_kib, kib)
    else:
        inputs = wl.inputs()
        for part in range(SETUP_SAMPLES - 1):
            run = measure(wl, inputs, wl.budget() / (SETUP_SAMPLES - 1),
                          inject_at=args.inject_fault if part == 0 else None)
            ops += run["ops"]
            failures += run["failures"]
            setups.append(setup_sample())
        peak_kib = wl.peak_rss_kib()
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample())
    metrics, notes = end_to_end(wl, ops, setups, peak_kib)
    return len(ops) + attempted, failures, metrics, notes


def layer_metrics(wl, summary: dict, tracer: Tracer) -> tuple[dict, set[str]]:
    """The per-layer metrics of a traced run, and the names of the
    functions they read."""
    fns, named = summary["functions"], set()

    def calls(*names):
        named.update(names)
        return sum(fns.get(n, {}).get("calls", 0) for n in names)

    def self_ms(*names):
        named.update(names)
        return sum(fns.get(n, {}).get("self_ms", 0.0) for n in names)

    def layer_self(layer):
        return sum((v["self_ms"] for n, v in fns.items() if n.startswith(layer + ".")), 0.0)

    from_map = ("picard.DivisorClass.from_map", "picard.CurveRecord.from_map")
    record_to = ("catalog.record_to_class", "catalog.record_to_curve")
    per_index = (summary["rhs_C_dot_D_under_derive"] / tracer.derived_indices
                 if tracer.derived_indices else 0.0)
    count, ms = "count", "ms"
    metrics = {
        "exactq.solve_exact.calls": (calls("exactq.solve_exact"), count),
        "exactq.solve_exact.self_ms": (self_ms("exactq.solve_exact"), ms),
        "picard.self_ms": (layer_self("picard"), ms),
        "picard.basis.calls": (calls("picard.basis"), count),
        "picard.class_W.calls": (calls("picard.class_W"), count),
        "picard.class_D.calls": (calls("picard.class_D"), count),
        "picard.pair.calls": (calls("picard.pair"), count),
        "picard.pair.self_ms": (self_ms("picard.pair"), ms),
        "picard.from_map.calls": (calls(*from_map), count),
        "picard.from_map.self_ms": (self_ms(*from_map), ms),
        "testcurves.self_ms": (layer_self("testcurves"), ms),
        "testcurves.derive_theorem_class.self_ms": (self_ms("testcurves.derive_theorem_class"), ms),
        "testcurves.rhs_C_dot_D.calls": (calls("testcurves.rhs_C_dot_D"), count),
        "testcurves.curves_B1_B2_B3.calls": (calls("testcurves.curves_B1_B2_B3"), count),
        "testcurves.rhs_C_dot_D.per_index": (per_index, "ratio"),
        "chow.self_ms": (layer_self("chow"), ms),
        "chow.mul.calls": (calls("chow.ChowElement.__mul__"), count),
        "chow.term_products": (tracer.term_products, count),
        "chow.pencil_family.self_ms": (self_ms("chow.pencil_family"), ms),
        "chow.lattice_intersect.calls": (calls("chow.lattice_intersect"), count),
        "chow.lattice_intersect.self_ms": (self_ms("chow.lattice_intersect"), ms),
        "chowexpr.evaluate.self_ms": (self_ms("chowexpr.evaluate"), ms),
        "porteous.self_ms": (layer_self("porteous"), ms),
        "porteous.weierstrass_sweep_degree.calls": (calls("porteous.weierstrass_sweep_degree"), count),
        "extremality.self_ms": (layer_self("extremality"), ms),
        "extremality.teich_vector.calls": (
            calls("extremality.teich_vector_abelian", "extremality.teich_vector_quadratic"), count),
        "extremality.kappa_mu.calls": (calls("extremality.kappa_mu"), count),
        "extremality.certificate_check.self_ms": (self_ms("extremality.certificate_check"), ms),
        "extremality.curves_checked": (tracer.curves_checked, count),
        "catalog.build_catalog.self_ms": (self_ms("catalog.build_catalog"), ms),
        "catalog.write_catalog.self_ms": (self_ms("catalog.write_catalog"), ms),
        "catalog.read_catalog.self_ms": (self_ms("catalog.read_catalog"), ms),
        "catalog.record_to.self_ms": (self_ms(*record_to), ms),
        "catalog.bytes_written": (wl.counters.get("catalog.bytes_written", 0), "bytes"),
    }
    return metrics, named


def unwrapped(named: set[str], tracer: Tracer) -> list[str]:
    """The functions a metric reads that the tracer did not wrap although
    their module is loaded: their metrics would read 0 however often they
    ran."""
    return sorted(n for n in named if f"hodgediv.{n.split('.')[0]}" in sys.modules
                  and n not in tracer.wrapped)


# Exact counts of a traced run: they repeat exactly for a given workload,
# seed and --seconds, and change only when the program does other work.
TRIPWIRES = ("exactq.solve_exact.calls", "picard.basis.calls", "picard.class_W.calls",
             "picard.class_D.calls", "picard.pair.calls", "picard.from_map.calls",
             "testcurves.rhs_C_dot_D.calls", "testcurves.curves_B1_B2_B3.calls",
             "testcurves.rhs_C_dot_D.per_index", "chow.mul.calls", "chow.term_products",
             "chow.lattice_intersect.calls", "porteous.weierstrass_sweep_degree.calls",
             "extremality.teich_vector.calls", "extremality.kappa_mu.calls",
             "extremality.curves_checked", "catalog.bytes_written", "trace.ops")


def traced_run(wl, args, scratch: Path, out_dir: Path):
    """Per-layer metrics over a fixed op list, traced, with an untraced
    pass over the same list in a fresh process for the overhead ratio."""
    n_ops = args.fixed_ops or wl.traced_ops()
    reference, _ = child(["--workload", wl.name, "--seed", str(args.seed), "--seconds",
                          str(args.seconds), "--fixed-ops", str(n_ops)], scratch)
    tracer = Tracer()
    tracer.install()
    try:
        run = measure(wl, islice(wl.inputs(), n_ops), math.inf, tracer, args.inject_fault)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    metrics, named = layer_metrics(wl, summary, tracer)
    metrics.update(clilayer.import_probes(ROOT, scratch))
    for family in COMMAND_FAMILIES:
        samples = getattr(wl, "family_latency", {}).get(family)
        metrics[f"cli.{family}.p50_ms"] = (statistics.median(samples) * 1e3 if samples else 0.0, "ms")
    traced_rate = scaled_rate(run["ops"])
    metrics["trace.overhead_ratio"] = (reference["metrics"]["ops_per_s"]["value"] / traced_rate, "ratio")
    metrics["trace.ops"] = (len(run["ops"]), "count")
    tracer.dump(out_dir / f"spans-{wl.name}-seed{args.seed}.bin")
    notes = {"functions": summary["functions"], "spans": summary["spans"],
             "untraced_ops_per_s": reference["metrics"]["ops_per_s"]["value"],
             "traced_ops_per_s": traced_rate, "unwrapped": unwrapped(named, tracer)}
    recorded = json.loads((Path(__file__).parent / "tripwires.json").read_text()).get(wl.name)
    if recorded and recorded["seed"] == args.seed and recorded["seconds"] == args.seconds:
        diff = {k: [metrics[k][0], v] for k, v in recorded["counts"].items() if metrics[k][0] != v}
        notes["tripwires"] = diff or "match"
    return len(run["ops"]), run["failures"], metrics, notes


def scaled_rate(ops: list[dict]) -> float:
    """Checked ops per second of scaled op time, over every op run."""
    return sum(o["ok"] for o in ops) / sum(o["latency"] * REFERENCE_PROBE_S / o["probe"] for o in ops)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal modes, each run in a child process: a set-up sample; one
    # round of a workload measured in rounds; a fixed op list (the untraced
    # reference of a traced run).  --inject-fault corrupts the result of
    # the op with that index, for the self-test.
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--round", type=int, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--fixed-ops", type=int, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--inject-fault", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hodgediv" / "__init__.py").is_file():
        print(f"perfbench: no hodgediv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    scratch, out_dir = ROOT / ".perfbench_tmp", ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    out_dir.mkdir(exist_ok=True)

    wl = WORKLOADS[args.workload](ROOT, args.seed, args.seconds, scratch)
    setup_s, failures = set_up(wl)
    import hodgediv
    if Path(hodgediv.__file__).resolve().parent != ROOT / "src" / "hodgediv":
        print(f"perfbench: imported hodgediv from {hodgediv.__file__}, not from {ROOT}/src",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.round is not None:
        wl.round = args.round
        run = measure(wl, wl.inputs(), wl.budget(), inject_at=args.inject_fault)
        print(json.dumps({"setup_s": setup_s, "ops": run["ops"],
                          "failures": failures + run["failures"]}))
        return 0
    if args.fixed_ops is not None and not args.trace:
        run = measure(wl, islice(wl.inputs(), args.fixed_ops), math.inf)
        print(json.dumps({"metrics": {"ops_per_s": {"value": scaled_rate(run["ops"]), "unit": "1/s"}}}))
        return 0

    if args.trace:
        ran, run_failures, metrics, notes = traced_run(wl, args, scratch, out_dir)
    else:
        ran, run_failures, metrics, notes = untraced_run(wl, args, setup_s, scratch)
    failures += run_failures
    result = {"correct": not failures, "attempted": ran + 1, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **environment(), **result, "failures": failures, **notes}
    (out_dir / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:>14.6g} {unit}")
    if "tail_percentile" in notes:
        print(f"op_tail_ms is p{notes['tail_percentile']} of {notes['samples']} op times "
              f"({notes['ops_run']} ops run); median probe {notes['median_probe_us']:.4g} us; "
              f"unscaled ops_per_s {notes['unscaled']['ops_per_s']:.4g}, "
              f"op_p50_ms {notes['unscaled']['op_p50_ms']:.4g}")
    if notes.get("unwrapped"):
        print(f"WARNING: the tracer did not wrap {notes['unwrapped']}; their metrics read 0")
    if "tripwires" in notes:
        print(f"tripwires against tripwires.json: {notes['tripwires']}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
