"""Running ``python -m hodgediv.cli`` as a subprocess, and the CLI layer's
own probes: interpreter floor, import time, and ``-X importtime``.

A child's time is CPU time: its own (from ``wait4``) plus what starting and
reaping it cost the parent, so that time the shared host takes the vCPU
away does not count."""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import process_time

CHILD_TIMEOUT_S = 60
IMPORTTIME_MODULES = ("click", "hodgediv", "hodgediv.exactq", "hodgediv.picard",
                      "hodgediv.testcurves", "hodgediv.chow", "hodgediv.chowexpr",
                      "hodgediv.porteous", "hodgediv.extremality", "hodgediv.catalog",
                      "hodgediv.cli")
GOLDEN_CATALOG = ".perfbench_tmp/cli_catalog.json"


class ChildTimeout(Exception):
    pass


def child_env(root: Path, catalog: str = GOLDEN_CATALOG) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env["HODGEDIV_CATALOG"] = catalog
    return env


def _on_alarm(signum, frame):
    raise ChildTimeout(f"child did not exit within {CHILD_TIMEOUT_S} s")


@dataclass
class Child:
    cpu_s: float    # CPU time of the child plus what starting and reaping it cost here
    code: int
    stdout: str
    stderr: str
    peak_kib: int   # the child's own ru_maxrss


def run_child(argv: list[str], root: Path, env: dict, scratch: Path) -> Child:
    """Run one child from the checkout root.  Its output goes to files so
    that it can be reaped with ``wait4``, which gives its own rusage."""
    out, err = scratch / f"child-of-{os.getpid()}.out", scratch / f"child-of-{os.getpid()}.err"
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t0 = process_time()
        proc = subprocess.Popen([sys.executable, *argv], stdout=fo, stderr=fe, cwd=root, env=env)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        cpu_s = process_time() - t0 + usage.ru_utime + usage.ru_stime
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(cpu_s, proc.returncode, out.read_text(), err.read_text(), usage.ru_maxrss)


def _median_ms(argv, root, env, scratch, repeats):
    return statistics.median(run_child(argv, root, env, scratch).cpu_s for _ in range(repeats)) * 1e3


def import_probes(root: Path, scratch: Path, repeats: int = 5) -> dict[str, float]:
    """The CLI layer's start-up costs, each the median of ``repeats`` runs."""
    env = child_env(root)
    floor = _median_ms(["-c", "pass"], root, env, scratch, repeats)
    with_cli = _median_ms(["-c", "import hodgediv.cli"], root, env, scratch, repeats)
    samples = {m: [] for m in IMPORTTIME_MODULES}
    for _ in range(repeats):
        child = run_child(["-X", "importtime", "-c", "import hodgediv.cli"], root, env, scratch)
        if child.code != 0:
            raise RuntimeError(f"import hodgediv.cli failed: {child.stderr}")
        own = dict.fromkeys(IMPORTTIME_MODULES, 0)
        for line in child.stderr.splitlines():
            # "import time:       self [us] |  cumulative | imported package"
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            name = parts[2].strip()
            try:
                self_us = int(parts[0].split(":")[1])
            except ValueError:
                continue  # the header line
            if name == "click" or name.startswith("click."):
                own["click"] += self_us  # click counts with its submodules
            elif name in own:
                own[name] += self_us
        for m in IMPORTTIME_MODULES:
            samples[m].append(own[m])
    metrics = {"cli.interpreter_floor_ms": (floor, "ms"),
               "cli.import_ms": (with_cli - floor, "ms")}
    for m in IMPORTTIME_MODULES:
        metrics[f"cli.import.{m}.self_us"] = (float(statistics.median(samples[m])), "us")
    return metrics
