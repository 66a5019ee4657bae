"""The four benchmark workloads.

A workload generates its inputs from the seed (``inputs``), runs one
operation through hodgediv's public functions (``run``), timing only those
calls with the ``Clock`` it is handed, and checks the result exactly
against the closed forms in :mod:`oracles` (``check``).  hodgediv is
imported in ``setup`` only, so that its import counts in the set-up time.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import resource
from fractions import Fraction as Q
from itertools import combinations_with_replacement, cycle
from pathlib import Path
from time import process_time
from types import SimpleNamespace

import clilayer
import oracles
from oracles import render


class CheckFailed(Exception):
    pass


def expect(cond, what: str):
    if not cond:
        raise CheckFailed(what)


class Clock:
    """Accumulates the CPU time spent inside calls into hodgediv.  CPU time,
    because on a shared host the wall time of a call also counts the time
    the host takes the vCPU away; on an idle machine the two agree."""

    def __init__(self):
        self.elapsed = 0.0

    def __call__(self, fn, *args, **kwargs):
        t0 = process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            self.elapsed += process_time() - t0


class Workload:
    name = ""
    modules: tuple[str, ...] = ()
    # Ops of the fixed list a traced run measures, per second of --seconds.
    traced_ops_per_s = 0.0
    # Fresh processes that each run the whole op set in an untraced run
    # (1: the run's own process runs the ops once).
    rounds = 1
    # Which of those processes this is; it seeds the order of the op set.
    round = 0

    def __init__(self, root: Path, seed: int, seconds: int, scratch: Path):
        self.root, self.seed, self.seconds, self.scratch = root, seed, seconds, scratch
        self.rng = random.Random(f"{self.name}:{seed}")
        self.counters: dict[str, int] = {}

    def setup(self):
        self.m = SimpleNamespace(**{mod: importlib.import_module(f"hodgediv.{mod}")
                                    for mod in self.modules})

    def traced_ops(self) -> int:
        return max(3, round(self.traced_ops_per_s * self.seconds))

    def budget(self) -> float:
        """Seconds of measured op time after which a run stops."""
        return float(self.seconds)

    def peak_rss_kib(self) -> int:
        """Peak RSS of the process that ran the ops."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def op_key(self, index: int, inp):
        """What identifies an op across rounds."""
        return index

    def reset(self):
        """Forget what the warm-up op counted."""
        self.counters = dict.fromkeys(self.counters, 0)

    def inputs(self):
        raise NotImplementedError

    def warmup_input(self):
        """The first input of a fixed seed, so that every run's set-up does
        the same work."""
        rng, self.rng = self.rng, random.Random(f"{self.name}:warm-up")
        try:
            return next(iter(self.inputs()))
        finally:
            self.rng = rng

    def run(self, inp, clock: Clock):
        raise NotImplementedError

    def check(self, inp, result):
        raise NotImplementedError

    def corrupt(self, result):
        """A wrong result, for the self-test's injected fault."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# derive_sweep
# ---------------------------------------------------------------------------

def sweep_top(seconds: int) -> int:
    """Largest genus of the derive sweep.  The cost of one op grows about
    as g^2.3, so one sweep costs about top^3.3; when the benchmark was
    defined, one sweep up to 60 took 4-8 CPU seconds on a 2-vCPU Xeon VM."""
    return max(4, round(60 * (seconds / 10) ** (1 / 3.3)))


class DeriveSweep(Workload):
    """Each op derives D at one genus and round-trips that genus's catalog.
    The genera are a seeded permutation of 2..top; none repeats in a run."""

    name = "derive_sweep"
    modules = ("testcurves", "picard", "catalog", "exactq")
    rounds = 5

    def __init__(self, *args):
        super().__init__(*args)
        self.top = sweep_top(self.seconds)
        self.counters = {"catalog.bytes_written": 0}

    def budget(self):
        # The sweep is one fixed set of genera and is always run whole,
        # unless a program over three times slower than the one the
        # benchmark was defined on would make five rounds overrun 180 s.
        return 2.0 * self.seconds

    def traced_ops(self):
        return self.top - 1

    def op_key(self, index, g):
        return g

    def inputs(self):
        genera = list(range(2, self.top + 1))
        random.Random(f"{self.name}:{self.seed}:round{self.round}").shuffle(genera)
        return iter(genera)

    def warmup_input(self):
        return self.top + 1

    def run(self, g, clock):
        tc, cat = self.m.testcurves, self.m.catalog
        derived = clock(tc.derive_theorem_class, g)
        built = clock(cat.build_catalog, g)
        path = self.scratch / "derive_sweep_catalog.json"
        clock(cat.write_catalog, [g], path)
        self.counters["catalog.bytes_written"] += path.stat().st_size
        read = clock(cat.read_catalog, path)
        objs = clock(lambda: [(cat.record_to_class if rec["record"] == "class"
                               else cat.record_to_curve)(rec) for rec in read])
        return {"derived": derived, "built": built, "read": read, "objs": objs}

    def check(self, g, result):
        derived = result["derived"]
        expected = oracles.class_D(g)
        expect(derived.basis.symbols == oracles.phodge_symbols(g), f"basis of D at g={g}")
        expect(dict(zip(derived.basis.symbols, derived.coeffs)) == expected,
               f"derived D differs from the closed form at g={g}")
        read, built = result["read"], result["built"]
        expect(read == built, f"catalog read back differs from the one built at g={g}")
        half = g // 2 if g >= 3 else 0
        expect(len(read) == 6 + 4 * half + 1 + (half if g >= 3 else 1),
               f"catalog record count at g={g}")
        for rec, obj in zip(read, result["objs"]):
            expect(obj.basis.space_kind == rec["space"] and obj.basis.genus == rec["genus"],
                   f"basis of {rec['name']}")
            if rec["record"] == "class":
                coeffs = dict(zip(obj.basis.symbols, obj.coeffs))
                expect({s: render(v) for s, v in coeffs.items()} == rec["coefficients"],
                       f"class {rec['name']} does not round-trip")
                expect(coeffs == oracles.CATALOG_CLASSES[rec["name"]](g),
                       f"class {rec['name']} differs from the closed form")
            else:
                expect(obj.name == rec["name"], f"curve name {rec['name']}")
                vector = (None if obj.vector is None else
                          {s: render(v) for s, v in zip(obj.basis.symbols, obj.vector)})
                expect(vector == rec["vector"], f"curve {rec['name']} vector does not round-trip")
                expect({k: render(v) for k, v in obj.known_pairings.items()} == rec["known_pairings"],
                       f"curve {rec['name']} pairings do not round-trip")
                expect((obj.total_delta is None) == ("total_delta" not in rec)
                       and (obj.total_delta is None or render(obj.total_delta) == rec["total_delta"]),
                       f"curve {rec['name']} total_delta does not round-trip")

    def corrupt(self, result):
        d = result["derived"]
        return {**result, "derived": type(d)(d.basis, d.coeffs[:-1] + (d.coeffs[-1] + 1,))}


# ---------------------------------------------------------------------------
# certify_grid
# ---------------------------------------------------------------------------

def ample_problem(rng: random.Random, genera) -> dict:
    """A seeded certificate problem: stratum kind, genus and ample class
    a lambda + b eta + c (delta_0, or every delta_i when quadratic); cmax
    bounds c_area.  A negative c can make the threshold denominator
    non-positive at an endpoint; the oracle predicts when."""
    return {"kind": rng.choice(("abelian", "quadratic")), "g": rng.choice(genera),
            "a": Q(rng.randint(1, 12), rng.randint(1, 4)),
            "b": Q(rng.randint(1, 12), rng.randint(1, 4)),
            "c": Q(rng.randint(-4, 6), rng.randint(10, 40)),
            "cmax": Q(rng.randint(1, 12), rng.randint(1, 4))}


class CertifyGrid(Workload):
    """Each op is one certificate problem on a grid of a few hundred
    Teichmueller curves that includes both ends of the parameter interval."""

    name = "certify_grid"
    modules = ("extremality", "picard")
    genera = (3, 4, 5, 6, 7)
    traced_ops_per_s = 25.0

    def inputs(self):
        ext = self.m.extremality
        while True:
            p = ample_problem(self.rng, self.genera)
            hi = Q(p["g"]) if p["kind"] == "abelian" else p["cmax"]
            steps = self.rng.randint(50, 90)
            chis = sorted({Q(self.rng.randint(1, 60), self.rng.randint(1, 6))
                           for _ in range(self.rng.randint(3, 5))})
            p["grid"] = [(chi, hi * Q(j, steps)) for chi in chis for j in range(steps + 1)]
            if p["kind"] == "abelian":
                p["params"] = [ext.TeichParamsAbelian(chi, x, p["g"]) for chi, x in p["grid"]]
            else:
                p["params"] = [ext.TeichParamsQuadratic(chi, x) for chi, x in p["grid"]]
            yield p

    def run(self, p, clock):
        ext, pic = self.m.extremality, self.m.picard
        kind, g = p["kind"], p["g"]
        try:
            if kind == "abelian":
                d = clock(ext.threshold_abelian, p["a"], p["b"], p["c"], g)
            else:
                d = clock(ext.threshold_quadratic, p["a"], p["b"], p["c"], g, p["cmax"])
        except ext.NonPositiveDenominator as exc:
            return {"rejected": exc}
        part = clock(ext.double_zero_partition, kind, g)
        vec = ext.teich_vector_abelian if kind == "abelian" else ext.teich_vector_quadratic
        curves = clock(lambda: [vec(g, part, t) for t in p["params"]])
        stratum = clock(pic.class_stratum_abelian if kind == "abelian" else pic.class_stratum_quadratic, g)
        ample = clock(pic.DivisorClass.from_map, stratum.basis,
                      oracles.ample_coeffs(kind, g, p["a"], p["b"], p["c"]))
        return {"d": d, "curves": curves,
                "at_d": clock(ext.certificate_check, stratum, ample, d, curves),
                "at_2d": clock(ext.certificate_check, stratum, ample, 2 * d, curves)}

    def check(self, p, result):
        kind, g = p["kind"], p["g"]
        d = oracles.threshold(kind, g, p["a"], p["b"], p["c"], p["cmax"])
        if d is None:
            expect(isinstance(result.get("rejected"), self.m.extremality.NonPositiveDenominator),
                   "threshold accepted an ample class whose denominator is not positive")
            return
        expect("rejected" not in result, "threshold rejected a valid ample class")
        expect(result["d"] == d, f"threshold {result['d']} != {d}")
        stratum = oracles.stratum_abelian(g) if kind == "abelian" else oracles.stratum_quadratic(g)
        ample = oracles.ample_coeffs(kind, g, p["a"], p["b"], p["c"])
        at_d, at_2d = [], []
        for (chi, x), rec in zip(p["grid"], result["curves"]):
            expected = oracles.teich_vector(kind, g, chi, x)
            expect(rec.basis.symbols == oracles.phodge_symbols(g)
                   and dict(zip(rec.basis.symbols, rec.vector))
                   == {s: expected.get(s, Q(0)) for s in rec.basis.symbols}
                   and rec.total_delta == expected.get("total_delta"),
                   f"Teichmueller vector of {rec.name}")
            s_pair, a_pair = oracles.pair(expected, stratum), oracles.pair(expected, ample)
            expect(s_pair == oracles.stratum_pairing(kind, chi), f"stratum pairing of {rec.name}")
            at_d.append(s_pair + d * a_pair)
            if s_pair + 2 * d * a_pair > 0:
                at_2d.append((rec.name, s_pair + 2 * d * a_pair))
        expect(max(at_d) == 0, f"max C.(S+dA) is {max(at_d)}, not 0")
        expect(result["at_d"].passed and not result["at_d"].violations, "certificate fails at d")
        expect(not result["at_2d"].passed and list(result["at_2d"].violations) == at_2d,
               "certificate at 2d does not fail on exactly the expected curves")

    def corrupt(self, result):
        out = {k: v for k, v in result.items() if k != "rejected"}
        out["d"] = result.get("d", Q(0)) + 1
        return out


# ---------------------------------------------------------------------------
# intersection_kernels
# ---------------------------------------------------------------------------

# Dimensions (n_1, ..., n_k) of the Chow-ring products: k = 1..4 factors
# P^1..P^4, N = sum n_j = 7..11.  Equal dimensions give (P^n)^k.
CHOW_DIMS = tuple(d for k in range(1, 5) for d in combinations_with_replacement(range(4, 0, -1), k)
                  if 7 <= sum(d) <= 11)
PENCILS = (tuple(("P2", (d,)) for d in range(4, 9))
           + tuple(("P1xP1", (a, b)) for a in range(3, 6) for b in range(3, 7)))


class IntersectionKernels(Workload):
    """A fixed op set, run in rounds like the derive sweep: for each genus g
    of the sweep, two ops of each of four types, so the types are equally
    frequent.  The types are a Chow-ring power, computed directly or parsed
    from a string; a pencil family through the porteous invariants; and a
    dense exact solve of size g//2 + 3, the number of unknowns (one per
    basis symbol) of the system that deriving D at genus g poses.  The
    shapes (dimensions, pencils, sizes) cycle through fixed lists, so every
    seed has the same mix of them; the seed draws the coefficients, the
    matrices and the order."""

    name = "intersection_kernels"
    modules = ("chow", "chowexpr", "porteous", "picard", "exactq")
    rounds = 5
    per_genus = 2

    def traced_ops(self):
        return 4 * self.per_genus * (sweep_top(self.seconds) - 1)

    def op_set(self, rng) -> list[dict]:
        ops = []
        genera = [g for g in range(2, sweep_top(self.seconds) + 1) for _ in range(self.per_genus)]
        for i, g in enumerate(genera):
            for op in ("chow", "chowexpr"):
                dims = list(CHOW_DIMS[i % len(CHOW_DIMS)])
                rng.shuffle(dims)
                coeffs = tuple(rng.randint(1, 7) for _ in dims)
                names = "abcd"[:len(dims)]
                text = "(" + "+".join(f"{c}{n}" for c, n in zip(coeffs, names)) + f")^{sum(dims)}"
                ops.append({"op": op, "dims": tuple(dims), "coeffs": coeffs, "text": text})
            base, cls = PENCILS[i % len(PENCILS)]
            ops.append({"op": "pencil", "base": base, "cls": cls})
            n = g // 2 + 3
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            for j, row in enumerate(rows):
                # strictly diagonally dominant, hence nonsingular
                row[j] = rng.choice((-1, 1)) * (sum(abs(v) for v in row) + rng.randint(1, 9))
            x0 = tuple(Q(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(n))
            rhs = [sum(a * x for a, x in zip(row, x0)) for row in rows]
            ops.append({"op": "solve", "A": self.m.exactq.QMatrix.from_rows(rows),
                        "b": rhs, "x0": x0})
        for key, op in enumerate(ops):
            op["key"] = key
        return ops

    def op_key(self, index, inp):
        return inp["key"]

    def inputs(self):
        ops = self.op_set(self.rng)
        random.Random(f"{self.name}:{self.seed}:round{self.round}").shuffle(ops)
        return iter(ops)

    def warmup_input(self):
        """A pencil, which runs chow, porteous and picard."""
        return self.op_set(random.Random(f"{self.name}:warm-up"))[2]

    def run(self, inp, clock):
        chow, pic, por = self.m.chow, self.m.picard, self.m.porteous
        op = inp["op"]
        if op in ("chow", "chowexpr"):
            ring = clock(chow.MultiProjRing, inp["dims"])
            if op == "chow":
                elem = clock(pow, clock(chow.linear_class, ring, inp["coeffs"]), sum(inp["dims"]))
            else:
                elem = clock(self.m.chowexpr.evaluate, inp["text"], ring)
            return {"value": clock(chow.chow_integrate, elem), "ring": ring, "element": elem}
        if op == "pencil":
            fam = clock(chow.pencil_family, inp["base"], inp["cls"])
            inv = clock(por.family_invariants, fam)
            adjoint = clock(fam.pullback, oracles.adjoint_coeffs(inp["base"], inp["cls"]))
            b = clock(pic.basis, pic.PHODGE_ABELIAN, fam.genus)
            rec = clock(pic.CurveRecord.from_map, "B", b, {
                "eta": clock(por.eta_degree_from_family, fam, adjoint),
                "lambda": clock(por.lambda_degree, fam),
                "delta_0": clock(por.singular_fiber_count, fam)})
            return {"family": fam,
                    "paired": clock(pic.pair, rec, clock(pic.class_D, fam.genus)),
                    "value": clock(por.weierstrass_sweep_degree, inv, adjoint)}
        return {"value": clock(self.m.exactq.solve_exact, inp["A"], inp["b"])}

    def check(self, inp, result):
        op = inp["op"]
        if op in ("chow", "chowexpr"):
            expect(result["value"] == oracles.power_integral(inp["dims"], inp["coeffs"]),
                   f"integral of {inp['text']} on dims {inp['dims']}")
            if op == "chowexpr":
                direct = self.m.chow.linear_class(result["ring"], inp["coeffs"]) ** sum(inp["dims"])
                expect(result["element"] == direct, f"chowexpr {inp['text']} != direct arithmetic")
        elif op == "pencil":
            fam = result["family"]
            expect((fam.genus, fam.base_points)
                   == oracles.pencil_genus_and_base_points(inp["base"], inp["cls"]),
                   f"adjunction for {inp['base']} {inp['cls']}")
            expect(result["paired"] == result["value"],
                   f"B.D {result['paired']} != sweep degree {result['value']}")
        else:
            expect(tuple(result["value"]) == inp["x0"], "solve_exact(A, A x0) != x0")

    def corrupt(self, result):
        v = result["value"]
        return {**result, "value": (v[0] + 1,) + tuple(v[1:]) if isinstance(v, tuple) else v + 1}


# ---------------------------------------------------------------------------
# cli_oneshot
# ---------------------------------------------------------------------------

def command_family(args: list[str]) -> str:
    return "_".join(args[:2]) if args[0] in ("chow", "teich", "catalog") else args[0]


COMMAND_FAMILIES = ("derive", "verify", "chow_eval", "teich_pair", "threshold", "certify",
                    "catalog_list", "catalog_write")


class CliOneshot(Workload):
    """Each op is one ``python -m hodgediv.cli ...`` process, run to
    completion before the next starts.  Ops are the fixed README commands,
    checked byte for byte against the golden outputs, and seeded variants,
    checked by exit code, verdict and the oracles."""

    name = "cli_oneshot"
    modules = ("cli",)
    traced_ops_per_s = 8.0

    def __init__(self, *args):
        super().__init__(*args)
        self.golden = json.loads((Path(__file__).parent / "golden.json").read_text())
        self.env = clilayer.child_env(self.root)
        self.catalog = self.root / clilayer.GOLDEN_CATALOG
        self.peak_child_kib = 0
        self.family_latency: dict[str, list[float]] = {f: [] for f in COMMAND_FAMILIES}

    def warmup_input(self):
        return {"golden": self.golden[0]}

    def reset(self):
        super().reset()
        self.family_latency = {f: [] for f in COMMAND_FAMILIES}

    def peak_rss_kib(self):
        return self.peak_child_kib

    def inputs(self):
        """Blocks of fourteen ops in seeded order: one seeded variant of
        each command family but ``verify`` (whose examples are fixed), and
        the next seven README commands of a seeded cycle through the golden
        list.  Every seed thus runs the families in the same proportions."""
        golden = list(self.golden)
        self.rng.shuffle(golden)
        golden = cycle(golden)
        families = [f for f in COMMAND_FAMILIES if f != "verify"]
        while True:
            block = ([self.variant(f) for f in families]
                     + [{"golden": next(golden)} for _ in families])
            self.rng.shuffle(block)
            yield from block

    def variant(self, family: str) -> dict:
        rng = self.rng
        inp = {"family": family}
        if family == "derive":
            inp["g"] = rng.randint(2, 14)
            inp["args"] = ["derive", "--genus", str(inp["g"]), "--json"]
        elif family == "chow_eval":
            inp["dims"] = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
            inp["coeffs"] = tuple(rng.randint(1, 5) for _ in inp["dims"])
            text = ("(" + "+".join(f"{c}{n}" for c, n in zip(inp["coeffs"], "abc"))
                    + f")^{sum(inp['dims'])}")
            inp["args"] = ["chow", "eval", text, "--dims", ",".join(map(str, inp["dims"])), "--json"]
        elif family == "teich_pair":
            kind, g = rng.choice(("abelian", "quadratic")), rng.randint(3, 7)
            inp.update(kind=kind, g=g, chi=Q(rng.randint(1, 30), rng.randint(1, 4)),
                       param=Q(rng.randint(0, 4 * g), 4) if kind == "abelian"
                       else Q(rng.randint(0, 20), rng.randint(1, 5)))
            inp["args"] = ["teich", "pair", "--kind", kind, "--genus", str(g),
                           "--chi", render(inp["chi"]),
                           "--lyapunov" if kind == "abelian" else "--carea", render(inp["param"]),
                           "--json"]
        elif family in ("threshold", "certify"):
            p = ample_problem(rng, CertifyGrid.genera)
            inp.update(p)
            inp["d"] = oracles.threshold(p["kind"], p["g"], p["a"], p["b"], p["c"], p["cmax"])
            inp["doubled"] = family == "certify" and inp["d"] is not None and rng.random() < 0.3
            inp["args"] = [family, "--kind", p["kind"], "--genus", str(p["g"]),
                           "-a", render(p["a"]), "-b", render(p["b"]),
                           f"--c0={render(p['c'])}" if p["kind"] == "abelian" else f"--c={render(p['c'])}",
                           "--cmax", render(p["cmax"]), "--json"]
            if inp["doubled"]:
                inp["args"][-1:] = ["-d", render(2 * inp["d"]), "--json"]
        elif family == "catalog_list":
            inp["g"] = rng.randint(2, 10)
            inp["args"] = ["catalog", "list", "--genus", str(inp["g"]), "--json"]
        else:
            inp["genera"] = sorted(rng.sample(range(2, 9), rng.randint(1, 2)))
            inp["args"] = ["catalog", "write"] + [a for g in inp["genera"] for a in ("--genus", str(g))]
        return inp

    def run(self, inp, clock):
        args = inp["golden"]["args"] if "golden" in inp else inp["args"]
        if self.catalog.exists():
            self.catalog.unlink()
        child = clilayer.run_child(["-m", "hodgediv.cli", *args], self.root, self.env, self.scratch)
        clock.elapsed += child.cpu_s
        self.peak_child_kib = max(self.peak_child_kib, child.peak_kib)
        self.family_latency[command_family(args)].append(child.cpu_s)
        written = self.catalog.read_bytes() if self.catalog.exists() else None
        return {"code": child.code, "stdout": child.stdout, "stderr": child.stderr, "written": written}

    def check(self, inp, result):
        code, out = result["code"], result["stdout"]
        if "golden" in inp:
            gold = inp["golden"]
            expect(code == gold["exit"] and out == gold["stdout"],
                   f"output of {' '.join(gold['args'])} differs from the golden copy")
            if "catalog_sha256" in gold:
                expect(result["written"] is not None
                       and hashlib.sha256(result["written"]).hexdigest() == gold["catalog_sha256"],
                       "catalog file differs from the golden copy")
            return
        family = inp["family"]
        if family == "catalog_write":
            expect(code == 0 and out == f"wrote {clilayer.GOLDEN_CATALOG}\n", "catalog write output")
            expect(result["written"] is not None, "catalog write wrote no file")
            _check_catalog_classes(json.loads(result["written"]), inp["genera"])
            return
        if family in ("threshold", "certify") and inp["d"] is None:
            expect(code == 2 and "denominator" in result["stderr"],
                   "threshold accepted an ample class whose denominator is not positive")
            return
        expect(code == (1 if inp.get("doubled") else 0), f"exit code {code}: {result['stderr'][-300:]}")
        payload = json.loads(out)
        if family == "derive":
            expected = oracles.class_D(inp["g"])
            expect(payload["verdict"] == "match"
                   and {r["quantity"]: r["computed"] for r in payload["rows"]}
                   == {s: render(v) for s, v in expected.items()}, "derive rows")
        elif family == "chow_eval":
            expect(payload["integral"] == render(oracles.power_integral(inp["dims"], inp["coeffs"])),
                   "chow eval integral")
        elif family == "teich_pair":
            expected = oracles.teich_vector(inp["kind"], inp["g"], inp["chi"], inp["param"])
            vector = {s: v for s, v in payload["vector"].items() if v != "0"}
            expect(payload["pairing"] == render(oracles.stratum_pairing(inp["kind"], inp["chi"]))
                   and vector == {s: render(v) for s, v in expected.items() if v != 0},
                   "teich pair vector or stratum pairing")
        elif family == "threshold":
            expect(payload["d"] == render(inp["d"]), "threshold d")
        elif family == "certify":
            expect(payload["verdict"] == ("FAIL" if inp["doubled"] else "PASS")
                   and bool(payload["violations"]) == inp["doubled"], "certify verdict")
        else:
            _check_catalog_classes(payload, [inp["g"]])

    def corrupt(self, result):
        return {**result, "stdout": result["stdout"] + " ", "code": result["code"] + 1}


def _check_catalog_classes(records: list[dict], genera: list[int]):
    classes = [r for r in records if r["record"] == "class"]
    expect(len(classes) == 4 * len(genera), "catalog class count")
    for rec in classes:
        expected = oracles.CATALOG_CLASSES[rec["name"]](rec["genus"])
        expect(rec["genus"] in genera
               and rec["coefficients"] == {s: render(v) for s, v in expected.items()},
               f"catalog class {rec['name']} at g={rec['genus']}")


WORKLOADS = {w.name: w for w in (DeriveSweep, CertifyGrid, IntersectionKernels, CliOneshot)}
