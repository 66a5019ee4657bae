"""Command-line front end.

Every command prints either a human-readable table or, with ``--json``, a
deterministic JSON report.  Exit codes: 0 when every checked quantity
matches, 1 on any mismatch, 2 on usage or input errors and on a catalog
file that cannot be written.  All rationals are
rendered exactly as ``p/q``; nothing is ever printed in decimal.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction as Q

import click

from . import catalog as catalog_mod
from . import chow, chowexpr, extremality, picard, porteous, testcurves
from .exactq import format_rational, parse_rational


@dataclass
class Report:
    command: str
    inputs: dict
    rows: list[tuple[str, str, str, bool]] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def add(self, quantity: str, expected, computed):
        exp = expected if isinstance(expected, str) else format_rational(expected)
        comp = computed if isinstance(computed, str) else format_rational(computed)
        self.rows.append((quantity, exp, comp, exp == comp))

    @property
    def verdict(self) -> str:
        return "match" if all(ok for *_, ok in self.rows) else "mismatch"

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "rows": [
                {"quantity": q, "expected": e, "computed": c, "match": ok}
                for q, e, c, ok in self.rows
            ],
            "verdict": self.verdict,
        }
        payload.update(self.extra)
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_table(self) -> str:
        lines = [f"# {self.command}"]
        if self.rows:
            widths = [max(len(str(row[i])) for row in self.rows + [("quantity", "expected", "computed", "")])
                      for i in range(3)]
            header = f"{'quantity':<{widths[0]}}  {'expected':<{widths[1]}}  {'computed':<{widths[2]}}  match"
            lines.append(header)
            lines.append("-" * len(header))
            for q, e, c, ok in self.rows:
                lines.append(f"{q:<{widths[0]}}  {e:<{widths[1]}}  {c:<{widths[2]}}  {'yes' if ok else 'NO'}")
        for key, value in self.extra.items():
            lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


def _emit(report: Report, as_json: bool):
    click.echo(report.to_json() if as_json else report.to_table())
    if report.verdict != "match":
        sys.exit(1)


def _genus_option(f):
    return click.option("--genus", type=int, required=True)(f)


def _check_genus(g: int):
    if g < 2:
        raise click.UsageError("genus must be >= 2")


@click.group()
def main():
    """Exact intersection-theory computations for divisor classes on
    projectivized bundles of differentials."""


@main.command("derive")
@_genus_option
@click.option("--json", "as_json", is_flag=True)
def cmd_derive(genus: int, as_json: bool):
    """Re-derive the Weierstrass-zero divisor class from test curves and
    compare it to the closed form."""
    _check_genus(genus)
    derived = testcurves.derive_theorem_class(genus)
    closed = picard.class_D(genus)
    report = Report("derive", {"genus": genus})
    for sym in closed.basis.symbols:
        report.add(sym, closed.coefficient(sym), derived.coefficient(sym))
    report.extra["derived_class"] = str(derived)
    _emit(report, as_json)


def _quartic_report() -> Report:
    fam = chow.pencil_family("P2", 4)
    inv = porteous.family_invariants(fam)
    h = fam.pullback([1])
    report = Report("verify", {"example": "quartic-pencil"})
    report.add("fiber genus", 3, Q(fam.genus))
    report.add("base points", 16, Q(fam.base_points))
    report.add("deg eta", 1, porteous.eta_degree_from_family(fam, h))
    report.add("B.kappa", 9, porteous.kappa_degree(fam))
    report.add("B.delta_0", 27, porteous.singular_fiber_count(fam))
    report.add("B.lambda", 3, porteous.lambda_degree(fam))
    b = picard.basis(picard.PHODGE_ABELIAN, 3)
    rec = picard.CurveRecord.from_map("B", b, {
        "eta": porteous.eta_degree_from_family(fam, h),
        "lambda": porteous.lambda_degree(fam),
        "delta_0": porteous.singular_fiber_count(fam),
    })
    report.add("B.D (class pairing)", 18, picard.pair(rec, picard.class_D(3)))
    report.add("B.D (degeneracy sweep)", 18, porteous.weierstrass_sweep_degree(inv, h))
    report.add("B.D (6d-6 at d=4)", 18, Q(6 * 4 - 6))
    return report


def _genus4_report() -> Report:
    fam = chow.pencil_family("P1xP1", (3, 3))
    inv = porteous.family_invariants(fam)
    section = fam.pullback([1, 1])  # hyperplane of the quadric, pulled back
    report = Report("verify", {"example": "genus4-quadric"})
    report.add("fiber genus", 4, Q(fam.genus))
    report.add("base points", 18, Q(fam.base_points))
    report.add("B.eta", 1, porteous.eta_degree_from_family(fam, section))
    report.add("B.kappa (lattice)", 14, porteous.kappa_degree(fam))
    ring = chow.MultiProjRing((1, 3))
    alpha, beta = ring.generators()
    omega = alpha + beta            # relative dualizing class on the surface
    surface = (2 * beta) * (alpha + 3 * beta)
    report.add("B.kappa (Chow ring)", 14, chow.chow_integrate(omega * omega * surface))
    report.add("B.delta_0", 34, porteous.singular_fiber_count(fam))
    report.add("B.lambda", 4, porteous.lambda_degree(fam))
    b = picard.basis(picard.PHODGE_ABELIAN, 4)
    rec = picard.CurveRecord.from_map("B", b, {
        "eta": porteous.eta_degree_from_family(fam, section),
        "lambda": porteous.lambda_degree(fam),
        "delta_0": porteous.singular_fiber_count(fam),
    })
    report.add("B.D (class pairing)", 56, picard.pair(rec, picard.class_D(4)))
    report.add("B.D (degeneracy sweep)", 56, porteous.weierstrass_sweep_degree(inv, section))
    sweep = 10 * omega - 4 * alpha
    report.add("B.D (Chow ring)", 56, chow.chow_integrate(sweep * beta * surface))
    return report


def _genus2_report() -> Report:
    residual = picard.substitute_relation(
        picard.class_D(2) - picard.class_stratum_abelian(2),
        "lambda", picard.genus2_lambda_relation())
    report = Report("verify", {"example": "genus2-relation"})
    report.add("residual after lambda elimination", "0", str(residual))
    return report


_EXAMPLES = {
    "quartic-pencil": _quartic_report,
    "genus4-quadric": _genus4_report,
    "genus2-relation": _genus2_report,
}


@main.command("verify")
@click.option("--example", "example_id", required=True,
              type=click.Choice(sorted(_EXAMPLES)))
@click.option("--json", "as_json", is_flag=True)
def cmd_verify(example_id: str, as_json: bool):
    """Recompute every quantity of a worked example and compare."""
    _emit(_EXAMPLES[example_id](), as_json)


@main.group("catalog")
def cmd_catalog():
    """Read and regenerate the class/curve catalog data file."""


@cmd_catalog.command("list")
@_genus_option
@click.option("--json", "as_json", is_flag=True)
def cmd_catalog_list(genus: int, as_json: bool):
    _check_genus(genus)
    records = catalog_mod.build_catalog(genus)
    if as_json:
        click.echo(catalog_mod.dumps(records))
        return
    for rec in records:
        data = rec["coefficients"] if rec["record"] == "class" else rec["vector"]
        body = ", ".join(f"{k}={v}" for k, v in data.items() if v != "0") if data else "(no vector)"
        click.echo(f"[{rec['record']}] {rec['name']}: {body}  -- {rec['note']}")


@cmd_catalog.command("write")
@click.option("--genus", "genera", type=int, multiple=True, required=True)
def cmd_catalog_write(genera):
    for g in genera:
        _check_genus(g)
    try:
        path = catalog_mod.write_catalog(list(genera))
    except OSError as exc:
        click.echo(f"Error: cannot write catalog {exc.filename}: {exc.strerror}", err=True)
        sys.exit(2)
    click.echo(f"wrote {path}")


@main.group("chow")
def cmd_chow():
    """Chow-ring arithmetic in products of projective spaces."""


@cmd_chow.command("eval")
@click.argument("expression")
@click.option("--dims", required=True,
              help="comma-separated factor dimensions, e.g. 1,3")
@click.option("--json", "as_json", is_flag=True)
def cmd_chow_eval(expression: str, dims: str, as_json: bool):
    """Integrate a product expression; generators are a, b, c, ... per factor."""
    try:
        dim_list = tuple(int(d) for d in dims.split(","))
    except ValueError:
        raise click.UsageError(f"--dims must be comma-separated positive integers, got {dims!r}")
    try:
        ring = chow.MultiProjRing(dim_list)
        value = chow.chow_integrate(chowexpr.evaluate(expression, ring))
    except (ValueError, chowexpr.ExpressionError) as exc:
        raise click.UsageError(str(exc))
    if as_json:
        click.echo(json.dumps({
            "command": "chow eval", "expression": expression,
            "dims": list(dim_list), "integral": format_rational(value),
        }, indent=2, sort_keys=True))
    else:
        click.echo(format_rational(value))


def _parse_q(value: str, label: str) -> Q:
    try:
        return parse_rational(value)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"{label} must be a rational p/q, got {value!r}")


@main.group("teich")
def cmd_teich():
    """Teichmueller-curve intersection vectors."""


@cmd_teich.command("pair")
@click.option("--kind", type=click.Choice(["abelian", "quadratic"]), required=True)
@_genus_option
@click.option("--chi", required=True)
@click.option("--lyapunov", default=None, help="Lyapunov-exponent sum (abelian)")
@click.option("--carea", default=None, help="area Siegel-Veech constant (quadratic)")
@click.option("--json", "as_json", is_flag=True)
def cmd_teich_pair(kind, genus, chi, lyapunov, carea, as_json):
    """Print the intersection vector and the double-zero stratum pairing."""
    _check_genus(genus)
    chi_q = _parse_q(chi, "--chi")
    part = extremality.double_zero_partition(kind, genus)
    try:
        if kind == "abelian":
            if lyapunov is None:
                raise click.UsageError("--lyapunov is required for kind=abelian")
            params = extremality.TeichParamsAbelian(chi_q, _parse_q(lyapunov, "--lyapunov"), genus)
            rec = extremality.teich_vector_abelian(genus, part, params)
            stratum = picard.class_stratum_abelian(genus)
        else:
            if carea is None:
                raise click.UsageError("--carea is required for kind=quadratic")
            params = extremality.TeichParamsQuadratic(chi_q, _parse_q(carea, "--carea"))
            rec = extremality.teich_vector_quadratic(genus, part, params)
            stratum = picard.class_stratum_quadratic(genus)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    pairing = picard.pair(rec, stratum)
    vector = {s: format_rational(v) for s, v in zip(rec.basis.symbols, rec.vector)}
    if rec.total_delta is not None:
        vector["total_delta"] = format_rational(rec.total_delta)
    payload = {
        "inputs": {"kind": kind, "genus": genus, "chi": format_rational(chi_q),
                   **({"lyapunov": lyapunov} if kind == "abelian" else {"carea": carea})},
        "vector": vector,
        "pairing": format_rational(pairing),
        "verdict": "ok",
    }
    if as_json:
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for sym, val in vector.items():
            click.echo(f"{sym} = {val}")
        click.echo(f"stratum pairing = {format_rational(pairing)}")


@main.command("threshold")
@click.option("--kind", type=click.Choice(["abelian", "quadratic"]), required=True)
@_genus_option
@click.option("-a", "a", required=True)
@click.option("-b", "b", required=True)
@click.option("--c0", default="0", help="delta_0 coefficient (abelian)")
@click.option("--c", default="0", help="uniform boundary coefficient (quadratic)")
@click.option("--cmax", default="1", help="upper bound on c_area (quadratic)")
@click.option("--json", "as_json", is_flag=True)
def cmd_threshold(kind, genus, a, b, c0, c, cmax, as_json):
    """Negativity threshold d for an ample class a*lambda + b*eta + ..."""
    _check_genus(genus)
    aq, bq = _parse_q(a, "-a"), _parse_q(b, "-b")
    try:
        if kind == "abelian":
            d = extremality.threshold_abelian(aq, bq, _parse_q(c0, "--c0"), genus)
        else:
            d = extremality.threshold_quadratic(aq, bq, _parse_q(c, "--c"), genus,
                                                _parse_q(cmax, "--cmax"))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if as_json:
        click.echo(json.dumps({
            "command": "threshold",
            "inputs": {"kind": kind, "genus": genus, "a": a, "b": b,
                       "c0": c0, "c": c, "cmax": cmax},
            "d": format_rational(d), "verdict": "ok",
        }, indent=2, sort_keys=True))
    else:
        click.echo(format_rational(d))


def _sample_grid(kind: str, genus: int, cmax: Q):
    part = extremality.double_zero_partition(kind, genus)
    km = extremality.kappa_mu(part)
    curves = []
    if kind == "abelian":
        for chi in range(1, 6):
            for L in (Q(0), km, Q(genus, 2), Q(genus)):
                params = extremality.TeichParamsAbelian(Q(2 * chi), L, genus)
                curves.append(extremality.teich_vector_abelian(genus, part, params))
    else:
        for chi in range(1, 6):
            for j in range(5):
                params = extremality.TeichParamsQuadratic(Q(chi), cmax * Q(j, 4))
                curves.append(extremality.teich_vector_quadratic(genus, part, params))
    return curves


@main.command("certify")
@click.option("--kind", type=click.Choice(["abelian", "quadratic"]), required=True)
@_genus_option
@click.option("-a", "a", required=True)
@click.option("-b", "b", required=True)
@click.option("--c0", default="0")
@click.option("--c", default="0")
@click.option("--cmax", default="1")
@click.option("-d", "d_value", default=None,
              help="threshold to certify; defaults to the computed one")
@click.option("--json", "as_json", is_flag=True)
def cmd_certify(kind, genus, a, b, c0, c, cmax, d_value, as_json):
    """Run the negativity certificate on a parameter grid of curves."""
    _check_genus(genus)
    aq, bq = _parse_q(a, "-a"), _parse_q(b, "-b")
    cmax_q = _parse_q(cmax, "--cmax")
    try:
        if kind == "abelian":
            c0q = _parse_q(c0, "--c0")
            d = _parse_q(d_value, "-d") if d_value else extremality.threshold_abelian(aq, bq, c0q, genus)
            stratum = picard.class_stratum_abelian(genus)
            ample = picard.DivisorClass.from_map(stratum.basis, {"lambda": aq, "eta": bq, "delta_0": c0q})
        else:
            cq = _parse_q(c, "--c")
            d = _parse_q(d_value, "-d") if d_value else extremality.threshold_quadratic(aq, bq, cq, genus, cmax_q)
            stratum = picard.class_stratum_quadratic(genus)
            ample = picard.DivisorClass.from_map(
                stratum.basis,
                {"lambda": aq, "eta": bq,
                 **{f"delta_{i}": cq for i in range(genus // 2 + 1)}})
        curves = _sample_grid(kind, genus, cmax_q)
        result = extremality.certificate_check(stratum, ample, d, curves)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    payload = {
        "command": "certify",
        "inputs": {"kind": kind, "genus": genus, "a": a, "b": b, "c0": c0,
                   "c": c, "cmax": cmax, "d": format_rational(d)},
        "violations": [{"curve": name, "value": format_rational(v)}
                       for name, v in result.violations],
        "verdict": "PASS" if result.passed else "FAIL",
    }
    if as_json:
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        click.echo(str(result))
    if not result.passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
