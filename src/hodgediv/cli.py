"""Command-line front end.

Every command prints either a human-readable table or, with ``--json``, a
deterministic JSON report.  Exit codes: 0 when every checked quantity
matches, 1 on any mismatch, 2 on usage or input errors and on a catalog
file that cannot be written, read or parsed.  All rationals are
rendered exactly as ``p/q``; nothing is ever printed in decimal.

Only ``picard`` and ``exactq``, which the package loads anyway, are
imported here; each command imports the other modules it runs in its body,
so that a one-shot process compiles and executes no module it does not use.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cached_property

import click

from . import picard
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

    def payload(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "rows": [
                {"quantity": q, "expected": e, "computed": c, "match": ok}
                for q, e, c, ok in self.rows
            ],
            "verdict": self.verdict,
            **self.extra,
        }

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


def _emit(payload: dict, text: str, as_json: bool, ok: bool = True):
    """Print the JSON report or the text one; exit 1 unless ``ok``.  The
    newline goes out on its own: a write that a closed reader cuts short
    returns a partial count, which the text stream drops without an error,
    so it is the next write that raises BrokenPipeError."""
    click.echo(json.dumps(payload, indent=2, sort_keys=True) if as_json else text, nl=False)
    click.echo()
    if not ok:
        sys.exit(1)


def _genus_option(f):
    return click.option("--genus", type=click.IntRange(min=2), required=True)(f)


class _Main(click.Group):
    """The one error boundary: a ValueError from any command, such as an
    input out of range, and a standard output closed by its reader end the
    run with a one-line ``Error:`` and exit 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, BrokenPipeError) as exc:
            message = (f"cannot write to standard output: {exc.strerror}"
                       if isinstance(exc, BrokenPipeError) else str(exc))
            error = click.ClickException(message)
            error.exit_code = 2
            raise error from exc


@click.group(cls=_Main)
def main():
    """Exact intersection-theory computations for divisor classes on
    projectivized bundles of differentials."""


_GENUS2 = "genus2-relation"  # the one verify example that needs only picard


class _Examples(click.Choice):
    """``verify``'s choices: genus2-relation and the ids of
    ``porteous.PENCIL_EXAMPLES``.  Those are read on first use (help, a
    missing value, any other value), so genus2-relation imports no porteous."""

    def __init__(self):
        self.case_sensitive = True

    @cached_property
    def choices(self):
        from . import porteous
        return tuple(sorted([*porteous.PENCIL_EXAMPLES, _GENUS2]))

    def convert(self, value, param, ctx):
        return value if value == _GENUS2 else super().convert(value, param, ctx)


@main.command("derive")
@_genus_option
@click.option("--json", "as_json", is_flag=True)
def cmd_derive(genus: int, as_json: bool):
    """Re-derive the Weierstrass-zero divisor class from test curves and
    compare it to the closed form."""
    from . import testcurves
    derived = testcurves.derive_theorem_class(genus)
    closed = picard.class_D(genus)
    report = Report("derive", {"genus": genus})
    for sym in closed.basis.symbols:
        report.add(sym, closed.coefficient(sym), derived.coefficient(sym))
    report.extra["derived_class"] = str(derived)
    _emit(report.payload(), report.to_table(), as_json, report.verdict == "match")


@main.command("verify")
@click.option("--example", "example_id", required=True,
              type=_Examples())
@click.option("--json", "as_json", is_flag=True)
def cmd_verify(example_id: str, as_json: bool):
    """Recompute every quantity of a worked example and compare."""
    report = Report("verify", {"example": example_id})
    if example_id == _GENUS2:
        residual = picard.substitute_relation(
            picard.class_D(2) - picard.class_stratum_abelian(2),
            "lambda", picard.genus2_lambda_relation())
        report.add("residual after lambda elimination", "0", str(residual))
    else:
        from . import porteous
        for quantity, paper, computed in porteous.pencil_example(example_id):
            report.add(quantity, paper, computed)
    _emit(report.payload(), report.to_table(), as_json, report.verdict == "match")


@main.group("catalog")
def cmd_catalog():
    """Read and regenerate the class/curve catalog data file."""


@cmd_catalog.command("list")
@_genus_option
@click.option("--json", "as_json", is_flag=True)
def cmd_catalog_list(genus: int, as_json: bool):
    from . import catalog as catalog_mod
    if as_json:
        for chunk in catalog_mod.json_chunks(catalog_mod.entries(genus)):
            click.echo(chunk, nl=False)
        click.echo()
        return
    for rec in catalog_mod.build_catalog(genus):
        data = rec["coefficients"] if rec["record"] == "class" else rec["vector"]
        body = ", ".join(f"{k}={v}" for k, v in data.items() if v != "0") if data else "(no vector)"
        click.echo(f"[{rec['record']}] {rec['name']}: {body}  -- {rec['note']}")


@cmd_catalog.command("write")
@click.option("--genus", "genera", type=click.IntRange(min=2), multiple=True, required=True)
def cmd_catalog_write(genera):
    from . import catalog as catalog_mod
    try:
        path = catalog_mod.write_catalog(list(genera))
    except OSError as exc:
        raise ValueError(f"cannot write catalog {exc.filename}: {exc.strerror}") from exc
    click.echo(f"wrote {path}")


@cmd_catalog.command("check")
@click.option("--json", "as_json", is_flag=True)
def cmd_catalog_check(as_json: bool):
    """Re-pair every curve of the catalog file with the classes named in its
    known pairings and compare with the recorded values."""
    from . import catalog as catalog_mod
    path = catalog_mod.catalog_path()
    classes, curves = {}, []
    try:
        for r in catalog_mod.read_catalog(path):
            if r["record"] == "class":
                c = catalog_mod.record_to_class(r)
                classes[c.basis.space_kind, c.basis.genus, r["name"]] = c
            else:
                curves.append(catalog_mod.record_to_curve(r))
    except OSError as exc:
        raise ValueError(f"cannot read catalog {path}: {exc.strerror}") from exc
    except KeyError as exc:
        raise ValueError(f"malformed catalog {path}: missing key {exc}") from exc
    # what json, the record checks and Fraction raise; json nests by recursion
    except (ValueError, ZeroDivisionError, RecursionError) as exc:
        raise ValueError(f"malformed catalog {path}: {type(exc).__name__}: {exc}") from exc
    report = Report("catalog check", {"path": str(path)})
    for curve in (c for c in curves if c.nonzero is not None):
        b = curve.basis
        for name, value in sorted(curve.known_pairings.items()):
            cls = classes.get((b.space_kind, b.genus, name))
            if cls is None:
                raise ValueError(f"malformed catalog {path}: curve {curve.name} of "
                                 f"{b.space_kind}({b.genus}) names no class record {name!r}")
            report.add(f"{curve.name}.{name} ({b.space_kind}, g={b.genus})", value,
                       picard.pair(curve, cls))
    report.extra["skipped_without_vector"] = sum(c.nonzero is None for c in curves)
    _emit(report.payload(), report.to_table(), as_json, report.verdict == "match")


def _parse(value: str, label: str, parse=parse_rational, expected="a rational p/q"):
    """Parse the value of option ``label``; a malformed one is a ValueError naming it."""
    try:
        return parse(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{label} must be {expected}, got {value!r}") from None


@main.group("chow")
def cmd_chow():
    """Chow-ring arithmetic in products of projective spaces."""


@cmd_chow.command("eval", context_settings={"ignore_unknown_options": True})
@click.argument("expression")
@click.option("--dims", required=True,
              help="comma-separated factor dimensions, e.g. 1,3")
@click.option("--json", "as_json", is_flag=True)
def cmd_chow_eval(expression: str, dims: str, as_json: bool):
    """Integrate a product expression; generators are a, b, c, ... per factor."""
    from . import chow, chowexpr
    dim_list = _parse(dims, "--dims", lambda text: tuple(int(d) for d in text.split(",")),
                      "comma-separated positive integers")
    value = chow.chow_integrate(chowexpr.evaluate(expression, chow.MultiProjRing(dim_list)))
    _emit({"command": "chow eval", "expression": expression,
           "dims": list(dim_list), "integral": format_rational(value)},
          format_rational(value), as_json)


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
    from . import extremality
    given = {k: v for k, v in (("lyapunov", lyapunov), ("carea", carea)) if v is not None}
    name = "lyapunov" if kind == "abelian" else "carea"
    if name not in given:
        raise ValueError(f"--{name} is required for kind={kind}")
    # every given value is parsed; the report echoes the one the kind reads
    values = {k: v for k, v in _rationals(chi=chi, **given).items() if k in ("chi", name)}
    part = extremality.double_zero_partition(kind, genus)
    if kind == "abelian":
        params = extremality.TeichParamsAbelian(values["chi"], values["lyapunov"], genus)
        rec = extremality.teich_vector_abelian(genus, part, params)
        stratum = picard.class_stratum_abelian(genus)
    else:
        params = extremality.TeichParamsQuadratic(values["chi"], values["carea"])
        rec = extremality.teich_vector_quadratic(genus, part, params)
        stratum = picard.class_stratum_quadratic(genus)
    pairing = format_rational(picard.pair(rec, stratum))
    vector = {s: format_rational(v) for s, v in zip(rec.basis.symbols, rec.vector)}
    if rec.total_delta is not None:
        vector["total_delta"] = format_rational(rec.total_delta)
    payload = {
        "inputs": _inputs(kind, genus, values),
        "vector": vector,
        "pairing": pairing,
        "verdict": "ok",
    }
    text = "\n".join([*(f"{sym} = {val}" for sym, val in vector.items()),
                      f"stratum pairing = {pairing}"])
    _emit(payload, text, as_json)


def _rationals(**options: str) -> dict[str, Q]:
    """Option values by name (``a`` for ``-a``, ``chi`` for ``--chi``) as
    rationals; each command passes every value given, whichever ``--kind`` reads."""
    return {name: _parse(value, f"-{name}" if len(name) == 1 else f"--{name}")
            for name, value in options.items()}


def _inputs(kind: str, genus: int, values: dict[str, Q]) -> dict:
    """A report's ``inputs``, rationals in lowest terms: equal values, equal reports."""
    return {"kind": kind, "genus": genus, **{k: format_rational(v) for k, v in values.items()}}


def _threshold(kind, genus, a: Q, b: Q, c0: Q, c: Q, cmax: Q) -> Q:
    """Threshold d for a*lambda + b*eta + the boundary part of ``kind``."""
    from . import extremality
    if kind == "abelian":
        return extremality.threshold_abelian(a, b, c0, genus)
    return extremality.threshold_quadratic(a, b, c, genus, cmax)


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
    values = _rationals(a=a, b=b, c0=c0, c=c, cmax=cmax)
    d = format_rational(_threshold(kind, genus, **values))
    _emit({"command": "threshold", "inputs": _inputs(kind, genus, values),
           "d": d, "verdict": "ok"}, d, as_json)


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
    from . import extremality
    values = _rationals(a=a, b=b, c0=c0, c=c, cmax=cmax)
    aq, bq, c0q, cq, cmax_q = values.values()
    if kind == "abelian":
        stratum = picard.class_stratum_abelian(genus)
        boundary = {"delta_0": c0q}
    else:
        stratum = picard.class_stratum_quadratic(genus)
        boundary = {f"delta_{i}": cq for i in range(genus // 2 + 1)}
    d = _parse(d_value, "-d") if d_value else _threshold(kind, genus, **values)
    ample = picard.DivisorClass.from_map(stratum.basis, {"lambda": aq, "eta": bq, **boundary})
    result = extremality.certificate_check(
        stratum, ample, d, extremality.sample_grid(kind, genus, cmax_q))
    _emit({"command": "certify",
           "inputs": _inputs(kind, genus, {**values, "d": d}),
           "violations": [{"curve": name, "value": format_rational(v)}
                          for name, v in result.violations],
           "verdict": "PASS" if result.passed else "FAIL"},
          str(result), as_json, result.passed)


if __name__ == "__main__":
    main()
