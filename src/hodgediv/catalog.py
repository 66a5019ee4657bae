"""Human-readable catalog of divisor classes and test curves.

The catalog is a JSON file with one record per class or curve: space kind,
genus, and a symbol -> coefficient map over the whole basis, in basis
order, with every rational rendered as ``p/q``.  Only the nonzero entries
are formatted and parsed; the others read ``0``.  The file location
defaults to ``hodgediv_catalog.json`` in the working directory and can be
overridden with the ``HODGEDIV_CATALOG`` environment variable.  The CLI
regenerates the file deterministically, so it can be kept under version
control and diffed.

The file holds exactly ``json.dumps(records, indent=2, sort_keys=True)``
plus a newline, ``records`` being the :func:`build_catalog` records of each
genus in turn.  :func:`build_catalog` and the writer, :func:`json_chunks`,
read one list of (object, record name, note) per genus, :func:`entries`.
The writer, shared by :func:`write_catalog` and ``catalog list --json``,
yields that text one record at a time from each object's integer form.  For
each basis it meets it lays out, once per call, the text of the all-"0"
symbol map in sorted-key order and the offset of each position's "0"; a
record's map is slices of that text around its few nonzero numerators.  So
both commands hold O(g) text per genus, though the file grows as g^2.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from fractions import Fraction as Q
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

from . import picard, testcurves
from .exactq import format_rational, parse_rational
from .picard import BasisSpec, CurveRecord, DivisorClass, basis

ENV_VAR = "HODGEDIV_CATALOG"
DEFAULT_FILENAME = "hodgediv_catalog.json"


def catalog_path() -> Path:
    return Path(os.environ.get(ENV_VAR, DEFAULT_FILENAME))


def _value(n: int, den: int) -> str:
    """``n/den`` as "p/q", with no Fraction when ``den`` is 1 (every test curve)."""
    return str(n) if den == 1 else format_rational(Q(n, den))


def _render(b: BasisSpec, nums: dict[int, int], den: int, zeros: dict) -> dict[str, str]:
    """symbol -> "p/q" over the whole basis, in basis order, from a record's integer
    form (numerators over ``den``): a copy of the basis's all-"0" map in ``zeros``."""
    key = b.space_kind, b.genus
    out = (zeros.get(key) or zeros.setdefault(key, dict.fromkeys(b.symbols, "0"))).copy()
    for i, n in nums.items():
        out[b.symbols[i]] = _value(n, den)
    return out


def _field(data: dict, key: str, *kinds: type):
    """``data[key]``: a KeyError when it is missing, a ValueError naming the
    key when it is of none of the types ``kinds``."""
    value = data[key]
    if type(value) not in kinds:
        raise ValueError(f"{key!r} must be {' or '.join(k.__name__ for k in kinds)}, "
                         f"got {type(value).__name__}")
    return value


def _parse(b: BasisSpec, data: dict) -> dict[int, Q]:
    """Inverse of :func:`_render` (position -> value).  The map must give
    every basis symbol a string (a missing one is a KeyError) and name no
    other symbol (a ValueError)."""
    entries = {i: v for i, s in enumerate(b.symbols) if (v := data[s]) != "0"}
    if len(data) != len(b.symbols):
        unknown = next(s for s in data if s not in b.symbols)
        raise ValueError(f"symbol {unknown!r} not in basis {b.space_kind}({b.genus})")
    for i, v in entries.items():
        if type(v) is not str:
            raise ValueError(f"{b.symbols[i]!r} must be str, got {type(v).__name__}")
    return {i: parse_rational(v) for i, v in entries.items()}


def entries(g: int) -> list[tuple[DivisorClass | CurveRecord, str, str]]:
    """(object, record name, note) of every cataloged class and curve of one
    genus, in a fixed order."""
    out = [
        (picard.class_D(g), "D", "locus of differentials with a zero at a Weierstrass point"),
        (picard.class_stratum_abelian(g), "stratum_abelian_double_zero",
         "closure of the abelian double-zero stratum"),
        (picard.class_stratum_quadratic(g), "stratum_quadratic_double_zero",
         "closure of the quadratic double-zero stratum"),
        (picard.class_W(g), "W", "marked-Weierstrass-point divisor on 1-pointed curves"),
    ]
    a, b = testcurves.curve_A(g), testcurves.curve_B(g)
    out += [(a, a.name, "line in a fiber over a fixed smooth curve"),
            (b, b.name, "pencil of plane cubics glued to a fixed genus g-1 curve")]
    if g >= 3:
        for i in range(1, g // 2 + 1):
            c = testcurves.curve_C(g, i)
            out.append((c, c.name,
                        f"attachment point of a genus-{i} tail varying on the genus-{g - i} side"))
            b1, b2, b3 = testcurves.curves_B1_B2_B3(g, i)
            out += [(rec, f"{rec.name}(i={i})", note) for rec, note in (
                (b1, "node varying, genus-i side marked"),
                (b2, "marked point colliding with the node"),
                (b3, "mirror of B1; only the W-pairing is committed"))]
    out += [(rec, rec.name, "moving curve in a boundary divisor")
            for rec in testcurves.moving_curve_catalog(g)]
    return out


def build_catalog(g: int) -> list[dict]:
    """The records of :func:`entries`, as dicts."""
    records, zeros = [], {}
    for obj, name, note in entries(g):
        b = obj.basis
        if isinstance(obj, DivisorClass):
            records.append({"record": "class", "name": name, "space": b.space_kind,
                            "genus": b.genus, "coefficients": _render(b, *obj._form[:2], zeros),
                            "note": note})
            continue
        nums, den, td = obj._form
        records.append({"record": "curve", "name": name, "space": b.space_kind, "genus": b.genus,
                        "vector": None if nums is None else _render(b, nums, den, zeros),
                        "known_pairings": {k: format_rational(v)
                                           for k, v in sorted(obj.known_pairings.items())},
                        "note": note})
        if td is not None:
            records[-1]["total_delta"] = _value(td, den)
    return records


def _zero_map(symbols: tuple[str, ...]) -> tuple[str, list[int]]:
    """The text of the all-"0" map over ``symbols`` at depth 2 of the file,
    keys sorted, and the offset of each position's ``"0"`` in it."""
    parts, offsets, at = [], [0] * len(symbols), 0
    for i in sorted(range(len(symbols)), key=symbols.__getitem__):
        parts.append(f',\n      {_json_str(symbols[i])}: "0"')
        at += len(parts[-1])
        offsets[i] = at - 3
    return "{" + "".join(parts)[1:] + "\n    }", offsets


def json_chunks(content: list[tuple[DivisorClass | CurveRecord, str, str]]) -> Iterator[str]:
    """``json.dumps(records, indent=2, sort_keys=True)``, byte for byte, one
    record per chunk, where ``records`` are the dicts :func:`build_catalog`
    makes of an :func:`entries` list such as ``content``."""
    frames: dict[tuple[str, int], tuple[str, list[int]]] = {}  # basis -> _zero_map

    def symbol_map(b: BasisSpec, nums: dict[int, int], den: int) -> str:
        key = b.space_kind, b.genus
        text, offsets = frames.get(key) or frames.setdefault(key, _zero_map(b.symbols))
        parts, at = [], 0
        for i in sorted(nums, key=offsets.__getitem__):
            off = offsets[i]
            parts += text[at:off], f'"{_value(nums[i], den)}"'
            at = off + 3
        parts.append(text[at:])
        return "".join(parts)

    sep = "[\n  "
    for obj, name, note in content:
        b = obj.basis
        named = [f'"name": {_json_str(name)}', f'"note": {_json_str(note)}']
        space = f'"space": {_json_str(b.space_kind)}'
        if isinstance(obj, DivisorClass):
            fields = [f'"coefficients": {symbol_map(b, *obj._form[:2])}', f'"genus": {b.genus}',
                      *named, '"record": "class"', space]
        else:
            nums, den, td = obj._form
            pairs = ",\n      ".join(f'{_json_str(k)}: "{format_rational(v)}"'
                                      for k, v in sorted(obj.known_pairings.items()))
            fields = [f'"genus": {b.genus}',
                      '"known_pairings": ' + ("{\n      " + pairs + "\n    }" if pairs else "{}"),
                      *named, '"record": "curve"', space]
            if td is not None:
                fields.append(f'"total_delta": "{_value(td, den)}"')
            fields.append('"vector": ' + ("null" if nums is None else symbol_map(b, nums, den)))
        yield sep + "{\n    " + ",\n    ".join(fields) + "\n  }"
        sep = ",\n  "
    yield "[]" if sep == "[\n  " else "\n]"


def write_catalog(genera: list[int], path: Path | None = None) -> Path:
    """Write the catalog of ``genera``; every genus is checked before the file is opened."""
    path = path or catalog_path()
    content = [e for g in genera for e in entries(g)]
    with path.open("w") as fh:
        fh.writelines(json_chunks(content))
        fh.write("\n")
    return path


def read_catalog(path: Path | None = None) -> list[dict]:
    """The records of a catalog file.  A file that is not a JSON list of
    named class and curve records is a ValueError; :func:`record_to_class`
    and :func:`record_to_curve` check the rest of each record."""
    path = path or catalog_path()
    records = json.loads(path.read_text())
    if type(records) is not list:
        raise ValueError("the catalog is not a JSON list of records")
    for k, rec in enumerate(records):
        if (type(rec) is not dict or rec.get("record") not in ("class", "curve")
                or type(rec.get("name")) is not str):
            raise ValueError(f"catalog entry {k} is not a named class or curve record")
    return records


def _basis(rec: dict) -> BasisSpec:
    return basis(_field(rec, "space", str), _field(rec, "genus", int))


def record_to_class(rec: dict) -> DivisorClass:
    """The class of a catalog record; a missing key is a KeyError, a value
    of another shape a ValueError."""
    b = _basis(rec)
    return DivisorClass(b, nonzero=_parse(b, _field(rec, "coefficients", dict)))


def record_to_curve(rec: dict) -> CurveRecord:
    """The curve of a catalog record; a missing key is a KeyError, a value
    of another shape a ValueError."""
    b = _basis(rec)
    vector = _field(rec, "vector", dict, type(None))
    pairings = _field(rec, "known_pairings", dict)
    total = parse_rational(_field(rec, "total_delta", str)) if "total_delta" in rec else None
    return CurveRecord(rec["name"], b, None,
                       {k: parse_rational(_field(pairings, k, str)) for k in pairings},
                       total, nonzero=_parse(b, vector) if vector is not None else None)
