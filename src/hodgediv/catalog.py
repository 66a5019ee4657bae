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
plus a newline.  :func:`dumps` produces those bytes for the record shapes
:func:`build_catalog` emits, and is shared by :func:`write_catalog` and
``catalog list --json``.  ``json.dumps`` with an indent never reaches the
C encoder and sorts every map again, yet all maps of one basis share one
key set.  So :func:`dumps` lays out each key set once per call: the keys
in sorted order, the text between their values, and an ``itemgetter``
that picks the values in that order.  A record or symbol -> "p/q" map is
then its encoded values slotted into a copy of that text and joined once.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction as Q
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

from . import picard, testcurves
from .exactq import format_rational, parse_rational
from .picard import BasisSpec, CurveRecord, DivisorClass, basis

ENV_VAR = "HODGEDIV_CATALOG"
DEFAULT_FILENAME = "hodgediv_catalog.json"


def catalog_path() -> Path:
    return Path(os.environ.get(ENV_VAR, DEFAULT_FILENAME))


def _render(b: BasisSpec, nums: dict[int, int], den: int) -> dict[str, str]:
    """symbol -> "p/q" over the whole basis, in basis order, from a record's
    integer form (numerators over ``den``); zeros read "0".  An integral
    record, as every test curve is, is written without a Fraction."""
    out = dict.fromkeys(b.symbols, "0")
    for i, n in nums.items():
        out[b.symbols[i]] = str(n) if den == 1 else format_rational(Q(n, den))
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


def _class_record(name: str, c: DivisorClass, note: str) -> dict:
    return {
        "record": "class",
        "name": name,
        "space": c.basis.space_kind,
        "genus": c.basis.genus,
        "coefficients": _render(c.basis, *c._form[:2]),
        "note": note,
    }


def _curve_record(c: CurveRecord, note: str) -> dict:
    nums, den, td = c._form
    rec = {
        "record": "curve",
        "name": c.name,
        "space": c.basis.space_kind,
        "genus": c.basis.genus,
        "vector": _render(c.basis, nums, den) if nums is not None else None,
        "known_pairings": {k: format_rational(v) for k, v in sorted(c.known_pairings.items())},
        "note": note,
    }
    if td is not None:
        rec["total_delta"] = format_rational(Q(td, den))
    return rec


def build_catalog(g: int) -> list[dict]:
    """All cataloged classes and curves for one genus, in a fixed order."""
    records = [
        _class_record("D", picard.class_D(g),
                      "locus of differentials with a zero at a Weierstrass point"),
        _class_record("stratum_abelian_double_zero", picard.class_stratum_abelian(g),
                      "closure of the abelian double-zero stratum"),
        _class_record("stratum_quadratic_double_zero", picard.class_stratum_quadratic(g),
                      "closure of the quadratic double-zero stratum"),
        _class_record("W", picard.class_W(g),
                      "marked-Weierstrass-point divisor on 1-pointed curves"),
        _curve_record(testcurves.curve_A(g), "line in a fiber over a fixed smooth curve"),
        _curve_record(testcurves.curve_B(g),
                      "pencil of plane cubics glued to a fixed genus g-1 curve"),
    ]
    if g >= 3:
        for i in range(1, g // 2 + 1):
            records.append(_curve_record(
                testcurves.curve_C(g, i),
                f"attachment point of a genus-{i} tail varying on the genus-{g - i} side"))
            b1, b2, b3 = testcurves.curves_B1_B2_B3(g, i)
            for rec, note in ((b1, "node varying, genus-i side marked"),
                              (b2, "marked point colliding with the node"),
                              (b3, "mirror of B1; only the W-pairing is committed")):
                r = _curve_record(rec, note)
                r["name"] = f"{rec.name}(i={i})"
                records.append(r)
    for rec in testcurves.moving_curve_catalog(g):
        records.append(_curve_record(rec, "moving curve in a boundary divisor"))
    return records


def dumps(records: list[dict]) -> str:
    """``json.dumps(records, indent=2, sort_keys=True)``, byte for byte.

    ``records`` is a list of dicts whose values are ``str``, ``int``,
    ``None`` or a flat ``dict[str, str]``; any other shape, or a key that
    is not a ``str``, raises ``TypeError`` rather than risk different bytes.
    """
    if type(records) is not list:
        raise TypeError(f"catalog of type {type(records).__name__} is not a list")
    frames: dict[tuple, tuple] = {}  # (indent, keys in insertion order) -> (getter, text)

    def encode_dict(d: dict, indent: str, encode) -> str:
        if not d:
            return "{}"
        keys = tuple(d)
        frame = frames.get((indent, keys))
        if frame is None:
            order = sorted(keys)
            heads = [f",\n{indent}{encode_basestring_ascii(k)}: " for k in order]
            heads[0] = "{" + heads[0][1:]
            text = [""] * (2 * len(order) + 1)
            text[0::2] = heads + [f"\n{indent[2:]}}}"]
            getter = itemgetter(*order) if len(order) > 1 else lambda d, k=order[0]: (d[k],)
            frame = frames[indent, keys] = getter, text
        getter, text = frame
        out = text.copy()
        out[1::2] = map(encode, getter(d))
        return "".join(out)

    def encode_value(v) -> str:
        if type(v) is str:
            return encode_basestring_ascii(v)
        if type(v) is int:
            return int.__repr__(v)
        if v is None:
            return "null"
        if type(v) is dict:  # a record's maps sit at depth 2 of the file
            return encode_dict(v, "      ", encode_basestring_ascii)
        raise TypeError(f"catalog value of type {type(v).__name__} is not a str, int, None "
                        "or flat str -> str map")

    def encode_record(rec) -> str:
        if type(rec) is not dict:
            raise TypeError(f"catalog record of type {type(rec).__name__} is not a dict")
        return encode_dict(rec, "    ", encode_value)

    if not records:
        return "[]"
    return "[\n  " + ",\n  ".join(map(encode_record, records)) + "\n]"


def write_catalog(genera: list[int], path: Path | None = None) -> Path:
    path = path or catalog_path()
    records = [rec for g in genera for rec in build_catalog(g)]
    path.write_text(dumps(records) + "\n")
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
