import json
import tracemalloc
from dataclasses import replace
from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from hodgediv import catalog
from hodgediv.exactq import format_rational
from hodgediv.picard import (
    MAX_GENUS,
    MBAR_G,
    MBAR_G1,
    PHODGE_ABELIAN,
    PHODGE_QUADRATIC,
    CurveRecord,
    DivisorClass,
    basis,
    class_D,
    class_W,
    class_stratum_abelian,
    class_stratum_quadratic,
    pair,
)
from hodgediv.testcurves import (
    curve_A,
    curve_B,
    curve_C,
    curves_B1_B2_B3,
    moving_curve_catalog,
)


def test_build_catalog_contains_expected_records():
    records = catalog.build_catalog(4)
    names = [r["name"] for r in records]
    assert "D" in names and "A" in names and "B" in names
    assert "C_1" in names and "C_2" in names
    assert "B3(i=1)" in names
    assert "X_irr" in names and "X_2" in names


def test_class_round_trip():
    records = catalog.build_catalog(3)
    rec = next(r for r in records if r["name"] == "D")
    assert catalog.record_to_class(rec) == class_D(3)
    assert rec["coefficients"]["delta_0"] == "-6"


def test_curve_round_trip():
    records = catalog.build_catalog(3)
    rec = next(r for r in records if r["name"] == "B")
    curve = catalog.record_to_curve(rec)
    assert curve.vector == curve_B(3).vector
    assert pair(curve, class_D(3)) == 8


def test_uncommitted_vector_round_trips_as_null():
    records = catalog.build_catalog(4)
    rec = next(r for r in records if r["name"] == "B3(i=2)")
    assert rec["vector"] is None
    curve = catalog.record_to_curve(rec)
    assert curve.vector is None
    assert curve.known_pairings["W"] == 6


def test_write_and_read(tmp_path, monkeypatch):
    monkeypatch.setenv(catalog.ENV_VAR, str(tmp_path / "cat.json"))
    path = catalog.write_catalog([2, 3])
    assert path == tmp_path / "cat.json"
    records = catalog.read_catalog()
    assert records == catalog.build_catalog(2) + catalog.build_catalog(3)
    # deterministic output
    text1 = path.read_text()
    catalog.write_catalog([2, 3])
    assert path.read_text() == text1


def test_rationals_serialized_as_strings(tmp_path, monkeypatch):
    monkeypatch.setenv(catalog.ENV_VAR, str(tmp_path / "cat.json"))
    path = catalog.write_catalog([2])
    raw = json.loads(path.read_text())
    for rec in raw:
        data = rec.get("coefficients") or rec.get("vector") or {}
        for value in data.values():
            assert isinstance(value, str)


def _built_objects(g):
    """The objects build_catalog(g) renders, in its order and with its names."""
    yield from (class_D(g), class_stratum_abelian(g), class_stratum_quadratic(g), class_W(g),
                curve_A(g), curve_B(g))
    if g >= 3:
        for i in range(1, g // 2 + 1):
            yield curve_C(g, i)
            for rec in curves_B1_B2_B3(g, i):
                yield replace(rec, name=f"{rec.name}(i={i})")
    yield from moving_curve_catalog(g)


def _read_back(rec):
    return (catalog.record_to_class if rec["record"] == "class" else catalog.record_to_curve)(rec)


def test_records_read_back_as_the_built_objects():
    for g in range(2, 41):
        records = catalog.build_catalog(g)
        assert [_read_back(rec) for rec in records] == list(_built_objects(g))
        for rec in records:  # every basis symbol is listed, in basis order
            data = rec["coefficients"] if rec["record"] == "class" else rec["vector"]
            if data is not None:
                assert tuple(data) == _read_back(rec).basis.symbols


def test_hand_edited_zero_parses_as_zero():
    records = catalog.build_catalog(3)
    d = next(r for r in records if r["name"] == "D")
    edited = catalog.record_to_class({**d, "coefficients": {**d["coefficients"], "eta": "0/7"}})
    assert edited == class_D(3) - DivisorClass.from_map(edited.basis, {"eta": Q(-24)})
    assert 0 not in edited.nonzero
    b = next(r for r in records if r["name"] == "B")
    curve = catalog.record_to_curve({**b, "vector": {**b["vector"], "eta": "0/7", "delta_1": " -1 "}})
    assert curve == curve_B(3) and 0 not in curve.nonzero


def test_missing_symbol_is_a_key_error():
    records = catalog.build_catalog(3)
    d = next(r for r in records if r["name"] == "D")
    with pytest.raises(KeyError):
        catalog.record_to_class({**d, "coefficients": {k: v for k, v in d["coefficients"].items()
                                                       if k != "delta_1"}})
    b = next(r for r in records if r["name"] == "B")
    with pytest.raises(KeyError):  # a zero entry may not be left out either
        catalog.record_to_curve({**b, "vector": {k: v for k, v in b["vector"].items() if k != "eta"}})


def _reference_dumps(records):
    return json.dumps(records, indent=2, sort_keys=True)


def _writer_text(genera):
    return "".join(catalog.json_chunks([e for g in genera for e in catalog.entries(g)]))


def test_dumps_matches_json_dumps_on_built_catalogs():
    """The writer's text is json.dumps of the built records, genus by genus."""
    for g in [*range(2, 81), 257, 1000]:
        assert _writer_text([g]) == _reference_dumps(catalog.build_catalog(g)), g
    assert _writer_text([]) == _reference_dumps([]) == "[]"


def test_written_file_is_json_dumps_plus_a_newline(tmp_path):
    genera = [2, 3, 7, 3]
    path = catalog.write_catalog(genera, tmp_path / "cat.json")
    records = [rec for g in genera for rec in catalog.build_catalog(g)]
    assert path.read_text() == _reference_dumps(records) + "\n"


def test_writing_a_large_genus_holds_little_memory(tmp_path):
    """The catalog of g = 1000 is 37.5 MB of text; the writer holds the
    records' integer forms and one record's text at a time."""
    path = tmp_path / "cat.json"
    tracemalloc.start()
    try:
        catalog.write_catalog([1000], path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 37_000_000
    assert peak < 8_000_000


@given(st.lists(st.integers(2, 14), max_size=5))
def test_dumps_matches_json_dumps_when_records_share_key_sets(genera):
    """Records of one basis share one map layout, within a genus and across
    a repeated one; bases of several genera meet in one call."""
    records = [rec for g in genera for rec in catalog.build_catalog(g)]
    assert _writer_text(genera) == _reference_dumps(records)


_tricky_text = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\n\t\x7fé€\u2028😀\ud800'),
                                 st.characters()), max_size=8)
_rationals = st.one_of(st.integers(-10**40, 10**40),
                       st.fractions(max_denominator=10**12), st.sampled_from([0, Q(-1, 3)]))
_bases = st.builds(basis, st.sampled_from([PHODGE_ABELIAN, PHODGE_QUADRATIC, MBAR_G1, MBAR_G]),
                   st.integers(2, 12))


@st.composite
def _contents(draw):
    """(object, name, note) for classes and curves of any shape the writer
    meets: other bases, fractional and huge entries, tricky strings, no
    vector, no pairings, a total boundary pairing."""
    content = []
    for b in draw(st.lists(_bases, max_size=4)):
        positions = st.dictionaries(st.integers(0, len(b.symbols) - 1), _rationals, max_size=5)
        name, note = draw(_tricky_text), draw(_tricky_text)
        if draw(st.booleans()):
            content.append((DivisorClass(b, nonzero=draw(positions)), name, note))
        else:
            curve = CurveRecord(name, b, None, draw(st.dictionaries(_tricky_text, _rationals)),
                                draw(st.none() | _rationals),
                                nonzero=draw(st.none() | positions))
            content.append((curve, draw(_tricky_text), note))
    return content


def _reference_record(obj, name, note):
    b = obj.basis

    def rendered(nonzero):
        return {s: format_rational(nonzero.get(i, 0)) for i, s in enumerate(b.symbols)}

    if isinstance(obj, DivisorClass):
        return {"record": "class", "name": name, "space": b.space_kind, "genus": b.genus,
                "coefficients": rendered(obj.nonzero), "note": note}
    rec = {"record": "curve", "name": name, "space": b.space_kind, "genus": b.genus,
           "vector": None if obj.nonzero is None else rendered(obj.nonzero),
           "known_pairings": {k: format_rational(v) for k, v in obj.known_pairings.items()},
           "note": note}
    if obj.total_delta is not None:
        rec["total_delta"] = format_rational(obj.total_delta)
    return rec


@given(_contents())
def test_dumps_matches_json_dumps_on_record_shapes(content):
    text = "".join(catalog.json_chunks(content))
    assert text == _reference_dumps([_reference_record(*entry) for entry in content])


def test_dumps_matches_json_dumps_on_the_largest_basis():
    b = basis(MBAR_G1, MAX_GENUS)
    cls = DivisorClass(b, nonzero={0: Q(-3, 7), 5000: 12, len(b.symbols) - 1: Q(1, 10000)})
    curve = CurveRecord("Y", b, None, {}, nonzero={1: -1, 5000: 3})
    content = [(cls, "X", ""), (curve, "Y", "")]
    text = "".join(catalog.json_chunks(content))
    assert text == _reference_dumps([_reference_record(*entry) for entry in content])
