import json
from dataclasses import replace
from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from hodgediv import catalog
from hodgediv.picard import (
    MAX_GENUS,
    MBAR_G1,
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


def test_dumps_matches_json_dumps_on_built_catalogs():
    every = []
    for g in range(2, 61):
        records = catalog.build_catalog(g)
        assert catalog.dumps(records) == _reference_dumps(records)
        every += records
    assert catalog.dumps(every) == _reference_dumps(every)
    assert catalog.dumps([]) == _reference_dumps([]) == "[]"


_tricky_text = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\n\t\x7fé€\u2028😀'),
                                 st.characters()), max_size=8)
_ints = st.one_of(st.integers(), st.integers(-10**40, 10**40),
                  st.sampled_from([10**39, -(10**39) - 7, 0, -1]))
_values = st.one_of(_tricky_text, _ints, st.none(),
                    st.dictionaries(_tricky_text, _tricky_text, max_size=5))
_records = st.lists(st.dictionaries(_tricky_text, _values, max_size=6), max_size=4)


@given(_records)
def test_dumps_matches_json_dumps_on_record_shapes(records):
    assert catalog.dumps(records) == _reference_dumps(records)


@st.composite
def _records_sharing_layouts(draw):
    """Maps and records over one key set in several insertion orders and
    with different values, beside one-key and empty maps: one dumps call
    lays out each key set once and reuses it."""
    keys = draw(st.lists(st.one_of(st.sampled_from(['"', "\\", "\ud800", "\U0001f600", 'a"\\b']),
                                   _tricky_text), max_size=6, unique=True))

    def reordered(values):
        return dict(zip(draw(st.permutations(keys)),
                        draw(st.lists(values, min_size=len(keys), max_size=len(keys)))))

    maps = [reordered(_tricky_text) for _ in range(draw(st.integers(1, 3)))]
    maps += [{k: draw(_tricky_text)} for k in keys[:2]] + [{}]
    records = [{"coefficients": m} for m in maps]
    records += [reordered(st.one_of(_tricky_text, _ints, st.none(), st.sampled_from(maps)))
                for _ in range(draw(st.integers(1, 3)))]
    return draw(st.permutations(records))


@given(_records_sharing_layouts())
def test_dumps_matches_json_dumps_when_records_share_key_sets(records):
    assert catalog.dumps(records) == _reference_dumps(records)


def test_dumps_matches_json_dumps_on_the_largest_basis():
    symbols = basis(MBAR_G1, MAX_GENUS).symbols
    coefficients = dict.fromkeys(symbols, "0")
    coefficients.update({symbols[0]: "-3/7", symbols[5000]: "12", symbols[-1]: "1/10000"})
    vector = {s: coefficients[s] for s in reversed(symbols)}
    vector[symbols[1]] = "-1"
    records = [{"record": "class", "name": "X", "space": MBAR_G1, "genus": MAX_GENUS,
                "coefficients": coefficients, "note": ""},
               {"record": "curve", "name": "Y", "space": MBAR_G1, "genus": MAX_GENUS,
                "vector": vector, "known_pairings": {}, "note": ""}]
    assert catalog.dumps(records) == _reference_dumps(records)


@pytest.mark.parametrize("value", [[1], 1.5, {"eta": {"lambda": "1"}}, {"eta": 1}, True,
                                   {1: "1"}, {None: "0"}])
def test_dumps_rejects_other_value_shapes(value):
    with pytest.raises(TypeError):
        catalog.dumps([{"record": "class", "coefficients": value}])


@pytest.mark.parametrize("record", [{1: "1"}, {None: "0"}, {"record": "class", 2: None}])
def test_dumps_rejects_a_record_key_that_is_not_str(record):
    with pytest.raises(TypeError):
        catalog.dumps([record])
