import ast
import random
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction as Q
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from hodgediv.catalog import build_catalog
from hodgediv.extremality import (
    TeichParamsAbelian,
    TeichParamsQuadratic,
    double_zero_partition,
    sample_grid,
    teich_vector_abelian,
    teich_vector_quadratic,
)
from hodgediv.picard import (
    BasisSpec,
    CurveRecord,
    DivisorClass,
    MAX_GENUS,
    MBAR_G1,
    PHODGE_ABELIAN,
    PHODGE_QUADRATIC,
    basis,
    class_D,
    class_W,
    class_stratum_abelian,
    class_stratum_quadratic,
    genus2_lambda_relation,
    pair,
    substitute_relation,
)
from hodgediv.testcurves import derive_theorem_class

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
# denominators large enough that their lcm matters
wide_rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


def test_basis_abelian():
    assert basis(PHODGE_ABELIAN, 2).symbols == ("eta", "lambda", "delta_0", "delta_1")
    assert basis(PHODGE_ABELIAN, 4).symbols == (
        "eta", "lambda", "delta_0", "delta_1", "delta_2")


def test_basis_marked():
    assert basis(MBAR_G1, 3).symbols == ("lambda", "psi", "delta_1m", "delta_2m")


def test_basis_rejects_small_genus():
    with pytest.raises(ValueError):
        basis(PHODGE_ABELIAN, 1)


def test_cached_basis_is_a_plain_value():
    b = basis(PHODGE_ABELIAN, 4)
    assert b is basis(PHODGE_ABELIAN, 4)
    by_hand = BasisSpec(PHODGE_ABELIAN, 4, ("eta", "lambda", "delta_0", "delta_1", "delta_2"))
    assert b == by_hand and hash(b) == hash(by_hand)
    assert b != BasisSpec(PHODGE_QUADRATIC, 4, by_hand.symbols)
    assert repr(b) == ("BasisSpec(space_kind='PHodgeAbelian', genus=4, "
                       "symbols=('eta', 'lambda', 'delta_0', 'delta_1', 'delta_2'))")
    assert [b.index(s) for s in b.symbols] == list(range(5))
    with pytest.raises(KeyError, match=r"'delta_3' not in basis PHodgeAbelian\(4\)"):
        b.index("delta_3")


def test_class_W():
    w2 = class_W(2)
    assert w2 == DivisorClass.from_map(basis(MBAR_G1, 2),
                                       {"lambda": Q(-1), "psi": Q(3), "delta_1m": Q(-1)})
    w3 = class_W(3)
    assert w3 == DivisorClass.from_map(basis(MBAR_G1, 3), {
        "lambda": Q(-1), "psi": Q(6), "delta_1m": Q(-3), "delta_2m": Q(-1)})
    assert class_W(10).coefficient("psi") == 55


def test_class_stratum_abelian():
    assert class_stratum_abelian(3) == DivisorClass.from_map(basis(PHODGE_ABELIAN, 3), {
        "eta": Q(-12), "lambda": Q(24), "delta_0": Q(-2), "delta_1": Q(-3)})
    assert class_stratum_abelian(2) == DivisorClass.from_map(basis(PHODGE_ABELIAN, 2), {
        "eta": Q(-6), "lambda": Q(24), "delta_0": Q(-2), "delta_1": Q(-3)})
    assert class_stratum_abelian(5).coefficient("eta") == -24


def test_class_stratum_quadratic():
    assert class_stratum_quadratic(2) == DivisorClass.from_map(basis(PHODGE_QUADRATIC, 2), {
        "eta": Q(-10), "lambda": Q(72), "delta_0": Q(-6), "delta_1": Q(-6)})
    assert class_stratum_quadratic(3) == DivisorClass.from_map(basis(PHODGE_QUADRATIC, 3), {
        "eta": Q(-20), "lambda": Q(72), "delta_0": Q(-6), "delta_1": Q(-6)})
    for g in range(2, 12):
        assert class_stratum_quadratic(g).coefficient("lambda") == 72


def test_class_D_published_vectors():
    assert class_D(3) == DivisorClass.from_map(basis(PHODGE_ABELIAN, 3), {
        "eta": Q(-24), "lambda": Q(68), "delta_0": Q(-6), "delta_1": Q(-12)})
    assert class_D(4) == DivisorClass.from_map(basis(PHODGE_ABELIAN, 4), {
        "eta": Q(-60), "lambda": Q(114), "delta_0": Q(-10),
        "delta_1": Q(-21), "delta_2": Q(-28)})
    assert class_D(2) == DivisorClass.from_map(basis(PHODGE_ABELIAN, 2), {
        "eta": Q(-6), "lambda": Q(34), "delta_0": Q(-3), "delta_1": Q(-5)})


def test_substitute_genus2_lambda():
    out = substitute_relation(class_D(2), "lambda", genus2_lambda_relation())
    assert out == DivisorClass.from_map(basis(PHODGE_ABELIAN, 2), {
        "eta": Q(-6), "lambda": Q(0), "delta_0": Q(2, 5), "delta_1": Q(9, 5)})
    stratum = substitute_relation(class_stratum_abelian(2), "lambda", genus2_lambda_relation())
    assert stratum == out


def test_substitute_zero_coefficient_is_identity():
    c = class_D(3)
    b = c.basis
    replacement = DivisorClass.from_map(b, {"lambda": Q(7)})
    # class_D has no psi symbol; substitute a symbol with zero coefficient
    zeroed = DivisorClass.from_map(b, {"eta": Q(1)})
    assert substitute_relation(zeroed, "delta_1", replacement) == zeroed


def test_substitute_rejects_self_reference():
    c = class_D(2)
    bad = DivisorClass.from_map(c.basis, {"lambda": Q(1)})
    with pytest.raises(ValueError):
        substitute_relation(c, "lambda", bad)


def test_genus2_consistency_residual_zero():
    residual = substitute_relation(class_D(2) - class_stratum_abelian(2),
                                   "lambda", genus2_lambda_relation())
    assert residual.is_zero()


def test_pair_examples():
    b = basis(PHODGE_ABELIAN, 3)
    curve = CurveRecord.from_map("A", b, {"eta": Q(-1)})
    assert pair(curve, class_D(3)) == 24
    assert pair(curve, DivisorClass.from_map(b, {})) == 0
    curve_b = CurveRecord.from_map("B", b, {"lambda": Q(1), "delta_0": Q(12), "delta_1": Q(-1)})
    assert pair(curve_b, class_D(3)) == 8


def test_pair_basis_mismatch():
    curve = CurveRecord.from_map("A", basis(PHODGE_ABELIAN, 3), {"eta": Q(-1)})
    with pytest.raises(ValueError):
        pair(curve, class_D(4))


def test_pair_total_delta_requires_uniform_boundary():
    b = basis(PHODGE_QUADRATIC, 3)
    curve = CurveRecord.from_map("T", b, {"eta": Q(1)}, total_delta=Q(2))
    assert pair(curve, class_stratum_quadratic(3)) == -20 + 2 * (-6)
    lopsided = DivisorClass.from_map(b, {"delta_0": Q(1)})
    with pytest.raises(ValueError):
        pair(curve, lopsided)


def plain_pair(curve, c):
    """Term-by-term oracle for ``pair`` over the dense vectors; the boundary
    coefficients of ``c`` (positions 2.. in every basis drawn below) are
    uniform whenever the curve records a total boundary pairing."""
    total = sum((v * a for v, a in zip(curve.vector, c.coeffs)), Q(0))
    if curve.total_delta is not None:
        total += curve.total_delta * c.coeffs[2]
    return total


@st.composite
def pairing_problems(draw):
    """A curve record built from its nonzero entries and two classes, one
    built dense and one sparse, over PHodge or MbarG1 bases up to g=1000."""
    b = basis(draw(st.sampled_from([PHODGE_ABELIAN, PHODGE_QUADRATIC, MBAR_G1])),
              draw(st.integers(min_value=2, max_value=1000)))
    n = len(b.symbols)
    total_delta = draw(st.none() | wide_rationals)

    def entries():  # sparse: a few nonzero entries at drawn positions
        return draw(st.dictionaries(st.integers(0, n - 1), wide_rationals, max_size=6))

    def divisor_entries():
        if total_delta is None:
            return entries()
        # uniform boundary: every delta symbol (positions 2..) gets one value
        boundary = draw(st.just(Q(0)) | wide_rationals)
        return {**{i: v for i, v in entries().items() if i < 2}, **dict.fromkeys(range(2, n), boundary)}

    curve = CurveRecord("c", b, nonzero=entries(), total_delta=total_delta)
    x_entries = divisor_entries()
    x = DivisorClass(b, tuple(x_entries.get(i, Q(0)) for i in range(n)))
    return curve, x, DivisorClass(b, nonzero=divisor_entries()), draw(rationals)


@given(pairing_problems())
def test_pair_is_bilinear(problem):
    """pair is bilinear and equals the term-by-term Fraction sum over the
    dense vectors, as a Fraction also when it is 0, on sparse records up to
    genus 1000, with and without a total boundary pairing."""
    curve, x, y, t = problem
    for c in (x, y, x + y, x.scale(t), DivisorClass.from_map(x.basis, {})):
        value = pair(curve, c)
        assert type(value) is Q
        assert value == plain_pair(curve, c)
    assert pair(curve, x + y) == pair(curve, x) + pair(curve, y)
    assert pair(curve, x.scale(t)) == t * pair(curve, x)


@st.composite
def curves_over(draw, b, total_delta):
    """Sparse curve records over ``b``, some with a total boundary pairing."""
    n = len(b.symbols)
    return [CurveRecord(f"c{k}", b, nonzero=draw(st.dictionaries(st.integers(0, n - 1),
                                                                   wide_rationals, max_size=3)),
                        total_delta=draw(total_delta))
            for k in range(draw(st.integers(min_value=2, max_value=6)))]


@given(st.data())
def test_pair_reuses_one_class_as_a_fresh_one(data):
    """One class paired with many curves, the boundary found once for it,
    gives what a fresh, equal class gives on each curve."""
    b = basis(data.draw(st.sampled_from([PHODGE_ABELIAN, PHODGE_QUADRATIC])),
              data.draw(st.integers(min_value=2, max_value=60)))
    n = len(b.symbols)
    boundary = data.draw(st.just(Q(0)) | wide_rationals)
    entries = data.draw(st.dictionaries(st.integers(0, 1), wide_rationals))
    c = DivisorClass(b, nonzero={**entries, **dict.fromkeys(range(2, n), boundary)})
    for curve in data.draw(curves_over(b, st.none() | wide_rationals)):
        fresh = DivisorClass(b, nonzero=dict(c.nonzero))
        assert fresh == c and fresh is not c
        assert pair(curve, c) == pair(curve, fresh) == plain_pair(curve, fresh)


@given(st.data())
def test_non_uniform_boundary_raises_on_every_total_delta_curve(data):
    """A class whose boundary coefficients differ raises on each curve that
    records a total boundary pairing, the second call too, and pairs every
    curve that carries only a vector."""
    g = data.draw(st.integers(min_value=2, max_value=60))
    b = basis(data.draw(st.sampled_from([PHODGE_ABELIAN, PHODGE_QUADRATIC])), g)
    n = len(b.symbols)
    boundary = data.draw(st.just(Q(0)) | wide_rationals)
    odd = data.draw(wide_rationals.filter(lambda v: v != boundary))
    c = DivisorClass(b, nonzero={0: data.draw(wide_rationals),
                                 **dict.fromkeys(range(2, n), boundary),
                                 data.draw(st.integers(2, n - 1)): odd})
    for curve in data.draw(curves_over(b, st.none() | wide_rationals)):
        if curve.total_delta is None:
            assert pair(curve, c) == plain_pair(curve, c)
            continue
        for _ in range(2):
            with pytest.raises(ValueError, match="non-uniform boundary"):
                pair(curve, c)


def test_dense_and_sparse_classes_agree():
    b = basis(PHODGE_ABELIAN, 6)
    dense = (Q(0), Q(3), Q(0), Q(-1, 2), Q(0), Q(0))
    from_dense = DivisorClass(b, (0, 3, 0, Q(-1, 2), 0, 0))
    from_map = DivisorClass.from_map(b, {"delta_1": Q(-1, 2), "eta": 0, "lambda": 3, "delta_3": Q(0)})
    from_positions = DivisorClass(b, nonzero={3: Q(-1, 2), 0: Q(0, 7), 1: 3})
    assert from_dense == from_map == from_positions
    assert hash(from_dense) == hash(from_map) == hash(from_positions)
    # explicit zeros are dropped; the rest is kept in basis order, as Fractions
    assert list(from_map.nonzero.items()) == [(1, Q(3)), (3, Q(-1, 2))]
    assert all(type(v) is Q for v in from_dense.nonzero.values())
    assert from_map.coeffs == dense and len(from_map.coeffs) == 6
    assert from_map.coeffs[1:4] == dense[1:4] and from_map.coeffs[-1] == 0
    assert from_map.coeffs[:-1] + (from_map.coeffs[-1] + 1,) == dense[:-1] + (Q(1),)
    assert list(from_map.coeffs) == list(dense)
    assert from_map.coefficient("eta") == 0 and type(from_map.coefficient("eta")) is Q
    assert from_map == DivisorClass.from_map(b, dict(zip(b.symbols, dense)))
    assert str(from_map) == "(3)*lambda + (-1/2)*delta_1"
    assert from_map != DivisorClass(basis(PHODGE_QUADRATIC, 6), dense)
    zero = DivisorClass.from_map(b, {"eta": Q(0)})
    assert zero == DivisorClass(b, (0,) * 6) and zero.is_zero() and str(zero) == "0"
    assert (from_map - from_map) == zero and from_map.scale(0) == zero


def test_dense_views_match_the_dense_tuples():
    assert class_W(5).coeffs == (Q(-1), Q(15), Q(-10), Q(-6), Q(-3), Q(-1))
    assert class_stratum_abelian(5).coeffs == (Q(-24), Q(24), Q(-2), Q(-3), Q(-3))
    assert class_D(4).coeffs == (Q(-60), Q(114), Q(-10), Q(-21), Q(-28))
    assert genus2_lambda_relation().coeffs == (Q(0), Q(0), Q(1, 10), Q(1, 5))


def test_wrong_shapes_are_rejected():
    b = basis(PHODGE_ABELIAN, 3)
    with pytest.raises(ValueError):
        DivisorClass(b, (1, 2, 3))
    with pytest.raises(ValueError):
        CurveRecord("c", b, (1, 2, 3))
    with pytest.raises(ValueError):
        DivisorClass(b, nonzero={4: 1})
    with pytest.raises(KeyError):
        DivisorClass.from_map(b, {"psi": 1})


def test_dense_and_sparse_curves_agree():
    b = basis(MBAR_G1, 5)
    dense = (0, 1, 0, 0, -7, 0)
    from_dense = CurveRecord("B2", b, dense, {"W": Q(3)})
    from_map = CurveRecord.from_map("B2", b, {"psi": 1, "delta_3m": -7, "lambda": 0},
                                    known_pairings={"W": Q(3)})
    assert from_dense == from_map
    assert list(from_map.nonzero.items()) == [(1, Q(1)), (4, Q(-7))]
    assert from_map.vector == tuple(Q(v) for v in dense)
    assert from_map.vector[1:3] == (Q(1), Q(0)) and len(from_map.vector) == 6
    assert from_map.entry("lambda") == 0 and from_map.entry("delta_3m") == -7
    uncommitted = CurveRecord("B3", b, None, known_pairings={"W": Q(6)})
    assert uncommitted.vector is None and uncommitted.nonzero is None
    with pytest.raises(ValueError):
        uncommitted.entry("psi")


def test_records_without_known_pairings_share_one_read_only_empty_mapping():
    b = basis(PHODGE_ABELIAN, 3)
    recs = [CurveRecord("C", b, (1, 0, 0, 0)), CurveRecord.from_map("C", b, {"eta": 1}),
            CurveRecord._of_ints("C", b, {0: 1}, 1)]
    assert recs[0] == recs[1] == recs[2]
    assert all(r.known_pairings is recs[0].known_pairings == {} for r in recs)
    with pytest.raises(TypeError):
        recs[0].known_pairings["W"] = Q(1)
    assert replace(recs[0], known_pairings={"W": Q(1)}).known_pairings == {"W": Q(1)}
    assert recs[2].known_pairings == {}


def test_replace_round_trips():
    rec = CurveRecord.from_map("T", basis(PHODGE_QUADRATIC, 4), {"eta": 2, "lambda": Q(1, 3)},
                               known_pairings={"D": Q(5)}, total_delta=Q(6))
    moved = replace(rec, known_pairings={"D": Q(6)})
    assert moved != rec
    assert (moved.vector, moved.total_delta, moved.known_pairings) == (rec.vector, Q(6), {"D": Q(6)})
    assert replace(moved, known_pairings={"D": Q(5)}) == rec
    assert replace(rec, name="U").name == "U" and replace(rec, name="U").nonzero == rec.nonzero
    uncommitted = CurveRecord("B3", rec.basis, None, known_pairings={"W": Q(6)})
    assert replace(uncommitted) == uncommitted
    with pytest.raises(TypeError):  # the vector is stored as ``nonzero``, not replaced silently
        replace(rec, vector=(Q(1),) * 5)


def assert_canonical(nums, den, td=None):
    """The stored integer form: den > 0, positions in order, no zero
    numerator, and gcd(den, numerators, td) = 1."""
    assert type(den) is int and den > 0
    assert list(nums) == sorted(nums) and all(type(v) is int and v for v in nums.values())
    assert td is None or type(td) is int
    assert gcd(den, *nums.values(), td or 0) == 1


def stored_form(x):
    """The integer form of a class or curve, built from its Fractions when
    it was given them: numerators and denominator."""
    return x._form[:2]


@given(st.data())
def test_equal_classes_have_one_stored_form(data):
    """A class built dense, by position, through ``from_map`` or through
    +, -, negation and ``scale`` stores the same canonical integer form, and
    has the same == and hash, whenever the values are equal; different
    values store different forms."""
    b = basis(data.draw(st.sampled_from([PHODGE_ABELIAN, PHODGE_QUADRATIC, MBAR_G1])),
              data.draw(st.integers(min_value=2, max_value=60)))
    n = len(b.symbols)
    entries = data.draw(st.dictionaries(st.integers(0, n - 1), wide_rationals | st.just(Q(0)),
                                        max_size=8))
    other = DivisorClass(b, nonzero=data.draw(st.dictionaries(st.integers(0, n - 1),
                                                              wide_rationals, max_size=8)))
    t = data.draw(wide_rationals.filter(bool))
    x = DivisorClass(b, nonzero=entries)
    for y in (x, DivisorClass(b, tuple(entries.get(i, 0) for i in range(n))),
              DivisorClass.from_map(b, {b.symbols[i]: v for i, v in entries.items()}),
              (x + other) - other, -(-x), x.scale(t).scale(1 / t), (t * x) * (1 / t),
              x - DivisorClass(b, nonzero={})):
        nums, den = stored_form(y)
        assert_canonical(nums, den)
        assert stored_form(y) == stored_form(x)
        assert y == x and hash(y) == hash(x)
        assert y.nonzero == {i: Q(v, den) for i, v in nums.items()} == x.nonzero
    assert (stored_form(other) == stored_form(x)) == (other == x) == (other.coeffs == x.coeffs)


@given(st.data())
def test_equal_curves_have_one_stored_form(data):
    """A curve built dense, by position, through ``from_map``, ``replace`` or
    the integer constructor (from the form, from the form with the zeros
    written out, or from a multiple of that) stores one canonical form, the
    total boundary numerator over the same denominator, and reads back the
    same values."""
    b = basis(data.draw(st.sampled_from([PHODGE_ABELIAN, PHODGE_QUADRATIC, MBAR_G1])),
              data.draw(st.integers(min_value=2, max_value=60)))
    n = len(b.symbols)
    entries = data.draw(st.dictionaries(st.integers(0, n - 1), wide_rationals | st.just(Q(0)),
                                        max_size=6))
    total_delta = data.draw(st.none() | st.just(Q(0)) | wide_rationals)
    rec = CurveRecord("c", b, nonzero=entries, total_delta=total_delta)
    nums, den, td = rec._form
    assert_canonical(nums, den, td)
    for other in (CurveRecord("c", b, tuple(entries.get(i, 0) for i in range(n)), None, total_delta),
                  CurveRecord.from_map("c", b, {b.symbols[i]: v for i, v in entries.items()},
                                       total_delta=total_delta),
                  replace(rec, known_pairings={}),
                  CurveRecord._of_ints("c", b, dict(nums), den, td),
                  CurveRecord._of_ints("c", b, {i: nums.get(i, 0) for i in range(n)}, den, td),
                  CurveRecord._of_ints("c", b, {i: 3 * nums.get(i, 0) for i in range(n)}, 3 * den,
                                       None if td is None else 3 * td)):
        assert other._form == rec._form and other == rec
        assert other.nonzero == {i: v for i, v in entries.items() if v}
        assert other.total_delta == total_delta and type(other.total_delta) is type(total_delta)
        assert other.vector == tuple(Q(entries.get(i, 0)) for i in range(n))


def _callers_of_the_integer_constructor() -> set[str]:
    """Names of the package functions that call ``_of_ints`` of either class."""
    callers = set()
    for path in (Path(__file__).resolve().parents[1] / "src" / "hodgediv").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.FunctionDef) and node.name != "_of_ints"
                    and any(isinstance(n, ast.Attribute) and n.attr == "_of_ints"
                            for n in ast.walk(node))):
                callers.add(node.name)
    return callers


def test_every_package_call_of_the_integer_constructor_stores_a_canonical_form(monkeypatch):
    """Every call of ``CurveRecord._of_ints`` or ``DivisorClass._of_ints`` made
    by the package, from each of its callers, over g = 2..60: the test curves
    and the catalog, the closed-form classes, the certificate grids and seeded
    Teichmueller curves of both kinds.  Each hands its numerators in position
    order and gets the canonical form; a class gets the boundary numerator
    that its Fractions give."""
    callers = _callers_of_the_integer_constructor()
    assert callers == {"_integral", "teich_vector_abelian", "teich_vector_quadratic",
                       "class_D", "class_W", "class_stratum_abelian", "class_stratum_quadratic"}
    seen = Counter()
    build = CurveRecord._of_ints.__func__
    build_class = DivisorClass._of_ints.__func__

    def checked(cls, name, b, nums, den, td=None, known_pairings=None):
        seen[sys._getframe(1).f_code.co_name] += 1
        assert list(nums) == sorted(nums) and den > 0
        rec = build(cls, name, b, nums, den, td, known_pairings)
        assert_canonical(*rec._form)
        return rec

    def checked_class(cls, b, nums, den):
        seen[sys._getframe(1).f_code.co_name] += 1
        assert list(nums) == sorted(nums) and den > 0
        c = build_class(cls, b, nums, den)
        assert_canonical(*c._form)
        assert c._form == DivisorClass(b, nonzero=c.nonzero)._form
        return c

    monkeypatch.setattr(CurveRecord, "_of_ints", classmethod(checked))
    monkeypatch.setattr(DivisorClass, "_of_ints", classmethod(checked_class))
    class_W.cache_clear()  # each genus's W is built again, through the checked constructor
    rng = random.Random(12)
    for g in range(2, 61):
        assert derive_theorem_class(g) == class_D(g)
        build_catalog(g)
        for kind in ("abelian", "quadratic"):
            part = double_zero_partition(kind, g)
            sample_grid(kind, g, Q(rng.randint(0, 40), rng.randint(1, 9)))
            for _ in range(20):
                chi = Q(rng.randint(1, 10**4), rng.randint(1, 10**4))
                den = rng.randint(1, 10**4)
                x = Q(rng.randint(0, g * den), den)
                if kind == "abelian":
                    teich_vector_abelian(g, part, TeichParamsAbelian(chi, x, g))
                else:
                    teich_vector_quadratic(g, part, TeichParamsQuadratic(chi, x))
    assert set(seen) == callers


def expected_boundary(c: DivisorClass):
    """The numerator over ``c``'s form denominator that every ``delta_*``
    coefficient shares, read from the dense coefficients; None if they differ."""
    values = {v for s, v in zip(c.basis.symbols, c.coeffs) if s.startswith("delta_")}
    return values.pop() * c._form[1] if len(values) == 1 else None


@given(st.data())
def test_classes_built_from_integer_numerators_store_one_canonical_form(data):
    """``DivisorClass._of_ints`` from a class's form, from the form with its
    zeros written out, and from a multiple of that stores the form (boundary
    numerator included), ==, hash and Fractions of the class built from its
    values."""
    b = basis(data.draw(st.sampled_from([PHODGE_ABELIAN, PHODGE_QUADRATIC, MBAR_G1])),
              data.draw(st.integers(min_value=2, max_value=60)))
    n = len(b.symbols)
    entries = data.draw(st.dictionaries(st.integers(0, n - 1), wide_rationals | st.just(Q(0)),
                                        max_size=8))
    if data.draw(st.booleans()):  # a uniform boundary, sometimes 0
        deltas = [i for i, s in enumerate(b.symbols) if s.startswith("delta_")]
        entries.update(dict.fromkeys(deltas, data.draw(wide_rationals | st.just(Q(0)))))
    x = DivisorClass(b, nonzero=entries)
    nums, den, boundary = x._form
    assert boundary == expected_boundary(x)
    k = data.draw(st.integers(min_value=2, max_value=10**6))
    written_out = {i: nums.get(i, 0) for i in range(n)}
    for y in (DivisorClass._of_ints(b, dict(nums), den),
              DivisorClass._of_ints(b, written_out, den),
              DivisorClass._of_ints(b, {i: k * v for i, v in written_out.items()}, k * den)):
        assert_canonical(*y._form)
        assert y._form == x._form
        assert y == x and hash(y) == hash(x)
        assert y.nonzero == x.nonzero and y.coeffs == x.coeffs


def docstring_classes(g: int) -> list[DivisorClass]:
    """class_D, class_W and the two strata as their docstrings write them,
    built from Fractions by symbol."""
    pa, pq, m1 = basis(PHODGE_ABELIAN, g), basis(PHODGE_QUADRATIC, g), basis(MBAR_G1, g)
    d = {"eta": Q(-(g - 1) * g * (g + 1)), "lambda": Q(2 * (3 * g * g + 2 * g + 1)),
         "delta_0": Q(-g * (g + 1), 2),
         **{f"delta_{i}": Q((g + 3) * i * (i - g)) for i in range(1, g // 2 + 1)}}
    w = {"psi": Q(g * (g + 1), 2), "lambda": Q(-1),
         **{f"delta_{i}m": Q(-(g - i) * (g - i + 1), 2) for i in range(1, g)}}
    sa = {"eta": Q(-(6 * g - 6)), "lambda": Q(24), "delta_0": Q(-2),
          **{f"delta_{i}": Q(-3) for i in range(1, g // 2 + 1)}}
    sq = {"eta": Q(-10 * (g - 1)), "lambda": Q(72),
          **{f"delta_{i}": Q(-6) for i in range(g // 2 + 1)}}
    return [DivisorClass.from_map(pa, d), DivisorClass.from_map(m1, w),
            DivisorClass.from_map(pa, sa), DivisorClass.from_map(pq, sq)]


def test_closed_form_classes_equal_their_docstring_formulas():
    """The four classes built from integer numerators equal their Fraction
    formulas, with the same hash and integer form, for g = 2..300 and at
    the largest genus."""
    for g in [*range(2, 301), MAX_GENUS]:
        built = [class_D(g), class_W(g), class_stratum_abelian(g), class_stratum_quadratic(g)]
        for c, reference in zip(built, docstring_classes(g)):
            assert_canonical(*c._form)
            assert c._form == reference._form
            assert c._form[2] == expected_boundary(reference)
            assert c == reference and hash(c) == hash(reference)
            assert c.coeffs == reference.coeffs
