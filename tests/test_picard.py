from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from hodgediv.picard import (
    BasisSpec,
    CurveRecord,
    DivisorClass,
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
    assert w2.as_map() == {"lambda": Q(-1), "psi": Q(3), "delta_1m": Q(-1)}
    w3 = class_W(3)
    assert w3.as_map() == {"lambda": Q(-1), "psi": Q(6), "delta_1m": Q(-3), "delta_2m": Q(-1)}
    assert class_W(10).coefficient("psi") == 55


def test_class_stratum_abelian():
    assert class_stratum_abelian(3).as_map() == {
        "eta": Q(-12), "lambda": Q(24), "delta_0": Q(-2), "delta_1": Q(-3)}
    assert class_stratum_abelian(2).as_map() == {
        "eta": Q(-6), "lambda": Q(24), "delta_0": Q(-2), "delta_1": Q(-3)}
    assert class_stratum_abelian(5).coefficient("eta") == -24


def test_class_stratum_quadratic():
    assert class_stratum_quadratic(2).as_map() == {
        "eta": Q(-10), "lambda": Q(72), "delta_0": Q(-6), "delta_1": Q(-6)}
    assert class_stratum_quadratic(3).as_map() == {
        "eta": Q(-20), "lambda": Q(72), "delta_0": Q(-6), "delta_1": Q(-6)}
    for g in range(2, 12):
        assert class_stratum_quadratic(g).coefficient("lambda") == 72


def test_class_D_published_vectors():
    assert class_D(3).as_map() == {
        "eta": Q(-24), "lambda": Q(68), "delta_0": Q(-6), "delta_1": Q(-12)}
    assert class_D(4).as_map() == {
        "eta": Q(-60), "lambda": Q(114), "delta_0": Q(-10),
        "delta_1": Q(-21), "delta_2": Q(-28)}
    assert class_D(2).as_map() == {
        "eta": Q(-6), "lambda": Q(34), "delta_0": Q(-3), "delta_1": Q(-5)}


def test_substitute_genus2_lambda():
    out = substitute_relation(class_D(2), "lambda", genus2_lambda_relation())
    assert out.as_map() == {"eta": Q(-6), "lambda": Q(0),
                            "delta_0": Q(2, 5), "delta_1": Q(9, 5)}
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
    assert pair(curve, DivisorClass.zero(b)) == 0
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
    """Term-by-term oracle for ``pair``; the boundary coefficients of ``c``
    are uniform whenever the curve records a total boundary pairing."""
    total = sum((v * a for v, a in zip(curve.vector, c.coeffs)), Q(0))
    if curve.total_delta is not None:
        total += curve.total_delta * c.coefficient("delta_0")
    return total


@st.composite
def pairing_problems(draw):
    b = basis(draw(st.sampled_from([PHODGE_ABELIAN, PHODGE_QUADRATIC])),
              draw(st.integers(min_value=2, max_value=40)))
    n = len(b.symbols)
    total_delta = draw(st.none() | wide_rationals)

    def vector():  # sparse: a few nonzero entries at drawn positions
        entries = draw(st.dictionaries(st.integers(0, n - 1), wide_rationals, max_size=6))
        return tuple(entries.get(i, Q(0)) for i in range(n))

    def divisor():
        coeffs = vector()
        if total_delta is not None:  # uniform boundary: delta_i = delta_0
            coeffs = coeffs[:3] + (coeffs[2],) * (n - 3)
        return DivisorClass(b, coeffs)

    curve = CurveRecord("c", b, vector(), total_delta=total_delta)
    return curve, divisor(), divisor(), draw(rationals)


@given(pairing_problems())
def test_pair_is_bilinear(problem):
    """pair is bilinear and equals the term-by-term Fraction sum, as a
    Fraction also when it is 0, on sparse vectors up to genus 40."""
    curve, x, y, t = problem
    for c in (x, y, x + y, x.scale(t), DivisorClass.zero(x.basis)):
        value = pair(curve, c)
        assert type(value) is Q
        assert value == plain_pair(curve, c)
    assert pair(curve, x + y) == pair(curve, x) + pair(curve, y)
    assert pair(curve, x.scale(t)) == t * pair(curve, x)
