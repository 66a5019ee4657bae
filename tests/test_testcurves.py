import random
from dataclasses import replace
from fractions import Fraction as Q

import pytest

from hodgediv import catalog, testcurves
from hodgediv.exactq import InconsistentSystem, UnderdeterminedSystem
from hodgediv.picard import PHODGE_ABELIAN, DivisorClass, _pair_ints, basis, class_D, class_W, pair
from hodgediv.testcurves import (
    compute_a_prime,
    curve_A,
    curve_B,
    curve_C,
    curves_B1_B2_B3,
    derive_theorem_class,
    moving_curve_catalog,
    rhs_C_dot_D,
)


def test_curve_A():
    a3 = curve_A(3)
    assert a3.entry("eta") == -1
    assert a3.entry("lambda") == 0
    assert a3.known_pairings["D"] == 24
    assert curve_A(2).known_pairings["D"] == 6


def test_curve_B():
    b = curve_B(3)
    assert b.entry("delta_0") == 12
    assert pair(b, class_D(3)) == 8
    assert pair(curve_B(4), class_D(4)) == 15


def test_curve_C():
    c = curve_C(4, 1)
    assert c.entry("delta_1") == -4
    assert pair(curve_C(4, 2), class_D(4)) == 56
    assert curve_C(3, 1).entry("lambda") == 0
    with pytest.raises(ValueError):
        curve_C(4, 3)


def test_curves_B1_B2_B3():
    b1, b2, b3 = curves_B1_B2_B3(3, 1)
    w = class_W(3)
    assert pair(b2, w) == 6          # i(g-i)(i+2)
    assert pair(b1, w) == 6          # (g-i-1)(g-i)(g-i+1)
    assert b3.vector is None
    _, _, b3_42 = curves_B1_B2_B3(4, 2)
    assert b3_42.known_pairings["W"] == 6


def test_B1_B2_closed_forms():
    for g in range(3, 13):
        w = class_W(g)
        for i in range(1, g // 2 + 1):
            b1, b2, _ = curves_B1_B2_B3(g, i)
            assert pair(b1, w) == (g - i - 1) * (g - i) * (g - i + 1)
            assert pair(b2, w) == i * (g - i) * (i + 2)


def test_rhs_C_dot_D_values():
    assert rhs_C_dot_D(3, 1) == 24
    assert rhs_C_dot_D(4, 2) == 56


def test_rhs_symbolic_identity():
    # rhs agrees with 2 i (g-i)(g-i-1)(g+3) on the whole grid
    for g in range(3, 13):
        for i in range(1, g // 2 + 1):
            assert rhs_C_dot_D(g, i) == 2 * i * (g - i) * (g - i - 1) * (g + 3)


def test_compute_a_prime():
    assert compute_a_prime(3) == 10
    assert compute_a_prime(4) == Q(51, 2)
    for g in range(2, 13):
        assert compute_a_prime(g) == Q((g * g + 1) * (g - 1), 2)


def test_derive_matches_closed_form():
    assert derive_theorem_class(3) == class_D(3)
    assert derive_theorem_class(4) == class_D(4)
    g5 = derive_theorem_class(5)
    assert g5 == DivisorClass.from_map(basis(PHODGE_ABELIAN, 5), {
        "eta": Q(-120), "lambda": Q(172), "delta_0": Q(-15), "delta_1": Q(-32), "delta_2": Q(-48)})
    for g in range(2, 13):
        assert derive_theorem_class(g) == class_D(g)


def test_derive_matches_closed_form_up_to_genus_200():
    for g in [*range(13, 201, 17), 200]:
        assert derive_theorem_class(g) == class_D(g)


def test_derive_matches_closed_form_up_to_genus_1000():
    for g in [*random.Random(20181212).sample(range(201, 1001), 8), 1000]:
        assert derive_theorem_class(g) == class_D(g)


def test_derive_pairs_each_C_curve_once(monkeypatch):
    calls = []

    def counting(g, i):
        calls.append(i)
        return rhs_C_dot_D(g, i)

    monkeypatch.setattr(testcurves, "rhs_C_dot_D", counting)
    for g in range(3, 13):
        calls.clear()
        assert derive_theorem_class(g) == class_D(g)
        assert sorted(calls) == list(range(1, g // 2 + 1))


def test_derive_is_one_exact_solve(monkeypatch):
    calls = []
    solve = testcurves.solve_exact

    def counting(a, b):
        calls.append((a.rows, a.cols))
        return solve(a, b)

    monkeypatch.setattr(testcurves, "solve_exact", counting)
    for g in range(2, 13):
        calls.clear()
        assert derive_theorem_class(g) == class_D(g)
        n = g // 2 + 3
        # square for g >= 3; genus 2 has A, B, the stratum row and two
        # lambda-relation rows for four unknowns
        assert calls == [(n + 1 if g == 2 else n, n)]


def test_derive_genus2_detects_inconsistent_catalog(monkeypatch):
    def corrupted(g):
        rec = curve_B(g)
        return replace(rec, known_pairings={"D": rec.known_pairings["D"] + 1})

    monkeypatch.setattr(testcurves, "curve_B", corrupted)
    with pytest.raises(InconsistentSystem):
        derive_theorem_class(2)


def test_derive_detects_missing_test_curve(monkeypatch):
    monkeypatch.setattr(testcurves, "curve_C", lambda g, i: curve_C(g, 1))
    with pytest.raises(UnderdeterminedSystem):
        derive_theorem_class(5)


def test_derive_genus2_route():
    assert derive_theorem_class(2) == class_D(2)


def test_C_equation_holds_for_published_class():
    for g in range(3, 13):
        for i in range(1, g // 2 + 1):
            assert pair(curve_C(g, i), class_D(g)) == rhs_C_dot_D(g, i)


def test_B_equation_holds_for_published_class():
    for g in range(2, 13):
        assert pair(curve_B(g), class_D(g)) == g * g - 1


def test_moving_curve_negativity():
    for g in range(2, 13):
        records = {r.name: r for r in moving_curve_catalog(g)}
        x_irr = records["X_irr"]
        assert x_irr.entry("delta_0") == 2 - 2 * g < 0
        assert x_irr.entry("delta_1") == 1
        if g >= 3:
            for i in range(1, g // 2 + 1):
                assert records[f"X_{i}"].entry(f"delta_{i}") == 2 - 2 * (g - i) < 0
        else:
            assert records["X_pencil"].entry("delta_1") == -1


def test_genus_validation():
    for fn in (curve_A, curve_B, derive_theorem_class, moving_curve_catalog):
        with pytest.raises(ValueError):
            fn(1)


def test_each_C_pairing_is_computed_once_per_index(tmp_path, monkeypatch):
    """derive, build_catalog and write_catalog share one rhs_C_dot_D evaluation,
    which pairs B1 and B2 with W once each."""
    calls = 0

    def counted_pair(curve, cls):
        nonlocal calls
        calls += 1
        return _pair_ints(curve, cls)

    monkeypatch.setattr(testcurves, "_pair_ints", counted_pair)
    rhs_C_dot_D.cache_clear()
    for g in range(3, 13):
        derive_theorem_class(g)
        catalog.build_catalog(g)
        catalog.write_catalog([g], tmp_path / "cat.json")
        assert calls == 2 * sum(h // 2 for h in range(3, g + 1))


@pytest.mark.parametrize("call, message", [
    (lambda: curve_C(1, 1), "genus must be >= 2, got 1"),
    (lambda: curve_C(5, 3), "boundary index i=3 out of range for genus 5"),
    (lambda: rhs_C_dot_D(1, 1), "needs genus >= 3"),
    (lambda: rhs_C_dot_D(2, 1), "needs genus >= 3"),
    (lambda: rhs_C_dot_D(5, 0), "boundary index i=0 out of range for genus 5"),
    (lambda: compute_a_prime(1), "genus must be >= 2, got 1"),
], ids=["curve_C-genus", "curve_C-index", "rhs-genus-1", "rhs-genus-2", "rhs-index",
        "a_prime-genus"])
def test_genus_and_index_are_checked_by_their_owners(call, message):
    """``basis`` checks g >= 2 and ``curves_B1_B2_B3`` checks g >= 3 and the
    boundary index; the builders that call them add no check of their own."""
    with pytest.raises(ValueError, match=message):
        call()


def test_C_pairing_equals_the_sum_of_its_pairings():
    """rhs_C_dot_D, summed from integer pairings, equals the sum of the
    Fraction pairings it decomposes into, for every index up to g = 200."""
    rhs_C_dot_D.cache_clear()
    for g in range(3, 201):
        w = class_W(g)
        for i in range(1, g // 2 + 1):
            b1, b2, b3 = curves_B1_B2_B3(g, i)
            expected = ((2 * i - 2) * pair(b1, w) + (2 * g - 2 * i - 2) * pair(b2, w)
                        + 2 * b3.known_pairings["W"])
            value = rhs_C_dot_D(g, i)
            assert value == expected and type(value) is Q
