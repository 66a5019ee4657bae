from fractions import Fraction as Q

import pytest

from hodgediv.chow import MultiProjRing, chow_integrate, lattice_intersect, pencil_family
from hodgediv.picard import CurveRecord, basis, class_D, pair, PHODGE_ABELIAN
from hodgediv.porteous import (
    FamilyInvariants,
    eta_degree_from_family,
    family_invariants,
    kappa_degree,
    lambda_degree,
    principal_parts_c1,
    singular_fiber_count,
    weierstrass_family_class,
    weierstrass_sweep_degree,
)

QUARTIC = pencil_family("P2", 4)
CUBIC = pencil_family("P2", 3)
GENUS4 = pencil_family("P1xP1", (3, 3))


def test_principal_parts():
    omega = GENUS4.omega_rel
    assert principal_parts_c1(4, omega, omega) == 10 * omega
    assert principal_parts_c1(1, omega, omega) == omega
    assert principal_parts_c1(3, omega, omega) == 6 * omega
    with pytest.raises(ValueError):
        principal_parts_c1(0, omega, omega)


def test_principal_parts_telescoping():
    # c1(P^k) = c1(P^{k-1}) + c1(L) + (k-1) c1(omega)
    L = QUARTIC.pullback([2])
    omega = QUARTIC.omega_rel
    for k in range(2, 11):
        lhs = principal_parts_c1(k, L, omega)
        rhs = principal_parts_c1(k - 1, L, omega) + L + (k - 1) * omega
        assert lhs == rhs


def test_weierstrass_family_class():
    inv4 = family_invariants(GENUS4)
    w = weierstrass_family_class(inv4)
    expected = 10 * GENUS4.omega_rel - 4 * GENUS4.f
    assert w == expected

    inv3 = family_invariants(QUARTIC)
    w3 = weierstrass_family_class(inv3)
    assert w3 == 6 * QUARTIC.omega_rel - 3 * QUARTIC.f

    zero_lambda = FamilyInvariants(4, Q(0), GENUS4)
    assert weierstrass_family_class(zero_lambda) == 10 * GENUS4.omega_rel


def test_weierstrass_omega_coefficient_matches_marked_point_count():
    from hodgediv.picard import class_W
    for g in range(2, 11):
        # jet count g(g+1)/2 is the same Chern-class coefficient as the
        # psi coefficient of the marked-Weierstrass divisor class
        assert principal_parts_c1(g, GENUS4.omega_rel, GENUS4.omega_rel) == \
            Q(g * (g + 1), 2) * GENUS4.omega_rel
        assert class_W(g).coefficient("psi") == Q(g * (g + 1), 2)


def test_sweep_degrees():
    assert weierstrass_sweep_degree(family_invariants(QUARTIC), QUARTIC.pullback([1])) == 18
    assert weierstrass_sweep_degree(family_invariants(GENUS4), GENUS4.pullback([1, 1])) == 56


def test_sweep_chow_oracle():
    ring = MultiProjRing((1, 3))
    alpha, beta = ring.generators()
    surface = (2 * beta) * (alpha + 3 * beta)
    sweep = 10 * (alpha + beta) - 4 * alpha
    assert chow_integrate(sweep * beta * surface) == 56


def test_eta_degrees():
    assert eta_degree_from_family(QUARTIC, QUARTIC.pullback([1])) == 1
    assert eta_degree_from_family(GENUS4, GENUS4.pullback([1, 1])) == 1
    assert eta_degree_from_family(GENUS4, GENUS4.omega_rel) == 0


def test_kappa_degrees():
    assert kappa_degree(GENUS4) == 14
    assert kappa_degree(QUARTIC) == 9
    assert kappa_degree(CUBIC) == 0


def test_singular_fiber_counts():
    assert singular_fiber_count(QUARTIC) == 27
    assert singular_fiber_count(GENUS4) == 34
    assert singular_fiber_count(CUBIC) == 12


def test_lambda_degrees():
    assert lambda_degree(GENUS4) == 4
    assert lambda_degree(QUARTIC) == 3
    assert lambda_degree(CUBIC) == 1


@pytest.mark.parametrize("fam,g,ample,expected", [
    (QUARTIC, 3, [1], 18),
    (GENUS4, 4, [1, 1], 56),
])
def test_class_pairing_agrees_with_sweep(fam, g, ample, expected):
    b = basis(PHODGE_ABELIAN, g)
    rec = CurveRecord.from_map("B", b, {
        "eta": eta_degree_from_family(fam, fam.pullback(ample)),
        "lambda": lambda_degree(fam),
        "delta_0": singular_fiber_count(fam),
    })
    assert pair(rec, class_D(g)) == expected
    assert weierstrass_sweep_degree(family_invariants(fam), fam.pullback(ample)) == expected


def test_cubic_pencil_matches_elliptic_test_curve():
    # lambda = 1, delta_0 = 12, kappa = 12*lambda - delta = 0
    assert lambda_degree(CUBIC) == 1
    assert singular_fiber_count(CUBIC) == 12
    assert kappa_degree(CUBIC) == 12 * lambda_degree(CUBIC) - singular_fiber_count(CUBIC)


def test_family_invariants_validation():
    with pytest.raises(ValueError):
        FamilyInvariants(0, Q(1), GENUS4)
    with pytest.raises(ValueError):
        FamilyInvariants(4, Q(-1), GENUS4)
