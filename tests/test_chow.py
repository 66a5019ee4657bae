from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from hodgediv.chow import (
    BlowUpLattice,
    MultiProjRing,
    adjunction_canonical,
    chow_integrate,
    chow_mul,
    lattice_intersect,
    linear_class,
    pencil_family,
    relative_dualizing_linear,
)
from hodgediv.chowexpr import MAX_NESTING, ExpressionError, evaluate

RING = MultiProjRing((1, 3))
ALPHA, BETA = RING.generators()


def small_elements(ring):
    coeff = st.integers(min_value=-4, max_value=4)
    exps = st.tuples(*(st.integers(min_value=0, max_value=n) for n in ring.dims))
    return st.dictionaries(exps, coeff, max_size=4).map(
        lambda d: ring.zero() + sum((c * _mono(ring, e) for e, c in d.items()), ring.zero()))


def _mono(ring, e):
    out = ring.one()
    for j, k in enumerate(e):
        out = out * ring.generator(j) ** k
    return out


def test_truncation():
    assert ALPHA * ALPHA == RING.zero()
    assert (BETA ** 4).terms == {}


def test_product_expansion():
    # (alpha + beta)^2 = 2 alpha beta + beta^2 since alpha^2 truncates
    sq = (ALPHA + BETA) ** 2
    assert sq == 2 * ALPHA * BETA + BETA * BETA


def test_multiplicative_identity():
    x = 3 * ALPHA + 2 * BETA ** 2
    assert chow_mul(RING.one(), x) == x


def test_integrate_worked_product():
    prod = (ALPHA + BETA) * (ALPHA + BETA) * (ALPHA + 3 * BETA) * (2 * BETA)
    assert chow_integrate(prod) == 14


def test_integrate_normalization():
    assert chow_integrate(ALPHA * BETA ** 3) == 1
    assert chow_integrate(BETA ** 4) == 0


@given(small_elements(RING), small_elements(RING), small_elements(RING))
def test_ring_axioms(x, y, z):
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(small_elements(RING), small_elements(RING), st.integers(-5, 5))
def test_integrate_multilinear(x, y, t):
    assert chow_integrate((t * x) * y) == t * chow_integrate(x * y)
    assert chow_integrate(x * y + x * x) == chow_integrate(x * y) + chow_integrate(x * x)


def test_adjunction():
    assert adjunction_canonical(RING, [(0, 2)]).linear_coefficients() == (Q(-2), Q(-2))
    assert adjunction_canonical(RING, [(0, 2), (1, 3)]).linear_coefficients() == (Q(-1), Q(1))
    p2 = MultiProjRing((2,))
    assert adjunction_canonical(p2, [(4,)]).linear_coefficients() == (Q(1),)


def test_adjunction_rejects_nonlinear():
    with pytest.raises(ValueError):
        adjunction_canonical(RING, [BETA * BETA])


def test_relative_dualizing():
    omega_x = linear_class(RING, (-1, 1))
    assert relative_dualizing_linear(omega_x, 0).linear_coefficients() == (Q(1), Q(1))
    assert relative_dualizing_linear(linear_class(RING, (-2, -2)), 0).linear_coefficients() == (Q(0), Q(-2))
    # subtract-then-add round trip
    back = relative_dualizing_linear(omega_x - linear_class(RING, (2, 0)) + linear_class(RING, (2, 0)), 0)
    assert back == relative_dualizing_linear(omega_x, 0)


def test_relative_dualizing_needs_p1_base():
    with pytest.raises(ValueError):
        relative_dualizing_linear(linear_class(RING, (0, 1)), 1)


def test_lattice_basics():
    lat = BlowUpLattice(("l1", "l2"), ((0, 1), (1, 0)), 3)
    e1 = lat.exceptional(0)
    assert lattice_intersect(e1, e1) == -1
    assert lattice_intersect(e1, lat.exceptional(1)) == 0
    l1 = lat.cls((1, 0))
    l2 = lat.cls((0, 1))
    assert lattice_intersect(l1, l2) == 1
    assert lattice_intersect(l1, l1) == 0
    assert lattice_intersect(l1, e1) == 0


def test_lattice_mismatch():
    lat1 = BlowUpLattice(("h",), ((1,),), 1)
    lat2 = BlowUpLattice(("h",), ((1,),), 2)
    with pytest.raises(ValueError):
        lattice_intersect(lat1.exceptional(0), lat2.exceptional(0))


def test_quartic_pencil():
    fam = pencil_family("P2", 4)
    assert fam.base_points == 16
    assert fam.genus == 3
    assert lattice_intersect(fam.omega_rel, fam.f) == 4
    assert fam.omega_rel.coeffs[0] == 5  # 5h - sum E_i
    assert all(c == -1 for c in fam.f.coeffs[1:])


def test_genus4_pencil():
    fam = pencil_family("P1xP1", (3, 3))
    assert fam.base_points == 18
    assert fam.genus == 4
    assert fam.omega_rel.coeffs[:2] == (Q(4), Q(4))
    assert lattice_intersect(fam.omega_rel, fam.f) == 6


def test_cubic_pencil():
    fam = pencil_family("P2", 3)
    assert fam.base_points == 9
    assert fam.genus == 1
    assert lattice_intersect(fam.omega_rel, fam.f) == 0


@pytest.mark.parametrize("base,cls", [("P2", 3), ("P2", 4), ("P1xP1", (3, 3))])
def test_fibration_identities(base, cls):
    fam = pencil_family(base, cls)
    assert lattice_intersect(fam.f, fam.f) == 0
    assert lattice_intersect(fam.omega_rel, fam.f) == 2 * fam.genus - 2


def test_pencil_rejects_non_ample():
    with pytest.raises(ValueError):
        pencil_family("P2", 0)
    with pytest.raises(ValueError):
        pencil_family("P1xP1", (3, 0))


def test_ruling_pullback_identity():
    # bl*(l1 + l2) as a base class pairs with f + sum E_i scaled by 1/3,
    # checked as a lattice equation against the stated decomposition
    fam = pencil_family("P1xP1", (3, 3))
    lhs = fam.pullback([1, 1])
    rhs = Q(1, 3) * fam.f + Q(1, 3) * fam.lattice.cls((0, 0), Q(1))
    probes = [fam.f, fam.omega_rel, lhs, fam.lattice.exceptional(0)]
    for p in probes:
        assert lattice_intersect(lhs, p) == lattice_intersect(rhs, p)
    assert lhs.coeffs == rhs.coeffs


def test_genus4_kappa_cross_validation():
    fam = pencil_family("P1xP1", (3, 3))
    lattice_side = lattice_intersect(fam.omega_rel, fam.omega_rel)
    chow_side = chow_integrate(
        (ALPHA + BETA) * (ALPHA + BETA) * (ALPHA + 3 * BETA) * (2 * BETA))
    assert lattice_side == chow_side == 14


def test_expression_nesting_limit():
    ring = MultiProjRing((1,))
    n = MAX_NESTING
    assert chow_integrate(evaluate("(" * n + "a" + ")" * n, ring)) == 1
    assert chow_integrate(evaluate("0+" + "-" * n + "a", ring)) == 1
    # parentheses and unary minus share one depth count
    with pytest.raises(ExpressionError, match="deeper than"):
        evaluate("(-" * (n // 2) + "(a" + ")" * (n // 2 + 1), ring)
    with pytest.raises(ExpressionError, match="deeper than"):
        evaluate("(" * (n + 1) + "a" + ")" * (n + 1), ring)
    with pytest.raises(ExpressionError, match="deeper than"):
        evaluate("-" * (n + 1) + "a", ring)
