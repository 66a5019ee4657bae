"""Test-curve catalog and the coefficient-derivation pipeline.

The unknown class ``D = a*eta + b*lambda + sum c_i*delta_i`` is fixed by
one exact linear system whose rows pair D with one-parameter families of
known intersection numbers:

* curve ``A``: a line in a fiber of the projectivized bundle;
* curve ``B``: a pencil of plane cubics glued to a fixed genus g-1 curve;
* curves ``C`` (one per boundary index i >= 1): vary the attachment point of
  a genus-i component on a genus g-i component;
* curves ``B1``, ``B2``, ``B3`` in the moduli of 1-pointed curves, which
  decompose the pushforward of each C-curve and so assemble its D-pairing
  from the standard Weierstrass divisor class.

:func:`derive_theorem_class` runs the whole pipeline for any genus and must
reproduce :func:`hodgediv.picard.class_D` exactly.  Every family here gets
its basis from :func:`hodgediv.picard.basis`, which checks g >= 2, and has
integer intersection numbers, so its record is built from integer
numerators over the denominator 1.
"""

from __future__ import annotations

import functools
from fractions import Fraction as Q

from .exactq import QMatrix, solve_exact
from .picard import (
    CurveRecord,
    DivisorClass,
    MBAR_G,
    MBAR_G1,
    PHODGE_ABELIAN,
    _pair_ints,
    basis,
    class_W,
    class_stratum_abelian,
    genus2_lambda_relation,
)


def _integral(name: str, b, entries: dict[str, int],
              known_pairings: dict[str, Q] | None = None) -> CurveRecord:
    """The record of integer ``entries`` by symbol: numerators over 1."""
    nums = {b._positions[sym]: v for sym, v in entries.items()}
    if len(nums) > 1:
        nums = dict(sorted(nums.items()))
    return CurveRecord._of_ints(name, b, nums, 1, known_pairings=known_pairings)


def curve_A(g: int) -> CurveRecord:
    """A line in a fiber over a fixed general smooth curve.

    Meets eta with degree -1 and everything else with degree 0; sweeps
    through all (g-1)g(g+1) Weierstrass points, which is its known pairing
    with the Weierstrass-zero divisor D.
    """
    b = basis(PHODGE_ABELIAN, g)
    return _integral("A", b, {"eta": -1}, known_pairings={"D": Q((g - 1) * g * (g + 1))})


def curve_B(g: int) -> CurveRecord:
    """Pencil of plane cubics attached to a fixed general genus g-1 curve.

    lambda-degree 1, 12 nodal fibers, self-intersection -1 on delta_1, and
    eta-degree 0; pairs with D in g^2 - 1 points.
    """
    b = basis(PHODGE_ABELIAN, g)
    return _integral("B", b, {"lambda": 1, "delta_0": 12, "delta_1": -1},
                     known_pairings={"D": Q(g * g - 1)})


def curve_C(g: int, i: int) -> CurveRecord:
    """Vary the attachment point of a fixed genus-i curve on a genus g-i one.

    The family lies inside delta_i and meets it in the self-intersection of
    the diagonal, 2-2(g-i); all other basis degrees vanish.  Its D-pairing
    is the decomposition :func:`rhs_C_dot_D`.
    """
    b = basis(PHODGE_ABELIAN, g)
    if not 1 <= i <= g // 2:
        raise ValueError(f"boundary index i={i} out of range for genus {g}")
    return _integral(f"C_{i}", b, {f"delta_{i}": 2 - 2 * (g - i)},
                     known_pairings={"D": rhs_C_dot_D(g, i)})


def curves_B1_B2_B3(g: int, i: int) -> tuple[CurveRecord, CurveRecord, CurveRecord]:
    """The three 1-pointed families decomposing the pushforward of curve C.

    ``B1`` moves the node seen from the marked genus-i side, ``B2`` moves a
    marked point into the node, and ``B3`` is the mirror of ``B1``; only its
    pairing with the Weierstrass divisor is committed, not an intersection
    vector.
    """
    if g < 3:
        raise ValueError("the B1/B2/B3 decomposition needs genus >= 3")
    if not 1 <= i <= g // 2:
        raise ValueError(f"boundary index i={i} out of range for genus {g}")
    b = basis(MBAR_G1, g)
    b1 = _integral("B1", b, {f"delta_{i}m": 2 - 2 * (g - i)})
    # delta_im and delta_{g-i}m coincide when g = 2i; accumulate.
    b2_entries = {"psi": 1, f"delta_{i}m": 1}
    key = f"delta_{g - i}m"
    b2_entries[key] = b2_entries.get(key, 0) + 1 - 2 * g + 2 * i
    b2 = _integral("B2", b, b2_entries)
    b3 = CurveRecord(
        "B3", b, None,
        known_pairings={"W": Q((g - i - 1) * (g - i) * (g - i + 1))})
    return b1, b2, b3


@functools.cache
def rhs_C_dot_D(g: int, i: int) -> Q:
    """C.D assembled from the three 1-pointed families:

    (2i-2) B1.W + (2g-2i-2) B2.W + 2 B3.W.

    B1.W and B2.W are computed as dot products of integer forms against the
    Weierstrass class; B3.W comes from its recorded pairing; one Fraction is
    built from the sum.  :func:`curves_B1_B2_B3` checks g and i.

    Memoized: the value is a pure function of ``(g, i)`` and an immutable
    Fraction, and both :func:`derive_theorem_class` and the catalog's
    C-curve records need it, so one evaluation per ``(g, i)`` builds the
    three families and pairs them once.
    """
    b1, b2, b3 = curves_B1_B2_B3(g, i)
    w = class_W(g)
    (n1, d1), (n2, d2) = _pair_ints(b1, w), _pair_ints(b2, w)
    n3, d3 = b3.known_pairings["W"].as_integer_ratio()
    return Q(((2 * i - 2) * n1 * d2 + (2 * g - 2 * i - 2) * n2 * d1) * d3 + 2 * n3 * d1 * d2,
             d1 * d2 * d3)


def compute_a_prime(g: int) -> Q:
    """eta-degree of D restricted to the open stratum of simple zeros.

    The pullback of the 1-pointed Weierstrass divisor to the simple-zero
    incidence stratum is (g-1)g(g+1)/2 eta - (2g-2) lambda; restricting to
    that stratum lets us eliminate lambda via lambda = (g-1)/4 eta, leaving
    a pure eta multiple whose coefficient is returned.
    """
    if g < 2:
        raise ValueError(f"genus must be >= 2, got {g}")
    eta_coeff = Q((g - 1) * g * (g + 1), 2)
    lambda_coeff = Q(-(2 * g - 2))
    # lambda = (g-1)/4 eta on the simple-zero stratum
    return eta_coeff + lambda_coeff * Q(g - 1, 4)


def derive_theorem_class(g: int) -> DivisorClass:
    """Re-derive the class of D with one call to :func:`solve_exact`.

    Rows, over ``[eta, lambda, delta_0, ...]`` and in this order: the
    vectors of curves A and B, each equal to its known D-pairing; the
    stratum expansion ``S_lambda a - S_eta b = S_lambda a'`` over the
    double-zero stratum class S; in genus 2, ``r_j b + c_j = r_j S_lambda +
    S_delta_j`` for each term of the lambda relation ``lambda = sum r_j
    delta_j`` (D and S agree under it; the system is then overdetermined,
    so a catalog error raises ``InconsistentSystem``); for g >= 3 the
    vectors of curves C_1, ..., C_{g//2}.  In that order each column's pivot
    is the first remaining row.  Rows are passed as their nonzero entries.
    """
    b_spec = basis(PHODGE_ABELIAN, g)
    curves = [curve_A(g), curve_B(g)]
    rows = [rec.nonzero for rec in curves]
    rhs = [rec.known_pairings["D"] for rec in curves]
    stratum = class_stratum_abelian(g).nonzero  # by position: eta 0, lambda 1
    s_eta, s_lambda = stratum[0], stratum[1]
    rows.append({0: s_lambda, 1: -s_eta})
    rhs.append(s_lambda * compute_a_prime(g))
    if g == 2:
        for j, r in genus2_lambda_relation().nonzero.items():
            rows.append({1: r, j: 1})
            rhs.append(r * s_lambda + stratum.get(j, 0))
    curves = [curve_C(g, i) for i in range(1, g // 2 + 1)] if g >= 3 else []
    rows += [rec.nonzero for rec in curves]
    rhs += [rec.known_pairings["D"] for rec in curves]
    a = QMatrix(len(rows), len(b_spec.symbols), tuple(rows))
    return DivisorClass(b_spec, solve_exact(a, rhs))


def moving_curve_catalog(g: int) -> list[CurveRecord]:
    """Moving curves in the boundary divisors of the moduli of curves.

    ``X_irr`` glues a fixed point of a genus g-1 curve to a varying one;
    ``X_i`` varies the attachment point of a genus-i tail (g >= 3); in
    genus 2 the pencil of plane cubics attached to an elliptic curve serves
    as the moving curve in delta_1.
    """
    b = basis(MBAR_G, g)
    records = [_integral("X_irr", b, {"delta_0": 2 - 2 * g, "delta_1": 1})]
    if g >= 3:
        for i in range(1, g // 2 + 1):
            records.append(_integral(f"X_{i}", b, {f"delta_{i}": 2 - 2 * (g - i)}))
    else:
        records.append(_integral("X_pencil", b, {"lambda": 1, "delta_0": 12, "delta_1": -1}))
    return records
