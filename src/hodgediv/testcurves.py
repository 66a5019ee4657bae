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
reproduce :func:`hodgediv.picard.class_D` exactly.
"""

from __future__ import annotations

from fractions import Fraction as Q

from .exactq import QMatrix, solve_exact
from .picard import (
    CurveRecord,
    DivisorClass,
    MBAR_G,
    MBAR_G1,
    PHODGE_ABELIAN,
    basis,
    class_W,
    class_stratum_abelian,
    genus2_lambda_relation,
    pair,
)


def _check_genus(g: int):
    if g < 2:
        raise ValueError(f"genus must be >= 2, got {g}")


def curve_A(g: int) -> CurveRecord:
    """A line in a fiber over a fixed general smooth curve.

    Meets eta with degree -1 and everything else with degree 0; sweeps
    through all (g-1)g(g+1) Weierstrass points, which is its known pairing
    with the Weierstrass-zero divisor D.
    """
    _check_genus(g)
    b = basis(PHODGE_ABELIAN, g)
    return CurveRecord.from_map(
        "A", b, {"eta": Q(-1)},
        known_pairings={"D": Q((g - 1) * g * (g + 1))})


def curve_B(g: int) -> CurveRecord:
    """Pencil of plane cubics attached to a fixed general genus g-1 curve.

    lambda-degree 1, 12 nodal fibers, self-intersection -1 on delta_1, and
    eta-degree 0; pairs with D in g^2 - 1 points.
    """
    _check_genus(g)
    b = basis(PHODGE_ABELIAN, g)
    return CurveRecord.from_map(
        "B", b, {"lambda": Q(1), "delta_0": Q(12), "delta_1": Q(-1)},
        known_pairings={"D": Q(g * g - 1)})


def curve_C(g: int, i: int) -> CurveRecord:
    """Vary the attachment point of a fixed genus-i curve on a genus g-i one.

    The family lies inside delta_i and meets it in the self-intersection of
    the diagonal, 2-2(g-i); all other basis degrees vanish.  Its D-pairing
    is the decomposition :func:`rhs_C_dot_D`.
    """
    _check_genus(g)
    if not 1 <= i <= g // 2:
        raise ValueError(f"boundary index i={i} out of range for genus {g}")
    b = basis(PHODGE_ABELIAN, g)
    return CurveRecord.from_map(
        f"C_{i}", b, {f"delta_{i}": Q(2 - 2 * (g - i))},
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
    b1 = CurveRecord.from_map("B1", b, {f"delta_{i}m": Q(2 - 2 * (g - i))})
    # delta_im and delta_{g-i}m coincide when g = 2i; accumulate.
    b2_entries: dict[str, Q] = {"psi": Q(1)}
    b2_entries[f"delta_{i}m"] = Q(1)
    key = f"delta_{g - i}m"
    b2_entries[key] = b2_entries.get(key, Q(0)) + Q(1 - 2 * g + 2 * i)
    b2 = CurveRecord.from_map("B2", b, b2_entries)
    b3 = CurveRecord(
        "B3", b, None,
        known_pairings={"W": Q((g - i - 1) * (g - i) * (g - i + 1))})
    return b1, b2, b3


def rhs_C_dot_D(g: int, i: int) -> Q:
    """C.D assembled from the three 1-pointed families:

    (2i-2) B1.W + (2g-2i-2) B2.W + 2 B3.W.

    B1.W and B2.W are computed as dot products against the Weierstrass
    class; B3.W comes from its recorded pairing.
    """
    _check_genus(g)
    if not 1 <= i <= g // 2:
        raise ValueError(f"boundary index i={i} out of range for genus {g}")
    b1, b2, b3 = curves_B1_B2_B3(g, i)
    w = class_W(g)
    return (Q(2 * i - 2) * pair(b1, w)
            + Q(2 * g - 2 * i - 2) * pair(b2, w)
            + Q(2) * b3.known_pairings["W"])


def compute_a_prime(g: int) -> Q:
    """eta-degree of D restricted to the open stratum of simple zeros.

    The pullback of the 1-pointed Weierstrass divisor to the simple-zero
    incidence stratum is (g-1)g(g+1)/2 eta - (2g-2) lambda; restricting to
    that stratum lets us eliminate lambda via lambda = (g-1)/4 eta, leaving
    a pure eta multiple whose coefficient is returned.
    """
    _check_genus(g)
    eta_coeff = Q((g - 1) * g * (g + 1), 2)
    lambda_coeff = Q(-(2 * g - 2))
    # lambda = (g-1)/4 eta on the simple-zero stratum
    return eta_coeff + lambda_coeff * Q(g - 1, 4)


def derive_theorem_class(g: int) -> DivisorClass:
    """Re-derive the class of D with one call to :func:`solve_exact`.

    Rows, over ``[eta, lambda, delta_0, ...]``: the vectors of curves A, B
    and (g >= 3) C_i, each equal to its known D-pairing; the stratum
    expansion ``S_lambda a - S_eta b = S_lambda a'`` over the double-zero
    stratum class S; in genus 2, ``r_j b + c_j = r_j S_lambda + S_delta_j``
    for each term of the lambda relation ``lambda = sum r_j delta_j`` (D and
    S agree under it).  That system is overdetermined, so a catalog error
    raises ``InconsistentSystem``.
    """
    _check_genus(g)
    b_spec = basis(PHODGE_ABELIAN, g)
    curves = [curve_A(g), curve_B(g)]
    if g >= 3:
        curves += [curve_C(g, i) for i in range(1, g // 2 + 1)]
    rows = [rec.vector for rec in curves]
    rhs = [rec.known_pairings["D"] for rec in curves]

    stratum = class_stratum_abelian(g)
    s_eta, s_lambda = stratum.coefficient("eta"), stratum.coefficient("lambda")
    rows.append(DivisorClass.from_map(b_spec, {"eta": s_lambda, "lambda": -s_eta}).coeffs)
    rhs.append(s_lambda * compute_a_prime(g))
    if g == 2:
        for sym, r in genus2_lambda_relation().as_map().items():
            if r:
                rows.append(DivisorClass.from_map(b_spec, {"lambda": r, sym: Q(1)}).coeffs)
                rhs.append(r * s_lambda + stratum.coefficient(sym))
    return DivisorClass(b_spec, solve_exact(QMatrix.from_rows(rows), rhs))


def moving_curve_catalog(g: int) -> list[CurveRecord]:
    """Moving curves in the boundary divisors of the moduli of curves.

    ``X_irr`` glues a fixed point of a genus g-1 curve to a varying one;
    ``X_i`` varies the attachment point of a genus-i tail (g >= 3); in
    genus 2 the pencil of plane cubics attached to an elliptic curve serves
    as the moving curve in delta_1.
    """
    _check_genus(g)
    b = basis(MBAR_G, g)
    records = [CurveRecord.from_map(
        "X_irr", b, {"delta_0": Q(2 - 2 * g), "delta_1": Q(1)})]
    if g >= 3:
        for i in range(1, g // 2 + 1):
            records.append(CurveRecord.from_map(
                f"X_{i}", b, {f"delta_{i}": Q(2 - 2 * (g - i))}))
    else:
        records.append(CurveRecord.from_map(
            "X_pencil", b, {"lambda": Q(1), "delta_0": Q(12), "delta_1": Q(-1)}))
    return records
