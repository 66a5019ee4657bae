"""Independent closed forms that the benchmark checks program outputs against.

Nothing here imports hodgediv: every expected value is recomputed from the
paper's formulas with ``fractions.Fraction``, so a wrong result in the
program cannot also be wrong in its oracle.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import factorial, prod


def phodge_symbols(g: int) -> tuple[str, ...]:
    return ("eta", "lambda") + tuple(f"delta_{i}" for i in range(g // 2 + 1))


def class_D(g: int) -> dict[str, Q]:
    """-(g-1)g(g+1) eta + 2(3g^2+2g+1) lambda - g(g+1)/2 delta_0
    + sum_{i>=1} (g+3) i (i-g) delta_i."""
    out = {"eta": Q(-(g - 1) * g * (g + 1)), "lambda": Q(2 * (3 * g * g + 2 * g + 1)),
           "delta_0": Q(-g * (g + 1), 2)}
    for i in range(1, g // 2 + 1):
        out[f"delta_{i}"] = Q((g + 3) * i * (i - g))
    return out


def stratum_abelian(g: int) -> dict[str, Q]:
    """24 lambda - (6g-6) eta - 2 delta_0 - 3 sum_{i>=1} delta_i."""
    out = {"eta": Q(-(6 * g - 6)), "lambda": Q(24), "delta_0": Q(-2)}
    for i in range(1, g // 2 + 1):
        out[f"delta_{i}"] = Q(-3)
    return out


def stratum_quadratic(g: int) -> dict[str, Q]:
    """72 lambda - 10(g-1) eta - 6 sum_{i>=0} delta_i."""
    out = {"eta": Q(-10 * (g - 1)), "lambda": Q(72)}
    for i in range(g // 2 + 1):
        out[f"delta_{i}"] = Q(-6)
    return out


def class_W(g: int) -> dict[str, Q]:
    """g(g+1)/2 psi - lambda - sum_{i=1}^{g-1} (g-i)(g-i+1)/2 delta_im."""
    out = {"lambda": Q(-1), "psi": Q(g * (g + 1), 2)}
    for i in range(1, g):
        out[f"delta_{i}m"] = Q(-(g - i) * (g - i + 1), 2)
    return out


CATALOG_CLASSES = {
    "D": class_D,
    "stratum_abelian_double_zero": stratum_abelian,
    "stratum_quadratic_double_zero": stratum_quadratic,
    "W": class_W,
}


def render(x) -> str:
    """``p/q`` text of a rational, ``p`` when it is an integer."""
    x = Q(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def power_integral(dims, coeffs) -> Q:
    """Degree of (sum c_j h_j)^N on P^{n_1} x ... x P^{n_k}, N = sum n_j:
    the multinomial N!/prod n_j! times prod c_j^{n_j}."""
    n = sum(dims)
    return Q(factorial(n) // prod(factorial(d) for d in dims)
             * prod(c ** d for c, d in zip(coeffs, dims)))


def pencil_genus_and_base_points(base: str, cls: tuple[int, ...]) -> tuple[int, int]:
    """Adjunction: a plane curve of degree d has genus (d-1)(d-2)/2 and a
    pencil of them d^2 base points; a (a, b) curve on P1xP1 has genus
    (a-1)(b-1) and a pencil of them 2ab base points."""
    if base == "P2":
        (d,) = cls
        return (d - 1) * (d - 2) // 2, d * d
    a, b = cls
    return (a - 1) * (b - 1), 2 * a * b


def adjoint_coeffs(base: str, cls: tuple[int, ...]) -> tuple[int, ...]:
    """K_base + C: (d-3)h on P2, (a-2, b-2) on P1xP1."""
    if base == "P2":
        return (cls[0] - 3,)
    return (cls[0] - 2, cls[1] - 2)


def kappa_mu(kind: str, g: int) -> Q:
    """kappa_mu of the double-zero stratum: (2, 1^{2g-4}) abelian, with
    1/12 sum m(m+2)/(m+1); (2, 1^{4g-6}) quadratic, with 1/24 sum d(d+4)/(d+2)."""
    if kind == "abelian":
        return (Q(8, 3) + (2 * g - 4) * Q(3, 2)) / 12
    return (Q(12, 4) + (4 * g - 6) * Q(5, 3)) / 24


def threshold_denominators(kind, g, a, b, c, cmax) -> tuple[Q, Q]:
    """Endpoint values of the threshold denominator: over L in [0, g] for
    the abelian stratum (ample a lambda + b eta + c delta_0), over c_area in
    [0, cmax] for the quadratic one (ample with uniform boundary c)."""
    km = kappa_mu(kind, g)
    if kind == "abelian":
        return tuple(3 * (b - 12 * c * km) + 3 * (a + 12 * c) * x for x in (Q(0), Q(g)))
    return tuple(2 * b + a * km + (12 * c + a) * x for x in (Q(0), Q(cmax)))


def threshold(kind, g, a, b, c, cmax) -> Q | None:
    """The sound threshold d, or None where a denominator is not positive
    at an endpoint (the program must then raise NonPositiveDenominator)."""
    dens = threshold_denominators(kind, g, a, b, c, cmax)
    if min(dens) <= 0:
        return None
    return (Q(2) if kind == "abelian" else Q(1)) / max(dens)


def teich_vector(kind: str, g: int, chi: Q, param: Q) -> dict[str, Q]:
    """Abelian (param = L): eta chi/2, lambda chi L/2, delta_0
    (chi/2)(12L - 12 kappa_mu).  Quadratic (param = c_area): eta chi, lambda
    (chi/2)(c_area + kappa_mu), total boundary 6 chi c_area."""
    km = kappa_mu(kind, g)
    if kind == "abelian":
        return {"eta": chi / 2, "lambda": chi * param / 2,
                "delta_0": (chi / 2) * (12 * param - 12 * km)}
    return {"eta": chi, "lambda": (chi / 2) * (param + km), "total_delta": 6 * chi * param}


def stratum_pairing(kind: str, chi: Q) -> Q:
    """Pairing of any Teichmueller curve with the double-zero stratum."""
    return -chi / 3 if kind == "abelian" else -chi / 2


def ample_coeffs(kind: str, g: int, a: Q, b: Q, c: Q) -> dict[str, Q]:
    if kind == "abelian":
        return {"lambda": a, "eta": b, "delta_0": c}
    return {"lambda": a, "eta": b, **{f"delta_{i}": c for i in range(g // 2 + 1)}}


def pair(vector: dict[str, Q], cls: dict[str, Q]) -> Q:
    """Dot product; a ``total_delta`` entry pairs with the (uniform)
    boundary coefficient."""
    total = sum((v * cls.get(s, Q(0)) for s, v in vector.items() if s != "total_delta"), Q(0))
    if "total_delta" in vector:
        total += vector["total_delta"] * cls["delta_0"]
    return total
