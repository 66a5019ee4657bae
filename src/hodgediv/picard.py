"""Rational Picard-group bases and the divisor-class catalog.

Four families of spaces occur:

* ``PHodgeAbelian(g)``  -- the projectivized bundle of abelian differentials
  over the moduli of stable genus-g curves; basis ``[eta, lambda, delta_0,
  ..., delta_{g//2}]``.
* ``PHodgeQuadratic(g)`` -- same basis convention, for quadratic
  differentials.
* ``MbarG1(g)`` -- moduli of 1-pointed stable curves; basis ``[lambda, psi,
  delta_1m, ..., delta_{g-1}m]`` where ``delta_im`` is the boundary divisor
  whose genus-i component carries the marked point.
* ``MbarG(g)`` -- moduli of stable curves; basis ``[lambda, delta_0, ...,
  delta_{g//2}]``, optionally extended by the eliminable symbols ``kappa``
  and ``delta`` (total boundary).

A :class:`DivisorClass` is just a coefficient vector over one of these
bases; classes over different bases never coerce silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cache
from math import gcd

PHODGE_ABELIAN = "PHodgeAbelian"
PHODGE_QUADRATIC = "PHodgeQuadratic"
MBAR_G1 = "MbarG1"
MBAR_G = "MbarG"
MBAR_G_EXT = "MbarGExt"

SPACE_KINDS = (PHODGE_ABELIAN, PHODGE_QUADRATIC, MBAR_G1, MBAR_G, MBAR_G_EXT)


@dataclass(frozen=True)
class BasisSpec:
    space_kind: str
    genus: int
    symbols: tuple[str, ...]
    # symbol -> position, derived from ``symbols``; not part of the value.
    _positions: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_positions", {s: i for i, s in enumerate(self.symbols)})

    def index(self, symbol: str) -> int:
        try:
            return self._positions[symbol]
        except KeyError:
            raise KeyError(f"symbol {symbol!r} not in basis {self.space_kind}({self.genus})") from None


@cache
def basis(space_kind: str, g: int) -> BasisSpec:
    """Ordered symbol list for the rational Picard group of the given space."""
    if g < 2:
        raise ValueError(f"genus must be >= 2, got {g}")
    if space_kind in (PHODGE_ABELIAN, PHODGE_QUADRATIC):
        syms = ("eta", "lambda") + tuple(f"delta_{i}" for i in range(g // 2 + 1))
    elif space_kind == MBAR_G1:
        syms = ("lambda", "psi") + tuple(f"delta_{i}m" for i in range(1, g))
    elif space_kind == MBAR_G:
        syms = ("lambda",) + tuple(f"delta_{i}" for i in range(g // 2 + 1))
    elif space_kind == MBAR_G_EXT:
        syms = ("lambda",) + tuple(f"delta_{i}" for i in range(g // 2 + 1)) + ("kappa", "delta")
    else:
        raise ValueError(f"unknown space kind {space_kind!r}")
    return BasisSpec(space_kind, g, syms)


@dataclass(frozen=True)
class DivisorClass:
    basis: BasisSpec
    coeffs: tuple[Q, ...]

    def __post_init__(self):
        if len(self.coeffs) != len(self.basis.symbols):
            raise ValueError("coefficient count does not match basis size")
        object.__setattr__(self, "coeffs",
                           tuple(c if isinstance(c, Q) else Q(c) for c in self.coeffs))

    @classmethod
    def from_map(cls, b: BasisSpec, coeffs: dict[str, Q]) -> "DivisorClass":
        vec = [Q(0)] * len(b.symbols)
        for sym, c in coeffs.items():
            vec[b.index(sym)] = c
        return cls(b, tuple(vec))

    @classmethod
    def zero(cls, b: BasisSpec) -> "DivisorClass":
        return cls(b, (Q(0),) * len(b.symbols))

    def coefficient(self, symbol: str) -> Q:
        return self.coeffs[self.basis.index(symbol)]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check_basis(self, other: "DivisorClass"):
        if self.basis != other.basis:
            raise ValueError("divisor classes live over different bases")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_basis(other)
        return DivisorClass(self.basis, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_basis(other)
        return DivisorClass(self.basis, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.basis, tuple(-a for a in self.coeffs))

    def scale(self, t) -> "DivisorClass":
        t = Q(t)
        return DivisorClass(self.basis, tuple(t * a for a in self.coeffs))

    __rmul__ = scale
    __mul__ = scale

    def as_map(self) -> dict[str, Q]:
        return dict(zip(self.basis.symbols, self.coeffs))

    def __str__(self) -> str:
        terms = [f"({c})*{s}" for s, c in zip(self.basis.symbols, self.coeffs) if c != 0]
        return " + ".join(terms) if terms else "0"


@dataclass(frozen=True)
class CurveRecord:
    """A one-parameter family recorded by its intersection numbers.

    ``vector`` pairs against explicit basis coefficients; ``total_delta``
    instead records a single pairing with the total boundary, usable only
    against classes whose boundary coefficients are all equal.  A record
    may carry known pairings with named divisors whose class is unknown
    (e.g. the curve ``B3``, whose individual intersection numbers are not
    committed).
    """

    name: str
    basis: BasisSpec
    vector: tuple[Q, ...] | None
    known_pairings: dict[str, Q] = field(default_factory=dict)
    total_delta: Q | None = None

    def __post_init__(self):
        if self.vector is not None:
            if len(self.vector) != len(self.basis.symbols):
                raise ValueError("intersection vector length does not match basis size")
            object.__setattr__(self, "vector",
                               tuple(v if isinstance(v, Q) else Q(v) for v in self.vector))
        if self.total_delta is not None and not isinstance(self.total_delta, Q):
            object.__setattr__(self, "total_delta", Q(self.total_delta))

    @classmethod
    def from_map(cls, name: str, b: BasisSpec, entries: dict[str, Q],
                 known_pairings: dict[str, Q] | None = None,
                 total_delta=None) -> "CurveRecord":
        vec = [Q(0)] * len(b.symbols)
        for sym, c in entries.items():
            vec[b.index(sym)] = c
        return cls(name, b, tuple(vec), dict(known_pairings or {}), total_delta)

    def entry(self, symbol: str) -> Q:
        if self.vector is None:
            raise ValueError(f"curve {self.name!r} has no committed intersection vector")
        return self.vector[self.basis.index(symbol)]


def pair(curve: CurveRecord, c: DivisorClass) -> Q:
    """Intersection number of a recorded curve with a divisor class.

    Exact, with one reduction: the products over the nonzero entries are
    summed as an integer numerator over the running lcm of their
    denominators, and a single Fraction is built at the end.
    """
    if curve.basis != c.basis:
        raise ValueError("curve and class live over different bases")
    if curve.vector is None:
        raise ValueError(f"curve {curve.name!r} has no committed intersection vector")
    terms = [(v, a) for v, a in zip(curve.vector, c.coeffs) if v and a]
    if curve.total_delta is not None:
        deltas = [a for s, a in zip(c.basis.symbols, c.coeffs) if s.startswith("delta_")]
        if any(a != deltas[0] for a in deltas[1:]):
            raise ValueError(
                "curve records only a total boundary pairing but the class has "
                "non-uniform boundary coefficients")
        if deltas:
            terms.append((curve.total_delta, deltas[0]))
    num, den = 0, 1
    for v, a in terms:
        tn = v.numerator * a.numerator
        td = v.denominator * a.denominator
        if td == den:
            num += tn
        else:
            k = gcd(den, td)
            num = num * (td // k) + tn * (den // k)
            den = den // k * td
    return Q(num, den)


def substitute_relation(c: DivisorClass, eliminated_symbol: str,
                        replacement: DivisorClass) -> DivisorClass:
    """Eliminate one basis symbol using a linear relation.

    ``replacement`` expresses the eliminated symbol in the remaining
    symbols; its own coefficient on the eliminated symbol must be zero.
    """
    if replacement.basis != c.basis:
        raise ValueError("replacement lives over a different basis")
    if replacement.coefficient(eliminated_symbol) != 0:
        raise ValueError(f"replacement mentions the eliminated symbol {eliminated_symbol!r}")
    t = c.coefficient(eliminated_symbol)
    if t == 0:
        return c
    idx = c.basis.index(eliminated_symbol)
    stripped = list(c.coeffs)
    stripped[idx] = Q(0)
    return DivisorClass(c.basis, tuple(stripped)) + replacement.scale(t)


# ---------------------------------------------------------------------------
# Class catalog
# ---------------------------------------------------------------------------

@cache
def class_W(g: int) -> DivisorClass:
    """Weierstrass divisor on the moduli of 1-pointed genus-g curves.

    W = g(g+1)/2 psi - lambda - sum_{i=1}^{g-1} (g-i)(g-i+1)/2 delta_im.
    """
    b = basis(MBAR_G1, g)
    coeffs = {"psi": Q(g * (g + 1), 2), "lambda": Q(-1)}
    for i in range(1, g):
        coeffs[f"delta_{i}m"] = Q(-(g - i) * (g - i + 1), 2)
    return DivisorClass.from_map(b, coeffs)


def class_stratum_abelian(g: int) -> DivisorClass:
    """Class of the closed divisorial stratum of abelian differentials with
    one double zero: 24 lambda - (6g-6) eta - 2 delta_0 - 3 sum delta_i."""
    b = basis(PHODGE_ABELIAN, g)
    coeffs = {"eta": Q(-(6 * g - 6)), "lambda": Q(24), "delta_0": Q(-2)}
    for i in range(1, g // 2 + 1):
        coeffs[f"delta_{i}"] = Q(-3)
    return DivisorClass.from_map(b, coeffs)


def class_stratum_quadratic(g: int) -> DivisorClass:
    """Class of the divisorial stratum of quadratic differentials with one
    double zero: 72 lambda - 10(g-1) eta - 6 sum delta_i."""
    b = basis(PHODGE_QUADRATIC, g)
    coeffs = {"eta": Q(-10 * (g - 1)), "lambda": Q(72)}
    for i in range(g // 2 + 1):
        coeffs[f"delta_{i}"] = Q(-6)
    return DivisorClass.from_map(b, coeffs)


def class_D(g: int) -> DivisorClass:
    """Class of the locus of abelian differentials with a zero at a
    Weierstrass point:

    -(g-1)g(g+1) eta + 2(3g^2+2g+1) lambda - g(g+1)/2 delta_0
        + sum_{i>=1} (g+3)i(i-g) delta_i.
    """
    b = basis(PHODGE_ABELIAN, g)
    coeffs = {
        "eta": Q(-(g - 1) * g * (g + 1)),
        "lambda": Q(2 * (3 * g * g + 2 * g + 1)),
        "delta_0": Q(-g * (g + 1), 2),
    }
    for i in range(1, g // 2 + 1):
        coeffs[f"delta_{i}"] = Q((g + 3) * i * (i - g))
    return DivisorClass.from_map(b, coeffs)


def genus2_lambda_relation() -> DivisorClass:
    """lambda = 1/10 delta_0 + 1/5 delta_1, valid in genus 2, as a
    replacement class over PHodgeAbelian(2)."""
    b = basis(PHODGE_ABELIAN, 2)
    return DivisorClass.from_map(b, {"delta_0": Q(1, 10), "delta_1": Q(1, 5)})
