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
  delta_{g//2}]``.

A :class:`DivisorClass` is a coefficient vector over one of these bases,
and a :class:`CurveRecord` an intersection vector; both are held by their
nonzero entries in position order, as Fractions (``nonzero``) or as the
integer form ``_form`` that :func:`pair` multiplies (numerators over one
denominator, in lowest terms), each a view of the other built on first use,
as is the dense tuple.  An object built from Fractions stores ``nonzero``;
one built by ``_of_ints`` from integer numerators, as the closed-form
classes and the test curves are, stores ``_form`` and forms no Fraction
until one is read.  Classes over different bases never coerce silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cache, cached_property
from math import gcd
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .exactq import ZERO, _nonzero, _over_lcm

PHODGE_ABELIAN = "PHodgeAbelian"
PHODGE_QUADRATIC = "PHodgeQuadratic"
MBAR_G1 = "MbarG1"
MBAR_G = "MbarG"
MAX_GENUS = 10_000  # a basis holds about g symbols; 10^9 of them would fill memory
# The known pairings of every record built without any: a grid of records
# allocates no empty dict per record.
_NO_PAIRINGS: Mapping[str, Q] = MappingProxyType({})


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
    if g > MAX_GENUS:
        raise ValueError(f"genus must be <= {MAX_GENUS}, got {g}")
    if space_kind in (PHODGE_ABELIAN, PHODGE_QUADRATIC):
        syms = ("eta", "lambda") + tuple(f"delta_{i}" for i in range(g // 2 + 1))
    elif space_kind == MBAR_G1:
        syms = ("lambda", "psi") + tuple(f"delta_{i}m" for i in range(1, g))
    elif space_kind == MBAR_G:
        syms = ("lambda",) + tuple(f"delta_{i}" for i in range(g // 2 + 1))
    else:
        raise ValueError(f"unknown space kind {space_kind!r}")
    return BasisSpec(space_kind, g, syms)


def _dense(b: BasisSpec, nonzero: dict[int, Q]) -> tuple[Q, ...]:
    return tuple(nonzero.get(i, ZERO) for i in range(len(b.symbols)))


def _lowest_terms(nums: dict[int, int], den: int,
                  td: int | None = None) -> tuple[dict[int, int], int, int | None]:
    """``nums`` by position, ``den`` > 0 and ``td`` divided by their gcd, zero
    numerators dropped; ``nums`` itself when that changes nothing."""
    k = gcd(den, td or 0, *nums.values())
    if k != 1 or 0 in nums.values():
        nums = {i: v // k for i, v in nums.items() if v}
    return nums, den // k, None if td is None else td // k


def _boundary(b: BasisSpec, nums: dict[int, int]) -> int | None:
    """The numerator every ``delta_*`` symbol of ``b`` has in ``nums`` (0
    without any), or None if they differ."""
    deltas = {nums.get(i, 0) for i, s in enumerate(b.symbols) if s.startswith("delta_")} or {0}
    return deltas.pop() if len(deltas) == 1 else None


@dataclass(frozen=True, init=False)
class DivisorClass:
    """A divisor class over ``basis``, built from dense ``coeffs``, from a
    position map or from integer numerators (``_of_ints``), held as
    ``nonzero`` (position -> nonzero Fraction, in basis order) or ``_form``;
    each of these and ``coeffs`` (dense) is built from the other on first use."""

    basis: BasisSpec
    nonzero: dict[int, Q]  # also a view of _form, below

    def __init__(self, basis: BasisSpec, coeffs: Sequence | None = None, *,
                 nonzero: Mapping[int, object] | None = None):
        # frozen: the fields are set once, here
        vars(self).update(basis=basis, nonzero=_nonzero(len(basis.symbols), coeffs, nonzero))

    @classmethod
    def _of_ints(cls, basis: BasisSpec, nums: dict[int, int], den: int) -> "DivisorClass":
        """The class of the numerators ``nums`` by position, given in position
        order, over ``den`` > 0, divided by their gcd, zeros dropped."""
        nums, den, _ = _lowest_terms(nums, den)
        self = object.__new__(cls)
        fields = self.__dict__  # frozen: the fields are set once, here
        fields["basis"] = basis
        fields["_form"] = nums, den, _boundary(basis, nums)
        return self

    def __hash__(self):
        return hash((self.basis, tuple(self.nonzero.items())))

    @cached_property
    def coeffs(self) -> tuple[Q, ...]:
        return _dense(self.basis, self.nonzero)

    @cached_property
    def _form(self) -> tuple[dict[int, int], int, int | None]:
        """Numerators by position over one positive denominator, and the one
        every ``delta_*`` symbol shares (0 without any; None if they differ);
        ``_of_ints`` sets it."""
        nums, den = _over_lcm(self.nonzero.values())
        nums = dict(zip(self.nonzero, nums))
        return nums, den, _boundary(self.basis, nums)

    @cached_property
    def nonzero(self) -> dict[int, Q]:
        nums, den, _ = self._form
        return {i: Q(n, den) for i, n in nums.items()}

    @classmethod
    def from_map(cls, b: BasisSpec, coeffs: dict[str, Q]) -> "DivisorClass":
        return cls(b, nonzero={b.index(sym): c for sym, c in coeffs.items()})

    def coefficient(self, symbol: str) -> Q:
        return self.nonzero.get(self.basis.index(symbol), ZERO)

    def is_zero(self) -> bool:
        return not self.nonzero

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if self.basis != other.basis:
            raise ValueError("divisor classes live over different bases")
        total = dict(self.nonzero)
        for i, v in other.nonzero.items():
            total[i] = total.get(i, ZERO) + v
        return DivisorClass(self.basis, nonzero=total)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + -other

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.basis, nonzero={i: -a for i, a in self.nonzero.items()})

    def scale(self, t) -> "DivisorClass":
        t = Q(t)
        return DivisorClass(self.basis, nonzero={i: t * a for i, a in self.nonzero.items()})

    __rmul__ = scale
    __mul__ = scale

    def __str__(self) -> str:
        return " + ".join(f"({c})*{self.basis.symbols[i]}" for i, c in self.nonzero.items()) or "0"


@dataclass(frozen=True, init=False)
class CurveRecord:
    """A one-parameter family recorded by its intersection numbers.

    The intersection vector pairs against explicit basis coefficients; it
    is held like a class's (``nonzero`` or ``_form``, with the dense view
    ``vector``), and all are None when the record commits no vector.
    ``total_delta`` instead records a single pairing with the total
    boundary, usable only against classes whose boundary coefficients are
    all equal.  A record may carry known pairings with named divisors whose
    class is unknown (e.g. the curve ``B3``, whose individual intersection
    numbers are not committed); one without any holds a read-only empty
    mapping, shared by all such records.
    """

    name: str
    basis: BasisSpec
    nonzero: dict[int, Q] | None  # this and total_delta: also views of _form, below
    known_pairings: Mapping[str, Q]
    total_delta: Q | None

    def __init__(self, name: str, basis: BasisSpec, vector: Sequence | None = None,
                 known_pairings: dict[str, Q] | None = None, total_delta=None, *,
                 nonzero: Mapping[int, object] | None = None):
        committed = vector is not None or nonzero is not None
        vars(self).update(
            name=name, basis=basis,
            nonzero=_nonzero(len(basis.symbols), vector, nonzero) if committed else None,
            known_pairings=_NO_PAIRINGS if known_pairings is None else known_pairings,
            total_delta=(total_delta if total_delta is None or isinstance(total_delta, Q)
                         else Q(total_delta)))

    @classmethod
    def _of_ints(cls, name: str, basis: BasisSpec, nums: dict[int, int], den: int,
                 td: int | None = None, known_pairings=None) -> "CurveRecord":
        """The record of the numerators ``nums`` by position, given in position
        order, and ``td`` over ``den`` > 0, divided by their gcd, zeros dropped."""
        self = object.__new__(cls)
        fields = self.__dict__  # frozen: the fields are set once, here
        fields["name"] = name
        fields["basis"] = basis
        fields["known_pairings"] = known_pairings or _NO_PAIRINGS
        fields["_form"] = _lowest_terms(nums, den, td)
        return self

    @cached_property
    def _form(self) -> tuple[dict[int, int] | None, int, int | None]:
        """Numerators by position (None without a vector) and of ``total_delta``
        (None without one) over one positive denominator; ``_of_ints`` sets it."""
        td = self.total_delta
        nums, den = _over_lcm([*(self.nonzero or {}).values(), td or ZERO])
        return (None if self.nonzero is None else dict(zip(self.nonzero, nums)), den,
                None if td is None else nums[-1])

    @cached_property
    def nonzero(self) -> dict[int, Q] | None:
        nums, den, _ = self._form
        return None if nums is None else {i: Q(n, den) for i, n in nums.items()}

    @cached_property
    def total_delta(self) -> Q | None:
        _, den, td = self._form
        return None if td is None else Q(td, den)

    @cached_property
    def vector(self) -> tuple[Q, ...] | None:
        return None if self.nonzero is None else _dense(self.basis, self.nonzero)

    @classmethod
    def from_map(cls, name: str, b: BasisSpec, entries: dict[str, Q],
                 known_pairings: dict[str, Q] | None = None,
                 total_delta=None) -> "CurveRecord":
        return cls(name, b, None, dict(known_pairings) if known_pairings else None, total_delta,
                   nonzero={b.index(sym): c for sym, c in entries.items()})

    def entry(self, symbol: str) -> Q:
        if self.nonzero is None:
            raise ValueError(f"curve {self.name!r} has no committed intersection vector")
        return self.nonzero.get(self.basis.index(symbol), ZERO)


def _pair_each(curves: Iterable[CurveRecord], c: DivisorClass) -> Iterator[tuple[int, int]]:
    """``pair(curve, c)`` for each curve, as an integer numerator over a
    positive denominator: one dot product of integer forms per curve, with
    the class's form read once."""
    coeffs, c_den, boundary = c._form
    for curve in curves:
        if curve.basis is not c.basis and curve.basis != c.basis:
            raise ValueError("curve and class live over different bases")
        nums, den, td = curve._form
        if nums is None:
            raise ValueError(f"curve {curve.name!r} has no committed intersection vector")
        num = 0
        for i, v in nums.items():
            num += v * coeffs.get(i, 0)
        if td is not None:
            if boundary is None:
                raise ValueError(
                    "curve records only a total boundary pairing but the class has "
                    "non-uniform boundary coefficients")
            num += td * boundary
        yield num, den * c_den


def _pair_ints(curve: CurveRecord, c: DivisorClass) -> tuple[int, int]:
    """``pair(curve, c)`` as an integer numerator over a positive denominator."""
    return next(_pair_each((curve,), c))


def pair(curve: CurveRecord, c: DivisorClass) -> Q:
    """Intersection number of a recorded curve with a divisor class: the dot
    product of their integer forms, ``total_delta`` times the class's common
    boundary numerator (checked uniform once per class) included."""
    return Q(*_pair_ints(curve, c))


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
    stripped = DivisorClass(c.basis, nonzero={i: a for i, a in c.nonzero.items() if i != idx})
    return stripped + replacement.scale(t)


# ---------------------------------------------------------------------------
# Class catalog
# ---------------------------------------------------------------------------

@cache
def class_W(g: int) -> DivisorClass:
    """Weierstrass divisor on the moduli of 1-pointed genus-g curves.

    W = g(g+1)/2 psi - lambda - sum_{i=1}^{g-1} (g-i)(g-i+1)/2 delta_im.
    """
    # over 2, by position: lambda, psi, then delta_im at i + 1
    return DivisorClass._of_ints(
        basis(MBAR_G1, g),
        {0: -2, 1: g * (g + 1), **{i + 1: -(g - i) * (g - i + 1) for i in range(1, g)}}, 2)


def class_stratum_abelian(g: int) -> DivisorClass:
    """Class of the closed divisorial stratum of abelian differentials with
    one double zero: 24 lambda - (6g-6) eta - 2 delta_0 - 3 sum delta_i."""
    # by position: eta, lambda, then delta_i at i + 2
    return DivisorClass._of_ints(
        basis(PHODGE_ABELIAN, g),
        {0: -(6 * g - 6), 1: 24, 2: -2, **dict.fromkeys(range(3, g // 2 + 3), -3)}, 1)


def class_stratum_quadratic(g: int) -> DivisorClass:
    """Class of the divisorial stratum of quadratic differentials with one
    double zero: 72 lambda - 10(g-1) eta - 6 sum delta_i."""
    # by position: eta, lambda, then delta_i at i + 2
    return DivisorClass._of_ints(
        basis(PHODGE_QUADRATIC, g),
        {0: -10 * (g - 1), 1: 72, **dict.fromkeys(range(2, g // 2 + 3), -6)}, 1)


def class_D(g: int) -> DivisorClass:
    """Class of the locus of abelian differentials with a zero at a
    Weierstrass point:

    -(g-1)g(g+1) eta + 2(3g^2+2g+1) lambda - g(g+1)/2 delta_0
        + sum_{i>=1} (g+3)i(i-g) delta_i.
    """
    # over 2, by position: eta, lambda, then delta_i at i + 2
    return DivisorClass._of_ints(
        basis(PHODGE_ABELIAN, g),
        {0: -2 * (g - 1) * g * (g + 1), 1: 4 * (3 * g * g + 2 * g + 1), 2: -g * (g + 1),
         **{i + 2: 2 * (g + 3) * i * (i - g) for i in range(1, g // 2 + 1)}}, 2)


def genus2_lambda_relation() -> DivisorClass:
    """lambda = 1/10 delta_0 + 1/5 delta_1, valid in genus 2, as a
    replacement class over PHodgeAbelian(2)."""
    b = basis(PHODGE_ABELIAN, 2)
    return DivisorClass.from_map(b, {"delta_0": Q(1, 10), "delta_1": Q(1, 5)})
