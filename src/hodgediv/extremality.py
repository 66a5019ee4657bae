"""Teichmueller-curve intersection vectors, thresholds and extremality
certificates.

A Teichmueller curve in a stratum of abelian differentials is described by
its Euler-characteristic parameter chi > 0 and the sum L of its top g
Lyapunov exponents (0 <= L <= g); in the quadratic case by chi and the
area Siegel-Veech constant c_area >= 0.  The intersection numbers with
eta, lambda and the boundary are explicit rational expressions in these
parameters, and the pairing with the double-zero stratum class collapses
to -chi/3 (abelian) resp. -chi/2 (quadratic) independently of L / c_area.
Each record is written as integer numerators over one denominator, from
those of the parameters and of kappa_mu, which ``CurveRecord._of_ints``
divides by their gcd: the values of the Fraction formulas at one gcd.
kappa_mu is computed once per partition object: a :class:`Partition` reads
it from the memoized :func:`kappa_mu` when it is built and carries it as an
integer ratio, which every curve over it reads without hashing it.

The certificate machinery implements the negativity condition
``C . (D + d A) <= 0``: a threshold d is computed as the infimum of the
exact solving expression over the parameter interval, and a certificate
report checks the inequality on a supplied family of curves, reading the
integer form of D + d A once and taking one integer dot product per curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cache

from .exactq import format_rational
from .picard import (
    CurveRecord,
    DivisorClass,
    PHODGE_ABELIAN,
    PHODGE_QUADRATIC,
    _pair_each,
    basis,
)


class NonPositiveDenominator(ValueError):
    """The candidate ample pairing fails to be positive on the whole
    parameter interval; carries the violating endpoint."""

    def __init__(self, endpoint: Q, value: Q):
        super().__init__(endpoint, value)
        self.endpoint = endpoint
        self.value = value

    def __str__(self) -> str:
        # rendered here, not in the constructor, so that a value too long to
        # print still raises this type; the text is then the refusal's
        try:
            return (f"pairing denominator is {format_rational(self.value)} <= 0 "
                    f"at parameter {format_rational(self.endpoint)}")
        except ValueError as refused:
            return str(refused)


@dataclass(frozen=True)
class Partition:
    """Zero-multiplicity partition of a stratum of differentials; ``_kappa``
    is its kappa_mu as an integer ratio."""

    parts: tuple[int, ...]
    kind: str  # "abelian" or "quadratic"
    g: int
    _kappa: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        if any(p < 1 for p in self.parts):
            raise ValueError("partition parts must be positive")
        if self.kind == "abelian":
            expected = 2 * self.g - 2
        elif self.kind == "quadratic":
            expected = 4 * self.g - 4
        else:
            raise ValueError(f"unknown partition kind {self.kind!r}")
        if sum(self.parts) != expected:
            raise ValueError(
                f"{self.kind} partition must sum to {expected}, got {sum(self.parts)}")
        object.__setattr__(self, "_kappa", kappa_mu(self).as_integer_ratio())


def double_zero_partition(kind: str, g: int) -> Partition:
    """The partition (2, 1, ..., 1) of the divisorial double-zero stratum."""
    n_ones = 2 * g - 4 if kind == "abelian" else 4 * g - 6
    return Partition((2,) + (1,) * n_ones, kind, g)


@dataclass(frozen=True)
class TeichParamsAbelian:
    chi: Q
    L: Q
    g: int

    def __post_init__(self):
        object.__setattr__(self, "chi", self.chi if isinstance(self.chi, Q) else Q(self.chi))
        object.__setattr__(self, "L", self.L if isinstance(self.L, Q) else Q(self.L))
        if self.chi <= 0:
            raise ValueError("chi must be positive")
        if not 0 <= self.L <= self.g:
            raise ValueError(f"Lyapunov sum must lie in [0, {self.g}]")


@dataclass(frozen=True)
class TeichParamsQuadratic:
    chi: Q
    c_area: Q

    def __post_init__(self):
        object.__setattr__(self, "chi", self.chi if isinstance(self.chi, Q) else Q(self.chi))
        object.__setattr__(self, "c_area",
                           self.c_area if isinstance(self.c_area, Q) else Q(self.c_area))
        if self.chi <= 0:
            raise ValueError("chi must be positive")
        if self.c_area < 0:
            raise ValueError("c_area must be nonnegative")


@cache
def kappa_mu(p: Partition) -> Q:
    """The Lyapunov-exponent carrying constant of a stratum:

    abelian: 1/12 sum m(m+2)/(m+1); quadratic: 1/24 sum d(d+4)/(d+2).
    Memoized, so equal partitions share one value; each :class:`Partition`
    reads it once, when it is built.
    """
    if p.kind == "abelian":
        return sum((Q(m * (m + 2), m + 1) for m in p.parts), Q(0)) / 12
    return sum((Q(d * (d + 4), d + 2) for d in p.parts), Q(0)) / 24


def _ratio(p: int, q: int) -> str:
    """``str`` of the Fraction p/q in lowest terms, q > 0, without building it."""
    return str(p) if q == 1 else f"{p}/{q}"


def teich_vector_abelian(g: int, p: Partition, t: TeichParamsAbelian) -> CurveRecord:
    """Intersection vector of an abelian-stratum Teichmueller curve:
    eta = chi/2, lambda = chi L / 2, delta_0 = (chi/2)(12L - 12 kappa_mu),
    higher boundary zero.  With chi = n/q, L = r/s and kappa_mu = u/v the
    entries are nsv, nrv and 12n(rv - su) over 2qsv."""
    if p.kind != "abelian" or p.g != g:
        raise ValueError("partition is not an abelian partition for this genus")
    n, q = t.chi.as_integer_ratio()
    r, s = t.L.as_integer_ratio()
    u, v = p._kappa
    return CurveRecord._of_ints(f"Teich(chi={_ratio(n, q)},L={_ratio(r, s)})",
                                basis(PHODGE_ABELIAN, g),
                                {0: n * s * v, 1: n * r * v, 2: 12 * n * (r * v - s * u)},
                                2 * q * s * v)


def psi_degree(t: TeichParamsAbelian, p: Partition, m_i: int) -> Q:
    """Degree of the cotangent class at the marked zero of order m_i:
    chi / (2(m_i + 1)); verified against the quotient form
    (C.lambda - (C.delta)/12) / ((m_i+1) kappa_mu)."""
    if m_i not in p.parts:
        raise ValueError(f"{m_i} is not a part of the partition")
    rec = teich_vector_abelian(p.g, p, t)
    c_delta = rec.entry("delta_0")  # higher boundary degrees vanish
    km = kappa_mu(p)
    quotient_form = (rec.entry("lambda") - c_delta / 12) / ((m_i + 1) * km)
    closed_form = t.chi / (2 * (m_i + 1))
    if quotient_form != closed_form:
        raise ArithmeticError("psi-degree identity failed; catalog bug")
    return closed_form


def teich_vector_quadratic(g: int, p: Partition, t: TeichParamsQuadratic) -> CurveRecord:
    """Intersection data of a quadratic-stratum Teichmueller curve:
    eta = chi, lambda = (chi/2)(c_area + kappa), and the total boundary
    pairing 6 chi c_area recorded as a single number (the double-zero
    stratum class has uniform boundary coefficients).  With chi = n/q,
    c_area = r/s and kappa_mu = u/v: eta 2nsv, lambda n(rv + su) and the
    total boundary 12nrv over 2qsv."""
    if p.kind != "quadratic" or p.g != g:
        raise ValueError("partition is not a quadratic partition for this genus")
    n, q = t.chi.as_integer_ratio()
    r, s = t.c_area.as_integer_ratio()
    u, v = p._kappa
    return CurveRecord._of_ints(f"TeichQ(chi={_ratio(n, q)},c={_ratio(r, s)})",
                                basis(PHODGE_QUADRATIC, g),
                                {0: 2 * n * s * v, 1: n * (r * v + s * u)}, 2 * q * s * v,
                                12 * n * r * v)


def _interval_infimum(const: Q, slope: Q, lo: Q, hi: Q, numerator: Q) -> Q:
    """Infimum of numerator / (const + slope * x) over [lo, hi].

    The denominator must stay positive on the interval; the quotient is
    monotone, so the infimum sits at the endpoint maximizing the
    denominator.
    """
    for x in (lo, hi):
        denom = const + slope * x
        if denom <= 0:
            raise NonPositiveDenominator(x, denom)
    best = max(const + slope * lo, const + slope * hi)
    return numerator / best


def threshold_abelian(a: Q, b: Q, c0: Q, g: int) -> Q:
    """Sound negativity threshold for the abelian double-zero stratum.

    inf over L in [0, g] of 2 / (3 (b - 12 c0 kappa_mu + (a + 12 c0) L)),
    for an ample class a lambda + b eta + c0 delta_0 + ....  The interval
    endpoint bound g is the uniform cap on Lyapunov-exponent sums.
    """
    a, b, c0 = Q(a), Q(b), Q(c0)
    km = Q(*double_zero_partition("abelian", g)._kappa)
    return _interval_infimum(3 * (b - 12 * c0 * km), 3 * (a + 12 * c0),
                             Q(0), Q(g), Q(2))


def threshold_quadratic(a: Q, b: Q, c: Q, g: int, c_max: Q) -> Q:
    """Sound negativity threshold for the quadratic double-zero stratum.

    inf over c_area in [0, c_max] of 1 / (2b + 12 c c_area + a (c_area +
    kappa)); the upper bound on c_area is caller-supplied.
    """
    a, b, c, c_max = Q(a), Q(b), Q(c), Q(c_max)
    if c_max < 0:
        raise ValueError("c_max must be nonnegative")
    km = Q(*double_zero_partition("quadratic", g)._kappa)
    return _interval_infimum(2 * b + a * km, 12 * c + a, Q(0), c_max, Q(1))


def sample_grid(kind: str, g: int, cmax: Q) -> list[CurveRecord]:
    """The Teichmueller curves ``certify`` checks: chi = 2, 4, ..., 10 with
    L in {0, kappa_mu, g/2, g} (abelian), or chi = 1, ..., 5 with c_area in
    {0, cmax/4, ..., cmax} (quadratic): both ends of each interval, so its
    verdict is the verdict on the whole box (see :func:`certificate_check`)."""
    part = double_zero_partition(kind, g)
    if kind == "abelian":
        km = kappa_mu(part)
        return [teich_vector_abelian(g, part, TeichParamsAbelian(Q(2 * chi), L, g))
                for chi in range(1, 6) for L in (Q(0), km, Q(g, 2), Q(g))]
    return [teich_vector_quadratic(g, part, TeichParamsQuadratic(Q(chi), cmax * Q(j, 4)))
            for chi in range(1, 6) for j in range(5)]


@dataclass(frozen=True)
class CertificateReport:
    passed: bool
    d: Q
    violations: tuple[tuple[str, Q], ...] = ()
    vacuous: bool = False

    def __str__(self) -> str:
        if self.vacuous:
            return f"PASS (vacuous: no curves supplied) at d = {format_rational(self.d)}"
        if self.passed:
            return f"PASS at d = {format_rational(self.d)}"
        rows = ", ".join(f"{name}: {format_rational(val)}" for name, val in self.violations)
        return f"FAIL at d = {format_rational(self.d)}: {rows}"


def certificate_check(divisor: DivisorClass, ample: DivisorClass, d: Q,
                      curves: list[CurveRecord]) -> CertificateReport:
    """Check C . (divisor + d * ample) <= 0 for every supplied curve by the sign
    of each pairing's integer numerator; only a violation becomes a Fraction.
    A Teichmueller pairing is chi times an affine function of L (c_area), so a
    PASS at both ends of [0, g] ([0, cmax]) holds for every chi > 0 and L between."""
    d = Q(d)
    if d <= 0:
        raise ValueError("threshold d must be positive")
    if divisor.basis != ample.basis:
        raise ValueError("divisor and ample class live over different bases")
    if not curves:
        return CertificateReport(True, d, vacuous=True)
    shifted = divisor + d * ample
    violations = [(c.name, Q(num, den))
                  for c, (num, den) in zip(curves, _pair_each(curves, shifted)) if num > 0]
    return CertificateReport(not violations, d, tuple(violations))
