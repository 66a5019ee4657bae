"""Teichmueller-curve intersection vectors, thresholds and extremality
certificates.

A Teichmueller curve in a stratum of abelian differentials is described by
its Euler-characteristic parameter chi > 0 and the sum L of its top g
Lyapunov exponents (0 <= L <= g); in the quadratic case by chi and the
area Siegel-Veech constant c_area >= 0.  The intersection numbers with
eta, lambda and the boundary are explicit rational expressions in these
parameters, and the pairing with the double-zero stratum class collapses
to -chi/3 (abelian) resp. -chi/2 (quadratic) independently of L / c_area.

The certificate machinery implements the negativity condition
``C . (D + d A) <= 0``: a threshold d is computed as the infimum of the
exact solving expression over the parameter interval, and a certificate
report checks the inequality on a supplied family of curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cache

from .picard import (
    CurveRecord,
    DivisorClass,
    PHODGE_ABELIAN,
    PHODGE_QUADRATIC,
    basis,
    pair,
)


class NonPositiveDenominator(ValueError):
    """The candidate ample pairing fails to be positive on the whole
    parameter interval; carries the violating endpoint."""

    def __init__(self, endpoint: Q, value: Q):
        super().__init__(
            f"pairing denominator is {value} <= 0 at parameter {endpoint}")
        self.endpoint = endpoint
        self.value = value


@dataclass(frozen=True)
class Partition:
    """Zero-multiplicity partition of a stratum of differentials."""

    parts: tuple[int, ...]
    kind: str  # "abelian" or "quadratic"
    g: int

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
    Memoized: every curve of a grid shares its stratum's partition.
    """
    if p.kind == "abelian":
        return sum((Q(m * (m + 2), m + 1) for m in p.parts), Q(0)) / 12
    return sum((Q(d * (d + 4), d + 2) for d in p.parts), Q(0)) / 24


def teich_vector_abelian(g: int, p: Partition, t: TeichParamsAbelian) -> CurveRecord:
    """Intersection vector of an abelian-stratum Teichmueller curve:
    eta = chi/2, lambda = chi L / 2, delta_0 = (chi/2)(12L - 12 kappa_mu),
    higher boundary zero."""
    if p.kind != "abelian" or p.g != g:
        raise ValueError("partition is not an abelian partition for this genus")
    km = kappa_mu(p)
    b = basis(PHODGE_ABELIAN, g)
    return CurveRecord.from_map(
        f"Teich(chi={t.chi},L={t.L})", b,
        {"eta": t.chi / 2,
         "lambda": t.chi * t.L / 2,
         "delta_0": (t.chi / 2) * (12 * t.L - 12 * km)})


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
    stratum class has uniform boundary coefficients)."""
    if p.kind != "quadratic" or p.g != g:
        raise ValueError("partition is not a quadratic partition for this genus")
    km = kappa_mu(p)
    b = basis(PHODGE_QUADRATIC, g)
    return CurveRecord.from_map(
        f"TeichQ(chi={t.chi},c={t.c_area})", b,
        {"eta": t.chi,
         "lambda": (t.chi / 2) * (t.c_area + km)},
        total_delta=6 * t.chi * t.c_area)


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


def threshold_abelian(a: Q, b: Q, c0: Q, g: int, p: Partition | None = None) -> Q:
    """Sound negativity threshold for the abelian double-zero stratum.

    inf over L in [0, g] of 2 / (3 (b - 12 c0 kappa_mu + (a + 12 c0) L)),
    for an ample class a lambda + b eta + c0 delta_0 + ....  The interval
    endpoint bound g is the uniform cap on Lyapunov-exponent sums.
    """
    a, b, c0 = Q(a), Q(b), Q(c0)
    if p is None:
        p = double_zero_partition("abelian", g)
    km = kappa_mu(p)
    return _interval_infimum(3 * (b - 12 * c0 * km), 3 * (a + 12 * c0),
                             Q(0), Q(g), Q(2))


def threshold_quadratic(a: Q, b: Q, c: Q, g: int, c_max: Q,
                        p: Partition | None = None) -> Q:
    """Sound negativity threshold for the quadratic double-zero stratum.

    inf over c_area in [0, c_max] of 1 / (2b + 12 c c_area + a (c_area +
    kappa)); the upper bound on c_area is caller-supplied.
    """
    a, b, c, c_max = Q(a), Q(b), Q(c), Q(c_max)
    if c_max < 0:
        raise ValueError("c_max must be nonnegative")
    if p is None:
        p = double_zero_partition("quadratic", g)
    km = kappa_mu(p)
    return _interval_infimum(2 * b + a * km, 12 * c + a, Q(0), c_max, Q(1))


@dataclass(frozen=True)
class CertificateReport:
    passed: bool
    d: Q
    violations: tuple[tuple[str, Q], ...] = ()
    vacuous: bool = False

    def __str__(self) -> str:
        if self.vacuous:
            return f"PASS (vacuous: no curves supplied) at d = {self.d}"
        if self.passed:
            return f"PASS at d = {self.d}"
        rows = ", ".join(f"{name}: {val}" for name, val in self.violations)
        return f"FAIL at d = {self.d}: {rows}"


def certificate_check(divisor: DivisorClass, ample: DivisorClass, d: Q,
                      curves: list[CurveRecord]) -> CertificateReport:
    """Check C . (divisor + d * ample) <= 0 for every supplied curve."""
    d = Q(d)
    if d <= 0:
        raise ValueError("threshold d must be positive")
    if divisor.basis != ample.basis:
        raise ValueError("divisor and ample class live over different bases")
    if not curves:
        return CertificateReport(True, d, vacuous=True)
    shifted = divisor + d * ample
    violations = []
    for c in curves:
        value = pair(c, shifted)
        if value > 0:
            violations.append((c.name, value))
    return CertificateReport(not violations, d, tuple(violations))
