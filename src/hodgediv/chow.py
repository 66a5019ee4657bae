"""Chow-ring arithmetic in products of projective spaces and intersection
lattices of blown-up surfaces.

Two small exact substrates:

* :class:`ChowElement` -- a sparse polynomial in the hyperplane classes of
  a product P^{n_1} x ... x P^{n_k}, truncated eagerly at exponents above
  the factor dimensions; the degree map reads off the coefficient of the
  top monomial.  The constructor normalizes terms given from outside, once;
  every result of the arithmetic is built from terms in normal form.
* :class:`BlowUpLattice` -- the intersection lattice of a surface blown up
  at r general points: the symmetric integer intersection matrix of the
  base classes, plus exceptional classes E_1..E_r with E_i^2 = -1 and all
  cross products zero.

A product of two elements is the plain term-by-term sum over exponent tuples
and Fractions: no workload multiplies two elements, since a power of an
affine-linear base forms no product and the parser scales by a literal
through the scalar path.  A scalar (an int or a Fraction) times an element
scales each coefficient and forms no product of terms.  The lattice works
over integer numerators with one denominator and builds one Fraction per
output entry.  A power of x = c + n, c constant, sums C(k, s) c^(k-s) n^s
over s <= k, and each term h^e of an n^s goes through one step: scaled by
C(k, s) c^(k-s), made one Fraction, refused past the cap, added into one map
of terms.  For an affine-linear n = sum_j c_j h_j, one depth-first walk
reads the terms off the multinomial theorem with no product, forming only
the h^a with a_j <= n_j that the result can hold, so the work does not grow
with k; any other n, nilpotent, gives the terms of n^s, s <= n_1 + ... + n_k,
at most that many products.  A product with a coefficient whose numerator or
denominator passes 2^``MAX_POWER_BITS`` (about 4,200 digits, within Python's
4,300-digit limit for printing an int) is refused with a ValueError; so is a
power whose c^k must pass it (checked first), one with a term past it, or,
for an affine-linear base with c = 0, one that needs a power c_j^t past it.
Each is refused as soon as the coefficient is formed, before the larger
powers are raised; a factor n^s past the cap is refused as a product.

:func:`pencil_family` packages the total space of a general pencil of
curves on P^2 or P^1 x P^1 as such a lattice, with the fiber class, the
relative dualizing class and the fiber genus computed by adjunction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import comb, gcd, lcm
from operator import add, le, mul
from typing import Sequence

from .exactq import _over_lcm

MAX_POWER_BITS = 14_000
_CAP = 1 << MAX_POWER_BITS


def _refused(what: str) -> ValueError:
    return ValueError(f"{what} refused: a coefficient exceeds the {MAX_POWER_BITS:,}-bit cap")


def _binomial_scales(c: Q, k: int):
    """s -> C(k, s) c^(k-s) as numerator and denominator, each built from the
    last, C(k, s) = C(k, s-1)(k-s+1)/s, only as far as asked; with c = 0 only
    s = k is asked for, and the value there is 1."""
    if not c:
        return lambda s: (1, 1)
    scale = [(c.numerator ** k, c.denominator ** k)]

    def at(s):
        while len(scale) <= s:
            i, (a, b) = len(scale), scale[-1]
            scale.append((a * (k - i + 1) // (i * c.numerator), b // c.denominator))
        return scale[s]
    return at


@dataclass(frozen=True)
class MultiProjRing:
    """Product of projective spaces P^{n_1} x ... x P^{n_k}."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if not self.dims or any(n < 1 for n in self.dims):
            raise ValueError("need at least one factor, all of dimension >= 1")
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))

    def generator(self, j: int) -> "ChowElement":
        """Hyperplane class pulled back from the j-th factor (0-based)."""
        exp = tuple(1 if i == j else 0 for i in range(len(self.dims)))
        return ChowElement._of(self, {exp: Q(1)})

    def generators(self) -> list["ChowElement"]:
        return [self.generator(j) for j in range(len(self.dims))]

    def one(self) -> "ChowElement":
        return ChowElement._of(self, {(0,) * len(self.dims): Q(1)})

    def zero(self) -> "ChowElement":
        return ChowElement._of(self, {})


class ChowElement:
    """Sparse truncated polynomial in the hyperplane generators."""

    def __init__(self, ring: MultiProjRing, terms: dict[tuple[int, ...], Q]):
        self.ring = ring
        self.terms = {
            e: Q(c) for e, c in terms.items()
            if c != 0 and all(ei <= ni for ei, ni in zip(e, ring.dims))
        }

    @staticmethod
    def _of(ring: MultiProjRing, terms: dict[tuple[int, ...], Q]) -> "ChowElement":
        """An element of terms in normal form: nonzero Fractions, each
        exponent within its dimension."""
        out = ChowElement.__new__(ChowElement)
        out.ring, out.terms = ring, terms
        return out

    def _coerce(self, other):
        if isinstance(other, ChowElement):
            if other.ring != self.ring:
                raise ValueError("elements live in different rings")
            return other
        c = Q(other)
        return ChowElement._of(self.ring, {(0,) * len(self.ring.dims): c} if c else {})

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChowElement):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __add__(self, other) -> "ChowElement":
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            if s := out.pop(e, 0) + c:
                out[e] = s
        return ChowElement._of(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> "ChowElement":
        return ChowElement._of(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "ChowElement":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "ChowElement":
        return self._coerce(other) - self

    def __mul__(self, other) -> "ChowElement":
        if isinstance(other, ChowElement):  # term by term
            other, dims, terms = self._coerce(other), self.ring.dims, {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(map(add, e1, e2))
                    if all(map(le, e, dims)):
                        terms[e] = terms.get(e, 0) + c1 * c2
            terms = {e: c for e, c in terms.items() if c}
        else:  # a scalar scales each coefficient
            c = Q(other)
            terms = {e: v * c for e, v in self.terms.items()} if c else {}
        if any(abs(q.numerator) > _CAP or q.denominator > _CAP for q in terms.values()):
            raise _refused("product")
        return ChowElement._of(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ChowElement":
        if k < 0:
            raise ValueError("negative power")
        ring = self.ring
        const = (0,) * len(ring.dims)
        c = self.terms.get(const, Q(0))
        # c^k is computed before any coefficient could refuse it; with c = p/q,
        # max(|p|, q)^k is at least 2^(k * (its bit length - 1))
        if k * (max(abs(c.numerator), c.denominator).bit_length() - 1) > MAX_POWER_BITS:
            raise _refused(f"power ^{k}")
        n = ChowElement._of(ring, {e: v for e, v in self.terms.items() if e != const})
        at, terms = _binomial_scales(c, k), {}
        def step(e, s, num, den):  # the one term step: h^e of n^s, times C(k, s) c^(k-s)
            a, b = at(s)
            num, den = a * num, b * den
            q = Q(num) if den == 1 else Q(num, den)
            if abs(q.numerator) > _CAP or q.denominator > _CAP:
                raise _refused(f"power ^{k}")
            terms[e] = q + terms[e] if e in terms else q

        if n.is_linear():
            for term in self._affine_power(c, n.terms, k, at):
                step(*term)
        else:
            nj = ring.one()
            for j in range(min(k, sum(ring.dims)) + 1):
                if j:
                    nj = nj * n
                    if not nj.terms:
                        break
                if c or j == k:  # with c = 0 only n^k is left
                    for e, v in nj.terms.items():
                        step(e, j, v.numerator, v.denominator)
        return ChowElement._of(ring, {e: v for e, v in terms.items() if v})

    def _affine_power(self, c: Q, linear: dict, k: int, at):
        """The terms of (c + sum_j x_j h_j)^k by the multinomial theorem,
        x_j = p_j/q_j in lowest terms, before the step of ``__pow__`` scales
        them by C(k, s) c^(k-s): h^a, s = |a|, comes with M(a) prod(p_j^a_j) /
        prod(q_j^a_j), M(a) = s!/prod(a_j!) built factor by factor as
        prod_j C(a_1 + ... + a_j, a_j).  Only a_j <= n_j and s <= k are
        formed, only s = k when c = 0, and each term is yielded as soon as the
        walk pops it.  A power x_j^t is checked on bit lengths as it is
        raised: with c != 0, the result's term C(k, t) c^(k-t) x_j^t =
        (a/b) x_j^t is refused once its size, or a bound on its numerator
        (|p_j|^t / b) or denominator (q_j^t / |a|) in lowest terms, must pass
        the cap; with c = 0, x_j^t itself (the coefficient of h_j^t in x^t)
        must stay within.  With c = 0 and one factor the one term is x^k h^k:
        only x^k is raised, once a bound on its bit length shows it may fit."""
        dims = self.ring.dims
        lo = 0 if c else k
        top = min(k, sum(min(dims[e.index(1)], k) for e in linear))
        if top < lo:
            return
        if not c and len(linear) == 1:  # one term, x^k h^k, which the step caps
            ((e, x),) = linear.items()
            if k * (max(abs(x.numerator), x.denominator).bit_length() - 1) > MAX_POWER_BITS:
                raise _refused(f"power ^{k}")  # x^k must pass the cap: not formed
            yield tuple(k * v for v in e), k, x.numerator ** k, x.denominator ** k
            return
        factors = []  # (factor index, [(p^t, q^t) for t = 0, 1, ...])
        reach = [0]  # reach[i]: the most the first i factors can add to s
        for e, x in linear.items():
            j, p, q = e.index(1), x.numerator, x.denominator
            pows = [(1, 1)]
            for t in range(1, min(dims[j], top) + 1):
                pt, qt = pows[-1][0] * p, pows[-1][1] * q
                if c:  # an int v has 2^(l-1) <= |v| < 2^l, l its bit length
                    la, lb, lp, lq = (v.bit_length() for v in (*at(t), pt, qt))
                    if (max(la + lp - lq - 1, lp) - lb > MAX_POWER_BITS
                            or max(lb + lq - lp - 1, lq) - la > MAX_POWER_BITS):
                        raise _refused(f"power ^{k}")
                elif abs(pt) > _CAP or qt > _CAP:
                    raise _refused(f"power ^{k}")
                pows.append((pt, qt))
            factors.append((j, pows))
            reach.append(reach[-1] + len(pows) - 1)
        # depth first; an entry: (factors left, exponents, s, numerator, denominator)
        stack = [(len(factors), (0,) * len(dims), 0, 1, 1)]
        while stack:
            i, exp, s, num, den = stack.pop()
            if not i:  # every factor placed, and s >= lo
                yield exp, s, num, den
                continue
            j, pows = factors[i - 1]
            for t in range(max(0, lo - s - reach[i - 1]), min(len(pows) - 1, top - s) + 1):
                pt, qt = pows[t]
                stack.append((i - 1, (*exp[:j], t, *exp[j + 1:]), s + t,
                              num * comb(s + t, t) * pt, den * qt))

    def is_linear(self) -> bool:
        return all(sum(e) == 1 for e in self.terms)


def chow_integrate(a: ChowElement) -> Q:
    """Degree map: coefficient of the top monomial (n_1, ..., n_k)."""
    return a.terms.get(a.ring.dims, Q(0))


def linear_class(ring: MultiProjRing, coeffs: Sequence) -> ChowElement:
    """Divisor class sum(coeffs[j] * h_j) from a coefficient tuple."""
    if len(coeffs) != len(ring.dims):
        raise ValueError("coefficient count does not match factor count")
    width = len(coeffs)
    return ChowElement(ring, {tuple(int(i == j) for i in range(width)): Q(c)
                              for j, c in enumerate(coeffs)})


def adjunction_canonical(ring: MultiProjRing, hypersurface_classes: Sequence) -> ChowElement:
    """Canonical class of a complete intersection, restricted as a linear
    ambient class: K_ambient + sum of the hypersurface classes (coefficient
    tuples), with K_ambient = sum_j -(n_j + 1) h_j."""
    k = linear_class(ring, [-(n + 1) for n in ring.dims])
    for cls in hypersurface_classes:
        k = k + linear_class(ring, cls)
    return k


def relative_dualizing_linear(canonical: ChowElement, base_factor_index: int) -> ChowElement:
    """Twist a canonical class into the relative dualizing class of a
    fibration over a P^1 factor: add 2 h_base (0-based factor index)."""
    ring = canonical.ring
    if ring.dims[base_factor_index] != 1:
        raise ValueError("base factor must be a P^1 (dimension 1)")
    if not canonical.is_linear():
        raise ValueError("canonical class must be linear")
    return canonical + 2 * ring.generator(base_factor_index)


# ---------------------------------------------------------------------------
# Blow-up lattices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlowUpLattice:
    """Intersection lattice of a surface blown up at r general points."""

    base_matrix: tuple[tuple[int, ...], ...]
    r: int

    def __post_init__(self):
        n = len(self.base_matrix)
        if any(len(row) != n for row in self.base_matrix):
            raise ValueError("intersection matrix shape mismatch")
        for i in range(n):
            for j in range(n):
                if self.base_matrix[i][j] != self.base_matrix[j][i]:
                    raise ValueError("intersection matrix must be symmetric")
        if self.r < 0:
            raise ValueError("negative number of exceptional classes")

    def cls(self, base_coeffs: Sequence, exc_coeffs: Sequence | Q = Q(0)) -> "LatticeClass":
        """Build a class; a scalar ``exc_coeffs`` means that multiple of
        every exceptional class (so ``cls(..., 1)`` is ... + sum E_i)."""
        base = [Q(c) for c in base_coeffs]
        if len(base) != len(self.base_matrix):
            raise ValueError("base coefficient count mismatch")
        if isinstance(exc_coeffs, (int, Q)):
            exc = [Q(exc_coeffs)] * self.r
        else:
            exc = [Q(c) for c in exc_coeffs]
            if len(exc) != self.r:
                raise ValueError("exceptional coefficient count mismatch")
        return LatticeClass(self, *_over_lcm(base + exc))

    def exceptional(self, i: int) -> "LatticeClass":
        """The class E_i (0-based)."""
        if not 0 <= i < self.r:
            raise ValueError("exceptional index out of range")
        exc = [Q(0)] * self.r
        exc[i] = Q(1)
        return self.cls([Q(0)] * len(self.base_matrix), exc)


@dataclass(frozen=True, init=False)
class LatticeClass:
    """Integer numerators ``nums`` (base generators, then E_1..E_r) over one
    positive denominator ``den``, in lowest terms."""

    lattice: BlowUpLattice
    nums: tuple[int, ...]
    den: int

    def __init__(self, lattice: BlowUpLattice, nums: Sequence[int], den: int):
        g = gcd(den, *nums)
        # frozen: the fields are set once, here
        vars(self).update(lattice=lattice, nums=tuple(v // g for v in nums), den=den // g)

    def __add__(self, other: "LatticeClass") -> "LatticeClass":
        if self.lattice != other.lattice:
            raise ValueError("classes live in different lattices")
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        return LatticeClass(self.lattice, [s * a + t * b for a, b in zip(self.nums, other.nums)], den)

    def __sub__(self, other: "LatticeClass") -> "LatticeClass":
        return self + -other

    def __neg__(self) -> "LatticeClass":
        return LatticeClass(self.lattice, [-a for a in self.nums], self.den)

    def scale(self, t) -> "LatticeClass":
        t = Q(t)
        return LatticeClass(self.lattice, [t.numerator * a for a in self.nums],
                            t.denominator * self.den)

    __mul__ = scale
    __rmul__ = scale


def _base_form(matrix, u: Sequence[int], v: Sequence[int]) -> int:
    """u^T matrix v over the base block: the first len(matrix) entries."""
    return sum(u[i] * sum(map(mul, row, v)) for i, row in enumerate(matrix))


def lattice_intersect(u: LatticeClass, v: LatticeClass) -> Q:
    """Value of the intersection form: base block by the stored matrix,
    exceptional block -identity, no cross terms; summed over the integers."""
    if u.lattice != v.lattice:
        raise ValueError("classes live in different lattices")
    matrix = u.lattice.base_matrix
    n = len(matrix)
    a, b = u.nums, v.nums
    return Q(_base_form(matrix, a, b) - sum(map(mul, a[n:], b[n:])), u.den * v.den)


# ---------------------------------------------------------------------------
# Pencil families
# ---------------------------------------------------------------------------

_BASES = {
    "P2": {
        "matrix": ((1,),),
        "canonical": (-3,),
        "euler": 3,
    },
    "P1xP1": {
        "matrix": ((0, 1), (1, 0)),
        "canonical": (-2, -2),
        "euler": 4,
    },
}


@dataclass(frozen=True)
class PencilFamily:
    """Blown-up total space of a general pencil of curves on a surface."""

    lattice: BlowUpLattice
    f: LatticeClass           # fiber class bl*(pencil) - sum E_i
    omega_rel: LatticeClass   # relative dualizing class
    genus: int
    base_points: int
    base_euler: int

    def pullback(self, base_coeffs: Sequence) -> LatticeClass:
        """Pullback of a base divisor class (no exceptional part)."""
        return self.lattice.cls(base_coeffs)


def pencil_family(base: str, pencil_class) -> PencilFamily:
    """Total space of a general pencil of curves of the given class.

    The base point count is the self-intersection of the pencil class, the
    fiber genus comes from adjunction on the base surface, and the relative
    dualizing class is bl*K_base + sum E_i + 2f.
    """
    if base not in _BASES:
        raise ValueError(f"unsupported base surface {base!r}")
    spec = _BASES[base]
    if isinstance(pencil_class, int):
        pencil = (pencil_class,)
    else:
        pencil = tuple(int(c) for c in pencil_class)
    if len(pencil) != len(spec["matrix"]):
        raise ValueError("pencil class has wrong number of coefficients")
    if any(c < 1 for c in pencil):
        raise ValueError("pencil class must be ample (all coefficients >= 1)")

    r = _base_form(spec["matrix"], pencil, pencil)
    two_g_minus_2 = r + _base_form(spec["matrix"], pencil, spec["canonical"])
    if two_g_minus_2 % 2 != 0:
        raise ValueError("adjunction gave a non-integral genus")
    g = two_g_minus_2 // 2 + 1

    lat = BlowUpLattice(spec["matrix"], r)
    f = lat.cls(pencil, Q(-1))
    omega_rel = lat.cls(spec["canonical"], Q(1)) + 2 * f
    return PencilFamily(lat, f, omega_rel, g, r, spec["euler"])
