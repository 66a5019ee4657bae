"""Chow-ring arithmetic in products of projective spaces and intersection
lattices of blown-up surfaces.

Two small exact substrates:

* :class:`ChowElement` -- a sparse polynomial in the hyperplane classes of
  a product P^{n_1} x ... x P^{n_k}, truncated eagerly at exponents above
  the factor dimensions; the degree map reads off the coefficient of the
  top monomial.
* :class:`BlowUpLattice` -- the intersection lattice of a surface blown up
  at r general points: named base generators with a symmetric integer
  intersection matrix, plus exceptional classes E_1..E_r with E_i^2 = -1
  and all cross products zero.

:func:`pencil_family` packages the total space of a general pencil of
curves on P^2 or P^1 x P^1 as such a lattice, with the fiber class, the
relative dualizing class and the fiber genus computed by adjunction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Sequence


@dataclass(frozen=True)
class MultiProjRing:
    """Product of projective spaces P^{n_1} x ... x P^{n_k}."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if not self.dims or any(n < 1 for n in self.dims):
            raise ValueError("need at least one factor, all of dimension >= 1")
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))

    @property
    def top(self) -> tuple[int, ...]:
        return self.dims

    def generator(self, j: int) -> "ChowElement":
        """Hyperplane class pulled back from the j-th factor (0-based)."""
        exp = tuple(1 if i == j else 0 for i in range(len(self.dims)))
        return ChowElement(self, {exp: Q(1)})

    def generators(self) -> list["ChowElement"]:
        return [self.generator(j) for j in range(len(self.dims))]

    def one(self) -> "ChowElement":
        return ChowElement(self, {(0,) * len(self.dims): Q(1)})

    def zero(self) -> "ChowElement":
        return ChowElement(self, {})


class ChowElement:
    """Sparse truncated polynomial in the hyperplane generators."""

    def __init__(self, ring: MultiProjRing, terms: dict[tuple[int, ...], Q]):
        self.ring = ring
        self.terms = {
            e: Q(c) for e, c in terms.items()
            if c != 0 and all(ei <= ni for ei, ni in zip(e, ring.dims))
        }

    def _coerce(self, other):
        if isinstance(other, ChowElement):
            if other.ring != self.ring:
                raise ValueError("elements live in different rings")
            return other
        return ChowElement(self.ring, {(0,) * len(self.ring.dims): Q(other)})

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
            out[e] = out.get(e, Q(0)) + c
        return ChowElement(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> "ChowElement":
        return ChowElement(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "ChowElement":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "ChowElement":
        return self._coerce(other) - self

    def __mul__(self, other) -> "ChowElement":
        if isinstance(other, (int, Q)):
            return ChowElement(self.ring, {e: Q(other) * c for e, c in self.terms.items()})
        other = self._coerce(other)
        out: dict[tuple[int, ...], Q] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if any(ei > ni for ei, ni in zip(e, self.ring.dims)):
                    continue
                out[e] = out.get(e, Q(0)) + c1 * c2
        return ChowElement(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ChowElement":
        if k < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        for _ in range(k):
            out = out * self
            if not out.terms:  # a zero product stays zero
                break
        return out

    def is_linear(self) -> bool:
        return all(sum(e) == 1 for e in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            mono = "*".join(f"h{j}^{k}" if k > 1 else f"h{j}"
                            for j, k in enumerate(e) if k)
            parts.append(f"({self.terms[e]})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


def chow_integrate(a: ChowElement) -> Q:
    """Degree map: coefficient of the top monomial (n_1, ..., n_k)."""
    return a.terms.get(a.ring.top, Q(0))


def linear_class(ring: MultiProjRing, coeffs: Sequence) -> ChowElement:
    """Divisor class sum(coeffs[j] * h_j) from a coefficient tuple."""
    if len(coeffs) != len(ring.dims):
        raise ValueError("coefficient count does not match factor count")
    out = ring.zero()
    for j, c in enumerate(coeffs):
        out = out + Q(c) * ring.generator(j)
    return out


def _as_linear(ring: MultiProjRing, cls) -> ChowElement:
    if isinstance(cls, ChowElement):
        if cls.ring != ring:
            raise ValueError("class lives in a different ring")
        if not cls.is_linear():
            raise ValueError("hypersurface class must be linear")
        return cls
    return linear_class(ring, cls)


def adjunction_canonical(ring: MultiProjRing, hypersurface_classes: Sequence) -> ChowElement:
    """Canonical class of a complete intersection, restricted as a linear
    ambient class: K_ambient + sum of the hypersurface classes, with
    K_ambient = sum_j -(n_j + 1) h_j."""
    k = linear_class(ring, [-(n + 1) for n in ring.dims])
    for cls in hypersurface_classes:
        k = k + _as_linear(ring, cls)
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

    base_gens: tuple[str, ...]
    base_matrix: tuple[tuple[int, ...], ...]
    r: int

    def __post_init__(self):
        n = len(self.base_gens)
        if len(self.base_matrix) != n or any(len(row) != n for row in self.base_matrix):
            raise ValueError("intersection matrix shape mismatch")
        for i in range(n):
            for j in range(n):
                if self.base_matrix[i][j] != self.base_matrix[j][i]:
                    raise ValueError("intersection matrix must be symmetric")
        if self.r < 0:
            raise ValueError("negative number of exceptional classes")

    @property
    def rank(self) -> int:
        return len(self.base_gens) + self.r

    def cls(self, base_coeffs: Sequence, exc_coeffs: Sequence | Q = Q(0)) -> "LatticeClass":
        """Build a class; a scalar ``exc_coeffs`` means that multiple of
        every exceptional class (so ``cls(..., 1)`` is ... + sum E_i)."""
        base = tuple(Q(c) for c in base_coeffs)
        if len(base) != len(self.base_gens):
            raise ValueError("base coefficient count mismatch")
        if isinstance(exc_coeffs, (int, Q)):
            exc = (Q(exc_coeffs),) * self.r
        else:
            exc = tuple(Q(c) for c in exc_coeffs)
            if len(exc) != self.r:
                raise ValueError("exceptional coefficient count mismatch")
        return LatticeClass(self, base + exc)

    def exceptional(self, i: int) -> "LatticeClass":
        """The class E_i (0-based)."""
        if not 0 <= i < self.r:
            raise ValueError("exceptional index out of range")
        exc = [Q(0)] * self.r
        exc[i] = Q(1)
        return self.cls([Q(0)] * len(self.base_gens), exc)


@dataclass(frozen=True)
class LatticeClass:
    lattice: BlowUpLattice
    coeffs: tuple[Q, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.lattice.rank:
            raise ValueError("coefficient vector length does not match lattice rank")
        object.__setattr__(self, "coeffs", tuple(Q(c) for c in self.coeffs))

    def _check(self, other: "LatticeClass"):
        if self.lattice != other.lattice:
            raise ValueError("classes live in different lattices")

    def __add__(self, other: "LatticeClass") -> "LatticeClass":
        self._check(other)
        return LatticeClass(self.lattice, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "LatticeClass") -> "LatticeClass":
        self._check(other)
        return LatticeClass(self.lattice, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "LatticeClass":
        return LatticeClass(self.lattice, tuple(-a for a in self.coeffs))

    def scale(self, t) -> "LatticeClass":
        t = Q(t)
        return LatticeClass(self.lattice, tuple(t * a for a in self.coeffs))

    __mul__ = scale
    __rmul__ = scale


def lattice_intersect(u: LatticeClass, v: LatticeClass) -> Q:
    """Value of the intersection form: base block by the stored matrix,
    exceptional block -identity, no cross terms."""
    if u.lattice != v.lattice:
        raise ValueError("classes live in different lattices")
    lat = u.lattice
    n = len(lat.base_gens)
    total = Q(0)
    for i, j in itertools.product(range(n), range(n)):
        total += u.coeffs[i] * lat.base_matrix[i][j] * v.coeffs[j]
    for i in range(lat.r):
        total -= u.coeffs[n + i] * v.coeffs[n + i]
    return total


# ---------------------------------------------------------------------------
# Pencil families
# ---------------------------------------------------------------------------

_BASES = {
    "P2": {
        "gens": ("h",),
        "matrix": ((1,),),
        "canonical": (-3,),
        "euler": 3,
    },
    "P1xP1": {
        "gens": ("l1", "l2"),
        "matrix": ((0, 1), (1, 0)),
        "canonical": (-2, -2),
        "euler": 4,
    },
}


@dataclass(frozen=True)
class PencilFamily:
    """Blown-up total space of a general pencil of curves on a surface."""

    base: str
    pencil_class: tuple[int, ...]
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
    if len(pencil) != len(spec["gens"]):
        raise ValueError("pencil class has wrong number of coefficients")
    if any(c < 1 for c in pencil):
        raise ValueError("pencil class must be ample (all coefficients >= 1)")

    def dot(u, v):
        return sum(u[i] * spec["matrix"][i][j] * v[j]
                   for i in range(len(u)) for j in range(len(v)))

    r = dot(pencil, pencil)
    two_g_minus_2 = r + dot(pencil, spec["canonical"])
    if two_g_minus_2 % 2 != 0:
        raise ValueError("adjunction gave a non-integral genus")
    g = two_g_minus_2 // 2 + 1

    lat = BlowUpLattice(spec["gens"], spec["matrix"], r)
    f = lat.cls(pencil, Q(-1))
    omega_rel = lat.cls(spec["canonical"], Q(1)) + 2 * f
    return PencilFamily(base, pencil, lat, f, omega_rel, g, r, spec["euler"])
