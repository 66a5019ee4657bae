"""Principal-parts Chern classes and Weierstrass sweeps on pencil families.

Given a pencil family (from :func:`hodgediv.chow.pencil_family`), the locus
swept by the fiberwise Weierstrass points is a curve in the total space
whose class is computed by a corank-1 degeneracy-locus formula:

    g(g+1)/2 * omega_rel - (deg lambda) * f.

The base degrees of eta, kappa, delta_0 and lambda are all recovered from
the lattice, giving two independent routes to every intersection number of
the family with a divisor class on the projectivized bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

from .chow import (
    LatticeClass,
    MultiProjRing,
    PencilFamily,
    adjunction_canonical,
    chow_integrate,
    lattice_intersect,
    linear_class,
    pencil_family,
    relative_dualizing_linear,
)
from .picard import PHODGE_ABELIAN, CurveRecord, basis, class_D, pair


@dataclass(frozen=True)
class FamilyInvariants:
    """A pencil family together with its fiber genus and lambda-degree."""

    g: int
    lambda_deg: Q
    family: PencilFamily

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("fiber genus must be >= 1")
        if self.lambda_deg < 0:
            raise ValueError("lambda-degree must be nonnegative")


def kappa_degree(fam: PencilFamily) -> Q:
    """Degree of kappa on the base: self-intersection of omega_rel."""
    return lattice_intersect(fam.omega_rel, fam.omega_rel)


def singular_fiber_count(fam: PencilFamily) -> Q:
    """Degree of delta_0 on the base, by topological Euler characteristics.

    For a general pencil every singular fiber is irreducible one-nodal and
    contributes 1, so the count is e(total space) - e(P^1) e(fiber)
    = (e(base) + r) - 2(2 - 2g).
    """
    return Q(fam.base_euler + fam.base_points - 2 * (2 - 2 * fam.genus))


def lambda_degree(fam: PencilFamily) -> Q:
    """Degree of lambda on the base via lambda = (kappa + delta)/12."""
    return (kappa_degree(fam) + singular_fiber_count(fam)) / 12


def family_invariants(fam: PencilFamily) -> FamilyInvariants:
    """Package a pencil family with its derived lambda-degree."""
    return FamilyInvariants(fam.genus, lambda_degree(fam), fam)


def principal_parts_c1(k: int, c1L: LatticeClass, c1omega: LatticeClass) -> LatticeClass:
    """First Chern class of the bundle of relative k-jets of L.

    The jet exact sequences telescope to k c1(L) + k(k-1)/2 c1(omega_rel).
    """
    if k < 1:
        raise ValueError("jet order must be >= 1")
    return k * c1L + Q(k * (k - 1), 2) * c1omega


def weierstrass_family_class(fam: FamilyInvariants) -> LatticeClass:
    """Class of the fiberwise Weierstrass locus in the total space:
    g(g+1)/2 omega_rel - (deg lambda) f."""
    omega = fam.family.omega_rel
    return principal_parts_c1(fam.g, omega, omega) - fam.lambda_deg * fam.family.f


def weierstrass_sweep_degree(fam: FamilyInvariants, ample: LatticeClass) -> Q:
    """Degree, against a base-pullback class, of the curve traced out by
    the Weierstrass points of the pencil."""
    return lattice_intersect(weierstrass_family_class(fam), ample)


def eta_degree_from_family(fam: PencilFamily, L: LatticeClass) -> Q:
    """Degree of eta on the base of a family whose differentials are cut
    out by the divisor class L.

    The relation omega_rel = pullback(O(-1)) + L, intersected with an
    exceptional section E, rearranges to deg eta = (omega_rel - L).E.
    """
    if fam.base_points < 1:
        raise ValueError("family has no exceptional sections")
    return lattice_intersect(fam.omega_rel - L, fam.lattice.exceptional(0))


# The worked pencil examples: surface and pencil class, the base class whose
# pullback cuts out the differentials, the total space as a complete
# intersection in P^1 x P^n (dimensions, hypersurface classes) if the Chow-ring
# route applies, and each quantity with its value in the paper and its route.
PENCIL_EXAMPLES = {
    "quartic-pencil": ("P2", 4, (1,), None, (
        ("fiber genus", "genus", 3),
        ("base points", "base points", 16),
        ("deg eta", "eta", 1),
        ("B.kappa", "kappa", 9),
        ("B.delta_0", "delta_0", 27),
        ("B.lambda", "lambda", 3),
        ("B.D (class pairing)", "pairing", 18),
        ("B.D (degeneracy sweep)", "sweep", 18),
        ("B.D (6d-6 at d=4)", "flex", 18),
    )),
    "genus4-quadric": ("P1xP1", (3, 3), (1, 1), ((1, 3), ((0, 2), (1, 3))), (
        ("fiber genus", "genus", 4),
        ("base points", "base points", 18),
        ("B.eta", "eta", 1),
        ("B.kappa (lattice)", "kappa", 14),
        ("B.kappa (Chow ring)", "Chow kappa", 14),
        ("B.delta_0", "delta_0", 34),
        ("B.lambda", "lambda", 4),
        ("B.D (class pairing)", "pairing", 56),
        ("B.D (degeneracy sweep)", "sweep", 56),
        ("B.D (Chow ring)", "Chow D", 56),
    )),
}


def pencil_example(name: str) -> list[tuple[str, int, Q]]:
    """Rows (quantity, paper value, computed value) of a worked example."""
    base, pencil, cut, ambient, rows = PENCIL_EXAMPLES[name]
    fam = pencil_family(base, pencil)
    L = fam.pullback(cut)
    computed = {
        "genus": Q(fam.genus),
        "base points": Q(fam.base_points),
        "eta": eta_degree_from_family(fam, L),
        "kappa": kappa_degree(fam),
        "delta_0": singular_fiber_count(fam),
        "lambda": lambda_degree(fam),
        "sweep": weierstrass_sweep_degree(family_invariants(fam), L),
    }
    rec = CurveRecord.from_map("B", basis(PHODGE_ABELIAN, fam.genus),
                               {s: computed[s] for s in ("eta", "lambda", "delta_0")})
    computed["pairing"] = pair(rec, class_D(fam.genus))
    if base == "P2":  # the flexes of a plane pencil of degree d trace a curve of degree 6d-6
        computed["flex"] = Q(6 * pencil - 6)
    if ambient:
        computed["Chow kappa"], computed["Chow D"] = _canonical_pencil_in_chow_ring(*ambient)
    return [(quantity, paper, computed[route]) for quantity, route, paper in rows]


def _canonical_pencil_in_chow_ring(dims, hypersurfaces) -> tuple[Q, Q]:
    """B.kappa and B.D of a pencil of canonical curves whose total space S is
    the complete intersection of ``hypersurfaces`` in P^1 x P^n, in the Chow
    ring alone: omega by adjunction, the genus from omega.f, delta_0 from the
    Euler number c(T)/c(N) of S, and the differentials cut out by h of P^n."""
    ring = MultiProjRing(dims)
    f, h = ring.generators()
    divisors = [linear_class(ring, c) for c in hypersurfaces]
    surface = ring.one()
    chern = (1 + f) ** 2 * (1 + h) ** (dims[1] + 1)
    for d in divisors:
        surface = surface * d
        chern = chern * sum(((-d) ** k for k in range(sum(dims) + 1)), ring.zero())
    omega = relative_dualizing_linear(adjunction_canonical(ring, hypersurfaces), 0)
    kappa = chow_integrate(omega * omega * surface)
    g = chow_integrate(omega * f * surface) / 2 + 1
    delta_0 = chow_integrate(chern * surface) - 2 * (2 - 2 * g)
    sweep = g * (g + 1) / 2 * omega - (kappa + delta_0) / 12 * f
    return kappa, chow_integrate(sweep * h * surface)
