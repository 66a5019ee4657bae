"""Extremality of the double-zero strata via curve negativity.

Teichmueller curves inside the double-zero stratum pair with the stratum
class in -chi/3 (abelian) or -chi/2 (quadratic), independently of the
Lyapunov data.  For an ample class A we compute the sound threshold d and
certify C.(stratum + d A) <= 0 on a parameter grid.
"""

from fractions import Fraction as Q

from hodgediv import DivisorClass, class_stratum_abelian, class_stratum_quadratic, pair
from hodgediv.extremality import (
    TeichParamsAbelian,
    TeichParamsQuadratic,
    certificate_check,
    double_zero_partition,
    kappa_mu,
    sample_grid,
    teich_vector_abelian,
    teich_vector_quadratic,
    threshold_abelian,
)

g = 3
p = double_zero_partition("abelian", g)
print(f"kappa constant of the abelian double-zero stratum, genus {g}: {kappa_mu(p)}")

stratum = class_stratum_abelian(g)
print("stratum pairing is independent of the Lyapunov sum L:")
for L in (Q(0), Q(1), Q(3)):
    rec = teich_vector_abelian(g, p, TeichParamsAbelian(Q(2), L, g))
    print(f"  chi=2, L={L}: pairing {pair(rec, stratum)}")

a, b, c0 = Q(1), Q(2), Q(1, 3)
d = threshold_abelian(a, b, c0, g)
print(f"threshold for A = {a}*lambda + {b}*eta + {c0}*delta_0: d = {d}")

ample = DivisorClass.from_map(stratum.basis, {"lambda": a, "eta": b, "delta_0": c0})
grid = sample_grid("abelian", g, Q(1))
print("certificate at d: ", certificate_check(stratum, ample, d, grid))
print("certificate at 2d:", certificate_check(stratum, ample, 2 * d, grid))

print()
pq = double_zero_partition("quadratic", g)
sq = class_stratum_quadratic(g)
print("quadratic stratum pairing is independent of the Siegel-Veech constant:")
for c in (Q(0), Q(1, 2), Q(2)):
    rec = teich_vector_quadratic(g, pq, TeichParamsQuadratic(Q(2), c))
    print(f"  chi=2, c_area={c}: pairing {pair(rec, sq)}")
