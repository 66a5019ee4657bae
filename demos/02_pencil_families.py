"""Verify the two worked pencil-family examples by several routes.

A general pencil of plane quartics (genus 3) and one of genus-4 canonical
curves on a quadric give curves B in the projectivized bundle of
differentials.  Every quantity the paper states is recomputed, and B.D by
independent routes: the class pairing, the degeneracy-locus sweep on the
blown-up surface and, for the quadric, the Chow ring of P^1 x P^3.
"""

from hodgediv.porteous import PENCIL_EXAMPLES, pencil_example

for name in PENCIL_EXAMPLES:
    print(f"--- {name} ---")
    for quantity, paper, computed in pencil_example(name):
        assert computed == paper, f"{name}: {quantity} is {computed}, the paper gives {paper}"
        print(f"{quantity:<24} = {computed}")
