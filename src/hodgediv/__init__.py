"""Exact intersection-theory toolkit for divisor classes on projectivized
bundles of differentials over moduli of curves.

Everything is computed in exact rational arithmetic: Picard-group bases
and a divisor-class catalog (:mod:`hodgediv.picard`), test curves and the
coefficient-derivation pipeline (:mod:`hodgediv.testcurves`), Chow rings
of products of projective spaces and blow-up lattices
(:mod:`hodgediv.chow`), degeneracy-locus computations on pencil families
(:mod:`hodgediv.porteous`), and Teichmueller-curve pairings with
extremality certificates (:mod:`hodgediv.extremality`).
"""

from .exactq import Q, QMatrix, format_rational, parse_rational, solve_exact
from .picard import (
    BasisSpec,
    CurveRecord,
    DivisorClass,
    basis,
    class_D,
    class_W,
    class_stratum_abelian,
    class_stratum_quadratic,
    pair,
    substitute_relation,
)

__all__ = [
    "Q", "QMatrix", "format_rational", "parse_rational", "solve_exact",
    "BasisSpec", "CurveRecord", "DivisorClass", "basis",
    "class_D", "class_W", "class_stratum_abelian", "class_stratum_quadratic",
    "pair", "substitute_relation",
]

__version__ = "0.1.0"
