"""Exact rational scalars, vectors and matrices.

All arithmetic in this package is exact.  Scalars are ``fractions.Fraction``
instances (aliased ``Q`` here), which are always kept in canonical form
(gcd(|p|, q) = 1, q > 0) and raise ``ZeroDivisionError`` on a zero
denominator.  A matrix is stored by rows, each a map column -> nonzero
entry in column order.  :func:`_over_lcm` is the one routine that scales
rationals to integer numerators over their lcm: for solver rows and
right-hand sides, the lattice classes of :mod:`hodgediv.chow` and the
records of :mod:`hodgediv.picard`.

The solver eliminates fraction-free over Python ints by Bareiss's
integer-preserving elimination, kept lazy: a row is rescaled only when its
entry in the pivot column is nonzero, and every division is exact, by a
pivot already known, so no gcd is taken while eliminating.  Each stored
entry is a minor of the integer system and stays within its Hadamard
bound.  Pivoting is first-nonzero, as in plain Gaussian elimination, so the
pivots, the rank and the exceptions are those of elimination over
Fractions; only the solution is turned back into canonical Fractions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Mapping, Sequence

Q = Fraction
_MAX_DIGITS = 4300  # the most digits Python reads or prints in an int, by default
_TOO_LONG = 10 ** _MAX_DIGITS
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\Z")


class InconsistentSystem(ValueError):
    """The linear system A x = b has no solution."""

    def __init__(self, rank: int):
        super().__init__(f"inconsistent linear system (rank {rank})")
        self.rank = rank


class UnderdeterminedSystem(ValueError):
    """The linear system A x = b has a positive-dimensional solution space."""

    def __init__(self, rank: int):
        super().__init__(f"underdetermined linear system (rank {rank})")
        self.rank = rank


def format_rational(x: Q) -> str:
    """Render a rational as ``p/q``, or just ``p`` when the denominator is 1; one
    with a part past ``_MAX_DIGITS`` digits is a ValueError, found by one comparison."""
    x = x if isinstance(x, Q) else Q(x)
    if abs(x.numerator) >= _TOO_LONG or x.denominator >= _TOO_LONG:
        raise ValueError(f"result refused: it needs more than {_MAX_DIGITS:,} digits")
    return str(x)


def parse_rational(s: str) -> Q:
    """Inverse of :func:`format_rational`; an integer is read by ``int``, which
    takes the same integer strings as the Fraction parser at a fifth of its cost.
    A numerator or denominator past ``_MAX_DIGITS`` digits is a ValueError; an
    exponent past ``_MAX_DIGITS`` plus the length of the text makes the value 0
    or that long, and is decided without forming 10 to its power."""
    s = s.strip()
    if (s[1:] if s[:1] == "-" else s).isdecimal():
        return Q(int(s))
    m = _EXPONENT.search(s)
    huge = m is not None and abs(int(m[1])) > _MAX_DIGITS + len(s)
    value = Q(s[:m.start(1)] + "0") if huge else Q(s)  # Fraction checks the rest of the text
    if value and (huge or max(abs(value.numerator), value.denominator) >= _TOO_LONG):
        raise ValueError(f"rational refused: it needs more than {_MAX_DIGITS:,} digits")
    return value


ZERO = Q(0)


def _over_lcm(values: Sequence[Q]) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over the lcm of their denominators,
    and that lcm."""
    pairs = [v.as_integer_ratio() for v in values]
    den = lcm(*[d for _, d in pairs])
    return [p * (den // d) for p, d in pairs], den


def _nonzero(size: int, dense: Sequence | None = None,
             nonzero: Mapping[int, object] | None = None) -> dict[int, Q]:
    """The stored form of a vector of length ``size``, given dense or as a
    position map: position -> nonzero Fraction, in position order."""
    if nonzero is None:
        if len(dense) != size:
            raise ValueError(f"{len(dense)} entries given for a vector of length {size}")
        nonzero = dict(enumerate(dense))
    elif dense is not None:
        raise TypeError("entries given both dense and by position")
    out = {i: q for i, v in sorted(nonzero.items()) if (q := v if isinstance(v, Q) else Q(v))}
    if out and not 0 <= min(out) <= max(out) < size:
        raise ValueError(f"entry position outside 0..{size - 1}")
    return out


@dataclass(frozen=True)
class QMatrix:
    """Rational matrix stored by rows, each a map column -> nonzero entry."""

    rows: int
    cols: int
    nonzero_rows: tuple[dict[int, Q], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.nonzero_rows) != self.rows:
            raise ValueError("row count does not match dimensions")
        object.__setattr__(self, "nonzero_rows",
                           tuple(_nonzero(self.cols, nonzero=r) for r in self.nonzero_rows))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "QMatrix":
        """The matrix with the given dense rows."""
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, tuple(dict(enumerate(r)) for r in rows))

    def mul_vector(self, x: Sequence[Q]) -> tuple[Q, ...]:
        if len(x) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum((v * x[j] for j, v in r.items()), ZERO) for r in self.nonzero_rows)


def solve_exact(a: QMatrix, b: Sequence[Q]) -> tuple[Q, ...]:
    """Solve A x = b exactly by lazy fraction-free (Bareiss) elimination.

    Scaling: ``b`` becomes integer numerators over the lcm L of its
    denominators, once as a column, and each row of A, taken in as stored
    (column -> nonzero entry), is scaled by the lcm d of its own
    denominators; the integer row is ``[d*A_r | d*L*b_r]``, so the system
    solves for y = L x.  Scaling b per row instead would put d into every
    entry of the row, and Bareiss carries such factors into every minor.

    Elimination: pivoting is first-nonzero; the pivot of a column is the
    first remaining row with a nonzero entry there.  With p_0 = 1 and p_k
    the pivot of step k, the eager Bareiss update of a row at step k is
    ``(p_k*row - f*P)/p_{k-1}``, exact by Sylvester's identity, and its
    entries are minors of the integer ``[A | b]``.  A row with f = 0 would
    only be multiplied by p_k/p_{k-1}, so it is left as it is: row r keeps
    ``lvl[r]``, the pivot p_l of the step that last updated it, and its
    Bareiss row at level k-1 is ``row*p_{k-1}/p_l``.  Substituting that,
    a row with f != 0 becomes ``(p_k*row - f*P)//lvl[r]``, with P the pivot
    row raised to level k-1 and p_k = ``e*p_{k-1}//lvl[P]`` for its stored
    entry e; P is raised only when some row below needs it.  On a dense
    system this is plain Bareiss; on the near-diagonal systems that deriving
    D poses most rows are never touched.  Every stored row is a nonzero
    multiple of the row elimination over Fractions would hold, so the pivots
    and the rank are the same.

    Back-substitution, O(n^2), keeps y as integer numerators over one
    common denominator q and returns the canonical Fractions p/(q*L).

    Raises :class:`InconsistentSystem` when no solution exists and
    :class:`UnderdeterminedSystem` when the solution is not unique; both
    carry the rank found.
    """
    if len(b) != a.rows:
        raise ValueError("right-hand side length mismatch")
    ncols = a.cols
    bnums, scale = _over_lcm([v if isinstance(v, Q) else Q(v) for v in b])
    m = []
    for row, bv in zip(a.nonzero_rows, bnums):
        nums, d = _over_lcm(row.values())
        ints = [0] * ncols + [bv * d]
        for j, e in zip(row, nums):
            ints[j] = e
        m.append(ints)
    lvl = [1] * a.rows
    prev = 1
    rank = 0
    for piv_c in range(ncols):
        hit = next((r for r in range(rank, a.rows) if m[r][piv_c]), None)
        if hit is None:
            continue
        m[rank], m[hit] = m[hit], m[rank]
        lvl[rank], lvl[hit] = lvl[hit], lvl[rank]
        prow, plvl = m[rank], lvl[rank]
        pk = prow[piv_c] * prev // plvl
        ptail = None
        for r in range(rank + 1, a.rows):
            row = m[r]
            f = row[piv_c]
            if not f:
                continue
            if ptail is None:
                ptail = [x * prev // plvl for x in prow[piv_c + 1:]]
            # columns up to piv_c become 0 in the updated row
            d = lvl[r]
            m[r] = [0] * (piv_c + 1) + [(pk * x - f * y) // d
                                        for x, y in zip(row[piv_c + 1:], ptail)]
            lvl[r] = pk
        prev = pk
        rank += 1
    if any(m[r][ncols] for r in range(rank, a.rows)):
        raise InconsistentSystem(rank)
    if rank < ncols:
        raise UnderdeterminedSystem(rank)
    # full column rank: the pivot of row r sits in column r.  y_c = p[c] / q
    # for every solved c, over one common denominator q > 0.
    p = [0] * ncols
    q = 1
    for r in range(ncols - 1, -1, -1):
        row = m[r]
        num = row[ncols] * q - sum(map(mul, row[r + 1:ncols], p[r + 1:]))
        den = row[r] * q
        g = gcd(num, den)
        num, den = num // g, den // g
        if den < 0:
            num, den = -num, -den
        k = den // gcd(q, den)
        if k > 1:
            p = [k * v for v in p]
            q *= k
        p[r] = num * (q // den)
    q *= scale
    return tuple(Q(v, q) for v in p)
