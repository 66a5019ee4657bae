"""Exact rational scalars, vectors and matrices.

All arithmetic in this package is exact.  Scalars are ``fractions.Fraction``
instances (aliased ``Q`` here), which are always kept in canonical form
(gcd(|p|, q) = 1, q > 0) and raise ``ZeroDivisionError`` on a zero
denominator.  A matrix is stored by rows, each a map column -> nonzero
entry in column order.  :func:`_over_lcm` is the one routine that scales
rationals to integer numerators over their lcm: for solver rows, Chow
products and the classes and curves of :mod:`hodgediv.picard`.

The solver eliminates fraction-free over Python ints: each row of
``[A | b]`` is scaled to integers, and each updated row is divided by its
content (the gcd of its entries).  That keeps every row, up to sign, the
primitive part of the matching Bareiss row, so entries stay within the
Hadamard bound of the minors of ``[A | b]``.  Pivoting is first-nonzero, as
in plain Gaussian elimination, so the pivots, the rank and the exceptions
are those of elimination over Fractions; only the solution is turned back
into canonical Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Mapping, Sequence

Q = Fraction


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
    """Render a rational as ``p/q``, or just ``p`` when the denominator is 1."""
    if not isinstance(x, Q):
        x = Q(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Q:
    """Inverse of :func:`format_rational`; an integer is read by ``int``, which
    takes the same integer strings as the Fraction parser at a fifth of its cost."""
    s = s.strip()
    if (s[1:] if s[:1] == "-" else s).isdecimal():
        return Q(int(s))
    return Q(s)


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
    """Solve A x = b exactly by fraction-free elimination over Python ints.

    The rows of A are taken in as stored, column -> nonzero entry, so no
    zero entry of A is ever tested or converted: each row of ``[A | b]``
    becomes a dense int list, scaled by the lcm of the denominators of its
    nonzero entries.  Pivoting is first-nonzero: the pivot of a column is the
    first remaining row with a nonzero entry there, and rows whose entry in
    the pivot column is 0 are skipped.  Row r is updated as
    ``fp*row_r - fr*row_p`` (fp, fr divided by their gcd) and then divided
    by its content, the gcd of its entries.

    Every row stays a nonzero multiple of the row that elimination over
    Fractions would hold, so the pivots and the rank are the same.  Dividing
    out the content makes the row, up to sign, the primitive part of the
    matching Bareiss row, whose entries are minors of the scaled ``[A | b]``:
    they stay within the Hadamard bound instead of growing exponentially
    with the number of steps.  Plain Bareiss would need no gcds but rescales
    every remaining row at every pivot, which costs more on the near-diagonal
    systems that deriving D poses.

    Back-substitution, O(n^2), keeps the solution as integer numerators
    over one common denominator, the lcm of the reduced denominators found
    so far, and returns canonical Fractions.

    Raises :class:`InconsistentSystem` when no solution exists and
    :class:`UnderdeterminedSystem` when the solution is not unique; both
    carry the rank found.
    """
    if len(b) != a.rows:
        raise ValueError("right-hand side length mismatch")
    ncols = a.cols
    m = []
    for row, v in zip(a.nonzero_rows, b):
        nums, _ = _over_lcm([*row.values(), v if isinstance(v, Q) else Q(v)])
        ints = [0] * ncols + nums[-1:]
        for j, e in zip(row, nums):
            ints[j] = e
        m.append(ints)
    rank = 0
    for piv_c in range(ncols):
        hit = next((r for r in range(rank, a.rows) if m[r][piv_c]), None)
        if hit is None:
            continue
        m[rank], m[hit] = m[hit], m[rank]
        prow = m[rank]
        fp = prow[piv_c]
        for r in range(rank + 1, a.rows):
            row = m[r]
            fr = row[piv_c]
            if not fr:
                continue
            g = gcd(fp, fr)
            sp, sr = fp // g, fr // g
            # columns up to piv_c become 0 in the updated row
            tail = [sp * x - sr * y for x, y in zip(row[piv_c + 1:], prow[piv_c + 1:])]
            content = gcd(*tail)
            if content > 1:
                tail = [x // content for x in tail]
            m[r] = [0] * (piv_c + 1) + tail
        rank += 1
    if any(m[r][ncols] for r in range(rank, a.rows)):
        raise InconsistentSystem(rank)
    if rank < ncols:
        raise UnderdeterminedSystem(rank)
    # full column rank: the pivot of row r sits in column r.  x_c = p[c] / q
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
    return tuple(Q(v, q) for v in p)
