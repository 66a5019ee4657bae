"""Exact rational scalars, vectors and matrices.

All arithmetic in this package is exact.  Scalars are ``fractions.Fraction``
instances (aliased ``Q`` here), which are always kept in canonical form
(gcd(|p|, q) = 1, q > 0) and raise ``ZeroDivisionError`` on a zero
denominator.  Matrices are small and dense; the solver is plain Gaussian
elimination with first-nonzero pivoting, which is deterministic and exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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
    """Inverse of :func:`format_rational`."""
    return Q(s.strip())


@dataclass(frozen=True)
class QMatrix:
    """Dense rational matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple[Q, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if self.rows * self.cols != len(self.entries):
            raise ValueError("entry count does not match dimensions")
        object.__setattr__(self, "entries",
                           tuple(e if isinstance(e, Q) else Q(e) for e in self.entries))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "QMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, tuple(e for r in rows for e in r))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(n, n, tuple(Q(1) if i == j else Q(0) for i in range(n) for j in range(n)))

    def __getitem__(self, ij: tuple[int, int]) -> Q:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Q, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def mul_vector(self, x: Sequence[Q]) -> tuple[Q, ...]:
        if len(x) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum((self[i, j] * x[j] for j in range(self.cols)), Q(0)) for i in range(self.rows))


def _echelonize(a: QMatrix, b: Sequence[Q]):
    """Forward elimination; returns (rows, rhs, pivot column list)."""
    m = [list(a.row(i)) for i in range(a.rows)]
    t = [Q(v) for v in b]
    pivots: list[int] = []
    piv_r = 0
    for piv_c in range(a.cols):
        hit = next((r for r in range(piv_r, a.rows) if m[r][piv_c]), None)
        if hit is None:
            continue
        m[piv_r], m[hit] = m[hit], m[piv_r]
        t[piv_r], t[hit] = t[hit], t[piv_r]
        fp = m[piv_r][piv_c]
        for r in range(piv_r + 1, a.rows):
            fr = m[r][piv_c]
            if not fr:
                continue
            ratio = fr / fp
            for c in range(piv_c, a.cols):
                m[r][c] -= m[piv_r][c] * ratio
            t[r] -= t[piv_r] * ratio
        pivots.append(piv_c)
        piv_r += 1
    return m, t, pivots


def solve_exact(a: QMatrix, b: Sequence[Q]) -> tuple[Q, ...]:
    """Solve A x = b exactly.

    Raises :class:`InconsistentSystem` when no solution exists and
    :class:`UnderdeterminedSystem` when the solution is not unique; both
    carry the rank found.
    """
    if len(b) != a.rows:
        raise ValueError("right-hand side length mismatch")
    m, t, pivots = _echelonize(a, b)
    rank = len(pivots)
    for r in range(rank, a.rows):
        if t[r] != 0:
            raise InconsistentSystem(rank)
    if rank < a.cols:
        raise UnderdeterminedSystem(rank)
    x = [Q(0)] * a.cols
    for r in range(rank - 1, -1, -1):
        pc = pivots[r]
        row = m[r]
        s = t[r] - sum((row[c] * x[c] for c in range(pc + 1, a.cols) if row[c] and x[c]), Q(0))
        x[pc] = s / row[pc]
    return tuple(x)
