import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from hodgediv.exactq import (
    InconsistentSystem,
    QMatrix,
    UnderdeterminedSystem,
    format_rational,
    parse_rational,
    solve_exact,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def reference_solve(a, b):
    """Gaussian elimination over Fractions with first-nonzero pivoting."""
    m = [list(a.row(i)) + [Q(v)] for i, v in enumerate(b)]
    rank = 0
    for c in range(a.cols):
        hit = next((r for r in range(rank, a.rows) if m[r][c]), None)
        if hit is None:
            continue
        m[rank], m[hit] = m[hit], m[rank]
        for r in range(rank + 1, a.rows):
            ratio = m[r][c] / m[rank][c]
            m[r] = [x - ratio * y for x, y in zip(m[r], m[rank])]
        rank += 1
    if any(m[r][-1] for r in range(rank, a.rows)):
        raise InconsistentSystem(rank)
    if rank < a.cols:
        raise UnderdeterminedSystem(rank)
    x = [Q(0)] * a.cols
    for r in reversed(range(rank)):
        x[r] = (m[r][-1] - sum(m[r][c] * x[c] for c in range(r + 1, a.cols))) / m[r][r]
    return tuple(x)


def _outcome(solve, a, b):
    try:
        return solve(a, b)
    except (InconsistentSystem, UnderdeterminedSystem) as exc:
        return type(exc), exc.rank


def test_solve_identity():
    a = QMatrix.from_rows([[1, 0], [0, 1]])
    assert solve_exact(a, [Q(3), Q(-5, 2)]) == (Q(3), Q(-5, 2))


def test_solve_2x2():
    # hand Gaussian elimination: x + y = 2, 2x + y = 3 -> x = y = 1
    a = QMatrix.from_rows([[2, 1], [1, 1]])
    assert solve_exact(a, [Q(3), Q(2)]) == (Q(1), Q(1))


def test_solve_inconsistent():
    a = QMatrix.from_rows([[1, 1], [2, 2]])
    with pytest.raises(InconsistentSystem) as exc:
        solve_exact(a, [Q(1), Q(3)])
    assert exc.value.rank == 1


def test_solve_underdetermined():
    a = QMatrix.from_rows([[1, 1], [2, 2]])
    with pytest.raises(UnderdeterminedSystem) as exc:
        solve_exact(a, [Q(1), Q(2)])
    assert exc.value.rank == 1


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        QMatrix(2, 2, (Q(1),) * 3)
    with pytest.raises(ValueError):
        solve_exact(QMatrix.from_rows([[1, 0], [0, 1]]), [Q(1)])


def test_solve_empty_system():
    assert solve_exact(QMatrix.from_rows([]), []) == ()


def test_solve_no_unknowns_nonzero_rhs():
    with pytest.raises(InconsistentSystem) as exc:
        solve_exact(QMatrix.from_rows([[], []]), [Q(0), Q(1, 3)])
    assert exc.value.rank == 0


# entries: about a third zero, the rest small rationals
entries = st.one_of(st.just(Q(0)), rationals, rationals)


@st.composite
def systems(draw):
    """Rectangular [A | b] from 1x1 to 6x6, some rows combinations of others."""
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(1, 6))
    nfree = draw(st.integers(1, nrows))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nfree, max_size=nfree))
    while len(rows) < nrows:
        i, j = draw(st.integers(0, nfree - 1)), draw(st.integers(0, nfree - 1))
        k = draw(rationals)
        rows.append([x + k * y for x, y in zip(rows[i], rows[j])])
    rhs = draw(st.sampled_from(["int", "fraction", "consistent"]))
    if rhs == "int":
        b = draw(st.lists(st.integers(-20, 20), min_size=nrows, max_size=nrows))
    elif rhs == "fraction":
        b = draw(st.lists(rationals, min_size=nrows, max_size=nrows))
    else:
        x0 = draw(st.lists(rationals, min_size=ncols, max_size=ncols))
        b = list(QMatrix.from_rows(rows).mul_vector(x0))
    return QMatrix.from_rows(rows), b


@given(systems())
def test_solve_matches_fraction_elimination(system):
    """Same solution as elimination over Fractions, or the same exception and rank."""
    a, b = system
    assert _outcome(solve_exact, a, b) == _outcome(reference_solve, a, b)


def test_solve_diagonally_dominant_sweep():
    """The benchmark's shape: integer A, strictly diagonally dominant, A x0 = b."""
    rng = random.Random(20181212)
    for n in range(4, 41):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        for j, row in enumerate(rows):
            row[j] = rng.choice((-1, 1)) * (sum(abs(v) for v in row) + rng.randint(1, 9))
        x0 = tuple(Q(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(n))
        b = [sum(e * x for e, x in zip(row, x0)) for row in rows]
        assert solve_exact(QMatrix.from_rows(rows), b) == x0


def _sympy_matrix(sympy, rows):
    return sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in r] for r in rows])


def _random_rows(rng, n, m):
    """Rational entries, about a third of them zero, so pivots need swaps."""
    return [[Q(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() > 0.35 else Q(0)
             for _ in range(m)] for _ in range(n)]


def test_solve_matches_sympy_lusolve():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20181212)
    for n in range(2, 13):
        rows = _random_rows(rng, n, n)
        while _sympy_matrix(sympy, rows).det() == 0:
            rows = _random_rows(rng, n, n)
        b = [Q(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(n)]
        expected = _sympy_matrix(sympy, rows).LUsolve(_sympy_matrix(sympy, [[v] for v in b]))
        assert solve_exact(QMatrix.from_rows(rows), b) == tuple(
            Q(int(v.p), int(v.q)) for v in expected)


def test_solve_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    rows = _random_rows(rng, 4, 6)
    # two dependent rows on top of four random ones: rank at most 4 < 6
    rows += [[x + 2 * y for x, y in zip(rows[0], rows[1])], [3 * x for x in rows[2]]]
    x0 = [Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(6)]
    b = list(QMatrix.from_rows(rows).mul_vector(x0))
    rank = _sympy_matrix(sympy, rows).rank()
    assert rank < 6
    with pytest.raises(UnderdeterminedSystem) as exc:
        solve_exact(QMatrix.from_rows(rows), b)
    assert exc.value.rank == rank
    b[-1] += 1
    with pytest.raises(InconsistentSystem) as exc:
        solve_exact(QMatrix.from_rows(rows), b)
    assert exc.value.rank == rank


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3),
       st.lists(rationals, min_size=3, max_size=3))
def test_solve_round_trip(rows, x):
    """For any solvable instance, A * solve(A, A x) = A x exactly."""
    a = QMatrix.from_rows(rows)
    b = a.mul_vector(x)
    try:
        sol = solve_exact(a, b)
    except UnderdeterminedSystem:
        return
    assert a.mul_vector(sol) == b


@given(st.lists(st.lists(rationals, min_size=2, max_size=2), min_size=3, max_size=3),
       st.lists(rationals, min_size=3, max_size=3))
def test_solve_deterministic(rows, b):
    a = QMatrix.from_rows(rows)
    results = []
    for _ in range(2):
        try:
            results.append(solve_exact(a, b))
        except (InconsistentSystem, UnderdeterminedSystem) as exc:
            results.append((type(exc), exc.rank))
    assert results[0] == results[1]


@given(rationals, rationals, rationals)
def test_canonical_form_preserved(x, y, z):
    """Fraction arithmetic stays in lowest terms with positive denominator."""
    for value in (x + y * z, x - y, x * z, (x + y) * (y + z)):
        from math import gcd
        assert value.denominator > 0
        assert gcd(abs(value.numerator), value.denominator) == 1


def test_zero_denominator_is_an_error():
    with pytest.raises(ZeroDivisionError):
        Q(1, 0)


@given(rationals)
def test_format_parse_round_trip(x):
    assert parse_rational(format_rational(x)) == x


def test_format_integers_without_denominator():
    assert format_rational(Q(3)) == "3"
    assert format_rational(Q(-5, 2)) == "-5/2"
