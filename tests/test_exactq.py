import random
import re
import time
from fractions import Fraction as Q
from math import lcm

import pytest
from hypothesis import given, strategies as st

from hodgediv import testcurves
from hodgediv.exactq import (
    InconsistentSystem,
    QMatrix,
    UnderdeterminedSystem,
    format_rational,
    parse_rational,
    solve_exact,
)
from hodgediv.picard import class_D
from hodgediv.testcurves import derive_theorem_class

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def reference_solve(a, b):
    """Gaussian elimination over Fractions with first-nonzero pivoting."""
    m = [[r.get(c, Q(0)) for c in range(a.cols)] + [Q(v)] for r, v in zip(a.nonzero_rows, b)]
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
        QMatrix(2, 2, ({0: Q(1)},))
    with pytest.raises(ValueError):
        QMatrix(2, 2, ({0: Q(1)}, {2: Q(1)}))
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
    return rows, b


@given(systems())
def test_solve_matches_fraction_elimination(system):
    """Same solution as elimination over Fractions, or the same exception and
    rank, whether the rows come in dense or as their nonzero entries."""
    rows, b = system
    dense = QMatrix.from_rows(rows)
    sparse = QMatrix(len(rows), len(rows[0]),
                     tuple({j: e for j, e in enumerate(r) if e} for r in rows))
    assert sparse == dense
    expected = _outcome(reference_solve, dense, b)
    assert _outcome(solve_exact, dense, b) == expected
    assert _outcome(solve_exact, sparse, b) == expected


# the right-hand side's denominators reach 2^40, so an lcm over a few rows
# exceeds 2^64
wide_rationals = st.builds(Q, st.integers(-10**6, 10**6), st.integers(1, 2**40))


@st.composite
def block_sparse_systems(draw):
    """[A | b] up to 10x10 whose rows are nonzero only on a band of columns
    around a nonzero entry of their own (about 60% of all entries zero),
    maybe one column empty, some rows combinations of others, in shuffled
    order.  Elimination then meets rows left untouched for several steps,
    pivots with nothing below them and columns without a pivot followed by
    further pivots."""
    ncols = draw(st.integers(1, 10))
    nrows = draw(st.integers(max(1, ncols - 2), 10))
    nfree = draw(st.just(nrows) | st.integers(1, nrows))
    empty = {draw(st.integers(0, ncols - 1))} if draw(st.integers(0, 3)) == 0 else set()
    rows = []
    for i in range(nfree):
        c = i % ncols
        lo, hi = draw(st.integers(max(0, c - 3), c)), draw(st.integers(c, min(ncols - 1, c + 3)))
        rows.append([Q(0) if j in empty or not lo <= j <= hi
                     else draw(rationals.filter(bool) if j == c else rationals)
                     for j in range(ncols)])
    while len(rows) < nrows:
        i, j = draw(st.integers(0, nfree - 1)), draw(st.integers(0, nfree - 1))
        k = draw(rationals)
        rows.append([x + k * y for x, y in zip(rows[i], rows[j])])
    rows = draw(st.permutations(rows))
    rhs = draw(st.sampled_from(["wide", "consistent", "consistent", "near"]))
    if rhs == "wide":
        b = draw(st.lists(wide_rationals, min_size=nrows, max_size=nrows))
    else:
        x0 = draw(st.lists(wide_rationals, min_size=ncols, max_size=ncols))
        b = list(QMatrix.from_rows(rows).mul_vector(x0))
        if rhs == "near":
            b[draw(st.integers(0, nrows - 1))] += draw(wide_rationals)
    return rows, b


@given(block_sparse_systems())
def test_block_sparse_solve_matches_fraction_elimination(system):
    """Sparse, rank-deficient systems with wide right-hand sides: the same
    solution, or the same exception and rank, as elimination over Fractions."""
    rows, b = system
    a = QMatrix.from_rows(rows)
    assert _outcome(solve_exact, a, b) == _outcome(reference_solve, a, b)


# One hand-built system per path of the lazy elimination; each is checked
# against elimination over Fractions and against its known outcome.
LAZY_PATH_SYSTEMS = {
    # row 1 skips step 1 (zero in column 0) and row 2 is updated; at step 2,
    # row 1 is the pivot, still at the level of the input, and row 2 below
    # it has a nonzero entry, so the pivot row is raised to the current level
    "stale pivot row raised": (
        [[2, 1, 0], [0, 3, 1], [1, 1, 1]], (Q(1), Q(-2), Q(3, 4))),
    # row 3 is updated at step 1, skips step 2 (zero in column 1) and is
    # updated again at step 3, divided by the pivot of step 1, not of step 2
    "stale row divided by its own level": (
        [[2, 1, 1, 0], [0, 3, 1, 1], [0, 0, 1, 1], [1, Q(1, 2), 2, 1]],
        (Q(1, 3), Q(-1), Q(2), Q(5, 7))),
    # the pivot of column 1 is row 2, still at the level of the input, found
    # below row 1, which was updated at step 1: the swap must carry each
    # row's level with it
    "pivot swapped past a row of another level": (
        [[4, 0, 1, 0], [4, 0, 0, 0], [0, 2, 0, 0], [1, -4, 0, -4]],
        (Q(-3, 4), Q(-1), Q(-1), Q(17, 16))),
    # the pivot of column 1 has only zeros below it: no row is updated and
    # only the running pivot advances
    "pivot with nothing below it": (
        [[3, 0, 1], [0, 5, 0], [1, 0, 2]], (Q(2), Q(-1, 5), Q(1))),
    # column 1 has no pivot once column 0 is eliminated; column 2 still
    # pivots, leaving rank 2 of 3 unknowns
    "column without a pivot, then a pivot": (
        [[2, 4, 0], [2, 4, 1], [3, 6, 1]], (UnderdeterminedSystem, 2)),
    # the same matrix with an inconsistent right-hand side
    "column without a pivot, inconsistent": (
        [[2, 4, 0], [2, 4, 1], [3, 6, 1]], (InconsistentSystem, 2)),
    # right-hand side denominators whose lcm is past 2^64, one entry given
    # as a string
    "right-hand side lcm past 2^64": (
        [[Q(1, 3), 2, 0], [1, Q(-1, 2), 1], [0, 4, Q(5, 6)]],
        (Q(1, 2**61 - 1), Q(-7, 3**41), Q(5, 2**31 - 1))),
}


@pytest.mark.parametrize("path", LAZY_PATH_SYSTEMS)
def test_lazy_elimination_paths(path):
    rows, expected = LAZY_PATH_SYSTEMS[path]
    a = QMatrix.from_rows(rows)
    if isinstance(expected[0], type):
        # a consistent right-hand side, then one that misses row 2's value
        x0 = (Q(1), Q(2), Q(3))
        b = list(a.mul_vector(x0))
        if expected[0] is InconsistentSystem:
            b[2] += 1
    else:
        b = list(a.mul_vector(expected))
        if path == "right-hand side lcm past 2^64":
            assert lcm(*(v.denominator for v in b)) > 2**64
            b = [format_rational(b[0]), b[1], b[2]]
    assert _outcome(solve_exact, a, b) == _outcome(reference_solve, a, b) == expected


def test_rows_are_stored_by_nonzero_entries():
    a = QMatrix.from_rows([[0, Q(1, 2), 0], [3, 0, Q(0, 5)]])
    assert a.nonzero_rows == ({1: Q(1, 2)}, {0: Q(3)})
    assert a == QMatrix(2, 3, ({1: Q(2, 4), 2: 0}, {0: 3}))
    assert a.mul_vector([Q(1), Q(2), Q(3)]) == (Q(1), Q(3))


def test_derive_hands_the_solver_sparse_rows(monkeypatch):
    """Deriving D builds no dense row: QMatrix.from_rows is never called,
    and every row has at most three nonzero entries."""
    from_rows, solve = QMatrix.from_rows.__func__, testcurves.solve_exact
    dense_calls, row_sizes = [], []

    def spy_from_rows(cls, rows):
        dense_calls.append(len(rows))
        return from_rows(cls, rows)

    def spy_solve(a, b):
        row_sizes.extend(len(r) for r in a.nonzero_rows)
        return solve(a, b)

    monkeypatch.setattr(QMatrix, "from_rows", classmethod(spy_from_rows))
    monkeypatch.setattr(testcurves, "solve_exact", spy_solve)
    assert derive_theorem_class(500) == class_D(500)
    assert dense_calls == []
    assert len(row_sizes) == 253 and max(row_sizes) <= 3


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


def test_dense_solve_divides_as_it_eliminates():
    """Bareiss's exact divisions keep a dense system's entries at the size of
    its minors; an elimination that dropped them would still be exact, but
    its entries would double in size at every pivot and take seconds here."""
    rng = random.Random(6)
    rows = [[rng.randint(-9, 9) for _ in range(16)] for _ in range(16)]
    x0 = tuple(Q(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(16))
    a = QMatrix.from_rows(rows)
    b = list(a.mul_vector(x0))
    start = time.process_time()
    assert solve_exact(a, b) == x0
    assert time.process_time() - start < 1.0


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


@pytest.mark.parametrize("text", ["0", "5", "-12", "123456789012345678901234567890", "0005", "-0",
                                  "٣", "-1/2", "4/2", "--5", "-", "", " 5", " -7\n", "+5", "5_0",
                                  "²", "1.5", "x", "1/0", "9" * 5000])
def test_parse_rational_reads_as_fraction(text):
    """An integer is read by ``int``, and every string gives the value of
    the Fraction parser, or its exception and message."""
    try:
        expected = Q(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            parse_rational(text)
    else:
        value = parse_rational(text)
        assert value == expected and type(value) is Q


def test_parse_rational_refuses_more_than_4300_digits():
    """A numerator or denominator past 4,300 digits is refused, also when an
    exponent would make it; 10 to a huge power is never formed."""
    assert parse_rational("1e4299") == 10**4299
    assert parse_rational("-1E-4299") == Q(-1, 10**4299)
    assert parse_rational("0e100000000") == parse_rational("-0.0e-100000000") == 0
    for text in ("1e4300", "1e-4300", "1e100000000", "-2.5e-100000000",
                 "9" * 4000 + "." + "9" * 4000):
        with pytest.raises(ValueError, match="rational refused: it needs more than 4,300 digits"):
            parse_rational(text)
    with pytest.raises(ValueError, match="Invalid literal"):
        parse_rational("1/2e100000000")


def test_format_rational_refuses_more_than_4300_digits():
    """A part past 4,300 digits, Python's limit for printing an int, is
    refused with a labelled ValueError rather than the interpreter's text."""
    assert format_rational(Q(10**4300 - 1)) == "9" * 4300
    for x in (Q(10**4300), Q(1, 10**4300), Q(-(10**4300), 3)):
        with pytest.raises(ValueError, match="^result refused: it needs more than 4,300 digits$"):
            format_rational(x)


def test_format_integers_without_denominator():
    assert format_rational(Q(3)) == "3"
    assert format_rational(Q(-5, 2)) == "-5/2"
