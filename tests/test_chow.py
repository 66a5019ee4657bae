import ast
import random
import re
import time
from fractions import Fraction as Q
from math import factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from hodgediv.chow import (
    MAX_POWER_BITS,
    BlowUpLattice,
    ChowElement,
    LatticeClass,
    MultiProjRing,
    adjunction_canonical,
    chow_integrate,
    lattice_intersect,
    linear_class,
    pencil_family,
    relative_dualizing_linear,
)
from hodgediv.chowexpr import MAX_NESTING, ExpressionError, _tokenize, evaluate

RING = MultiProjRing((1, 3))
ALPHA, BETA = RING.generators()


def _coeffs(cls: LatticeClass) -> tuple:
    """The dense Fraction vector of a lattice class."""
    return tuple(Q(v, cls.den) for v in cls.nums)


def small_elements(ring):
    coeff = st.integers(min_value=-4, max_value=4)
    exps = st.tuples(*(st.integers(min_value=0, max_value=n) for n in ring.dims))
    return st.dictionaries(exps, coeff, max_size=4).map(
        lambda d: ring.zero() + sum((c * _mono(ring, e) for e, c in d.items()), ring.zero()))


def _mono(ring, e):
    out = ring.one()
    for j, k in enumerate(e):
        out = out * ring.generator(j) ** k
    return out


def test_truncation():
    assert ALPHA * ALPHA == RING.zero()
    assert (BETA ** 4).terms == {}


def test_product_expansion():
    # (alpha + beta)^2 = 2 alpha beta + beta^2 since alpha^2 truncates
    sq = (ALPHA + BETA) ** 2
    assert sq == 2 * ALPHA * BETA + BETA * BETA


def test_multiplicative_identity():
    x = 3 * ALPHA + 2 * BETA ** 2
    assert RING.one() * x == x


def test_integrate_worked_product():
    prod = (ALPHA + BETA) * (ALPHA + BETA) * (ALPHA + 3 * BETA) * (2 * BETA)
    assert chow_integrate(prod) == 14


def test_integrate_normalization():
    assert chow_integrate(ALPHA * BETA ** 3) == 1
    assert chow_integrate(BETA ** 4) == 0


def test_integrate_matches_sympy_expansion():
    """The degree of a product of N = sum(n_j) linear forms is the coefficient
    of prod h_j^{n_j} in the plain, untruncated polynomial expansion."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1812)
    for _ in range(40):
        dims = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        ring = MultiProjRing(dims)
        h = sympy.symbols(f"h0:{len(dims)}")
        top = sympy.Mul(*(hj**n for hj, n in zip(h, dims)))
        product, poly = ring.one(), sympy.Integer(1)
        for _ in range(sum(dims)):
            coeffs = [rng.randint(-5, 5) for _ in dims]
            product = product * linear_class(ring, coeffs)
            poly *= sum(c * hj for c, hj in zip(coeffs, h))
        expected = sympy.Poly(sympy.expand(poly), *h).coeff_monomial(top)
        assert chow_integrate(product) == Q(int(expected))
        # a power of one form, (sum c_j h_j)^N, takes the multinomial route
        coeffs = [Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in dims]
        power = sympy.expand(sum(sympy.Rational(c.numerator, c.denominator) * hj
                                 for c, hj in zip(coeffs, h)) ** sum(dims))
        expected = sympy.Poly(power, *h).coeff_monomial(top)
        assert chow_integrate(linear_class(ring, coeffs) ** sum(dims)) == Q(str(expected))


@given(small_elements(RING), small_elements(RING), small_elements(RING))
def test_ring_axioms(x, y, z):
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    # (1 + x)^k is affine-linear or not; 1 + alpha beta + x is not
    for w in (x, x + y, x - y, -x, 3 * x, x * y, (1 + x) ** 4, (1 + ALPHA * BETA + x) ** 3):
        _assert_normal(w)


@given(small_elements(RING), small_elements(RING), st.integers(-5, 5))
def test_integrate_multilinear(x, y, t):
    assert chow_integrate((t * x) * y) == t * chow_integrate(x * y)
    assert chow_integrate(x * y + x * x) == chow_integrate(x * y) + chow_integrate(x * x)


def test_adjunction():
    assert adjunction_canonical(RING, [(0, 2)]) == linear_class(RING, (-2, -2))
    assert adjunction_canonical(RING, [(0, 2), (1, 3)]) == linear_class(RING, (-1, 1))
    p2 = MultiProjRing((2,))
    assert adjunction_canonical(p2, [(4,)]) == linear_class(p2, (1,))


def test_adjunction_refuses_an_element():
    """Hypersurface classes are coefficient tuples, as porteous passes them."""
    with pytest.raises(TypeError):
        adjunction_canonical(RING, [linear_class(RING, (0, 2))])


def test_relative_dualizing():
    omega_x = linear_class(RING, (-1, 1))
    assert relative_dualizing_linear(omega_x, 0) == linear_class(RING, (1, 1))
    assert relative_dualizing_linear(linear_class(RING, (-2, -2)), 0) == linear_class(RING, (0, -2))
    # subtract-then-add round trip
    back = relative_dualizing_linear(omega_x - linear_class(RING, (2, 0)) + linear_class(RING, (2, 0)), 0)
    assert back == relative_dualizing_linear(omega_x, 0)


def test_relative_dualizing_needs_p1_base():
    with pytest.raises(ValueError):
        relative_dualizing_linear(linear_class(RING, (0, 1)), 1)


def test_lattice_basics():
    lat = BlowUpLattice(((0, 1), (1, 0)), 3)
    e1 = lat.exceptional(0)
    assert lattice_intersect(e1, e1) == -1
    assert lattice_intersect(e1, lat.exceptional(1)) == 0
    l1 = lat.cls((1, 0))
    l2 = lat.cls((0, 1))
    assert lattice_intersect(l1, l2) == 1
    assert lattice_intersect(l1, l1) == 0
    assert lattice_intersect(l1, e1) == 0


@pytest.mark.parametrize("matrix, r, message", [
    (((1, 0), (0,)), 1, "shape mismatch"),
    (((1, 0),), 1, "shape mismatch"),
    (((0, 1), (2, 0)), 1, "must be symmetric"),
    (((1,),), -1, "negative number of exceptional classes"),
])
def test_lattice_refuses_a_malformed_surface(matrix, r, message):
    with pytest.raises(ValueError, match=message):
        BlowUpLattice(matrix, r)


def test_lattice_mismatch():
    lat1 = BlowUpLattice(((1,),), 1)
    lat2 = BlowUpLattice(((1,),), 2)
    with pytest.raises(ValueError):
        lattice_intersect(lat1.exceptional(0), lat2.exceptional(0))


_TOKEN_TEXT = {"int": r"\d+", "name": r"[A-Za-z_]\w*", "op": r"[-+*^()]"}


@settings(max_examples=500)
@given(st.text(alphabet="ab c1 23+-*^()é٣_x\t\n9z", max_size=30))
def test_tokens_cover_the_input_or_the_error_quotes_its_rest(text):
    """The token texts, joined, are the input without its whitespace, each of
    its kind; or the error quotes the input from the end of the last token
    read, where the next character neither starts nor extends a token."""
    try:
        tokens, head = _tokenize(text), text
    except ExpressionError as exc:
        rest = ast.literal_eval(str(exc).removeprefix("unexpected character at: "))
        assert rest.strip() and text.endswith(rest)
        head = text[:len(text) - len(rest)]
        assert not head[-1:].isspace()
        tokens = _tokenize(head)
        with pytest.raises(ExpressionError):
            _tokenize(rest.lstrip()[0])
        if not rest[0].isspace():
            with pytest.raises(ExpressionError):
                _tokenize(head + rest[0])
    assert "".join(t for _, t in tokens) == "".join(head.split())
    assert all(re.fullmatch(_TOKEN_TEXT[kind], t) for kind, t in tokens)


def test_tokenizer_steps_over_long_whitespace_in_linear_time():
    """A search from each space of a long run, each scanning to its end, would
    take minutes here; the tokenizer's pattern matches no whitespace."""
    start = time.process_time()
    assert _tokenize("a" + " " * 200_000) == [("name", "a")]
    with pytest.raises(ExpressionError, match=r"at: ' +\$'"):
        _tokenize("a" + " " * 200_000 + "$")
    assert time.process_time() - start < 1


def test_quartic_pencil():
    fam = pencil_family("P2", 4)
    assert fam.base_points == 16
    assert fam.genus == 3
    assert lattice_intersect(fam.omega_rel, fam.f) == 4
    assert _coeffs(fam.omega_rel)[0] == 5  # 5h - sum E_i
    assert all(c == -1 for c in _coeffs(fam.f)[1:])


def test_genus4_pencil():
    fam = pencil_family("P1xP1", (3, 3))
    assert fam.base_points == 18
    assert fam.genus == 4
    assert _coeffs(fam.omega_rel)[:2] == (Q(4), Q(4))
    assert lattice_intersect(fam.omega_rel, fam.f) == 6


def test_cubic_pencil():
    fam = pencil_family("P2", 3)
    assert fam.base_points == 9
    assert fam.genus == 1
    assert lattice_intersect(fam.omega_rel, fam.f) == 0


@pytest.mark.parametrize("base,cls", [("P2", 3), ("P2", 4), ("P1xP1", (3, 3))])
def test_fibration_identities(base, cls):
    fam = pencil_family(base, cls)
    assert lattice_intersect(fam.f, fam.f) == 0
    assert lattice_intersect(fam.omega_rel, fam.f) == 2 * fam.genus - 2


def test_pencil_rejects_non_ample():
    with pytest.raises(ValueError):
        pencil_family("P2", 0)
    with pytest.raises(ValueError):
        pencil_family("P1xP1", (3, 0))


def test_ruling_pullback_identity():
    # bl*(l1 + l2) as a base class pairs with f + sum E_i scaled by 1/3,
    # checked as a lattice equation against the stated decomposition
    fam = pencil_family("P1xP1", (3, 3))
    lhs = fam.pullback([1, 1])
    rhs = Q(1, 3) * fam.f + Q(1, 3) * fam.lattice.cls((0, 0), Q(1))
    probes = [fam.f, fam.omega_rel, lhs, fam.lattice.exceptional(0)]
    for p in probes:
        assert lattice_intersect(lhs, p) == lattice_intersect(rhs, p)
    assert _coeffs(lhs) == _coeffs(rhs)


def test_genus4_kappa_cross_validation():
    fam = pencil_family("P1xP1", (3, 3))
    lattice_side = lattice_intersect(fam.omega_rel, fam.omega_rel)
    chow_side = chow_integrate(
        (ALPHA + BETA) * (ALPHA + BETA) * (ALPHA + 3 * BETA) * (2 * BETA))
    assert lattice_side == chow_side == 14


def test_expression_nesting_limit():
    ring = MultiProjRing((1,))
    n = MAX_NESTING
    assert chow_integrate(evaluate("(" * n + "a" + ")" * n, ring)) == 1
    assert chow_integrate(evaluate("0+" + "-" * n + "a", ring)) == 1
    # parentheses and unary minus share one depth count
    with pytest.raises(ExpressionError, match="deeper than"):
        evaluate("(-" * (n // 2) + "(a" + ")" * (n // 2 + 1), ring)
    with pytest.raises(ExpressionError, match="deeper than"):
        evaluate("(" * (n + 1) + "a" + ")" * (n + 1), ring)
    with pytest.raises(ExpressionError, match="deeper than"):
        evaluate("-" * (n + 1) + "a", ring)


# ---------------------------------------------------------------------------
# Integer kernels against plain Fraction arithmetic
# ---------------------------------------------------------------------------

def _reference_product(x, y) -> dict:
    """Term-by-term Fraction product, the oracle for ``ChowElement.__mul__``."""
    out = {}
    for e1, c1 in x.terms.items():
        for e2, c2 in y.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if all(ei <= ni for ei, ni in zip(e, x.ring.dims)):
                out[e] = out.get(e, Q(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


# Small coefficients collide and cancel often; the others are negative and
# non-integral, with denominators up to 10^4.
COEFFS = st.one_of(st.sampled_from([Q(1), Q(-1), Q(1, 2), Q(-1, 2), Q(-3, 7)]),
                   st.fractions(min_value=-50, max_value=50, max_denominator=10**4))


@st.composite
def ring_and_elements(draw, count=2):
    ring = MultiProjRing(tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))))
    exps = st.tuples(*(st.integers(0, n) for n in ring.dims))
    return ring, [ChowElement(ring, draw(st.dictionaries(exps, COEFFS, max_size=5)))
                  for _ in range(count)]


def _assert_normal(x):
    """The terms are what the constructor would make of them."""
    for e, c in x.terms.items():
        assert type(c) is Q and c != 0
        assert len(e) == len(x.ring.dims) and all(0 <= ei <= ni for ei, ni in zip(e, x.ring.dims))
    assert x == ChowElement(x.ring, dict(x.terms))


@settings(max_examples=300)
@given(ring_and_elements())
def test_product_matches_fraction_reference(case):
    ring, (x, y) = case
    for prod, ref in ((x * y, _reference_product(x, y)), (x * x, _reference_product(x, x))):
        assert prod.terms == ref
        _assert_normal(prod)
    # a product whose factor is itself a product
    assert ((x * y) * y).terms == _reference_product(ChowElement(ring, _reference_product(x, y)), y)


def test_product_cancels_to_zero_terms():
    ring = MultiProjRing((1, 2))
    a, b = ring.generators()
    x, y = Q(1, 3) + Q(2, 7) * a + b, Q(-1, 3) + Q(2, 7) * a + b
    prod = x * y
    assert prod.terms == _reference_product(x, y)
    assert (0, 0) in prod.terms and (1, 0) not in prod.terms and (0, 1) not in prod.terms
    _assert_normal(prod)
    assert ((a + b) * (a - b) * a).terms == {(1, 2): Q(-1)}
    assert (a * 0).terms == {} and (0 * (a + b)).terms == {}


@st.composite
def ring_and_power_base(draw):
    """An element with a term of degree >= 2 (where the ring has one), or an
    affine-linear one c + sum c_j h_j with or without its constant term c,
    and an exponent k up to max(6, N + 2)."""
    ring, (x,) = draw(ring_and_elements(count=1))
    width, top = len(ring.dims), sum(ring.dims)
    shape = draw(st.sampled_from(["any", "affine", "linear"]))
    if shape == "any" and top >= 2:
        exps = st.tuples(*(st.integers(0, n) for n in ring.dims)).filter(lambda e: sum(e) >= 2)
        x = x + draw(st.sampled_from([Q(1), Q(-1, 2), Q(3)])) * _mono(ring, draw(exps))
    elif shape != "any":
        units = st.sampled_from([tuple(int(i == j) for i in range(width)) for j in range(width)])
        terms = draw(st.dictionaries(units, COEFFS, min_size=1, max_size=width))
        if shape == "affine":
            terms[(0,) * width] = draw(COEFFS)
        x = ChowElement(ring, terms)
    return ring, x, draw(st.integers(0, max(6, top + 2)))


@settings(max_examples=400)
@given(ring_and_power_base())
def test_power_matches_repeated_fraction_products(case):
    """The multinomial terms (affine-linear base) and the binomial sum over
    products (any other base) both equal k term-by-term products."""
    ring, x, k = case
    ref = ring.one().terms
    for _ in range(k):
        ref = _reference_product(ChowElement(ring, ref), x)
    power = x ** k
    assert power.terms == ref
    _assert_normal(power)


def test_parsed_power_builds_no_element_through_the_constructor(monkeypatch):
    """Only terms from outside pass through ChowElement.__init__: a parsed
    power, affine-linear or not, builds each element from normal terms."""
    init, calls = ChowElement.__init__, []

    def spy(self, ring, terms):
        calls.append(1)
        init(self, ring, terms)

    monkeypatch.setattr(ChowElement, "__init__", spy)
    ring = MultiProjRing((4, 3, 3, 4))
    parsed = [evaluate(text, ring) for text in
              ("(3a+5b+2c+7d)^10", "(1-2a+b)^7", "(a*b+1)^5", "2(a-b)^2c-3", "7")]
    assert calls == []
    linear_class(ring, (1, 2, 3, 4))
    assert calls == [1]
    for x in parsed:
        _assert_normal(x)


def test_binomial_power_of_huge_exponent():
    ring = MultiProjRing((1,))
    (a,) = ring.generators()
    assert (1 + a) ** 10**6 == 1 + 10**6 * a
    assert (Q(-1, 2) + 3 * a) ** 5 == Q(-1, 32) + Q(15, 16) * a
    assert (1 - a) ** 10**12 == 1 - 10**12 * a
    assert (a ** 10**9).terms == {}
    # the denominator 2^5000 is raised only to the powers the result keeps
    x = 1 + Q(1, 2**5000) * a
    start = time.process_time()
    assert x ** 10**6 == 1 + Q(10**6, 2**5000) * a
    assert time.process_time() - start < 0.1


def test_affine_power_makes_no_products(monkeypatch):
    """A power of c + sum c_j h_j is read off the multinomial theorem, with
    or without c; any other base still multiplies."""
    ring = MultiProjRing((2, 3, 1))
    a, b, c = ring.generators()
    bases = [Q(1, 3) + 2 * a - b + Q(5, 7) * c, 3 * a + Q(-1, 2) * c, 1 - b, ring.zero()]
    mul, calls = ChowElement.__mul__, []

    def spy(x, y):
        calls.append(1)
        return mul(x, y)

    monkeypatch.setattr(ChowElement, "__mul__", spy)
    monkeypatch.setattr(ChowElement, "__rmul__", spy)
    for x in bases:
        for k in (0, 1, 3, 6, 7, 10**3):
            x ** k
    assert calls == []
    (1 + a * b) ** 2
    assert calls


def test_power_size_cap():
    """A power is refused up front when its constant term c^k must pass
    MAX_POWER_BITS, and otherwise when a coefficient of its result does.  An
    affine-linear base forms no other power of its linear part, so
    (2^-4000 + 2^8000 b)^3 is answered (12,002 bits) although b^2 alone
    would carry 2^16000, while (2^7500 b)^2 = 2^15000 b^2 is refused.  With
    no constant term, each x_j^t (the coefficient of h_j^t in x^t) must stay
    within the cap too: (2^8000 a + 2^-8000 b)^4 on P^2 x P^2 is 6 a^2 b^2,
    but a^2 alone carries 2^16000.  A refusal comes at the first coefficient
    past the cap, before the larger powers of the linear part are raised:
    the last five bases took seconds, or gigabytes, when every term was
    formed first."""
    ring = MultiProjRing((1,))
    (a,) = ring.generators()
    two = 2 * ring.one()
    assert chow_integrate(two ** MAX_POWER_BITS * a) == 2 ** MAX_POWER_BITS
    (b,) = MultiProjRing((2,)).generators()
    cube = (Q(1, 2**4000) + 2**8000 * b) ** 3
    assert cube.terms == {(0,): Q(1, 2**12000), (1,): Q(3), (2,): Q(3 * 2**12000)}
    assert max(max(abs(q.numerator), q.denominator).bit_length()
               for q in cube.terms.values()) == 12_002
    u, v = MultiProjRing((1, 1)).generators()
    assert ((1 + 2**7000 * u) * (1 + 2**7000 * v)).terms[(1, 1)] == 2**14000
    x, y = MultiProjRing((2, 2)).generators()
    (h,) = MultiProjRing((2000,)).generators()
    g = MultiProjRing((40, 40, 40)).generators()
    f = MultiProjRing((4, 3, 3, 4)).generators()
    q = Q(3**180, 2**285)  # about 1 in size, 285 bits in its denominator
    start = time.process_time()
    for base, k in ((two, MAX_POWER_BITS + 1), (two, 10**9), (Q(1, 2) + a, 10**9),
                    (3 + a, MAX_POWER_BITS), (2**7500 * b, 2), (1 + b, 2**MAX_POWER_BITS),
                    (1 + 2**7000 * u + 2**7000 * v, 2),  # uv: 2^14001
                    (2**8000 * x + Q(1, 2**8000) * y, 4),
                    (8**4666 * h, 2000), (1 + 8**4666 * h, 2000),
                    (1 + 8**4666 * (g[0] + g[1] + g[2]), 120),
                    (Q(-1, 269) + Q(1, 2**7680) * f[0] - f[1] + f[2] + Q(-7, 982) * f[3], 17),
                    (1 + q * g[0] + q * g[1] + q * g[2], 120)):
        with pytest.raises(ValueError, match=rf"power \^{k} refused"):
            base ** k
    assert time.process_time() - start < 0.5


def test_affine_power_is_refused_or_answered_in_bounded_time():
    """(1+h)^k on P^k needs C(k, s) for every s up to k: the binomials are
    built one from the last, and the power stops at the first term C(k, t) h^t
    past the cap instead of forming all k + 1 of them first."""
    start = time.process_time()
    for n in (20000, 100000):
        (h,) = MultiProjRing((n,)).generators()
        with pytest.raises(ValueError, match=rf"power \^{n} refused"):
            (1 + h) ** n
    (h,) = MultiProjRing((6000,)).generators()
    assert chow_integrate((1 + h) ** 6000) == 1
    assert time.process_time() - start < 1


def test_power_without_a_constant_prunes_to_one_path():
    """With c = 0 only s = k is kept, and the walk drops every partial term
    whose remaining factors cannot bring s up to k: (h_1 + ... + h_30)^30 on
    (P^1)^30 takes one path of 31 stack entries, where a bound one too loose
    per factor would visit about 3.5 million."""
    ring = MultiProjRing((1,) * 30)
    start = time.process_time()
    assert chow_integrate(linear_class(ring, (1,) * 30) ** 30) == factorial(30)
    assert time.process_time() - start < 0.5


def test_single_factor_power_without_a_constant_raises_only_x_to_the_k():
    """(x h)^k on P^n, n >= k, is x^k h^k: only x^k is raised, after its bit
    length is bounded, so the time does not grow with k as a table of every
    x^t, t <= k, did (a^1000000 on P^1000000 took 0.87 s and 86.9 MiB)."""
    start = time.process_time()
    (h,) = MultiProjRing((10**6,)).generators()
    assert (h ** 10**6).terms == {(10**6,): Q(1)}
    assert ((Q(-2, 3) * h) ** 3).terms == {(3,): Q(-8, 27)}
    assert ((Q(-1, 3) * h) ** 8000).terms == {(8000,): Q(1, 3**8000)}
    assert ((-h) ** 999_999).terms == {(999_999,): Q(-1)}
    for base, k in ((3 * h, 10**4), (Q(1, 3) * h, 10**4), (2 * h, 14_001),
                    (2**7000 * h, 3), (Q(2, 3) * h, 10**6)):
        with pytest.raises(ValueError, match=rf"power \^{k} refused"):
            base ** k
    assert ((2 * h) ** 14_000).terms == {(14_000,): Q(2**14_000)}
    (h,) = MultiProjRing((10**8,)).generators()
    for x in (Q(2, 3), Q(1, 3), 3):  # refused from bit lengths: 3^(10^8) is never formed
        with pytest.raises(ValueError, match=r"power \^100000000 refused"):
            (x * h) ** 10**8
    assert time.process_time() - start < 0.5


def test_affine_power_on_a_thousand_factors():
    """(h_1 + ... + h_1000)^1000 on (P^1)^1000 is 1000! h_1...h_1000: the
    multinomial walk keeps its own stack, so it needs no Python frame per
    factor (1,000 nested frames would pass the default recursion limit)."""
    ring = MultiProjRing((1,) * 1000)
    power = linear_class(ring, (1,) * 1000) ** 1000
    assert power.terms == {(1,) * 1000: Q(factorial(1000))}
    assert chow_integrate(power) == factorial(1000)


def test_power_of_a_non_affine_base_is_refused_or_answered_in_bounded_time():
    """(1+h^2)^k on P^2k: C(k, j) is built from C(k, j-1), the terms go into
    one map, and the power stops at the first term C(k, j) h^2j past the cap,
    refused as a power."""
    start = time.process_time()
    (h,) = MultiProjRing((40000,)).generators()
    with pytest.raises(ValueError, match=r"power \^20000 refused"):
        (1 + h * h) ** 20000
    (h,) = MultiProjRing((16000,)).generators()
    assert chow_integrate((1 + h * h) ** 8000) == 1
    assert time.process_time() - start < 1


BASE_LATTICES = {
    "P2": ((1,),),
    "P1xP1": ((0, 1), (1, 0)),
}


@st.composite
def lattice_and_classes(draw):
    """Two classes of a lattice with r up to 70; their entries come from a
    seeded generator, which draws them much faster than 140 strategy draws."""
    matrix = BASE_LATTICES[draw(st.sampled_from(sorted(BASE_LATTICES)))]
    lat = BlowUpLattice(matrix, draw(st.integers(0, 70)))
    n = len(matrix)
    rank = n + lat.r
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = [Q(0), Q(1), Q(-1), Q(1, 2), Q(-1, 2)]
    vectors = [[rng.choice(pool) if rng.random() < 0.4 else
                Q(rng.randint(-50, 50), rng.randint(1, 10**4)) for _ in range(rank)]
               for _ in range(2)]
    return lat, [lat.cls(v[:n], v[n:]) for v in vectors], vectors


def _reference_form(lat, u, v):
    n = len(lat.base_matrix)
    return (sum((u[i] * lat.base_matrix[i][j] * v[j] for i in range(n) for j in range(n)), Q(0))
            - sum((u[i] * v[i] for i in range(n, len(u))), Q(0)))


@settings(max_examples=300)
@given(lattice_and_classes(), COEFFS | st.just(Q(0)))
def test_lattice_arithmetic_matches_fractions(case, t):
    lat, (u, v), (uq, vq) = case
    assert _coeffs(u) == tuple(uq) and _coeffs(v) == tuple(vq)
    assert _coeffs(u + v) == tuple(a + b for a, b in zip(uq, vq))
    assert _coeffs(u - v) == tuple(a - b for a, b in zip(uq, vq))
    assert _coeffs(-u) == tuple(-a for a in uq)
    assert _coeffs(u.scale(t)) == _coeffs(t * u) == _coeffs(u * t) == tuple(t * a for a in uq)
    assert lattice_intersect(u, v) == _reference_form(lat, uq, vq)
    assert lattice_intersect(u.scale(t), v) == t * _reference_form(lat, uq, vq)
    for w in (u + v, u - v, u.scale(t)):
        assert w.den > 0 and gcd(w.den, *w.nums) == 1
        assert type(w.den) is int and all(type(n) is int for n in w.nums)


def test_lattice_class_normal_form():
    lat = BlowUpLattice(((0, 1), (1, 0)), 70)
    half = lat.cls((Q(2, 4), 0), Q(-2, 4))
    assert half == lat.cls((Q(1, 2), 0), Q(-1, 2)) == LatticeClass(lat, (2, 0) + (-2,) * 70, 4)
    assert hash(half) == hash(LatticeClass(lat, (1, 0) + (-1,) * 70, 2))
    assert lat.cls((2, 0), -2).scale(Q(1, 4)) == half
    assert (half - half) == lat.cls((0, 0)) and (half - half).den == 1
    assert _coeffs(half)[:3] == (Q(1, 2), Q(0), Q(-1, 2))


def test_library_product_past_the_cap_is_refused():
    """Every product checks its coefficients, whether or not a parser made it:
    2^8000 squared passes 2^MAX_POWER_BITS, in a numerator or a denominator,
    2^7000 squared reaches it."""
    ring = MultiProjRing((1,))
    (a,) = ring.generators()
    x = 2**8000 * ring.one()
    with pytest.raises(ValueError, match="product refused: .* 14,000-bit cap"):
        x * x * a
    z = Q(1, 2**8000) * ring.one()
    with pytest.raises(ValueError, match="product refused"):
        z * z * a
    with pytest.raises(ValueError, match="product refused"):
        Q(1, 2**8000) * a * Q(1, 2**8000)
    y = 2**7000 * ring.one()
    assert chow_integrate(y * y * a) == 2**MAX_POWER_BITS
    assert chow_integrate(Q(-1, 2**7000) * a * Q(1, 2**7000)) == Q(-1, 2**MAX_POWER_BITS)
    # on P^2 the a^2 coefficients are 2^14001 and 2^14000
    (b,) = MultiProjRing((2,)).generators()
    with pytest.raises(ValueError, match="product refused"):
        (1 + 2**7001 * b) * (1 + 2**7000 * b)
    assert ((1 + 2**7000 * b) * (1 + 2**7000 * b)).terms[(2,)] == 2**MAX_POWER_BITS


def test_power_is_refused_only_by_its_constant_coefficient():
    """c^k is refused up front only when it must pass the cap; 3^7001 has
    11,097 bits, and (1+a)^k stays small for any k."""
    ring = MultiProjRing((1,))
    (a,) = ring.generators()
    assert chow_integrate((3 * ring.one()) ** 7001 * a) == 3**7001
    assert chow_integrate((1 + a) ** 2**MAX_POWER_BITS) == 2**MAX_POWER_BITS
    with pytest.raises(ValueError, match=r"power \^7001 refused"):
        (Q(1, 4) + a) ** 7001
