import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from hodgediv.extremality import (
    NonPositiveDenominator,
    Partition,
    TeichParamsAbelian,
    TeichParamsQuadratic,
    certificate_check,
    double_zero_partition,
    kappa_mu,
    psi_degree,
    sample_grid,
    teich_vector_abelian,
    teich_vector_quadratic,
    threshold_abelian,
    threshold_quadratic,
)
from hodgediv.picard import (
    CurveRecord,
    DivisorClass,
    _pair_ints,
    class_stratum_abelian,
    class_stratum_quadratic,
    pair,
)

pos_rationals = st.fractions(min_value=Q(1, 8), max_value=Q(8), max_denominator=12)


def test_partition_validation():
    Partition((2, 1, 1), "abelian", 3)
    with pytest.raises(ValueError):
        Partition((2, 1), "abelian", 3)
    with pytest.raises(ValueError):
        Partition((2, 2), "quadratic", 3)
    with pytest.raises(ValueError):
        Partition((2,), "cubic", 2)


def test_kappa_mu_values():
    assert kappa_mu(Partition((2, 1, 1), "abelian", 3)) == Q(17, 36)
    assert kappa_mu(Partition((2, 1, 1), "quadratic", 2)) == Q(19, 72)
    assert kappa_mu(Partition((2,), "abelian", 2)) == Q(2, 9)


def test_kappa_mu_closed_forms():
    for g in range(2, 51):
        abelian = double_zero_partition("abelian", g)
        quadratic = double_zero_partition("quadratic", g)
        assert kappa_mu(abelian) == Q(9 * g - 10, 36)
        assert kappa_mu(quadratic) == Q(20 * g - 21, 72)


def test_kappa_mu_computed_once_per_partition():
    kappa_mu.cache_clear()
    g = 7
    p = double_zero_partition("quadratic", g)
    for i in range(200):
        teich_vector_quadratic(g, p, TeichParamsQuadratic(Q(i + 1), Q(i, 7)))
    assert kappa_mu.cache_info().misses == 1
    by_hand = Partition((2,) + (1,) * (4 * g - 6), "quadratic", g)
    assert by_hand is not p and by_hand == p
    assert kappa_mu(by_hand) is kappa_mu(p)
    assert kappa_mu.cache_info().misses == 1


def test_a_grid_over_one_partition_hashes_and_compares_it_a_bounded_number_of_times(monkeypatch):
    """Each partition reads kappa_mu when it is built; its 450 curves then
    read the carried ratio and never hash or compare the partition.  A
    fresh, equal partition gives the same records."""
    g = 6
    p = double_zero_partition("abelian", g)
    calls = {"__hash__": 0, "__eq__": 0}
    for name in calls:
        method = getattr(Partition, name)

        def counted(*args, _method=method, _name=name):
            calls[_name] += 1
            return _method(*args)
        monkeypatch.setattr(Partition, name, counted)
    params = [TeichParamsAbelian(Q(chi, 3), Q(g * j, 89), g)
              for chi in range(1, 6) for j in range(90)]
    curves = [teich_vector_abelian(g, p, t) for t in params]
    assert len(curves) == 450 and calls == {"__hash__": 0, "__eq__": 0}
    assert all(c.known_pairings is curves[0].known_pairings == {} for c in curves)
    fresh = Partition((2,) + (1,) * (2 * g - 4), "abelian", g)
    assert fresh is not p and sum(calls.values()) <= 2
    assert [teich_vector_abelian(g, fresh, t) for t in params] == curves
    assert sum(calls.values()) <= 2
    q = double_zero_partition("quadratic", g)
    quadratic = [teich_vector_quadratic(g, q, TeichParamsQuadratic(Q(chi), Q(j, 7)))
                 for chi in range(1, 6) for j in range(90)]
    assert len(quadratic) == 450 and sum(calls.values()) <= 4


@st.composite
def partitions(draw):
    """A random abelian or quadratic partition: the cuts of 2g - 2 (4g - 4)
    into positive parts, in a random order."""
    kind = draw(st.sampled_from(["abelian", "quadratic"]))
    g = draw(st.integers(2, 30))
    total = 2 * g - 2 if kind == "abelian" else 4 * g - 4
    cuts = sorted(draw(st.sets(st.integers(1, total - 1), max_size=12)))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    return Partition(tuple(draw(st.permutations(parts))), kind, g)


@given(partitions())
def test_a_partition_carries_the_ratio_of_kappa_mu(p):
    assert p._kappa == kappa_mu(p).as_integer_ratio()
    assert p._kappa == Partition(p.parts, p.kind, p.g)._kappa


def test_teich_params_validation():
    with pytest.raises(ValueError):
        TeichParamsAbelian(Q(0), Q(1), 3)
    with pytest.raises(ValueError):
        TeichParamsAbelian(Q(2), Q(4), 3)
    with pytest.raises(ValueError):
        TeichParamsQuadratic(Q(1), Q(-1))


def test_abelian_vector_entries():
    p = double_zero_partition("abelian", 3)
    km = kappa_mu(p)
    t = TeichParamsAbelian(Q(2), km, 3)
    rec = teich_vector_abelian(3, p, t)
    assert rec.entry("delta_0") == 0          # L = kappa_mu kills delta_0
    t2 = TeichParamsAbelian(Q(2), Q(3), 3)
    assert teich_vector_abelian(3, p, t2).entry("lambda") == 3  # chi=2, L=g


def test_abelian_stratum_pairing_is_L_independent():
    for g in range(2, 13):
        p = double_zero_partition("abelian", g)
        stratum = class_stratum_abelian(g)
        for chi in (Q(2), Q(7, 2)):
            values = [pair(teich_vector_abelian(g, p, TeichParamsAbelian(chi, L, g)), stratum)
                      for L in (Q(0), Q(1), Q(g), Q(g, 3))]
            # the pairing is affine in L; equality at distinct L means the
            # L-coefficient cancels identically
            assert len(set(values)) == 1
            assert values[0] == -chi / 3


def test_quadratic_stratum_pairing_is_carea_independent():
    for g in range(2, 13):
        p = double_zero_partition("quadratic", g)
        stratum = class_stratum_quadratic(g)
        for chi in (Q(2), Q(5)):
            values = [pair(teich_vector_quadratic(g, p, TeichParamsQuadratic(chi, c)), stratum)
                      for c in (Q(0), Q(1), Q(7, 3))]
            assert len(set(values)) == 1
            assert values[0] == -chi / 2


def test_quadratic_vector_entries():
    p = double_zero_partition("quadratic", 2)
    rec = teich_vector_quadratic(2, p, TeichParamsQuadratic(Q(2), Q(0)))
    assert rec.entry("lambda") == kappa_mu(p)  # chi/2 * kappa with chi = 2
    rec2 = teich_vector_quadratic(2, p, TeichParamsQuadratic(Q(2), Q(1)))
    assert rec2.entry("lambda") == Q(91, 72)


def reference_vector(kind, p, t):
    """The entries, total boundary and name of a Teichmueller curve from the
    Fraction formulas, one Fraction operation at a time."""
    km = kappa_mu(p)
    if kind == "abelian":
        return ({"eta": t.chi / 2, "lambda": t.chi * t.L / 2,
                 "delta_0": (t.chi / 2) * (12 * t.L - 12 * km)},
                None, f"Teich(chi={t.chi},L={t.L})")
    return ({"eta": t.chi, "lambda": (t.chi / 2) * (t.c_area + km)},
            6 * t.chi * t.c_area, f"TeichQ(chi={t.chi},c={t.c_area})")


@st.composite
def teich_curves(draw):
    """A stratum kind, a genus 2..60 and curve parameters with denominators
    up to 10^4, the interval ends and L = kappa_mu drawn often."""
    kind = draw(st.sampled_from(["abelian", "quadratic"]))
    g = draw(st.integers(min_value=2, max_value=60))
    p = double_zero_partition(kind, g)
    chi = draw(st.fractions(min_value=Q(1, 10**4), max_value=10**4, max_denominator=10**4))
    if kind == "abelian":
        L = draw(st.sampled_from([Q(0), kappa_mu(p), Q(g)])
                 | st.fractions(min_value=0, max_value=g, max_denominator=10**4))
        return kind, g, p, TeichParamsAbelian(chi, L, g)
    c_area = draw(st.just(Q(0)) | st.fractions(min_value=0, max_value=10**4,
                                                max_denominator=10**4))
    return kind, g, p, TeichParamsQuadratic(chi, c_area)


@given(teich_curves())
def test_teich_vectors_equal_the_fraction_formulas(curve):
    """The vectors built from integer numerators hold the same reduced
    Fractions, zero entries dropped, as the Fraction formulas."""
    kind, g, p, t = curve
    build = teich_vector_abelian if kind == "abelian" else teich_vector_quadratic
    rec = build(g, p, t)
    entries, total_delta, name = reference_vector(kind, p, t)
    expected = CurveRecord.from_map(name, rec.basis, entries, total_delta=total_delta)
    assert rec.name == name
    assert rec.nonzero == expected.nonzero
    assert rec.vector == expected.vector
    assert rec.total_delta == total_delta
    assert all(type(v) is Q for v in (*rec.nonzero.values(), rec.total_delta or Q(0)))


def test_teich_names_print_parameters_as_fractions():
    """Curve names carry chi and L (or c_area) exactly as str(Fraction)
    prints them: an integer bare, anything else as p/q in lowest terms."""
    rng = random.Random(1812)
    for g in range(2, 12):
        for kind in ("abelian", "quadratic"):
            p = double_zero_partition(kind, g)
            for _ in range(25):
                chi = Q(rng.randint(1, 10**6), rng.choice((1, 1, rng.randint(1, 10**4))))
                if kind == "abelian":
                    den = rng.choice((1, 360, rng.randint(1, 360)))
                    L = Q(rng.randint(0, g * den), den)
                    rec = teich_vector_abelian(g, p, TeichParamsAbelian(chi, L, g))
                    assert rec.name == "Teich(chi=" + str(chi) + ",L=" + str(L) + ")"
                else:
                    c = Q(rng.randint(0, 10**6), rng.choice((1, 1, rng.randint(1, 10**4))))
                    rec = teich_vector_quadratic(g, p, TeichParamsQuadratic(chi, c))
                    assert rec.name == "TeichQ(chi=" + str(chi) + ",c=" + str(c) + ")"


def test_psi_degree():
    p = double_zero_partition("abelian", 3)
    assert psi_degree(TeichParamsAbelian(Q(6), Q(1), 3), p, 2) == 1
    assert psi_degree(TeichParamsAbelian(Q(4), Q(2), 3), p, 1) == 1
    with pytest.raises(ValueError):
        psi_degree(TeichParamsAbelian(Q(4), Q(2), 3), p, 5)


@given(pos_rationals, st.fractions(min_value=Q(0), max_value=Q(3), max_denominator=8))
def test_psi_identity_random_samples(chi, L):
    # the quotient form is checked against the closed form inside psi_degree
    p = double_zero_partition("abelian", 3)
    t = TeichParamsAbelian(chi, L, 3)
    for m in (1, 2):
        assert psi_degree(t, p, m) == chi / (2 * (m + 1))


def test_threshold_abelian_endpoint():
    assert threshold_abelian(Q(1), Q(1), Q(0), 3) == Q(1, 6)


def test_threshold_abelian_L_independent():
    # a = -12 c0 makes the L-coefficient vanish
    p = double_zero_partition("abelian", 4)
    km = kappa_mu(p)
    d = threshold_abelian(Q(-12) * Q(1, 4), Q(5), Q(1, 4), 4)
    assert d == Q(2) / (3 * (5 - 12 * Q(1, 4) * km))


def test_threshold_abelian_decreasing_slope():
    # slope a + 12 c0 = -1/2 < 0: the quotient increases in L, so the
    # infimum sits at L = 0 (the double-zero partition at g = 2 is (2,))
    d = threshold_abelian(Q(0), Q(1), Q(-1, 24), 2)
    assert d == Q(3, 5)


def test_threshold_abelian_nonpositive_denominator():
    with pytest.raises(NonPositiveDenominator) as exc:
        threshold_abelian(Q(-1), Q(1), Q(0), 3)
    assert exc.value.endpoint == 3


def test_a_nonpositive_denominator_too_long_to_print_is_still_typed():
    """The message is rendered when the exception is printed, not built, so
    a value past 4,300 digits still raises the subclass with its exact
    endpoint and value; printed, it is the refusal's one line."""
    A = int("7" * 3000)
    a, b = Q(-A, 7 * A + 1), Q(1, 3 * A)
    with pytest.raises(NonPositiveDenominator) as exc:
        threshold_abelian(a, b, 0, 3)
    assert exc.value.endpoint == 3
    assert exc.value.value == 3 * b + 9 * a
    assert str(exc.value) == "result refused: it needs more than 4,300 digits"
    with pytest.raises(NonPositiveDenominator) as exc:
        threshold_abelian(Q(-1), Q(1), Q(0), 3)
    assert str(exc.value) == "pairing denominator is -6 <= 0 at parameter 3"


def test_threshold_quadratic():
    assert threshold_quadratic(Q(0), Q(3), Q(0), 2, Q(1)) == Q(1, 6)
    assert threshold_quadratic(Q(1), Q(1), Q(0), 2, Q(1)) == Q(72, 235)
    # 12c + a < 0: denominator decreasing, infimum at c_area = 0
    p = double_zero_partition("quadratic", 2)
    km = kappa_mu(p)
    d = threshold_quadratic(Q(-1), Q(2), Q(0), 2, Q(1))
    assert d == Q(1) / (4 - km)


def _abelian_grid(g, chi_values=(1, 2, 3, 4, 5)):
    p = double_zero_partition("abelian", g)
    km = kappa_mu(p)
    return [teich_vector_abelian(g, p, TeichParamsAbelian(Q(2 * chi), L, g))
            for chi in chi_values for L in (Q(0), km, Q(g, 2), Q(g))]


def test_certificate_pass_at_threshold():
    g = 3
    a, b, c0 = Q(1), Q(2), Q(1, 3)
    d = threshold_abelian(a, b, c0, g)
    assert d > 0
    stratum = class_stratum_abelian(g)
    ample = DivisorClass.from_map(stratum.basis, {"lambda": a, "eta": b, "delta_0": c0})
    report = certificate_check(stratum, ample, d, _abelian_grid(g))
    assert report.passed


def test_certificate_fails_beyond_threshold():
    g = 3
    a, b, c0 = Q(1), Q(2), Q(1, 3)
    d = threshold_abelian(a, b, c0, g)
    stratum = class_stratum_abelian(g)
    ample = DivisorClass.from_map(stratum.basis, {"lambda": a, "eta": b, "delta_0": c0})
    report = certificate_check(stratum, ample, 2 * d, _abelian_grid(g))
    assert not report.passed
    # with a + 12 c0 > 0 the infimum sits at L = g, so an L = g sample violates
    p = double_zero_partition("abelian", g)
    witness = teich_vector_abelian(g, p, TeichParamsAbelian(Q(2), Q(g), g))
    assert pair(witness, stratum + (2 * d) * ample) > 0


def test_certificate_vacuous():
    stratum = class_stratum_abelian(3)
    report = certificate_check(stratum, stratum, Q(1), [])
    assert report.passed and report.vacuous


def test_certificate_rejects_nonpositive_d():
    stratum = class_stratum_abelian(3)
    with pytest.raises(ValueError):
        certificate_check(stratum, stratum, Q(0), [])


@given(st.fractions(min_value=Q(0), max_value=Q(3), max_denominator=6),
       pos_rationals,
       st.fractions(min_value=Q(0), max_value=Q(2), max_denominator=6))
def test_threshold_certificate_soundness_randomized(a, b, c0):
    """For positive-denominator samples the threshold is positive and the
    certificate holds on the whole grid."""
    g = 3
    try:
        d = threshold_abelian(a, b, c0, g)
    except NonPositiveDenominator:
        return
    assert d > 0
    stratum = class_stratum_abelian(g)
    ample = DivisorClass.from_map(stratum.basis, {"lambda": a, "eta": b, "delta_0": c0})
    assert certificate_check(stratum, ample, d, _abelian_grid(g, (1, 2))).passed


@pytest.mark.parametrize("g", range(3, 8))
@pytest.mark.parametrize("kind", ["abelian", "quadratic"])
def test_certificate_is_sharp_on_sample_grid(kind, g):
    """At the computed threshold the largest C.(S + d A) over the
    sample grid is exactly 0, attained only at the binding end of the
    parameter interval (the ample slope a + 12 c0 resp. a + 12 c is > 0)."""
    a, b, c, cmax = Q(1), Q(10), Q(1, 12), Q(3, 2)
    if kind == "abelian":
        d = threshold_abelian(a, b, c, g)
        stratum = class_stratum_abelian(g)
        ample = DivisorClass.from_map(stratum.basis, {"lambda": a, "eta": b, "delta_0": c})
        binding = {f"Teich(chi={2 * chi},L={g})" for chi in range(1, 6)}
    else:
        d = threshold_quadratic(a, b, c, g, cmax)
        stratum = class_stratum_quadratic(g)
        ample = DivisorClass.from_map(
            stratum.basis,
            {"lambda": a, "eta": b, **{f"delta_{i}": c for i in range(g // 2 + 1)}})
        binding = {f"TeichQ(chi={chi},c={cmax})" for chi in range(1, 6)}
    curves = sample_grid(kind, g, cmax)
    shifted = stratum + d * ample
    values = {curve.name: pair(curve, shifted) for curve in curves}
    assert max(values.values()) == 0
    assert {name for name, v in values.items() if v == 0} == binding
    assert certificate_check(stratum, ample, d, curves).passed


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["abelian", "quadratic"]), st.integers(2, 60),
       st.fractions(min_value=Q(0), max_value=Q(8), max_denominator=12), pos_rationals,
       st.fractions(min_value=Q(-3), max_value=Q(3), max_denominator=12),
       st.fractions(min_value=Q(0), max_value=Q(8), max_denominator=12),
       st.fractions(min_value=Q(1, 1000), max_value=Q(8), max_denominator=1000),
       st.integers(0, 2**32))
def test_grid_verdict_is_the_verdict_on_the_whole_box(kind, g, a, b, c, cmax, d_any, seed):
    """C.(S + d A) is chi times an affine function of L (of c_area), and the
    grid holds both ends of the interval: it passes exactly when the two
    chi = 1 curves at the ends do, and a pass holds on the whole box
    chi > 0, L in [0, g] (c_area in [0, cmax])."""
    part, abelian = double_zero_partition(kind, g), kind == "abelian"
    stratum = class_stratum_abelian(g) if abelian else class_stratum_quadratic(g)
    boundary = {"delta_0": c} if abelian else {f"delta_{i}": c for i in range(g // 2 + 1)}
    ample = DivisorClass.from_map(stratum.basis, {"lambda": a, "eta": b, **boundary})
    top = Q(g) if abelian else cmax

    def curve(chi, x):
        if abelian:
            return teich_vector_abelian(g, part, TeichParamsAbelian(chi, x, g))
        return teich_vector_quadratic(g, part, TeichParamsQuadratic(chi, x))

    try:
        d = threshold_abelian(a, b, c, g) if abelian else threshold_quadratic(a, b, c, g, cmax)
        values = [d, d * Q(1001, 1000), 2 * d, d / 2, d_any]  # d * 1001/1000 is just past it
    except NonPositiveDenominator:
        values = [d_any]
    grid, rng = sample_grid(kind, g, cmax), random.Random(seed)
    for d in values:
        shifted = stratum + d * ample
        passed = certificate_check(stratum, ample, d, grid).passed
        assert passed == all(pair(curve(Q(1), x), shifted) <= 0 for x in (Q(0), top))
        if passed:
            for _ in range(10):
                chi = Q(rng.randint(1, 10**4), rng.randint(1, 100))
                assert pair(curve(chi, top * Q(rng.randint(0, 1000), 1000)), shifted) <= 0


@given(teich_curves())
def test_teich_vectors_store_the_form_of_the_fraction_formulas(curve):
    """Built from integer numerators, a Teichmueller vector stores the same
    canonical integer form, total boundary included, as the generic
    constructor gives the Fraction formulas."""
    kind, g, p, t = curve
    build = teich_vector_abelian if kind == "abelian" else teich_vector_quadratic
    rec = build(g, p, t)
    entries, total_delta, name = reference_vector(kind, p, t)
    expected = CurveRecord.from_map(name, rec.basis, entries, total_delta=total_delta)
    assert rec._form == expected._form
    assert rec == expected


def oracle_violations(kind, p, stratum, ample, d, params):
    """(name, value) of every curve with C.(S + d A) > 0, in order, paired
    Fraction by Fraction from the Fraction formulas and the dense classes."""
    b = stratum.basis
    shifted = [s + d * a for s, a in zip(stratum.coeffs, ample.coeffs)]
    out, zeros = [], 0
    for t in params:
        entries, total_delta, name = reference_vector(kind, p, t)
        value = Q(0)
        for sym, v in entries.items():
            value += v * shifted[b.index(sym)]
        if total_delta is not None:
            value += total_delta * shifted[2]
        zeros += value == 0
        if value > 0:
            out.append((name, value))
    return out, zeros


@pytest.mark.parametrize("seed", range(12))
def test_certificate_check_equals_a_fraction_oracle_on_seeded_grids(seed):
    """Same violations, names, Fraction values and order as the oracle, at
    the computed d (where the binding curves give exactly 0), at 2d, d/2
    and a random d, over grids with both ends of the parameter interval."""
    rng = random.Random(seed)
    kind = rng.choice(["abelian", "quadratic"])
    g = rng.randint(2, 60)
    p = double_zero_partition(kind, g)
    a, b = Q(rng.randint(1, 12), rng.randint(1, 4)), Q(rng.randint(1, 12), rng.randint(1, 4))
    c, cmax = Q(rng.randint(0, 6), rng.randint(10, 40)), Q(rng.randint(1, 12), rng.randint(1, 4))
    if kind == "abelian":  # keeps the threshold denominator 3(b - 12 c kappa_mu) positive at L = 0
        c = min(c, b / (12 * kappa_mu(p)) * Q(rng.randint(0, 9), 10))
    stratum = class_stratum_abelian(g) if kind == "abelian" else class_stratum_quadratic(g)
    boundary = ({"delta_0": c} if kind == "abelian"
                else {f"delta_{i}": c for i in range(g // 2 + 1)})
    ample = DivisorClass.from_map(stratum.basis, {"lambda": a, "eta": b, **boundary})
    steps = rng.randint(5, 30)
    chis = {Q(rng.randint(1, 60), rng.randint(1, 6)) for _ in range(3)}
    if kind == "abelian":
        d = threshold_abelian(a, b, c, g)
        xs = {Q(g * j, steps) for j in range(steps + 1)} | {kappa_mu(p)}
        params = [TeichParamsAbelian(chi, x, g) for chi in sorted(chis) for x in sorted(xs)]
        curves = [teich_vector_abelian(g, p, t) for t in params]
    else:
        d = threshold_quadratic(a, b, c, g, cmax)
        params = [TeichParamsQuadratic(chi, cmax * Q(j, steps))
                  for chi in sorted(chis) for j in range(steps + 1)]
        curves = [teich_vector_quadratic(g, p, t) for t in params]
    for k, dd in enumerate((d, 2 * d, d / 2, d * Q(rng.randint(1, 99), rng.randint(1, 99)))):
        expected, zeros = oracle_violations(kind, p, stratum, ample, dd, params)
        report = certificate_check(stratum, ample, dd, curves)
        assert list(report.violations) == expected
        shifted = stratum + dd * ample  # the one pairing loop finds what ``pair`` finds
        assert expected == [(c.name, pair(c, shifted)) for c in curves if pair(c, shifted) > 0]
        assert all(type(v) is Q for _, v in report.violations)
        assert report.passed == (not expected)
        if k == 0:
            assert not expected and zeros == len(chis)


def test_non_uniform_boundary_raises_in_the_certificate_on_every_total_delta_curve():
    """A shifted class with differing boundary coefficients raises on each
    quadratic curve (each records a total boundary), also when its
    c_area is 0; abelian curves pair it."""
    for g in (2, 3, 8, 31):
        stratum = class_stratum_quadratic(g)
        lopsided = DivisorClass.from_map(stratum.basis, {"lambda": Q(1), "delta_0": Q(1, 7)})
        for curve in sample_grid("quadratic", g, Q(5, 2)):
            with pytest.raises(ValueError, match="non-uniform boundary"):
                certificate_check(stratum, lopsided, Q(1, 3), [curve])
        abelian = class_stratum_abelian(g)
        lopsided = DivisorClass.from_map(abelian.basis, {"lambda": Q(1), "delta_0": Q(1, 7)})
        assert certificate_check(abelian, lopsided, Q(1, 3), sample_grid("abelian", g, Q(0))).d == Q(1, 3)


def _message(fn, *args):
    with pytest.raises(ValueError) as exc:
        fn(*args)
    return str(exc.value)


def test_certificate_check_raises_the_messages_of_pair_ints():
    """A curve with no committed vector, and a quadratic curve against a
    class with a non-uniform boundary, fail the certificate with the exact
    message the one-curve pairing gives."""
    g = 5
    stratum, curves = class_stratum_abelian(g), sample_grid("abelian", g, Q(0))
    ample = DivisorClass.from_map(stratum.basis, {"lambda": Q(1), "eta": Q(2)})
    bare = CurveRecord("bare", stratum.basis, known_pairings={"W": Q(1)})
    message = _message(certificate_check, stratum, ample, Q(1, 3), [*curves[:3], bare, *curves[3:]])
    assert message == _message(_pair_ints, bare, stratum + Q(1, 3) * ample)
    assert message == "curve 'bare' has no committed intersection vector"
    stratum = class_stratum_quadratic(g)
    lopsided = DivisorClass.from_map(stratum.basis, {"lambda": Q(1), "delta_0": Q(1, 7)})
    for curve in sample_grid("quadratic", g, Q(5, 2)):
        message = _message(certificate_check, stratum, lopsided, Q(1, 3), [curve])
        assert message == _message(_pair_ints, curve, stratum + Q(1, 3) * lopsided)
        assert message.endswith("non-uniform boundary coefficients")
