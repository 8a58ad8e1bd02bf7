"""Tests for the exact arithmetic kernel."""

from __future__ import annotations

import inspect
import math
import random
import textwrap
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from p1qcurve import exactcore
from p1qcurve.exactcore import (
    ExactError,
    FactorError,
    MultiSeries,
    PartialFractions,
    PoleEvaluationError,
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    TruncationError,
    _rational_roots,
    partial_fractions,
    rational_to_json,
    series_compose,
    series_exp,
    series_log,
)
from oracles import (
    FracPolynomial,
    frac_canonical,
    laurent_at_full_shift,
    reassemble_termwise,
    reassembles_by_normalising,
    series_add,
    series_derivative,
    series_inverse,
    series_log_recurrence,
    series_mul,
    series_shift,
    series_truncate,
)

fracs = st.fractions(min_value=-60, max_value=60, max_denominator=12)
small_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=5)


def poly(coeffs):
    return Polynomial(coeffs)


# ---------------------------------------------------------------------------
# rationals on the wire
# ---------------------------------------------------------------------------


def test_rational_json_lowest_terms():
    assert rational_to_json(F(2, 4)) == "1/2"
    assert rational_to_json(F(-6, 3)) == "-2"
    assert rational_to_json(F(0)) == "0"


def test_rational_json_of_ints_and_bools():
    """Ints render as integers; a bool or a float is not an exact scalar and
    is refused, not rendered as the rational it stands for."""
    assert [rational_to_json(x) for x in (7, -3, 0)] == ["7", "-3", "0"]
    for bad in (True, False, 0.5, 0.1):
        with pytest.raises(ExactError):
            rational_to_json(bad)


@given(fracs)
def test_rational_json_roundtrip(x):
    assert F(rational_to_json(x)) == x


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def test_zero_polynomial_sentinel():
    assert Polynomial.zero().degree is None
    assert poly([0, 0]).degree is None
    assert poly([3]).degree == 0


def test_poly_divmod_exact():
    a = poly([2, 0, -3, 1])
    b = poly([-1, 1])
    q, r = divmod(a, b)
    assert q * b + r == a


@given(st.lists(small_fracs, max_size=6), st.lists(small_fracs, min_size=1, max_size=4))
def test_poly_divmod_property(ac, bc):
    a, b = poly(ac), poly(bc)
    if b.is_zero():
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


def test_poly_shift_and_compose():
    p = poly([0, 0, 1])  # t^2
    assert p.shift(3) == poly([9, 6, 1])
    assert p(poly([1, 1])) == poly([1, 2, 1])


def test_poly_gcd_monic():
    a = poly([-1, 0, 1]) * poly([2, 1])
    b = poly([1, 1]) * poly([2, 1]) * 5
    g = a.gcd(b)
    assert g == poly([1, 1]) * poly([2, 1])  # monic product
    assert g.leading() == 1


def test_poly_json_roundtrip():
    p = poly([F(1, 2), 0, -3])
    assert Polynomial([F(s) for s in p.to_json()]) == p


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


def test_rational_function_canonical():
    f = RationalFunction(poly([0, 2]), poly([2, 2]))
    assert f.den.leading() == 1
    assert f.num.gcd(f.den).degree == 0


def test_rational_function_pole_evaluation():
    f = RationalFunction(poly([1]), poly([-1, 1]))
    with pytest.raises(PoleEvaluationError):
        f(1)
    assert f(2) == 1


def test_reciprocal_substitution_involution():
    f = RationalFunction(poly([1, 3, 1]), poly([0, 0, 1]))  # (1+3t+t^2)/t^2
    assert f.reciprocal_substitution().reciprocal_substitution() == f


@given(
    st.lists(small_fracs, min_size=1, max_size=4),
    st.lists(small_fracs, min_size=1, max_size=4),
)
def test_field_ops_consistent_with_evaluation(nc, dc):
    num, den = poly(nc), poly(dc)
    if den.is_zero():
        return
    f = RationalFunction(num, den)
    g = RationalFunction(poly([1, 1]), poly([2, -1, 1]))
    h = (f + g) * (f - g) - (f * f - g * g)
    assert h.is_zero()


def test_derivative_quotient_rule():
    f = RationalFunction(poly([0, 1]), poly([1, 1]))  # t/(1+t)
    assert f.derivative() == RationalFunction(poly([1]), poly([1, 2, 1]))


# ---------------------------------------------------------------------------
# partial fractions
# ---------------------------------------------------------------------------


def test_partial_fractions_simple():
    # (3t+1)/((t-1)(t+2)^2), residues computed by hand
    den = Polynomial.from_roots([1, -2, -2])
    pf = partial_fractions(RationalFunction(poly([1, 3]), den))
    d = pf.as_dict()
    assert d[(F(1), 1)] == F(4, 9)
    assert d[(F(-2), 2)] == F(5, 3)
    assert d[(F(-2), 1)] == F(-4, 9)
    assert pf.poly_part.is_zero()


def test_partial_fractions_poly_part():
    f = RationalFunction(poly([0, 0, 0, 1]), poly([0, 1]) * poly([1, 1]))
    pf = partial_fractions(f)
    assert pf.reassemble() == f
    assert not pf.poly_part.is_zero()


@st.composite
def partial_fraction_data(draw):
    """Up to three distinct roots, each with some of the multiplicities 1..3
    and any coefficient (zero included), over an optional polynomial part."""
    roots = draw(st.lists(small_fracs, unique=True, max_size=3))
    terms = tuple(
        ((root, mult), draw(small_fracs))
        for root in roots
        for mult in sorted(draw(st.sets(st.integers(1, 3), min_size=1)))
    )
    return PartialFractions(Polynomial(draw(st.lists(small_fracs, max_size=3))), terms)


@given(partial_fraction_data())
def test_reassemble_matches_the_termwise_oracle(pf):
    assert pf.reassemble() == reassemble_termwise(pf)


@pytest.mark.parametrize(
    "den",
    [
        poly([1, 0, 1]),
        poly([-2, 0, 1]),
        poly([-1, 1]) * poly([-2, 0, 1]),
        poly([-2, 0, 0, 1]),
        poly([10**40 + 1, 0, 1]),
    ],
    ids=["1+t^2", "t^2-2", "(t-1)(t^2-2)", "t^3-2", "t^2+(10^40+1)"],
)
def test_partial_fractions_rejects_irrational_poles(den):
    with pytest.raises(FactorError):
        partial_fractions(RationalFunction(poly([1]), den))


def sympy_rational_roots(p: Polynomial) -> dict:
    """Reference oracle: roots with multiplicity of ``p`` by sympy's
    ``factor_list`` over Q; FactorError on an irreducible factor of degree > 1."""
    t = sympy.Symbol("t")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t**k for k, c in enumerate(p.coeffs))
    _, factors = sympy.Poly(expr, t, domain="QQ").factor_list()
    roots: dict = {}
    for fac, mult in factors:
        if fac.degree() != 1:
            raise FactorError(f"irreducible factor of degree {fac.degree()}")
        a1, a0 = fac.all_coeffs()
        root = F(int(sympy.numer(-a0 / a1)), int(sympy.denom(-a0 / a1)))
        roots[root] = roots.get(root, 0) + int(mult)
    return roots


def _irreducible(coeffs) -> bool:
    t = sympy.Symbol("t")
    return sympy.Poly(sum(c * t**k for k, c in enumerate(coeffs)), t, domain="QQ").is_irreducible


@settings(max_examples=60, deadline=None)
@given(
    roots=st.lists(st.tuples(small_fracs, st.integers(1, 3)), min_size=1, max_size=4),
    extra=st.none() | st.lists(st.integers(-6, 6), min_size=2, max_size=3).map(lambda cs: cs + [1]),
    num=st.lists(small_fracs, min_size=1, max_size=6),
)
@example(roots=[(F(10**20), 1), (F(-1), 2), (F(1, 3), 1)], extra=None, num=[F(1)])
@example(roots=[(F(0), 1)], extra=None, num=[F(0), F(1)])  # z/z: a constant denominator
def test_rational_roots_match_sympy_oracle(roots, extra, num):
    """The Budan–Fourier root finder and partial_fractions against sympy, on
    products of rational linear factors with multiplicity, optionally times an
    irreducible quadratic or cubic."""
    den = Polynomial.from_roots(r for r, m in roots for _ in range(m))
    if extra is not None:
        assume(_irreducible(extra))
        den = den * poly(extra)
    assume(any(num))
    f = RationalFunction(poly(num), den)
    try:
        want = sympy_rational_roots(f.den)
    except FactorError:
        with pytest.raises(FactorError):
            _rational_roots(f.den)
        with pytest.raises(FactorError):
            partial_fractions(f)
        return
    assert _rational_roots(f.den) == sorted(want)
    orders: dict = {}
    for (root, k), _ in partial_fractions(f).terms:
        orders[root] = max(orders.get(root, 0), k)
    assert orders == want


def _integer_roots_found(finder, roots: dict) -> None:
    p = Polynomial.from_roots(r for r, m in roots.items() for _ in range(m))
    try:
        got = finder(p)
    except FactorError:
        got = None
    assert got == sorted(roots)


integer_roots = st.dictionaries(st.integers(-10**6, 10**6), st.integers(1, 3), min_size=1, max_size=5)


@settings(max_examples=40, deadline=None)
@given(integer_roots)
@example({-(10**6): 3, 10**6: 3, 0: 1})
def test_rational_roots_find_every_integer_root(roots):
    """Integer roots up to 10**6 in size, multiplicities up to 3: the root
    finder and sympy both see every one."""
    _integer_roots_found(_rational_roots, roots)
    p = Polynomial.from_roots(r for r, m in roots.items() for _ in range(m))
    assert sympy_rational_roots(p) == roots


def test_rational_roots_property_detects_a_halved_bound():
    """Negative control: Fujiwara's bound without its factor 2 lets roots
    fall outside the bisected interval, and the same property fails."""
    source = textwrap.dedent(inspect.getsource(_rational_roots))
    assert source.count("2 * max(") == 1
    namespace = dict(vars(exactcore))
    exec(source.replace("2 * max(", "max("), namespace)
    check = settings(database=None, phases=[Phase.generate], deadline=None)(
        given(integer_roots)(lambda roots: _integer_roots_found(namespace["_rational_roots"], roots))
    )
    with pytest.raises(AssertionError):
        check()


@st.composite
def laurent_cases(draw):
    """A rational function, a center (one of its poles half of the time) and
    an order."""
    roots = draw(st.lists(small_fracs, max_size=4))
    extra = draw(st.lists(small_fracs, min_size=1, max_size=3).filter(any))
    f = RationalFunction(poly(draw(st.lists(small_fracs, max_size=6))), Polynomial.from_roots(roots) * poly(extra))
    center = draw(st.sampled_from(roots)) if roots and draw(st.booleans()) else draw(small_fracs)
    return f, center, draw(st.integers(-3, 5))


@given(laurent_cases())
def test_laurent_at_matches_the_full_shift_oracle(case):
    f, center, order = case
    try:
        want = laurent_at_full_shift(f, center, order)
    except ExactError:
        with pytest.raises(ExactError):
            f.laurent_at(center, order)
        return
    assert f.laurent_at(center, order) == want


@given(partial_fraction_data(), small_fracs)
def test_reassembly_check_matches_the_normalising_oracle(pf, c):
    """The cross-multiplied self-check of partial_fractions against the
    normalising one, on the decomposition's own sum and on moved copies."""
    f = reassemble_termwise(pf)
    for g in (f, f + c, f * c, f + RationalFunction(Polynomial.constant(c), poly([1, 1]))):
        assert pf._sums_to(g) == reassembles_by_normalising(pf, g) == (reassemble_termwise(pf) == g)


def test_partial_fractions_random_reassembly():
    """Randomized exact reassembly over assorted pole configurations."""
    rng = random.Random(20260815)
    root_pool = [F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-3, 2), F(5)]
    for _ in range(1000):
        roots = []
        for _ in range(rng.randint(1, 4)):
            roots.extend([rng.choice(root_pool)] * rng.randint(1, 2))
        den = Polynomial.from_roots(roots)
        num = poly([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, len(roots) + 2))])
        if num.is_zero():
            continue
        f = RationalFunction(num, den)
        assert partial_fractions(f).reassemble() == f


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------


def test_truncation_barrier():
    s = TruncatedSeries("t", 0, [1, 2, 3], 2)
    assert s.coefficient(2) == 3
    assert s.coefficient(-5) == 0
    with pytest.raises(TruncationError):
        s.coefficient(3)


def test_truncate_below_the_valuation_is_zero():
    s = TruncatedSeries("t", 3, [1, 2], 4)
    for new_order in (2, 1, -3):
        t = s.truncate(new_order)
        assert t.is_zero() and t.order == new_order
        assert t == TruncatedSeries.zero("t", new_order)
    assert s.truncate(3) == TruncatedSeries("t", 3, [1], 3)


def test_mul_order_bookkeeping():
    a = TruncatedSeries("t", -1, [1, 0, 0, 0], 2)   # 1/t known through t^2
    b = TruncatedSeries("t", 2, [1], 2)              # t^2 known through t^2
    p = a * b
    assert p.order == 1                               # min(2+2, 2-1) = 1
    assert p.coefficient(1) == 1


def test_inverse_of_laurent_unit():
    s = TruncatedSeries("t", -1, [1, 1, 0, 0, 0, 0], 4)  # 1/t + 1
    inv = s.inverse()
    assert (s * inv).coefficient(0) == 1
    assert all((s * inv).coefficient(k) == 0 for k in range(1, (s * inv).order + 1))


def test_geometric_series_inverse():
    one_minus_t = TruncatedSeries("t", 0, [1, -1] + [0] * 9, 10)
    geo = one_minus_t.inverse()
    assert all(geo.coefficient(k) == 1 for k in range(11))


@given(st.lists(small_fracs, min_size=1, max_size=9))
@settings(max_examples=60)
def test_exp_log_roundtrip(cs):
    order = 12
    body = [F(c) for c in cs] + [F(0)] * (order - len(cs))
    s = TruncatedSeries("t", 1, body, order)
    assert series_log(series_exp(s)) == s
    u = series_exp(s)
    assert series_exp(series_log(u)) == u


def test_exp_rejects_constant_term():
    with pytest.raises(ExactError):
        series_exp(TruncatedSeries("t", 0, [1, 1], 1))
    with pytest.raises(ExactError):
        series_exp(TruncatedSeries("t", -1, [1, 0, 1], 1))


@given(st.lists(small_fracs, max_size=10))
@example([])
def test_log_matches_the_recurrence_oracle(tail):
    s = TruncatedSeries("t", 0, [1] + tail, len(tail))
    got = series_log(s)
    _assert_canonical(got)
    assert got == series_log_recurrence(s)


def test_log_requires_unit_constant():
    with pytest.raises(ExactError):
        series_log(TruncatedSeries("t", 0, [2, 1], 1))


def test_compose_against_rational_identity():
    # f(t) = 1/(1-t), g(t) = t + t^2;  f(g(t)) = 1/(1 - t - t^2) generates Fibonacci
    order = 10
    f = TruncatedSeries("t", 0, [1] * (order + 1), order)
    g = TruncatedSeries("t", 1, [1, 1] + [0] * (order - 2), order)
    comp = series_compose(f, g)
    fib = [1, 1]
    while len(fib) <= order:
        fib.append(fib[-1] + fib[-2])
    assert [comp.coefficient(k) for k in range(order + 1)] == fib[: order + 1]


def test_compose_negative_exponents():
    # f(t) = 1/t composed with g = t/(1+t): result (1+t)/t = 1/t + 1
    order = 8
    f = TruncatedSeries("t", -1, [1] + [0] * (order + 1), order)
    g_rf = RationalFunction(poly([0, 1]), poly([1, 1]))
    g = g_rf.laurent_at(0, order)
    comp = series_compose(f, g)
    assert comp.coefficient(-1) == 1
    assert comp.coefficient(0) == 1
    assert all(comp.coefficient(k) == 0 for k in range(1, comp.order + 1))


def test_compose_stops_at_the_outer_truncation():
    """An outer series known through t^N composed with an inner one of
    valuation v is known through t^(v(N+1) - 1), not further."""
    outer = TruncatedSeries("t", 0, [1, 1], 1)  # 1 + t + O(t^2)
    assert series_compose(outer, TruncatedSeries.variable("t", 5)) == outer
    t2 = TruncatedSeries.monomial("t", 2, 1, 9)
    assert series_compose(outer, t2) == TruncatedSeries("t", 0, [1, 0, 1, 0], 3)
    pole = TruncatedSeries("t", -1, [1, 1], 0)  # 1/t + 1 + O(t)
    assert series_compose(pole, TruncatedSeries.variable("t", 5)) == pole


@given(
    st.lists(small_fracs, min_size=1, max_size=5),
    st.lists(small_fracs, min_size=1, max_size=4),
    st.integers(-2, 0),
    st.lists(small_fracs, min_size=1, max_size=5).filter(lambda cs: cs[0] != 0),
    st.integers(1, 2),
)
@settings(max_examples=60, deadline=None)
def test_compose_is_sound_under_a_longer_outer_series(known, more, low, inner_cs, v):
    """Whatever the outer series' unknown terms turn out to be, the
    composition agrees with the one computed without them through its order."""
    order = low + len(known) - 1
    short = TruncatedSeries("t", low, known, order)
    longer = TruncatedSeries("t", low, known + more, order + len(more))
    inner = TruncatedSeries("t", v, inner_cs + [0] * 6, v + len(inner_cs) + 5)
    got = series_compose(short, inner)
    assert series_compose(longer, inner).truncate(got.order) == got


@given(
    st.lists(small_fracs, min_size=1, max_size=6),
    st.lists(small_fracs, min_size=1, max_size=6),
)
@settings(max_examples=40)
def test_truncation_soundness_vs_doubled_order(ac, bc):
    """Coefficients inside the declared window never change when inputs carry
    more information: recompute the same product at doubled order and compare."""
    order = 6
    pad = lambda cs, n: [F(c) for c in cs][: n + 1] + [F(0)] * max(0, n + 1 - len(cs))
    a1 = TruncatedSeries("t", 0, pad(ac, order), order)
    b1 = TruncatedSeries("t", 0, pad(bc, order), order)
    a2 = TruncatedSeries("t", 0, pad(ac, 2 * order), 2 * order)
    b2 = TruncatedSeries("t", 0, pad(bc, 2 * order), 2 * order)
    p1 = a1 * b1
    p2 = a2 * b2
    for k in range(p1.order + 1):
        assert p1.coefficient(k) == p2.coefficient(k)


@st.composite
def series(draw, coeffs=st.one_of(st.integers(-5, 5), fracs)):
    """A series in t from -3 on, zero ones and long ones included."""
    min_exp = draw(st.integers(-3, 3))
    cs = draw(st.lists(coeffs, max_size=9))
    return TruncatedSeries("t", min_exp, cs, min_exp + len(cs) - 1)


@given(series(), series())
@example(TruncatedSeries("t", -2, [F(1, 3), 2, 5], 0),
         TruncatedSeries("t", -2, [F(-1, 3), -2, 1, 7], 1))  # leading cancellation
@example(TruncatedSeries.zero("t", 3), TruncatedSeries("t", -1, [F(1, 2), 1], 0))
@example(TruncatedSeries("t", 2, [1, 2, 3], 4), TruncatedSeries("t", -1, [F(1, 2), 1], 0))
def test_series_sum_matches_the_coefficientwise_oracle(f, g):
    got = f + g
    assert all(type(c) is F for c in got.coeffs)
    assert got == series_add(f, g)
    assert f - g == series_add(f, -g)


def _assert_canonical(s: TruncatedSeries) -> None:
    """Integer numerators over one positive denominator in lowest terms, a
    nonzero first numerator, the zero series as () from order + 1."""
    assert type(s._den) is int and s._den > 0
    assert all(type(x) is int for x in s._num)
    assert math.gcd(s._den, *s._num) == 1
    if s._num:
        assert s._num[0] and len(s._num) == s.order - s.min_exp + 1
    else:
        assert s._den == 1 and s.min_exp == s.order + 1


def _product_matches_oracle(mul, f, g) -> None:
    got = mul(f, g)
    assert all(type(c) is F for c in got.coeffs)
    _assert_canonical(got)
    assert got == series_mul(f, g)


@given(series(), series())
@example(TruncatedSeries("t", -2, [F(1, 3), 0, F(-5, 4)] + [F(1, 7)] * 12, 12),
         TruncatedSeries("t", 1, [F(2, 9), 4], 2))
@example(TruncatedSeries.zero("t", 3), TruncatedSeries("t", -1, [F(1, 2), 1], 0))
def test_series_product_matches_the_fraction_oracle(f, g):
    _product_matches_oracle(TruncatedSeries.__mul__, f, g)


@given(series(), st.one_of(st.integers(-5, 5), fracs))
def test_series_scalar_product_matches_the_fraction_oracle(f, c):
    got = f * c
    _assert_canonical(got)
    assert got == TruncatedSeries("t", f.min_exp, [c * x for x in f.coeffs], f.order)
    assert c * f == got


def _mutant_method(method, old: str, new: str):
    """``method`` recompiled from its source with ``old`` replaced by ``new``
    (``old`` must occur exactly once) in the namespace of ``exactcore``."""
    source = textwrap.dedent(inspect.getsource(method))
    assert source.count(old) == 1
    namespace = dict(vars(exactcore))
    exec(source.replace(old, new), namespace)
    return namespace[method.__name__]


def test_series_property_detects_a_wrong_product():
    """Negative control: a product that drops the second operand's
    denominator must fail the same property."""
    wrong = _mutant_method(TruncatedSeries.__mul__, "den = self._den * other._den", "den = self._den")
    check = settings(database=None, phases=[Phase.generate])(
        given(series(), series())(lambda f, g: _product_matches_oracle(wrong, f, g))
    )
    with pytest.raises(AssertionError):
        check()


def _inverse_matches_oracle(inverse, f) -> None:
    assume(not f.is_zero())
    got = inverse(f)
    _assert_canonical(got)
    assert got == series_inverse(f)


@given(series())
@example(TruncatedSeries("t", -1, [F(-2, 3), F(1, 2), 0, 5, F(-7, 4)], 3))
@example(TruncatedSeries("t", 2, [F(3, 5)], 2))
def test_series_inverse_matches_the_fraction_oracle(f):
    _inverse_matches_oracle(TruncatedSeries.inverse, f)


def test_series_inverse_property_detects_a_dropped_leading_power():
    """Negative control: the integer recurrence without the power of the
    leading numerator A_0 in its weights must fail the same property."""
    wrong = _mutant_method(TruncatedSeries.inverse, "x * a0 ** (j - 1)", "x")
    check = settings(database=None, phases=[Phase.generate])(
        given(series())(lambda f: _inverse_matches_oracle(wrong, f))
    )
    with pytest.raises(AssertionError):
        check()


@given(series(), st.integers(-6, 8))
def test_series_truncate_matches_the_oracle(f, order):
    assume(order <= f.order)
    got = f.truncate(order)
    _assert_canonical(got)
    assert got == series_truncate(f, order)


@given(series(), st.integers(-4, 4))
def test_series_shift_and_rename_match_the_oracle(f, delta):
    got = f.shift_exponent(delta)
    _assert_canonical(got)
    assert got == series_shift(f, delta)
    assert got.rename("u") == series_shift(f, delta).rename("u") != got


@given(series())
@example(TruncatedSeries("t", 0, [F(5, 2), 0, 3], 2))  # the constant drops out
@example(TruncatedSeries("t", 0, [7], 0))
def test_series_derivative_matches_the_oracle(f):
    got = f.derivative()
    _assert_canonical(got)
    assert got == series_derivative(f)


@given(series())
def test_series_from_the_constructor_is_canonical(f):
    _assert_canonical(f)
    _assert_canonical(-f)
    assert f - f == TruncatedSeries.zero("t", f.order)


def test_series_canonical_form():
    half = TruncatedSeries("t", 0, [F(2, 4), 1, F(3, 6)], 2)
    same = TruncatedSeries("t", 0, [F(1, 2), 1, F(1, 2)], 2)
    assert half == same and hash(half) == hash(same)
    assert (half._num, half._den) == ((1, 2, 1), 2)
    doubled = TruncatedSeries("t", 0, [1, 2, 1], 2) * F(1, 2)
    assert doubled == half and hash(doubled) == hash(half)
    # leading zeros raise min_exp, trailing zeros stay known zeros
    lead = TruncatedSeries("t", -2, [0, 0, F(3, 4), 0], 1)
    assert (lead.min_exp, lead._num, lead._den) == (0, (3, 0), 4)
    assert lead == TruncatedSeries("t", 0, [F(3, 4), 0], 1)
    # the zero series: no numerators, denominator 1, min_exp = order + 1
    for zero in (TruncatedSeries("t", -3, [0, F(0, 5), 0], -1),
                 TruncatedSeries.zero("t", -1),
                 lead - lead,
                 half * 0):
        assert (zero._num, zero._den) == ((), 1)
        assert zero.min_exp == zero.order + 1
    assert TruncatedSeries("t", -3, [0, 0, 0], -1) == TruncatedSeries.zero("t", -1)
    assert hash(TruncatedSeries("t", -3, [0, 0, 0], -1)) == hash(TruncatedSeries.zero("t", -1))


# ---------------------------------------------------------------------------
# multivariate series
# ---------------------------------------------------------------------------


def test_multiseries_outer_and_truncation():
    a = TruncatedSeries("x1", -1, [1, 2, 3], 1)
    b = TruncatedSeries("x2", 0, [5, 7], 1)
    m = MultiSeries.outer_product([a, b])
    assert m.coefficient((0, 1)) == 14
    with pytest.raises(TruncationError):
        m.coefficient((2, 0))


@pytest.mark.parametrize("exps", [(1.9, 0), (True, 0), (F(1), 0)])
def test_multiseries_coefficient_refuses_inexact_exponents(exps):
    m = MultiSeries(("x1", "x2"), (0, 0), (2, 2), {(1, 0): 3})
    with pytest.raises(ExactError, match="must be ints"):
        m.coefficient(exps)


@pytest.mark.parametrize("min_exp, order", [(0.7, 1.2), (0, 1.0), (False, 1), (0, F(1))])
def test_truncated_series_refuses_inexact_bounds(min_exp, order):
    with pytest.raises(ExactError, match="must be ints"):
        TruncatedSeries("t", min_exp, [1, 2], order)


def test_multiseries_product_respects_orders():
    m1 = MultiSeries(("x",), (0,), (3,), {(1,): 1, (3,): 2})
    m2 = MultiSeries(("x",), (1,), (3,), {(1,): 1})
    p = m1 * m2
    # sound order: unknown tail of m2 (beyond x^3) meets m1's x^0 at x^4
    assert p.orders == (3,)
    assert p.coefficient((2,)) == 1
    with pytest.raises(TruncationError):
        p.coefficient((4,))


def test_multiseries_hash_agrees_with_eq():
    # equality ignores min_exps, so the hash must too
    a = MultiSeries(("x",), (0,), (3,), {(1,): 1})
    b = MultiSeries(("x",), (1,), (3,), {(1,): 1})
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_multiseries_json_roundtrip():
    m = MultiSeries(("x1", "x2"), (-1, 0), (2, 2), {(-1, 2): F(3, 4), (0, 0): -2})
    data = m.to_json()
    terms = {tuple(map(int, key.split(","))): F(v) for key, v in data["terms"].items()}
    assert MultiSeries(data["vars"], data["min_exps"], data["orders"], terms) == m


RECORD_WINDOW = (("x1", "x2"), (-1, 0), (2, 2))


def test_multiseries_record_equals_the_checked_constructor():
    data = {(-1, 2): F(3, 4), (0, 0): F(-2), (2, 1): F(1, 5)}
    record = MultiSeries._from_record(*RECORD_WINDOW, dict(data))
    public = MultiSeries(*RECORD_WINDOW, data)
    assert record == public and record.min_exps == public.min_exps
    assert MultiSeries._from_record(*RECORD_WINDOW, {}) == MultiSeries.zero(*RECORD_WINDOW)


@pytest.mark.parametrize("data", [
    {(-2, 0): F(1)},         # below the window of x1
    {(0, 3): F(1)},          # above the window of x2
    {(0, 0): F(1), (1, -1): F(2)},
], ids=["below", "above", "one-entry-below"])
def test_multiseries_record_refuses_an_exponent_outside_the_window(data):
    with pytest.raises(ExactError, match="outside declared window"):
        MultiSeries._from_record(*RECORD_WINDOW, data)


@pytest.mark.parametrize("data", [{(0,): F(1)}, {(0, 0): F(1), (0, 0, 0): F(1)}])
def test_multiseries_record_refuses_an_arity_mismatch(data):
    with pytest.raises(ExactError, match="arity"):
        MultiSeries._from_record(*RECORD_WINDOW, data)


@pytest.mark.parametrize("value", [F(0), 0, 1, 0.5])
def test_multiseries_record_refuses_a_zero_or_inexact_coefficient(value):
    with pytest.raises(ExactError, match="nonzero fractions"):
        MultiSeries._from_record(*RECORD_WINDOW, {(0, 0): F(1), (1, 1): value})


# ---------------------------------------------------------------------------
# the integer polynomial kernel against the Fraction oracle
# ---------------------------------------------------------------------------

wide_fracs = st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**9)
coeff_lists = st.lists(st.one_of(fracs, wide_fracs), max_size=7)
nonzero_lists = coeff_lists.filter(any)
points = st.one_of(st.integers(-7, 7), small_fracs, wide_fracs)


def canonical(p: Polynomial) -> Polynomial:
    """``p`` after checking the integer layout is in lowest terms."""
    nums, den = p._num, p._den
    assert den > 0 and all(type(x) is int for x in nums)
    assert not nums or (nums[-1] != 0 and math.gcd(den, *nums) == 1)
    assert nums or den == 1
    return p


def same(p: Polynomial, q: FracPolynomial) -> bool:
    return canonical(p).coeffs == q.coeffs


@given(coeff_lists, coeff_lists)
def test_ring_ops_match_oracle(ac, bc):
    a, b, oa, ob = poly(ac), poly(bc), FracPolynomial(ac), FracPolynomial(bc)
    assert same(a, oa)
    assert same(a + b, oa + ob)
    assert same(a - b, oa - ob)
    assert same(a * b, oa * ob)
    assert same(-a, -oa)
    assert same(a.derivative(), FracPolynomial(k * c for k, c in enumerate(oa.coeffs) if k))


@given(coeff_lists, nonzero_lists)
def test_divmod_matches_oracle(ac, bc):
    q, r = divmod(poly(ac), poly(bc))
    oq, orr = divmod(FracPolynomial(ac), FracPolynomial(bc))
    assert same(q, oq) and same(r, orr)


def _shift_matches_oracle(shift, cs, c) -> None:
    assert same(shift(poly(cs), c), FracPolynomial(cs).shift(c))


@given(coeff_lists, points)
@example([1, 2, 3, 4], F(1, 2))
@example([F(1, 3), 0, 0, 5, F(-7, 2)], -3)
def test_shift_matches_oracle(cs, c):
    _shift_matches_oracle(Polynomial.shift, cs, c)


@pytest.mark.parametrize(
    "wrong",
    [lambda p, c: p.shift(F(c).numerator), lambda p, c: p.shift(-c)],
    ids=["denominator-of-c-dropped", "sign-of-c-flipped"],
)
def test_shift_property_detects_a_wrong_shift(wrong):
    """Negative control: the same property with a faulty shift must fail."""
    check = settings(database=None, phases=[Phase.generate])(
        given(coeff_lists, points)(lambda cs, c: _shift_matches_oracle(wrong, cs, c))
    )
    with pytest.raises(AssertionError):
        check()


@given(coeff_lists, points)
def test_scalar_evaluation_matches_oracle(cs, x):
    got = poly(cs)(x)
    assert type(got) is F and got == FracPolynomial(cs)(F(x))


@settings(max_examples=60)
@given(nonzero_lists, coeff_lists, coeff_lists)
def test_gcd_and_monic_match_oracle(fc, gc, hc):
    """gcd of f*g and f*h, so the common factor is at least f."""
    f, g, h = FracPolynomial(fc), FracPolynomial(gc), FracPolynomial(hc)
    a, b = poly(fc) * poly(gc), poly(fc) * poly(hc)
    assert same(a.gcd(b), (f * g).gcd(f * h))
    assert same(a.monic(), (f * g).monic())


@given(st.lists(st.one_of(small_fracs, wide_fracs), max_size=6))
def test_from_roots_matches_oracle(roots):
    assert same(Polynomial.from_roots(roots), FracPolynomial.from_roots(roots))


@settings(max_examples=60)
@given(nonzero_lists, coeff_lists, nonzero_lists, nonzero_lists)
def test_rational_function_canonical_form_matches_oracle(nc, kc, dc, common):
    """num/den with a shared factor: the canonical form is the oracle's, and
    equal values compare equal and hash alike."""
    num, den = FracPolynomial(nc) * FracPolynomial(kc), FracPolynomial(dc) * FracPolynomial(common)
    f = RationalFunction(poly(nc) * poly(kc), poly(dc) * poly(common))
    want_num, want_den = frac_canonical(num, den)
    assert same(f.num, want_num) and same(f.den, want_den)
    g = RationalFunction(f.num * poly(common), f.den * poly(common))
    assert g == f and hash(g) == hash(f)
