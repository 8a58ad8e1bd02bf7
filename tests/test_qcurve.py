"""Tests for the degree-graded partition-sum rational functions."""

from __future__ import annotations

import importlib
import inspect
import math
import re
import textwrap
from fractions import Fraction as F

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from p1qcurve import qcurve
from p1qcurve.exactcore import ExactError, Polynomial, RationalFunction, partial_fractions
from p1qcurve.partitions import hook_product, offset_sum, partitions
from p1qcurve.qcurve import (
    laguerre_value,
    toda_quadratic_check,
    verify_xd_recursion,
    x_laguerre,
    x_partition,
    xd_pole_report,
    y_evaluate,
    y_polynomial,
)

from oracles import (
    laguerre_pole_sum_termwise,
    laguerre_value_polynomial,
    laguerre_value_termwise,
    laurent_at_full_shift,
    pole_report_by_partial_fractions,
    reassemble_termwise,
    reassembles_by_normalising,
    recursion_residual,
    toda_quadratic_check_normalising,
    x_partition_termwise,
    y_polynomial_termwise,
)

partitions_module = importlib.import_module("p1qcurve.partitions")
fracs = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def rf(num, den) -> RationalFunction:
    return RationalFunction(Polynomial(num), Polynomial(den))


def test_x_partition_closed_forms():
    assert x_partition(0) == RationalFunction.one()
    assert x_partition(1) == rf([0, 1], [1, 1])  # u/(u+1)
    # hand sum over (2) and (1,1): (u^2+u-1)/(2(u+1)(u+2))
    assert x_partition(2) == rf([-1, 1, 1], [4, 6, 2])


def test_x_partition_leading_value_is_inverse_factorial():
    for d in range(9):
        f = x_partition(d)
        at_inf = f.series_at_infinity(0)
        assert at_inf.coefficient(0) == F(1, math.factorial(d))
        assert at_inf.coefficient(0) == sum(
            F(1, hook_product(p) ** 2) for p in partitions(d)
        )


def test_x_partition_simple_poles():
    for d in range(1, 9):
        report = xd_pole_report(d)
        assert all(order == 1 for order in report.values())
        assert set(report) <= {F(-i) for i in range(1, d + 1)}


@pytest.mark.parametrize("d", range(21))
def test_pole_report_matches_the_partial_fractions_route(d):
    report = xd_pole_report(d)
    assert list(report.items()) == list(pole_report_by_partial_fractions(x_partition(d)).items())
    assert report == {F(-i): 1 for i in range(1, d + 1)}


def test_pole_report_reads_a_higher_order_pole(monkeypatch):
    f = RationalFunction(Polynomial([1, 2]), Polynomial.from_roots([-1, -1, -3]))
    monkeypatch.setattr(qcurve, "x_partition", lambda d: f)
    assert xd_pole_report(3) == pole_report_by_partial_fractions(f) == {F(-3): 1, F(-1): 2}


@pytest.mark.parametrize("factor, name", [([1, 0, 1], "u^2 + 1"), ([5, 1], "u + 5"),
                                          ([1, 2], "u + 1/2")])
def test_pole_report_names_a_factor_outside_the_expected_poles(monkeypatch, factor, name):
    """Negative control: a denominator with a factor other than u+1..u+d is
    refused, and the refusal names the factor."""
    f = RationalFunction(1, qcurve._pole_product(4) * Polynomial(factor))
    monkeypatch.setattr(qcurve, "x_partition", lambda d: f)
    with pytest.raises(ExactError, match=re.escape(f"factor {name} outside")):
        xd_pole_report(4)


@pytest.mark.parametrize("d", range(16))
def test_laguerre_ratio_on_integers_matches_the_termwise_oracle(d):
    u = Polynomial.identity()
    num, den = laguerre_value_termwise(d, u, 1), laguerre_value_termwise(d, u, 0)
    assert x_laguerre(d) == RationalFunction(num, den * math.factorial(d))


def test_laguerre_values():
    assert laguerre_value(0, F(7, 2), 1) == 1
    assert laguerre_value(1, F(1), 1) == 1          # L_1^{(1)}(z) = 2 - z
    assert laguerre_value(2, F(0), 1) == F(-1, 2)   # L_2(z) = 1 - 2z + z^2/2
    # symbolic parameter: L_1^{(a)}(z) = 1 + a - z, from the oracle; the
    # public function takes exact scalars only
    u = Polynomial.identity()
    assert laguerre_value_polynomial(1, u, 1) == Polynomial([0, 1])
    assert laguerre_value_polynomial(1, u, 0) == Polynomial([1, 1])
    with pytest.raises(ExactError):
        laguerre_value(1, u, 1)


def test_laguerre_symbolic_matches_scalar():
    u = Polynomial.identity()
    for n in range(6):
        pn = laguerre_value_polynomial(n, u, 1)
        for a in (0, 1, 2, F(5, 3)):
            assert pn(F(a)) == laguerre_value(n, F(a), 1)


def test_x_laguerre_small_closed_forms():
    assert x_laguerre(0) == RationalFunction.one()
    assert x_laguerre(1) == rf([0, 1], [1, 1])
    # (1/2)(1 - 1/(u+1) - 1/(u+2))
    expected = (
        RationalFunction.one()
        - rf([1], [1, 1])
        - rf([1], [2, 1])
    ) * F(1, 2)
    assert x_laguerre(2) == expected


def test_partition_and_laguerre_forms_agree():
    for d in range(9):
        assert x_partition(d) == x_laguerre(d)


def test_xd_recursion_hand_case():
    # d=1: 1/(u+1) + u[(u-1)/u - u/(u+1)] = 0
    assert verify_xd_recursion(1)
    assert verify_xd_recursion(2)


@given(st.integers(min_value=1, max_value=10))
@settings(max_examples=10, deadline=None)
def test_xd_recursion_property(d):
    assert verify_xd_recursion(d)


def test_y_polynomial_zero():
    for d in range(1, 10):
        assert y_polynomial(d).is_zero()


def test_y_polynomial_hand_case():
    # d=1: (1-y)(y+1) + (y-1)y + (y-1) = 0 identically
    assert y_polynomial(1) == Polynomial.zero()


def test_y_evaluate_root_at_d():
    for d in range(1, 10):
        assert y_evaluate(d, d) == 0


def test_y_inductive_step():
    # Y_d(y) == Y_{d+1}(y+1) - Y_{d+1}(y) on the constructed polynomials
    for d in range(1, 8):
        lhs = y_polynomial(d)
        nxt = y_polynomial(d + 1)
        assert lhs == nxt.shift(1) - nxt


def test_toda_hand_case_d0():
    # full: LHS = (u/(u+1)) X_0(u+1) X_0(u-1) = u/(u+1) = X_1 = RHS
    assert toda_quadratic_check(0, "full")
    # one-level: both sides equal 1/(u(u+1))
    x1 = x_partition(1)
    lhs = x1 - x1.shift(-1)
    assert lhs == rf([1], [0, 1, 1])
    assert toda_quadratic_check(0, "one-level")


def test_toda_both_variants_small():
    for d in range(4):
        assert toda_quadratic_check(d, "full")
        assert toda_quadratic_check(d, "one-level")


VARIANTS = ("full", "one-level")


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("d", range(9))
def test_toda_matches_the_normalising_route(d, variant):
    assert toda_quadratic_check(d, variant) is toda_quadratic_check_normalising(d, variant) is True


PERTURBED = {
    "X_2-doubled": (2, lambda x: x * 2),
    "X_3-plus-1/(u+1)": (3, lambda x: x + rf([1], [1, 1])),
}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("perturbation", PERTURBED.values(), ids=PERTURBED.keys())
def test_toda_routes_both_reject_a_perturbed_partition_sum(monkeypatch, perturbation, variant):
    """Negative control: with one X_a changed, every relation that reads it
    (d >= a - 1) fails on both routes; the lower ones still hold."""
    degree, change = perturbation
    exact = qcurve.x_partition
    monkeypatch.setattr(qcurve, "x_partition", lambda a: change(exact(a)) if a == degree else exact(a))
    for d in range(7):
        want = d < degree - 1
        assert toda_quadratic_check(d, variant) is want, d
        assert toda_quadratic_check_normalising(d, variant) is want, d


TODA_MUTANTS = {
    "no-weight": ("(2 * a - top) ** 2", "2", VARIANTS),
    "no-u/(u+1)": ("lhs, rhs = [0] + lhs, _times_linear(rhs, 1)", "pass", ("full",)),
    "no-1/u^2": ("lhs, rhs = [0, 0] + lhs, rhs + [0, 0]", "pass", ("one-level",)),
}


@pytest.mark.parametrize("old, new, variants", TODA_MUTANTS.values(), ids=TODA_MUTANTS.keys())
def test_toda_check_detects_a_dropped_factor(old, new, variants):
    """Negative control: without the weight (a-b)^2/2, the factor u/(u+1)
    or the factor 1/u^2 the relations fail."""
    source = textwrap.dedent(inspect.getsource(qcurve.toda_quadratic_check))
    assert source.count(old) == 1
    namespace = dict(vars(qcurve))
    exec(source.replace(old, new), namespace)
    mutant = namespace["toda_quadratic_check"]
    for variant in variants:
        assert not any(mutant(d, variant) for d in range(9)), variant


@pytest.mark.parametrize(
    "factor",
    [Polynomial([5, 1]), Polynomial([F(1, 2), 1]), Polynomial([1, 0, 1])],
    ids=["u+5", "u+1/2", "u^2+1"],
)
def test_toda_refuses_a_denominator_outside_the_pole_product(monkeypatch, factor):
    """Control: a denominator of X_2 that does not divide (u+1)(u+2) is
    reported, not read as a numerator."""
    exact = qcurve.x_partition
    monkeypatch.setattr(
        qcurve, "x_partition",
        lambda a: exact(a) * RationalFunction(Polynomial.one(), factor) if a == 2 else exact(a),
    )
    for variant in VARIANTS:
        with pytest.raises(ExactError, match=r"denominator of X_2 does not divide"):
            toda_quadratic_check(3, variant)


def test_toda_rejects_unknown_variant():
    with pytest.raises(ExactError):
        toda_quadratic_check(1, "sideways")


def test_degree_bounds():
    for d in range(1, 8):
        f = x_partition(d)
        assert f.num.degree <= f.den.degree
        assert f.den.degree == d


# ---------------------------------------------------------------------------
# exact inputs only
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("call", [
    lambda: laguerre_value(1, 0.1, 1),
    lambda: laguerre_value(1, 1, 0.5),
    lambda: laguerre_value(1, True, 1),
    lambda: laguerre_value(2.0, 1, 1),
    lambda: laguerre_value(True, Polynomial.identity(), 1),
    lambda: y_evaluate(2, 0.1),
    lambda: y_evaluate(2, True),
    lambda: y_evaluate(2.0, 2),
    lambda: x_partition(2.0),
    lambda: x_partition(True),
    lambda: x_laguerre(2.0),
    lambda: y_polynomial(2.0),
    lambda: verify_xd_recursion(2.0),
    lambda: verify_xd_recursion(True),
    lambda: xd_pole_report(2.0),
    lambda: toda_quadratic_check(2.0),
    lambda: offset_sum(2.0),
], ids=[
    "alpha-float", "z-float", "alpha-bool", "index-float", "index-bool",
    "y0-float", "y0-bool", "y-degree-float", "x_partition-float", "x_partition-bool",
    "x_laguerre-float", "y_polynomial-float", "recursion-float", "recursion-bool",
    "pole-report-float", "toda-float", "offset_sum-float",
])
def test_floats_and_bools_are_refused(call):
    with pytest.raises(ExactError):
        call()


def test_a_refused_degree_takes_no_memo_entry():
    x_partition(1)
    y_polynomial(1)
    x_laguerre(1)
    tables = (x_partition.__wrapped__, y_polynomial.__wrapped__, x_laguerre.__wrapped__,
              offset_sum.__wrapped__)
    sizes = [t.cache_info().currsize for t in tables]
    for build in (x_partition, y_polynomial, x_laguerre, offset_sum):
        with pytest.raises(ExactError):
            build(True)
    assert [t.cache_info().currsize for t in tables] == sizes


# ---------------------------------------------------------------------------
# the summed kernels against the termwise routes they replaced
# ---------------------------------------------------------------------------


@given(st.integers(0, 8))
@settings(max_examples=9, deadline=None)
def test_partition_sums_match_the_termwise_oracles(d):
    assert x_partition(d) == x_partition_termwise(d)
    num, den = qcurve._laguerre_pole_sum(d)
    pole_sum = laguerre_pole_sum_termwise(d)
    assert num * pole_sum.den == pole_sum.num * den
    if d:
        # Y_d vanishes on both sides; the unshifted sum is compared in
        # test_partitions.test_offset_sum_matches_the_termwise_oracle
        assert y_polynomial(d) == y_polynomial_termwise(d)


@given(
    st.integers(0, 7),
    st.one_of(fracs, st.lists(fracs, min_size=1, max_size=3).map(Polynomial)),
    fracs,
)
def test_laguerre_value_matches_the_termwise_oracle(n, alpha, z):
    value = laguerre_value_polynomial if isinstance(alpha, Polynomial) else laguerre_value
    assert value(n, alpha, z) == laguerre_value_termwise(n, alpha, z)


@pytest.fixture
def fresh_tower():
    """Empty partition-sum memo tables before and after the test."""
    tables = (x_partition.__wrapped__, y_polynomial.__wrapped__,
              partitions_module.offset_sum.__wrapped__)
    for t in tables:
        t.cache_clear()
    yield
    for t in tables:
        t.cache_clear()


def test_a_wrong_hook_weight_breaks_both_checks(monkeypatch, fresh_tower):
    """Negative control: with one hook product doubled, the partition sum
    leaves the Laguerre form and Y_d stops vanishing."""
    exact = partitions_module.hook_product
    monkeypatch.setattr(
        partitions_module, "hook_product", lambda lam: 2 * exact(lam) if lam == (2, 1, 1) else exact(lam)
    )
    assert x_partition(4) != x_laguerre(4)
    assert not y_polynomial(4).is_zero()


# ---------------------------------------------------------------------------
# the checks on cleared denominators against the normalising routes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", range(13))
def test_tower_checks_match_the_normalising_oracles(d):
    """Each check of the X_d tower and the route it replaced, for d <= 12."""
    x_d = x_partition(d)
    num, den = qcurve._laguerre_pole_sum(d)
    assert RationalFunction(num, den) == laguerre_pole_sum_termwise(d) == x_d
    if not d:
        return
    x_prev = x_partition(d - 1)
    assert qcurve._recursion_numerator(x_prev, x_d).is_zero()
    assert recursion_residual(x_prev, x_d).is_zero()
    pf = partial_fractions(x_d)
    assert pf._sums_to(x_d) and reassembles_by_normalising(pf, x_d)
    assert reassemble_termwise(pf) == x_d
    for (root, _), _ in pf.terms:
        for order in (-1, 0, 3):
            assert x_d.laurent_at(root, order) == laurent_at_full_shift(x_d, root, order)


rational_functions = st.builds(
    lambda num, roots: RationalFunction(Polynomial(num), Polynomial.from_roots(roots)),
    st.lists(fracs, min_size=1, max_size=4),
    st.lists(fracs, max_size=3),
)


def _recursion_matches_oracle(numerator, x_prev, x_d) -> None:
    cleared = Polynomial([1, 1]) * x_prev.den.shift(1) * x_d.den.shift(-1) * x_d.den
    assert RationalFunction(numerator(x_prev, x_d), cleared) == recursion_residual(x_prev, x_d)


@given(rational_functions, rational_functions)
def test_recursion_numerator_matches_the_normalising_residual(x_prev, x_d):
    _recursion_matches_oracle(qcurve._recursion_numerator, x_prev, x_d)


DROPPED_FACTOR = ("b = Polynomial([1, 1]) * x_prev.den.shift(1)", "b = x_prev.den.shift(1)")


def test_recursion_checks_detect_a_dropped_factor():
    """Negative control: without the factor u+1 of B the tower fails the
    recursion and the numerator leaves the normalising residual."""
    source = textwrap.dedent(inspect.getsource(qcurve._recursion_numerator))
    assert source.count(DROPPED_FACTOR[0]) == 1
    namespace = dict(vars(qcurve))
    exec(source.replace(*DROPPED_FACTOR), namespace)
    mutant = namespace["_recursion_numerator"]
    assert all(not mutant(x_partition(d - 1), x_partition(d)).is_zero() for d in range(1, 6))
    check = settings(database=None, phases=[Phase.generate], deadline=None)(
        given(rational_functions, rational_functions)(
            lambda x_prev, x_d: _recursion_matches_oracle(mutant, x_prev, x_d)
        )
    )
    with pytest.raises(AssertionError):
        check()


SHIFTED_BINOMIAL = ("math.comb(d - 1, m - 1)", "math.comb(d - 1, m)")


def test_pole_sum_checks_detect_a_shifted_binomial(monkeypatch):
    """Negative control: with C(d-1, m) for C(d-1, m-1) the pole sum leaves
    the termwise oracle and x_laguerre raises on the mismatch."""
    source = textwrap.dedent(inspect.getsource(qcurve._laguerre_pole_sum))
    assert source.count(SHIFTED_BINOMIAL[0]) == 1
    namespace = dict(vars(qcurve))
    exec(source.replace(*SHIFTED_BINOMIAL), namespace)
    mutant = namespace["_laguerre_pole_sum"]
    for d in range(1, 13):
        num, den = mutant(d)
        oracle = laguerre_pole_sum_termwise(d)
        assert num * oracle.den != oracle.num * den
    monkeypatch.setattr(qcurve, "_laguerre_pole_sum", mutant)
    x_laguerre.__wrapped__.cache_clear()
    try:
        with pytest.raises(ExactError, match="disagree"):
            x_laguerre(4)
    finally:
        x_laguerre.__wrapped__.cache_clear()
