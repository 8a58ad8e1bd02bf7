"""Tests for the degree-graded partition-sum rational functions."""

from __future__ import annotations

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p1qcurve.exactcore import ExactError, Polynomial, RationalFunction
from p1qcurve.partitions import hook_product, partitions
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


def test_laguerre_values():
    assert laguerre_value(0, F(7, 2), 1) == 1
    assert laguerre_value(1, F(1), 1) == 1          # L_1^{(1)}(z) = 2 - z
    assert laguerre_value(2, F(0), 1) == F(-1, 2)   # L_2(z) = 1 - 2z + z^2/2
    # symbolic parameter: L_1^{(a)}(z) = 1 + a - z
    u = Polynomial.identity()
    assert laguerre_value(1, u, 1) == Polynomial([0, 1])
    assert laguerre_value(1, u, 0) == Polynomial([1, 1])


def test_laguerre_symbolic_matches_scalar():
    u = Polynomial.identity()
    for n in range(6):
        pn = laguerre_value(n, u, 1)
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


def test_toda_rejects_unknown_variant():
    with pytest.raises(ExactError):
        toda_quadratic_check(1, "sideways")


def test_degree_bounds():
    for d in range(1, 8):
        f = x_partition(d)
        assert f.num.degree <= f.den.degree
        assert f.den.degree == d
