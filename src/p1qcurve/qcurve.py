"""Degree-graded partition sums as rational functions of u = x/hbar.

For each degree d the module builds the rational function

    X_d(u) = sum over partitions p of d of
             (1 / H_p^2) * prod_{i=1}^{d} (u + i - p_i) / (u + i)

three independent ways (partition sum, Laguerre pole-sum, Laguerre ratio),
checks the shift recursion that characterizes the family, the vanishing
polynomial built from the offset products, and the quadratic lattice
relations the family satisfies degree by degree.

Shifts of x by multiples of hbar act as integer shifts of u, so everything
here is univariate exact rational-function arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction as Frac
from functools import cache
from typing import Union

from .exactcore import (
    ExactError,
    Polynomial,
    RationalFunction,
    partial_fractions,
)
from .partitions import (
    hook_product,
    offset_product,
    padded,
    partitions,
)

__all__ = [
    "x_partition",
    "laguerre_value",
    "x_laguerre",
    "verify_xd_recursion",
    "y_polynomial",
    "y_evaluate",
    "toda_quadratic_check",
    "xd_pole_report",
]


@cache
def x_partition(d: int) -> RationalFunction:
    """The degree-d partition sum as a reduced rational function of u.

    ``X_0 = 1``; the denominator divides ``(u+1)(u+2)...(u+d)``.
    """
    if d < 0:
        raise ExactError("degree must be nonnegative")
    if d == 0:
        return RationalFunction.one()
    den = Polynomial.from_roots([-i for i in range(1, d + 1)])
    num = Polynomial.zero()
    for lam in partitions(d):
        parts = padded(lam, d)
        prod = Polynomial.one()
        for i in range(1, d + 1):
            prod = prod * Polynomial([i - parts[i - 1], 1])
        num = num + prod * Frac(1, hook_product(lam) ** 2)
    return RationalFunction(num, den)


PolyOrFrac = Union[Polynomial, Frac, int]


def laguerre_value(n: int, alpha: PolyOrFrac, z: Frac | int) -> PolyOrFrac:
    """Generalized Laguerre value L_n^(alpha)(z) from the closed sum

        L_n^(alpha)(z) = sum_{i=0}^{n} (-1)^i  C(n+alpha, n-i)  z^i / i!

    ``alpha`` may be an exact scalar or a polynomial variable, in which case
    the result is a polynomial in that variable of degree n.
    """
    if n < 0:
        raise ExactError("Laguerre index must be nonnegative")
    symbolic = isinstance(alpha, Polynomial)
    total: PolyOrFrac = Polynomial.zero() if symbolic else Frac(0)
    z = Frac(z)
    for i in range(n + 1):
        k = n - i
        # C(n + alpha, k) = prod_{j=0}^{k-1} (alpha + n - j) / k!
        if symbolic:
            binom: PolyOrFrac = Polynomial.one()
            for j in range(k):
                binom = binom * (alpha + Polynomial.constant(n - j))
        else:
            binom = Frac(1)
            for j in range(k):
                binom = binom * (Frac(alpha) + n - j)
        term = binom * Frac((-1) ** i * z.numerator**i, z.denominator**i * math.factorial(i) * math.factorial(k))
        total = total + term
    return total


@cache
def x_laguerre(d: int) -> RationalFunction:
    """The degree-d function from Laguerre data, computed two ways.

    Pole-sum form:   (1/d!) (1 - sum_{m=1}^{d} L_{d-m}^{(m)}(1) / (m-1)! / (u+m))
    Ratio form:      L_d^{(u)}(1) / (d! L_d^{(u)}(0))  with u symbolic.

    Both are computed and must agree exactly; a mismatch raises, since it can
    only come from an arithmetic defect.
    """
    if d < 0:
        raise ExactError("degree must be nonnegative")
    # pole-sum form
    pole_sum = RationalFunction.one()
    for m in range(1, d + 1):
        lag = laguerre_value(d - m, Frac(m), 1)
        coeff = Frac(lag, 1) / math.factorial(m - 1)
        pole_sum = pole_sum - RationalFunction(
            Polynomial.constant(coeff), Polynomial([m, 1])
        )
    pole_sum = pole_sum * Frac(1, math.factorial(d))
    # ratio form with symbolic parameter
    u = Polynomial.identity()
    num = laguerre_value(d, u, 1)
    den = laguerre_value(d, u, 0)
    assert isinstance(num, Polynomial) and isinstance(den, Polynomial)
    ratio = RationalFunction(num, den * math.factorial(d))
    if pole_sum != ratio:
        raise ExactError(
            f"Laguerre pole-sum and ratio forms disagree at degree {d}: "
            "arithmetic defect"
        )
    return ratio


def verify_xd_recursion(d: int) -> bool:
    """Exact check of the shift recursion

        (1/(u+1)) X_{d-1}(u+1) + u (X_d(u-1) - X_d(u)) = 0   for d >= 1.
    """
    if d < 1:
        raise ExactError("recursion is stated for d >= 1")
    x_prev, x_d = x_partition(d - 1), x_partition(d)
    u = RationalFunction.identity()
    residual = x_prev.shift(1) / RationalFunction(Polynomial([1, 1])) + u * (x_d.shift(-1) - x_d)
    return residual.is_zero()


@cache
def y_polynomial(d: int) -> Polynomial:
    """The weight-d vanishing polynomial

        Y_d(y) = sum over p of d of
                 [ (d - y) G_p(y+1) + (y - 1) G_p(y) + G_p(y-1) ] / H_p^2

    with ``G_p`` the offset product.  Expected to be identically zero; the
    caller asserts that, this function just builds the sum.
    """
    if d < 1:
        raise ExactError("vanishing polynomial is stated for d >= 1")
    total = Polynomial.zero()
    d_minus_y = Polynomial([d, -1])
    y_minus_1 = Polynomial([-1, 1])
    for lam in partitions(d):
        g = offset_product(lam)
        term = d_minus_y * g.shift(1) + y_minus_1 * g + g.shift(-1)
        total = total + term * Frac(1, hook_product(lam) ** 2)
    return total


def y_evaluate(d: int, y0: Frac | int) -> Frac:
    """Evaluate the weight-d vanishing sum at a point without expanding the
    polynomial first (used to probe the root at y0 = d directly)."""
    if d < 1:
        raise ExactError("vanishing polynomial is stated for d >= 1")
    y0 = Frac(y0)
    total = Frac(0)
    for lam in partitions(d):
        g = offset_product(lam)
        val = (d - y0) * g(y0 + 1) + (y0 - 1) * g(y0) + g(y0 - 1)
        total += Frac(val, hook_product(lam) ** 2)
    return total


def toda_quadratic_check(d: int, variant: str = "full") -> bool:
    """Exact quadratic lattice relations between the X_d, degree by degree.

    variant="full":
        (u/(u+1)) sum_{a+b=d} X_a(u+1) X_b(u-1)
            = sum_{a+b=d+1} X_a(u) X_b(u) (a-b)^2 / 2
    variant="one-level":
        sum_{a+b=d+1} ( X_a(u) X_b(u-1) - X_a(u-1) X_b(u-1) )
            = (1/u^2) sum_{a+b=d+1} X_a(u) X_b(u) (a-b)^2 / 2
    """
    if d < 0:
        raise ExactError("degree must be nonnegative")
    if variant not in ("full", "one-level"):
        raise ExactError(f"unknown variant {variant!r}")
    u_poly = Polynomial.identity()
    rhs = RationalFunction.zero()
    for a in range(d + 2):
        b = d + 1 - a
        w = Frac((a - b) ** 2, 2)
        if w:
            rhs = rhs + x_partition(a) * x_partition(b) * w
    if variant == "full":
        lhs = RationalFunction.zero()
        for a in range(d + 1):
            b = d - a
            lhs = lhs + x_partition(a).shift(1) * x_partition(b).shift(-1)
        lhs = lhs * RationalFunction(u_poly, Polynomial([1, 1]))
        return lhs == rhs
    lhs = RationalFunction.zero()
    for a in range(d + 2):
        b = d + 1 - a
        xa, xb = x_partition(a), x_partition(b)
        lhs = lhs + (xa - xa.shift(-1)) * xb.shift(-1)
    return lhs == rhs * RationalFunction(Polynomial.one(), u_poly * u_poly)


def xd_pole_report(d: int) -> dict[Frac, int]:
    """Pole locations and orders of the degree-d function (simple poles at
    u = -1..-d expected; reported, not assumed)."""
    pf = partial_fractions(x_partition(d))
    report: dict[Frac, int] = {}
    for (root, mult), coeff in pf.as_dict().items():
        if coeff != 0:
            report[root] = max(report.get(root, 0), mult)
    return report
