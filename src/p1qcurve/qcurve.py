"""Degree-graded partition sums as rational functions of u = x/hbar.

For each degree d the module builds the rational function

    X_d(u) = sum over partitions p of d of
             (1 / H_p^2) * prod_{i=1}^{d} (u + i - p_i) / (u + i)

three independent ways (partition sum, Laguerre pole-sum, Laguerre ratio),
checks the shift recursion that characterizes the family, the vanishing
polynomial built from the offset products, and the quadratic lattice
relations the family satisfies degree by degree.

Shifts of x by multiples of hbar act as integer shifts of u, so everything
here is univariate exact rational-function arithmetic.  The partition sums
are taken once, on integer numerators over one common denominator
(:func:`partitions.offset_sum`, shared by X_d and Y_d), and each result is
normalised once; the shifts act on the summed polynomial, never on one
partition's term.

Checks are identities on cleared denominators; only returned values are
normalised.  A check such as the shift recursion or the agreement of the
two Laguerre forms multiplies its denominators out and asks whether one
polynomial identity holds, with no gcd and no ``RationalFunction`` built.
Both Laguerre forms are built on integer coefficient lists.  The quadratic
lattice relations (Okounkov-Pandharipande, arXiv:math/0207233) read each
X_a over ``Q_a = (u+1)...(u+a)``, so every shifted X_a they use sits over
``W = u(u+1)...(u+d+1)`` and each relation is one identity between integer
coefficient lists over the common denominator ``(u+1) W^2`` ("full") or
``u^2 W^2`` ("one-level").

The pole report needs no root finder: the denominator of X_d divides
``(u+1)...(u+d)`` by construction, so the report divides it by those
factors, exactly, and refuses any factor left over.
"""

from __future__ import annotations

import math
from fractions import Fraction as Frac
from typing import Sequence

from .exactcore import (
    ExactError,
    Polynomial,
    RationalFunction,
    _integers,
    _memo_checked,
    _poly,
    _pseudo_divmod,
    _scalar,
    _taylor_passes,
)
from .partitions import (
    _times_linear,
    hook_product,
    offset_product,
    offset_sum,
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


def _pole_product(d: int) -> Polynomial:
    """``(u+1)(u+2)...(u+d)``."""
    return Polynomial.from_roots(range(-d, 0))


@_memo_checked(lambda d: _integers(degree=d))
def x_partition(d: int) -> RationalFunction:
    """The degree-d partition sum as a reduced rational function of u.

    ``X_0 = 1``; the denominator divides ``(u+1)(u+2)...(u+d)``.  Over that
    product the numerator is ``sum_p H_p^-2 prod_i (u + i - p_i)``, which is
    ``(-1)^d G_d(-u)`` for the offset sum ``G_d`` of
    :func:`partitions.offset_sum`: one integer sum over ``lcm H_p^2``, one
    normalisation of the quotient.
    """
    if d < 0:
        raise ExactError("degree must be nonnegative")
    g = offset_sum(d)
    num = _poly([x if (d + k) % 2 == 0 else -x for k, x in enumerate(g._num)], g._den)
    return RationalFunction(num, _pole_product(d))


def laguerre_value(n: int, alpha: Frac | int, z: Frac | int) -> Frac:
    """Generalized Laguerre value L_n^(alpha)(z) from the closed sum

        L_n^(alpha)(z) = sum_{i=0}^{n} (-1)^i  C(n+alpha, n-i)  z^i / i!

    for exact scalars ``alpha`` and ``z``.  The falling products
    ``k! C(n+alpha, k) = prod_{j<k} (alpha + n - j)`` are built as one
    prefix product, one factor per k.
    """
    _integers(degree=n)
    if n < 0:
        raise ExactError("Laguerre index must be nonnegative")
    alpha, z = _scalar(alpha), _scalar(z)
    falling, total = Frac(1), Frac(0)
    for k in range(n + 1):
        if k:
            falling = falling * (alpha + (n - k + 1))
        i = n - k
        total = total + falling * Frac(
            (-1) ** i * z.numerator**i, z.denominator**i * math.factorial(i) * math.factorial(k)
        )
    return total


@_memo_checked(lambda d: _integers(degree=d))
def x_laguerre(d: int) -> RationalFunction:
    """The degree-d function from Laguerre data, computed two ways.

    Pole-sum form:   (1/d!) (1 - sum_{m=1}^{d} L_{d-m}^{(m)}(1) / (m-1)! / (u+m))
    Ratio form:      L_d^{(u)}(1) / (d! L_d^{(u)}(0))  with u symbolic.

    The ratio form is taken on integers, from the falling products
    ``F_k = prod_{j<k} (u + d - j)``: ``d! L_d^{(u)}(1) = sum_k (-1)^(d-k)
    C(d, k) F_k`` over ``d! L_d^{(u)}(0) = F_d``, times ``d!``.  It is
    normalised once and returned.  The pole sum is taken on integers too
    (:func:`_laguerre_pole_sum`) and left unreduced; the two forms are
    compared by cross-multiplication and must agree exactly; a mismatch
    raises, since it can only come from an arithmetic defect.
    """
    if d < 0:
        raise ExactError("degree must be nonnegative")
    falling, num = [1], [(-1) ** d]
    for k in range(1, d + 1):
        falling = _times_linear(falling, d - k + 1)
        c = (-1) ** (d - k) * math.comb(d, k)
        num = [a + c * b for a, b in zip(num + [0], falling)]
    ratio = RationalFunction(_poly(num), _poly([math.factorial(d) * x for x in falling]))
    pole_num, pole_den = _laguerre_pole_sum(d)
    if pole_num * ratio.den != ratio.num * pole_den:
        raise ExactError(
            f"Laguerre pole-sum and ratio forms disagree at degree {d}: "
            "arithmetic defect"
        )
    return ratio


def _laguerre_pole_sum(d: int) -> tuple[Polynomial, Polynomial]:
    """The pole-sum form of :func:`x_laguerre` as an unreduced pair
    ``(numerator, D)``, ``D = prod_m (u+m)``.

    Over ``w = (d-1)!`` the pole coefficient ``L_{d-m}^{(m)}(1) / (m-1)!`` is
    the integer ``A_m C(d-1, m-1)``, where ``A_m = (d-m)! L_{d-m}^{(m)}(1)
    = sum_i (-1)^i C(d, d-m-i) (d-m)!/i!``.  So the numerator is
    ``(w D - sum_m A_m C(d-1, m-1) D/(u+m)) / (d! w)``, each ``D/(u+m)``
    one exact division of integer polynomials by a monic linear factor (one
    synthetic division), and one polynomial over ``d! w``.
    """
    den = _pole_product(d)
    w = math.factorial(max(d - 1, 0))
    acc = [w * x for x in den._num]
    for m in range(1, d + 1):
        n = d - m
        a_m = sum((-1) ** i * math.comb(d, n - i) * math.perm(n, n - i) for i in range(n + 1))
        c_m = a_m * math.comb(d - 1, m - 1)
        for k, x in enumerate(_pseudo_divmod(den._num, (m, 1))[0]):
            acc[k] -= c_m * x
    return _poly(acc, math.factorial(d) * w), den


def verify_xd_recursion(d: int) -> bool:
    """Exact check of the shift recursion

        (1/(u+1)) X_{d-1}(u+1) + u (X_d(u-1) - X_d(u)) = 0   for d >= 1.

    The check is that the cleared numerator of the left side
    (:func:`_recursion_numerator`) is the zero polynomial.
    """
    if d < 1:
        raise ExactError("recursion is stated for d >= 1")
    return _recursion_numerator(x_partition(d - 1), x_partition(d)).is_zero()


def _recursion_numerator(x_prev: RationalFunction, x_d: RationalFunction) -> Polynomial:
    """The numerator of ``(1/(u+1)) x_prev(u+1) + u (x_d(u-1) - x_d(u))`` over
    ``B E F``: with ``x_prev(u+1) = A/B'``, ``B = (u+1) B'``,
    ``x_d(u-1) = C/E`` and ``x_d(u) = N/F`` it is
    ``A E F + u B (C F - N E)``.  Four shifts and a few products, no
    normalisation."""
    a = x_prev.num.shift(1)
    b = Polynomial([1, 1]) * x_prev.den.shift(1)
    c, e = x_d.num.shift(-1), x_d.den.shift(-1)
    n, f = x_d.num, x_d.den
    return a * e * f + Polynomial.identity() * b * (c * f - n * e)


@_memo_checked(lambda d: _integers(degree=d))
def y_polynomial(d: int) -> Polynomial:
    """The weight-d vanishing polynomial

        Y_d(y) = sum over p of d of
                 [ (d - y) G_p(y+1) + (y - 1) G_p(y) + G_p(y-1) ] / H_p^2

    with ``G_p`` the offset product.  The bracket is linear in ``G_p``, so the
    weighted sum ``G = sum_p G_p / H_p^2`` (:func:`partitions.offset_sum`) is
    taken first and shifted after: ``Y_d = (d - y) G(y+1) + (y - 1) G +
    G(y-1)``, two Taylor shifts in all.  Expected to be identically zero; the
    caller asserts that, this function just builds the sum.
    """
    if d < 1:
        raise ExactError("vanishing polynomial is stated for d >= 1")
    g = offset_sum(d)
    return Polynomial([d, -1]) * g.shift(1) + Polynomial([-1, 1]) * g + g.shift(-1)


def y_evaluate(d: int, y0: Frac | int) -> Frac:
    """Evaluate the weight-d vanishing sum at a point without expanding the
    polynomial first (used to probe the root at y0 = d directly)."""
    if d < 1:
        raise ExactError("vanishing polynomial is stated for d >= 1")
    y0 = _scalar(y0)
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

    One integer polynomial identity per variant.  Each X_a is
    ``P_a / (L Q_a)`` with ``Q_a = (u+1)...(u+a)`` and one integer ``L``
    (:func:`_cleared_numerators`).  The shifts move ``Q_a`` to
    ``Q_a(u+1) = Q_{a+1}/(u+1)`` and ``Q_a(u-1) = u Q_{a-1}``, so every
    ``X_a(u+s)`` read here sits over ``L W`` with
    ``W = u(u+1)...(u+d+1)``, and every product over ``L^2 W^2``.  Both
    sides are doubled and brought over one product of the factors
    ``u+i``, ``i = 0..d+1``: ``(u+1) W^2`` for "full", ``u^2 W^2`` for
    "one-level", where the factor ``u/(u+1)`` or ``1/u^2`` is
    cross-multiplied.  The two integer coefficient lists must be equal.
    """
    _integers(degree=d)
    if d < 0:
        raise ExactError("degree must be nonnegative")
    if variant not in ("full", "one-level"):
        raise ExactError(f"unknown variant {variant!r}")
    top = d + 1
    p = _cleared_numerators(top)
    # tail[a] = (u+a)(u+a+1)...(u+top), so W / Q_a(u-1) = tail[a]
    tail = [[1]]
    for a in range(top, -1, -1):
        tail.append(_times_linear(tail[-1], a))
    tail.reverse()
    # numerators over L W of X_a(u - 1) and of X_a(u); W / Q_a = u tail[a+1]
    down = [_product(list(_taylor_passes(list(p[a]), -1)), tail[a]) for a in range(top + 1)]
    mid = [_product(p[a], [0] + tail[a + 1]) for a in range(top + 1)]
    # X_a(u+1), X_a and X_a(u-1) over L W have len(p[a]) + top - a + 1 coefficients
    size = 2 * max(map(len, mid)) - 1
    rhs = [0] * size
    for a in range(top + 1):
        _add_product(rhs, mid[a], mid[top - a], (2 * a - top) ** 2)
    lhs = [0] * size
    if variant == "full":
        for a in range(top):
            # X_a(u + 1) over L W: W / Q_a(u+1) = u (u+1) tail[a+2]
            up = _product(list(_taylor_passes(list(p[a]), 1)), _times_linear([0] + tail[a + 2], 1))
            _add_product(lhs, up, down[d - a], 2)
        lhs, rhs = [0] + lhs, _times_linear(rhs, 1)
    else:
        for a in range(top + 1):
            step = [x - y for x, y in zip(mid[a], down[a])]
            _add_product(lhs, step, down[top - a], 2)
        lhs, rhs = [0, 0] + lhs, rhs + [0, 0]
    return lhs == rhs


def _cleared_numerators(top: int) -> list[list[int]]:
    """Integer lists ``P_0..P_top`` with ``X_a = P_a / (L Q_a)``,
    ``Q_a = (u+1)...(u+a)``, for one integer ``L``, the lcm of the scalar
    denominators of the numerators.  ``L`` is not returned: the relations
    are quadratic in the X_a on both sides, so it cancels.

    ``Q_a`` over the reduced denominator of X_a is taken by one exact
    division of integer polynomials (:func:`_pseudo_divmod`).  That the
    denominator divides ``Q_a`` is checked, not assumed: a division that
    leaves a remainder or needs a scale raises :class:`ExactError` naming
    ``a``.
    """
    q, nums, scales = [1], [], []
    for a in range(top + 1):
        if a:
            q = _times_linear(q, a)
        x = x_partition(a)
        quo, rem, scale = _pseudo_divmod(q, x.den._num)
        if any(rem) or scale != 1:
            raise ExactError(f"the denominator of X_{a} does not divide (u+1)...(u+{a})")
        nums.append(_product(x.num._num, quo))
        scales.append(x.num._den)
    big = math.lcm(*scales)
    return [[c * (big // s) for c in n] for n, s in zip(nums, scales)]


def _product(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """The product of two integer polynomials (ascending coefficient lists)."""
    out = [0] * max(len(f) + len(g) - 1, 0)
    _add_product(out, f, g, 1)
    return out


def _add_product(acc: list[int], f: Sequence[int], g: Sequence[int], c: int) -> None:
    """``acc += c f g`` on integer coefficient lists; ``acc`` is long enough."""
    for i, x in enumerate(f):
        if x:
            x *= c
            for j, y in enumerate(g, i):
                acc[j] += x * y


def xd_pole_report(d: int) -> dict[Frac, int]:
    """Pole locations and orders of the degree-d function: simple poles at
    u = -1..-d are expected, and found, not assumed.

    The reduced denominator divides ``(u+1)...(u+d)`` by construction, so
    its integer coefficients are divided by ``u + i``, for ``i = d..1``, for
    as long as the division is exact; the order of the pole at ``-i`` is the
    number of exact divisions.  What is left must be a constant; a factor
    outside ``u = -1..-d`` raises :class:`ExactError` naming it.
    """
    den = x_partition(d).den
    cs = list(den._num)
    report: dict[Frac, int] = {}
    for i in range(d, 0, -1):
        order = 0
        while len(cs) > 1:
            q, r, _ = _pseudo_divmod(cs, (i, 1))
            if any(r):
                break
            cs, order = q, order + 1
        if order:
            report[Frac(-i)] = order
    if len(cs) > 1:
        leftover = _poly(cs, den._den).pretty("u")
        raise ExactError(f"the denominator of X_{d} has the factor {leftover} "
                         f"outside u = -1..-{d}")
    return report
