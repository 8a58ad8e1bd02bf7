"""Wave-function assembly and the difference-operator consistency checks.

The stationary invariants computed by :mod:`p1qcurve.wedge` assemble into the
logarithm of a wave function.  Every ingredient of that assembly is a finite
combination of the monomials

    hbar^p * x^{-i} * (log x)^l      (i >= -1, l in {0, 1})

on one diagonal i - p = c, so it is x^{-c} (a(r) + b(r) log x) with r = hbar/x
and a, b truncated series in r (:class:`LogLaurentForm`); (x - x log x)/hbar is
c = 0, a = 1/r, b = -1/r.  The shift x -> x + m hbar, m rational, is one series
substitution: with s = 1 + m r it sends r to r/s, x^{-c} to x^{-c} s^{-c} and
log x to log x + log s.  The half-step shift x -> x + hbar/2 is one of them.

On top of that calculus the module verifies, all in exact arithmetic:

* ``bernoulli_operator`` -- the scalar prefactor B(-hbar d/dx) applied to
  (x - x log x)/hbar, with B(t) = t/(e^t - 1);
* ``theta_resummation_check`` -- resumming the unit-class insertions of a
  fixed (genus, points, degree) block into a half-step shift of x;
* ``build_degree_graded_x`` -- the degree-graded comparison between the
  exponentiated positive-degree blocks (from stationary invariants) and the
  partition sums of :mod:`p1qcurve.qcurve`, order by order in 1/u, u = x/hbar;
* ``conjugation_check`` -- conjugating the unit shifts e^{+-hbar d/dx} by the
  exponentiated Bernoulli prefactor produces the weighted shifts 1/(x+hbar)
  e^{hbar d/dx} and x e^{-hbar d/dx};
* ``qce_verification`` -- the factored verification of the difference
  equation [e^{hbar d/dx} + e^{-hbar d/dx} - x] Psi = 0: shift recursion of
  the partition sums, conjugation identities, and the degree-graded match;
* ``semiclassical_check`` -- the hbar^0 and hbar^1 terms of the formal
  exponent reproduce the plane curve x = z + 1/z and its subleading
  correction exactly;
* ``toda_specialization_check`` -- the second difference of the Bernoulli
  prefactor telescopes to x/(x+hbar), and the quadratic lattice relations of
  the partition sums hold degree by degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Frac
from functools import cache
from types import MappingProxyType
from typing import Iterator, Mapping

from .exactcore import (
    ExactError,
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    _integers,
    _memo_checked,
    _scalar,
    series_compose,
    series_exp,
    series_log,
)
from .partitions import _sorted_tuples
from .qcurve import toda_quadratic_check, verify_xd_recursion, x_partition
from .toprec import s0_s1_closed_forms
from .wedge import _connected_parts, unit_insertions, zeta_series

__all__ = [
    "DegreeGradedX",
    "LogLaurentForm",
    "QceReport",
    "XEntry",
    "apply_laurent_operator",
    "bernoulli_number",
    "bernoulli_operator",
    "build_degree_graded_x",
    "conjugation_check",
    "qce_verification",
    "semiclassical_check",
    "shift_form",
    "theta_resummation_check",
    "toda_specialization_check",
]


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------


@_memo_checked(lambda m: _integers(index=m))
def bernoulli_number(m: int) -> Frac:
    """Exact Bernoulli number B_m with B_1 = -1/2 (so that
    t/(e^t - 1) = sum_m B_m t^m / m!)."""
    if m < 0:
        raise ExactError("Bernoulli index must be nonnegative")
    if m == 0:
        return Frac(1)
    # sum_{j=0}^{m} C(m+1, j) B_j = 0
    total = Frac(0)
    for j in range(m):
        total += math.comb(m + 1, j) * bernoulli_number(j)
    return -total / (m + 1)


# ---------------------------------------------------------------------------
# The log-Laurent monomial space
# ---------------------------------------------------------------------------


class LogLaurentForm:
    """x^{-c} (a(r) + b(r) log x) with r = hbar/x: a finite combination of
    the monomials hbar^p x^{-i} (log x)^l on the diagonal i - p = c.

    ``a`` and ``b`` are :class:`TruncatedSeries` in r known through the same
    order; their coefficients of r^p are those of hbar^p x^{-(c+p)} and of
    hbar^p x^{-(c+p)} log x.  Every monomial needs i = c + p >= -1.
    ``terms`` is the read-only map (p, i, l) -> coefficient of the nonzero
    monomials, ``order`` the hbar-order through which the form is complete.
    Forms on one diagonal add and subtract, keeping the lesser order.
    """

    __slots__ = ("c", "a", "b")

    def __init__(self, c: int, a: TruncatedSeries, b: TruncatedSeries):
        if a.order != b.order:
            raise ExactError("a and b must be known through the same order")
        if any(not s.is_zero() and c + s.min_exp < -1 for s in (a, b)):
            raise ExactError("monomials x^{-i} (log x)^l need i >= -1")
        self.c, self.a, self.b = c, a, b

    @property
    def order(self) -> int:
        return self.a.order

    @property
    def terms(self) -> Mapping[tuple[int, int, int], Frac]:
        return MappingProxyType(
            {(p, self.c + p, l): v for l, s in enumerate((self.a, self.b)) for p, v in s.items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogLaurentForm):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "LogLaurentForm") -> "LogLaurentForm":
        if not isinstance(other, LogLaurentForm):
            return NotImplemented
        if self.c != other.c:
            raise ExactError(f"forms on the diagonals {self.c} and {other.c} do not add")
        return LogLaurentForm(self.c, self.a + other.a, self.b + other.b)

    def __neg__(self) -> "LogLaurentForm":
        return LogLaurentForm(self.c, -self.a, -self.b)

    def __sub__(self, other: "LogLaurentForm") -> "LogLaurentForm":
        return self + (-other)

    def __repr__(self) -> str:
        bits = [
            f"{v}*h^{p}*x^{-i}" + ("*logx" if l else "")
            for (p, i, l), v in sorted(self.terms.items())
        ]
        body = " + ".join(bits) if bits else "0"
        return f"LogLaurentForm({body}; order={self.order})"


def shift_form(form: LogLaurentForm, m, order: int) -> LogLaurentForm:
    """The shifted form f(x + m*hbar), m an int or a Fraction, exact through
    hbar-order ``min(order, form.order)``.  With s = 1 + m r, x + m hbar = x s, so

        f(x + m hbar) = x^{-c} s^{-c} (a(r/s) + b(r/s) (log x + log s)).

    Substituting r/s into the poles r^{-1}..r^{-k} of a and b inverts r/s,
    which costs the truncated arithmetic k + 1 orders, so r runs through
    order + 1 + k.
    """
    _integers(order=order)
    m = _scalar(m)
    order = min(order, form.order)
    r = TruncatedSeries.variable("r", order + 1 - min(form.a.min_exp, form.b.min_exp, 0))
    s = 1 + m * r
    inner = r / s
    b = series_compose(form.b, inner)
    a = series_compose(form.a, inner) + b * series_log(s)
    weight = s ** -form.c
    return LogLaurentForm(form.c, (weight * a).truncate(order), (weight * b).truncate(order))


# ---------------------------------------------------------------------------
# The operator image of a Laurent series, and the Bernoulli prefactor
# ---------------------------------------------------------------------------


def apply_laurent_operator(a: TruncatedSeries, order: int) -> LogLaurentForm:
    """Image of log x under a(-hbar d/dx) for a Laurent series a with minimal
    exponent -1:

        a(-hbar d/dx)(log x) = a_{-1} (x - x log x)/hbar + a_0 log x
                               - sum_{i>=1} a_i (i-1)! hbar^i / x^i.
    """
    _integers(order=order)
    if a.min_exp < -1:
        raise ExactError("operator series must not go below 1/t")
    upto = min(order, a.order)
    # on the diagonal c = 0, in r = hbar/x:
    # a_{-1} (1/r - (log x)/r) + a_0 log x - sum_{i>=1} a_i (i-1)! r^i
    pole = a.coefficient(-1)
    power = TruncatedSeries.from_function(
        "r", lambda i: pole if i < 0 else -a.coefficient(i) * math.factorial(i - 1) if i else 0,
        -1, upto,
    )
    log = TruncatedSeries.from_function(
        "r", lambda i: -pole if i < 0 else 0 if i else a.coefficient(0), -1, upto
    )
    return LogLaurentForm(0, power, log)


def bernoulli_operator(order: int) -> LogLaurentForm:
    """B(-hbar d/dx) applied to (x - x log x)/hbar, through hbar-order
    ``order``; B(t) = t/(e^t - 1).

    Since (-hbar d/dx)((x - x log x)/hbar) = log x, this is the image of the
    Laurent series B(t)/t = 1/t - 1/2 + sum_{m>=2} B_m t^{m-1}/m! under
    :func:`apply_laurent_operator`; the expansion starts

        (x - x log x)/hbar - (1/2) log x - hbar/(12 x) + O(hbar^3).
    """
    _integers(order=order)
    if order < 0:
        raise ExactError("order must be nonnegative")
    series = TruncatedSeries.from_function(
        "t",
        lambda k: Frac(bernoulli_number(k + 1), math.factorial(k + 1)),
        -1,
        order,
    )
    return apply_laurent_operator(series, order)


# ---------------------------------------------------------------------------
# Diagonal (pure hbar/x) series helpers
# ---------------------------------------------------------------------------


def _exp_of_difference(delta: LogLaurentForm) -> tuple[int, TruncatedSeries]:
    """Exponentiate a form k*log x + sum_{p>=1} a_p (hbar/x)^p; returns
    (k, exp of the sum as a series in r = hbar/x) with k required integral,
    so that the exponential is x^k times that series."""
    k = delta.b.coefficient(0)
    if delta.c or delta.b != TruncatedSeries.constant("r", k, delta.order):
        raise ExactError("the difference must be k log x plus a series in hbar/x")
    if k.denominator != 1:
        raise ExactError("log x coefficient must be an integer to exponentiate")
    # series_exp rejects a nonzero constant term
    return int(k), series_exp(delta.a)


# ---------------------------------------------------------------------------
# Conjugation of the unit shifts by the Bernoulli prefactor
# ---------------------------------------------------------------------------


def conjugation_check(k_max: int, hbar_order: int = 8) -> bool:
    """Verify, on the monomial family x^k for k = 0..k_max and through
    hbar-order ``hbar_order``, the three conjugation identities

        exp(-A) e^{+hbar d/dx} exp(A) = (x + hbar)^{-1} e^{+hbar d/dx},
        exp(-A) e^{-hbar d/dx} exp(A) = x e^{-hbar d/dx},
        exp(-A) x exp(A) = x,

    where A is the Bernoulli prefactor of :func:`bernoulli_operator`.
    Applied to x^k the first identity reads
    exp(A(x+hbar) - A(x)) * (x+hbar)^k = (x+hbar)^{k-1}, and likewise with
    x - hbar and the weight x for the second; both sides are expanded in the
    bigraded truncation and compared exactly.
    """
    _integers(k_max=k_max, hbar_order=hbar_order)
    if k_max < 1:
        raise ExactError("k_max must be at least 1")
    order = hbar_order
    prefactor = bernoulli_operator(order)
    diff_up = shift_form(prefactor, 1, order) - prefactor
    diff_down = shift_form(prefactor, -1, order) - prefactor
    xpow_up, exp_up = _exp_of_difference(diff_up)
    xpow_down, exp_down = _exp_of_difference(diff_down)
    # the exponentials must carry the weights 1/x and x respectively
    if xpow_up != -1 or xpow_down != 1:
        return False
    # r = hbar/x through r^order, hbar-order 0 included
    r = TruncatedSeries.from_function("r", lambda p: int(p == 1), 0, order)
    up, down = 1 + r, 1 - r
    for k in range(k_max + 1):
        # first identity applied to x^k: both sides are x^{k-1} times a
        # series in r
        if exp_up * up**k != up ** (k - 1):
            return False
        # second identity applied to x^k: both sides are x^{k+1} times a
        # series in r
        if exp_down * down**k != down**k:
            return False
        # third identity: the prefactor exponentials are multiplication
        # operators, so conjugating x by them leaves x^{k+1} unchanged --
        # nothing to compute
    return True


# ---------------------------------------------------------------------------
# Resummation of the unit-class insertions
# ---------------------------------------------------------------------------


def _sorted_compositions(total: int, n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Weakly increasing exponent tuples with the given sum, together with the
    number of ordered rearrangements of each."""
    for tup in _sorted_tuples(total, n):
        count = math.factorial(n)
        for v in set(tup):
            count //= math.factorial(tup.count(v))
        yield tup, count


def _theta_definition(g: int, n: int, d: int, order: int) -> LogLaurentForm:
    """The (g, n, d) block as defined: the sum over k unit-class insertions

        sum_k sum_b <tau_0(1)^k prod tau_{b_i}(omega)>_{g,n+k}^d
              * (-hbar/2)^k / k! * prod b_i! / x^{n + sum b},

    with the closed terms -x + x log x + (hbar/2) log x for the unstable
    (0, 1, 0) block.  Nonzero terms are asserted to sit on the diagonal
    (1/x-power) - (hbar-power) = 2g - 2 + n + 2d: the genus grading is checked,
    not assumed.  On that diagonal the k-insertion term is hbar^k / x^{n + sum b}
    = x^{-offset} r^k, r = hbar/x.
    """
    offset = 2 * g - 2 + n + 2 * d
    a = [Frac(0)] * (order + 1)
    b_log = [Frac(0)] * (order + 1)
    if (g, n, d) == (0, 1, 0):
        # x (-1 + (1 + r/2) log x)
        a[0], b_log[0], b_log[1] = Frac(-1), Frac(1), Frac(1, 2)
    for k in range(order + 1):
        for sb in range(0, offset + k - n + 1):
            for b, count in _sorted_compositions(sb, n):
                value = unit_insertions(g, n, k, d, b)
                if not value:
                    continue
                if sb != 2 * g - 2 + 2 * d + k:
                    raise ExactError(
                        "grading violation: nonzero correlator off the "
                        f"dimension diagonal at g={g}, n={n}, d={d}, k={k}, b={b}"
                    )
                coeff = value * Frac((-1) ** k * count, 2**k * math.factorial(k))
                for bi in b:
                    coeff *= math.factorial(bi)
                a[k] += coeff
    return LogLaurentForm(
        offset, TruncatedSeries("r", 0, a, order), TruncatedSeries("r", 0, b_log, order)
    )


def _block_value(g: int, n: int, d: int) -> tuple[int, int]:
    """V = sum_b count(b) prod b_i! <prod tau_{b_i}(omega)>_{g,n}^d over the
    weakly increasing b with sum(b) = 2g - 2 + 2d, count(b) being the number
    of orderings of b: the coefficient of the unshifted (g, n, d) block
    V / x^{2g - 2 + n + 2d}, as a pair of integers (numerator, denominator).

    Summed on the integer parts of :func:`wedge._connected_parts`.  For
    d >= 1, with ks = b + 1, prod b_i! over (d!)^3 prod 2^k k! is
    1 / ((d!)^3 2^(sum b + n) prod k_i), so V is sum_b count(b) K(d, ks) /
    prod k_i over (d!)^3 2^(sum b + n): each term's denominator is the
    invariant's over prod b_i!, and the numerators are summed over the lcm
    of those denominators.
    """
    terms = []
    for b, count in _sorted_compositions(2 * g - 2 + 2 * d, n):
        num, den = _connected_parts(d, b)
        if num:
            f = math.prod(map(math.factorial, b))
            c = math.gcd(den, f)
            terms.append((count * num * (f // c), den // c))
    den = math.lcm(*(q for _, q in terms))
    return sum(v * (den // q) for v, q in terms), den


def _theta_shifted(g: int, n: int, d: int, order: int) -> LogLaurentForm:
    """The same block after resummation: no unit-class insertions, but every
    x replaced by x + hbar/2 through :func:`shift_form`.

    The unshifted block is -x + x log x for (0, 1, 0); otherwise
    V / x^{n + sum b} with V of :func:`_block_value`.
    """
    a, b = (-1, 1) if (g, n, d) == (0, 1, 0) else (Frac(*_block_value(g, n, d)), 0)
    block = LogLaurentForm(
        2 * g - 2 + n + 2 * d,
        TruncatedSeries.constant("r", a, order),
        TruncatedSeries.constant("r", b, order),
    )
    return shift_form(block, Frac(1, 2), order)


def theta_resummation_check(g: int, n: int, d: int, order: int) -> bool:
    """True iff the unit-insertion sum for the (g, n, d) block equals its
    resummed half-step-shifted form, coefficientwise through hbar-order
    ``order`` in the bigraded truncation."""
    _integers(genus=g, points=n, degree=d, order=order)
    if g < 0 or n < 1 or d < 0 or order < 1:
        raise ExactError("need g >= 0, n >= 1, d >= 0, order >= 1")
    return _theta_definition(g, n, d, order) == _theta_shifted(g, n, d, order)


# ---------------------------------------------------------------------------
# Degree-graded comparison with the partition sums
# ---------------------------------------------------------------------------


@cache
def _degree_block(d: int, order: int) -> tuple[Frac, ...]:
    """Coefficients (in w = 1/u, u = x/hbar) of the degree-d block of the
    specialized generating function: the sum over genus and point number of
    (-1)^n / n! times the (g, n, d) block of :func:`_theta_shifted` in
    u-units.

    That block is V (x + hbar/2)^-lead with V of :func:`_block_value` and
    lead = 2g - 2 + n + 2d >= 1, so its half-step shift has the closed form

        V (x + hbar/2)^-lead = V sum_{p>=0} C(-lead, p) / 2^p hbar^p x^-(lead+p),

    and the term hbar^p x^-(lead+p) sits at w^(lead+p).  V is formed once
    per (g, n, d), as an integer pair; the terms (-1)^n V / n! C(-lead, p) /
    2^p, p <= order - lead, are summed on integers over one denominator for
    the degree, the lcm of the n! 2^(order - lead) times V's denominators,
    and each coefficient becomes one Fraction at the end.  The degree-1
    block also carries the unmarked constant, equal to the one-point
    invariant by the divisor equation: the value V of the (0, 1, 1) block.
    """
    if d < 1:
        raise ExactError("degree blocks are formed for d >= 1")
    blocks = []  # (lead, (-1)^n times V's numerator, n! times V's denominator)
    g = 0
    while 2 * g - 1 + 2 * d <= order:
        for n in range(1, order + 1):
            lead = 2 * g - 2 + n + 2 * d
            if lead > order:
                break
            num, den = _block_value(g, n, d)
            if num:
                blocks.append((lead, (-1) ** n * num, math.factorial(n) * den))
        g += 1
    const, const_den = _block_value(0, 1, 1) if d == 1 else (0, 1)
    den = math.lcm(const_den, *(q << (order - lead) for lead, _, q in blocks))
    out = [const * (den // const_den)] + [0] * order
    for lead, v, q in blocks:
        v *= den // q  # a multiple of 2^(order - lead)
        # C(-lead, p) = (-1)^p C(lead + p - 1, p)
        for p in range(order - lead + 1):
            out[lead + p] += (-1) ** p * math.comb(lead + p - 1, p) * v // 2**p
    # dimension forces the block to start at w^(2d-1) (constant excepted);
    # only the window w^0..w^order is checked
    for j in range(1, min(2 * d - 1, order + 1)):
        if out[j]:
            raise ExactError(f"degree-{d} block has unexpected support at 1/u^{j}")
    return tuple(Frac(x, den) for x in out)


@dataclass(frozen=True)
class XEntry:
    """One degree of the degree-graded comparison: the geometric series in
    1/u next to the partition-sum rational function of u."""

    degree: int
    geometric: TruncatedSeries
    partition_sum: RationalFunction


@dataclass(frozen=True)
class DegreeGradedX:
    """Both sides of the degree-graded generating function, per degree, plus
    the list of disagreements (empty when the two constructions match)."""

    order: int
    entries: tuple[XEntry, ...]
    disagreements: tuple[tuple[int, int, Frac, Frac], ...]

    def __bool__(self) -> bool:
        return not self.disagreements


def build_degree_graded_x(d_max: int = 4, order: int = 12) -> DegreeGradedX:
    """Build X_d two ways for 0 <= d <= d_max and compare through 1/u-order
    ``order``.

    Geometric side: exponentiate the positive-degree blocks of the
    specialized generating function,

        sum_d q^d X_d^{geom} = exp( sum_{d>=1} q^d * degree-d block ),

    every block a series in 1/u assembled from stationary invariants.
    Partition-sum side: the rational functions of :func:`qcurve.x_partition`,
    expanded at u = infinity.  The result is truthy iff the two sides agree;
    its ``disagreements`` list (degree, exponent, both values).
    """
    _integers(d_max=d_max, order=order)
    if d_max < 0 or order < 1:
        raise ExactError("need d_max >= 0 and order >= 1")
    blocks = {
        dd: TruncatedSeries("uinv", 0, _degree_block(dd, order), order)
        for dd in range(1, d_max + 1)
    }
    # exponentiate in q with the series_exp recurrence d X_d = sum_k k B_k X_{d-k};
    # coefficients are 1/u-series
    geom = [TruncatedSeries.constant("uinv", 1, order)]
    for dd in range(1, d_max + 1):
        total = sum(
            (k * blocks[k] * geom[dd - k] for k in range(1, dd + 1)),
            TruncatedSeries.zero("uinv", order),
        )
        geom.append(total / dd)
    entries = []
    bad: list[tuple[int, int, Frac, Frac]] = []
    for dd, series in enumerate(geom):
        comb_side = x_partition(dd)
        expansion = comb_side.series_at_infinity(order, "uinv")
        for j in range(order + 1):
            a, b = series.coefficient(j), expansion.coefficient(j)
            if a != b:
                bad.append((dd, j, a, b))
        entries.append(XEntry(dd, series, comb_side))
    return DegreeGradedX(order, tuple(entries), tuple(bad))


# ---------------------------------------------------------------------------
# The factored difference-equation verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QceReport:
    """Outcome of the three-link verification; truthy iff every link holds."""

    d_max: int
    links: tuple[tuple[str, bool], ...]
    first_failure: str | None

    def __bool__(self) -> bool:
        return all(ok for _, ok in self.links)


def qce_verification(d_max: int) -> QceReport:
    """Verify the difference equation on the wave function through its three
    exact links:

    1. ``recursion`` -- the shift recursion of the partition sums for
       1 <= d <= d_max (the degree-d component of the weighted difference
       equation);
    2. ``conjugation`` -- the weight-producing conjugation identities through
       hbar-order 8 on the monomials x^0..x^6;
    3. ``degree-graded`` -- the geometric-vs-partition-sum match for
       d <= min(d_max, 4) through 1/u-order 12.

    All three links are evaluated and reported; ``first_failure`` names the
    first broken one, e.g. ``"recursion, d=3"``.
    """
    _integers(d_max=d_max)
    if d_max < 1:
        raise ExactError("d_max must be at least 1")
    rec_detail = next(
        (f"recursion, d={dd}" for dd in range(1, d_max + 1) if not verify_xd_recursion(dd)), None
    )
    rec_ok = rec_detail is None
    conj_ok = conjugation_check(6, hbar_order=8)
    graded_ok = bool(build_degree_graded_x(min(d_max, 4), 12))
    links = (
        ("recursion", rec_ok),
        ("conjugation", conj_ok),
        ("degree-graded", graded_ok),
    )
    first = None
    for name, ok in links:
        if not ok:
            first = rec_detail if name == "recursion" else name
            break
    return QceReport(d_max, links, first)


# ---------------------------------------------------------------------------
# Semiclassical and lattice checks
# ---------------------------------------------------------------------------


def semiclassical_check(order: int = 12) -> bool:
    """The leading and subleading terms of the formal exponent, exactly.

    Writing the exponent as S_0/hbar + S_1 + O(hbar) with e^{S_0'} = z, the
    difference equation forces, order by order in hbar:

        hbar^0:  z + 1/z - x(z) = 0,
        hbar^1:  (z - 1/z) S_1' + (1/2)(z + 1/z) S_0'' = 0,

    with S_0''(x) = 1/(z - 1/z).  The closed forms of S_0 and S_1 are the
    ones certified by :func:`toprec.s0_s1_closed_forms` (which is run first,
    at the same order, as the data source).  The hbar^0 identity holds by
    the parametrisation x(z) = z + 1/z; S_0'' and the hbar^1 identity are
    verified as exact rational functions of z.
    """
    _integers(order=order)
    if not s0_s1_closed_forms(order):
        return False
    z = RationalFunction.identity()
    one = RationalFunction.one()
    x_of_z = z + one / z
    dz_dx = RationalFunction(Polynomial([0, 0, 1]), Polynomial([-1, 0, 1]))
    # second derivative of the leading exponent: d(log z)/dx
    s0_second = (one / z) * dz_dx
    target = RationalFunction(Polynomial([0, 1]), Polynomial([-1, 0, 1]))
    if not (s0_second - target).is_zero():
        return False
    # subleading slope from the closed form S_1 = -(1/2) log(z - 1/z)
    s1_slope = (
        RationalFunction(Polynomial([0, 1]), Polynomial([1, 0, -1]))
        + one / (z * 2)
    ) * dz_dx
    residual = (z - one / z) * s1_slope + x_of_z * s0_second * Frac(1, 2)
    return residual.is_zero()


def toda_specialization_check(order: int = 8, d_max: int = 4) -> bool:
    """Three exact facts tying the family to the quadratic lattice relations:

    (a) the second difference of the Bernoulli prefactor telescopes:
        exp(A(x+hbar) + A(x-hbar) - 2 A(x)) = x/(x+hbar), through hbar-order
        ``order``;
    (b) the quadratic lattice relations of the partition sums, both variants,
        for 0 <= d <= d_max;
    (c) the kernel identity behind (a): (e^{t/2} - e^{-t/2})^2 * t/(e^t - 1)
        = t (1 - e^{-t}), checked as truncated series.
    """
    _integers(order=order, d_max=d_max)
    if order < 2 or d_max < 0:
        raise ExactError("need order >= 2 and d_max >= 0")
    prefactor = bernoulli_operator(order)
    second_difference = (
        (shift_form(prefactor, 1, order) - prefactor)
        + (shift_form(prefactor, -1, order) - prefactor)
    )
    xpow, expanded = _exp_of_difference(second_difference)
    # x/(x + hbar) = x^0 * (1 + r)^{-1} in r = hbar/x
    if xpow != 0 or expanded != (1 + TruncatedSeries.variable("r", order)).inverse():
        return False
    # kernel identity as series in t; zeta has valuation 1, so zeta*zeta*bern
    # is known through t^(order+1)
    zeta = zeta_series(order)
    bern = TruncatedSeries.from_function(
        "t", lambda m: Frac(bernoulli_number(m), math.factorial(m)), 0, order
    )
    rhs = TruncatedSeries.from_function(
        "t", lambda j: Frac((-1) ** j, math.factorial(j - 1)), 2, order
    )
    if (zeta * zeta * bern).truncate(order) != rhs:
        return False
    for dd in range(d_max + 1):
        if not toda_quadratic_check(dd, "full"):
            return False
        if not toda_quadratic_check(dd, "one-level"):
            return False
    return True
