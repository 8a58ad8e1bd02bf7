"""Reference implementations the tests compare fast kernels against.

``FracPolynomial`` is the polynomial kernel as it was before
``exactcore.Polynomial`` moved to integer numerators over one denominator:
a tuple of ``Fraction`` coefficients, schoolbook products, long division
over Q, Euclid over Q and ``shift`` as Horner composition with ``t + c``.
It is slow and plain on purpose; keep it that way.

``formal_logs`` expands ``log z`` and ``log(1/z)`` about ``z = +-1`` with the
branch constant ``log(-1)`` kept formal.

The ``chain_*`` functions build the local tables of the residue engine at
``z = a + t`` as they were built before their closed forms: from the series
of ``1/z`` by ``TruncatedSeries`` sums, inverses and powers, each known only
as far as that chain of truncated arithmetic carries it.
"""

from __future__ import annotations

from fractions import Fraction as Frac

from p1qcurve.exactcore import (
    FormalLaurent,
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    series_log,
)


class FracPolynomial:
    """Dense univariate polynomial over Q, ``Fraction`` coefficients ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):  # ascending
        cs = [Frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Frac, ...] = tuple(cs)

    @classmethod
    def from_roots(cls, roots) -> "FracPolynomial":
        p = cls((1,))
        for r in roots:
            p = p * cls((-Frac(r), 1))
        return p

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Frac:
        return self.coeffs[k] if k < len(self.coeffs) else Frac(0)

    def leading(self) -> Frac:
        return self.coeffs[-1]

    def __add__(self, other: "FracPolynomial") -> "FracPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return FracPolynomial(self.coefficient(k) + other.coefficient(k) for k in range(n))

    def __neg__(self) -> "FracPolynomial":
        return FracPolynomial(-c for c in self.coeffs)

    def __sub__(self, other: "FracPolynomial") -> "FracPolynomial":
        return self + (-other)

    def __mul__(self, other: "FracPolynomial") -> "FracPolynomial":
        if self.is_zero() or other.is_zero():
            return FracPolynomial()
        out = [Frac(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FracPolynomial(out)

    def __divmod__(self, other: "FracPolynomial") -> tuple["FracPolynomial", "FracPolynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.coeffs)
        dn, dd = len(r) - 1, other.degree
        lead = other.leading()
        qcs = [Frac(0)] * max(0, dn - dd + 1)
        for k in range(dn - dd, -1, -1):
            c = r[dd + k] / lead
            qcs[k] = c
            for j, b in enumerate(other.coeffs):
                r[k + j] -= c * b
        return FracPolynomial(qcs), FracPolynomial(r[:dd] if dd > 0 else ())

    def __eq__(self, other) -> bool:
        return isinstance(other, FracPolynomial) and self.coeffs == other.coeffs

    def __call__(self, value):
        """Horner evaluation at a scalar or a ``FracPolynomial``."""
        if isinstance(value, FracPolynomial):
            acc = FracPolynomial()
            for c in reversed(self.coeffs):
                acc = acc * value + FracPolynomial((c,))
            return acc
        acc = Frac(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def shift(self, c) -> "FracPolynomial":
        """``p(t + c)`` by composition with ``t + c``."""
        return self(FracPolynomial((c, 1)))

    def monic(self) -> "FracPolynomial":
        if self.is_zero():
            return self
        lead = self.leading()
        return FracPolynomial(c / lead for c in self.coeffs)

    def gcd(self, other: "FracPolynomial") -> "FracPolynomial":
        """Euclid over Q, made monic."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, divmod(a, b)[1]
        return a.monic()


def frac_canonical(num: FracPolynomial, den: FracPolynomial) -> tuple[FracPolynomial, FracPolynomial]:
    """The canonical form of ``num / den``: coprime, denominator monic, and
    ``(0, 1)`` for zero."""
    if num.is_zero():
        return FracPolynomial(), FracPolynomial((1,))
    g = num.gcd(den)
    num, den = divmod(num, g)[0], divmod(den, g)[0]
    lead = den.leading()
    return FracPolynomial(c / lead for c in num.coeffs), den.monic()


def formal_logs(a, order: int) -> tuple[FormalLaurent, FormalLaurent]:
    """``(log z, log(1/z))`` at ``z = a + t`` for ``a = +-1``, through ``t**order``.

    With ``z = a (1 + t/a)``: ``log z = log a + log(1 + t/a)`` and
    ``log(1/z) = log(1/a) - log(1 + t/a)``.  At ``a = -1`` both ``log a`` and
    ``log(1/a)`` are the branch constant ``L = log(-1)``, kept formal.
    """
    local = FormalLaurent.from_series(
        series_log(TruncatedSeries("t", 0, [1, Frac(1) / a] + [0] * (order - 1), order))
    )
    zero = FormalLaurent.from_series(TruncatedSeries.zero("t", order))
    branch = FormalLaurent.constant_L(order) if a == -1 else zero
    return branch + local, branch - local


def formal_log_gap(a, order: int) -> TruncatedSeries:
    """``log(1/z) - log z`` at ``z = a + t``; ``BranchLogError`` if ``L`` survives."""
    log_z, log_inv = formal_logs(a, order)
    return (log_inv - log_z).to_series("t")


def chain_z_inv(a, order: int) -> TruncatedSeries:
    """``1/z = 1/(a + t)``."""
    return RationalFunction(Polynomial.one(), Polynomial([0, 1])).laurent_at(a, order, "t")


def chain_s(a, order: int) -> TruncatedSeries:
    """``s = 1/z - a``, the local coordinate of the involution image."""
    return chain_z_inv(a, order) - a


def chain_jacobian(a, order: int) -> TruncatedSeries:
    """``d(1/z)/dz = -1/z^2``."""
    jacobian = RationalFunction(Polynomial.constant(-1), Polynomial([0, 0, 1]))
    return jacobian.laurent_at(a, order, "t")


def chain_s_power(a, k: int, order: int) -> TruncatedSeries:
    """``s^k``, each power built from the one below."""
    power = TruncatedSeries.constant("t", 1, order)
    for _ in range(k):
        power = power * chain_s(a, order)
    return power


def chain_pole(b, j: int, a, order: int) -> TruncatedSeries:
    """``1/(z - b)^j``: a monomial at ``b = a``."""
    if b == a:
        return TruncatedSeries.monomial("t", -j, 1, order)
    pole = RationalFunction(Polynomial.one(), Polynomial.from_roots([b]) ** j)
    return pole.laurent_at(a, order, "t")


def chain_pole_inv(b, j: int, a, order: int) -> TruncatedSeries:
    """``1/(1/z - b)^j d(1/z)/dz``, with ``1/z - b = s + (a - b)``."""
    s = chain_s(a, order)
    return (s if b == a else s + 2 * a) ** -j * chain_jacobian(a, order)


def chain_bergman_local_pair(a, order: int) -> TruncatedSeries:
    """``-1/z^2 * 1/(z - 1/z)^2``."""
    z_series = TruncatedSeries.variable("t", order) + a
    return chain_jacobian(a, order) * (z_series - chain_z_inv(a, order)) ** -2


def chain_kernel_numerator(a, k: int, order: int) -> TruncatedSeries:
    """``s^(k+1) - t^(k+1)``."""
    s_power = chain_s_power(a, k + 1, order)
    return s_power - TruncatedSeries.monomial("t", k + 1, 1, s_power.order)


def chain_bergman_inv(a, k: int, order: int) -> TruncatedSeries:
    """``(k+1) s^k d(1/z)/dz``."""
    return (k + 1) * chain_s_power(a, k, order) * chain_jacobian(a, order)
