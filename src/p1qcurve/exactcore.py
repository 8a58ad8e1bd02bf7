"""Exact arithmetic kernel.

Everything in this package computes over the rationals, exactly.  This module
supplies the shared machinery:

* ``Frac``         -- alias of :class:`fractions.Fraction`; the only scalar type.
* ``Polynomial``   -- dense univariate polynomial, stored as a tuple of integer
  numerators over one positive integer denominator in lowest terms.  Sums,
  products, Taylor shifts, pseudo-division and the primitive gcd run on the
  integers; ``coeffs``, ``leading()`` and the JSON form are ``Frac`` views
  built on demand.
* ``RationalFunction`` -- reduced quotient of polynomials with monic denominator.
* ``partial_fractions`` -- exact partial-fraction decomposition over rational poles.
* ``TruncatedSeries``  -- univariate Laurent series with an explicit inclusive
  truncation order; reading a coefficient past the order raises
  :class:`TruncationError` instead of silently returning zero.  Stored as
  ``Polynomial`` is, a tuple of integer numerators over one positive integer
  denominator in lowest terms; sums, products, powers and the inverse run on
  the integers, and ``coeffs``, ``coefficient()`` and ``items()`` are
  ``Frac`` views built on demand.
* ``MultiSeries``  -- sparse multivariate series with per-variable orders.
* ``FormalLaurent`` -- Laurent series whose coefficients are polynomials in a
  formal symbol ``L = log(-1)``, the branch constant of ``log z`` about
  ``z = -1``; ``to_series`` raises :class:`BranchLogError` unless ``L`` has
  cancelled.  Nothing in the package calls it; it backs the tests'
  branch-constant oracle.

No floats enter any code path; all comparisons are exact.

JSON is write-only: :func:`rational_to_json` and the ``to_json`` methods of
``Polynomial``, ``RationalFunction`` and ``MultiSeries`` write the forms that
``p1qc`` prints, every rational as a ``"p/q"`` string, and nothing in the
package parses them back; ``Fraction(s)`` reads one such string.

The package's one exact-argument rule lives here: a count is an ``int``, not
a ``bool``; a scalar is an ``int`` or a ``Fraction``, never a ``bool`` or a
``float``.  :func:`_integers` and :func:`_scalar` raise :class:`ExactError`
on anything else, before any memo table is read (:func:`_memo_checked`);
arithmetic operators return ``NotImplemented``.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction as Frac
from functools import cache, wraps
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

Scalar = Union[Frac, int]

__all__ = [
    "Frac",
    "ExactError",
    "TruncationError",
    "FactorError",
    "BranchLogError",
    "PoleEvaluationError",
    "Polynomial",
    "RationalFunction",
    "PartialFractions",
    "partial_fractions",
    "TruncatedSeries",
    "series_exp",
    "series_log",
    "series_compose",
    "MultiSeries",
    "rational_to_json",
]


class ExactError(ValueError):
    """Base class for errors raised by the exact kernel."""


class TruncationError(ExactError):
    """A coefficient beyond the known truncation order was requested."""


class FactorError(ExactError):
    """A denominator did not factor into rational linear factors."""


class BranchLogError(ExactError):
    """The formal branch constant log(-1) failed to cancel."""


class PoleEvaluationError(ExactError):
    """A rational function was evaluated at a pole."""


def _integers(**counts) -> None:
    """Each named count must be an int, not a bool, a float or a Fraction."""
    for what, x in counts.items():
        if type(x) is not int:
            raise ExactError(f"{what} must be an integer, got {x!r}")


def _scalar(x) -> Frac:
    """``x`` as an exact scalar: an int or a fraction, not a bool or a float."""
    if type(x) is Frac:
        return x
    if type(x) is int:
        return Frac(x)
    raise ExactError(f"expected an exact scalar (int or Fraction), got {x!r}")


def _memo_checked(check):
    """Memoise a function behind ``check``, which takes the same arguments
    and raises ``ExactError`` on a bad one before the memo table is read: the
    table compares keys by value, so ``True`` or ``2.0`` would find the entry
    of ``1`` or ``2``.  The table keeps the function's name and is reached as
    ``__wrapped__``; a call that raises leaves no entry in it."""

    def decorate(fn):
        table = cache(fn)

        @wraps(table)
        def checked(*args, **kwargs):
            check(*args, **kwargs)
            return table(*args, **kwargs)

        return checked

    return decorate


def _over_lcm(cs) -> tuple[list[int], int]:
    """Exact scalars as integer numerators over the lcm of their denominators."""
    den = math.lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


def rational_to_json(x: Frac) -> str:
    """Render a rational as ``"p/q"`` in lowest terms, ``"p"`` when q == 1;
    a bool or a float is refused (:func:`_scalar`)."""
    return str(_scalar(x))


# ---------------------------------------------------------------------------
# Polynomial
# ---------------------------------------------------------------------------


class Polynomial:
    """Dense univariate polynomial over Q.

    Stored as one integer polynomial over one positive integer: ``_num``
    holds the integer numerators in ascending order with no trailing zero,
    ``_den`` the common denominator, in lowest terms
    (``gcd(_den, *_num) == 1``).  The representation is canonical, so
    equality and hashing compare the two fields.  ``coeffs``,
    ``coefficient()`` and ``leading()`` are :class:`Frac` views computed on
    demand; every arithmetic method works on the integers.

    The zero polynomial is ``_num == ()`` and reports ``degree is None`` (a
    deliberate sentinel: arithmetic on a fake degree of ``-1`` breeds
    off-by-one bugs).
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):  # ascending
        # over the lcm of reduced denominators the numerators share no factor with it
        nums, den = _over_lcm([_scalar(c) for c in coeffs])
        while nums and not nums[-1]:
            nums.pop()
        self._num: tuple[int, ...] = tuple(nums)
        self._den: int = den if nums else 1

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return _poly([])

    @classmethod
    def one(cls) -> "Polynomial":
        return _poly([1])

    @classmethod
    def constant(cls, c: Scalar) -> "Polynomial":
        return cls((c,))

    @classmethod
    def identity(cls) -> "Polynomial":
        """The polynomial ``t``."""
        return _poly([0, 1])

    @classmethod
    def from_roots(cls, roots: Iterable[Scalar]) -> "Polynomial":
        """``prod (t - p/q)``, built as ``prod (q t - p)`` over ``prod q``."""
        cs, den = [1], 1
        for r in roots:
            r = _scalar(r)
            p, q = r.numerator, r.denominator
            cs = [-p * cs[0]] + [q * a - p * b for a, b in zip(cs, cs[1:])] + [q * cs[-1]]
            den *= q
        return _poly(cs, den)

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Frac, ...]:
        """The coefficients as fractions, ascending."""
        return tuple(Frac(n, self._den) for n in self._num)

    @property
    def degree(self) -> int | None:
        return len(self._num) - 1 if self._num else None

    def is_zero(self) -> bool:
        return not self._num

    def leading(self) -> Frac:
        if not self._num:
            raise ExactError("the zero polynomial has no leading coefficient")
        return Frac(self._num[-1], self._den)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if type(other) is int:
            return _poly([other])
        if type(other) is Frac:
            return _poly([other.numerator], other.denominator)
        return None

    def __add__(self, other) -> "Polynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._num, o._num
        g = math.gcd(self._den, o._den)
        sa, sb = o._den // g, self._den // g  # bring both over the lcm
        den = self._den * sa
        if len(a) < len(b):
            a, b, sa, sb = b, a, sb, sa
        out = [x * sa for x in a] if sa != 1 else list(a)
        for i, y in enumerate(b):
            out[i] += y * sb
        return _poly(out, den)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _poly([-x for x in self._num], self._den)

    def __sub__(self, other) -> "Polynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "Polynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "Polynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._num, o._num
        if not a or not b:
            return Polynomial.zero()
        if len(b) == 1:
            return _poly([x * b[0] for x in a], self._den * o._den)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return _poly(out, self._den * o._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        _integers(exponent=n)
        if n < 0:
            raise ExactError("negative polynomial powers are not polynomials")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __divmod__(self, other) -> tuple["Polynomial", "Polynomial"]:
        o = self._coerce(other)
        if o is None or o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        # s A = Q B + R over Z gives A/da = (Q db / (s da)) (B/db) + R / (s da)
        q, r, s = _pseudo_divmod(self._num, o._num)
        den = s * self._den
        return _poly([x * o._den for x in q], den), _poly(r, den)

    def __floordiv__(self, other) -> "Polynomial":
        return divmod(self, other)[0]

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._num == o._num and self._den == o._den

    def __hash__(self) -> int:
        return hash(("Polynomial", self._num, self._den))

    # -- calculus & composition --------------------------------------------

    def derivative(self) -> "Polynomial":
        return _poly([k * x for k, x in enumerate(self._num)][1:], self._den)

    def __call__(self, value):
        """Evaluate (Horner).  Accepts scalars and polynomials."""
        if type(value) in (int, Frac):
            if not self._num:
                return Frac(0)
            # sum c_k p^k q^(n-k) over den q^n: Horner on the homogenised form
            p, q = value.numerator, value.denominator
            acc, qk = 0, 1
            for c in reversed(self._num):
                acc = acc * p + c * qk
                qk *= q
            return Frac(acc, self._den * qk // q)
        if isinstance(value, Polynomial):
            acc2 = Polynomial.zero()
            for c in reversed(self.coeffs):
                acc2 = acc2 * value + c
            return acc2
        raise TypeError(f"cannot evaluate polynomial at {type(value).__name__}")

    def shift(self, c: Scalar) -> "Polynomial":
        """Return ``p(t + c)``, by an integer Taylor shift.

        For ``c = a/b`` and ``p = P/den`` of degree ``k``, the integer
        polynomial ``m(t) = b^k P(t/b)`` is shifted by the integer ``a``
        (all ``k`` passes of :func:`_taylor_passes`); then
        ``p(t + c) = m(b t + a) / (den b^k)``.
        """
        c = _scalar(c)
        a, b = c.numerator, c.denominator
        k = len(self._num) - 1
        if k < 1 or not a:
            return self
        cs = list(_taylor_passes([x * b ** (k - i) for i, x in enumerate(self._num)], a))
        return _poly([x * b**i for i, x in enumerate(cs)], self._den * b**k)

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return _poly(list(self._num), self._num[-1])

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """The monic gcd (zero when both are zero)."""
        g = _primitive_gcd(self._num, other._num)
        return _poly(list(g), g[-1]) if g else Polynomial.zero()

    # -- serialization & display ---------------------------------------------

    def to_json(self) -> list[str]:
        return [rational_to_json(c) for c in self.coeffs]

    def pretty(self, var: str = "t") -> str:
        if self.is_zero():
            return "0"
        coeffs = self.coeffs
        parts: list[str] = []
        for k in range(len(coeffs) - 1, -1, -1):
            c = coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                pw = var if k == 1 else f"{var}^{k}"
                body = pw if mag == 1 else f"{mag}*{pw}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))  # type: ignore[arg-type]
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Polynomial({list(map(str, self.coeffs))})"


def _poly(nums: list[int], den: int = 1) -> Polynomial:
    """``sum nums[k] t^k / den`` (``den`` nonzero), brought to lowest terms."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        den = 1
    elif den != 1:
        if den < 0:
            nums, den = [-x for x in nums], -den
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = [x // g for x in nums], den // g
    p = object.__new__(Polynomial)
    p._num = tuple(nums)
    p._den = den
    return p


def _taylor_passes(cs: list[int], a: int) -> Iterator[int]:
    """The coefficients of ``cs(t + a)`` for the integer polynomial ``cs``
    (ascending), in ascending order, computed in place: pass ``i`` of
    synthetic division by ``t - a`` finalises ``cs[i]``, so reading the first
    ``n`` of them costs ``O(n k)`` integer multiply-adds, not ``O(k^2)``."""
    k = len(cs) - 1
    for i in range(k):
        for j in range(k - 1, i - 1, -1):
            cs[j] += a * cs[j + 1]
        yield cs[i]
    yield from cs[k:]


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Division of integer polynomials with one scale factor: ``(q, r, s)``
    with ``s a = q b + r``, ``deg r < deg b`` and ``s > 0``.

    ``s`` divides ``lc(b)^(deg a - deg b + 1)``: the running remainder is
    scaled only at steps where ``lc(b)`` does not divide its top coefficient,
    so an exact division (``b | a`` over Z) runs with ``s == 1``.
    """
    lead, n = b[-1], len(b) - 1
    r = list(a)
    q = [0] * max(0, len(a) - n)
    s = 1
    for k in range(len(a) - 1 - n, -1, -1):
        top = r[k + n]
        if not top:
            continue
        if top % lead:
            f = abs(lead) // math.gcd(top, lead)
            r = [x * f for x in r]
            q = [x * f for x in q]
            s *= f
            top *= f
        c = top // lead
        q[k] = c
        for j, y in enumerate(b, k):
            r[j] -= c * y
    return q, r[:n], s


def _primitive(a: Sequence[int]) -> list[int]:
    """``a`` divided by the gcd of its coefficients."""
    g = math.gcd(*a)
    return [x // g for x in a] if g > 1 else list(a)


def _primitive_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A gcd over Z of two integer polynomials, primitive, up to sign:
    Euclid on primitive pseudo-remainders (the primitive PRS)."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        _, r, _ = _pseudo_divmod(a, b)
        while r and not r[-1]:
            r.pop()
        a, b = b, _primitive(r)
    return a


# ---------------------------------------------------------------------------
# RationalFunction
# ---------------------------------------------------------------------------


class RationalFunction:
    """Reduced quotient of two polynomials with monic denominator.

    The canonical form (num/den coprime, den monic) makes equality structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial | Scalar, den: Polynomial | Scalar = 1):
        if not isinstance(num, Polynomial):
            num = Polynomial((num,))
        if not isinstance(den, Polynomial):
            den = Polynomial((den,))
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num = Polynomial.zero()
            self.den = Polynomial.one()
            return
        # (N/nd) / (D/dd) with N, D over Z: cancel their gcd exactly over Z
        # (it is primitive, so Gauss's lemma keeps the quotients integral),
        # then move the lead of D into the numerator.
        n, d = num._num, den._num
        if len(d) > 1:
            g = _primitive_gcd(n, d)
            if len(g) > 1:
                n, d = _pseudo_divmod(n, g)[0], _pseudo_divmod(d, g)[0]
        self.num = _poly([x * den._den for x in n], num._den * d[-1])
        self.den = _poly(list(d), d[-1])

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(Polynomial.zero())

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls(Polynomial.one())

    @classmethod
    def constant(cls, c: Scalar) -> "RationalFunction":
        return cls(Polynomial.constant(c))

    @classmethod
    def identity(cls) -> "RationalFunction":
        """The rational function ``t``."""
        return cls(Polynomial.identity())

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other) -> "RationalFunction | None":
        if isinstance(other, RationalFunction):
            return other
        if type(other) in (int, Frac):
            return RationalFunction(Polynomial((other,)))
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        return None

    def __add__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(
            self.num * o.den + o.num * self.den, self.den * o.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return RationalFunction(self.den, self.num) ** (-n)
        return RationalFunction(self.num**n, self.den**n)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        return hash(("RationalFunction", self.num, self.den))

    # -- evaluation, calculus, substitution ------------------------------------

    def __call__(self, value):
        if type(value) in (int, Frac):
            dv = self.den(value)
            if dv == 0:
                raise PoleEvaluationError(f"evaluation at pole {value}")
            return self.num(value) / dv
        raise TypeError(f"cannot evaluate at {type(value).__name__}")

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def shift(self, c: Scalar) -> "RationalFunction":
        """Return ``f(t + c)``."""
        return RationalFunction(self.num.shift(c), self.den.shift(c))

    def reciprocal_substitution(self) -> "RationalFunction":
        """Return ``f(1/t)`` as a rational function of ``t``."""
        d = max(len(self.num._num), len(self.den._num))

        def rev(p: Polynomial) -> Polynomial:
            return _poly([0] * (d - len(p._num)) + list(reversed(p._num)), p._den)

        return RationalFunction(rev(self.num), rev(self.den))

    # -- expansions --------------------------------------------------------------

    def laurent_at(self, center: Scalar, order: int, var: str = "t") -> "TruncatedSeries":
        """Laurent expansion in ``t = z - center`` through ``t**order`` inclusive.

        Only the Taylor coefficients in the window are computed: with ``v``
        the order of the pole (the first nonzero Taylor coefficient of the
        denominator) and ``top = order + v``, those of ``t**0 .. t**top`` of
        the numerator and of ``t**v .. t**(v + top)`` of the denominator, one
        synthetic division by ``t - center`` each (:func:`_taylor_passes`).
        For ``center = a/b`` and ``p = P/den`` of degree ``k``, the Taylor
        coefficients of ``p`` at ``a/b`` are ``mu_j b^j / (den b^k)`` with
        ``mu_j`` those of the integer ``b^k P(t/b)`` at ``a``.
        """
        c = _scalar(center)
        _integers(order=order)
        if self.is_zero():
            return TruncatedSeries.zero(var, order)
        a, b = c.numerator, c.denominator

        def taylor(p: Polynomial) -> tuple[Iterator[int], int]:
            """The Taylor coefficients of ``p`` at ``center``, lazily, as
            integers over one denominator."""
            k = len(p._num) - 1
            m = [x * b ** (k - i) for i, x in enumerate(p._num)]
            return (mu * b**j for j, mu in enumerate(_taylor_passes(m, a))), p._den * b**k

        def window(coeffs: Iterator[int], den: int) -> TruncatedSeries:
            """The next ``top + 1`` of ``coeffs``, zero-padded, at ``t**0 ..``."""
            cs = list(itertools.islice(coeffs, max(0, top + 1)))
            return _series(var, 0, cs + [0] * (top + 1 - len(cs)), den, top)

        den_coeffs, den_den = taylor(self.den)
        lead, v = 0, -1
        while not lead:
            lead, v = next(den_coeffs), v + 1
        top = order + v
        quot = window(*taylor(self.num)) * window(itertools.chain([lead], den_coeffs), den_den).inverse()
        return quot.shift_exponent(-v).truncate(order)

    def series_at_infinity(self, order: int, var: str = "xinv") -> "TruncatedSeries":
        """Expansion in ``w = 1/t`` through ``w**order``; requires deg num <= deg den+order."""
        return self.reciprocal_substitution().laurent_at(0, order, var)

    # -- serialization & display ----------------------------------------------------

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    def pretty(self, var: str = "t") -> str:
        if self.is_polynomial():
            return self.num.pretty(var)
        return f"({self.num.pretty(var)}) / ({self.den.pretty(var)})"

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"


def _reduced(num: Polynomial, den: Polynomial) -> RationalFunction:
    """``num / den`` for a pair already in canonical form (coprime, ``den``
    monic), built without normalising it again."""
    f = object.__new__(RationalFunction)
    f.num, f.den = num, den
    return f


# ---------------------------------------------------------------------------
# Partial fractions
# ---------------------------------------------------------------------------


class PartialFractions(NamedTuple):
    """Exact decomposition ``f = poly_part + sum c/(t - root)**mult``.

    ``terms`` maps ``(root, mult)`` to the coefficient of ``1/(t-root)**mult``.
    """

    poly_part: Polynomial
    terms: tuple[tuple[tuple[Frac, int], Frac], ...]

    def as_dict(self) -> dict[tuple[Frac, int], Frac]:
        return dict(self.terms)

    def reassemble(self) -> RationalFunction:
        """The rational function, :meth:`_summed` and normalised once."""
        return RationalFunction(*self._summed())

    def _summed(self) -> tuple[Polynomial, Polynomial]:
        """The unreduced numerator and denominator: over one common
        denominator ``D = prod (t - root)**(highest mult at root)`` the
        numerator is ``poly_part D + sum c D / (t - root)**mult`` (exact
        divisions)."""
        top: dict[Frac, int] = {}
        for (root, mult), _ in self.terms:
            top[root] = max(top.get(root, 0), mult)
        den = Polynomial.from_roots([root for root, mult in top.items() for _ in range(mult)])
        num = self.poly_part * den
        for (root, mult), coeff in self.terms:
            num = num + coeff * (den // Polynomial.from_roots([root] * mult))
        return num, den

    def _sums_to(self, f: RationalFunction) -> bool:
        """Whether the decomposition sums to ``f``: the :meth:`_summed` pair
        and ``f`` cross-multiplied, with no normalisation."""
        num, den = self._summed()
        return num * f.den == f.num * den


def _ceil_root(n: int, k: int) -> int:
    """The least integer ``x >= 0`` with ``x**k >= n``, for ``n >= 0``, by
    integer Newton steps down from a power of two above the root."""
    if n <= 1:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x if x**k >= n else x + 1


def _rational_roots(p: Polynomial) -> list[Frac]:
    """The distinct rational roots of a nonzero ``p``, ascending; raises
    :class:`FactorError` if ``p`` has an irrational or non-real root.

    With ``s`` the monic square-free part of ``p``, ``k`` its degree and
    ``s = S/a`` its integer form (``a`` is the lcm of the coefficients'
    denominators and the lead of ``S``), ``F(u) = a**k s(u/a)`` has the
    integer coefficients ``S_i a**(k-1-i)`` and is monic, so ``s`` splits
    over Q iff ``F`` has ``k`` integer roots ``u = a*r``.  Then
    ``F`` is real-rooted and the Budan–Fourier count ``V(l) - V(r)`` (sign
    changes of ``F, F', ..., F^(k)`` at a point, zeros dropped) is exactly the
    number of roots in ``(l, r]``.  Every root lies strictly inside Fujiwara's
    bound ``|u| < 2 max_i |F_i|**(1/(k-i))``; with the exact integer ceiling
    of each root (:func:`_ceil_root`) that gives an integer ``B >= 1``.
    Bisecting ``(-B, B]`` at integer midpoints down to unit intervals
    ``(n-1, n]`` of nonzero count, each must have count 1 and ``F(n) = 0``.
    Only Taylor shifts of ``F`` are computed: no integer is factored, as the
    rational-root test would have to.
    """
    s = (p // p.gcd(p.derivative())).monic()
    k, a = s.degree, s._den
    F = [x * a ** (k - 1 - i) for i, x in enumerate(s._num[:-1])] + [1]

    def variations(x: int) -> int:
        cs = _taylor_passes(list(F), x)  # u^j coefficient F^(j)(x) / j!
        signs = [v > 0 for v in cs if v]
        return sum(u != w for u, w in zip(signs, signs[1:]))

    bound = max(1, 2 * max((_ceil_root(abs(v), k - i) for i, v in enumerate(F[:-1])), default=0))
    roots: list[Frac] = []
    stack = [(-bound, variations(-bound), bound, variations(bound))]
    while stack:
        lo, v_lo, hi, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if hi - lo > 1:
            mid = (lo + hi) // 2
            v_mid = variations(mid)
            stack += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
        elif v_lo - v_hi == 1 and s(Frac(hi, a)) == 0:
            roots.append(Frac(hi, a))
        else:
            raise FactorError("denominator has an irrational or non-real pole; "
                              "only rational poles are supported")
    return sorted(roots)


def partial_fractions(f: RationalFunction) -> PartialFractions:
    """Exact partial fractions of ``f`` over rational poles.

    Raises :class:`FactorError` if the denominator has an irrational or
    non-real root.  The result is checked by reassembling it over its own
    denominator and cross-multiplying with ``f``: no normalisation.
    """
    poly_part, rem = divmod(f.num, f.den)
    if rem.is_zero():
        return PartialFractions(poly_part, ())
    # f is reduced, so rem = f.num mod f.den is coprime to the monic f.den
    proper = _reduced(rem, f.den)
    terms: list[tuple[tuple[Frac, int], Frac]] = []
    orders = 0
    for root in _rational_roots(proper.den):
        expansion = proper.laurent_at(root, -1)
        m = -expansion.valuation()  # the numerator does not vanish at a pole
        orders += m
        for k in range(1, m + 1):
            c = expansion.coefficient(-k)
            if c != 0:
                terms.append(((root, k), c))
    if orders != proper.den.degree:
        raise FactorError("denominator did not split into rational linear factors")
    result = PartialFractions(poly_part, tuple(terms))
    if not result._sums_to(f):
        raise ExactError("internal error: partial fractions failed to reassemble")
    return result


# ---------------------------------------------------------------------------
# TruncatedSeries
# ---------------------------------------------------------------------------


class TruncatedSeries:
    """Univariate Laurent series known exactly through an inclusive order.

    Coefficient ``k`` is that of ``var**(min_exp + k)``; the last one is the
    coefficient of ``var**order``.  All coefficients below ``min_exp`` are
    exactly zero (knowledge, not truncation); coefficients above ``order``
    are unknown and raise :class:`TruncationError` when requested.

    Stored as ``Polynomial`` is: ``_num`` holds the integer numerators of
    ``var**min_exp .. var**order`` and ``_den`` their one positive
    denominator, in lowest terms (``gcd(_den, *_num) == 1``).  The form is
    canonical: leading zeros raise ``min_exp``, so the first numerator is
    nonzero, and the zero series is ``_num == ()`` with
    ``min_exp == order + 1``.  Equality and hashing compare the fields;
    ``coeffs``, ``coefficient()`` and ``items()`` are :class:`Frac` views
    computed on demand, and every arithmetic method works on the integers.

    Arithmetic propagates the truncation order soundly: the order of a product
    is ``min(o1 + m2, o2 + m1)`` where ``m`` are the declared lowest exponents.
    """

    __slots__ = ("var", "min_exp", "order", "_num", "_den")

    def __init__(self, var: str, min_exp: int, coeffs: Iterable[Scalar], order: int):
        if type(min_exp) is not int or type(order) is not int:
            raise ExactError(f"min_exp and order must be ints, got {min_exp!r} and {order!r}")
        cs = [_scalar(c) for c in coeffs]
        if len(cs) != order - min_exp + 1:
            raise ExactError(
                f"coefficient count {len(cs)} does not match range "
                f"[{min_exp}, {order}]"
            )
        # over the lcm of reduced denominators the numerators share no factor
        # with it; leading zeros raise min_exp
        nums, den = _over_lcm(cs)
        lead = next((k for k, x in enumerate(nums) if x), len(nums))
        self.var = var
        self.order = order
        self._num: tuple[int, ...] = tuple(nums[lead:])
        self.min_exp = min_exp + lead if self._num else order + 1
        self._den: int = den if self._num else 1

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, var: str, order: int) -> "TruncatedSeries":
        _integers(order=order)
        return _series(var, order + 1, [], 1, order)

    @classmethod
    def constant(cls, var: str, c: Scalar, order: int) -> "TruncatedSeries":
        c = _scalar(c)
        _integers(order=order)
        if order < 0:
            raise ExactError("constant series needs order >= 0")
        return _series(var, 0, [c.numerator] + [0] * order, c.denominator, order)

    @classmethod
    def variable(cls, var: str, order: int) -> "TruncatedSeries":
        _integers(order=order)
        if order < 1:
            raise ExactError("variable series needs order >= 1")
        return _series(var, 1, [1] + [0] * (order - 1), 1, order)

    @classmethod
    def monomial(cls, var: str, exp: int, c: Scalar, order: int) -> "TruncatedSeries":
        c = _scalar(c)
        _integers(exp=exp, order=order)
        if exp > order:
            raise ExactError("monomial exponent exceeds requested order")
        return _series(var, exp, [c.numerator] + [0] * (order - exp), c.denominator, order)

    @classmethod
    def from_function(cls, var: str, fn, min_exp: int, order: int) -> "TruncatedSeries":
        _integers(min_exp=min_exp, order=order)
        return cls(var, min_exp, (fn(k) for k in range(min_exp, order + 1)), order)

    # -- queries -------------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Frac, ...]:
        """The coefficients of ``var**min_exp .. var**order`` as fractions."""
        return tuple(Frac(x, self._den) for x in self._num)

    def coefficient(self, k: int) -> Frac:
        _integers(index=k)
        if k > self.order:
            raise TruncationError(
                f"coefficient of {self.var}^{k} requested, series only known "
                f"through {self.var}^{self.order}"
            )
        if k < self.min_exp:
            return Frac(0)
        return Frac(self._num[k - self.min_exp], self._den)

    def is_zero(self) -> bool:
        return not self._num

    def valuation(self) -> int | None:
        """Exponent of the first known-nonzero coefficient, or None if all zero."""
        return self.min_exp if self._num else None

    def items(self):
        den = self._den
        for k, x in enumerate(self._num, self.min_exp):
            if x:
                yield k, Frac(x, den)

    # -- structural ops -----------------------------------------------------------

    def truncate(self, new_order: int) -> "TruncatedSeries":
        _integers(order=new_order)
        if new_order > self.order:
            raise TruncationError("cannot extend a series by truncation")
        if new_order >= self.order:
            return self
        if new_order < self.min_exp:
            return TruncatedSeries.zero(self.var, new_order)
        keep = new_order - self.min_exp + 1
        return _series(self.var, self.min_exp, self._num[:keep], self._den, new_order)

    def shift_exponent(self, delta: int) -> "TruncatedSeries":
        _integers(delta=delta)
        return _series(self.var, self.min_exp + delta, self._num, self._den, self.order + delta)

    def rename(self, var: str) -> "TruncatedSeries":
        return _series(var, self.min_exp, self._num, self._den, self.order)

    # -- arithmetic -------------------------------------------------------------------

    def _check_var(self, other: "TruncatedSeries") -> None:
        if self.var != other.var:
            raise ExactError(f"variable mismatch: {self.var} vs {other.var}")

    def __add__(self, other) -> "TruncatedSeries":
        if type(other) in (int, Frac):
            other = TruncatedSeries.constant(self.var, other, max(self.order, 0))
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_var(other)
        order = min(self.order, other.order)
        lo = min(self.min_exp, other.min_exp, order + 1)
        g = math.gcd(self._den, other._den)
        # merge the numerators over the lcm at their exponent offsets, through ``order``
        out = [0] * (order - lo + 1)
        for s, scale in ((self, other._den // g), (other, self._den // g)):
            for k, x in enumerate(s._num[: max(0, order - s.min_exp + 1)], s.min_exp - lo):
                out[k] += x * scale
        return _series(self.var, lo, out, self._den // g * other._den, order)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return _series(self.var, self.min_exp, [-x for x in self._num], self._den, self.order)

    def __sub__(self, other) -> "TruncatedSeries":
        if type(other) not in (int, Frac, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "TruncatedSeries":
        return (-self) + other

    def __mul__(self, other) -> "TruncatedSeries":
        """The product, known through ``min(o1 + m2, o2 + m1)``: the integer
        numerators convolved, only the entries below the product's order,
        over the product of the two denominators."""
        if type(other) in (int, Frac):
            c = _scalar(other)
            if c == 0:
                return TruncatedSeries.zero(self.var, self.order)
            p = c.numerator
            return _series(self.var, self.min_exp, [p * x for x in self._num],
                           self._den * c.denominator, self.order)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_var(other)
        order = min(self.order + other.min_exp, other.order + self.min_exp)
        if self.is_zero() or other.is_zero():
            return TruncatedSeries.zero(self.var, order)
        lo = self.min_exp + other.min_exp
        size = order - lo + 1  # no operand entry at or past this index is read
        b = other._num[:size]
        out = [0] * size
        for i, x in enumerate(self._num[:size]):
            if x:
                for j, y in enumerate(b[: size - i], i):
                    out[j] += x * y
        den = self._den * other._den
        return _series(self.var, lo, out, den, order)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "TruncatedSeries":
        if type(other) in (int, Frac):
            if other == 0:
                raise ZeroDivisionError("series division by zero scalar")
            return self * (1 / Frac(other))
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int) -> "TruncatedSeries":
        _integers(exponent=n)
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return TruncatedSeries.constant(self.var, 1, max(self.order, 0))
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result  # type: ignore[return-value]

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; needs a nonzero stored leading coefficient.

        With ``A`` the numerators (``A_0 != 0``) and ``D`` the denominator,
        the unit part's inverse is ``D B_k / A_0^(k+1)`` for the integers
        ``B_0 = 1``, ``B_k = -sum_{j=1..k} A_j A_0^(j-1) B_{k-j}``; all of it
        goes over the one denominator ``A_0^(n+1)``."""
        if self.is_zero():
            raise ExactError("cannot invert a series with no known nonzero coefficient")
        v = self.min_exp  # normalized: the first numerator is nonzero
        n = self.order - v  # unit part known through t^n
        a = self._num
        a0 = a[0]
        w = [x * a0 ** (j - 1) for j, x in enumerate(a[1:], 1)]
        inv = [1]
        for k in range(1, n + 1):
            inv.append(-sum(map(operator.mul, w[:k], reversed(inv))))
        scale = self._den
        for k in range(n, -1, -1):
            inv[k] *= scale
            scale *= a0
        return _series(self.var, -v, inv, a0 ** (n + 1), n - v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.var == other.var
            and self.order == other.order
            and self.min_exp == other.min_exp
            and self._num == other._num
            and self._den == other._den
        )

    def __hash__(self) -> int:
        return hash((self.var, self.min_exp, self.order, self._num, self._den))

    # -- calculus ------------------------------------------------------------------------

    def derivative(self) -> "TruncatedSeries":
        return _series(self.var, self.min_exp - 1,
                       [k * x for k, x in enumerate(self._num, self.min_exp)],
                       self._den, self.order - 1)

    # -- display ---------------------------------------------------------------------------

    def pretty(self) -> str:
        terms = []
        for k, c in self.items():
            if k == 0:
                terms.append(f"{c}")
            elif k == 1:
                terms.append(f"{c}*{self.var}")
            else:
                terms.append(f"{c}*{self.var}^{k}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O({self.var}^{self.order + 1})"

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.pretty()})"


def _series(var: str, min_exp: int, nums: Sequence[int], den: int, order: int) -> TruncatedSeries:
    """``sum nums[k] var^(min_exp + k) / den`` known through ``var**order``
    (``len(nums) == order - min_exp + 1``, ``den`` nonzero), in canonical form."""
    lead = 0
    while lead < len(nums) and not nums[lead]:
        lead += 1
    if lead:
        nums, min_exp = nums[lead:], min_exp + lead
    if not nums:
        min_exp, den = order + 1, 1
    elif den != 1:
        if den < 0:
            nums, den = [-x for x in nums], -den
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = [x // g for x in nums], den // g
    s = object.__new__(TruncatedSeries)
    s.var = var
    s.min_exp = min_exp
    s.order = order
    s._num = tuple(nums)
    s._den = den
    return s


def series_exp(s: TruncatedSeries) -> TruncatedSeries:
    """Exponential of a series with strictly positive valuation.

    Rejects any known-nonzero coefficient at exponent <= 0 (the exponential of
    such a series is not a power series with rational coefficients).
    """
    for k, c in s.items():
        if k <= 0:
            raise ExactError(f"series_exp needs positive valuation, found {s.var}^{k}")
        break  # items are in increasing order; only the first matters
    order = s.order
    out = [Frac(0)] * (order + 1)
    out[0] = Frac(1)
    # exp(f)' = f' exp(f):  (k)·e_k = sum_{j} j·f_j·e_{k-j}
    f = [s.coefficient(k) if s.min_exp <= k <= s.order else Frac(0) for k in range(order + 1)]
    for k in range(1, order + 1):
        acc = Frac(0)
        for j in range(1, k + 1):
            if f[j]:
                acc += j * f[j] * out[k - j]
        out[k] = acc / k
    return TruncatedSeries(s.var, 0, out, order)


def series_log(s: TruncatedSeries) -> TruncatedSeries:
    """Logarithm of a series with constant term 1 and no negative exponents:
    the integral of s'/s."""
    if s.min_exp < 0:
        raise ExactError("series_log needs a series with no negative exponents")
    if s.coefficient(0) != 1:
        raise ExactError("series_log needs constant term exactly 1")
    q = s.derivative() * s.inverse()
    integral = [0] + [q.coefficient(k) / (k + 1) for k in range(s.order)]
    return TruncatedSeries(s.var, 0, integral, s.order)


def series_compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """Substitute ``inner`` (valuation >= 1) into ``outer``.

    The truncation order of the result is whatever the sound arithmetic of the
    parts supports; it is never padded with unknown zeros.  For ``outer``
    known through ``t**N`` and ``inner`` of valuation ``v``, the unknown terms
    of ``outer`` start at ``inner**(N+1) = O(t**(v(N+1)))``, so the result is
    known at most through ``t**(v(N+1) - 1)``.
    """
    val = inner.valuation()
    if val is None or val < 1 or inner.min_exp < 1:
        raise ExactError("series_compose needs inner valuation >= 1")
    # positive/zero part by Horner, negative part with explicit inverse powers
    nonneg = [outer.coefficient(k) for k in range(0, outer.order + 1)]
    acc = TruncatedSeries.zero(inner.var, inner.order)
    for c in reversed(nonneg):
        acc = acc * inner + c if c else acc * inner
    result = acc
    if outer.min_exp < 0:
        inv = inner.inverse()
        powk = inv
        for k in range(1, -outer.min_exp + 1):
            # an unknown coefficient lies past the final truncation
            c = outer.coefficient(-k) if -k <= outer.order else 0
            if c:
                result = result + powk * c
            if k < -outer.min_exp:
                powk = powk * inv
    return result.truncate(min(result.order, val * (outer.order + 1) - 1))


# ---------------------------------------------------------------------------
# MultiSeries
# ---------------------------------------------------------------------------


class MultiSeries:
    """Sparse multivariate series with per-variable inclusive orders.

    ``data`` maps exponent tuples to nonzero coefficients.  Coefficients with
    any exponent below the per-variable ``min_exps`` are exactly zero;
    requesting an exponent above the per-variable order raises
    :class:`TruncationError`.
    """

    __slots__ = ("vars", "min_exps", "orders", "data")

    def __init__(
        self,
        vars: Sequence[str],
        min_exps: Sequence[int],
        orders: Sequence[int],
        data: Mapping[tuple[int, ...], Scalar],
    ):
        self.vars = tuple(vars)
        self.min_exps = tuple(min_exps)
        self.orders = tuple(orders)
        if any(type(e) is not int for e in itertools.chain(self.min_exps, self.orders, *data)):
            raise ExactError(f"exponents and their bounds must be ints, got {self.min_exps!r}, "
                             f"{self.orders!r} and {list(data)!r}")
        if not (len(self.vars) == len(self.min_exps) == len(self.orders)):
            raise ExactError("vars, min_exps, orders must have equal length")
        clean: dict[tuple[int, ...], Frac] = {}
        for exps, c in data.items():
            if len(exps) != len(self.vars):
                raise ExactError("exponent tuple arity mismatch")
            fc = _scalar(c)
            if fc == 0:
                continue
            for e, m, o in zip(exps, self.min_exps, self.orders):
                if e < m or e > o:
                    raise ExactError(f"exponent {exps} outside declared window")
            clean[tuple(exps)] = fc
        self.data = clean

    @classmethod
    def _from_record(
        cls,
        vars: tuple[str, ...],
        min_exps: tuple[int, ...],
        orders: tuple[int, ...],
        data: dict[tuple[int, ...], Frac],
    ) -> "MultiSeries":
        """The series of a record its caller built exactly: ``data`` maps int
        exponent tuples of the arity of ``vars`` to nonzero ``Frac``s inside
        the window, and is kept, not copied.  The invariants are checked on
        the record as a whole -- the key arities once, each slot's least and
        greatest exponent once, the value types and nonzeroness once --
        instead of one ``_scalar`` round trip and window test per entry."""
        n = len(vars)
        if not n == len(min_exps) == len(orders):
            raise ExactError("vars, min_exps, orders must have equal length")
        if not set(map(len, data)) <= {n}:
            raise ExactError("exponent tuple arity mismatch")
        for var, column, m, o in zip(vars, zip(*data), min_exps, orders):
            if min(column) < m or max(column) > o:
                raise ExactError(f"exponent of {var} outside declared window [{m}, {o}]")
        if not (set(map(type, data.values())) <= {Frac} and all(data.values())):
            raise ExactError("record coefficients must be nonzero fractions")
        series = object.__new__(cls)
        series.vars, series.min_exps, series.orders, series.data = vars, min_exps, orders, data
        return series

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str], min_exps: Sequence[int], orders: Sequence[int]) -> "MultiSeries":
        return cls(vars, min_exps, orders, {})

    @classmethod
    def constant(cls, vars: Sequence[str], c: Scalar, orders: Sequence[int]) -> "MultiSeries":
        n = len(vars)
        return cls(vars, (0,) * n, orders, {(0,) * n: c})

    @classmethod
    def outer_product(cls, factors: Sequence[TruncatedSeries]) -> "MultiSeries":
        """Tensor product of univariate series into one multivariate series."""
        vars = tuple(s.var for s in factors)
        if len(set(vars)) != len(vars):
            raise ExactError("outer_product needs distinct variable names")
        min_exps = tuple(min(s.min_exp, 0) if s.is_zero() else s.min_exp for s in factors)
        orders = tuple(s.order for s in factors)
        data: dict[tuple[int, ...], Frac] = {}
        pools = [list(s.items()) for s in factors]
        if all(pools):
            for combo in itertools.product(*pools):
                exps = tuple(k for k, _ in combo)
                coeff = Frac(1)
                for _, c in combo:
                    coeff *= c
                data[exps] = data.get(exps, Frac(0)) + coeff
        return cls(vars, min_exps, orders, data)

    # -- queries -------------------------------------------------------------------

    def coefficient(self, exps: Sequence[int]) -> Frac:
        key = tuple(exps)
        if any(type(e) is not int for e in key):
            raise ExactError(f"exponents must be ints, got {key!r}")
        if len(key) != len(self.vars):
            raise ExactError("exponent tuple arity mismatch")
        for e, o, v in zip(key, self.orders, self.vars):
            if e > o:
                raise TruncationError(f"coefficient in {v}^{e} beyond order {o}")
        return self.data.get(key, Frac(0))

    def is_zero(self) -> bool:
        return not self.data

    # -- arithmetic ---------------------------------------------------------------------

    def _check_compat(self, other: "MultiSeries") -> None:
        if self.vars != other.vars:
            raise ExactError("variable mismatch in multivariate arithmetic")

    def __add__(self, other) -> "MultiSeries":
        if not isinstance(other, MultiSeries):
            return NotImplemented
        self._check_compat(other)
        orders = tuple(min(a, b) for a, b in zip(self.orders, other.orders))
        min_exps = tuple(min(a, b) for a, b in zip(self.min_exps, other.min_exps))
        data: dict[tuple[int, ...], Frac] = {}
        for src in (self.data, other.data):
            for exps, c in src.items():
                if all(e <= o for e, o in zip(exps, orders)):
                    data[exps] = data.get(exps, Frac(0)) + c
        return MultiSeries(self.vars, min_exps, orders, data)

    def __neg__(self) -> "MultiSeries":
        return MultiSeries(self.vars, self.min_exps, self.orders, {k: -v for k, v in self.data.items()})

    def __sub__(self, other) -> "MultiSeries":
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "MultiSeries":
        if type(other) in (int, Frac):
            c = _scalar(other)
            if c == 0:
                return MultiSeries.zero(self.vars, self.min_exps, self.orders)
            return MultiSeries(
                self.vars, self.min_exps, self.orders, {k: c * v for k, v in self.data.items()}
            )
        if not isinstance(other, MultiSeries):
            return NotImplemented
        self._check_compat(other)
        orders = tuple(
            min(o1 + m2, o2 + m1)
            for o1, o2, m1, m2 in zip(self.orders, other.orders, self.min_exps, other.min_exps)
        )
        min_exps = tuple(m1 + m2 for m1, m2 in zip(self.min_exps, other.min_exps))
        data: dict[tuple[int, ...], Frac] = {}
        for e1, c1 in self.data.items():
            for e2, c2 in other.data.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                if all(e <= o for e, o in zip(exps, orders)):
                    data[exps] = data.get(exps, Frac(0)) + c1 * c2
        return MultiSeries(self.vars, min_exps, orders, data)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.orders == other.orders
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.vars, self.orders, tuple(sorted(self.data.items()))))

    # -- serialization ----------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "min_exps": list(self.min_exps),
            "orders": list(self.orders),
            "terms": {
                ",".join(map(str, k)): rational_to_json(v)
                for k, v in sorted(self.data.items())
            },
        }

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {v}" for k, v in sorted(self.data.items()))
        return f"MultiSeries[{','.join(self.vars)}]({{{body}}})"


def multiseries_log(m: MultiSeries) -> MultiSeries:
    """Logarithm of a multivariate series with constant term 1.

    Requires nonnegative exponents throughout so that the correction term is
    nilpotent within the truncation window.
    """
    n = len(m.vars)
    if any(e < 0 for e in m.min_exps):
        raise ExactError("multiseries_log needs nonnegative exponents")
    if m.coefficient((0,) * n) != 1:
        raise ExactError("multiseries_log needs constant term exactly 1")
    w = m - MultiSeries.constant(m.vars, 1, m.orders)
    total = MultiSeries.zero(m.vars, m.min_exps, m.orders)
    power = MultiSeries.constant(m.vars, 1, m.orders)
    for k in range(1, sum(m.orders) + 1):
        power = power * w
        if power.is_zero():
            break
        total = total + power * Frac((-1) ** (k + 1), k)
    return total


# ---------------------------------------------------------------------------
# Laurent series with a formal branch constant
# ---------------------------------------------------------------------------


class _LPoly:
    """Tiny polynomial in the formal branch constant L = log(-1), coefficients in Q."""

    __slots__ = ("c",)

    def __init__(self, c: Mapping[int, Frac] | Scalar = 0):
        if type(c) in (int, Frac):
            cc = {0: _scalar(c)} if c else {}
        else:
            cc = {int(k): _scalar(v) for k, v in c.items() if v != 0}
        self.c: dict[int, Frac] = cc

    def __add__(self, other: "_LPoly") -> "_LPoly":
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out.get(k, Frac(0)) + v
        return _LPoly(out)

    def __neg__(self) -> "_LPoly":
        return _LPoly({k: -v for k, v in self.c.items()})

    def __sub__(self, other: "_LPoly") -> "_LPoly":
        return self + (-other)

    def __mul__(self, other: "_LPoly") -> "_LPoly":
        out: dict[int, Frac] = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                k = k1 + k2
                out[k] = out.get(k, Frac(0)) + v1 * v2
        return _LPoly(out)

    def is_zero(self) -> bool:
        return not self.c

    def is_scalar(self) -> bool:
        return set(self.c) <= {0}

    def scalar(self) -> Frac:
        if not self.is_scalar():
            raise BranchLogError("formal branch constant log(-1) did not cancel")
        return self.c.get(0, Frac(0))

    def __eq__(self, other) -> bool:
        return isinstance(other, _LPoly) and self.c == other.c

    def __repr__(self) -> str:
        if not self.c:
            return "0"
        return " + ".join(f"{v}*L^{k}" if k else f"{v}" for k, v in sorted(self.c.items()))


class FormalLaurent:
    """Laurent series in the local variable with coefficients in Q[L], L = log(-1)."""

    __slots__ = ("min_exp", "order", "coeffs")

    def __init__(self, min_exp: int, coeffs: Sequence[_LPoly], order: int):
        cs = list(coeffs)
        if len(cs) != order - min_exp + 1:
            raise ExactError("coefficient count mismatch in FormalLaurent")
        while cs and cs[0].is_zero():
            cs.pop(0)
            min_exp += 1
        if not cs:
            min_exp = order + 1
        self.min_exp = min_exp
        self.order = order
        self.coeffs = tuple(cs)

    @classmethod
    def from_series(cls, s: TruncatedSeries) -> "FormalLaurent":
        return cls(s.min_exp, [_LPoly(c) for c in s.coeffs], s.order)

    @classmethod
    def constant_L(cls, order: int) -> "FormalLaurent":
        """The series whose value is the bare branch constant L."""
        return cls(0, [_LPoly({1: Frac(1)})] + [_LPoly(0)] * order, order)

    def lcoefficient(self, k: int) -> _LPoly:
        if k > self.order:
            raise TruncationError(f"coefficient at exponent {k} beyond order {self.order}")
        if k < self.min_exp:
            return _LPoly(0)
        return self.coeffs[k - self.min_exp]

    def __add__(self, other: "FormalLaurent") -> "FormalLaurent":
        order = min(self.order, other.order)
        lo = min(self.min_exp, other.min_exp, order + 1)
        return FormalLaurent(
            lo,
            [self.lcoefficient(k) + other.lcoefficient(k) for k in range(lo, order + 1)],
            order,
        )

    def __neg__(self) -> "FormalLaurent":
        return FormalLaurent(self.min_exp, [-c for c in self.coeffs], self.order)

    def __sub__(self, other: "FormalLaurent") -> "FormalLaurent":
        return self + (-other)

    def __mul__(self, other: "FormalLaurent") -> "FormalLaurent":
        if not self.coeffs or not other.coeffs:
            order = min(self.order + other.min_exp, other.order + self.min_exp)
            return FormalLaurent(order + 1, [], order)
        order = min(self.order + other.min_exp, other.order + self.min_exp)
        lo = self.min_exp + other.min_exp
        out = [_LPoly(0) for _ in range(order - lo + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            e1 = self.min_exp + i
            for j, b in enumerate(other.coeffs):
                e = e1 + other.min_exp + j
                if e > order:
                    break
                if not b.is_zero():
                    out[e - lo] = out[e - lo] + a * b
        return FormalLaurent(lo, out, order)

    def is_branch_free(self) -> bool:
        return all(c.is_scalar() for c in self.coeffs)

    def to_series(self, var: str) -> TruncatedSeries:
        if not self.is_branch_free():
            raise BranchLogError("formal branch constant log(-1) did not cancel")
        return TruncatedSeries(
            var, self.min_exp, [c.scalar() for c in self.coeffs], self.order
        )
