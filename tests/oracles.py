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

``series_branch_residues`` is the residue engine as it was before every
local factor became a monomial ``c t^m z^p w^q``: tables expanded from pole
data by ``RationalFunction.laurent_at``, one truncated-series product per
state, and the gap of the kernel denominator from ``formal_log_gap``.

``slot_f_series`` is the x-expansion of a primitive slot function by a
Laurent expansion and a series composition per pole; ``evaluate_termwise``
evaluates a form's slots term by term.

``slotwise`` and ``series_mul`` are ``toprec._slotwise`` and the product of
two ``TruncatedSeries`` as they were before both moved to integer numerators
over one denominator: one ``Fraction`` multiply-add per update.
``series_inverse`` is ``TruncatedSeries.inverse`` as it was before the series
moved to integer numerators: the recurrence on ``Fraction`` coefficients, one
division by the leading coefficient per step.  ``series_truncate``,
``series_shift`` and ``series_derivative`` read the operand coefficient by
coefficient and build their result through the public constructor.
``series_log_recurrence`` is ``series_log`` as it was before it became the
integral of s'/s: the recurrence k g_k = k f_k - sum_j j g_j f_{k-j} on
``Fraction`` coefficients.

``x_partition_termwise``, ``offset_sum_termwise``, ``y_polynomial_termwise``,
``laguerre_value_termwise``, ``laguerre_pole_sum_termwise`` and
``reassemble_termwise`` are the partition-sum tower of ``qcurve`` and
``PartialFractions.reassemble`` as they were before the sums moved to integer
numerators over one common denominator: one ``Polynomial`` per linear factor,
per partition and per pole, the shifts taken on every partition's term, the
Laguerre binomial rebuilt for every ``k``, and one ``RationalFunction``
normalisation per term.  ``series_add`` is the sum of two ``TruncatedSeries``
read coefficient by coefficient.

``recursion_residual``, ``laurent_at_full_shift`` and
``reassembles_by_normalising`` are the checks of the X_d tower as they were
before each became one identity on cleared denominators: the shift
recursion's residual built from ``RationalFunction`` shifts, sums and
products, each normalised, the Laurent expansion from two full Taylor shifts
of numerator and denominator, and the partial-fraction self-check that
normalises the reassembled function and compares it with the input.

``pole_report_by_partial_fractions`` is ``qcurve.xd_pole_report`` as it
was before it divided the denominator by the expected linear factors: the
highest order with a nonzero coefficient at each root of the
:func:`partial_fractions` decomposition.

``toda_quadratic_check_normalising`` is ``qcurve.toda_quadratic_check`` as
it was before each variant became one integer identity over a product of
linear factors: both sides summed as ``RationalFunction``s, one
normalisation per sum and per product.  It reads ``qcurve.x_partition`` at
call time, so a test that patches it perturbs both routes.
``laguerre_value_polynomial`` is the ``Polynomial`` branch that
``qcurve.laguerre_value`` had while ``x_laguerre`` built its ratio form
from it: the same prefix product of falling factors, with a polynomial
parameter.

``block_value_by_fractions`` and ``degree_block_by_fractions`` are
``wavefunction._block_value`` and ``_degree_block`` as they were before
both were summed on the integer cumulants: one ``Fraction`` per stationary
invariant, per block value and per half-step term.

``connected_npoint`` is the set-partition route of the Fock-space engine:
whole n-point series from the eigenvalue series ``e0_eigenvalue``, divided by
the vacuum factor and combined into cumulants over the subsets of the marked
points.  It shares no code with ``wedge.connected_coefficient``, which it
checks.  ``connected_coefficient_unshifted`` is ``connected_coefficient`` as
it was before the lam-independent 1/zeta term was factored out of its
moments: ``Fraction`` eigenvalue coefficients ``_eigen_coefficient``, lcm
denominators and the d' = 0 correction of the cumulant recursion.
``connected_coefficient_table`` is ``connected_coefficient`` as it was
before its moments and cumulants were shared per multiset: the whole table
of every sub-multiset's moments and cumulants, with the split table
``_splits`` of its multiplicities, rebuilt for each ``(d, b)``.
``multiseries_two_point_closed_form`` is the two-point closed form as
it was summed before ``wedge._two_point_closed_form`` read it off the powers
of ``catalan_inverse``.

``hook_lengths_product`` is ``partitions.hook_product`` as it was before it
was read from the parts in closed form: the product of every box's hook
length, box by box.

``MonomialForm``, ``form_derivative`` and ``taylor_shift_form`` are the
wave-function calculus as it was before ``wavefunction.LogLaurentForm``
became x^{-c} (a(r) + b(r) log x): a map of monomials hbar^p x^{-i} (log x)^l
to ``Fraction`` coefficients, d/dx on that basis, and the shift
x -> x + m hbar as the Taylor chain sum_j (m hbar)^j / j! f^{(j)}(x).  It
accepts forms off one diagonal.  ``diagonal_form`` builds a
``LogLaurentForm`` from such a map.
"""

from __future__ import annotations

import math
from fractions import Fraction as Frac
from functools import cache
from itertools import chain, combinations, product

from p1qcurve.exactcore import (
    ExactError,
    FormalLaurent,
    MultiSeries,
    PartialFractions,
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    partial_fractions,
    series_compose,
    series_log,
)
from p1qcurve.partitions import (
    dimension,
    hook_lengths,
    hook_product,
    is_partition,
    offset_product,
    padded,
    partitions,
)
from p1qcurve import qcurve
from p1qcurve.toprec import primitive_slot_function
from p1qcurve.wavefunction import LogLaurentForm, _sorted_compositions
from p1qcurve import wedge
from p1qcurve.wedge import catalan_inverse, stationary_invariant, zeta_reciprocal


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


# ---------------------------------------------------------------------------
# The series route of the residue engine
# ---------------------------------------------------------------------------


_Z = Polynomial([0, 1])


@cache
def _local_table(num: Polynomial, den: Polynomial, a, order: int) -> TruncatedSeries:
    """``num(z)/den(z)`` at ``z = a + t`` through ``t**order``."""
    return RationalFunction(num, den).laurent_at(a, order, "t")


def _local_factor(factor, a, order: int) -> TruncatedSeries:
    """A local factor of a recursion piece from its data: ``(b, j, inv)`` is
    ``1/(z - b)^j``, or with ``inv`` ``1/(1/z - b)^j d(1/z)/dz =
    -z^(j-2)/(1 - bz)^j``; ``None`` is the Bergman pair ``-1/(z^2 - 1)^2``."""
    if factor is None:
        return _local_table(-Polynomial.one(), (_Z * _Z - 1) ** 2, a, order)
    b, j, inv = factor
    if inv:
        return _local_table(-(_Z ** (j - 2)), (1 - b * _Z) ** j, a, order)
    return _local_table(Polynomial.one(), (_Z - b) ** j, a, order)


@cache
def _kernel_denominator_inverse(a, order: int) -> TruncatedSeries:
    """``1/(2 (y(1/z) - y(z)) x'(z))`` at ``z = a + t``, the gap from
    ``formal_log_gap``."""
    x_prime = RationalFunction(_Z * _Z - 1, _Z * _Z).laurent_at(a, order, "t")
    return (2 * formal_log_gap(a, order) * x_prime).inverse()


def _kernel_numerator(a, k: int, order: int) -> TruncatedSeries:
    """``s^(k+1) - t^(k+1)`` with ``s = 1/z - a``: the coefficient of
    ``1/(z_1 - a)^(k+2)`` in ``1/(z_1 - z) - 1/(z_1 - 1/z)``."""
    num = (1 - a * _Z) ** (k + 1) - (_Z * (_Z - a)) ** (k + 1)
    return _local_table(num, _Z ** (k + 1), a, order)


def _bergman_inv(a, k: int, order: int) -> TruncatedSeries:
    """``(k+1) s^k d(1/z)/dz = -(k+1) (1 - az)^k/z^(k+2)``: the coefficient of
    ``1/(z_i - a)^(k+2)`` in the Bergman coupling of ``z_i`` to ``1/z``."""
    return _local_table(-(k + 1) * (1 - a * _Z) ** k, _Z ** (k + 2), a, order)


def _mul_upto(f: TruncatedSeries, g, top: int) -> TruncatedSeries:
    """f times a table g through t^top at most, from the coefficients that
    reach it, or times g = (k, c), c t^k, by an exponent shift."""
    if isinstance(g, tuple):
        return f.shift_exponent(g[0]) * g[1]
    if f.min_exp + g.min_exp > top:  # zero as far as it is read
        return TruncatedSeries.zero("t", min(top, f.order + g.min_exp, g.order + f.min_exp))
    return f.truncate(min(f.order, top - g.min_exp)) * g.truncate(min(g.order, top - f.min_exp))


def _residue_of_product(f: TruncatedSeries, factor) -> Frac:
    """[t^-1] of f times (k, c) for c t^k, or times a table as the dot
    product sum_e f_e factor_{-1-e}; a coefficient beyond its order raises."""
    if isinstance(factor, tuple):
        return factor[1] * f.coefficient(-1 - factor[0])
    e_range = range(f.min_exp, -factor.min_exp)
    return sum((f.coefficient(e) * factor.coefficient(-1 - e) for e in e_range), Frac(0))


def series_branch_residues(pieces, n: int, a, order: int) -> dict:
    """``toprec._branch_residues`` as it was before the engine moved to
    monomials: each piece's local factors expanded as series from their pole
    data and multiplied, the sum times the kernel denominator, then expanded
    slot by slot, every partial state a truncated series read only as far
    as [t^-1] needs it."""
    kinv = _kernel_denominator_inverse(a, order)
    top = -2 - kinv.min_exp  # a piece times kinv is read through t^-2
    # states (labels of slots done, items of slots left, None for slot 1) ->
    # local series; a slot factor is a table or (k, c) for c t^k
    state: dict = {}
    for coeff, local, items in pieces:
        # a factor is read through t^top past the poles of the others
        depth = sum(j for j, _ in local)
        series = TruncatedSeries.constant("t", coeff, min(order, top + depth))
        for j, factor in local:
            series = series * _local_factor(factor, a, min(order, top + depth - j))
        key = ((), (None,) + items)
        state[key] = state[key] + series if key in state else series
    state = {key: _mul_upto(f, kinv, -2) for key, f in state.items()}
    residues: dict = {}
    for slot in range(n):
        nxt: dict = {}
        for (done, items), f in state.items():
            item, reach = items[0], min(order, -1 - f.min_exp)  # a table is read to reach
            if item is None or item is True:  # the kernel numerator, the coupling to 1/z
                table = _kernel_numerator if item is None else _bergman_inv
                factors = [((a, k + 2), table(a, k, reach)) for k in range(-f.min_exp)]
            elif item is False:  # the Bergman coupling (k+1) t^k to z
                factors = [((a, k + 2), (k, k + 1)) for k in range(-f.min_exp)]
            else:  # a fixed pole
                factors = [(item, (0, 1))]
            for label, factor in factors:
                key = done + (label,)
                if slot == n - 1:
                    residues[key] = residues.get(key, 0) + _residue_of_product(f, factor)
                    continue
                prod = _mul_upto(f, factor, -1)
                if prod.min_exp <= -1:  # one that starts above t^-1 has no residue
                    s = (key, items[1:])
                    nxt[s] = nxt[s] + prod if s in nxt else prod
        state = nxt
    return residues


# ---------------------------------------------------------------------------
# The set-partition n-point route of the Fock-space engine
# ---------------------------------------------------------------------------


def squared_dimension(lam) -> int:
    """(number of standard tableaux)^2 for the partition."""
    return dimension(lam) ** 2


def fock_weight(lam) -> Frac:
    """(dim lam / d!)^2, the normalized weight of a partition vector."""
    return Frac(squared_dimension(lam), math.factorial(sum(lam)) ** 2)


def vacuum_total(d: int) -> Frac:
    """sum over partitions of d of (dim/d!)^2; equals 1/d!."""
    return sum((fock_weight(lam) for lam in partitions(d)), Frac(0))


def _exp_linear(c: Frac, order: int, var: str) -> TruncatedSeries:
    """e^{c t} truncated at `order`."""
    return TruncatedSeries.from_function(var, lambda k: Frac(c**k, math.factorial(k)), 0, order)


@cache
def e0_eigenvalue(lam, order: int, var: str = "t") -> TruncatedSeries:
    """Eigenvalue series eps_lam(t) of the diagonal insertion operator:

        sum_{i=1}^{len(lam)} (e^{t(lam_i-i+1/2)} - e^{t(1/2-i)}) + 1/zeta(t),

    built by series sums, with no closed-form coefficients."""
    if not is_partition(lam):
        raise ExactError(f"not a partition: {lam!r}")
    total = zeta_reciprocal(order, var)
    for i, part in enumerate(lam, start=1):
        a = Frac(2 * (part - i) + 1, 2)
        bshift = Frac(1 - 2 * i, 2)
        total = total + _exp_linear(a, order, var) - _exp_linear(bshift, order, var)
    return total


def _point_vars(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, n + 1))


def disconnected_npoint(d: int, n: int, order: int) -> MultiSeries:
    """Degree-d disconnected n-point series: sum over partitions of d of
    (dim/d!)^2 prod_i eps_lam(x_i).  Per-variable min_exp is -1."""
    if n < 1 or d < 0:
        raise ExactError("need n >= 1 and d >= 0")
    return _disconnected(d, _point_vars(n), order)


def _disconnected(d: int, vars: tuple[str, ...], order: int) -> MultiSeries:
    """The degree-d disconnected series on the point variables ``vars``."""
    total = MultiSeries.zero(vars, (-1,) * len(vars), (order,) * len(vars))
    for lam in partitions(d):
        eig = e0_eigenvalue(lam, order)
        total = total + fock_weight(lam) * MultiSeries.outer_product([eig.rename(v) for v in vars])
    return total


def _disjoint_product(a: MultiSeries, b: MultiSeries) -> MultiSeries:
    """Tensor product of two series on disjoint point-variable sets; per-variable
    windows carry over from whichever factor owns the variable."""
    if set(a.vars) & set(b.vars):
        raise ExactError("factors must live on disjoint variable sets")
    vars = tuple(sorted(a.vars + b.vars, key=lambda v: int(v[1:])))
    pos_a = [vars.index(v) for v in a.vars]
    pos_b = [vars.index(v) for v in b.vars]
    mins = [0] * len(vars)
    orders = [0] * len(vars)
    for p, m, o in zip(pos_a, a.min_exps, a.orders):
        mins[p], orders[p] = m, o
    for p, m, o in zip(pos_b, b.min_exps, b.orders):
        mins[p], orders[p] = m, o
    data: dict[tuple[int, ...], Frac] = {}
    for ea, ca in a.data.items():
        for eb, cb in b.data.items():
            full = [0] * len(vars)
            for p, e in zip(pos_a, ea):
                full[p] = e
            for p, e in zip(pos_b, eb):
                full[p] = e
            key = tuple(full)
            data[key] = data.get(key, Frac(0)) + ca * cb
    return MultiSeries(vars, tuple(mins), tuple(orders), data)


def connected_npoint(d: int, n: int, order: int) -> MultiSeries:
    """Degree-d connected n-point series, by vacuum division followed by the
    set-partition cumulant combination over the marked points with degree
    compositions.  Coefficient of prod x_i^{b_i+1} is the connected invariant
    (genus resolved by the dimension constraint)."""
    if n < 1 or d < 0:
        raise ExactError("need n >= 1 and d >= 0")

    # Disconnected data per nonempty subset of points and per degree, each on
    # the subset's own variables; then divide by the vacuum factor e^q:
    # tilde_m = sum_j (-1)^j/j! * disc_{m-j}.
    points = tuple(range(1, n + 1))
    tilde: dict[tuple[int, ...], list[MultiSeries]] = {}
    for size in range(1, n + 1):
        for subset in combinations(points, size):
            svars = tuple(f"x{i}" for i in subset)
            per_degree = [_disconnected(m, svars, order) for m in range(d + 1)]
            tilde[subset] = [
                sum(
                    (Frac((-1) ** j, math.factorial(j)) * per_degree[m - j] for j in range(m + 1)),
                    MultiSeries.zero(svars, (-1,) * size, (order,) * size),
                )
                for m in range(d + 1)
            ]

    # Cumulant recursion pinned at the least point of each subset.
    conn: dict[tuple[tuple[int, ...], int], MultiSeries] = {}

    def connected(subset: tuple[int, ...], m: int) -> MultiSeries:
        key = (subset, m)
        if key in conn:
            return conn[key]
        first, rest = subset[0], subset[1:]
        total = tilde[subset][m]
        for size in range(0, len(rest)):
            for extra in combinations(rest, size):
                block = tuple(sorted((first,) + extra))
                comp = tuple(sorted(set(subset) - set(block)))
                for a in range(m + 1):
                    right = tilde[comp][m - a]
                    if right.is_zero():
                        continue
                    total = total - _disjoint_product(connected(block, a), right)
        conn[key] = total
        return total

    return connected(points, d)


@cache
def _eigen_coefficient(lam, k: int) -> Frac:
    """[t^k] eps_lam in closed form: 1 at k = -1, 0 below, and for k >= 0

        sum_i ((lam_i - i + 1/2)^k - (1/2 - i)^k) / k!  +  [t^k] 1/zeta,

    where 1/zeta = eps_() is the empty partition's series."""
    if k < 0:
        return Frac(1) if k == -1 else Frac(0)
    if not lam:
        return zeta_reciprocal(max(k, 1)).coefficient(k)
    num = sum(
        (2 * (part - i) + 1) ** k - (1 - 2 * i) ** k for i, part in enumerate(lam, start=1)
    )
    return Frac(num, 2**k * math.factorial(k)) + _eigen_coefficient((), k)


def connected_coefficient_unshifted(d: int, b, coefficient=_eigen_coefficient) -> Frac:
    """``wedge.connected_coefficient`` as it was before the 1/zeta term was
    factored out: the integer moment-cumulant recursion on the whole
    coefficients a_{lam,j} = [t^{v_j+1}] eps_lam of ``_eigen_coefficient``,
    every column put over the lcm of its denominators, with the d' = 0 term

        K(d', e) = d'! M(d', e) - sum_{f<e} C(e, f) K(d', f) M(0, e-f)
                   - sum_{k<d'} (d'-1)!/(k-1)! C(d', k)^2
                     sum_{f<=e} C(e, f) K(k, f) M(d'-k, e-f)

    and every split table rebuilt on each call.  ``coefficient(lam, k)`` gives
    [t^k] eps_lam; a test may pass a perturbed one."""
    b = tuple(sorted(b))
    if not b:
        return Frac(1) if d == 1 else Frac(0)
    if d == 0:
        return coefficient((), b[0] + 1) if len(b) == 1 else Frac(0)
    values = sorted(set(b))
    mults = [b.count(v) for v in values]
    coeffs = {
        lam: [coefficient(lam, v + 1) for v in values]
        for dp in range(d + 1)
        for lam in partitions(dp)
    }
    dens = [math.lcm(*(c.denominator for c in column)) for column in zip(*coeffs.values())]
    shapes = list(product(*(range(m + 1) for m in mults)))
    index = {e: i for i, e in enumerate(shapes)}
    # per shape e: (C(e, f), index of f, index of e - f) for every f <= e
    splits = [
        [
            (
                math.prod(map(math.comb, e, f)),
                index[f],
                index[tuple(x - y for x, y in zip(e, f))],
            )
            for f in product(*(range(x + 1) for x in e))
        ]
        for e in shapes
    ]
    moments = []  # moments[d'][e] = M(d', e)
    for dp in range(d + 1):
        row = [0] * len(shapes)
        for lam in partitions(dp):
            vec = [dimension(lam) ** 2]
            for c, den, m in zip(coeffs[lam], dens, mults):
                a = c.numerator * (den // c.denominator)
                vec = [x * a**p for x in vec for p in range(m + 1)]
            for i, x in enumerate(vec):
                row[i] += x
        moments.append(row)
    # cumulants[d'-1][e] = K(d', e); shapes are in lexicographic order, so
    # every f <= e precedes e
    cumulants = []
    for dp in range(1, d + 1):
        weights = [
            math.factorial(dp - 1) // math.factorial(k - 1) * math.comb(dp, k) ** 2
            for k in range(1, dp)
        ]
        row = []
        for i, parts in enumerate(splits):
            acc = math.factorial(dp) * moments[dp][i]
            for binom, fi, gi in parts:
                if fi != i:
                    acc -= binom * row[fi] * moments[0][gi]
                for k, w in enumerate(weights, start=1):
                    acc -= w * binom * cumulants[k - 1][fi] * moments[dp - k][gi]
            row.append(acc)
        cumulants.append(row)
    scale = math.factorial(d) ** 3 * math.prod(den**m for den, m in zip(dens, mults))
    return Frac(cumulants[-1][-1], scale)


def _splits(mults: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """For every multi-index e <= mults, in lexicographic order, the flat
    tuple (C(e, f), index of f, ...) over all f <= e.  The lexicographic
    index is linear in e, so e - f has the index of e minus that of f."""
    shapes = list(product(*(range(m + 1) for m in mults)))
    index = {e: i for i, e in enumerate(shapes)}
    return tuple(
        tuple(
            chain.from_iterable(
                (math.prod(map(math.comb, e, f)), index[f])
                for f in product(*(range(x + 1) for x in e))
            )
        )
        for e in shapes
    )


def connected_coefficient_table(d: int, b) -> Frac:
    """``wedge.connected_coefficient`` by the per-call table: the moments
    M(d', e) and cumulants K(d', e) of every multiplicity vector e <= m of
    the distinct values of b, for every d' < d, then K(d, m) alone.  It reads
    the numerators and weights through ``wedge._eigen_numerator`` and
    ``wedge._fock_weights`` at call time."""
    b = tuple(sorted(b))
    if not b:
        return Frac(1) if d == 1 else Frac(0)
    if d == 0:
        return zeta_reciprocal(max(b[0] + 1, 1)).coefficient(b[0] + 1) if len(b) == 1 else Frac(0)
    if b[0] < 0:
        return Frac(0)
    numerator = wedge._eigen_numerator
    values = sorted(set(b))
    ks = [v + 1 for v in values]
    mults = tuple(b.count(v) for v in values)
    scale = math.factorial(d) ** 3 * math.prod(
        (2**k * math.factorial(k)) ** m for k, m in zip(ks, mults)
    )
    top = sum(
        w * math.prod(numerator(lam, k) ** m for k, m in zip(ks, mults))
        for lam, w in wedge._fock_weights(d)
    )  # M(d, m)
    if d == 1:
        return Frac(top, scale)
    splits = _splits(mults)
    moments = [None]  # moments[d'][e] = M(d', e), for 1 <= d' < d
    for dp in range(1, d):
        row = [0] * len(splits)
        for lam, w in wedge._fock_weights(dp):
            vec = [w]
            for k, m in zip(ks, mults):
                a = numerator(lam, k)
                powers = [a**p for p in range(m + 1)]
                vec = [x * y for x in vec for y in powers]
            for i, x in enumerate(vec):
                row[i] += x
        moments.append(row)
    last = len(splits) - 1
    cumulants = [None]  # cumulants[d'][e] = K(d', e); the top row holds K(d, m) alone
    for dp in range(1, d + 1):
        terms = [
            (
                math.factorial(dp - 1) // math.factorial(k - 1) * math.comb(dp, k) ** 2,
                cumulants[k],
                moments[dp - k],
            )
            for k in range(1, dp)
        ]
        shapes = enumerate(zip(moments[dp], splits)) if dp < d else [(last, (top, splits[last]))]
        row = []
        for i, (x, parts) in shapes:
            acc = math.factorial(dp) * x
            for w, kk, mm in terms:
                pairs = iter(parts)
                acc -= w * sum(c * kk[f] * mm[i - f] for c, f in zip(pairs, pairs))
            row.append(acc)
        cumulants.append(row)
    return Frac(cumulants[-1][-1], scale)


def slot_w_series(a, j: int, order: int) -> TruncatedSeries:
    """1/(z(w) - a)^j * dz/dx(z(w)) with dz/dx and 1/(z - a) rebuilt for
    every slot, as ``toprec._slot_w_series`` did before it read them from
    per-order tables."""
    z = catalan_inverse(order + 2, "w")
    dz_dx = (z * z) * (z * z - 1).inverse()
    return ((z - a).inverse() ** j * dz_dx).truncate(order)


def slot_f_series(a, j: int, order: int) -> TruncatedSeries:
    """The primitive slot function h_{a,j} at z = z(w), as
    ``toprec.fgn_x_expansion`` built it before ``toprec._slot_f_series``:
    the Laurent expansion of the rational function at 0, composed with the
    branch series."""
    h = primitive_slot_function(a, j).laurent_at(0, order + 2, "w")
    return series_compose(h, catalan_inverse(order + 2, "w")).truncate(order)


def evaluate_termwise(form, points, slot_value) -> Frac:
    """sum_key c * prod_k slot_value(*key[k], points[k]), every slot of every
    term evaluated anew, as ``CorrelationForm.evaluate`` and
    ``FgnPrimitive.evaluate`` did before they shared one value per (slot,
    pole)."""
    total = Frac(0)
    for key, c in form.terms.items():
        prod = Frac(c)
        for (a, j), p in zip(key, points):
            prod *= slot_value(a, j, p)
        total += prod
    return total


def multiseries_two_point_closed_form(order: int) -> MultiSeries:
    """-log(1 - z(x1) z(x2)) = sum_k z(x1)^k z(x2)^k / k as a ``MultiSeries``
    in w_i = 1/x_i, summed term by term through ``order`` in each variable."""
    z1 = catalan_inverse(order, "w1")
    z2 = catalan_inverse(order, "w2")
    total = MultiSeries.zero(("w1", "w2"), (0, 0), (order, order))
    for k in range(1, order + 1):
        total = total + Frac(1, k) * MultiSeries.outer_product([z1**k, z2**k])
    return total


def slotwise(terms, n: int, slot_map) -> dict:
    """sum_key c * prod_k slot_map(k, key[k]) for terms {key: c} of arity n,
    expanded slot by slot with merged partial states, on ``Fraction``s."""
    state = {((), key): c for key, c in terms.items()}
    for k in range(n):
        images = {item: slot_map(k, item) for item in {rest[0] for _, rest in state}}
        nxt: dict = {}
        for (done, rest), c in state.items():
            for label, w in images[rest[0]].items():
                s = (done + (label,), rest[1:])
                nxt[s] = nxt.get(s, 0) + c * w
        state = {s: c for s, c in nxt.items() if c}
    return {done: c for (done, _), c in state.items()}


def series_mul(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f * g through min(o1 + m2, o2 + m1), convolved on ``Fraction``s."""
    order = min(f.order + g.min_exp, g.order + f.min_exp)
    if f.is_zero() or g.is_zero():
        return TruncatedSeries.zero(f.var, order)
    lo = f.min_exp + g.min_exp
    out = [Frac(0)] * (order - lo + 1)
    for i, a in enumerate(f.coeffs):
        if a == 0:
            continue
        e1 = f.min_exp + i
        jmax = min(len(g.coeffs) - 1, order - e1 - g.min_exp)
        for j in range(jmax + 1):
            b = g.coeffs[j]
            if b:
                out[e1 + g.min_exp + j - lo] += a * b
    return TruncatedSeries(f.var, lo, out, order)


def series_inverse(f: TruncatedSeries) -> TruncatedSeries:
    """1/f for f with a nonzero leading coefficient, known through
    t^(order - 2 min_exp): inv_k = -(sum_{j=1..k} f_j inv_{k-j}) / f_0."""
    if f.is_zero():
        raise ExactError("cannot invert a series with no known nonzero coefficient")
    v, n = f.min_exp, f.order - f.min_exp
    cs = [f.coefficient(v + k) for k in range(n + 1)]
    inv = [1 / cs[0]]
    for k in range(1, n + 1):
        inv.append(-sum((cs[j] * inv[k - j] for j in range(1, k + 1)), Frac(0)) / cs[0])
    return TruncatedSeries(f.var, -v, inv, n - v)


def series_truncate(f: TruncatedSeries, order: int) -> TruncatedSeries:
    """f known only through t^order (order <= f.order)."""
    lo = min(f.min_exp, order + 1)
    return TruncatedSeries(f.var, lo, [f.coefficient(k) for k in range(lo, order + 1)], order)


def series_shift(f: TruncatedSeries, delta: int) -> TruncatedSeries:
    """t^delta f."""
    cs = [f.coefficient(k) for k in range(f.min_exp, f.order + 1)]
    return TruncatedSeries(f.var, f.min_exp + delta, cs, f.order + delta)


def series_derivative(f: TruncatedSeries) -> TruncatedSeries:
    """df/dt, known through t^(order - 1)."""
    cs = [k * f.coefficient(k) for k in range(f.min_exp, f.order + 1)]
    return TruncatedSeries(f.var, f.min_exp - 1, cs, f.order - 1)


def series_log_recurrence(s: TruncatedSeries) -> TruncatedSeries:
    """log s for s with constant term 1: k g_k = k s_k - sum_{j<k} j g_j s_{k-j}."""
    order = s.order
    f = [s.coefficient(k) for k in range(order + 1)]
    g = [Frac(0)] * (order + 1)
    for k in range(1, order + 1):
        acc = k * f[k]
        for j in range(1, k):
            acc -= j * g[j] * f[k - j]
        g[k] = acc / k
    return TruncatedSeries(s.var, 0, g, order)


def series_add(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f + g through min(o1, o2), each coefficient read from both operands."""
    order = min(f.order, g.order)
    lo = min(f.min_exp, g.min_exp, order + 1)
    return TruncatedSeries(
        f.var,
        lo,
        (
            (f.coefficient(k) if f.min_exp <= k <= f.order else Frac(0))
            + (g.coefficient(k) if g.min_exp <= k <= g.order else Frac(0))
            for k in range(lo, order + 1)
        ),
        order,
    )


# ---------------------------------------------------------------------------
# the partition-sum tower, term by term
# ---------------------------------------------------------------------------


def hook_lengths_product(p) -> int:
    """The product of the hook lengths of every box of ``p``."""
    return math.prod(h for row in hook_lengths(p) for h in row)


def x_partition_termwise(d: int) -> RationalFunction:
    """sum_p H_p^-2 prod_{i<=d} (u + i - p_i) / (u + i): one ``Polynomial``
    product per linear factor, one ``Polynomial`` sum per partition."""
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


def offset_sum_termwise(d: int) -> Polynomial:
    """sum_p offset_product(p) / H_p^2, one ``Polynomial`` sum per partition."""
    total = Polynomial.zero()
    for lam in partitions(d):
        total = total + offset_product(lam) * Frac(1, hook_product(lam) ** 2)
    return total


def y_polynomial_termwise(d: int) -> Polynomial:
    """sum_p [(d - y) G_p(y+1) + (y - 1) G_p(y) + G_p(y-1)] / H_p^2, the
    shifts taken on every partition's offset product."""
    total = Polynomial.zero()
    d_minus_y = Polynomial([d, -1])
    y_minus_1 = Polynomial([-1, 1])
    for lam in partitions(d):
        g = offset_product(lam)
        term = d_minus_y * g.shift(1) + y_minus_1 * g + g.shift(-1)
        total = total + term * Frac(1, hook_product(lam) ** 2)
    return total


def laguerre_value_termwise(n: int, alpha, z):
    """sum_i (-1)^i C(n+alpha, n-i) z^i / i!, the binomial rebuilt for every i."""
    symbolic = isinstance(alpha, Polynomial)
    total = Polynomial.zero() if symbolic else Frac(0)
    z = Frac(z)
    for i in range(n + 1):
        k = n - i
        binom = Polynomial.one() if symbolic else Frac(1)
        for j in range(k):
            binom = binom * (alpha + (n - j))
        total = total + binom * Frac((-1) ** i * z**i / (math.factorial(i) * math.factorial(k)))
    return total


def laguerre_pole_sum_termwise(d: int) -> RationalFunction:
    """(1/d!) (1 - sum_m L_{d-m}^{(m)}(1) / (m-1)! / (u+m)), one pole
    subtracted at a time."""
    pole_sum = RationalFunction.one()
    for m in range(1, d + 1):
        coeff = laguerre_value_termwise(d - m, Frac(m), 1) / math.factorial(m - 1)
        pole_sum = pole_sum - RationalFunction(Polynomial.constant(coeff), Polynomial([m, 1]))
    return pole_sum * Frac(1, math.factorial(d))


def reassemble_termwise(pf: PartialFractions) -> RationalFunction:
    """poly_part + sum c / (t - root)**mult, one ``RationalFunction`` per term."""
    total = RationalFunction(pf.poly_part)
    for (root, mult), coeff in pf.terms:
        total = total + RationalFunction(Polynomial.constant(coeff), Polynomial((-root, 1)) ** mult)
    return total


def pole_report_by_partial_fractions(f: RationalFunction) -> dict:
    """Root -> pole order of ``f``, read off its partial fractions."""
    report: dict = {}
    for (root, mult), coeff in partial_fractions(f).as_dict().items():
        if coeff != 0:
            report[root] = max(report.get(root, 0), mult)
    return report


def toda_quadratic_check_normalising(d: int, variant: str = "full") -> bool:
    """Both quadratic lattice relations summed as ``RationalFunction``s."""
    x = qcurve.x_partition
    u_poly = Polynomial.identity()
    rhs = RationalFunction.zero()
    for a in range(d + 2):
        b = d + 1 - a
        w = Frac((a - b) ** 2, 2)
        if w:
            rhs = rhs + x(a) * x(b) * w
    if variant == "full":
        lhs = RationalFunction.zero()
        for a in range(d + 1):
            lhs = lhs + x(a).shift(1) * x(d - a).shift(-1)
        return lhs * RationalFunction(u_poly, Polynomial([1, 1])) == rhs
    lhs = RationalFunction.zero()
    for a in range(d + 2):
        xa, xb = x(a), x(d + 1 - a)
        lhs = lhs + (xa - xa.shift(-1)) * xb.shift(-1)
    return lhs == rhs * RationalFunction(Polynomial.one(), u_poly * u_poly)


def laguerre_value_polynomial(n: int, alpha: Polynomial, z) -> Polynomial:
    """L_n^(alpha)(z) for a polynomial parameter, from the prefix product
    ``k! C(n+alpha, k) = prod_{j<k} (alpha + n - j)``."""
    z = Frac(z)
    falling, total = Polynomial.one(), Polynomial.zero()
    for k in range(n + 1):
        if k:
            falling = falling * (alpha + (n - k + 1))
        i = n - k
        total = total + falling * Frac(
            (-1) ** i * z.numerator**i, z.denominator**i * math.factorial(i) * math.factorial(k)
        )
    return total


def recursion_residual(x_prev: RationalFunction, x_d: RationalFunction) -> RationalFunction:
    """(1/(u+1)) x_prev(u+1) + u (x_d(u-1) - x_d(u)), normalised at every step."""
    u = RationalFunction.identity()
    return x_prev.shift(1) / RationalFunction(Polynomial([1, 1])) + u * (x_d.shift(-1) - x_d)


def laurent_at_full_shift(f: RationalFunction, center, order: int, var: str = "t") -> TruncatedSeries:
    """The Laurent expansion of ``f`` in ``t = z - center`` through ``t**order``
    from the whole of ``f.num(t + center)`` and ``f.den(t + center)``."""
    num = f.num.shift(center)
    den = f.den.shift(center)
    if f.is_zero():
        return TruncatedSeries.zero(var, order)
    v = next(k for k, c in enumerate(den.coeffs) if c)
    top = order + v

    def window(p: Polynomial, lo: int) -> TruncatedSeries:
        cs = list(p.coeffs[lo : lo + top + 1])
        return TruncatedSeries(var, 0, cs + [0] * (top + 1 - len(cs)), top)

    quot = window(num, 0) * window(den, v).inverse()
    return quot.shift_exponent(-v).truncate(order)


def reassembles_by_normalising(pf: PartialFractions, f: RationalFunction) -> bool:
    """Whether ``pf`` sums to ``f``: the reassembled function normalised and
    compared with ``f``."""
    return pf.reassemble() == f


# ---------------------------------------------------------------------------
# the degree-graded blocks on Fractions
# ---------------------------------------------------------------------------


def block_value_by_fractions(g: int, n: int, d: int) -> Frac:
    """sum_b count(b) prod b_i! <prod tau_{b_i}(omega)>_{g,n}^d, one
    ``Fraction`` per stationary invariant."""
    return sum(
        (
            stationary_invariant(g, n, d, b) * (count * math.prod(map(math.factorial, b)))
            for b, count in _sorted_compositions(2 * g - 2 + 2 * d, n)
        ),
        Frac(0),
    )


def degree_block_by_fractions(d: int, order: int) -> tuple[Frac, ...]:
    """The degree-d block in w = 1/u: sum_{g,n} (-1)^n / n! V (x + hbar/2)^-lead,
    each half-step term V C(-lead, p) / 2^p added as a ``Fraction``."""
    out = [Frac(0)] * (order + 1)
    if d == 1:
        out[0] += stationary_invariant(0, 1, 1, (0,))
    g = 0
    while 2 * g - 1 + 2 * d <= order:
        for n in range(1, order + 1):
            lead = 2 * g - 2 + n + 2 * d
            if lead > order:
                break
            value = block_value_by_fractions(g, n, d) * Frac((-1) ** n, math.factorial(n))
            for p in range(order - lead + 1):
                out[lead + p] += value * Frac((-1) ** p * math.comb(lead + p - 1, p), 2**p)
        g += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# the wave-function calculus on monomial maps
# ---------------------------------------------------------------------------


class MonomialForm:
    """Finite combination of monomials hbar^p x^{-i} (log x)^l: ``terms``
    maps (p, i, l) to the coefficient, ``order`` is the hbar-order through
    which the form is complete."""

    def __init__(self, terms, order: int):
        self.terms = {k: Frac(v) for k, v in terms.items() if v}
        for _, i, l in self.terms:
            if i < -1 or l not in (0, 1):
                raise ExactError("monomials x^{-i} (log x)^l need i >= -1 and l in {0, 1}")
        self.order = order

    def __add__(self, other: "MonomialForm") -> "MonomialForm":
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, Frac(0)) + c
        return MonomialForm(terms, min(self.order, other.order))


def form_derivative(form: MonomialForm) -> MonomialForm:
    """d/dx x^{-i} (log x)^l = -i x^{-i-1} (log x)^l + l x^{-i-1} (log x)^{l-1}."""
    terms: dict = {}
    for (p, i, l), c in form.terms.items():
        for key, weight in (((p, i + 1, l), -i), ((p, i + 1, l - 1), l)):
            if weight:
                terms[key] = terms.get(key, Frac(0)) + weight * c
    return MonomialForm(terms, form.order)


def taylor_shift_form(form: MonomialForm, m, order: int) -> MonomialForm:
    """f(x + m hbar) = sum_{j>=0} (m hbar)^j / j! f^{(j)}(x) through
    hbar-order ``order``; complete for forms with no power of hbar below -1."""
    m = Frac(m)
    total = MonomialForm(form.terms, order)
    deriv = form
    for j in range(1, order + 2):
        deriv = form_derivative(deriv)
        if not deriv.terms:
            break
        weight = m**j / math.factorial(j)
        total = total + MonomialForm(
            {(p + j, i, l): weight * c for (p, i, l), c in deriv.terms.items() if p + j <= order},
            order,
        )
    return total


def diagonal_form(terms, order: int) -> LogLaurentForm:
    """The ``LogLaurentForm`` with the given monomials, which must share one
    diagonal i - p = c (c = 0 for an empty map)."""
    diagonals = {i - p for p, i, _ in terms} or {0}
    assert len(diagonals) == 1, diagonals
    (c,) = diagonals
    lo = min([p for p, _, _ in terms] + [0])
    a, b = (
        TruncatedSeries.from_function("r", lambda p: terms.get((p, c + p, l), 0), lo, order)
        for l in (0, 1)
    )
    return LogLaurentForm(c, a, b)

