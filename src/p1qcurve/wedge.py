"""Stationary curve-count invariants from a diagonal operator on partition vectors.

Every degree-d, n-point invariant computed here reduces to finite exact sums
over integer partitions: each partition vector is an eigenvector of the
relevant diagonal operator family, with eigenvalue series

    eps_lam(t) = sum_i (e^{t(lam_i - i + 1/2)} - e^{t(1/2 - i)}) + 1/zeta(t),

where zeta(t) = e^{t/2} - e^{-t/2}.  Disconnected n-point data is the
squared-dimension-weighted sum of eigenvalue products; connected data is its
logarithm.  Two independent routes compute it and are cross-checked:
`connected_npoint` builds whole series by the set-partition cumulant
combination after dividing out the vacuum factor e^q, and
`connected_coefficient` gets one invariant from an integer moment-cumulant
recursion over the closed-form coefficients [t^k] eps_lam, with no series
algebra.  tests/test_wedge.py keeps the multivariate-series logarithm as the
oracle of the latter.  A string-type recursion extends the stationary values
to insertions of the unit class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Frac
from functools import cache
from itertools import combinations, product

from .exactcore import (
    ExactError,
    MultiSeries,
    TruncatedSeries,
    series_log,
)
from .partitions import Partition, dimension, is_partition, partitions

__all__ = [
    "EigenSeries",
    "catalan_inverse",
    "connected_coefficient",
    "connected_npoint",
    "disconnected_npoint",
    "e0_eigenvalue",
    "fock_weight",
    "squared_dimension",
    "stationary_invariant",
    "unit_insertions",
    "unstable_series_check",
    "unstable_series_report",
    "vacuum_total",
    "zeta_reciprocal",
    "zeta_series",
]


# ---------------------------------------------------------------------------
# Eigenvalue series
# ---------------------------------------------------------------------------


def zeta_series(order: int, var: str = "t") -> TruncatedSeries:
    """The odd series e^{t/2} - e^{-t/2} = t + t^3/24 + t^5/1920 + ...

    truncated at `order` (inclusive).
    """
    if order < 1:
        raise ExactError("zeta_series needs order >= 1")

    def coeff(k: int) -> Frac:
        if k % 2 == 1:
            return Frac(2, 2**k * math.factorial(k))
        return Frac(0)

    return TruncatedSeries.from_function(var, coeff, 1, order)


def zeta_reciprocal(order: int, var: str = "t") -> TruncatedSeries:
    """1/zeta as a Laurent series, t^{-1} - t/24 + 7 t^3/5760 - ...,

    known through `order` (inclusive); min_exp is -1.
    """
    if order < -1:
        raise ExactError("zeta_reciprocal needs order >= -1")
    return zeta_series(order + 2, var).inverse()


def squared_dimension(lam: Partition) -> int:
    """(number of standard tableaux)^2 for the partition."""
    return dimension(lam) ** 2


def fock_weight(lam: Partition) -> Frac:
    """(dim lam / d!)^2, the normalized weight of a partition vector."""
    d = sum(lam)
    return Frac(squared_dimension(lam), math.factorial(d) ** 2)


@dataclass(frozen=True)
class EigenSeries:
    """Eigenvalue series of the diagonal point-insertion operator on one
    partition vector; the series minus 1/zeta is a power series."""

    partition: Partition
    series: TruncatedSeries

    def __post_init__(self) -> None:
        tail = self.series - zeta_reciprocal(self.series.order, self.series.var)
        if not tail.is_zero() and tail.min_exp < 0:
            raise ExactError("eigenvalue series must equal 1/zeta plus a power series")


def _exp_linear(c: Frac, order: int, var: str) -> TruncatedSeries:
    """e^{c t} truncated at `order`."""
    return TruncatedSeries.from_function(
        var, lambda k: Frac(c**k, math.factorial(k)), 0, order
    )


@cache
def e0_eigenvalue(lam: Partition, order: int, var: str = "t") -> EigenSeries:
    """Eigenvalue series eps_lam(t) of the diagonal insertion operator:

        sum_{i=1}^{len(lam)} (e^{t(lam_i-i+1/2)} - e^{t(1/2-i)}) + 1/zeta(t).
    """
    if not is_partition(lam):
        raise ExactError(f"not a partition: {lam!r}")
    total = zeta_reciprocal(order, var)
    for i, part in enumerate(lam, start=1):
        a = Frac(2 * (part - i) + 1, 2)
        bshift = Frac(1 - 2 * i, 2)
        total = total + _exp_linear(a, order, var) - _exp_linear(bshift, order, var)
    return EigenSeries(tuple(lam), total)


@cache
def _eigen_coefficient(lam: Partition, k: int) -> Frac:
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


# ---------------------------------------------------------------------------
# Disconnected and connected n-point series
# ---------------------------------------------------------------------------


def _point_vars(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, n + 1))


def vacuum_total(d: int) -> Frac:
    """sum over partitions of d of (dim/d!)^2; equals 1/d!."""
    return sum((fock_weight(lam) for lam in partitions(d)), Frac(0))


def disconnected_npoint(d: int, n: int, order: int, max_points: int = 4) -> MultiSeries:
    """Degree-d disconnected n-point series: sum over partitions of d of
    (dim/d!)^2 prod_i eps_lam(x_i).  Per-variable min_exp is -1."""
    if n < 1:
        raise ExactError("disconnected_npoint needs n >= 1")
    if n > max_points:
        raise ExactError(f"n={n} exceeds the configured point bound {max_points}")
    if d < 0:
        raise ExactError("degree must be nonnegative")
    return _disconnected(d, _point_vars(n), order)


def _disconnected(d: int, vars: tuple[str, ...], order: int) -> MultiSeries:
    """The degree-d disconnected series on the point variables ``vars``."""
    total = MultiSeries.zero(vars, (-1,) * len(vars), (order,) * len(vars))
    for lam in partitions(d):
        eig = e0_eigenvalue(lam, order).series
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


def connected_npoint(d: int, n: int, order: int, max_points: int = 4) -> MultiSeries:
    """Degree-d connected n-point series, by vacuum division followed by the
    set-partition cumulant combination over the marked points with degree
    compositions.  Coefficient of prod x_i^{b_i+1} is the connected invariant
    (genus resolved by the dimension constraint)."""
    if n < 1:
        raise ExactError("connected_npoint needs n >= 1")
    if n > max_points:
        raise ExactError(f"n={n} exceeds the configured point bound {max_points}")
    if d < 0:
        raise ExactError("degree must be nonnegative")

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
                if block == subset:
                    continue
                comp = tuple(sorted(set(subset) - set(block)))
                for a in range(m + 1):
                    right = tilde[comp][m - a]
                    if right.is_zero():
                        continue
                    total = total - _disjoint_product(connected(block, a), right)
        conn[key] = total
        return total

    return connected(points, d)


def _exponents(b) -> tuple[int, ...]:
    """b as a tuple of descendant exponents: ints (not bools), each >= -2."""
    b = tuple(b)
    if not all(isinstance(bi, int) and not isinstance(bi, bool) for bi in b):
        raise ExactError(f"descendant exponents must be integers, got {b!r}")
    if any(bi < -2 for bi in b):
        raise ExactError("descendant exponents must be >= -2")
    return b


def connected_coefficient(d: int, b) -> Frac:
    """Single connected invariant, valid for any number of points: the
    coefficient of q^d prod_j y_j^{m_j}/m_j! in the log of the source-deformed
    vacuum sum

        M(q, y) = sum_{d'<=d} q^{d'} sum_{lam |- d'} (dim/d'!)^2
                  prod_j exp(y_j * a_{lam,j}),   a_{lam,j} = [t^{v_j+1}] eps_lam,

    where v_1 < ... < v_J are the distinct entries of b and m_j their
    multiplicities.  The empty b gives the connected vacuum, [q^d] q.

    The logarithm is taken by the scalar moment-cumulant recursion
    (Okounkov-Pandharipande, arXiv:math/0204305).  With the moments
    mu(d', e) = sum_{lam |- d'} (dim/d'!)^2 prod_j a_{lam,j}^{e_j}, where
    mu(0, 0) = 1, the cumulants kappa(d', e) of log M solve

        d' mu(d', e) = sum_{k=1..d'} sum_{f<=e} C(e, f) k kappa(k, f) mu(d'-k, e-f)

    for d' >= 1, and the answer is kappa(d, m).  At d = 0, log M is
    sum_j y_j a_{(),j}, linear in y.  The recursion runs on integers: with D_j
    the least common denominator of the a_{lam,j}, both
    M(d', e) = (d'!)^2 D^e mu(d', e) and K(d', e) = (d'!)^3 D^e kappa(d', e)
    are integers, and

        K(d', e) = d'! M(d', e) - sum_{f<e} C(e, f) K(d', f) M(0, e-f)
                   - sum_{k<d'} (d'-1)!/(k-1)! C(d', k)^2
                     sum_{f<=e} C(e, f) K(k, f) M(d'-k, e-f).

    tests/test_wedge.py keeps the multivariate-series logarithm of M as the
    oracle `_log_route_coefficient`.

    The exponents are checked on every call, before the memo table is read:
    the table compares keys by value, so 1.0 or True would find the entry
    of 1.
    """
    if d < 0:
        raise ExactError("degree must be nonnegative")
    return _connected_coefficient(d, tuple(sorted(_exponents(b))))


@cache
def _connected_coefficient(d: int, b: tuple[int, ...]) -> Frac:
    """connected_coefficient on checked, sorted exponents."""
    if not b:
        return Frac(1) if d == 1 else Frac(0)
    if d == 0:
        return _eigen_coefficient((), b[0] + 1) if len(b) == 1 else Frac(0)
    values = sorted(set(b))
    mults = [b.count(v) for v in values]
    coeffs = {
        lam: [_eigen_coefficient(lam, v + 1) for v in values]
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


# ---------------------------------------------------------------------------
# Stationary invariants and unit insertions
# ---------------------------------------------------------------------------


def stationary_invariant(g: int, n: int, d: int, b, *, explain: bool = False):
    """The connected invariant with n point classes and descendant exponents b
    (each >= -2) at genus g and degree d.

    Returns the exact rational value; with ``explain=True`` returns
    ``(value, flag)`` where flag is ``"dimension-violation"`` when the
    constraint sum(b) = 2g - 2 + 2d fails (value 0) and ``None`` otherwise.
    """
    b = _exponents(b)
    if len(b) != n:
        raise ExactError(f"expected {n} descendant exponents, got {len(b)}")
    if g < 0 or d < 0:
        raise ExactError("genus and degree must be nonnegative")
    if sum(b) != 2 * g - 2 + 2 * d:
        return (Frac(0), "dimension-violation") if explain else Frac(0)
    value = connected_coefficient(d, tuple(sorted(b)))
    return (value, None) if explain else value


_STRING_BASE: dict[tuple[int, int, tuple[int, ...]], Frac] = {
    # genus, unit count, descendant exponents  ->  value (degree 0)
    (0, 2, (0,)): Frac(1),
}


@cache
def _unit_insertions(g: int, k: int, d: int, b: tuple[int, ...]) -> Frac:
    if sum(b) != 2 * g - 2 + 2 * d + k:
        return Frac(0)
    if k == 0:
        return connected_coefficient(d, b)
    if any(bi == -1 for bi in b):
        return Frac(0)
    if any(bi < 0 for bi in b):
        raise ExactError(
            "string reduction does not apply to descendant exponents below -1: "
            f"<tau_0(1)^{k} {b}>_{g} degree {d}"
        )
    npts = len(b) + k
    if d == 0 and 2 * g - 2 + npts - 1 <= 0:
        key = (g, k, b)
        if key in _STRING_BASE:
            return _STRING_BASE[key]
        raise ExactError(
            "string reduction reached an undefined unstable correlator: "
            f"genus {g}, degree 0, {k} unit insertions, exponents {b}"
        )
    total = Frac(0)
    for i, bi in enumerate(b):
        if bi == 0:
            continue  # lowers to exponent -1, which vanishes
        lowered = tuple(sorted(b[:i] + (bi - 1,) + b[i + 1 :]))
        total += _unit_insertions(g, k - 1, d, lowered)
    return total


def unit_insertions(g: int, n: int, k: int, d: int, b) -> Frac:
    """The connected invariant with k unit-class insertions and n point-class
    insertions with descendant exponents b, genus g, degree d; computed by
    repeated string-equation reduction to stationary invariants plus the
    degree-0 base case with two units and one point class."""
    b = _exponents(b)
    if len(b) != n:
        raise ExactError(f"expected {n} descendant exponents, got {len(b)}")
    if g < 0 or d < 0 or k < 0:
        raise ExactError("genus, degree and unit count must be nonnegative")
    return _unit_insertions(g, k, d, tuple(sorted(b)))


# ---------------------------------------------------------------------------
# Closed-form comparison for the unstable (0,1) and (0,2) series
# ---------------------------------------------------------------------------


def catalan_inverse(order: int, var: str = "w") -> TruncatedSeries:
    """The series z(x) = sum_m Catalan(m) x^{-(2m+1)} inverting x = z + 1/z
    near z = 0, written in the variable w = 1/x."""
    if order < 1:
        raise ExactError("catalan_inverse needs order >= 1")

    def coeff(k: int) -> Frac:
        if k % 2 == 0:
            return Frac(0)
        m = (k - 1) // 2
        return Frac(math.comb(2 * m, m), m + 1)

    return TruncatedSeries.from_function(var, coeff, 1, order)


def _one_point_closed_form(order: int, var: str = "w") -> TruncatedSeries:
    """-2z + (z + 1/z) log(1 + z^2) with z = z(x), as a series in w = 1/x."""
    z = catalan_inverse(order + 2, var)
    log_part = series_log(TruncatedSeries.constant(var, 1, order + 2) + z * z)
    return (-2) * z.truncate(order) + log_part.shift_exponent(-1).truncate(order)


def _two_point_closed_form(order: int, v1: str = "w1", v2: str = "w2") -> MultiSeries:
    """-log(1 - z(x1) z(x2)) as a series in w_i = 1/x_i."""
    z1 = catalan_inverse(order, v1)
    z2 = catalan_inverse(order, v2)
    total = MultiSeries.zero((v1, v2), (0, 0), (order, order))
    k = 1
    while k <= order:
        total = total + Frac(1, k) * MultiSeries.outer_product([z1**k, z2**k])
        k += 1
    return total


def unstable_series_report(order: int, perturb=None) -> tuple[bool, str | None]:
    """Compare the degree-summed engine series against the closed forms.

    One-point side: -sum_d (2d-2)! <tau_{2d-2}>_{0,1}^d x^{-(2d-1)} must equal
    -2z + (z+1/z) log(1+z^2).  Two-point side:
    sum b_1! b_2! <tau_{b_1} tau_{b_2}>_{0,2}^d x_1^{-(b_1+1)} x_2^{-(b_2+1)}
    must equal -log(1 - z_1 z_2).  Both compared through x^{-order}.

    `perturb` optionally maps ("01", d) or ("02", b1, b2) to a rational shift
    of the corresponding engine invariant (negative-control hook).  Returns
    (ok, None) on success or (False, message) naming the first mismatching
    exponent.
    """
    if order < 1:
        raise ExactError("unstable_series_check needs order >= 1")
    perturb = perturb or {}

    rhs1 = _one_point_closed_form(order)
    for dd in range(1, order + 2):
        exp = 2 * dd - 1
        if exp > order:
            break
        value = stationary_invariant(0, 1, dd, (2 * dd - 2,))
        value += perturb.get(("01", dd), Frac(0))
        lhs = -math.factorial(2 * dd - 2) * value
        if lhs != rhs1.coefficient(exp):
            return False, (
                f"one-point series mismatch at exponent x^-{exp}: "
                f"engine {lhs}, closed form {rhs1.coefficient(exp)}"
            )
    for exp in range(1, order + 1):
        if exp % 2 == 0 and rhs1.coefficient(exp) != 0:
            return False, f"one-point closed form has even exponent x^-{exp}"

    rhs2 = _two_point_closed_form(order)
    for e1 in range(1, order + 1):
        for e2 in range(1, order + 1):
            b1, b2 = e1 - 1, e2 - 1
            if (b1 + b2) % 2 == 0:
                dd = (b1 + b2 + 2) // 2
                value = stationary_invariant(0, 2, dd, (b1, b2))
                value += perturb.get(("02", b1, b2), Frac(0))
                lhs = math.factorial(b1) * math.factorial(b2) * value
            else:
                lhs = Frac(0)
            if lhs != rhs2.coefficient((e1, e2)):
                return False, (
                    f"two-point series mismatch at exponent x1^-{e1} x2^-{e2}: "
                    f"engine {lhs}, closed form {rhs2.coefficient((e1, e2))}"
                )
    return True, None


def unstable_series_check(order: int) -> bool:
    """True iff both degree-summed unstable series match their closed forms
    through x^{-order}; see unstable_series_report."""
    ok, _ = unstable_series_report(order)
    return ok
