"""Stationary curve-count invariants from a diagonal operator on partition vectors.

Every degree-d, n-point invariant computed here reduces to finite exact sums
over integer partitions: each partition vector is an eigenvector of the
relevant diagonal operator family, with eigenvalue series

    eps_lam(t) = sum_i (e^{t(lam_i - i + 1/2)} - e^{t(1/2 - i)}) + 1/zeta(t),

where zeta(t) = e^{t/2} - e^{-t/2}.  Disconnected n-point data is the
squared-dimension-weighted sum of eigenvalue products; connected data is its
logarithm.  Each coefficient [t^k] eps_lam is N_{lam,k} / (2^k k!) + z_k,
with N_{lam,k} an integer and z_k = [t^k] 1/zeta the same for every lam, so
the disconnected sum factors as exp(sum_j y_j z_{k_j}) times the sum on the
N alone, and the two logarithms have the same q^d coefficients for d >= 1.
`connected_coefficient` gets one connected invariant from an integer
moment-cumulant recursion on the N, with no series algebra; as the empty
partition has N = 0, the recursion carries no degree-0 term.

A moment or cumulant depends only on the degree and on the multiset
k = b + 1 of eigenvalue orders, never on the invariant that asks for it.  So
each is a memo table keyed by (degree, sorted multiset): the moment rows
`_moments`, the cumulant rows `_cumulants`, the split lists
`_sub_multisets`, and the per-partition products `_products`, each built
from the product for the multiset without its last entry and one column of
`_numerators`.  The recursion for a multiset reads the rows of its
sub-multisets; invariants whose multisets overlap, as the blocks of the
degree-graded link do, form each shared cumulant once.

The tests check the engine against four routes: the per-call table of every
sub-multiset, the recursion on the whole coefficients, the
multivariate-series logarithm, and the set-partition cumulant combination of
whole n-point series in tests/oracles.py.  A string-type recursion extends
the stationary values to insertions of the unit class.
"""

from __future__ import annotations

import math
from fractions import Fraction as Frac
from functools import cache
from operator import mul

from .exactcore import ExactError, TruncatedSeries, _integers, series_log
from .partitions import Partition, _hook_product, partitions

__all__ = [
    "catalan_inverse",
    "connected_coefficient",
    "stationary_invariant",
    "unit_insertions",
    "unstable_series_check",
    "unstable_series_report",
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
    _integers(order=order)
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
    _integers(order=order)
    if order < -1:
        raise ExactError("zeta_reciprocal needs order >= -1")
    return zeta_series(order + 2, var).inverse()


def _eigen_numerator(lam: Partition, k: int) -> int:
    """The integer N_{lam,k} = sum_i ((2(lam_i - i) + 1)^k - (1 - 2i)^k), k >= 0.

    [t^k] eps_lam = N_{lam,k} / (2^k k!) + [t^k] 1/zeta for k >= 0; the
    empty partition and k = 0 give N = 0."""
    return sum(
        (2 * (part - i) + 1) ** k - (1 - 2 * i) ** k for i, part in enumerate(lam, start=1)
    )


# ---------------------------------------------------------------------------
# Connected invariants
# ---------------------------------------------------------------------------


def _exponents(b) -> tuple[int, ...]:
    """b as a tuple of descendant exponents: ints (not bools), each >= -2."""
    b = tuple(b)
    if any(type(bi) is not int for bi in b):
        raise ExactError(f"descendant exponents must be integers, got {b!r}")
    if any(bi < -2 for bi in b):
        raise ExactError("descendant exponents must be >= -2")
    return b


def connected_coefficient(d: int, b) -> Frac:
    """Single connected invariant, valid for any number of points: the
    coefficient of q^d prod_j y_j^{m_j}/m_j! in the log of the source-deformed
    vacuum sum

        M(q, y) = sum_{d'<=d} q^{d'} sum_{lam |- d'} (dim/d'!)^2
                  prod_j exp(y_j * a_{lam,j}),   a_{lam,j} = [t^{k_j}] eps_lam,

    where k_j = v_j + 1, v_1 < ... < v_J are the distinct entries of b and
    m_j their multiplicities.  The empty b gives the connected vacuum,
    [q^d] q.

    Every coefficient splits as a_{lam,j} = N_{lam,k_j} / D_j + z_{k_j}, with
    the integer N_{lam,k} of `_eigen_numerator`, D_j = 2^{k_j} k_j! and
    z_k = [t^k] 1/zeta, which does not depend on lam.  So
    M = exp(sum_j y_j z_{k_j}) M~, where M~ is M with every z dropped, and
    for d >= 1 the q^d coefficients of log M and log M~ agree.  At d = 0,
    log M = sum_j y_j z_{k_j}, linear in y.  Exponents -2 and -1 give N = 0:
    M~ does not depend on their y_j, and the invariant vanishes for d >= 1.

    The logarithm of M~ is taken by the scalar moment-cumulant recursion
    (Okounkov-Pandharipande, arXiv:math/0204305), on integers, over the
    sorted multiset ks = (k_1, ..., k_n) of b + 1.  The moments
    M(d', ks) = sum_{lam |- d'} dim^2 prod_{k in ks} N_{lam,k} are
    (d'!)^2 D^ks times those of M~, with D^ks = prod_{k in ks} 2^k k!, and
    M(0, ks) is 1 at the empty ks and 0 otherwise, since the empty partition
    has N = 0.  The cumulants K(d', ks) = (d'!)^3 D^ks kappa(d', ks) of
    log M~ then solve

        K(d', ks) = d'! M(d', ks) - sum_{k<d'} (d'-1)!/(k-1)! C(d', k)^2
                    sum_{f <= ks} prod_j C(m_j, f_j) K(k, f) M(d'-k, ks - f),

    with no d' = 0 term, where f runs over the sub-multisets of ks, m_j and
    f_j counting the j-th distinct value in ks and in f.  The answer is
    K(d, ks) / ((d!)^3 D^ks).

    Both K and M depend only on (d', multiset), so each is kept once per
    pair, in the tables `_cumulants` and `_moments`, and shared by every
    invariant that reads it: a cold query forms K(d', f) and M(d', f) once
    for each d' < d and each sub-multiset f, and K(d, ks) and M(d, ks) at
    the top; a later query on overlapping multisets forms only what it does
    not find.

    tests/test_wedge.py keeps the multivariate-series logarithm of M as the
    oracle `_log_route_coefficient`; tests/oracles.py keeps the recursion on
    the unshifted coefficients a_{lam,j}, with its d' = 0 term, as
    `connected_coefficient_unshifted`, and the per-call table of every
    sub-multiset's moments and cumulants as `connected_coefficient_table`.
    """
    _integers(degree=d)
    if d < 0:
        raise ExactError("degree must be nonnegative")
    return _connected_coefficient(d, tuple(sorted(_exponents(b))))


@cache
def _fock_weights(d: int) -> tuple[tuple[Partition, int], ...]:
    """(lam, dim(lam)^2) for every partition lam of d, with dim(lam) = d! / H
    read from the hook product of partitions' own, unchecked output."""
    top = math.factorial(d)
    return tuple((lam, (top // _hook_product(lam)) ** 2) for lam in partitions(d))


@cache
def _numerators(d: int, k: int) -> tuple[int, ...]:
    """N_{lam,k} for every lam |- d, in the order of `_fock_weights(d)`."""
    return tuple(_eigen_numerator(lam, k) for lam, _ in _fock_weights(d))


@cache
def _products(d: int, ks: tuple[int, ...]) -> tuple[int, ...]:
    """dim(lam)^2 prod_{k in ks} N_{lam,k} for every lam |- d, for a sorted
    multiset ks: the product for ks[:-1] times one numerator column."""
    if not ks:
        return tuple(w for _, w in _fock_weights(d))
    return tuple(map(mul, _products(d, ks[:-1]), _numerators(d, ks[-1])))


@cache
def _moments(d: int, ks: tuple[int, ...]) -> tuple[int, ...]:
    """(M(1, ks), ..., M(d, ks)), M(d', ks) = sum_{lam |- d'} dim(lam)^2
    prod_{k in ks} N_{lam,k}, for d >= 1 and a sorted multiset ks."""
    head = _moments(d - 1, ks) if d > 1 else ()
    return head + (sum(_products(d, ks)),)


@cache
def _sub_multisets(ks: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
    """(prod_j C(m_j, f_j), f, ks - f) for every sub-multiset f of the sorted
    multiset ks, where m_j and f_j count the j-th distinct value in ks and f;
    built from those of ks without its largest value."""
    if not ks:
        return ((1, (), ()),)
    top = ks[-1]
    m = ks.count(top)
    return tuple(
        (c * math.comb(m, j), f + (top,) * j, rest + (top,) * (m - j))
        for c, f, rest in _sub_multisets(ks[:-m])
        for j in range(m + 1)
    )


@cache
def _link_weights(d: int) -> tuple[int, ...]:
    """(d-1)!/(k-1)! C(d, k)^2 for k = 1, ..., d-1."""
    return tuple(
        math.factorial(d - 1) // math.factorial(k - 1) * math.comb(d, k) ** 2 for k in range(1, d)
    )


@cache
def _cumulants(d: int, ks: tuple[int, ...]) -> tuple[int, ...]:
    """(K(1, ks), ..., K(d, ks)), K(d', ks) = (d'!)^3 prod_{k in ks} 2^k k!
    kappa(d', ks), for d >= 1 and a sorted multiset ks; see
    connected_coefficient.  The row for d extends the row for d - 1 and
    shares its integers, so each K(d', ks) is formed once, and the recursion
    for K(d, ks) reads one cumulant row and one moment row per sub-multiset."""
    if d == 1:
        return _moments(1, ks)
    weights = _link_weights(d)
    top = math.factorial(d) * _moments(d, ks)[-1]
    for c, f, rest in _sub_multisets(ks):
        low = map(mul, weights, _cumulants(d - 1, f))  # w_k K(k, f), k = 1..d-1
        top -= c * sum(map(mul, low, reversed(_moments(d - 1, rest))))  # times M(d - k, rest)
    return _cumulants(d - 1, ks) + (top,)


@cache
def _connected_coefficient(d: int, b: tuple[int, ...]) -> Frac:
    """connected_coefficient on checked, sorted exponents."""
    return Frac(*_connected_parts(d, b))


def _connected_parts(d: int, b: tuple[int, ...]) -> tuple[int, int]:
    """The connected invariant for checked, sorted exponents b as a pair of
    integers (numerator, denominator), not reduced.  For d >= 1 and b >= 0
    it is (K(d, ks), (d!)^3 prod_{k in ks} 2^k k!) with ks = b + 1; see
    connected_coefficient."""
    if not b:
        return int(d == 1), 1
    if d == 0:
        if len(b) > 1:
            return 0, 1
        z = zeta_reciprocal(max(b[0] + 1, 1)).coefficient(b[0] + 1)
        return z.numerator, z.denominator
    if b[0] < 0:
        return 0, 1  # N = 0 at k <= 0: M~ does not depend on that y
    ks = tuple(v + 1 for v in b)
    scale = math.factorial(d) ** 3 * math.prod(2**k * math.factorial(k) for k in ks)
    return _cumulants(d, ks)[-1], scale


# ---------------------------------------------------------------------------
# Stationary invariants and unit insertions
# ---------------------------------------------------------------------------


def stationary_invariant(g: int, n: int, d: int, b) -> Frac:
    """The connected invariant with n point classes and descendant exponents b
    (each >= -2) at genus g and degree d, as an exact rational; 0 when the
    dimension constraint sum(b) = 2g - 2 + 2d fails."""
    _integers(genus=g, points=n, degree=d)
    b = _exponents(b)
    if len(b) != n:
        raise ExactError(f"expected {n} descendant exponents, got {len(b)}")
    if g < 0 or d < 0:
        raise ExactError("genus and degree must be nonnegative")
    if sum(b) != 2 * g - 2 + 2 * d:
        return Frac(0)
    return _connected_coefficient(d, tuple(sorted(b)))


_STRING_BASE: dict[tuple[int, int, tuple[int, ...]], Frac] = {
    # genus, unit count, descendant exponents  ->  value (degree 0)
    (0, 2, (0,)): Frac(1),
}


@cache
def _unit_insertions(g: int, k: int, d: int, b: tuple[int, ...]) -> Frac:
    if sum(b) != 2 * g - 2 + 2 * d + k:
        return Frac(0)
    if k == 0:
        return _connected_coefficient(d, b)
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
    _integers(genus=g, points=n, units=k, degree=d)
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
    _integers(order=order)
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


def _two_point_closed_form(order: int) -> dict[tuple[int, int], Frac]:
    """The nonzero [w1^e1 w2^e2] coefficients, e1, e2 <= order, of
    -log(1 - z(x1) z(x2)) = sum_k z(x1)^k z(x2)^k / k in w_i = 1/x_i."""
    z = catalan_inverse(order)
    out: dict[tuple[int, int], Frac] = {}
    power = z
    for k in range(1, order + 1):
        terms = list(power.items())
        for e1, c1 in terms:
            for e2, c2 in terms:
                out[(e1, e2)] = out.get((e1, e2), Frac(0)) + c1 * c2 / k
        power = (power * z).truncate(order)
    return out


def unstable_series_report(order: int) -> tuple[bool, str | None]:
    """Compare the degree-summed engine series against the closed forms.

    One-point side: -sum_d (2d-2)! <tau_{2d-2}>_{0,1}^d x^{-(2d-1)} must equal
    -2z + (z+1/z) log(1+z^2).  Two-point side:
    sum b_1! b_2! <tau_{b_1} tau_{b_2}>_{0,2}^d x_1^{-(b_1+1)} x_2^{-(b_2+1)}
    must equal -log(1 - z_1 z_2).  Both compared through x^{-order}.

    Returns (ok, None) on success or (False, message) naming the first
    mismatching exponent.
    """
    _integers(order=order)
    if order < 1:
        raise ExactError("unstable_series_check needs order >= 1")

    rhs1 = _one_point_closed_form(order)
    for dd in range(1, order + 2):
        exp = 2 * dd - 1
        if exp > order:
            break
        lhs = -math.factorial(2 * dd - 2) * stationary_invariant(0, 1, dd, (2 * dd - 2,))
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
                lhs = math.factorial(b1) * math.factorial(b2) * value
            else:
                lhs = Frac(0)
            rhs = rhs2.get((e1, e2), Frac(0))
            if lhs != rhs:
                return False, (
                    f"two-point series mismatch at exponent x1^-{e1} x2^-{e2}: "
                    f"engine {lhs}, closed form {rhs}"
                )
    return True, None


def unstable_series_check(order: int) -> bool:
    """True iff both degree-summed unstable series match their closed forms
    through x^{-order}; see unstable_series_report."""
    ok, _ = unstable_series_report(order)
    return ok
