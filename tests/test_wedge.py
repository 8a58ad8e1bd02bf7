"""Tests for the partition-eigenvalue engine for stationary invariants."""

import importlib
import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from p1qcurve import wedge
from p1qcurve.exactcore import (
    ExactError,
    MultiSeries,
    TruncatedSeries,
    multiseries_log,
    series_log,
)
from p1qcurve.partitions import partitions
from p1qcurve.wedge import (
    catalan_inverse,
    connected_coefficient,
    stationary_invariant,
    unit_insertions,
    unstable_series_check,
    unstable_series_report,
    zeta_reciprocal,
    zeta_series,
)
import oracles
from oracles import (
    connected_coefficient_unshifted,
    connected_npoint,
    disconnected_npoint,
    e0_eigenvalue,
    fock_weight,
    multiseries_two_point_closed_form,
    squared_dimension,
    vacuum_total,
)


# ---------------------------------------------------------------------------
# zeta and eigenvalue series
# ---------------------------------------------------------------------------


def test_zeta_leading_coefficients():
    zs = zeta_series(7)
    assert zs.min_exp == 1
    assert zs.coefficient(1) == 1
    assert zs.coefficient(2) == 0
    assert zs.coefficient(3) == F(1, 24)
    assert zs.coefficient(5) == F(1, 1920)


def test_zeta_is_odd():
    zs = zeta_series(12)
    assert all(zs.coefficient(k) == 0 for k in range(2, 13, 2))


def test_zeta_reciprocal_leading_terms():
    zr = zeta_reciprocal(5)
    assert zr.min_exp == -1
    assert zr.coefficient(-1) == 1
    assert zr.coefficient(0) == 0
    assert zr.coefficient(1) == F(-1, 24)
    assert zr.coefficient(3) == F(7, 5760)


def test_zeta_times_reciprocal_is_one():
    order = 10
    prod = zeta_series(order + 2) * zeta_reciprocal(order)
    assert prod.coefficient(0) == 1
    assert all(prod.coefficient(k) == 0 for k in range(1, prod.order + 1))


def test_eigenvalue_empty_partition_is_reciprocal_zeta():
    eig = e0_eigenvalue((), 8)
    assert (eig - zeta_reciprocal(8)).is_zero()


def test_eigenvalue_single_box_is_zeta_plus_reciprocal():
    eig = e0_eigenvalue((1,), 8)
    expected = zeta_series(8) + zeta_reciprocal(8)
    assert (eig - expected).is_zero()
    assert eig.coefficient(1) == F(23, 24)


def test_eigenvalue_tail_is_power_series():
    for d in range(5):
        for lam in partitions(d):
            tail = e0_eigenvalue(lam, 6) - zeta_reciprocal(6)
            assert tail.is_zero() or tail.min_exp >= 0


def test_fock_weight_and_vacuum_normalization():
    assert squared_dimension((2, 1)) == 4
    assert fock_weight((2, 1)) == F(4, 36)
    for d in range(13):
        assert vacuum_total(d) == F(1, math.factorial(d))


def test_cold_fock_weights_validate_none_of_their_partitions(monkeypatch):
    partitions_module = importlib.import_module("p1qcurve.partitions")
    seen = []
    check = partitions_module.is_partition
    monkeypatch.setattr(partitions_module, "is_partition", lambda p: seen.append(p) or check(p))
    for table in (wedge._fock_weights, partitions.__wrapped__):
        table.cache_clear()
    weights = wedge._fock_weights(6)
    assert seen == []
    assert [lam for lam, _ in weights] == list(partitions(6))
    assert [w for _, w in weights] == [squared_dimension(lam) for lam in partitions(6)]


# ---------------------------------------------------------------------------
# disconnected and connected series
# ---------------------------------------------------------------------------


def test_disconnected_degree0_is_reciprocal_zeta():
    D = disconnected_npoint(0, 1, 6)
    zr = zeta_reciprocal(6)
    for k in range(-1, 7):
        assert D.coefficient((k,)) == zr.coefficient(k)


def test_disconnected_degree1_value():
    # zeta + 1/zeta at the linear coefficient: 1 - 1/24
    D = disconnected_npoint(1, 1, 5)
    assert D.coefficient((1,)) == F(23, 24)


def test_connected_corrects_disconnected():
    # the vacuum-division and cumulant step must turn 23/24 into exactly 1
    C = connected_npoint(1, 1, 5)
    assert C.coefficient((1,)) == 1


def test_connected_degree0_two_point_vanishes_at_11():
    assert connected_npoint(0, 2, 4).coefficient((1, 1)) == 0


def test_connected_two_point_degree1():
    assert connected_npoint(1, 2, 4).coefficient((1, 1)) == 1


def test_dual_routes_agree_everywhere():
    # Moebius/cumulant route vs single-coefficient logarithm route
    for n, order in ((1, 8), (2, 6), (3, 4)):
        for d in range(4):
            C = connected_npoint(d, n, order)
            for exps in itertools.product(range(-1, order + 1), repeat=n):
                b = tuple(sorted(e - 1 for e in exps))
                assert C.coefficient(exps) == connected_coefficient(d, b), (n, d, exps)


def _log_route_coefficient(d, b):
    """Oracle for connected_coefficient: the coefficient of q^d prod y_j^{m_j}
    (times prod m_j!) in the multivariate-series logarithm of

        M(q, y) = sum_{d'<=d} q^{d'} sum_{lam |- d'} (dim/d'!)^2
                  prod_j exp(y_j * [t^{v_j+1}] eps_lam),

    with the eigenvalue coefficients read off the series e0_eigenvalue."""
    b = tuple(sorted(b))
    if not b:
        return F(1) if d == 1 else F(0)
    values = sorted(set(b))
    mults = [b.count(v) for v in values]
    ys = tuple(f"y{j}" for j in range(1, len(values) + 1))
    orders = (d,) + tuple(mults)
    total = MultiSeries.zero(("q",) + ys, (0,) * len(orders), orders)
    for dp in range(d + 1):
        qfactor = TruncatedSeries.monomial("q", dp, 1, d)
        for lam in partitions(dp):
            factors = [qfactor]
            for v, m, y in zip(values, mults, ys):
                c = e0_eigenvalue(lam, max(v + 1, 1)).coefficient(v + 1)
                factors.append(TruncatedSeries.from_function(
                    y, lambda k, c=c: c**k / math.factorial(k), 0, m))
            total = total + fock_weight(lam) * MultiSeries.outer_product(factors)
    out = multiseries_log(total).coefficient(orders)
    for m in mults:
        out *= math.factorial(m)
    return out


@st.composite
def degree_and_exponents(draw):
    """d <= 4 and sorted b of length <= 5 with entries in -2..6; about half
    are moved onto the dimension constraint sum(b) = 2g - 2 + 2d."""
    d = draw(st.integers(0, 4))
    b = draw(st.lists(st.integers(-2, 6), max_size=5))
    if b and draw(st.booleans()):
        rest = sum(b[:-1])
        last = next(2 * g - 2 + 2 * d - rest for g in range(20)
                    if 2 * g - 2 + 2 * d - rest >= -2)
        if last <= 6:
            b[-1] = last
    return d, tuple(sorted(b))


@given(degree_and_exponents())
@settings(max_examples=150, deadline=None)
@example((0, (-2,)))
@example((1, (-2, 0, 0, 2)))
@example((2, (-1, -1, 0, 2, 2)))
@example((2, (-2, -1, 0, 0, 3)))
@example((3, (1, 1, 1, 1, 2)))
@example((4, (0, 0, 2, 2, 6)))
@example((4, (3, 3, 3, 3)))
def test_connected_coefficient_matches_log_route(case):
    d, b = case
    assert connected_coefficient(d, b) == _log_route_coefficient(d, b)


@st.composite
def degree_and_repeated_exponents(draw):
    """d <= 6 and sorted b of length <= 5 drawn from a pool of at most three
    values in -2..8, so that most b repeat a value; about half are moved onto
    the dimension constraint sum(b) = 2g - 2 + 2d."""
    d = draw(st.integers(0, 6))
    pool = draw(st.lists(st.integers(-2, 8), min_size=1, max_size=3, unique=True))
    b = draw(st.lists(st.sampled_from(pool), max_size=5))
    if b and draw(st.booleans()):
        rest = sum(b[:-1])
        last = next(2 * g - 2 + 2 * d - rest for g in range(40)
                    if 2 * g - 2 + 2 * d - rest >= -2)
        if last <= 8:
            b[-1] = last
    return d, tuple(sorted(b))


@given(degree_and_repeated_exponents())
@settings(max_examples=60, deadline=None)
@example((6, (0, 0, 2, 2, 6)))
@example((6, (2, 2, 2, 2, 2)))
@example((5, (-1, 3, 3, 3, 4)))
@example((6, (-2, 1, 1, 8, 8)))
@example((1, (8, 8)))
@example((0, (7,)))
def test_shifted_engine_matches_the_unshifted_recursion_and_the_log_route(case):
    d, b = case
    value = connected_coefficient(d, b)
    assert value == connected_coefficient_unshifted(d, b)
    assert value == _log_route_coefficient(d, b)


def _clear_wedge_tables():
    for value in vars(wedge).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()


def test_log_route_oracle_detects_a_perturbed_eigen_coefficient(monkeypatch):
    d, b = 2, (0, 2)  # genus 0; reads [t^1] and [t^3] of every eps_lam, lam |- d' <= 2
    assert wedge._connected_coefficient.__wrapped__(d, b) == _log_route_coefficient(d, b)
    numerator = wedge._eigen_numerator

    def perturbed(lam, k):
        # a_{lam,k} + 1/7, on the numerator over D = 2^k k!
        shift = F(2**k * math.factorial(k), 7) if (lam, k) == ((1, 1), 3) else 0
        return numerator(lam, k) + shift

    monkeypatch.setattr(wedge, "_eigen_numerator", perturbed)
    # the numerator columns, moments and cumulants are tables of their own:
    # cleared, every one is rebuilt from the perturbed numerator
    _clear_wedge_tables()
    try:
        assert wedge._connected_coefficient.__wrapped__(d, b) != _log_route_coefficient(d, b)
    finally:
        _clear_wedge_tables()


@st.composite
def invariant_calls(draw):
    """A list of (d, b) with d <= 7 and sorted b of length <= 5 in -2..8,
    drawn from a small pool of values so that the multisets overlap, in a
    random order; and a second, unrelated list to warm the tables with
    (possibly empty)."""
    pool = draw(st.lists(st.integers(-2, 8), min_size=1, max_size=4, unique=True))
    case = st.tuples(
        st.integers(0, 7),
        st.lists(st.sampled_from(pool), max_size=5).map(lambda b: tuple(sorted(b))),
    )
    calls = draw(st.lists(case, min_size=1, max_size=4))
    warm = draw(st.lists(st.tuples(st.integers(1, 7), st.lists(st.integers(0, 8), max_size=4)
                                   .map(lambda b: tuple(sorted(b)))), max_size=3))
    return draw(st.permutations(calls)), warm


@given(invariant_calls())
@settings(max_examples=80, deadline=None)
@example(([(7, (1, 3, 5, 5)), (7, (3, 5)), (2, (1, 5))], []))
@example(([(5, (0, 0, 2, 2, 6)), (3, (0, 2))], [(6, (0, 2, 2, 6)), (4, (1, 1))]))
@example(([(6, (-2, 1, 1, 8, 8)), (0, (7,)), (1, ())], [(7, (8,))]))
def test_shared_engine_matches_the_table_oracle_in_any_call_order(case):
    """From cold tables, or after warming them on other invariants, the
    shared cumulants give the per-call table's and the unshifted
    recursion's values in whatever order the invariants are asked for."""
    calls, warm = case
    _clear_wedge_tables()
    for d, b in warm:
        connected_coefficient(d, b)
    for d, b in calls:
        value = connected_coefficient(d, b)
        assert value == oracles.connected_coefficient_table(d, b)
        assert value == connected_coefficient_unshifted(d, b)


def test_a_cold_invariant_forms_each_sub_multiset_entry_once():
    """connected_coefficient(8, (1, 3, 5, 5)) reads K and M of its 12
    sub-multisets of k = b + 1 at every degree below 8, and K and M of the
    whole multiset at degree 8: 85 entries each, each formed on one miss."""
    _clear_wedge_tables()
    connected_coefficient(8, (1, 3, 5, 5))
    for table in (wedge._cumulants, wedge._moments):
        info = table.cache_info()
        assert info.misses == info.currsize == 7 * 12 + 1
    assert wedge._sub_multisets.cache_info().currsize == 12


def test_a_sub_multiset_invariant_reads_only_cached_cumulants():
    """After a cold degree-8 invariant, a degree-8 invariant on a
    sub-multiset of its k forms its own top cumulant and reads every other
    one from the table; one of degree 7 reads its value from the table."""
    _clear_wedge_tables()
    connected_coefficient(8, (1, 3, 5, 5))
    misses = wedge._cumulants.cache_info().misses
    value = connected_coefficient(8, (3, 5))
    assert wedge._cumulants.cache_info().misses == misses + 1
    assert value == oracles.connected_coefficient_table(8, (3, 5))
    connected_coefficient(7, (1, 5, 5))
    assert wedge._cumulants.cache_info().misses == misses + 1


def test_closed_form_eigen_coefficients_match_series():
    # [t^k] eps_lam = N_{lam,k} / (2^k k!) + [t^k] 1/zeta, with N = 0 at k = -1
    zr = zeta_reciprocal(12)
    for dp in range(7):
        for lam in partitions(dp):
            series = e0_eigenvalue(lam, 12)
            for k in range(-1, 13):
                shifted = (
                    F(wedge._eigen_numerator(lam, k), 2**k * math.factorial(k)) if k >= 0 else 0
                )
                assert shifted + zr.coefficient(k) == series.coefficient(k), (lam, k)


@given(
    degree_and_exponents().filter(lambda case: case[1]),
    st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(bool),
    st.integers(0, 4),
)
@settings(max_examples=60, deadline=None)
@example((2, (0, 2)), F(1, 7), 1)
@example((4, (0, 0, 2, 2, 6)), F(-3), 0)
def test_a_lam_independent_column_constant_leaves_positive_degrees_unchanged(case, c, pick):
    # the identity the engine rests on: M(q, y) = exp(sum_j y_j z_j) M~(q, y),
    # so any constant added to one column of a_{lam,j}, for every lam, the
    # empty one included, moves log M only at q^0
    d, b = case
    k = sorted(set(b))[pick % len(set(b))] + 1

    def shifted(lam, j):
        return oracles._eigen_coefficient(lam, j) + (c if j == k else 0)

    if d >= 1:
        assert connected_coefficient_unshifted(d, b, shifted) == connected_coefficient(d, b)
    assert connected_coefficient_unshifted(0, (k - 1,), shifted) == (
        connected_coefficient(0, (k - 1,)) + c
    )


def test_dimension_parity_filter():
    for d in range(4):
        C = connected_npoint(d, 2, 6)
        for exps in itertools.product(range(-1, 7), repeat=2):
            b = tuple(e - 1 for e in exps)
            twog = sum(b) + 2 - 2 * d
            if twog < 0 or twog % 2:
                assert C.coefficient(exps) == 0, (d, b)


# ---------------------------------------------------------------------------
# stationary invariants
# ---------------------------------------------------------------------------


def test_convention_anchors():
    assert stationary_invariant(0, 1, 0, (-2,)) == 1
    assert stationary_invariant(0, 1, 1, (0,)) == 1
    assert stationary_invariant(0, 3, 1, (0, 0, 0)) == 1
    assert stationary_invariant(1, 1, 0, (0,)) == F(-1, 24)


def test_one_point_genus0_values_are_inverse_square_factorials():
    # <tau_{2d-2}>^d_{0,1} = 1/(d!)^2, a consequence of the closed form
    for d in range(1, 7):
        assert stationary_invariant(0, 1, d, (2 * d - 2,)) == F(1, math.factorial(d) ** 2)


def test_dimension_violation_flag():
    # off the constraint the value is 0; the CLI adds the warning itself
    assert stationary_invariant(0, 1, 1, (5,)) == 0
    assert stationary_invariant(0, 1, 1, (0,)) == 1


def test_exponent_validation():
    with pytest.raises(ExactError):
        stationary_invariant(0, 1, 0, (-3,))
    with pytest.raises(ExactError):
        stationary_invariant(0, 2, 0, (-2,))  # n mismatch


@pytest.mark.parametrize(
    "fn, args",
    [
        pytest.param(stationary_invariant, (0, 1, 1, (0.7,)), id="stationary-float"),
        pytest.param(stationary_invariant, (0, 1, 1, ("0",)), id="stationary-str"),
        pytest.param(stationary_invariant, (0, 1, 1, (False,)), id="stationary-bool"),
        pytest.param(stationary_invariant, (0, 2, 1, (0, F(0))), id="stationary-fraction"),
        pytest.param(unit_insertions, (0, 1, 1, 1, (1.9,)), id="units-float"),
        pytest.param(unit_insertions, (0, 1, 1, 1, (True,)), id="units-bool"),
        pytest.param(connected_coefficient, (1, (0.5,)), id="connected-float"),
        pytest.param(connected_coefficient, (1, ("0",)), id="connected-str"),
        pytest.param(connected_coefficient, (6, (11, False)), id="connected-bool"),
    ],
)
def test_non_integer_exponents_are_rejected(fn, args):
    with pytest.raises(ExactError, match="integers"):
        fn(*args)


def test_warm_memo_still_rejects_non_integer_exponents():
    # the memo compares keys by value: 1.0 == True == 1
    connected_coefficient(1, (1,))
    for b in ((1.0,), (True,)):
        with pytest.raises(ExactError, match="integers"):
            connected_coefficient(1, b)


@pytest.mark.parametrize(
    "fn, args, exact",
    [
        pytest.param(connected_coefficient, (1.0, (0,)), (1, (0,)), id="connected-float-degree"),
        pytest.param(connected_coefficient, (True, (0,)), (1, (0,)), id="connected-bool-degree"),
        pytest.param(connected_coefficient, (F(2), (1, 1)), (2, (1, 1)),
                     id="connected-fraction-degree"),
        pytest.param(stationary_invariant, (1, 1, 1.0, (2,)), (1, 1, 1, (2,)),
                     id="stationary-float-degree"),
        pytest.param(stationary_invariant, (True, 1, 1, (2,)), (1, 1, 1, (2,)),
                     id="stationary-bool-genus"),
        pytest.param(stationary_invariant, (0, 1.0, 1, (0,)), (0, 1, 1, (0,)),
                     id="stationary-float-points"),
        pytest.param(unit_insertions, (0, 1, 1.0, 1, (3,)), (0, 1, 1, 1, (3,)),
                     id="units-float-count"),
        pytest.param(unit_insertions, (0, True, 1, 1, (1,)), (0, 1, 1, 1, (1,)),
                     id="units-bool-points"),
        pytest.param(unit_insertions, (0, 1, 1, 2.0, (3,)), (0, 1, 1, 2, (3,)),
                     id="units-float-degree"),
    ],
)
def test_non_integer_counts_are_rejected_even_with_a_warm_memo(fn, args, exact):
    # the memo tables compare keys by value: 1.0 == True == F(1) == 1
    fn(*exact)
    with pytest.raises(ExactError, match="must be an integer"):
        fn(*args)


@given(st.permutations([0, 1, 2, 3]))
@settings(max_examples=12, deadline=None)
def test_permutation_symmetry(perm):
    base = (0, 1, 2, 3)
    d = 2  # sum(b) = 6 = 2g - 2 + 2d with g = 2
    assert stationary_invariant(2, 4, d, base) == stationary_invariant(2, 4, d, tuple(perm))


def test_vacuum_connected_coefficient():
    # [q^d] log(e^q) = q: degree 1 only
    assert connected_coefficient(1, ()) == 1
    for d in (0, 2, 3, 4):
        assert connected_coefficient(d, ()) == 0


# ---------------------------------------------------------------------------
# unit insertions via the string recursion
# ---------------------------------------------------------------------------


def test_unit_insertions_base_case():
    assert unit_insertions(0, 1, 2, 0, (0,)) == 1


def test_unit_insertions_chain():
    for k in range(2, 7):
        assert unit_insertions(0, 1, k, 0, (k - 2,)) == 1


def test_unit_insertions_delegates_at_k0():
    assert unit_insertions(0, 1, 1, 1, (1,)) == stationary_invariant(0, 1, 1, (0,))
    assert unit_insertions(1, 1, 0, 0, (0,)) == F(-1, 24)


def test_string_identity_two_point():
    # <tau_0(1) tau_{b+1}(omega)>^d_{0,2} = <tau_b(omega)>^d_{0,1}
    for d in range(1, 6):
        assert unit_insertions(0, 1, 1, d, (2 * d - 1,)) == stationary_invariant(
            0, 1, d, (2 * d - 2,)
        )


def test_unit_insertions_multinomial_closed_form():
    # <tau_0(1)^k prod_i tau_{b_i}(omega)>^d with all-zero b at degree d = n:
    # repeated string reduction gives the multinomial count of lowering paths.
    # Cross-check a genuinely recursive case against an independent expansion:
    # <tau_0(1) tau_0 tau_1>^1_{0,3}: lowering the tau_1 slot gives
    # <tau_0 tau_0>^1_{0,2} = 1; lowering tau_0 gives zero.
    assert unit_insertions(0, 2, 1, 1, (0, 1)) == stationary_invariant(0, 2, 1, (0, 0))


def test_unit_insertions_dimension_gate():
    assert unit_insertions(0, 1, 1, 1, (0,)) == 0


def test_unit_insertions_negative_exponent_rules():
    # tau_{-1}(omega) vanishes identically
    assert unit_insertions(0, 1, 1, 0, (-1,)) == 0
    # tau_{-2}(omega) mixed with units has no string semantics; pick exponents
    # that pass the dimension gate so the guard itself is exercised
    with pytest.raises(ExactError):
        unit_insertions(0, 2, 1, 0, (-2, 1))


def test_unit_insertions_undefined_unstable_errors():
    # <tau_0(1)^2>^0_{0,2} is unstable with no base case
    with pytest.raises(ExactError) as exc:
        unit_insertions(0, 0, 2, 0, ())
    assert "unstable" in str(exc.value)


def test_unit_insertions_cross_identity():
    # sum_d (2d-1)! <tau_0(1) tau_{2d-1}>^d_{0,2} w^{2d} == log(1 + z(w)^2)
    order = 12
    z = catalan_inverse(order + 2)
    rhs = series_log(TruncatedSeries.constant("w", 1, order + 2) + z * z).truncate(order)
    for d in range(1, order // 2 + 1):
        lhs = math.factorial(2 * d - 1) * unit_insertions(0, 1, 1, d, (2 * d - 1,))
        assert lhs == rhs.coefficient(2 * d)


# ---------------------------------------------------------------------------
# closed-form series comparison
# ---------------------------------------------------------------------------


def test_catalan_inverse_coefficients():
    z = catalan_inverse(11)
    assert [z.coefficient(k) for k in range(1, 12, 2)] == [1, 1, 2, 5, 14, 42]
    assert all(z.coefficient(k) == 0 for k in range(2, 11, 2))


def test_catalan_inverse_inverts_the_curve():
    # z + 1/z = x exactly, i.e. z^2 - x z + 1 = O(w^large)
    order = 14
    z = catalan_inverse(order)
    lhs = z * z - z.shift_exponent(-1) + TruncatedSeries.constant("w", 1, order)
    assert lhs.is_zero()


def test_unstable_series_check_small_orders():
    assert unstable_series_check(5)
    assert unstable_series_check(9)


def test_unstable_series_negative_controls(monkeypatch):
    # shift one engine invariant; the report names the exponent it feeds
    exact = wedge.stationary_invariant
    for args, shift, marks in (
        ((0, 1, 2, (2,)), F(1, 7), ("x^-3",)),
        ((0, 2, 2, (1, 1)), F(1, 3), ("x1^-2", "x2^-2")),
    ):
        monkeypatch.setattr(
            wedge,
            "stationary_invariant",
            lambda *call, args=args, shift=shift: exact(*call) + (shift if call == args else 0),
        )
        ok, msg = unstable_series_report(5)
        assert not ok and all(mark in msg for mark in marks), msg


@pytest.mark.parametrize("order", range(1, 16))
def test_two_point_closed_form_matches_the_series_sum(order):
    assert wedge._two_point_closed_form(order) == multiseries_two_point_closed_form(order).data


def test_two_point_closed_form_reference_detects_a_changed_coefficient():
    order = 9
    reference = dict(multiseries_two_point_closed_form(order).data)
    reference[(3, 5)] += F(1, 11)
    assert wedge._two_point_closed_form(order) != reference
