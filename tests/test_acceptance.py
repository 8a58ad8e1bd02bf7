"""Acceptance gate: one test per exit criterion, at the stated bounds.

Every assertion is exact rational equality (tolerance zero).  Each test is
a single pass/fail line under ``pytest -v``; bounds and budgets match the
stated criteria exactly — they are not to be weakened.
"""

from fractions import Fraction as Frac

from p1qcurve.partitions import (
    hook_refinement_check,
    partitions,
    summation_corollary_check,
)
from p1qcurve.qcurve import (
    toda_quadratic_check,
    verify_xd_recursion,
    x_laguerre,
    x_partition,
    y_polynomial,
)
from p1qcurve.toprec import (
    fgn_x_expansion,
    ns_expansion_check,
    primitive_fgn,
    theta_expansion_check,
)
from p1qcurve.wavefunction import (
    qce_verification,
    semiclassical_check,
    theta_resummation_check,
    toda_specialization_check,
)
from p1qcurve.wedge import unstable_series_check

_STABLE_PAIRS = ((0, 3), (1, 1), (0, 4), (1, 2), (2, 1))


def test_a01_shift_recursion_of_partition_sums_through_degree_20():
    assert all(verify_xd_recursion(d) for d in range(1, 21))


def test_a02_vanishing_polynomial_through_degree_20_and_inductive_step():
    assert all(y_polynomial(d).is_zero() for d in range(1, 21))
    for d in range(1, 13):
        nxt = y_polynomial(d + 1)
        assert y_polynomial(d) == nxt.shift(1) - nxt


def test_a03_partition_sum_equals_orthogonal_polynomial_form_through_15():
    assert all(x_partition(d) == x_laguerre(d) for d in range(16))


def test_a04_hook_sum_corollary_through_degree_12():
    assert all(summation_corollary_check(d) for d in range(1, 13))
    for d in range(1, 9):
        assert all(hook_refinement_check(mu) for mu in partitions(d))


def test_a05_quadratic_lattice_relations_and_specialization():
    for d in range(9):
        assert toda_quadratic_check(d, "full")
        assert toda_quadratic_check(d, "one-level")
    assert toda_specialization_check(order=8, d_max=4)


def test_a06_fock_engine_matches_unstable_closed_forms_through_order_15():
    assert unstable_series_check(15)


def test_a07_recursion_expansions_match_weighted_invariants_total_order_10():
    assert all(ns_expansion_check(g, n, 10) for g, n in _STABLE_PAIRS)


def test_a08_primitives_differentiate_back_and_expand_correctly():
    for g, n in _STABLE_PAIRS:
        prim = primitive_fgn(g, n)
        assert prim.origin_vanishes()
        assert prim.derivative_recovery_check()
        samples = [
            [Frac(k + 2) for k in range(n)],
            [Frac(2 * k + 3, 2) for k in range(n)],
        ]
        assert prim.odd_under_involution(samples)
        # verify=True raises on the first coefficient mismatch
        fgn_x_expansion(g, n, 8, verify=True)


def test_a09_pole_primitive_expansions_reproduce_matrix_coefficients():
    for i in (1, 2):
        for d in range(5):
            assert theta_expansion_check(i, d, order=12)


def test_a10_difference_equation_three_link_chain_dmax_10():
    report = qce_verification(10)
    assert dict(report.links) == {
        "recursion": True,
        "conjugation": True,
        "degree-graded": True,
    }
    assert bool(report) is True


def test_a11_unit_insertion_resummation_blocks_mixed_order_6():
    for g, n, d in ((0, 1, 0), (1, 1, 0), (0, 1, 1), (0, 2, 1), (1, 1, 1)):
        assert theta_resummation_check(g, n, d, 6)


def test_a12_semiclassical_coefficients_vanish_exactly():
    assert semiclassical_check() is True
