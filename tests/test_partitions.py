"""Tests for partition combinatorics."""

from __future__ import annotations

import importlib
import inspect
import math
import textwrap
from fractions import Fraction as F
from functools import cache
from itertools import combinations_with_replacement

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from p1qcurve.exactcore import ExactError, Polynomial
from p1qcurve.partitions import (
    _sorted_tuples,
    boxes_added,
    boxes_removed,
    conjugate,
    dimension,
    hook_lengths,
    hook_product,
    hook_refinement_check,
    is_partition,
    offset_difference_check,
    offset_product,
    offset_sum,
    padded,
    partitions,
    summation_corollary_check,
)

from oracles import hook_lengths_product, offset_sum_termwise


def test_enumeration_order_and_counts():
    assert partitions(0) == ((),)
    assert partitions(3) == ((3,), (2, 1), (1, 1, 1))
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    # partition numbers p(0..10) = 1,1,2,3,5,7,11,15,22,30,42
    counts = [len(partitions(d)) for d in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_validation():
    assert is_partition(()) and is_partition((3, 1, 1))
    assert not is_partition((1, 2))
    assert not is_partition((0,))
    with pytest.raises(ExactError):
        hook_product((1, 2))


@pytest.mark.parametrize(
    "fn, arg, exact",
    [
        pytest.param(partitions, True, 1, id="partitions-bool"),
        pytest.param(partitions, 2.0, 2, id="partitions-float"),
        pytest.param(partitions, F(3), 3, id="partitions-fraction"),
        pytest.param(hook_product, (True,), (1,), id="hook-bool-part"),
        pytest.param(hook_product, (2.0, 1), (2, 1), id="hook-float-part"),
        pytest.param(dimension, (True, 1), (1, 1), id="dimension-bool-part"),
        pytest.param(offset_product, (2, 1.0), (2, 1), id="offset-float-part"),
    ],
)
def test_non_integer_degrees_and_parts_are_refused_before_the_memo(fn, arg, exact):
    # each table compares keys by value, so (True,) would find the entry of (1,)
    fn(exact)
    table = fn.__wrapped__
    size = table.cache_info().currsize
    with pytest.raises(ExactError):
        fn(arg)
    assert table.cache_info().currsize == size


def test_is_partition_refuses_bool_parts():
    assert not is_partition((True,))
    assert not is_partition((2, False))
    assert is_partition((2, 1))


def test_conjugate_involution():
    assert conjugate((3, 1)) == (2, 1, 1)
    for d in range(9):
        for p in partitions(d):
            assert conjugate(conjugate(p)) == p


def test_hook_lengths_known_shape():
    # verified by drawing the diagram of (3, 2)
    assert hook_lengths((3, 2)) == ((4, 3, 1), (2, 1))
    assert hook_product((3, 2)) == 24
    assert hook_product(()) == 1


def test_hook_product_matches_the_hook_lengths_oracle_through_14():
    for d in range(15):
        for p in partitions(d):
            assert hook_product(p) == hook_lengths_product(p), p


# weakly decreasing tuples of positive parts, () included
_partition_strategy = st.lists(st.integers(1, 12), max_size=12).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)


def _hook_matches_oracle(kernel, p) -> None:
    assert kernel(p) == hook_lengths_product(p)


@given(_partition_strategy)
@settings(max_examples=60, deadline=None)
def test_hook_product_closed_form_property(p):
    _hook_matches_oracle(hook_product, p)
    assert dimension(p) * hook_lengths_product(p) == math.factorial(sum(p))


def test_hook_product_property_detects_l_shifted_by_one():
    """Negative control: the closed form with every l_i shifted by one,
    built from the real source, must fail the same property."""
    module = importlib.import_module("p1qcurve.partitions")
    source = textwrap.dedent(inspect.getsource(module._hook_product))
    assert source.count("li = p[i] + n - 1 - i") == 1
    namespace = dict(vars(module))
    exec(source.replace("li = p[i] + n - 1 - i", "li = p[i] + n - i"), namespace)
    check = settings(database=None, phases=[Phase.generate], deadline=None)(
        given(_partition_strategy)(lambda p: _hook_matches_oracle(namespace["_hook_product"], p))
    )
    with pytest.raises(AssertionError):
        check()


def test_a_cold_dimension_validates_its_partition_once(monkeypatch):
    module = importlib.import_module("p1qcurve.partitions")
    seen = []
    check = module.is_partition
    monkeypatch.setattr(module, "is_partition", lambda p: seen.append(p) or check(p))
    for fn in (dimension, hook_product):
        fn.__wrapped__.cache_clear()
    assert dimension((3, 2, 2, 1)) == 70
    assert seen == [(3, 2, 2, 1)]


def test_hook_product_conjugation_invariant():
    for d in range(10):
        for p in partitions(d):
            assert hook_product(p) == hook_product(conjugate(p))


@cache
def _chain_count(p):
    """Independent oracle for dimension: count increasing box-by-box chains
    from the empty diagram, which is exactly the number of standard fillings."""
    if not p:
        return 1
    return sum(_chain_count(q) for q in boxes_removed(p))


def test_dimension_matches_chain_counting():
    for d in range(9):
        for p in partitions(d):
            assert dimension(p) == _chain_count(p)


def test_dimension_squares_sum_to_factorial():
    for d in range(15):
        assert sum(dimension(p) ** 2 for p in partitions(d)) == math.factorial(d)


def test_boxes_added_removed_adjoint():
    for d in range(8):
        for p in partitions(d):
            for q in boxes_added(p):
                assert sum(q) == d + 1
                assert p in boxes_removed(q)
            for q in boxes_removed(p):
                assert sum(q) == d - 1
                assert p in boxes_added(q)


def test_padded():
    assert padded((2, 1), 4) == (2, 1, 0, 0)
    with pytest.raises(ExactError):
        padded((2, 1), 1)


def test_sorted_tuples_are_the_filtered_combinations_in_order():
    for total in range(-2, 19):
        for n in range(0, 6):
            filtered = [b for b in combinations_with_replacement(range(total + 1), n)
                        if sum(b) == total]
            assert list(_sorted_tuples(total, n)) == filtered, (total, n)


def test_offset_product_small_cases():
    # verified by hand from the definition
    assert offset_product(()) == Polynomial.one()
    assert offset_product((1,)) == Polynomial([0, 1])                 # y
    assert offset_product((2,)) == Polynomial([-2, -1, 1])            # (y+1)(y-2)
    assert offset_product((1, 1)) == Polynomial([0, -1, 1])           # y(y-1)
    p3 = offset_product((2, 1))  # (y+1)(y-1)(y-3)
    assert p3 == Polynomial.from_roots([-1, 1, 3])


def test_offset_product_monic_of_degree_boxcount():
    for d in range(1, 8):
        for p in partitions(d):
            g = offset_product(p)
            assert g.degree == d
            assert g.leading() == 1


def test_hook_refinement_small_cases():
    # mu = (1): covers are (2) and (1,1), both with hook product 2
    assert sum(F(1, hook_product(q)) for q in boxes_added((1,))) == F(1, 1)
    for d in range(8):
        for mu in partitions(d):
            assert hook_refinement_check(mu)


def test_offset_difference_identity_small():
    # d = 0: both sides equal the constant 1 (checked by hand)
    # d = 1: both sides equal y (checked by hand)
    assert offset_difference_check(0)
    assert offset_difference_check(1)


@given(st.integers(min_value=0, max_value=7))
@settings(max_examples=8, deadline=None)
def test_offset_difference_identity_property(d):
    assert offset_difference_check(d)


def test_summation_corollary_fails_on_a_wrong_offset_sum(monkeypatch):
    module = importlib.import_module("p1qcurve.partitions")
    assert summation_corollary_check(2) is True
    exact = module.offset_sum
    monkeypatch.setattr(module, "offset_sum", lambda d: exact(d) + Polynomial([0, int(d == 3)]))
    assert summation_corollary_check(2) is False


def _sum_matches_oracle(kernel, d) -> None:
    assert kernel(d) == offset_sum_termwise(d)


@given(st.integers(0, 9))
@settings(max_examples=10, deadline=None)
def test_offset_sum_matches_the_termwise_oracle(d):
    _sum_matches_oracle(offset_sum, d)


def test_offset_sum_property_detects_a_dropped_rescale():
    """Negative control: a kernel that adds every offset product with weight
    1 over L, not L / H^2, must fail the same property."""
    module = importlib.import_module("p1qcurve.partitions")
    source = textwrap.dedent(inspect.getsource(offset_sum))
    assert source.count("w = den // h2") == 1
    namespace = dict(vars(module))
    exec(source.replace("w = den // h2", "w = 1"), namespace)
    check = settings(database=None, phases=[Phase.generate], deadline=None)(
        given(st.integers(0, 9))(lambda d: _sum_matches_oracle(namespace["offset_sum"], d))
    )
    with pytest.raises(AssertionError):
        check()
