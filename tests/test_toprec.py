"""Tests for the residue-recursion module.

Expected values were frozen after cross-validation against the operator
formalism (the wedge module), which computes the same invariants by a fully
independent route; the one evaluation oracle below re-derives a residue by
brute-force local expansion without any of the engine's tensor bookkeeping.
"""

import hashlib
import inspect
import json
from fractions import Fraction as Frac
from functools import cache

import pytest
from itertools import permutations, product

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from p1qcurve import toprec
from p1qcurve.exactcore import (
    BranchLogError,
    ExactError,
    MultiSeries,
    PoleEvaluationError,
    Polynomial,
    RationalFunction,
    TruncatedSeries,
)
from p1qcurve.toprec import (
    BRANCH_POINTS,
    WGN_BOUND,
    CorrelationForm,
    SMatrix,
    _branch_residues,
    _loc_bergman_local_pair,
    _loc_log_gap,
    _loc_pole,
    _loc_residue_series,
    _loc_slot,
    _pullback,
    _slot_f_series,
    _slot_symmetric,
    _slot_w_series,
    _slotwise,
    _wgn_x_series,
    _wgn_x_simplex,
    eta_function,
    fgn_x_expansion,
    ns_expansion_check,
    primitive_fgn,
    primitive_slot_function,
    s0_s1_closed_forms,
    s_matrix,
    theta_expansion_check,
    toprec_wgn,
)
from oracles import (
    chain_bergman_inv,
    chain_bergman_local_pair,
    chain_kernel_numerator,
    chain_pole,
    chain_pole_inv,
    evaluate_termwise,
    formal_log_gap,
    formal_logs,
    series_branch_residues,
    slot_f_series,
    slot_w_series,
    slotwise,
)

STABLE_PAIRS = [(0, 3), (1, 1), (0, 4), (1, 2), (2, 1)]
# every stable pair the recursion runs to
BOUNDED_PAIRS = [(g, n) for g in range(WGN_BOUND // 2 + 2) for n in range(1, WGN_BOUND + 3)
                 if 0 < 2 * g - 2 + n <= WGN_BOUND]


def _mutant(fn, old: str, new: str):
    """A toprec function with one piece of its source replaced, defined in a
    copy of the module's namespace."""
    source = inspect.getsource(fn)
    assert source.count(old) == 1
    namespace = dict(vars(toprec))
    exec(source.replace(old, new), namespace)
    return namespace[fn.__name__]


# ---------------------------------------------------------------------------
# the recursion: frozen values and structure
# ---------------------------------------------------------------------------


def test_w03_terms_frozen():
    form = toprec_wgn(0, 3)
    triple = lambda a: ((Frac(a), 2),) * 3
    assert dict(form.terms) == {
        triple(1): Frac(-1, 2),
        triple(-1): Frac(-1, 2),
    }


# sha256 of the canonical sorted terms, one "a:j,...=c" line per term
WGN_DIGESTS = {
    (0, 3): "c1c1806ca24b088311632588b7546db2191358281d3d6aca72ed341fea8e7db8",
    (1, 1): "478cb9b66adfeacd750cad86ccb7d36d16488864259354504df15fe9171f04f1",
    (0, 4): "05f1477a0e84552720924beaea7efc98fb683a3fe1937eb0eb00ec7905e326eb",
    (1, 2): "b1e10bb2d7cd58b398c6ace9d8a70e04fa9ff256cae5ae5834aeda503750ebc1",
    (2, 1): "b77a2a2fe156c69dab225e7ec66ae7a75977acc38d333f62be99fe8d4b194761",
    (1, 3): "52304ae870add5397c71818b475a8447195e45d32d24743e4eb87be1fe55398d",
    (0, 5): "b198e9d622ad7f67ef82dc57f0cc2eff66c2b0ef55a28a9178fe814ec4cd699f",
    (2, 2): "dc4118ff64c6bac55504eac814d6b9ee419a527079af4b79716deb86fe2a4536",
    (1, 4): "4014a0980cfc56f6bb5bbe23bda310147dbe8e80b3873aa1b9d7783f57d0ea93",
    (0, 6): "b1f5a6ba5f25e9f737feb4b7662ac5161cdc7ee3448371225423425bc1bac23a",
}


@pytest.mark.parametrize("g,n", WGN_DIGESTS)
def test_wgn_terms_frozen_digest(g, n):
    canonical = "\n".join(
        ",".join(f"{a}:{j}" for a, j in key) + "=" + str(c)
        for key, c in sorted(toprec_wgn(g, n).terms.items())
    )
    assert hashlib.sha256(canonical.encode()).hexdigest() == WGN_DIGESTS[(g, n)]


def _json_digest(series) -> str:
    return hashlib.sha256(json.dumps(series.to_json(), sort_keys=True).encode()).hexdigest()


# sha256 of the sorted-key JSON of fgn_x_expansion(g, n, 8, verify=False) and
# of _wgn_x_series(W_{g,n}, 10): coefficients, vars, min_exps and orders
FGN_X_DIGESTS = {
    (0, 3): "27d472f9faaf8a22e09b3b4e95a4886cd7f2bc56f56400ce01b272043f27f68e",
    (1, 1): "0fcdaeef4dc9f88d5174f2b79da2bc986b24b86f429530cb2e46c6d86ae1e82f",
    (0, 4): "fa33eda539cf3064158ca4598e783d24913b80e34e1c98126ef8d272b71058f4",
    (1, 2): "c3f048d2496d5f53a277320c8c0bdd2477f4b3d7c0b7bed73f8164925a933b72",
    (2, 1): "866029742056418576d9e8661502bc3a97ec06e6937e04b4aec49c354915e36b",
}
WGN_X_DIGESTS = {
    (0, 3): "8e6031c63b682a49ecb39eb00b70f0eabec34c352cc5a899a182ead8ed7af526",
    (1, 1): "042c05aab870e0ed135ea1689497a30ed5e5858796e54856dc3828ac96ecdc69",
    (0, 4): "063dc4e49a7d8361ed520bf0e6842395acfda7747bc05104f9faf8cf9e8d38f7",
    (1, 2): "313db95848e69067fffd44a3dc15f87b8e6f7a53aa870f207698b0d787c7fb90",
    (2, 1): "f34ae742116870954eff5499869cb77bf2496e315f3ee93f19c19e5557e7481a",
}


@pytest.mark.parametrize("g,n", STABLE_PAIRS)
def test_fgn_x_expansion_frozen_digest(g, n):
    assert _json_digest(fgn_x_expansion(g, n, 8, verify=False)) == FGN_X_DIGESTS[(g, n)]


@pytest.mark.parametrize("g,n", STABLE_PAIRS)
def test_wgn_x_series_frozen_digest(g, n):
    assert _json_digest(_wgn_x_series(toprec_wgn(g, n), 10)) == WGN_X_DIGESTS[(g, n)]


@pytest.mark.parametrize("g,n", BOUNDED_PAIRS)
@pytest.mark.parametrize("kind", ["fgn", "wgn"])
def test_x_expansion_record_equals_the_checked_constructor(g, n, kind):
    """The record _x_expansion hands to MultiSeries unchecked per entry is
    the series the public constructor builds from the same data: no entry
    outside the window, none zero, none dropped."""
    terms, slot = ((primitive_fgn(g, n).terms, _slot_f_series) if kind == "fgn"
                   else (toprec_wgn(g, n).terms, _slot_w_series))
    record = toprec._x_expansion(terms, n, 8, lambda a, j: slot(a, j, 8))
    public = MultiSeries(record.vars, record.min_exps, record.orders, record.data)
    assert record.data and record == public and record.min_exps == public.min_exps


def test_complexity_five_gate_reproduces_the_term_digest(monkeypatch):
    """W_{3,1}, run with WGN_BOUND raised to 5, has the term digest of
    ROADMAP.md: the first 16 hex digits of the sha256 of
    repr(sorted((repr(key), str(c)) for key, c in terms))."""
    monkeypatch.setattr(toprec, "WGN_BOUND", 5)
    try:
        form = toprec_wgn(3, 1)
    finally:
        toprec_wgn.__wrapped__.cache_clear()
    canonical = repr(sorted((repr(k), str(c)) for k, c in form.terms.items()))
    assert hashlib.sha256(canonical.encode()).hexdigest()[:16] == "5b8807bf6b33194f"
    monkeypatch.undo()
    with pytest.raises(ExactError, match="exceeds the configured bound"):
        toprec_wgn(3, 1)


SLOT_POLES = [(a, j) for a in BRANCH_POINTS for j in range(2, 13)]


@pytest.mark.parametrize("order", range(13))
def test_slot_f_series_match_the_composed_route(order):
    for a, j in SLOT_POLES:
        series = _slot_f_series(a, j, order)
        assert series.order == order and series == slot_f_series(a, j, order), (a, j)


def test_slot_f_series_check_catches_the_sign_of_a():
    """Negative control: (a z)^k in place of (-a z)^k differs for every odd
    k = j - 1 once the order reaches w^k."""
    wrong = _mutant(_slot_f_series, "(-a * z)", "(a * z)")
    for a, j in SLOT_POLES:
        if j % 2 == 0:
            assert wrong(a, j, 12) != slot_f_series(a, j, 12), (a, j)


@pytest.mark.parametrize("order", [8, 10, 12])
def test_slot_w_series_match_the_unshared_form(order):
    poles = {pole for g, n in STABLE_PAIRS for key in toprec_wgn(g, n).terms for pole in key}
    assert len(poles) == 18
    for a, j in sorted(poles):
        assert _slot_w_series(a, j, order) == slot_w_series(a, j, order), (a, j)


def test_w11_terms_frozen():
    form = toprec_wgn(1, 1)
    expected = {
        ((Frac(1), 2),): Frac(1, 48),
        ((Frac(1), 3),): Frac(-1, 16),
        ((Frac(1), 4),): Frac(-1, 16),
        ((Frac(-1), 2),): Frac(1, 48),
        ((Frac(-1), 3),): Frac(1, 16),
        ((Frac(-1), 4),): Frac(-1, 16),
    }
    assert dict(form.terms) == expected


@pytest.mark.parametrize("g,n", STABLE_PAIRS)
def test_wgn_symmetric(g, n):
    assert toprec_wgn(g, n).is_symmetric()


@pytest.mark.parametrize("g,n", STABLE_PAIRS)
def test_wgn_involution_odd(g, n):
    form = toprec_wgn(g, n)
    assert all(form.involution_check(k) for k in range(n))


def test_involution_check_rejects_perturbed_w11():
    # a double pole is odd on its own; a higher one is odd only in combination
    terms = dict(toprec_wgn(1, 1).terms)
    key = ((Frac(1), 3),)
    terms[key] += 1
    assert not CorrelationForm(1, 1, terms).involution_check(0)


@pytest.mark.parametrize("g,n", STABLE_PAIRS)
def test_wgn_pole_orders_within_budget(g, n):
    orders = toprec_wgn(g, n).pole_orders()
    assert all(2 <= j <= 6 * g - 4 + 2 * n for j in orders)


def test_wgn_rejects_unstable_and_overbudget():
    with pytest.raises(ExactError):
        toprec_wgn(0, 2)
    with pytest.raises(ExactError):
        toprec_wgn(0, 1)
    with pytest.raises(ExactError):
        toprec_wgn(3, 1)


@pytest.mark.parametrize(
    "terms",
    [
        {((1.0, 2),): Frac(1, 2)},  # float label
        {((True, 2),): Frac(1, 2)},  # bool label
        {((Frac(1, 2), 2),): 1},  # label off the branch points
        {((1, 2.0),): 1},  # float pole order
        {((1, True),): 1},  # bool pole order
        {((1, 2),): 0.5},  # float coefficient
        {((1, 2),): True},  # bool coefficient
    ],
)
def test_correlation_form_rejects_inexact_data(terms):
    with pytest.raises(ExactError):
        CorrelationForm(0, 1, terms)


def test_correlation_form_evaluates_exactly():
    for label in (1, Frac(1)):
        value = CorrelationForm(0, 1, {((label, 2),): 1}).evaluate([3])
        assert type(value) is Frac and value == Frac(1, 4)


def test_wgn_memo_holds_one_entry_per_pair():
    # the recursion's inner calls must hit the entries of the public calls;
    # the table sits behind the argument check
    table = toprec_wgn.__wrapped__
    table.cache_clear()
    for g, n in STABLE_PAIRS:
        toprec_wgn(g, n)
    assert table.cache_info().currsize == len(STABLE_PAIRS)


BAD_PAIRS = [(True, 1), (1.0, 1), (Frac(1), 1), (False, 3), (0, 3.0), (0, Frac(3)), (1, True)]


@pytest.mark.parametrize("g,n", BAD_PAIRS)
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_inexact_genus_or_count_raises_before_the_memo_table(g, n, warm):
    """A bool, float or Fraction equals an int key of the memo table; it must
    neither find that entry nor leave an entry of its own."""
    for fn in (toprec_wgn, primitive_fgn):
        fn.__wrapped__.cache_clear()
        if warm:
            fn(1, 1), fn(0, 3)
        with pytest.raises(ExactError):
            fn(g, n)
        assert all(type(form.g) is int and type(form.n) is int
                   for form in (fn(1, 1), fn(0, 3), fn(1, 3)))


@pytest.mark.parametrize("order", [True, 8.0, Frac(8)])
def test_inexact_expansion_order_raises(order):
    with pytest.raises(ExactError):
        fgn_x_expansion(0, 3, order, verify=False)
    with pytest.raises(ExactError):
        ns_expansion_check(1, 1, order)
    # int() of 1.9 is 1: the read must not land on the coefficient of (1, 0, 0)
    with pytest.raises(ExactError):
        fgn_x_expansion(0, 3, 4, verify=False).coefficient((1.9, 0.9, 0.9))
    for g, n in BAD_PAIRS:
        with pytest.raises(ExactError):
            fgn_x_expansion(g, n, 4, verify=False)
        with pytest.raises(ExactError):
            ns_expansion_check(g, n, 4)


@pytest.mark.parametrize("g,n", [(-1, 5), (-1, 6), (2, 0), (3, 0)])
def test_wgn_rejects_a_negative_genus_or_no_points(g, n):
    # each pair has 0 < 2g - 2 + n <= WGN_BOUND
    with pytest.raises(ExactError):
        toprec_wgn(g, n)


@pytest.mark.parametrize("g,n", BOUNDED_PAIRS)
def test_evaluation_matches_the_termwise_oracle(g, n):
    points = [Frac(1, 3), 2, Frac(-2, 7), Frac(5, 2), -3, Frac(7, 4)][:n]
    form = toprec_wgn(g, n)
    value = form.evaluate(points)
    assert type(value) is Frac
    assert value == evaluate_termwise(form, points, lambda a, j, p: 1 / Frac(p - a) ** j)
    if (g, n) in STABLE_PAIRS:
        prim = primitive_fgn(g, n)
        slot = lambda a, j, p: primitive_slot_function(a, j)(p)
        assert prim.evaluate(points) == evaluate_termwise(prim, points, slot)


def test_evaluation_rejects_inexact_points_and_poles():
    form, prim = toprec_wgn(1, 2), primitive_fgn(1, 2)
    for points in ([0.5, Frac(1, 3)], [Frac(1, 3), True], [Frac(1, 3)]):
        for f in (form, prim):
            with pytest.raises(ExactError):
                f.evaluate(points)
    for pole in (1, -1, Frac(-1)):
        for f in (form, prim):
            with pytest.raises(PoleEvaluationError):
                f.evaluate([Frac(1, 3), pole])


def test_odd_under_involution_rejects_the_origin_and_takes_ints():
    prim = primitive_fgn(0, 3)
    with pytest.raises(ExactError):
        prim.odd_under_involution([[Frac(1, 2), 0, Frac(1, 3)]])
    with pytest.raises(ExactError):
        prim.odd_under_involution([[Frac(1, 2), 0.25, Frac(1, 3)]])
    assert prim.odd_under_involution([[2, 3, -5]])


# ---------------------------------------------------------------------------
# branch parity: the a = -1 residues are filled from a = 1
# ---------------------------------------------------------------------------


@cache
def _pieces_and_order(g: int, n: int) -> tuple[list, int]:
    """The recursion pieces of W_{g,n} and the engine's working order."""
    pieces = list(toprec._recursion_pieces(g, n))
    return pieces, max(sum(j for j, _ in local) for _, local, _ in pieces) + toprec._ORDER_MARGIN


def _nonzero(residues: dict) -> dict:
    return {key: c for key, c in residues.items() if c}


@cache
def _direct_minus_one_residues(g: int, n: int) -> dict:
    """The nonzero residues of W_{g,n} at a = -1 from _branch_residues, at
    the engine's working order."""
    pieces, order = _pieces_and_order(g, n)
    return _nonzero(_branch_residues(pieces, n, -1, order))


def _minus_one_terms(form: CorrelationForm) -> dict:
    return {key: c for key, c in form.terms.items() if key[0][0] == -1}


@pytest.mark.parametrize("g,n", BOUNDED_PAIRS)
def test_parity_fill_matches_the_direct_residues(g, n):
    direct = _direct_minus_one_residues(g, n)
    assert direct and _minus_one_terms(toprec_wgn(g, n)) == direct
    assert len(toprec_wgn(g, n).terms) == 2 * len(direct)


@pytest.mark.parametrize("flipped", [2, 3])
def test_parity_check_catches_one_flipped_pole_order(flipped):
    """Negative control: a parity fill that flips the sign of one pole order
    in slot 1 differs from the direct residues wherever that order occurs."""
    wrong = _mutant(toprec_wgn, "(-1) ** sum(j for _, j in key)",
                    f"(-1) ** (sum(j for _, j in key) + (key[0][1] == {flipped}))")
    caught = 0
    for g, n in STABLE_PAIRS:
        direct = _direct_minus_one_residues(g, n)
        if any(key[0][1] == flipped for key in direct):
            assert _minus_one_terms(wrong(g, n)) != direct, (g, n)
            caught += 1
    assert caught >= 3


# ---------------------------------------------------------------------------
# the monomial engine against the series route it replaced
# ---------------------------------------------------------------------------


@cache
def _series_route_residues(g: int, n: int) -> dict:
    pieces, order = _pieces_and_order(g, n)
    return _nonzero(series_branch_residues(pieces, n, 1, order))


@pytest.mark.parametrize("g,n", BOUNDED_PAIRS)
def test_monomial_engine_matches_the_series_route(g, n):
    pieces, order = _pieces_and_order(g, n)
    expected = _series_route_residues(g, n)
    assert expected and _nonzero(_branch_residues(pieces, n, 1, order)) == expected


@pytest.mark.parametrize("fn,old,new", [
    (toprec._loc_slot, "(-a) ** (k + 1)", "a ** (k + 1)"),
    (toprec._loc_residue_series, "q - 1", "q"),
])
def test_engine_comparison_catches_a_wrong_monomial(monkeypatch, fn, old, new):
    """Negative controls: the sign of s = -at/z dropped from the kernel
    numerator, or one factor w too many in S_{p,q}, leaves the series route."""
    monkeypatch.setattr(toprec, fn.__name__, _mutant(fn, old, new))
    wrong = 0
    for g, n in STABLE_PAIRS:
        pieces, order = _pieces_and_order(g, n)
        wrong += _nonzero(_branch_residues(pieces, n, 1, order)) != _series_route_residues(g, n)
    assert wrong >= 3


def test_w03_against_bruteforce_residue_oracle():
    """Re-derive W_{0,3}(2,3,5) by direct local expansion of the recursion
    integrand, with no pole-basis bookkeeping at all."""
    z1, z2, z3 = Frac(2), Frac(3), Frac(5)
    order = 8
    total = Frac(0)
    for a in (Frac(1), Frac(-1)):
        def series_of(f: RationalFunction) -> TruncatedSeries:
            return f.laurent_at(a, order, "t")

        one = Polynomial.one()
        z = Polynomial([0, 1])
        zsq = Polynomial([0, 0, 1])
        x_prime = RationalFunction(zsq - one, zsq)
        # kernel numerator 1/(z - z1) - 1/(1/z - z1)
        n1 = RationalFunction(one, Polynomial.from_roots([z1]))
        # 1/(1/z - z1) = z/(1 - z1 z)
        n2 = RationalFunction(z, one - Frac(z1) * z)
        numer = series_of(n1) - series_of(n2)
        # denominator 2 * (log(1/z) - log z) * x'(z); branch constants cancel,
        # leaving -2 log(1 -+ t) with the sign tied to the branch point
        sgn = 1 if a == 1 else -1
        log_gap = TruncatedSeries.from_function(
            "t", lambda k: Frac(-2 * (-1) ** (k + 1) * sgn**k, k), 1, order
        )
        denom = (2 * log_gap) * series_of(x_prime)
        kern = numer * denom.inverse()
        # bracket: B(z, z2) B(1/z, z3) + B(z, z3) B(1/z, z2)
        jac = series_of(RationalFunction(Polynomial.constant(-1), zsq))

        def b_direct(c):
            return series_of(RationalFunction(one, Polynomial.from_roots([c]) ** 2))

        def b_pullback(c):
            # 1/(1/z - c)^2 = z^2/(1 - c z)^2
            return series_of(RationalFunction(zsq, (one - Frac(c) * z) ** 2)) * jac

        bracket = b_direct(z2) * b_pullback(z3) + b_direct(z3) * b_pullback(z2)
        total += (kern * bracket).coefficient(-1)
    assert total == toprec_wgn(0, 3).evaluate((z1, z2, z3))


@pytest.mark.parametrize("g,n", STABLE_PAIRS)
def test_wgn_too_small_working_order_raises(monkeypatch, g, n):
    """Below the working order the residues need, the engine names the
    branch point and the order instead of returning a wrong form, also at a
    working order of zero or below."""
    form = toprec_wgn(g, n)
    raised = 0
    for margin in range(-6, 4):
        monkeypatch.setattr(toprec, "_ORDER_MARGIN", margin)
        try:
            assert toprec_wgn.__wrapped__.__wrapped__(g, n) == form  # check, table, engine
        except ExactError as exc:
            assert "insufficient at branch point" in str(exc)
            raised += 1
    assert raised


@pytest.mark.parametrize("a", [Frac(1), Frac(-1)])
def test_log_gap_matches_local_expr_oracle(a):
    # the engine's only branch check against the formal-log oracle
    oracle = formal_log_gap(a, 10)
    assert _loc_log_gap(a, 10) == oracle


@pytest.mark.parametrize("a", [Frac(1), Frac(-1)])
def test_log_gap_oracle_rejects_the_other_branch_sign(a):
    # negative control: the closed form with the sign of the other branch point
    oracle = formal_log_gap(a, 10)
    assert _loc_log_gap(-a, 10) != oracle


BRANCH = [Frac(1), Frac(-1)]
TABLE_ORDERS = [10, 18, 26]


def _agrees(table: TruncatedSeries, oracle: TruncatedSeries) -> bool:
    """table equals oracle through the order both are known to."""
    top = min(table.order, oracle.order)
    low = min(table.min_exp, oracle.min_exp)
    return all(table.coefficient(k) == oracle.coefficient(k) for k in range(low, top + 1))


def _expand(monomials, a, order: int) -> TruncatedSeries:
    """sum of c t^m (a + t)^p (2a + t)^q over monomials (c, m, p, q), through
    t^order."""
    total = TruncatedSeries.zero("t", order)
    for c, m, p, q in monomials:
        t = TruncatedSeries.variable("t", order - m)
        total = total + (c * (t + a) ** p * (t + 2 * a) ** q).shift_exponent(m)
    return total


@pytest.mark.parametrize("order", TABLE_ORDERS)
@pytest.mark.parametrize("a", BRANCH)
def test_closed_form_tables_match_the_series_chain(a, order):
    """Every local monomial, expanded as c t^m (a + t)^p (2a + t)^q, equals
    the chain of series inverses and powers the tables were once built by,
    through the order that chain knows (the kernel numerator's chain runs
    past the requested order)."""
    pairs = [([_loc_bergman_local_pair(a)], chain_bergman_local_pair(a, order))]
    for b in BRANCH:
        for j in range(2, 9):
            pairs.append(([_loc_pole(b, j, False, a)], chain_pole(b, j, a, order)))
            pairs.append(([_loc_pole(b, j, True, a)], chain_pole_inv(b, j, a, order)))
    for k in range(0, 9):
        pairs.append((_loc_slot(a, None, k), chain_kernel_numerator(a, k, order)))
        pairs.append((_loc_slot(a, True, k), chain_bergman_inv(a, k, order)))
    for monomials, oracle in pairs:
        table = _expand(monomials, a, order)
        assert oracle.order >= oracle.min_exp  # the chain knows some coefficient
        assert table.order == order
        assert _agrees(table, oracle)


@pytest.mark.parametrize("order", TABLE_ORDERS)
@pytest.mark.parametrize("a", BRANCH)
def test_closed_form_tables_catch_the_wrong_pole_sign(a, order):
    # negative control: a pole monomial at -b never passes for the chain at b
    for b in BRANCH:
        for j in range(2, 9):
            assert not _agrees(_expand([_loc_pole(-b, j, False, a)], a, order),
                               chain_pole(b, j, a, order))
            assert not _agrees(_expand([_loc_pole(-b, j, True, a)], a, order),
                               chain_pole_inv(b, j, a, order))


@pytest.mark.parametrize("a", BRANCH)
def test_residue_series_is_the_residue_against_the_kernel(a):
    """[t^{1-m}] S_{p,q} is [t^-1] of t^m z^p w^q over 2 (y(1/z) - y(z)) x'(z),
    with the gap from the formal-log oracle and x' from laurent_at."""
    order = 14
    x_prime = RationalFunction(Polynomial([-1, 0, 1]), Polynomial([0, 0, 1]))
    x_prime = x_prime.laurent_at(a, order, "t")
    kernel = (2 * formal_log_gap(a, order) * x_prime).inverse()
    for p, q in product(range(-9, 5), range(-6, 3)):
        s = _loc_residue_series(a, p, q, order)
        integrand = _expand([(1, 0, p, q)], a, order) * kernel  # [t^-1] of t^m times it
        assert s.order == order
        assert all(s.coefficient(1 - m) == integrand.coefficient(-1 - m) for m in range(-8, 2))


def test_formal_log_branch_constant_obstructs_lone_log():
    # negative control for the oracle: log z alone keeps L = log(-1) at z = -1
    log_z, log_inv = formal_logs(-1, 10)
    for lone in (log_z, log_inv):
        with pytest.raises(BranchLogError):
            lone.to_series("t")
    # at z = +1 there is no branch constant: log z = log(1 + t)
    log_z, _ = formal_logs(1, 4)
    s = log_z.to_series("t")
    assert [s.coefficient(k) for k in range(5)] == [0, 1, Frac(-1, 2), Frac(1, 3), Frac(-1, 4)]


# ---------------------------------------------------------------------------
# stationary-invariant cross-checks of the expansions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("g,n", STABLE_PAIRS)
def test_ns_expansion_matches_invariants(g, n):
    assert ns_expansion_check(g, n, 6)


@pytest.mark.parametrize("g,n", STABLE_PAIRS)
def test_ns_simplex_matches_the_box_expansion(g, n):
    """The simplex the invariant check compares holds exactly the box
    expansion's coefficients of total degree at most the order."""
    form = toprec_wgn(g, n)
    for total in range(4, 11):
        box = _wgn_x_series(form, total)
        simplex = _wgn_x_simplex(form, total)
        window = [e for e in product(range(total + 1), repeat=n) if sum(e) <= total]
        assert set(simplex) <= set(window)
        assert all(simplex.get(e, 0) == box.coefficient(e) for e in window)
    assert simplex  # at total order 10 every pair has a coefficient there


@pytest.mark.parametrize("g,n", STABLE_PAIRS)
def test_ns_expansion_rejects_a_perturbed_form(monkeypatch, g, n):
    # negative control: one coefficient of W_{g,n} off by 1 fails the check
    form = toprec_wgn(g, n)
    terms = dict(form.terms)
    key = min(terms)
    terms[key] += 1
    monkeypatch.setattr(toprec, "toprec_wgn", lambda g, n: CorrelationForm(g, n, terms))
    assert not ns_expansion_check(g, n, 10)
    monkeypatch.setattr(toprec, "toprec_wgn", lambda g, n: form)
    assert ns_expansion_check(g, n, 10)


def test_ns_expansion_rejects_a_negative_order():
    with pytest.raises(ExactError):
        ns_expansion_check(0, 3, -1)


def test_fgn_expansion_rejects_a_negative_order():
    with pytest.raises(ExactError):
        fgn_x_expansion(0, 3, -1)


# ---------------------------------------------------------------------------
# transition matrices
# ---------------------------------------------------------------------------


def test_s_matrix_low_orders():
    assert s_matrix(0).entries == ((1, 0), (0, 1))
    assert s_matrix(1).entries == ((0, 0), (1, 0))
    assert s_matrix(2).entries == ((-1, 0), (0, 1))
    assert s_matrix(3).entries == ((0, -2), (Frac(1, 2), 0))
    assert s_matrix(4).entries == ((Frac(-5, 4), 0), (0, Frac(1, 4)))


def test_s_matrix_parity_structure():
    for k in range(1, 12):
        m = s_matrix(k)
        if k % 2 == 0:
            assert m.entry(1, 2) == 0 and m.entry(2, 1) == 0
        else:
            assert m.entry(1, 1) == 0 and m.entry(2, 2) == 0


def test_s_matrix_rejects_negative():
    with pytest.raises(ExactError):
        s_matrix(-1)


@pytest.mark.parametrize("bad", [True, 2.0, Frac(2)], ids=["bool", "float", "Fraction"])
@pytest.mark.parametrize(
    "fn, args",
    [(s_matrix, (2,)), (theta_expansion_check, (1, 0, 4)), (s0_s1_closed_forms, (4,)),
     (eta_function, (1, 2))],
    ids=["s_matrix", "theta_expansion_check", "s0_s1_closed_forms", "eta_function"],
)
def test_entry_points_take_only_integers(fn, args, bad):
    # the good call fills the memo tables; a bool, float or Fraction equal
    # to a good argument must still be refused, in every position
    fn(*args)
    for pos in range(len(args)):
        with pytest.raises(ExactError, match="must be an integer"):
            fn(*args[:pos], bad, *args[pos + 1 :])


# ---------------------------------------------------------------------------
# the rational primitives eta(mu, d)
# ---------------------------------------------------------------------------


def test_eta_base_closed_forms():
    one = Polynomial.one()
    z = Polynomial([0, 1])
    den = one - z * z
    assert eta_function(1, 0) == RationalFunction(one, den) - RationalFunction.constant(
        Frac(1, 2)
    )
    assert eta_function(2, 0) == RationalFunction(z, den)


def test_eta_level_one_explicit():
    # applying -d/dx once: eta(1,1) = -2 z^3/(z^2-1)^3
    z = Polynomial([0, 1])
    one = Polynomial.one()
    expected = RationalFunction(-2 * z**3, (z * z - one) ** 3)
    assert eta_function(1, 1) == expected


@pytest.mark.parametrize("i", [1, 2])
@pytest.mark.parametrize("d", range(0, 7))
def test_eta_odd_under_involution(i, d):
    eta = eta_function(i, d)
    assert eta.reciprocal_substitution() == -eta


@pytest.mark.parametrize("i", [1, 2])
@pytest.mark.parametrize("d", range(0, 3))
def test_theta_expansion_both_forms(i, d):
    assert theta_expansion_check(i, d, 8)


@pytest.mark.parametrize("i", [1, 2])
def test_theta_expansion_at_low_order_gives_a_verdict(i):
    """Every order up to 6 gives a verdict, also where d >= order and the
    truncated expansion is zero, instead of raising."""
    for order in range(0, 7):
        for d in range(0, 5):
            assert theta_expansion_check(i, d, order) is True


def test_theta_expansion_catches_a_wrong_transition_matrix(monkeypatch):
    assert theta_expansion_check(1, 0, 12) is True
    exact = toprec.s_matrix

    def doubled_at_three(k):
        m = exact(k)
        return SMatrix(k, tuple(tuple(2 * e for e in row) for row in m.entries)) if k == 3 else m

    monkeypatch.setattr(toprec, "s_matrix", doubled_at_three)
    assert theta_expansion_check(1, 0, 12) is False
    # index 2 reads the zero entry (2, 2) of the odd order 3
    assert theta_expansion_check(2, 0, 12) is True


def test_theta_expansion_residue_form_catches_a_wrong_differential(monkeypatch):
    # the coefficient form does not read x'(z); with it doubled only the
    # residue form can fail
    assert theta_expansion_check(1, 0, 6) is True
    monkeypatch.setattr(toprec, "_XPRIME", toprec._XPRIME * 2)
    assert theta_expansion_check(1, 0, 6) is False


def test_theta_rejects_bad_index():
    with pytest.raises(ExactError):
        eta_function(0, 1)


# ---------------------------------------------------------------------------
# primitives of the stable forms
# ---------------------------------------------------------------------------


def test_fgn_x_expansion_verify_raises_on_a_wrong_slot_series(monkeypatch):
    fgn_x_expansion(0, 3, 4)
    exact = toprec._slot_f_series
    monkeypatch.setattr(toprec, "_slot_f_series", lambda a, j, order: 2 * exact(a, j, order))
    with pytest.raises(ExactError, match=r"primitive expansion mismatch at exponents \(0, 0, 1\): "
                       "series has -2, invariants give -1/4"):
        fgn_x_expansion(0, 3, 4)


def test_slot_function_rejects_simple_pole():
    with pytest.raises(ExactError):
        primitive_slot_function(Frac(1), 1)


@pytest.mark.parametrize("a, j", [(1, 3.0), (1, Frac(3)), (1, True), (True, 3), (1.0, 3)])
def test_slot_function_takes_an_exact_pole_and_an_int_order(a, j):
    # the good call fills the memo table, which a bool or float equal to an
    # argument of it would find
    primitive_slot_function(1, 3)
    with pytest.raises(ExactError, match="must be an integer|is not an int or a Fraction"):
        primitive_slot_function(a, j)


def test_slot_function_skew_and_regular():
    h = primitive_slot_function(Frac(1), 3)
    assert h.reciprocal_substitution() == -h
    assert h(Frac(0)) is not None  # regular at the origin
    # regular at infinity: numerator degree bounded by denominator degree
    assert (h.num.degree or 0) <= (h.den.degree or 0)


@pytest.mark.parametrize("g,n", STABLE_PAIRS)
def test_primitive_origin_and_derivative(g, n):
    prim = primitive_fgn(g, n)
    assert prim.origin_vanishes()
    assert prim.derivative_recovery_check()


@pytest.mark.parametrize("g,n", STABLE_PAIRS)
def test_primitive_odd_under_involution(g, n):
    prim = primitive_fgn(g, n)
    pts = [
        [Frac(1, 3), Frac(2, 5), Frac(3, 4), Frac(5, 9)][:n],
        [Frac(-2, 7), Frac(4, 9), Frac(-1, 6), Frac(7, 10)][:n],
    ]
    assert prim.odd_under_involution(pts)


@given(st.fractions(min_value=Frac(1, 20), max_value=Frac(9, 10), max_denominator=60))
@settings(max_examples=40, deadline=None)
def test_primitive_f11_skew_property(zval):
    prim = primitive_fgn(1, 1)
    assert prim.evaluate([1 / zval]) == -prim.evaluate([zval])


def test_fgn_expansion_verified_coefficients():
    series = fgn_x_expansion(1, 1, 8)
    # frozen against the operator formalism: the w-coefficient is
    # -0! * (-1) * <tau_0> = 1/24, and w^3 carries -2! * <tau_2> = -1/12
    assert series.coefficient((0,)) == 0
    assert series.coefficient((1,)) == Frac(1, 24)
    assert series.coefficient((3,)) == Frac(-1, 12)
    assert series.coefficient((4,)) == 0


@pytest.mark.parametrize("g,n,order", [(0, 3, 5), (0, 4, 4), (1, 2, 5), (2, 1, 8)])
def test_fgn_expansion_runs_verified(g, n, order):
    fgn_x_expansion(g, n, order)  # raises on any mismatch


# ---------------------------------------------------------------------------
# integer contraction and exact types
# ---------------------------------------------------------------------------


def _exact_scalar(x) -> bool:
    return type(x) in (int, Frac)


def test_branch_labels_and_coefficients_stay_exact():
    """Checked by type: an int label to a negative power is a float, and a
    float compares equal to the Fraction it approximates."""
    assert all(type(a) is int for a in BRANCH_POINTS)
    for a in BRANCH_POINTS:
        for j in range(2, 11):
            for (b, k), w in _pullback(a, j).items():
                assert type(b) is int and type(k) is int and _exact_scalar(w), (a, j)
    pairs = [(g, n) for g in range(WGN_BOUND // 2 + 2) for n in range(1, WGN_BOUND + 3)
             if 0 < 2 * g - 2 + n <= WGN_BOUND]
    assert len(pairs) == 10
    for g, n in pairs:
        for key, c in toprec_wgn(g, n).terms.items():
            assert all(type(a) is int and type(j) is int for a, j in key), (g, n, key)
            assert _exact_scalar(c), (g, n, key)
    for g, n in STABLE_PAIRS:
        data = fgn_x_expansion(g, n, 6, verify=False).data
        assert data and all(_exact_scalar(c) for c in data.values()), (g, n)


slot_scalars = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-40, max_value=40, max_denominator=30),
)


@st.composite
def slotwise_inputs(draw):
    """(terms, n, images): terms of arity 1..4 over items 0..2 with
    mixed-denominator, integer and zero coefficients, and an image map
    (slot, item) -> {label: weight} that may hold zero weights."""
    n = draw(st.integers(1, 4))
    items = st.integers(0, 2)
    terms = draw(st.dictionaries(st.tuples(*[items] * n), slot_scalars, max_size=8))
    images = {
        (k, item): draw(st.dictionaries(st.integers(-2, 3), slot_scalars, min_size=1, max_size=4))
        for k in range(n)
        for item in range(3)
    }
    return terms, n, images


def _slotwise_matches_oracle(kernel, inputs) -> None:
    terms, n, images = inputs
    slot_map = lambda k, item: images[(k, item)]
    got = kernel(terms, n, slot_map)
    assert all(_exact_scalar(c) and c for c in got.values())
    assert got == slotwise(terms, n, slot_map)


@given(slotwise_inputs())
@settings(max_examples=150, deadline=None)
@example(({(0, 1): Frac(1, 6), (1, 1): Frac(-3, 4), (2, 0): 0}, 2,
          {(k, i): {0: Frac(2, 3), 1: 0, 2: Frac(-5, 2)} for k in range(2) for i in range(3)}))
def test_slotwise_matches_the_fraction_oracle(inputs):
    _slotwise_matches_oracle(_slotwise, inputs)


@pytest.mark.parametrize(
    "old,new",
    [
        ("c.numerator * (den // c.denominator)", "c.numerator"),
        ("den *= slot_den", "den *= slot_den if k else 1"),
    ],
    ids=["term-rescale-skipped", "first-slot-denominator-dropped"],
)
def test_slotwise_property_detects_a_wrong_kernel(old, new):
    """Negative control: the same property with a faulty kernel must fail."""
    wrong = _mutant(_slotwise, old, new)
    check = settings(database=None, phases=[Phase.generate], deadline=None)(
        given(slotwise_inputs())(lambda inputs: _slotwise_matches_oracle(wrong, inputs))
    )
    with pytest.raises(AssertionError):
        check()


@st.composite
def symmetric_slotwise_inputs(draw):
    """(terms, n, image, total): a term map of arity 1..4 over items 0..2,
    symmetrised by giving every permutation of a key the coefficient of its
    sorted form, one slot-independent image item -> {int label: weight},
    and an optional bound on the label sum."""
    n = draw(st.integers(1, 4))
    items = st.integers(0, 2)
    orbits = draw(st.dictionaries(st.tuples(*[items] * n).map(lambda key: tuple(sorted(key))),
                                  slot_scalars, max_size=6))
    terms = {perm: c for key, c in orbits.items() for perm in permutations(key)}
    image = {
        item: draw(st.dictionaries(st.integers(-2, 5), slot_scalars, min_size=1, max_size=5))
        for item in range(3)
    }
    return terms, n, image, draw(st.none() | st.integers(-4, 12))


def _symmetric_matches_full(kernel, inputs) -> None:
    """The sorted contraction with its permutation fill equals the unpruned
    one, restricted to the label-sum bound."""
    terms, n, image, total = inputs
    slot_map = lambda _, item: image[item]
    got = kernel(terms, n, slot_map, symmetric=True, total=total)
    full = _slotwise(terms, n, slot_map)
    assert got == {e: c for e, c in full.items() if total is None or sum(e) <= total}


@given(symmetric_slotwise_inputs())
@settings(max_examples=150, deadline=None)
@example(({(0, 0, 1): Frac(1, 3), (0, 1, 0): Frac(1, 3), (1, 0, 0): Frac(1, 3)}, 3,
          {0: {0: 1, 1: Frac(-1, 2)}, 1: {0: 2, 1: 3}, 2: {0: 1}}, 2))
def test_symmetric_slotwise_matches_the_full_contraction(inputs):
    _symmetric_matches_full(_slotwise, inputs)


@pytest.mark.parametrize(
    "old,new",
    [
        ("lo <= label", "lo < label"),
        ("for perm in set(permutations(done))", "for perm in [done]"),
    ],
    ids=["repeated-labels-dropped", "permutation-fill-dropped"],
)
def test_symmetric_property_detects_a_wrong_kernel(old, new):
    """Negative control: the same property with a faulty pruning or fill
    must fail."""
    wrong = _mutant(_slotwise, old, new)
    check = settings(database=None, phases=[Phase.generate], deadline=None)(
        given(symmetric_slotwise_inputs())(lambda inputs: _symmetric_matches_full(wrong, inputs))
    )
    with pytest.raises(AssertionError):
        check()


@given(slotwise_inputs() | symmetric_slotwise_inputs())
@settings(max_examples=150, deadline=None)
def test_slot_symmetry_generators_match_every_permutation(inputs):
    """The two-generator test agrees with invariance under all of S_n."""
    terms, n = inputs[:2]
    nonzero = {key: c for key, c in terms.items() if c}
    assert _slot_symmetric(terms, n) == all(
        {tuple(key[i] for i in perm): c for key, c in nonzero.items()} == nonzero
        for perm in permutations(range(n))
    )


def test_symmetric_contraction_rejects_an_asymmetric_term_map():
    """Negative control: a term map that is not invariant under a slot
    permutation raises instead of being filled from its sorted tuples."""
    slot_map = lambda _, item: {item: Frac(1)}
    with pytest.raises(ExactError):
        _slotwise({(0, 1): Frac(1)}, 2, slot_map, symmetric=True)
    # invariant under the swap of slots 1 and 2, not under the 3-cycle
    with pytest.raises(ExactError):
        _slotwise({(0, 0, 1): Frac(1)}, 3, slot_map, symmetric=True)
    terms = dict(toprec_wgn(1, 2).terms)
    key = next(key for key in terms if len(set(key)) > 1)
    terms[key] += 1
    assert not CorrelationForm(1, 2, terms).is_symmetric()
    with pytest.raises(ExactError):
        _wgn_x_simplex(CorrelationForm(1, 2, terms), 6)
    with pytest.raises(ExactError):
        _wgn_x_series(CorrelationForm(1, 2, terms), 6)


def test_residue_tables_stop_at_the_deepest_read(monkeypatch):
    """After a cold toprec_wgn on every stable pair, each S_{p,q} table the
    engine read is exactly as long as the deepest coefficient read from it."""
    tables: dict[int, TruncatedSeries] = {}
    deepest: dict[int, int] = {}
    build, read = toprec._loc_residue_series, TruncatedSeries.coefficient

    def recording_build(*args):
        table = build(*args)
        tables[id(table)] = table
        return table

    def recording_read(self, k):
        if id(self) in tables:
            deepest[id(self)] = max(deepest.get(id(self), k), k)
        return read(self, k)

    monkeypatch.setattr(toprec, "_loc_residue_series", recording_build)
    monkeypatch.setattr(TruncatedSeries, "coefficient", recording_read)
    toprec_wgn.__wrapped__.cache_clear()
    for g, n in STABLE_PAIRS:
        toprec_wgn(g, n)
    assert deepest
    assert all(tables[i].order == k for i, k in deepest.items())


# ---------------------------------------------------------------------------
# unstable closed forms
# ---------------------------------------------------------------------------


def test_s0_s1_closed_forms():
    assert s0_s1_closed_forms(10)


def test_s0_s1_closed_forms_catches_a_wrong_one_point_series(monkeypatch):
    assert s0_s1_closed_forms(12) is True
    exact = toprec._one_point_closed_form
    monkeypatch.setattr(toprec, "_one_point_closed_form",
                        lambda order: exact(order) + TruncatedSeries.monomial("w", 3, 1, order))
    assert s0_s1_closed_forms(12) is False
