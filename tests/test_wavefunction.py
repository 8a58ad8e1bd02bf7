"""Tests for the wave-function assembly and difference-operator checks.

Oracles used here:

* the Bernoulli prefactor is recomputed by inverting the series
  (e^t - 1)/t = sum t^m/(m+1)! independently of the recurrence;
* shifted forms are recomputed monomial by monomial from the literal
  rewrite log(x + m*hbar) = log x + sum_j (-1)^(j+1) (m hbar/x)^j / j together
  with binomial expansions of (x + m*hbar)^(-i), and by the Taylor chain of
  ``oracles.taylor_shift_form``, independently of the series substitution;
* the unit-insertion reduction is tested against the multinomial kernel
  sum over distributions (property test);
* degree blocks are compared against the closed rational functions of
  qcurve (that comparison *is* the production check; here we freeze a few
  coefficients so a regression cannot pass silently).
"""

import inspect
import math
from fractions import Fraction as Frac

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from p1qcurve import toprec, wedge
from p1qcurve import wavefunction as wf
from p1qcurve.exactcore import (
    ExactError,
    Polynomial,
    RationalFunction,
    TruncatedSeries,
)
from p1qcurve.qcurve import x_partition
from p1qcurve.wavefunction import (
    LogLaurentForm,
    apply_laurent_operator,
    bernoulli_number,
    bernoulli_operator,
    build_degree_graded_x,
    conjugation_check,
    qce_verification,
    semiclassical_check,
    shift_form,
    theta_resummation_check,
    toda_specialization_check,
)
from p1qcurve.wedge import stationary_invariant, unit_insertions

from oracles import (
    MonomialForm,
    block_value_by_fractions,
    degree_block_by_fractions,
    diagonal_form,
    form_derivative,
    taylor_shift_form,
)


# ---------------------------------------------------------------------------
# Bernoulli numbers and the prefactor
# ---------------------------------------------------------------------------


def test_bernoulli_numbers_frozen():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Frac(-1, 2)
    assert bernoulli_number(2) == Frac(1, 6)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(4) == Frac(-1, 30)
    assert bernoulli_number(12) == Frac(-691, 2730)


def test_bernoulli_numbers_match_series_inversion():
    # (e^t - 1)/t has coefficients 1/(m+1)!; its reciprocal is B(t) = sum B_m t^m/m!
    order = 12
    denom = TruncatedSeries.from_function(
        "t", lambda m: Frac(1, math.factorial(m + 1)), 0, order
    )
    inv = denom.inverse()
    for m in range(order + 1):
        assert inv.coefficient(m) == Frac(bernoulli_number(m), math.factorial(m))


def test_apply_laurent_operator_single_terms():
    # a = 1/t -> (x - x log x)/hbar
    a = TruncatedSeries("t", -1, [1, 0, 0, 0], 2)
    assert apply_laurent_operator(a, 2).terms == {(-1, -1, 0): 1, (-1, -1, 1): -1}
    # a = 1 -> log x
    a = TruncatedSeries("t", -1, [0, 1, 0, 0], 2)
    assert apply_laurent_operator(a, 2).terms == {(0, 0, 1): 1}
    # a = t^2 -> -1! hbar^2 / x^2
    a = TruncatedSeries("t", -1, [0, 0, 0, 1], 2)
    assert apply_laurent_operator(a, 2).terms == {(2, 2, 0): -1}


def test_apply_laurent_operator_rejects_deep_poles():
    a = TruncatedSeries("t", -2, [1, 0, 0, 0], 1)
    with pytest.raises(ExactError):
        apply_laurent_operator(a, 1)


def test_bernoulli_operator_expansion():
    terms = bernoulli_operator(8).terms
    assert {k: c for k, c in terms.items() if k[1] == -1} == {(-1, -1, 0): 1, (-1, -1, 1): -1}
    assert {k: c for k, c in terms.items() if k[1] != -1 and k[2]} == {(0, 0, 1): Frac(-1, 2)}
    assert terms[(1, 1, 0)] == Frac(-1, 12)
    assert (2, 2, 0) not in terms
    assert terms[(3, 3, 0)] == Frac(1, 360)
    assert (4, 4, 0) not in terms
    assert terms[(5, 5, 0)] == Frac(-1, 1260)
    # every other monomial sits on the hbar = 1/x diagonal
    assert all(p == i for (p, i, l) in terms if i != -1 and not l)


def test_bernoulli_operator_against_direct_coefficients():
    order = 10
    form = bernoulli_operator(order)
    for i in range(1, order + 1):
        expected = -Frac(bernoulli_number(i + 1), math.factorial(i + 1)) * math.factorial(i - 1)
        assert form.terms.get((i, i, 0), Frac(0)) == expected


# ---------------------------------------------------------------------------
# Derivative and shift engine
# ---------------------------------------------------------------------------


def test_form_derivative_rules():
    # (x - x log x)/hbar + 3 hbar^2 log x + 5 hbar x^{-4} + 7x
    form = MonomialForm(
        {(-1, -1, 0): 1, (-1, -1, 1): -1, (2, 0, 1): 3, (1, 4, 0): 5, (0, -1, 0): 7}, 6
    )
    # -(log x)/hbar; log x at hbar^2 -> 3/x at hbar^2; x^{-4} -> -20 x^{-5}; 7x -> 7
    assert form_derivative(form).terms == {
        (-1, 0, 1): -1, (2, 1, 0): 3, (1, 5, 0): -20, (0, 0, 0): 7,
    }


def _shift_oracle(form, m, order: int) -> MonomialForm:
    """Shift by literal substitution, independent of the Taylor chain and of
    the series substitution.

    Each monomial hbar^p x^{-i} (log x)^l becomes hbar^p (x + m hbar)^{-i}
    (log x + lambda)^l, with the binomial expansion

        (x + m hbar)^{-i} = sum_k C(i-1+k, k) (-m)^k hbar^k x^{-(i+k)}

    (x + m hbar and 1 for i = -1 and 0) and
    lambda = log(1 + m hbar/x) = sum_j (-1)^(j+1) (m hbar/x)^j / j.
    """
    m = Frac(m)
    out: dict[tuple[int, int, int], Frac] = {}
    for (p, i, l), c in form.terms.items():
        room = order - p
        if i <= 0:
            power = {(0, -1): Frac(1), (1, 0): m} if i else {(0, 0): Frac(1)}
        else:
            power = {(k, i + k): math.comb(i - 1 + k, k) * (-m) ** k for k in range(room + 1)}
        log_part = {(0, 0, l): Frac(1)}
        if l:
            log_part.update({(j, j, 0): (-1) ** (j + 1) * m**j / j for j in range(1, room + 1)})
        for (dp, di), a in power.items():
            for (ep, ei, el), b in log_part.items():
                key = (p + dp + ep, di + ei, el)
                if key[0] <= order:
                    out[key] = out.get(key, Frac(0)) + c * a * b
    return MonomialForm(out, order)


@pytest.mark.parametrize("m", [1, -1, 2, Frac(1, 2)])
def test_shift_form_matches_literal_substitution(m):
    order = 8
    for form in (
        bernoulli_operator(order),
        diagonal_form({(0, -1, 0): -1, (0, -1, 1): 1}, order),  # the (0,1,0) block
    ):
        assert shift_form(form, m, order).terms == _shift_oracle(form, m, order).terms


@pytest.mark.parametrize("m", [1, -1, 3])
def test_shift_form_on_pure_tail(m):
    # f = x^{-2} at hbar^0: shift must match the binomial expansion
    order = 7
    form = diagonal_form({(0, 2, 0): Frac(1)}, order)
    got = shift_form(form, m, order)
    for l in range(order + 1):
        assert got.terms.get((l, 2 + l, 0), Frac(0)) == math.comb(1 + l, l) * Frac((-m) ** l)


SHIFTS = [0, 1, -1, 2, -2, Frac(1, 2), Frac(-1, 2), Frac(-3, 5)]


@st.composite
def diagonal_terms(draw):
    """A monomial map on one diagonal c in -1..4 and its hbar-order 0..10;
    the powers of hbar run from -1 (from 0 for c = -1, where i = c + p must
    stay >= -1), as far down as the Taylor chain reaches."""
    c = draw(st.integers(-1, 4))
    order = draw(st.integers(0, 10))
    keys = [(p, c + p, l) for p in range(max(-1, -1 - c), order + 1) for l in (0, 1)]
    coefficients = st.fractions(-3, 3, max_denominator=4).filter(bool)
    return draw(st.dictionaries(st.sampled_from(keys), coefficients, max_size=6)), order


def _shift_agrees(shift, terms, order, m) -> None:
    got = shift(diagonal_form(terms, order), m, order).terms
    form = MonomialForm(terms, order)
    assert got == taylor_shift_form(form, m, order).terms
    assert got == _shift_oracle(form, m, order).terms


@settings(max_examples=150, deadline=None)
@given(diagonal_terms(), st.sampled_from(SHIFTS))
def test_shift_form_matches_the_taylor_chain_and_the_substitution(case, m):
    _shift_agrees(shift_form, *case, m)


def _mutant(fn, old: str, new: str):
    """``fn`` with one piece of its source replaced, defined in a copy of the
    module's namespace."""
    source = inspect.getsource(fn)
    assert source.count(old) == 1
    namespace = dict(vars(wf))
    exec(source.replace(old, new), namespace)
    return namespace[fn.__name__]


@pytest.mark.parametrize(
    "old, new",
    [("weight = s ** -form.c", "weight = s ** 0"), (" + b * series_log(s)", "")],
    ids=["no-weight", "no-log-s"],
)
def test_shift_property_detects_a_wrong_substitution(old, new):
    wrong = _mutant(shift_form, old, new)
    check = settings(database=None, phases=[Phase.generate], deadline=None)(
        given(diagonal_terms(), st.sampled_from(SHIFTS))(
            lambda case, m: _shift_agrees(wrong, *case, m)
        )
    )
    with pytest.raises(AssertionError):
        check()


def test_log_laurent_form_lives_on_one_diagonal():
    form = bernoulli_operator(4)
    assert (form.c, form.order) == (0, 4)
    assert (form - form).terms == {}
    with pytest.raises(TypeError):
        form.terms[(0, 0, 1)] = 1
    with pytest.raises(TypeError):
        hash(form)
    with pytest.raises(ExactError, match="diagonals"):
        form + diagonal_form({(0, 2, 0): 1}, 4)
    # x^2 is i = -2, below the span
    with pytest.raises(ExactError):
        LogLaurentForm(-2, TruncatedSeries.constant("r", 1, 3), TruncatedSeries.zero("r", 3))
    with pytest.raises(ExactError):
        LogLaurentForm(0, TruncatedSeries.zero("r", 3), TruncatedSeries.zero("r", 2))


def test_shift_difference_is_diagonal_with_log():
    order = 8
    form = bernoulli_operator(order)
    for m in (1, -1):
        terms = (shift_form(form, m, order) - form).terms
        assert all(i != -1 for (_, i, _) in terms)
        assert {k: c for k, c in terms.items() if k[2]} == {(0, 0, 1): -m}
        assert all(p == i for (p, i, l) in terms if not l)
        # no constant term survives at hbar^0
        assert (0, 0, 0) not in terms


# ---------------------------------------------------------------------------
# Conjugation identities
# ---------------------------------------------------------------------------


def test_conjugation_check_passes():
    assert conjugation_check(6) is True


def test_conjugation_check_rejects_bad_kmax():
    with pytest.raises(ExactError):
        conjugation_check(0)


def test_shift_difference_exponentials_are_the_weights():
    # exp(A(x+h) - A(x)) = 1/(x+h) and exp(A(x-h) - A(x)) = x, as r-series
    from p1qcurve.wavefunction import _exp_of_difference

    order = 10
    form = bernoulli_operator(order)
    xpow, series = _exp_of_difference(shift_form(form, 1, order) - form)
    assert xpow == -1
    assert [series.coefficient(l) for l in range(order + 1)] == [
        Frac((-1) ** l) for l in range(order + 1)
    ]
    xpow, series = _exp_of_difference(shift_form(form, -1, order) - form)
    assert xpow == 1
    assert [series.coefficient(l) for l in range(order + 1)] == [Frac(1)] + [Frac(0)] * order
    # the prefactor itself carries (log x)/hbar: not k log x
    with pytest.raises(ExactError):
        _exp_of_difference(form)


# ---------------------------------------------------------------------------
# Unit-insertion resummation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gnd", [(0, 1, 0), (1, 1, 0), (0, 1, 1), (0, 2, 1), (1, 1, 1)])
def test_theta_resummation(gnd):
    g, n, d = gnd
    assert theta_resummation_check(g, n, d, 6) is True


def test_theta_010_block_values():
    from p1qcurve.wavefunction import _theta_definition, _theta_shifted

    block = _theta_definition(0, 1, 0, 6)
    assert {k: c for k, c in block.terms.items() if k[1] == -1} == {(0, -1, 0): -1, (0, -1, 1): 1}
    assert {k: c for k, c in block.terms.items() if k[1] != -1 and k[2]} == {(1, 0, 1): Frac(1, 2)}
    assert block.terms[(2, 1, 0)] == Frac(1, 8)
    assert block.terms[(3, 2, 0)] == Frac(-1, 48)
    assert _theta_shifted(0, 1, 0, 6) == block


def test_theta_011_shifted_is_geometric():
    # degree 1, one point: the block is 1/(x + hbar/2)
    from p1qcurve.wavefunction import _theta_shifted

    block = _theta_shifted(0, 1, 1, 8)
    assert all(i != -1 and not l for (_, i, l) in block.terms)
    for l in range(9):
        assert block.terms.get((l, 1 + l, 0), Frac(0)) == Frac((-1) ** l, 2**l)


@settings(max_examples=60, deadline=None)
@given(
    g=st.integers(min_value=0, max_value=2),
    d=st.integers(min_value=0, max_value=2),
    k=st.integers(min_value=1, max_value=3),
    b=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3),
)
def test_multinomial_kernel_property(g, d, k, b):
    """The k-fold unit-insertion correlator equals the multinomial-weighted
    sum of stationary correlators with the exponents lowered in all ways:
    <tau_0(1)^k prod tau_{b_i}(omega)> =
        sum_{c_1+...+c_n=?} k!/(c_1!...c_n!) <prod tau_{b_i - c_i}(omega)>
    where each c_i >= 0 and the dimension constraint picks the one valid
    total lowering.  Off-dimension inputs give zero on both sides."""
    b = tuple(b)
    n = len(b)
    lhs = unit_insertions(g, n, k, d, b)

    def lowered(c):
        value = stationary_invariant(g, n, d, tuple(bi - ci for bi, ci in zip(b, c)))
        weight = Frac(math.factorial(k))
        for ci in c:
            weight /= math.factorial(ci)
        return weight * value

    rhs = Frac(0)
    stack = [(0, k, ())]
    while stack:
        pos, rem, acc = stack.pop()
        if pos == n - 1:
            c = acc + (rem,)
            if all(ci <= bi + 2 for ci, bi in zip(c, b)):
                rhs += lowered(c)
            continue
        for ci in range(min(rem, b[pos] + 2) + 1):
            stack.append((pos + 1, rem - ci, acc + (ci,)))
    assert lhs == rhs


def test_theta_grading_guard_catches_off_diagonal_data(monkeypatch):
    # the block assembler asserts the dimension diagonal instead of trusting
    # it: a correlator source that returns nonzero off-dimension must raise
    monkeypatch.setattr(wf, "unit_insertions", lambda *args: Frac(1))
    with pytest.raises(ExactError, match="grading violation"):
        wf._theta_definition(1, 1, 1, 4)


def test_theta_resummation_two_point_block():
    assert theta_resummation_check(1, 2, 1, 5) is True


# ---------------------------------------------------------------------------
# Degree-graded comparison
# ---------------------------------------------------------------------------


def test_build_degree_graded_x_small():
    result = build_degree_graded_x(2, 8)
    assert bool(result) is True
    assert result.disagreements == ()
    x1 = result.entries[1].geometric
    # u/(u+1) = 1 - 1/u + 1/u^2 - ...
    for j in range(9):
        assert x1.coefficient(j) == Frac((-1) ** j)
    # degree-0 entry is the constant 1
    x0 = result.entries[0].geometric
    assert x0.coefficient(0) == 1
    assert all(x0.coefficient(j) == 0 for j in range(1, 9))


def test_build_degree_graded_x_leading_values():
    # X_d(u -> infinity) = sum over partitions of d of 1/(product of hooks)^2
    result = build_degree_graded_x(4, 8)
    for d, lead in [(1, Frac(1)), (2, Frac(1, 2)), (3, Frac(1, 6)), (4, Frac(1, 24))]:
        assert result.entries[d].geometric.coefficient(0) == lead
    # and they match the rational functions evaluated along the expansion
    for d in range(5):
        expansion = x_partition(d).series_at_infinity(8, "uinv")
        for j in range(9):
            assert result.entries[d].geometric.coefficient(j) == expansion.coefficient(j)


def _assembled_block(theta, d, order):
    """The degree-d block as it was assembled before its half-step shift
    took a closed form: sum_{g,n} (-1)^n / n! times each term of the block
    form theta(g, n, d, order - lead), placed at w^i from its x^-i."""
    out = [Frac(0)] * (order + 1)
    if d == 1:
        out[0] += stationary_invariant(0, 1, 1, (0,))
    g = 0
    while 2 * g - 1 + 2 * d <= order:
        for n in range(1, order + 1):
            lead = 2 * g - 2 + n + 2 * d
            if lead > order:
                break
            for (_, i, _), c in theta(g, n, d, order - lead).terms.items():
                out[i] += Frac((-1) ** n, math.factorial(n)) * c
        g += 1
    return tuple(out)


BLOCK_CASES = [(d, order) for d in range(1, 7) for order in range(1, 17)]


def test_closed_form_blocks_match_the_shift_route():
    # V (x + hbar/2)^-lead in closed form against shift_form's series substitution
    for d, order in BLOCK_CASES:
        want = _assembled_block(wf._theta_shifted, d, order)
        assert wf._degree_block(d, order) == want, (d, order)


def test_blocks_on_integers_match_the_fraction_assembly():
    for d, order in BLOCK_CASES:
        assert wf._degree_block(d, order) == degree_block_by_fractions(d, order), (d, order)


@pytest.mark.parametrize("g", range(3))
def test_block_values_on_integers_match_the_fraction_sum(g):
    # d = 0 included: the theta blocks (1, 1, 0) and (2, 1, 0) read zeta's coefficients
    for n in range(1, 5):
        for d in range(4):
            assert Frac(*wf._block_value(g, n, d)) == block_value_by_fractions(g, n, d), (n, d)


def test_degree_graded_link_detects_a_scaled_cumulant(monkeypatch):
    """Negative control: with K(4, (7,)), which the (0, 1, 4) block reads,
    doubled, the link reports disagreements at degree 4 and nowhere else."""
    exact = wedge._cumulants

    def scaled(d, ks):
        row = exact(d, ks)
        return row[:-1] + (2 * row[-1],) if (d, ks) == (4, (7,)) else row

    tables = (wf._degree_block, exact, wedge._connected_coefficient)
    for table in tables:
        table.cache_clear()
    monkeypatch.setattr(wedge, "_cumulants", scaled)
    try:
        result = build_degree_graded_x(4, 12)
    finally:
        monkeypatch.undo()
        for table in tables:
            table.cache_clear()
    assert not result
    assert {dd for dd, *_ in result.disagreements} == {4}
    assert build_degree_graded_x(4, 12)


def test_closed_form_block_comparison_detects_a_wrong_half_step():
    wrong = _mutant(wf._degree_block, "2**p", "2**(p+1)")
    assert any(
        wrong(d, order) != _assembled_block(wf._theta_shifted, d, order)
        for d, order in BLOCK_CASES
    )


def test_build_degree_graded_x_routes_agree(monkeypatch):
    # the blocks built from unit insertions give the same geometric side as
    # the closed-form half-step shifts the production path reads
    shift = build_degree_graded_x(3, 9)
    monkeypatch.setattr(
        wf, "_degree_block", lambda d, order: _assembled_block(wf._theta_definition, d, order)
    )
    definition = build_degree_graded_x(3, 9)
    for a, b in zip(shift.entries, definition.entries):
        assert a.geometric == b.geometric


def test_build_degree_graded_x_with_blocks_past_the_order():
    # the degree-8 block starts at 1/u^15, past order 12: it is zero in the
    # window, and the support check reads only the window
    result = build_degree_graded_x(8, 12)
    assert bool(result) is True
    assert len(result.entries) == 9
    assert not any(wf._degree_block(8, 12))


def test_build_degree_graded_x_catches_a_wrong_partition_sum(monkeypatch):
    assert bool(build_degree_graded_x(3, 8)) is True
    exact = wf.x_partition
    monkeypatch.setattr(wf, "x_partition", lambda d: exact(d) * 2 if d == 2 else exact(d))
    result = build_degree_graded_x(3, 8)
    assert bool(result) is False
    assert result.disagreements[0] == (2, 0, Frac(1, 2), Frac(1))


def test_build_degree_graded_x_reports_disagreement():
    from p1qcurve.wavefunction import DegreeGradedX, XEntry

    entry = XEntry(1, TruncatedSeries("uinv", 0, [1, 1], 1), x_partition(1))
    bad = DegreeGradedX(1, (entry,), ((1, 1, Frac(1), Frac(-1)),))
    assert bool(bad) is False
    assert bad.disagreements[0][0] == 1


# ---------------------------------------------------------------------------
# End-to-end verification and specializations
# ---------------------------------------------------------------------------


def test_qce_verification_small():
    report = qce_verification(3)
    assert bool(report) is True
    assert report.first_failure is None
    assert dict(report.links) == {
        "recursion": True,
        "conjugation": True,
        "degree-graded": True,
    }


def test_qce_verification_negative_control(monkeypatch):
    # perturb X_3 where the recursion link reads it; the degree-graded link
    # reads its own reference to x_partition and must stay intact
    from p1qcurve import qcurve

    exact = qcurve.x_partition
    extra = RationalFunction.one() / RationalFunction(Polynomial([1, 1]))
    monkeypatch.setattr(qcurve, "x_partition", lambda d: exact(d) + extra if d == 3 else exact(d))
    report = qce_verification(3)
    assert bool(report) is False
    assert report.first_failure == "recursion, d=3"
    links = dict(report.links)
    assert links["recursion"] is False
    assert links["conjugation"] is True
    assert links["degree-graded"] is True


def test_qce_verification_rejects_bad_dmax():
    with pytest.raises(ExactError):
        qce_verification(0)


def test_semiclassical_check():
    assert semiclassical_check() is True


def test_toda_specialization_check():
    assert toda_specialization_check(8, d_max=4) is True


def test_semiclassical_check_catches_a_wrong_one_point_series(monkeypatch):
    assert semiclassical_check(12) is True
    exact = toprec._one_point_closed_form
    monkeypatch.setattr(toprec, "_one_point_closed_form",
                        lambda order: exact(order) + TruncatedSeries.monomial("w", 3, 1, order))
    assert semiclassical_check(12) is False


def test_prefactor_checks_catch_a_wrong_bernoulli_term(monkeypatch):
    assert conjugation_check(6, 8) is True
    assert toda_specialization_check(8, 4) is True
    exact = wf.bernoulli_operator

    def with_extra_r2(order):
        form = exact(order)
        extra = TruncatedSeries.monomial("r", 2, 1, form.order)
        return LogLaurentForm(form.c, form.a + extra, form.b)

    monkeypatch.setattr(wf, "bernoulli_operator", with_extra_r2)
    assert conjugation_check(6, 8) is False
    assert toda_specialization_check(8, 4) is False


def test_toda_specialization_check_rejects_empty_degree_range():
    # d_max < 0 would skip every quadratic relation and pass vacuously
    with pytest.raises(ExactError):
        toda_specialization_check(8, d_max=-1)


def test_toda_kernel_series_identity():
    # (e^{t/2} - e^{-t/2})^2 * t/(e^t - 1) == t(1 - e^{-t}) via TruncatedSeries
    order = 12
    zeta = TruncatedSeries.from_function(
        "t",
        lambda m: Frac(1, 2 ** (m - 1) * math.factorial(m)) if m % 2 else Frac(0),
        1,
        order,
    )
    bern = TruncatedSeries.from_function(
        "t", lambda m: Frac(bernoulli_number(m), math.factorial(m)), 0, order
    )
    lhs = zeta * zeta * bern
    rhs = TruncatedSeries.from_function(
        "t",
        lambda j: Frac((-1) ** j, math.factorial(j - 1)) if j >= 2 else Frac(0),
        2,
        order,
    )
    for j in range(2, order + 1):
        assert lhs.coefficient(j) == rhs.coefficient(j)


def shift_form_to_order(order):
    return shift_form(bernoulli_operator(3), 1, order)


def apply_laurent_operator_to_order(order):
    return apply_laurent_operator(TruncatedSeries("t", -1, [1, 0, 1], 1), order)


ENTRY_POINTS = [
    (shift_form_to_order, (2,)),
    (apply_laurent_operator_to_order, (2,)),
    (qce_verification, (2,)),
    (conjugation_check, (2, 4)),
    (bernoulli_number, (2,)),
    (bernoulli_operator, (4,)),
    (build_degree_graded_x, (2, 6)),
    (theta_resummation_check, (0, 1, 0, 6)),
    (toda_specialization_check, (4, 2)),
    (semiclassical_check, (4,)),
]


@pytest.mark.parametrize("bad", [True, 2.0, Frac(2)], ids=["bool", "float", "Fraction"])
@pytest.mark.parametrize(
    "fn, args", ENTRY_POINTS, ids=[fn.__name__ for fn, _ in ENTRY_POINTS]
)
def test_entry_points_take_only_integers(fn, args, bad):
    # the good call fills the memo tables; a bool, float or Fraction equal
    # to a good argument must still be refused, in every position
    fn(*args)
    for pos in range(len(args)):
        with pytest.raises(ExactError, match="must be an integer"):
            fn(*args[:pos], bad, *args[pos + 1 :])



@pytest.mark.parametrize("m", [True, 0.5, 1.0], ids=["bool", "float", "integral-float"])
def test_shift_form_takes_only_exact_shifts(m):
    with pytest.raises(ExactError, match="exact scalar"):
        shift_form(bernoulli_operator(3), m, 2)
