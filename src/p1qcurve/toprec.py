"""Topological recursion on the curve x = z + 1/z, y = log z.

Stable correlation forms W_{g,n} are finite sums of tensor products of
single-pole differentials dz/(z -a)^j with a = +-1 and j >= 2; the recursion
residues are taken at z = 1 only, and those at z = -1 filled by branch
parity: z -> -z maps x to -x and swaps the branch points, so flipping every
label of a key multiplies its coefficient by (-1)^(sum of its pole orders)
(arXiv:1703.03307).  At a branch point a, with z = a + t and w = z + a,
1 - az = -at and 1 + az = aw, so every factor of the recursion integrand --
a pole of an inner form, the Bergman pair, the kernel numerator and each
Bergman coupling of an outer slot -- is a monomial c t^m z^p w^q.  The
engine (toprec_wgn) carries one scalar per partial state and reads each
residue as one coefficient of a cached series S_{p,q}: z^{p+2} w^{q-1}
times t over twice the kernel gap y(1/z) - y(z), in which the branch
constant log(-1) cancels (_loc_log_gap is the closed form -2 log(1 +- t)).
tests/test_toprec.py checks the gap against tests/oracles.formal_log_gap,
which carries the constant formally, the monomials against the series-inverse
chains, and the engine against the series route it replaced
(tests/oracles.series_branch_residues).

The module also provides the rational primitives eta(mu, d), whose
x-expansions are checked against the closed-form transition-matrix entries,
the antisymmetrized primitives F_{g,n} with their expansion in stationary
invariants (slot series in closed form, _slot_f_series), and the two
unstable closed forms S_0, S_1.

Every slot-by-slot map of a finished form -- the large-x expansions of
W_{g,n} and F_{g,n}, the z -> 1/z pullback, the derivative of F_{g,n}, the
evaluation at a point -- is the one contraction _slotwise of per-slot images.
It runs on integer numerators over one denominator per slot and makes one
Fraction per output coefficient.  The x-expansions of the slot-symmetric
W_{g,n} and F_{g,n} contract only the sorted exponent tuples and share each
coefficient with the tuple's permutations, and the stationary-invariant
check runs on the total-degree simplex it compares.  Branch labels a = +-1
are ints, and a power of one to a negative exponent is taken of a Fraction,
so every coefficient stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Frac
from functools import cache
from itertools import combinations, permutations, product
from typing import Iterator, Mapping, Sequence

from .exactcore import (
    ExactError,
    MultiSeries,
    PoleEvaluationError,
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    TruncationError,
    _integers,
    _memo_checked,
    series_compose,
    series_log,
)
from .wedge import (
    _one_point_closed_form,
    catalan_inverse,
    stationary_invariant,
    unit_insertions,
)

__all__ = [
    "CorrelationForm",
    "SMatrix",
    "eta_function",
    "fgn_x_expansion",
    "ns_expansion_check",
    "primitive_fgn",
    "primitive_slot_function",
    "s0_s1_closed_forms",
    "s_matrix",
    "theta_expansion_check",
    "toprec_wgn",
]


BRANCH_POINTS = (1, -1)

_Z = Polynomial.identity()          # the coordinate z
_XPRIME = RationalFunction(_Z * _Z - 1, _Z * _Z)
# x'(z) = 1 - 1/z^2 = (z^2 - 1)/z^2


# ---------------------------------------------------------------------------
# Stable correlation forms
# ---------------------------------------------------------------------------

PoleKey = tuple[tuple[int, int], ...]  # ((a, j) per slot, a = +-1)


@dataclass(frozen=True)
class CorrelationForm:
    """W_{g,n} = sum of c * prod_k dz_k/(z_k - a_k)^{j_k}, poles at a = +-1
    with j >= 2 only (stable forms carry no residues)."""

    g: int
    n: int
    terms: Mapping[PoleKey, Frac]

    def __post_init__(self) -> None:
        for key, c in self.terms.items():
            if len(key) != self.n:
                raise ExactError("pole key arity mismatch")
            if type(c) not in (int, Frac):
                raise ExactError(f"coefficient {c!r} is not an int or a Fraction")
            for a, j in key:
                if type(a) not in (int, Frac) or a not in (1, -1) or type(j) is not int or j < 2:
                    raise ExactError(f"illegal pole datum ({a!r},{j!r})")

    def pole_orders(self) -> tuple[int, ...]:
        """Maximal pole order seen in each slot."""
        out = [0] * self.n
        for key in self.terms:
            for k, (_, j) in enumerate(key):
                out[k] = max(out[k], j)
        return tuple(out)

    def evaluate(self, points: Sequence[Frac]) -> Frac:
        """The dz_1...dz_n-coefficient at a rational sample point."""
        return _evaluate(self, points, lambda a, j, p: Frac(1, (p - a) ** j))

    def is_symmetric(self) -> bool:
        return _slot_symmetric(self.terms, self.n)

    def involution_check(self, slot: int) -> bool:
        """Pullback z_slot -> 1/z_slot (including the d(1/z) factor) equals the
        negative of the form."""
        slot = range(self.n)[slot]  # a negative slot counts from the end
        out = _slotwise(
            self.terms, self.n, lambda k, pole: _pullback(*pole) if k == slot else {pole: 1}
        )
        return out == {k: -v for k, v in self.terms.items()}


def _evaluate(form, points: Sequence[Frac], slot_function) -> Frac:
    """sum_key c * prod_k slot_function(*key[k], points[k]) at an exact point,
    contracted by _slotwise, which evaluates each distinct (slot, pole) once;
    a point on a pole raises PoleEvaluationError."""
    if len(points) != form.n or any(type(p) not in (int, Frac) for p in points):
        raise ExactError(f"{points!r} is not a point of {form.n} ints or Fractions")
    poles = {(k, a) for key in form.terms for k, (a, _) in enumerate(key)}
    if any(points[k] == a for k, a in poles):
        raise PoleEvaluationError(f"evaluation at a pole: {points!r}")
    value = _slotwise(form.terms, form.n, lambda k, pole: {(): slot_function(*pole, points[k])})
    return value.get(((),) * form.n, Frac(0))


@cache
def _pullback(a: int, j: int) -> dict[tuple[int, int], Frac]:
    """dz/(z-a)^j pulled back through z -> 1/z, in the pole basis at the same a:
    d(1/z)/(1/z - a)^j = -(-a)^{-j} z^{j-2} dz/(z-a)^j (as 1/a = a), with
    z^{j-2} expanded binomially around a.  The power is taken of a Fraction:
    an int to a negative power would be a float."""
    base = -(Frac(-a) ** (-j))
    return {(a, j - l): base * math.comb(j - 2, l) * a ** (j - 2 - l) for l in range(j - 1)}


def _slot_symmetric(terms: Mapping[tuple, Frac], n: int) -> bool:
    """Whether the nonzero terms of arity n are invariant under every
    permutation of the slots: tested on the swap of slots 1, 2 and on the
    n-cycle, which generate S_n."""
    nonzero = {key: c for key, c in terms.items() if c}
    return n < 2 or all(
        {tuple(key[i] for i in perm): c for key, c in nonzero.items()} == nonzero
        for perm in ((1, 0, *range(2, n)), (*range(1, n), 0))
    )


def _slotwise(
    terms: Mapping[tuple, Frac], n: int, slot_map, *,
    symmetric: bool = False, total: int | None = None,
) -> dict[tuple, Frac]:
    """sum_key c * prod_k slot_map(k, key[k]) for terms {key: c} of arity n,
    where slot_map gives a slot item's image as a mapping label -> weight;
    the result maps label tuples to nonzero coefficients.  Expanded one slot
    at a time: partial states (labels so far, items left) that agree across
    keys are merged before the next slot.

    With symmetric, the term map must be invariant under every permutation
    of its slots (_slot_symmetric; ExactError otherwise), slot_map must not
    depend on the slot, and labels are ints, so the result is symmetric too.
    Only states whose labels are non-decreasing are kept -- with total, also
    only those whose labels left, each at least the last one, can keep the
    label sum within total -- and each sorted tuple's coefficient is then
    shared by all of its distinct permutations.

    The contraction runs on integer numerators: the term coefficients over
    their lcm denominator, each slot's image weights over one lcm
    denominator per slot, so a state update is an int multiply-add and
    each output coefficient is one Fraction over the product of them."""
    if symmetric and not _slot_symmetric(terms, n):
        raise ExactError("term map is not symmetric in its slots")
    den = math.lcm(*(c.denominator for c in terms.values()))
    state = {((), key): c.numerator * (den // c.denominator) for key, c in terms.items()}
    for k in range(n):
        images = {item: slot_map(k, item) for item in {rest[0] for _, rest in state}}
        slot_den = math.lcm(*(w.denominator for image in images.values() for w in image.values()))
        images = {
            item: [(label, w.numerator * (slot_den // w.denominator)) for label, w in image.items()]
            for item, image in images.items()
        }
        den *= slot_den
        nxt: dict[tuple, int] = {}
        for (done, rest), c in state.items():
            if symmetric:
                lo = done[-1] if done else -math.inf
                hi = math.inf if total is None else (total - sum(done)) // (n - k)
            for label, w in images[rest[0]]:
                if symmetric and not lo <= label <= hi:
                    continue
                s = (done + (label,), rest[1:])
                nxt[s] = nxt.get(s, 0) + c * w
        state = {s: c for s, c in nxt.items() if c}
    out = {done: Frac(c, den) for (done, _), c in state.items()}
    if symmetric:
        out = {perm: c for done, c in out.items() for perm in set(permutations(done))}
    return out


# ---------------------------------------------------------------------------
# Local monomials (z = a + t and w = z + a = 2a + t at a branch point a)
# ---------------------------------------------------------------------------
# As a^2 = 1: z - a = t, z + a = w, 1 - az = -at and 1 + az = aw, so every
# factor of the recursion integrand is a monomial c t^m z^p w^q, written
# (c, m, p, q).


@cache
def _loc_log_gap(a: int, order: int) -> TruncatedSeries:
    """y(1/z) - y(z) as a local series at z = a + t: -2 log(1+t) at a = 1
    and -2 log(1-t) at a = -1.

    At a = -1, log z = L + log(1-t) and log(1/z) = -log z + 2L (adjacent
    branch sheets) carry the branch constant L, which cancels in the gap.
    """
    sign = 1 if a == 1 else -1
    # -2 log(1 + sign t) = sum_k -2 (-1)^(k+1) sign^k t^k / k
    return TruncatedSeries.from_function(
        "t", lambda k: Frac(-2 * (-1) ** (k + 1) * sign**k, k), 1, order
    )


def _loc_pole(b: int, j: int, inv: bool, a: int) -> tuple:
    """1/(z - b)^j, or with inv 1/(1/z - b)^j d(1/z)/dz = -z^{j-2}/(1 - bz)^j,
    as a monomial at z = a + t."""
    if inv:
        return (-((-a) ** j), -j, j - 2, 0) if b == a else (-(a**j), 0, j - 2, -j)
    return (1, -j, 0, 0) if b == a else (1, 0, 0, -j)


def _loc_bergman_local_pair(a: int) -> tuple:
    """dz d(1/z)/(z - 1/z)^2 as a dz^2-coefficient, -1/(z^2 - 1)^2 = -t^-2 w^-2."""
    return (-1, -2, 0, -2)


def _loc_slot(a: int, item, k: int) -> tuple:
    """The factor of the pole label (a, k+2) in a slot, as monomials, with
    s = 1/z - a = -at/z: the kernel numerator s^{k+1} - t^{k+1} in slot 1
    (item None), the Bergman coupling (k+1) s^k d(1/z)/dz to 1/z (True) and
    (k+1) t^k to z (False)."""
    if item is None:
        return ((-a) ** (k + 1), k + 1, -(k + 1), 0), (-1, k + 1, 0, 0)
    if item:
        return ((-(k + 1) * (-a) ** k, k, -(k + 2), 0),)
    return ((k + 1, k, 0, 0),)


@cache
def _binomial(base: int, e: int, order: int) -> TruncatedSeries:
    """(base + t)^e through t^order, e in Z."""
    return TruncatedSeries.from_function(
        "t",
        lambda l: math.prod(range(e - l + 1, e + 1)) // math.factorial(l) * Frac(base) ** (e - l),
        0,
        order,
    )


@cache
def _loc_residue_series(a: int, p: int, q: int, order: int) -> TruncatedSeries:
    """S_{p,q} = z^{p+2} w^{q-1} t/(2 (y(1/z) - y(z))) at z = a + t through
    t^order.  The kernel denominator is 1/(2 (y(1/z) - y(z)) x'(z)) with
    x' = tw/z^2, so [t^-1] of c t^m z^p w^q times it is c [t^{1-m}] S_{p,q}.
    S_{p,q} is z^{p+2} S_{-2,q}, and S_{-2,q} is w^{q-1} S_{-2,1}: one series
    inverse per branch point and order."""
    if p != -2:
        return _binomial(a, p + 2, order) * _loc_residue_series(a, -2, q, order)
    if q != 1:
        return _binomial(2 * a, q - 1, order) * _loc_residue_series(a, -2, 1, order)
    return (2 * _loc_log_gap(a, order + 1)).shift_exponent(-1).inverse()


# ---------------------------------------------------------------------------
# The recursion engine
# ---------------------------------------------------------------------------


def _stable(g: int, n: int) -> bool:
    return 2 * g - 2 + n > 0


WGN_BOUND = 4  # the largest complexity 2g-2+n the recursion is run to
_ORDER_MARGIN = 16  # working order beyond the deepest local pole of a piece


@_memo_checked(lambda g, n: _integers(genus=g, points=n))
def toprec_wgn(g: int, n: int) -> CorrelationForm:
    """The stable correlation form W_{g,n} from the residue recursion.

    Residues at the branch point a = 1 are computed in the local coordinate
    z = a + t, and those at a = -1 filled by branch parity, c(-key) =
    (-1)^(sum of the pole orders) c(key).  Every factor of a recursion piece
    (_recursion_pieces) is a monomial c t^m z^p w^q with w = z + a, and so is
    every slot factor: the kernel numerator in slot 1, a Bergman coupling in
    an outer slot, 1 for a fixed pole.  The pieces are expanded slot by slot
    into pole labels, with one scalar per partial state (labels done, items
    left, m, p, q); slot factors only raise m, so a state past t^1 has no
    residue and is dropped.  The residue of a finished state against the
    kernel denominator is one coefficient [t^{1-m}] of the cached series
    S_{p,q} (_loc_residue_series).

    The working order is the deepest local pole of a piece plus
    _ORDER_MARGIN.  A residue read beyond it raises ExactError naming the
    branch point; it never yields a wrong form.
    """
    if g < 0 or n < 1 or not _stable(g, n):
        raise ExactError("toprec_wgn is defined for g >= 0, n >= 1 and 2g-2+n > 0")
    if 2 * g - 2 + n > WGN_BOUND:
        raise ExactError(
            f"complexity 2g-2+n = {2*g-2+n} exceeds the configured bound {WGN_BOUND}"
        )
    pieces = list(_recursion_pieces(g, n))
    order = max(sum(j for j, _ in local) for _, local, _ in pieces) + _ORDER_MARGIN
    try:
        residues = _branch_residues(pieces, n, 1, order)
    except TruncationError as exc:
        raise ExactError(
            f"local expansion order {order} insufficient at branch point 1; "
            "increase the working order"
        ) from exc
    terms = {key: c for key, c in residues.items() if c}
    # slot 1 carries the branch point, so a key and its flip are distinct
    terms.update([(tuple((-a, j) for a, j in key), (-1) ** sum(j for _, j in key) * c)
                  for key, c in terms.items()])
    return CorrelationForm(g, n, terms)


def _branch_residues(pieces, n: int, a: int, order: int) -> dict[PoleKey, Frac]:
    """[t^-1] at the branch point a of the recursion integrand, summed per
    pole label tuple of the n slots (see toprec_wgn).  The states carry
    integer numerators over the lcm denominator of the piece coefficients."""
    den = math.lcm(*(coeff.denominator for coeff, _, _ in pieces))
    # states (labels of slots done, items of slots left, None for slot 1,
    # m, p, q) -> the numerator of c in c t^m z^p w^q
    state: dict[tuple, int] = {}
    for coeff, local, items in pieces:
        c, m, p, q = coeff.numerator * (den // coeff.denominator), 0, 0, 0
        for _, factor in local:
            fc, dm, dp, dq = _loc_pole(*factor, a) if factor else _loc_bergman_local_pair(a)
            c, m, p, q = c * fc, m + dm, p + dp, q + dq
        key = ((), (None,) + items, m, p, q)
        state[key] = state.get(key, 0) + c
    for _ in range(n):
        nxt: dict[tuple, int] = {}
        for (done, items, m, p, q), c in state.items():
            item = items[0]
            if isinstance(item, tuple):  # a fixed pole
                factors = [(item, ((1, 0, 0, 0),))]
            else:
                factors = [((a, k + 2), _loc_slot(a, item, k)) for k in range(2 - m)]
            for label, monomials in factors:
                for fc, dm, dp, dq in monomials:
                    if m + dm <= 1:
                        s = (done + (label,), items[1:], m + dm, p + dp, q + dq)
                        nxt[s] = nxt.get(s, 0) + c * fc
        state = {s: c for s, c in nxt.items() if c}
    # each S_{p,q} is built only through the deepest coefficient read from it
    depth: dict[tuple[int, int], int] = {}
    for _, _, m, p, q in state:
        if 1 - m > order:
            raise TruncationError(f"[t^{1 - m}] read past the working order {order}")
        depth[p, q] = max(depth.get((p, q), 0), 1 - m)
    residues: dict[PoleKey, Frac] = {}
    for (done, _, m, p, q), c in state.items():
        value = c * _loc_residue_series(a, p, q, depth[p, q]).coefficient(1 - m)
        residues[done] = residues.get(done, 0) + value
    return {key: c / den for key, c in residues.items()}


def _recursion_pieces(g: int, n: int):
    """The terms of the recursion integrand of W_{g,n} as (coeff, local,
    items).  local lists the factors in the integration variable z as (pole
    order, data): (b, j, inv) for 1/(z - b)^j, or with inv the same pole on
    the 1/z side including d(1/z)/dz, and None for the Bergman pair of
    W_{0,2}(z, 1/z).  items holds one item per outer slot 2..n: a fixed pole
    (b, j), or the Bergman coupling of the slot to z (False) or to 1/z
    (True)."""
    if g >= 1:
        # W_{g-1,n+1}(z, 1/z, z_2..z_n)
        if _stable(g - 1, n + 1):
            for key, c in toprec_wgn(g - 1, n + 1).terms.items():
                (b0, j0), (b1, j1) = key[:2]
                yield c, ((j0, (b0, j0, False)), (j1, (b1, j1, True))), key[2:]
        elif (g - 1, n + 1) == (0, 2):
            # W_{0,2}(z, 1/z): the Bergman part only; fully local
            yield Frac(1), ((2, None),), ()

    # stable splittings W_{g1,|I|+1}(z, z_I) * W_{g2,|J|+1}(1/z, z_J)
    others = tuple(range(2, n + 1))
    for g1 in range(0, g + 1):
        g2 = g - g1
        for isize in range(0, len(others) + 1):
            for I in combinations(others, isize):
                J = tuple(sorted(set(others) - set(I)))
                if (g1, len(I) + 1) == (0, 1) or (g2, len(J) + 1) == (0, 1):
                    continue
                for cl, ll, il in _factor_terms(g1, I, False):
                    for cr, lr, ir in _factor_terms(g2, J, True):
                        slot_items = dict(il + ir)
                        yield cl * cr, ll + lr, tuple(slot_items[k] for k in others)


def _factor_terms(gf: int, slots: tuple[int, ...], inv: bool):
    """Expand one splitting factor W_{gf, len(slots)+1}(local, z_slots), the
    local point being z or, with inv, 1/z, into (coeff, local, slot items)
    with slot items as (slot, item) pairs."""
    if (gf, len(slots) + 1) == (0, 2):
        # Bergman coupling between the local point and one outer slot
        return [(Frac(1), (), ((slots[0], inv),))]
    return [
        (c, ((key[0][1], (*key[0], inv)),), tuple(zip(slots, key[1:])))
        for key, c in toprec_wgn(gf, len(slots) + 1).terms.items()
    ]


# ---------------------------------------------------------------------------
# x-expansion of a stable form (stationary-invariant cross-check)
# ---------------------------------------------------------------------------


@cache
def _catalan_branch(order: int) -> TruncatedSeries:
    return catalan_inverse(order, "w")


@cache
def _branch_dz_dx(order: int) -> TruncatedSeries:
    """dz/dx = z^2/(z^2 - 1) at z = z(w), from the branch known through order + 2."""
    z = _catalan_branch(order + 2)
    return (z * z) * (z * z - 1).inverse()


@cache
def _branch_pole(a: int, order: int) -> TruncatedSeries:
    """1/(z(w) - a), from the branch known through order + 2."""
    return (_catalan_branch(order + 2) - a).inverse()


@cache
def _slot_w_series(a: int, j: int, order: int) -> TruncatedSeries:
    """1/(z(w) - a)^j * dz/dx(z(w)): one tensor slot of W re-expanded at
    large x (w = 1/x), including the change from dz to dx."""
    return (_branch_pole(a, order) ** j * _branch_dz_dx(order)).truncate(order)


@cache
def _slot_f_series(a: int, j: int, order: int) -> TruncatedSeries:
    """primitive_slot_function(a, j) at z = z(w), through w^order: with
    P = 1/(z - a) and k = j - 1 it is -P^k (1 - (-a z)^k)/(2k), as
    1/z - a = -a z/P for a = +-1."""
    k = j - 1
    z = _catalan_branch(order + 2)
    return (_branch_pole(a, order) ** k * (1 - (-a * z) ** k) * Frac(-1, 2 * k)).truncate(order)


def _x_expansion(terms: Mapping[PoleKey, Frac], n: int, order: int, slot_series) -> MultiSeries:
    """sum_key c * prod_k slot_series(*key[k]) as a series in w_1..w_n, each
    slot series in w known through the given order.  A slot's lowest exponent
    is the least one over the keys (0 for a zero series).

    The term map must be symmetric in its slots (ExactError otherwise), as
    every W_{g,n} is: _slotwise contracts only the sorted exponent tuples and
    copies each coefficient to the tuple's permutations."""
    series = {pole: slot_series(*pole) for pole in {pole for key in terms for pole in key}}
    low = {pole: 0 if s.is_zero() else s.min_exp for pole, s in series.items()}
    return MultiSeries._from_record(
        tuple(f"w{k+1}" for k in range(n)),
        tuple(min((low[key[k]] for key in terms), default=0) for k in range(n)),
        (order,) * n,
        _slotwise(terms, n, lambda _, pole: dict(series[pole].items()), symmetric=True),
    )


def _wgn_x_series(form: CorrelationForm, order: int) -> MultiSeries:
    return _x_expansion(form.terms, form.n, order, lambda a, j: _slot_w_series(a, j, order))


def _wgn_x_simplex(form: CorrelationForm, total_order: int) -> dict[tuple[int, ...], Frac]:
    """The nonzero coefficients of _wgn_x_series(form, total_order) on the
    simplex sum(e) <= total_order.  As in _x_expansion the form must be
    symmetric: _slotwise contracts only the sorted tuples, drops a partial
    state once its labels left, each at least its last one, must leave the
    simplex, and copies each coefficient to the tuple's permutations."""
    series = {pole: _slot_w_series(*pole, total_order) for key in form.terms for pole in key}
    return _slotwise(form.terms, form.n, lambda _, pole: dict(series[pole].items()),
                     symmetric=True, total=total_order)


def _expected_w_coefficient(g: int, n: int, exps: Sequence[int]) -> Frac:
    """(b_i+1)!-weighted stationary invariant at the degree fixed by the
    dimension constraint; zero off the constraint or below the pole window."""
    if any(e < 2 for e in exps):
        return Frac(0)
    b = tuple(e - 2 for e in exps)
    s = sum(b) - (2 * g - 2)
    if s < 0 or s % 2:
        return Frac(0)
    value = stationary_invariant(g, n, s // 2, b)
    for bi in b:
        value *= math.factorial(bi + 1)
    return value


def ns_expansion_check(g: int, n: int, total_order: int = 10) -> bool:
    """Compare the recursion output W_{g,n}, re-expanded at large x, with the
    factorially weighted stationary invariants, for every exponent tuple of
    total degree at most total_order."""
    _integers(genus=g, points=n, order=total_order)
    if total_order < 0:
        raise ExactError("total order must be nonnegative")
    coeffs = _wgn_x_simplex(toprec_wgn(g, n), total_order)
    expected: dict[tuple[int, ...], Frac] = {}  # the prediction per sorted tuple
    for exps in _simplex(n, total_order):
        key = tuple(sorted(exps))
        if key not in expected:
            expected[key] = _expected_w_coefficient(g, n, key)
        if coeffs.get(exps, 0) != expected[key]:
            return False
    return True


def _simplex(n: int, total: int) -> Iterator[tuple[int, ...]]:
    """The n-tuples of nonnegative integers with sum at most total, in
    lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _simplex(n - 1, total - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# Transition matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SMatrix:
    """2x2 transition matrix; entries[r][c] with r, c in {0, 1} for the
    basis (flat unit class, fiber class)."""

    k: int
    entries: tuple[tuple[Frac, Frac], tuple[Frac, Frac]]

    def entry(self, r: int, c: int) -> Frac:
        return self.entries[r - 1][c - 1]


def _harmonic(k: int) -> Frac:
    return sum((Frac(1, j) for j in range(1, k + 1)), Frac(0))


@_memo_checked(lambda k: _integers(order=k))
def s_matrix(k: int) -> SMatrix:
    """Closed-form transition matrices: even orders are diagonal, odd orders
    are off-diagonal."""
    if k < 0:
        raise ExactError("matrix order must be nonnegative")
    if k == 0:
        return SMatrix(0, ((Frac(1), Frac(0)), (Frac(0), Frac(1))))
    if k % 2 == 0:
        half = k // 2
        f2 = Frac(1, math.factorial(half) ** 2)
        return SMatrix(
            k,
            (((1 - 2 * half * _harmonic(half)) * f2, Frac(0)), (Frac(0), f2)),
        )
    half = (k - 1) // 2
    f2 = Frac(1, math.factorial(half) ** 2)
    return SMatrix(
        k,
        ((Frac(0), -2 * _harmonic(half) * f2), (f2 / (half + 1), Frac(0))),
    )


# ---------------------------------------------------------------------------
# Rational primitives eta(mu, d)
# ---------------------------------------------------------------------------

_DZ_TO_DX = RationalFunction(_XPRIME.den, _XPRIME.num)  # dz/dx = z^2/(z^2 - 1)


@_memo_checked(lambda mu, d: _integers(index=mu, degree=d))
def eta_function(mu: int, d: int) -> RationalFunction:
    """Rational primitive family: eta(1,0) = 1/(1-z^2) - 1/2,
    eta(2,0) = z/(1-z^2), and each level applies -d/dx."""
    if mu not in (1, 2):
        raise ExactError("basis index must be 1 or 2")
    if d < 0:
        raise ExactError("level must be nonnegative")
    one_minus = 1 - _Z * _Z
    if d == 0:
        if mu == 1:
            return RationalFunction(Polynomial.one(), one_minus) - RationalFunction.constant(
                Frac(1, 2)
            )
        return RationalFunction(_Z, one_minus)
    prev = eta_function(mu, d - 1)
    return -(_DZ_TO_DX * prev.derivative())


def theta_expansion_check(i: int, d: int, order: int) -> bool:
    """Verify the large-x expansion of the rational primitive eta(i, d) in two
    independent ways:

    * coefficient form: eta(i, d) at z = z(1/x) equals the constant 1/2 (only
      for (i, d) = (1, 0)) plus sum_{m >= d} m! * M_{m-d}[2][i] / x^{m+1},
      where M_k is the order-k transition matrix;
    * residue form: the residue of x^m * eta(i, d) dx at z = 0 equals
      -m! * M_{m-d}[2][i] for every m up to the order.
    """
    _integers(index=i, degree=d, order=order)
    if i not in (1, 2):
        raise ExactError("basis index must be 1 or 2")
    eta = eta_function(i, d)

    # -- coefficient form
    z = _catalan_branch(order + 2)
    got = series_compose(eta.laurent_at(0, order + 2, "w"), z).truncate(order)
    expected = TruncatedSeries.zero("w", order)
    if d == 0 and i == 1:
        expected = TruncatedSeries.constant("w", Frac(1, 2), order)
    for m in range(d, order):
        coeff = s_matrix(m - d).entry(2, i) * math.factorial(m)
        if coeff:
            expected = expected + TruncatedSeries.monomial("w", m + 1, coeff, order)
    if got != expected:
        return False

    # -- residue form
    x_rf = RationalFunction(_Z * _Z + 1, _Z)
    for m in range(0, order):
        integrand = (x_rf**m) * eta * _XPRIME
        res = integrand.laurent_at(Frac(0), 1).coefficient(-1)
        want = (
            -s_matrix(m - d).entry(2, i) * math.factorial(m) if m >= d else Frac(0)
        )
        if res != want:
            return False
    return True


# ---------------------------------------------------------------------------
# Primitives of the stable forms
# ---------------------------------------------------------------------------


def _pole_datum(a, j: int) -> None:
    if type(a) not in (int, Frac):
        raise ExactError(f"pole {a!r} is not an int or a Fraction")
    _integers(pole_order=j)


@_memo_checked(_pole_datum)
def primitive_slot_function(a: int, j: int) -> RationalFunction:
    """The antisymmetrized antiderivative of dz/(z-a)^j: h(z) with
    h'(z) dz recovering the pole form after summation over a stable form's
    terms, h(1/z) = -h(z), and h regular at 0 and infinity."""
    if j < 2:
        raise ExactError(
            "first-order pole has a logarithmic antiderivative; stable forms "
            "never produce one"
        )
    base = RationalFunction(
        Polynomial.constant(Frac(-1, j - 1)), Polynomial.from_roots([a]) ** (j - 1)
    )
    return (base - base.reciprocal_substitution()) * Frac(1, 2)


@dataclass(frozen=True)
class FgnPrimitive:
    """F_{g,n} = sum of c * prod_k h_{a_k, j_k}(z_k) over the parent form's
    pole data; odd in every slot and vanishing at the origin."""

    g: int
    n: int
    terms: Mapping[PoleKey, Frac]

    def evaluate(self, points: Sequence[Frac]) -> Frac:
        """The value at an exact point, each slot's h_{a,j}(p) in the closed
        form -P^k (1 - (-a p)^k)/(2k), P = 1/(p - a), k = j - 1 (as in
        _slot_f_series), taken on integers: with p = u/v it is
        ((-a u)^k - v^k)/(2k (u - a v)^k), one Fraction per value."""
        return _evaluate(self, points, lambda a, j, p: Frac(
            (-a * p.numerator) ** (j - 1) - p.denominator ** (j - 1),
            2 * (j - 1) * (p.numerator - a * p.denominator) ** (j - 1)))

    def origin_vanishes(self) -> bool:
        return self.evaluate([Frac(0)] * self.n) == 0

    def odd_under_involution(self, samples: Sequence[Sequence[Frac]]) -> bool:
        for pts in samples:
            value = self.evaluate(pts)
            if 0 in pts:
                raise ExactError("z -> 1/z takes 0 to infinity, where F is not evaluated")
            for k in range(self.n):
                flipped = list(pts)
                flipped[k] = 1 / Frac(pts[k])
                if self.evaluate(flipped) != -value:
                    return False
        return True

    def derivative_recovery_check(self) -> bool:
        """Applying d/dz_k in every slot returns the parent form exactly
        (expanded back into the pole basis): h'_{a,j} is half the pole form
        minus half its pullback through z -> 1/z."""

        def derivative(_, pole):
            vec = {p: -w / 2 for p, w in _pullback(*pole).items()}
            vec[pole] = vec.get(pole, 0) + Frac(1, 2)
            return vec

        return _slotwise(self.terms, self.n, derivative) == dict(toprec_wgn(self.g, self.n).terms)


@_memo_checked(lambda g, n: _integers(genus=g, points=n))
def primitive_fgn(g: int, n: int) -> FgnPrimitive:
    """The multilinear primitive of W_{g,n}: slotwise antiderivatives,
    antisymmetrized under z -> 1/z, pinned to vanish at the origin."""
    form = toprec_wgn(g, n)
    prim = FgnPrimitive(g, n, dict(form.terms))
    if not prim.origin_vanishes():
        raise ExactError("primitive fails to vanish at the origin")
    return prim


def fgn_x_expansion(g: int, n: int, order: int, verify: bool = True) -> MultiSeries:
    """Large-x expansion of the primitive F_{g,n} as a series in w_i = 1/x_i.

    Each slot series is the closed form _slot_f_series, read from the
    cached branch tables.  With verify=True every coefficient in the window
    is compared against the unit-dressed stationary invariants; the first
    mismatch raises ExactError naming the exponent tuple and both values.
    """
    _integers(genus=g, points=n, order=order)
    if order < 0:
        raise ExactError("expansion order must be nonnegative")
    total = _x_expansion(
        primitive_fgn(g, n).terms, n, order, lambda a, j: _slot_f_series(a, j, order)
    )
    if verify:
        expected: dict[tuple[int, ...], Frac] = {}  # the prediction per sorted tuple
        for exps in product(range(order + 1), repeat=n):
            key = tuple(sorted(exps))
            if key not in expected:
                expected[key] = _expected_f_coefficient(g, n, key)
            got, want = total.coefficient(exps), expected[key]
            if got != want:
                raise ExactError(
                    f"primitive expansion mismatch at exponents {exps}: "
                    f"series has {got}, invariants give {want}"
                )
    return total


def _expected_f_coefficient(g: int, n: int, exps: Sequence[int]) -> Frac:
    """Coefficient of prod w_i^{e_i} in F_{g,n} predicted by the stationary
    invariants with unit insertions: slots with e = 0 carry a -1/2 unit, slots
    with e >= 1 carry -(e-1)! times a descendant of the fiber class."""
    unit_slots = sum(1 for e in exps if e == 0)
    b = tuple(e - 1 for e in exps if e > 0)
    s = sum(b) - (2 * g - 2) - unit_slots
    if s < 0 or s % 2:
        return Frac(0)
    d = s // 2
    value = unit_insertions(g, n - unit_slots, unit_slots, d, b)
    value *= Frac(-1, 2) ** unit_slots * Frac((-1) ** (n - unit_slots))
    for bi in b:
        value *= math.factorial(bi)
    return value


# ---------------------------------------------------------------------------
# Closed forms of the two unstable actions
# ---------------------------------------------------------------------------


def s0_s1_closed_forms(order: int = 12) -> bool:
    """Verify the closed forms of the two unstable actions.

    S0(z) = 1/z - z + (z + 1/z) log z satisfies dS0 = log z dx, is odd under
    z -> 1/z, and its large-x expansion reproduces the one-point stationary
    series.  S1(z) = -log(1 - z^2)/2 + log(z)/2 has the claimed x-derivative
    and its two-point assembly from unit-dressed invariants matches the
    closed form.  All log-bearing identities are split into rational
    components so every comparison is exact.
    """
    _integers(order=order)
    one = Polynomial.one()
    z = Polynomial([0, 1])

    # ---- part (a): dS0 = log z dx, with S0 = rat + logcoef * log z
    rat = RationalFunction(one, z) - RationalFunction(z)
    logcoef = RationalFunction(z) + RationalFunction(one, z)
    # d/dz: rat' + logcoef' log z + logcoef/z  must equal  log z * x'(z)
    if rat.derivative() + logcoef / RationalFunction(z) != RationalFunction.zero():
        return False
    if logcoef.derivative() != _XPRIME:
        return False

    # ---- part (b): oddness under z -> 1/z (log z is odd by branch choice)
    if rat.reciprocal_substitution() != -rat:
        return False
    if logcoef.reciprocal_substitution() != logcoef:
        return False

    # ---- part (c): x-derivative of S1 = -log(1-z^2)/2 + log(z)/2
    ds1_dz = (
        RationalFunction(z, one - z * z) + RationalFunction(one, 2 * z)
    )
    claimed = RationalFunction(
        -z * (z * z + one), 2 * (z * z - one) ** 2
    )
    if ds1_dz * _DZ_TO_DX != claimed:
        return False

    # ---- part (d1): bridge between the z-form and the x-expansion form of S0
    # 1/z - z + (z+1/z) log z == [x - x log x] + [-2z + x log(1+z^2)]
    # with log x = log(1+z^2) - log z; match the three symbol coefficients.
    x_rf = RationalFunction(z * z + one, z)
    if x_rf - 2 * RationalFunction(z) != rat:
        return False  # rational part
    if x_rf != logcoef:
        return False  # log z part (the log(1+z^2) parts cancel identically)

    # ---- part (d1'): the series form of the one-point closed form
    series_one = TruncatedSeries.zero("w", order)
    d = 1
    while 2 * d - 1 <= order:
        val = stationary_invariant(0, 1, d, (2 * d - 2,))
        series_one = series_one + TruncatedSeries.monomial(
            "w", 2 * d - 1, -math.factorial(2 * d - 2) * val, order
        )
        d += 1
    if _one_point_closed_form(order) != series_one:
        return False

    # ---- part (d2): two-point assembly at coincident points vs closed form
    # sum over unit-dressed pairs equals -log(1-z^2) + log(1+z^2)
    zs = _catalan_branch(order + 2)
    one_s = TruncatedSeries.constant("w", 1, zs.order)
    log_one_plus = series_log(one_s + zs * zs)  # log(1 + z^2)
    # mixed unit/fiber terms: 2 * (-1/2) * (-(2d-1)!) <unit, tau_{2d-1}>
    cross = TruncatedSeries.zero("w", order)
    d = 1
    while 2 * d <= order:
        u = unit_insertions(0, 1, 1, d, (2 * d - 1,))
        cross = cross + TruncatedSeries.monomial(
            "w", 2 * d, math.factorial(2 * d - 1) * u, order
        )
        d += 1
    assembled = cross
    # pure fiber terms: b1! b2! <tau_b1 tau_b2> at the dimension-pinned degree
    for b1 in range(0, order):
        for b2 in range(b1, order):
            if (b1 + b2) % 2 or b1 + b2 + 2 > order:
                continue
            deg = (b1 + b2 + 2) // 2
            val = stationary_invariant(0, 2, deg, (b1, b2))
            coeff = (
                math.factorial(b1) * math.factorial(b2) * val * (1 if b1 == b2 else 2)
            )
            assembled = assembled + TruncatedSeries.monomial(
                "w", b1 + b2 + 2, coeff, order
            )
    closed_two = log_one_plus.truncate(order) - series_log(one_s - zs * zs).truncate(order)
    if assembled != closed_two:
        return False

    # ---- part (d3): the mixed unit/fiber series alone matches log(1+z^2)
    if cross != log_one_plus.truncate(order):
        return False

    # ---- part (e): the unstable two-point primitive f = -log(1 - z1 z2)
    # d1 d2 f(z1 z2) = (u f'(u))' with u = z1 z2 must be 1/(1 - u)^2, and f
    # must vanish at the origin; together they pin f down
    u = TruncatedSeries.variable("u", order)
    f = -series_log(1 - u)
    if f.coefficient(0) != 0:
        return False
    return (u * f.derivative()).derivative() == ((1 - u) ** -2).truncate(order - 1)
