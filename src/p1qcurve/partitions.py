"""Integer partitions, hook products, and content-style polynomial identities.

Partitions are plain tuples of weakly decreasing positive integers; the empty
partition is ``()``.  The module provides the combinatorial layer used by the
partition-sum side of the package: enumeration, hook lengths, irreducible
dimensions, box addition/removal, and the polynomial built from the shifted
parts ``y + p[i] - (i+1)`` that drives the summation identities, and its
hook-weighted sum over the partitions of one size, summed on integers.

The hook product ``H`` is read from the parts, not from the hook lengths:
with ``l = len(p)`` and the strictly decreasing ``l_i = p_i + l - 1 - i``
(``i = 0..l-1``), ``H = prod_i l_i! / prod_{i<j} (l_i - l_j)``, and the
dimension is ``|p|! / H``.
"""

from __future__ import annotations

import math
from fractions import Fraction as Frac
from typing import Iterator

from .exactcore import ExactError, Polynomial, _integers, _memo_checked, _poly

Partition = tuple[int, ...]

__all__ = [
    "Partition",
    "is_partition",
    "partitions",
    "padded",
    "conjugate",
    "hook_lengths",
    "hook_product",
    "dimension",
    "boxes_removed",
    "boxes_added",
    "offset_product",
    "offset_sum",
    "hook_refinement_check",
    "offset_difference_check",
    "summation_corollary_check",
]


def is_partition(p) -> bool:
    """A tuple of weakly decreasing positive ints, none of them a bool."""
    return (
        isinstance(p, tuple)
        and all(type(x) is int for x in p)
        and list(p) == sorted(p, reverse=True)
        and (not p or p[-1] > 0)
    )


def _validate(p: Partition) -> None:
    if not is_partition(p):
        raise ExactError(f"not a partition: {p!r}")


@_memo_checked(lambda d: _integers(degree=d))
def partitions(d: int) -> tuple[Partition, ...]:
    """All partitions of ``d`` in decreasing lexicographic order."""
    if d < 0:
        raise ExactError("cannot partition a negative integer")

    def gen(rest: int, largest: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, largest), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(gen(d, d))


def padded(p: Partition, n: int) -> tuple[int, ...]:
    """The parts of ``p`` padded with zeros to length ``n``."""
    _validate(p)
    _integers(length=n)
    if n < len(p):
        raise ExactError(f"cannot pad {p} to shorter length {n}")
    return p + (0,) * (n - len(p))


def _sorted_tuples(total: int, n: int, low: int = 0) -> Iterator[tuple[int, ...]]:
    """The weakly increasing n-tuples of integers >= low with the given sum,
    in lexicographic order: with low = 0, the tuples of
    combinations_with_replacement(range(total + 1), n) that sum to total."""
    if n == 0:
        if total == 0:
            yield ()
    elif n == 1:
        if total >= low:
            yield (total,)
    else:
        for first in range(low, total // n + 1):
            for rest in _sorted_tuples(total - first, n - 1, first):
                yield (first,) + rest


def conjugate(p: Partition) -> Partition:
    _validate(p)
    if not p:
        return ()
    return tuple(sum(1 for x in p if x > j) for j in range(p[0]))


def hook_lengths(p: Partition) -> tuple[tuple[int, ...], ...]:
    """Hook length of every box, row by row."""
    conj = conjugate(p)  # validates p
    return tuple(
        tuple(p[i] - j + conj[j] - i - 1 for j in range(p[i])) for i in range(len(p))
    )


def _hook_product(p: Partition) -> int:
    """:func:`hook_product` on a checked partition, from the parts alone:
    with ``l = len(p)`` and ``l_i = p_i + l - 1 - i`` (0-based ``i``), the
    hooks of row ``i`` multiply to ``l_i! / prod_{j > i} (l_i - l_j)``."""
    n = len(p)
    num = den = 1
    for i in range(n):
        li = p[i] + n - 1 - i
        num *= math.factorial(li)
        for j in range(i + 1, n):
            den *= li - (p[j] + n - 1 - j)
    return num // den


@_memo_checked(_validate)
def hook_product(p: Partition) -> int:
    """The product ``H`` of all hook lengths of ``p``, in closed form: with
    ``l = len(p)`` and ``l_i = p_i + l - 1 - i`` for ``i = 0..l-1``,
    ``H = prod_i l_i! / prod_{i<j} (l_i - l_j)``."""
    return _hook_product(p)


@_memo_checked(_validate)
def dimension(p: Partition) -> int:
    """Number of standard fillings of the diagram (boxes 1..n increasing
    along rows and columns): ``n! / H`` by the hook length formula."""
    return math.factorial(sum(p)) // _hook_product(p)


def boxes_removed(p: Partition) -> tuple[Partition, ...]:
    """Partitions obtained by removing one corner box, in decreasing lex order."""
    _validate(p)
    out = []
    for i in range(len(p)):
        if i == len(p) - 1 or p[i] > p[i + 1]:
            q = list(p)
            q[i] -= 1
            out.append(tuple(x for x in q if x > 0))
    return tuple(out)


def boxes_added(p: Partition) -> tuple[Partition, ...]:
    """Partitions obtained by adding one box, in decreasing lex order."""
    _validate(p)
    out = []
    for i in range(len(p) + 1):
        cur = p[i] if i < len(p) else 0
        prev = p[i - 1] if i > 0 else None
        if prev is None or cur < prev:
            q = list(p)
            if i < len(p):
                q[i] += 1
            else:
                q.append(1)
            out.append(tuple(q))
    return tuple(out)


@_memo_checked(_validate)
def offset_product(p: Partition) -> Polynomial:
    """The monic polynomial ``prod_{i=1}^{n} (y + p_i - i)`` with ``n = sum(p)``
    boxes and the parts padded by zeros to length ``n``."""
    n = sum(p)
    parts = padded(p, n)
    return Polynomial.from_roots([-(parts[i] - (i + 1)) for i in range(n)])


def hook_refinement_check(mu: Partition) -> bool:
    """Adding one box refines the reciprocal hook product:
    ``sum over lambda covering mu of 1/H(lambda) == 1/H(mu)``."""
    _validate(mu)
    total = sum(Frac(1, hook_product(lam)) for lam in boxes_added(mu))
    return total == Frac(1, hook_product(mu))


def _times_linear(cs: list[int], c: int) -> list[int]:
    """The integer polynomial ``cs`` (ascending) times ``y + c``."""
    return [c * cs[0]] + [c * a + b for a, b in zip(cs[1:], cs)] + [cs[-1]]


@_memo_checked(lambda d: _integers(degree=d))
def offset_sum(d: int) -> Polynomial:
    """``G_d(y) = sum_{|lam| = d} P_lam(y) / H_lam^2`` with ``P`` the
    :func:`offset_product` and ``H`` the :func:`hook_product`.

    Summed once on integers: every ``1 / H_lam^2`` goes over
    ``L = lcm H_lam^2``.  The partitions, in the order of :func:`partitions`,
    walk the tree of their prefixes depth first, and ``prods[k]`` holds
    ``prod_{i <= k} (y + lam_i - i)`` for the current prefix of length ``k``:
    a partition keeps the products of the prefix it shares with the one
    before it and extends them by one multiply-add pass per new part, so
    each tree node costs one pass.  A partition of length ``l`` then adds its
    product, scaled once by the weight ``L / H_lam^2``, into the length-``l``
    sum ``S_l``.  The zero parts' factors ``prod_{i > l} (y - i)`` are shared
    by every partition of length ``l`` and are applied once, by Horner over
    the lengths: ``acc <- acc (y - l) + S_l``.  The result is one polynomial
    over ``L``, built from the integers without a ``Fraction`` per
    coefficient, and memoised: ``qcurve.x_partition`` and
    ``qcurve.y_polynomial`` share it.
    """
    if d < 0:
        raise ExactError("cannot partition a negative integer")
    weighted = [(lam, hook_product(lam) ** 2) for lam in partitions(d)]
    den = math.lcm(*(h2 for _, h2 in weighted))
    sums = [[0] * (length + 1) for length in range(d + 1)]
    prods = [[1]]
    prev: Partition = ()
    for lam, h2 in weighted:
        k = 0
        for a, b in zip(prev, lam):
            if a != b:
                break
            k += 1
        del prods[k + 1 :]
        for i in range(k, len(lam)):
            prods.append(_times_linear(prods[i], lam[i] - i - 1))
        w = den // h2
        s = sums[len(lam)]
        for j, x in enumerate(prods[-1]):
            s[j] += w * x
        prev = lam
    acc = sums[0]
    for length in range(1, d + 1):
        acc = _times_linear(acc, -length)
        for k, x in enumerate(sums[length]):
            acc[k] += x
    return _poly(acc, den)


def offset_difference_check(d: int) -> bool:
    """Polynomial identity tying weight d+1 to weight d:

    ``sum_{|lam| = d+1} (P_lam(y+1) - P_lam(y)) / H_lam^2
      == sum_{|mu| = d} P_mu(y) / H_mu^2``

    where ``P`` is :func:`offset_product`; that is ``G_{d+1}(y+1) - G_{d+1}(y)
    == G_d(y)`` for the :func:`offset_sum` ``G``, by linearity, so each side is
    summed once and the difference takes one shift.  Verified as an exact
    identity of polynomials with rational coefficients.
    """
    g = offset_sum(d + 1)
    return g.shift(1) - g == offset_sum(d)


def summation_corollary_check(d: int) -> bool:
    """Combined check for the partition-summation corollary at weight ``d``:
    the :func:`offset_difference_check` polynomial identity together with the
    :func:`hook_refinement_check` refinement for every partition of ``d``."""
    if d < 1:
        raise ExactError("summation corollary is stated for d >= 1")
    if not offset_difference_check(d):
        return False
    return all(hook_refinement_check(mu) for mu in partitions(d))
