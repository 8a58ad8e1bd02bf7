"""Integer partitions, hook products, and content-style polynomial identities.

Partitions are plain tuples of weakly decreasing positive integers; the empty
partition is ``()``.  The module provides the combinatorial layer used by the
partition-sum side of the package: enumeration, hook lengths, irreducible
dimensions, box addition/removal, and the polynomial built from the shifted
parts ``y + p[i] - (i+1)`` that drives the summation identities.
"""

from __future__ import annotations

import math
from fractions import Fraction as Frac
from functools import cache

from .exactcore import ExactError, Polynomial

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
    "hook_refinement_check",
    "offset_difference_check",
    "summation_corollary_check",
]


def is_partition(p) -> bool:
    return (
        isinstance(p, tuple)
        and all(isinstance(x, int) and x > 0 for x in p)
        and all(p[i] >= p[i + 1] for i in range(len(p) - 1))
    )


def _validate(p: Partition) -> None:
    if not is_partition(p):
        raise ExactError(f"not a partition: {p!r}")


@cache
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
    if n < len(p):
        raise ExactError(f"cannot pad {p} to shorter length {n}")
    return p + (0,) * (n - len(p))


def conjugate(p: Partition) -> Partition:
    _validate(p)
    if not p:
        return ()
    return tuple(sum(1 for x in p if x > j) for j in range(p[0]))


def hook_lengths(p: Partition) -> tuple[tuple[int, ...], ...]:
    """Hook length of every box, row by row."""
    _validate(p)
    conj = conjugate(p)
    return tuple(
        tuple(p[i] - j + conj[j] - i - 1 for j in range(p[i])) for i in range(len(p))
    )


@cache
def hook_product(p: Partition) -> int:
    _validate(p)
    out = 1
    for row in hook_lengths(p):
        for h in row:
            out *= h
    return out


@cache
def dimension(p: Partition) -> int:
    """Number of standard fillings of the diagram (boxes 1..n increasing
    along rows and columns), via the hook product."""
    _validate(p)
    n = sum(p)
    num = math.factorial(n)
    h = hook_product(p)
    if num % h:
        raise ExactError(f"hook product {h} does not divide {n}! for {p}")
    return num // h


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


@cache
def offset_product(p: Partition) -> Polynomial:
    """The monic polynomial ``prod_{i=1}^{n} (y + p_i - i)`` with ``n = sum(p)``
    boxes and the parts padded by zeros to length ``n``."""
    _validate(p)
    n = sum(p)
    parts = padded(p, n)
    return Polynomial.from_roots([-(parts[i] - (i + 1)) for i in range(n)])


def hook_refinement_check(mu: Partition) -> bool:
    """Adding one box refines the reciprocal hook product:
    ``sum over lambda covering mu of 1/H(lambda) == 1/H(mu)``."""
    _validate(mu)
    total = sum(Frac(1, hook_product(lam)) for lam in boxes_added(mu))
    return total == Frac(1, hook_product(mu))


def offset_difference_check(d: int) -> bool:
    """Polynomial identity tying weight d+1 to weight d:

    ``sum_{|lam| = d+1} (P_lam(y+1) - P_lam(y)) / H_lam^2
      == sum_{|mu| = d} P_mu(y) / H_mu^2``

    where ``P`` is :func:`offset_product`.  Verified as an exact identity of
    polynomials with rational coefficients.
    """
    lhs = Polynomial.zero()
    for lam in partitions(d + 1):
        g = offset_product(lam)
        diff = g.shift(1) - g
        lhs = lhs + diff * Frac(1, hook_product(lam) ** 2)
    rhs = Polynomial.zero()
    for mu in partitions(d):
        rhs = rhs + offset_product(mu) * Frac(1, hook_product(mu) ** 2)
    return lhs == rhs


def summation_corollary_check(d: int) -> bool:
    """Combined check for the partition-summation corollary at weight ``d``:
    the :func:`offset_difference_check` polynomial identity together with the
    :func:`hook_refinement_check` refinement for every partition of ``d``."""
    if d < 1:
        raise ExactError("summation corollary is stated for d >= 1")
    if not offset_difference_check(d):
        return False
    return all(hook_refinement_check(mu) for mu in partitions(d))
