"""
Residue recursion on x = z + 1/z, and its bridge to the invariants
==================================================================

The plane curve x = z + 1/z with branch points at z = +-1 drives a
residue recursion producing symmetric pole forms W_{g,n}.  Re-expanded
at large x, their coefficients are factorially weighted stationary
invariants -- an exact bridge between complex-analytic and
representation-theoretic sides, checked here coefficient by coefficient.
"""

from fractions import Fraction

from p1qcurve import (
    toprec_wgn,
    primitive_fgn,
    fgn_x_expansion,
    ns_expansion_check,
    s_matrix,
    stationary_invariant,
)
from p1qcurve.toprec import _wgn_x_series

# ---------------------------------------------------------------------------
# The recursion output is a finite sum of products of pole terms
# 1/(z_k - a_k)^{j_k} with a_k = +-1.  The first stable cases:
# ---------------------------------------------------------------------------

w03 = toprec_wgn(0, 3)
print("W_{0,3} pole data:")
for key, c in sorted(w03.terms.items()):
    print("   coeff", c, "at", [(str(a), j) for a, j in key])

w11 = toprec_wgn(1, 1)
print("W_{1,1} max pole order:", w11.pole_orders())
print("W_{1,1} symmetric:", w11.is_symmetric())

# ---------------------------------------------------------------------------
# Large-x expansion vs invariants: the w1^(b1+2)...wn^(bn+2) coefficient
# (w = 1/x) equals prod (b_i + 1)! times the stationary invariant at the
# degree fixed by the dimension constraint.
# ---------------------------------------------------------------------------

series = _wgn_x_series(w11, 8)
b = 2  # genus-1 one-point at degree (b - 0)/2 + ... -> degree 2 here
coeff = series.coefficient((b + 2,))
invariant = stationary_invariant(1, 1, 2, (b,))
print("expansion coefficient:", coeff)
print("(b+1)! * invariant   :", Fraction(6) * invariant)

print("full window check for five (g,n) pairs:",
      all(ns_expansion_check(g, n, 8) for g, n in
          ((0, 3), (1, 1), (0, 4), (1, 2), (2, 1))))

# ---------------------------------------------------------------------------
# Primitives: the unique multilinear antiderivatives, odd under z -> 1/z in
# every slot and vanishing at the origin; differentiating slotwise returns
# the recursion form exactly.
# ---------------------------------------------------------------------------

prim = primitive_fgn(1, 1)
print("primitive vanishes at origin:", prim.origin_vanishes())
print("slotwise derivative returns the form:", prim.derivative_recovery_check())
print("F_{1,1} expansion:", fgn_x_expansion(1, 1, 5).to_json()["terms"])

# ---------------------------------------------------------------------------
# Transition matrices: closed-form 2x2 matrices (even orders diagonal, odd
# orders off-diagonal) whose entries are the large-x coefficients of the
# rational primitives eta(mu, d); theta_expansion_check compares the two.
# ---------------------------------------------------------------------------

for k in range(5):
    m = s_matrix(k)
    print(f"matrix order {k}:", [[str(m.entry(r, c)) for c in (1, 2)] for r in (1, 2)])
